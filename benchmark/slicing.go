package main

import (
	"fmt"
	"math"
	"os"
	"sort"
	"time"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/experiments"
	"mobiletraffic/internal/littrafgen"
	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/probe"
	"mobiletraffic/internal/slicing"
)

// slicingJob is the §6.1 study as cmd/experiments runs it: ExpTable2
// on the set-up environment.
type slicingJob struct {
	envSetup
	o    runOptions
	scfg experiments.SlicingConfig
	res  *experiments.Table2Result
}

func newSlicing(o runOptions) *slicingJob {
	return &slicingJob{
		envSetup: envSetup{cfg: envConfig(o.Scale.EnvBS, o.Scale.EnvDays, o.Seed), shards: o.Scale.Shards, workDir: o.WorkDir},
		o:        o,
		scfg:     experiments.SlicingConfig{Antennas: o.Scale.Antennas, Days: o.Scale.SlicingDays, Seed: o.Seed},
	}
}

func (s *slicingJob) iterate(it *iteration) (err error) {
	if it.Resume, err = s.restore(); err != nil {
		return err
	}
	return measureCall(it, func() (err error) {
		s.res, err = experiments.ExpTable2(s.env, s.scfg)
		return err
	})
}

func (s *slicingJob) check() []check {
	catalogIdx, _ := modeledIndices(s.env)
	want := min(s.scfg.Antennas, len(s.env.Topo.BSs)) * len(catalogIdx)
	return append(checkSlicing(s.res, want), s.restoreCheck())
}

type table2Row struct {
	Name          string `json:"name"`
	MeanSatisfied any    `json:"mean_satisfied"`
	StdSatisfied  any    `json:"std_satisfied"`
	SLAMet        int    `json:"sla_met"`
	Slices        int    `json:"slices"`
}

func (s *slicingJob) record() any {
	rows := make([]table2Row, len(s.res.Strategies))
	for i, r := range s.res.Strategies {
		rows[i] = table2Row{r.Name, finite(r.MeanSatisfied), finite(r.StdSatisfied), r.SLAMet, r.Slices}
	}
	return map[string]any{"table2": rows}
}

func (s *slicingJob) traced(tr *tracer) (float64, error) {
	dir, err := os.MkdirTemp(s.o.WorkDir, "slicing-trace-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	ct, err := tracedCampaignPair(tr, "bench.setup", s.cfg, s.shards, dir)
	if err != nil {
		return 0, err
	}
	root := tr.reg.StartSpan("bench.slicing")
	t0 := time.Now()
	res, err := tracedTable2(tr, root, ct.resumed, s.scfg)
	wall := time.Since(t0).Seconds()
	root.End()
	if err != nil {
		return 0, err
	}
	tr.add("trace.replica_divergence", table2Divergence(res, s.res))
	return wall, nil
}

// table2Divergence is the largest absolute difference between two
// Table 2 results over every cell.
func table2Divergence(a, b *experiments.Table2Result) float64 {
	if len(a.Strategies) != len(b.Strategies) {
		return math.Inf(1)
	}
	var d float64
	for i := range a.Strategies {
		x, y := a.Strategies[i], b.Strategies[i]
		d = math.Max(d, math.Abs(x.MeanSatisfied-y.MeanSatisfied))
		d = math.Max(d, math.Abs(x.StdSatisfied-y.StdSatisfied))
		d = math.Max(d, math.Abs(float64(x.SLAMet-y.SLAMet)))
		d = math.Max(d, math.Abs(float64(x.Slices-y.Slices)))
	}
	return d
}

// modeledIndices mirrors the driver's map from catalog to model-set
// indices, keeping only modeled services.
func modeledIndices(env *experiments.Env) (catalogIdx, modelIdx []int) {
	for mi := range env.Models.Services {
		for ci, p := range env.Catalog {
			if p.Name == env.Models.Services[mi].Name {
				catalogIdx = append(catalogIdx, ci)
				modelIdx = append(modelIdx, mi)
				break
			}
		}
	}
	return catalogIdx, modelIdx
}

// busiestAntennas mirrors the driver's antenna choice: up to n BSs by
// descending load decile, ties by index.
func busiestAntennas(env *experiments.Env, n int) []int {
	idx := make([]int, len(env.Topo.BSs))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool {
		return env.Topo.BSs[idx[a]].Decile > env.Topo.BSs[idx[b]].Decile
	})
	return idx[:min(n, len(idx))]
}

// tracedTable2 composes ExpTable2 from the same public calls on the
// same inputs, with spans around each batch of layer calls. It differs
// from the driver in one place: the category reference demand is
// rasterized with slicing.DemandTrace.AddSession instead of the
// driver's private per-day tiles, so its sums may round differently;
// trace.replica_divergence shows by how much the result moves.
func tracedTable2(tr *tracer, root *obs.Span, env *experiments.Env, c experiments.SlicingConfig) (*experiments.Table2Result, error) {
	catalogIdx, modelIdx := modeledIndices(env)
	if len(catalogIdx) == 0 {
		return nil, fmt.Errorf("no modeled services for slicing")
	}
	numServices := len(env.Catalog)
	peak := slicing.PeakMinutes()
	membership := make([]int, numServices)
	for ci, p := range env.Catalog {
		membership[ci] = int(littrafgen.CategoryOf(p))
	}
	strategies := []string{"session-level models", "bm_a", "bm_b"}
	study := busiestAntennas(env, c.Antennas)
	refDays := max(c.Days, 4)
	perAntenna := make([]map[string][]slicing.SLAResult, len(study))
	errs := make([]error, len(study))
	tr.runTasks(root, len(study), c.Workers, func(ai int, sp *obs.Span) {
		perAntenna[ai], errs[ai] = tracedAntenna(tr, sp, env, c, study[ai], refDays, catalogIdx, modelIdx, membership, peak)
	})
	for ai, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("antenna %d: %w", study[ai], err)
		}
	}
	out := &experiments.Table2Result{}
	timed(root, "slicing.evaluate", func() {
		perStrategy := map[string][]slicing.SLAResult{}
		for _, mine := range perAntenna {
			for name, rs := range mine {
				perStrategy[name] = append(perStrategy[name], rs...)
			}
		}
		for _, name := range strategies {
			s := slicing.Summarize(perStrategy[name], 0.95)
			out.Strategies = append(out.Strategies, experiments.StrategyResult{
				Name: name, MeanSatisfied: s.MeanSatisfied, StdSatisfied: s.StdSatisfied,
				SLAMet: s.SLAMetCount, Slices: s.SliceCount,
			})
		}
	})
	return out, nil
}

// tracedAntenna is one antenna's study: measured demand, the three
// reference demands and allocations, and their evaluation.
func tracedAntenna(tr *tracer, sp *obs.Span, env *experiments.Env, c experiments.SlicingConfig, a, refDays int,
	catalogIdx, modelIdx, membership []int, peak func(int) bool) (map[string][]slicing.SLAResult, error) {
	numServices := len(env.Catalog)
	real, err := tracedRealDemand(tr, sp, env, a, c.Days, numServices)
	if err != nil {
		return nil, err
	}
	var peakS, offS []float64
	timed(sp, "probe.aggregate", func() {
		filter := probe.BSIn([]int{a})
		peakS = env.Coll.MinuteCountSamples(filter, netsim.IsPeakMinute)
		offS = env.Coll.MinuteCountSamples(filter, netsim.IsOffPeakMinute)
	})
	var arr *core.ArrivalModel
	timed(sp, "core.fit_antenna", func() { arr, err = core.FitArrivalModel(peakS, offS) })
	if err != nil {
		return nil, err
	}
	modelRef, err := tracedModelDemand(tr, sp, env, arr, refDays, numServices, catalogIdx, modelIdx, c.Seed+int64(a), uint64(a))
	if err != nil {
		return nil, err
	}
	allocs := map[string]slicing.Allocation{}
	timed(sp, "slicing.allocate", func() { allocs["session-level models"], err = slicing.AllocatePercentile(modelRef, 0.95, peak) })
	if err != nil {
		return nil, err
	}
	for _, bm := range []struct {
		name   string
		shares [littrafgen.NumCategories]float64
	}{
		{"bm_a", littrafgen.BMAShares()},
		{"bm_b", littrafgen.BMBShares()},
	} {
		catRef, err := tracedCategoryDemand(tr, sp, arr, refDays, bm.shares, c.Seed+int64(a)*7+31, uint64(a))
		if err != nil {
			return nil, err
		}
		timed(sp, "slicing.allocate", func() { allocs[bm.name], err = slicing.AllocateCategoryUniform(catRef, membership, 0.95, peak) })
		if err != nil {
			return nil, err
		}
	}
	mine := make(map[string][]slicing.SLAResult, len(allocs))
	timed(sp, "slicing.evaluate", func() {
		for name, alloc := range allocs {
			var res []slicing.SLAResult
			if res, err = slicing.Evaluate(real, alloc, peak); err != nil {
				return
			}
			for _, ci := range catalogIdx {
				mine[name] = append(mine[name], res[ci])
			}
		}
	})
	return mine, err
}

// tracedRealDemand replays the simulator's sessions of one BS, a day
// at a time, and rasterizes each day's batch into the measured demand.
func tracedRealDemand(tr *tracer, sp *obs.Span, env *experiments.Env, bs, days, numServices int) (*slicing.DemandTrace, error) {
	var trace *slicing.DemandTrace
	var err error
	timed(sp, "slicing.alloc", func() { trace, err = slicing.NewDemandTrace(numServices, days*24*60) })
	if err != nil {
		return nil, err
	}
	var specs []slicing.SessionSpec
	for day := 0; day < days; day++ {
		specs = specs[:0]
		origin := float64(day) * 86400
		timed(sp, "netsim.replay", func() {
			err = env.Sim.GenerateDay(bs, day, func(s netsim.Session) {
				specs = append(specs, slicing.SessionSpec{Service: s.Service, Start: origin + s.Start, Duration: s.Duration, Volume: s.Volume})
			})
		})
		if err != nil {
			return nil, err
		}
		tr.add("netsim.replay_sessions", float64(len(specs)))
		rasterizeSlicing(tr, sp, trace, specs)
	}
	return trace, nil
}

// tracedModelDemand generates the model reference demand on the
// parallel campaign plane (one worker, as the driver runs it) and
// rasterizes each day block as it is folded.
func tracedModelDemand(tr *tracer, sp *obs.Span, env *experiments.Env, arr *core.ArrivalModel, days, numServices int,
	catalogIdx, modelIdx []int, seed int64, key uint64) (*slicing.DemandTrace, error) {
	var trace *slicing.DemandTrace
	var err error
	timed(sp, "slicing.alloc", func() { trace, err = slicing.NewDemandTrace(numServices, days*24*60) })
	if err != nil {
		return nil, err
	}
	gen := sp.Child("core.gen")
	defer gen.End()
	g, err := core.NewGeneratorEngine(env.Models, seed, core.GenV2)
	if err != nil {
		return nil, err
	}
	toCatalogIdx := make([]int, len(env.Models.Services))
	for i := range toCatalogIdx {
		toCatalogIdx[i] = -1
	}
	for k, mi := range modelIdx {
		toCatalogIdx[mi] = catalogIdx[k]
	}
	var specs []slicing.SessionSpec
	err = g.GenerateCampaignFold(core.CampaignSpec{
		Arrivals: []*core.ArrivalModel{arr}, Keys: []uint64{key}, Days: days, Workers: 1,
	}, func(blk *core.DayBlock) error {
		tr.add("core.gen_sessions", float64(blk.Sessions()))
		specs = specs[:0]
		timed(gen, "bench.convert", func() {
			origin := float64(blk.Day) * 86400
			for i := 0; i < blk.Sessions(); i++ {
				if ci := toCatalogIdx[blk.Svc[i]]; ci >= 0 {
					specs = append(specs, slicing.SessionSpec{Service: ci, Start: origin + blk.Start[i], Duration: blk.Duration[i], Volume: blk.Volume[i]})
				}
			}
		})
		rasterizeSlicing(tr, gen, trace, specs)
		return nil
	})
	return trace, err
}

// catPhaseDomain is the driver's salt for the category builder's
// phase/count/start stream; the replica must draw the same numbers.
const catPhaseDomain uint64 = 0xEC5E_CA7E_70A5E4D1

// tracedCategoryDemand draws the category reference demand from the
// same per-day littrafgen substreams and phase stream as the driver,
// and folds each day's sessions into the trace in day order.
func tracedCategoryDemand(tr *tracer, sp *obs.Span, arr *core.ArrivalModel, days int, shares [littrafgen.NumCategories]float64, seed int64, key uint64) (*slicing.DemandTrace, error) {
	var trace *slicing.DemandTrace
	var err error
	timed(sp, "slicing.alloc", func() { trace, err = slicing.NewDemandTrace(littrafgen.NumCategories, days*24*60) })
	if err != nil {
		return nil, err
	}
	var gen *littrafgen.Generator
	timed(sp, "littrafgen.setup", func() { gen = littrafgen.NewGeneratorEngine(shares, seed, core.GenV2) })
	dayW := make([]float64, 24*60)
	for m := range dayW {
		dayW[m] = netsim.DayWeight(m)
	}
	type daySpecs struct {
		specs []slicing.SessionSpec
		err   error
	}
	foldErr := core.FoldTasks(days, 1, func(_, d int, slot *daySpecs) {
		slot.specs = slot.specs[:0]
		timed(sp, "littrafgen.sample", func() {
			var sub *littrafgen.Generator
			if sub, slot.err = gen.Substream(key, uint64(d)); slot.err != nil {
				return
			}
			var pcg mathx.PCG
			pcg.SeedStream(uint64(seed)^catPhaseDomain, key, uint64(d))
			origin := float64(d) * 86400
			for m := 0; m < 24*60; m++ {
				n := arr.SampleCountFast(pcg.Float64() < dayW[m], &pcg)
				for k := 0; k < n; k++ {
					s := sub.Sample()
					slot.specs = append(slot.specs, slicing.SessionSpec{
						Service: int(s.Category), Start: origin + float64(m)*60 + pcg.Float64()*60,
						Duration: s.Duration, Volume: s.Volume,
					})
				}
			}
		})
		tr.add("littrafgen.sessions", float64(len(slot.specs)))
	}, func(_ int, slot *daySpecs) error {
		if slot.err != nil {
			return slot.err
		}
		rasterizeSlicing(tr, sp, trace, slot.specs)
		return nil
	})
	return trace, foldErr
}

// rasterizeSlicing adds a batch of sessions to a demand trace, ignoring
// invalid ones as the driver does, and counts the minute slots each
// valid session spans.
func rasterizeSlicing(tr *tracer, parent *obs.Span, trace *slicing.DemandTrace, specs []slicing.SessionSpec) {
	timed(parent, "slicing.rasterize", func() {
		for i := range specs {
			_ = trace.AddSession(specs[i])
		}
	})
	timed(parent, "bench.count", func() {
		var sessions, slots int
		for _, s := range specs {
			if s.Service >= 0 && s.Service < trace.NumServices && s.Duration > 0 && s.Volume > 0 {
				sessions++
				slots += slotsSpanned(s.Start, s.Duration, 60, trace.Minutes)
			}
		}
		tr.add("slicing.rasterize_sessions", float64(sessions))
		tr.add("slicing.slot_updates", float64(slots))
	})
}

// slotsSpanned is the number of slots of the given width that the
// per-slot rasterizers (slicing.DemandTrace.AddSession,
// vran.ThroughputSeries.AddSession) update for a session of positive
// duration starting at start >= 0, on a horizon of n slots. Slot m > first
// is updated while m*width < start+duration.
func slotsSpanned(start, duration, width float64, n int) int {
	first := int(start / width)
	if first >= n {
		return 0
	}
	end := start + duration
	last := int(math.Ceil(end / width)) // first slot past the session, up to rounding
	for float64(last)*width < end {
		last++
	}
	for last-1 > first && float64(last-1)*width >= end {
		last--
	}
	return min(max(last, first+1), n) - first
}
