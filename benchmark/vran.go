package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"time"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/experiments"
	"mobiletraffic/internal/littrafgen"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/vran"
)

// vranJob is the §6.2 study as cmd/experiments runs it: ExpFig13 on
// the set-up environment.
type vranJob struct {
	envSetup
	o    runOptions
	vcfg experiments.VRANConfig
	res  *experiments.Fig13Result
}

func newVRAN(o runOptions) *vranJob {
	return &vranJob{
		envSetup: envSetup{cfg: envConfig(o.Scale.EnvBS, o.Scale.EnvDays, o.Seed), shards: o.Scale.Shards, workDir: o.WorkDir},
		o:        o,
		vcfg:     experiments.VRANConfig{ESs: o.Scale.ESs, RUsPerES: o.Scale.RUsPerES, Hours: o.Scale.Hours, Seed: o.Seed},
	}
}

func (v *vranJob) iterate(it *iteration) (err error) {
	if it.Resume, err = v.restore(); err != nil {
		return err
	}
	return measureCall(it, func() (err error) {
		v.res, err = experiments.ExpFig13(v.env, v.vcfg)
		return err
	})
}

func (v *vranJob) check() []check {
	return append(checkVRAN(v.res), v.restoreCheck())
}

type fig13Row struct {
	Name       string         `json:"name"`
	ActiveAPE  map[string]any `json:"active_ape"`
	PowerAPE   map[string]any `json:"power_ape"`
	MeanActive any            `json:"mean_active"`
	MeanPowerW any            `json:"mean_power_w"`
}

func apeRecord(a vran.APESummary) map[string]any {
	return map[string]any{"q1": finite(a.Q1), "median": finite(a.Median), "q3": finite(a.Q3)}
}

func (v *vranJob) record() any {
	rows := make([]fig13Row, len(v.res.Strategies))
	for i, s := range v.res.Strategies {
		rows[i] = fig13Row{s.Name, apeRecord(s.ActiveAPE), apeRecord(s.PowerAPE), finite(s.MeanActive), finite(s.MeanPowerW)}
	}
	return map[string]any{
		"fig13b":           rows,
		"real_mean_active": finite(v.res.RealMeanActive),
		"real_mean_power":  finite(v.res.RealMeanPower),
	}
}

func (v *vranJob) traced(tr *tracer) (float64, error) {
	dir, err := os.MkdirTemp(v.o.WorkDir, "vran-trace-*")
	if err != nil {
		return 0, err
	}
	defer os.RemoveAll(dir)
	ct, err := tracedCampaignPair(tr, "bench.setup", v.cfg, v.shards, dir)
	if err != nil {
		return 0, err
	}
	root := tr.reg.StartSpan("bench.vran")
	t0 := time.Now()
	res, err := tracedFig13(tr, root, ct.resumed, v.vcfg)
	wall := time.Since(t0).Seconds()
	root.End()
	if err != nil {
		return 0, err
	}
	tr.add("trace.replica_divergence", fig13Divergence(res, v.res))
	return wall, nil
}

// fig13Divergence is the largest absolute difference between two
// Fig. 13 results over every reported number.
func fig13Divergence(a, b *experiments.Fig13Result) float64 {
	if len(a.Strategies) != len(b.Strategies) {
		return math.Inf(1)
	}
	d := math.Max(math.Abs(a.RealMeanPower-b.RealMeanPower), math.Abs(a.RealMeanActive-b.RealMeanActive))
	for i := range a.Strategies {
		x, y := a.Strategies[i], b.Strategies[i]
		for _, p := range [][2]float64{
			{x.MeanActive, y.MeanActive}, {x.MeanPowerW, y.MeanPowerW},
			{x.ActiveAPE.P5, y.ActiveAPE.P5}, {x.ActiveAPE.Q1, y.ActiveAPE.Q1}, {x.ActiveAPE.Median, y.ActiveAPE.Median},
			{x.ActiveAPE.Q3, y.ActiveAPE.Q3}, {x.ActiveAPE.P95, y.ActiveAPE.P95},
			{x.PowerAPE.P5, y.PowerAPE.P5}, {x.PowerAPE.Q1, y.PowerAPE.Q1}, {x.PowerAPE.Median, y.PowerAPE.Median},
			{x.PowerAPE.Q3, y.PowerAPE.Q3}, {x.PowerAPE.P95, y.PowerAPE.P95},
		} {
			d = math.Max(d, math.Abs(p[0]-p[1]))
		}
	}
	return d
}

// vranSpec is one session bound for a DU's throughput series.
type vranSpec struct {
	du                   int
	start, duration, vol float64
}

// tracedFig13 composes ExpFig13 from the same public calls on the same
// inputs and in the same draw order, with spans around each RU's batch
// of draws and of rasterized sessions, so its result equals the
// driver's exactly.
func tracedFig13(tr *tracer, root *obs.Span, env *experiments.Env, c experiments.VRANConfig) (*experiments.Fig13Result, error) {
	catalogIdx, modelIdx := modeledIndices(env)
	if len(catalogIdx) == 0 {
		return nil, fmt.Errorf("no modeled services for vRAN")
	}
	probs := make([]float64, len(catalogIdx))
	var total float64
	for k, ci := range catalogIdx {
		probs[k] = env.Catalog[ci].SessionSharePct
		total += probs[k]
	}
	for k := range probs {
		probs[k] /= total
	}
	rus, minutes, slots := c.ESs*c.RUsPerES, c.Hours*60, c.Hours*3600
	duOf := func(ru int) int { return ru / c.RUsPerES }

	// The shared arrival realization: counts from the fitted per-decile
	// arrival models, service labels from the modeled shares.
	rng := rand.New(rand.NewSource(c.Seed ^ 0x77aa))
	shared := make([][][]int, rus)
	timed(root, "core.arrival_draw", func() {
		for r := range shared {
			shared[r] = make([][]int, minutes)
			arr := env.Arrivals[r%10]
			for m := 0; m < minutes; m++ {
				n := arr.SampleCount(rng.Float64() < netsim.DayWeight((8*60+m)%(24*60)), rng)
				svcs := make([]int, n)
				for k := range svcs {
					svcs[k] = pickIdx(probs, rng)
				}
				shared[r][m] = svcs
			}
		}
	})

	ps := vran.DefaultPS()
	var realSeries *vran.ThroughputSeries
	var err error
	timed(root, "vran.alloc", func() { realSeries, err = vran.NewThroughputSeries(c.ESs, slots) })
	if err != nil {
		return nil, err
	}
	realRng := rand.New(rand.NewSource(c.Seed + 1))
	var realVolSum, realVolCount float64
	var catVolSum, catVolCount [littrafgen.NumCategories]float64
	moveProb, meanDwell := env.Sim.Config.MoveProb, env.Sim.Config.MeanDwell
	var specs []vranSpec
	for r := 0; r < rus; r++ {
		specs = specs[:0]
		timed(root, "services.sample", func() {
			for m := 0; m < minutes; m++ {
				for _, k := range shared[r][m] {
					prof := env.Catalog[catalogIdx[k]]
					vol := prof.SampleVolume(realRng)
					dur := prof.SampleDuration(vol, realRng)
					if moveProb > 0 && realRng.Float64() < moveProb {
						dwell := math.Max(realRng.ExpFloat64()*meanDwell, 1)
						if dwell < dur {
							vol *= dwell / dur
							dur = dwell
						}
					}
					specs = append(specs, vranSpec{duOf(r), float64(m)*60 + realRng.Float64()*60, dur, vol})
					realVolSum += vol
					realVolCount++
					cat := littrafgen.CategoryOf(prof)
					catVolSum[cat] += vol
					catVolCount[cat]++
				}
			}
		})
		if err := rasterizeVRAN(tr, root, realSeries, specs); err != nil {
			return nil, err
		}
	}
	var realRun *vran.RunResult
	timed(root, "vran.orchestrate", func() { realRun, err = vran.Run(ps, realSeries) })
	if err != nil {
		return nil, err
	}
	out := &experiments.Fig13Result{RealMeanPower: realRun.MeanPower(), RealMeanActive: realRun.MeanActive()}

	var bmA, bmB, bmC *littrafgen.Generator
	timed(root, "littrafgen.setup", func() {
		bmA = littrafgen.NewGeneratorEngine(littrafgen.BMAShares(), c.Seed+5, core.GenV2)
		bmB = littrafgen.NewGeneratorEngine(littrafgen.BMBShares(), c.Seed+6, core.GenV2)
		if realVolCount > 0 {
			bmB.NormalizeTotal(realVolSum / realVolCount)
		}
		bmC = littrafgen.NewGeneratorEngine(littrafgen.BMAShares(), c.Seed+7, core.GenV2)
		var catMeans [littrafgen.NumCategories]float64
		for cat := range catMeans {
			if catVolCount[cat] > 0 {
				catMeans[cat] = catVolSum[cat] / catVolCount[cat]
			}
		}
		bmC.NormalizePerCategory(catMeans)
	})
	var genModel *core.Generator
	timed(root, "core.gen", func() { genModel, err = core.NewGeneratorEngine(env.Models, c.Seed+100, core.GenV2) })
	if err != nil {
		return nil, err
	}
	type factory func(k int) (vol, dur float64)
	lit := func(g *littrafgen.Generator) factory {
		return func(k int) (float64, float64) {
			s := g.SampleCategory(littrafgen.CategoryOf(env.Catalog[catalogIdx[k]]))
			return s.Volume, s.Duration
		}
	}
	strategies := []struct {
		name  string
		span  string // the layer that draws the sessions
		count string
		f     factory
	}{
		{"session-level models", "core.gen", "core.gen_sessions", func(k int) (float64, float64) {
			s, err := genModel.SessionFor(modelIdx[k])
			if err != nil {
				return 0, 0
			}
			return s.Volume, s.Duration
		}},
		{"bm_a", "littrafgen.sample", "littrafgen.sessions", lit(bmA)},
		{"bm_b", "littrafgen.sample", "littrafgen.sessions", lit(bmB)},
		{"bm_c", "littrafgen.sample", "littrafgen.sessions", lit(bmC)},
	}
	results := make([]experiments.VRANStrategy, len(strategies))
	errs := make([]error, len(strategies))
	tr.runTasks(root, len(strategies), c.Workers, func(si int, sp *obs.Span) {
		st := strategies[si]
		var series *vran.ThroughputSeries
		timed(sp, "vran.alloc", func() { series, errs[si] = vran.NewThroughputSeries(c.ESs, slots) })
		if errs[si] != nil {
			return
		}
		srng := rand.New(rand.NewSource(c.Seed + 100 + int64(si)))
		var specs []vranSpec
		for r := 0; r < rus; r++ {
			specs = specs[:0]
			timed(sp, st.span, func() {
				for m := 0; m < minutes; m++ {
					for _, k := range shared[r][m] {
						vol, dur := st.f(k)
						specs = append(specs, vranSpec{duOf(r), float64(m)*60 + srng.Float64()*60, dur, vol})
					}
				}
			})
			tr.add(st.count, float64(len(specs)))
			if errs[si] = rasterizeVRAN(tr, sp, series, specs); errs[si] != nil {
				return
			}
		}
		var run *vran.RunResult
		timed(sp, "vran.orchestrate", func() { run, errs[si] = vran.Run(ps, series) })
		if errs[si] != nil {
			return
		}
		timed(sp, "vran.evaluate", func() {
			var activeAPE, powerAPE []float64
			if activeAPE, errs[si] = vran.APESeries(run.ActivePS, realRun.ActivePS); errs[si] != nil {
				return
			}
			if powerAPE, errs[si] = vran.APESeries(run.PowerW, realRun.PowerW); errs[si] != nil {
				return
			}
			results[si] = experiments.VRANStrategy{
				Name: st.name, ActiveAPE: vran.SummarizeAPE(activeAPE), PowerAPE: vran.SummarizeAPE(powerAPE),
				MeanActive: run.MeanActive(), MeanPowerW: run.MeanPower(),
			}
		})
	})
	for si, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("strategy %s: %w", strategies[si].name, err)
		}
	}
	out.Strategies = results
	return out, nil
}

// rasterizeVRAN adds a batch of sessions to a throughput series and
// counts the one-second slots each spans.
func rasterizeVRAN(tr *tracer, parent *obs.Span, series *vran.ThroughputSeries, specs []vranSpec) error {
	var err error
	timed(parent, "vran.rasterize", func() {
		for _, s := range specs {
			if err = series.AddSession(s.du, s.start, s.duration, s.vol); err != nil {
				return
			}
		}
	})
	if err != nil {
		return err
	}
	timed(parent, "bench.count", func() {
		var slots int
		for _, s := range specs {
			slots += slotsSpanned(s.start, s.duration, 1, series.Slots)
		}
		tr.add("vran.rasterize_sessions", float64(len(specs)))
		tr.add("vran.slot_updates", float64(slots))
	})
	return nil
}

// pickIdx mirrors the driver's inverse-CDF service pick.
func pickIdx(probs []float64, rng *rand.Rand) int {
	u := rng.Float64()
	var acc float64
	for i, p := range probs {
		acc += p
		if u < acc {
			return i
		}
	}
	return len(probs) - 1
}
