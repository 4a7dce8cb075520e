package main

import (
	"bytes"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/obs"
)

// tracer records the spans of one traced iteration in a private
// registry. The program's own instrumentation reads obs.Default, which
// the benchmark never sets, so it stays off.
//
// Span names are "<layer>.<stage>", where the layer is a package of the
// program (netsim, probe, campaign, core, littrafgen, services,
// slicing, vran) or pool for core.RunTasks. Spans named "bench.*" are
// the benchmark's own code: iteration roots, pool task bodies and
// bookkeeping.
type tracer struct {
	reg    *obs.Registry
	mu     sync.Mutex
	counts map[string]float64
}

func newTracer() *tracer {
	return &tracer{reg: obs.NewRegistry(), counts: make(map[string]float64)}
}

// add accumulates a count recorded at a layer boundary.
func (t *tracer) add(name string, v float64) {
	t.mu.Lock()
	t.counts[name] += v
	t.mu.Unlock()
}

// tracks hands out n render tracks (1..n), so concurrent spans land on
// distinct rows of the Chrome trace: a goroutine takes a track for the
// duration of one task and gives it back.
func tracks(n int) chan int {
	ch := make(chan int, n)
	for i := 1; i <= n; i++ {
		ch <- i
	}
	return ch
}

// runTasks is core.RunTasks under a pool.run span, with one bench.task
// span per task on its own track.
func (t *tracer) runTasks(parent *obs.Span, n, workers int, fn func(i int, sp *obs.Span)) {
	w := workers
	if w <= 0 {
		w = nproc()
	}
	w = max(1, min(w, n))
	run := parent.Child("pool.run", "workers", strconv.Itoa(w))
	free := tracks(w)
	core.RunTasks(n, workers, func(i int) {
		tid := <-free
		sp := run.Child("bench.task", "task", strconv.Itoa(i))
		sp.SetTID(tid)
		fn(i, sp)
		sp.End()
		free <- tid
	})
	run.End()
	t.add("pool.tasks", float64(n))
}

// timed runs fn under a child span of parent.
func timed(parent *obs.Span, name string, fn func()) {
	sp := parent.Child(name)
	fn()
	sp.End()
}

func (t *tracer) chromeTrace() ([]byte, error) {
	var buf bytes.Buffer
	err := t.reg.WriteTraceEvents(&buf)
	return buf.Bytes(), err
}

// layerMetricUnits lists every per-layer metric a traced run reports
// (trace.overhead is added from the run's untraced iterations).
var layerMetricUnits = map[string]string{
	"netsim.sample_s":              "s",
	"netsim.sample_sessions":       "count",
	"netsim.sample_sessions_per_s": "1/s",
	"probe.observe_s":              "s",
	"probe.observe_sessions_per_s": "1/s",
	"probe.merge_s":                "s",
	"probe.checkpoint_bytes":       "B",
	"probe.checkpoint_write_s":     "s",
	"probe.checkpoint_read_s":      "s",
	"campaign.self_s":              "s",
	"campaign.shard_attempts":      "count",
	"campaign.shard_retries":       "count",
	"campaign.shard_failures":      "count",
	"campaign.worker_busy_ratio":   "ratio",
	"core.fit_services_s":          "s",
	"core.fit_arrivals_s":          "s",
	"core.fit_fallbacks":           "count",
	"netsim.replay_s":              "s",
	"netsim.replay_sessions":       "count",
	"core.gen_s":                   "s",
	"core.gen_sessions":            "count",
	"core.gen_sessions_per_s":      "1/s",
	"littrafgen.sample_s":          "s",
	"littrafgen.sessions":          "count",
	"services.sample_s":            "s",
	"slicing.rasterize_s":          "s",
	"slicing.rasterize_sessions":   "count",
	"slicing.slot_updates":         "count",
	"slicing.slots_per_session":    "slot/session",
	"slicing.allocate_s":           "s",
	"slicing.evaluate_s":           "s",
	"vran.rasterize_s":             "s",
	"vran.rasterize_sessions":      "count",
	"vran.slot_updates":            "count",
	"vran.slots_per_session":       "slot/session",
	"vran.orchestrate_s":           "s",
	"vran.evaluate_s":              "s",
	"pool.tasks":                   "count",
	"pool.busy_ratio":              "ratio",
	"trace.coverage":               "ratio",
	"trace.replica_divergence":     "count",
}

// layerMetrics reduces the iteration's spans and counts to the
// per-layer metrics. Times are self times: a span's duration minus the
// part of it that its child spans cover, summed over every span of the
// name (so parallel stages report busy time, which can exceed wall).
func (t *tracer) layerMetrics() map[string]float64 {
	spans := t.reg.SpanRecords()
	self := selfTimes(spans)
	byName := map[string]time.Duration{}
	var layerSelf, allSelf time.Duration
	for i, s := range spans {
		byName[s.Name] += self[i]
		allSelf += self[i]
		if !strings.HasPrefix(s.Name, "bench.") {
			layerSelf += self[i]
		}
	}
	sec := func(name string) float64 { return byName[name].Seconds() }
	c := t.counts // the iteration is over: no goroutine adds any more
	return map[string]float64{
		"netsim.sample_s":              sec("netsim.sample"),
		"netsim.sample_sessions":       c["netsim.sample_sessions"],
		"netsim.sample_sessions_per_s": ratio(c["netsim.sample_sessions"], sec("netsim.sample")),
		"probe.observe_s":              sec("probe.observe"),
		"probe.observe_sessions_per_s": ratio(c["probe.observe_sessions"], sec("probe.observe")),
		"probe.merge_s":                sec("probe.merge"),
		"probe.checkpoint_bytes":       c["probe.checkpoint_bytes"],
		"probe.checkpoint_write_s":     sec("probe.checkpoint_write"),
		"probe.checkpoint_read_s":      sec("probe.checkpoint_read"),
		"campaign.self_s":              sec("campaign.run"),
		"campaign.shard_attempts":      c["campaign.shard_attempts"],
		"campaign.shard_retries":       c["campaign.shard_retries"],
		"campaign.shard_failures":      c["campaign.shard_failures"],
		"campaign.worker_busy_ratio":   busyRatio(spans, "campaign.run", "campaign.shard"),
		"core.fit_services_s":          sec("core.fit_services"),
		"core.fit_arrivals_s":          sec("core.fit_arrivals"),
		"core.fit_fallbacks":           c["core.fit_fallbacks"],
		"netsim.replay_s":              sec("netsim.replay"),
		"netsim.replay_sessions":       c["netsim.replay_sessions"],
		"core.gen_s":                   sec("core.gen"),
		"core.gen_sessions":            c["core.gen_sessions"],
		"core.gen_sessions_per_s":      ratio(c["core.gen_sessions"], sec("core.gen")),
		"littrafgen.sample_s":          sec("littrafgen.sample"),
		"littrafgen.sessions":          c["littrafgen.sessions"],
		"services.sample_s":            sec("services.sample"),
		"slicing.rasterize_s":          sec("slicing.rasterize"),
		"slicing.rasterize_sessions":   c["slicing.rasterize_sessions"],
		"slicing.slot_updates":         c["slicing.slot_updates"],
		"slicing.slots_per_session":    ratio(c["slicing.slot_updates"], c["slicing.rasterize_sessions"]),
		"slicing.allocate_s":           sec("slicing.allocate"),
		"slicing.evaluate_s":           sec("slicing.evaluate"),
		"vran.rasterize_s":             sec("vran.rasterize"),
		"vran.rasterize_sessions":      c["vran.rasterize_sessions"],
		"vran.slot_updates":            c["vran.slot_updates"],
		"vran.slots_per_session":       ratio(c["vran.slot_updates"], c["vran.rasterize_sessions"]),
		"vran.orchestrate_s":           sec("vran.orchestrate"),
		"vran.evaluate_s":              sec("vran.evaluate"),
		"pool.tasks":                   c["pool.tasks"],
		"pool.busy_ratio":              busyRatio(spans, "pool.run", "bench.task"),
		"trace.coverage":               ratio(layerSelf.Seconds(), allSelf.Seconds()),
		"trace.replica_divergence":     c["trace.replica_divergence"],
	}
}

// ratio is a/b, or 0 when the layer did no work.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// selfTimes returns each span's duration minus the union of its
// children's intervals.
func selfTimes(spans []obs.SpanRecord) []time.Duration {
	type iv struct{ lo, hi time.Duration }
	children := map[int64][]iv{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], iv{s.Start, s.Start + s.Dur})
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		cs := children[s.ID]
		sort.Slice(cs, func(a, b int) bool { return cs[a].lo < cs[b].lo })
		lo, hi := s.Start, s.Start+s.Dur
		var covered time.Duration
		cur := lo
		for _, c := range cs {
			a, b := max(c.lo, cur), min(c.hi, hi)
			if b > a {
				covered += b - a
				cur = b
			}
		}
		out[i] = s.Dur - covered
	}
	return out
}

// busyRatio is the summed duration of the child spans named task over
// the summed duration of their parent spans named phase times the
// parent's "workers" label: the share of the phase's worker capacity
// spent inside tasks.
func busyRatio(spans []obs.SpanRecord, phase, task string) float64 {
	capacity := map[int64]float64{}
	var total, busy float64
	for _, s := range spans {
		if s.Name != phase {
			continue
		}
		w := 1.0
		for i := 0; i+1 < len(s.Labels); i += 2 {
			if s.Labels[i] == "workers" {
				if n, err := strconv.Atoi(s.Labels[i+1]); err == nil {
					w = float64(n)
				}
			}
		}
		capacity[s.ID] = w
		total += s.Dur.Seconds() * w
	}
	for _, s := range spans {
		if _, ok := capacity[s.Parent]; ok && s.Name == task {
			busy += s.Dur.Seconds()
		}
	}
	return ratio(busy, total)
}
