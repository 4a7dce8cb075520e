package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"testing"
	"time"

	"mobiletraffic/internal/experiments"
	"mobiletraffic/internal/obs"
	"mobiletraffic/internal/vran"
)

type benchmarkSpec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec benchmarkSpec
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

func tinyRun(t *testing.T, workload string, traced bool) *output {
	t.Helper()
	out, err := run(runOptions{
		Workload: workload, Seed: 1, Traced: traced,
		WorkDir: t.TempDir(), Scale: tinyScale, SourceRoot: "..",
	})
	if err != nil {
		t.Fatalf("%s traced=%v: %v", workload, traced, err)
	}
	return out
}

// TestEveryNamedMetricIsPrinted runs each workload of BENCHMARK.json at
// the tiny scale, untraced and traced, and checks that the result line
// carries exactly the metrics BENCHMARK.json names, with their units.
func TestEveryNamedMetricIsPrinted(t *testing.T) {
	spec := loadSpec(t)
	if len(spec.Workloads) == 0 {
		t.Fatal("BENCHMARK.json names no workload")
	}
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			out := tinyRun(t, w.Name, traced)
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			line, err := json.Marshal(out.Result)
			if err != nil {
				t.Fatal(err)
			}
			var got resultLine
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatal(err)
			}
			if got.Attempted < 1 || got.Failed < 0 || got.Failed > got.Attempted {
				t.Errorf("%s traced=%v: attempted %d, failed %d", w.Name, traced, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics printed, BENCHMARK.json names %d", w.Name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				g, ok := got.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s not printed", w.Name, traced, m.Name)
					continue
				}
				if g.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s unit %q, BENCHMARK.json says %q", w.Name, traced, m.Name, g.Unit, m.Unit)
				}
			}
			if traced && out.trace == nil {
				t.Errorf("%s: traced run wrote no Chrome trace", w.Name)
			}
		}
	}
}

func findCheck(t *testing.T, cs []check, name string) check {
	t.Helper()
	for _, c := range cs {
		if c.Name == name {
			return c
		}
	}
	t.Fatalf("no check %q in %+v", name, cs)
	return check{}
}

// TestPerturbedResultsFailTheirChecks takes results that pass each
// check and perturbs one value; the check must then fail.
func TestPerturbedResultsFailTheirChecks(t *testing.T) {
	t.Run("characterize", func(t *testing.T) {
		c := newCharacterize(runOptions{Seed: 1, WorkDir: t.TempDir(), Scale: tinyScale})
		if err := c.iterate(&iteration{}); err != nil {
			t.Fatal(err)
		}
		const name = "resumed models JSON byte-identical to fresh"
		if !findCheck(t, c.check(), name).OK {
			t.Fatal("unperturbed resume does not match")
		}
		c.resumedJSON = append([]byte(nil), c.resumedJSON...)
		c.resumedJSON[len(c.resumedJSON)/2] ^= 1
		if findCheck(t, c.check(), name).OK {
			t.Error("a perturbed resumed model passed")
		}
	})
	t.Run("slicing", func(t *testing.T) {
		res := &experiments.Table2Result{Strategies: []experiments.StrategyResult{
			{Name: "session-level models", MeanSatisfied: 0.94, StdSatisfied: 0.07, SLAMet: 2, Slices: 4},
			{Name: "bm_a", MeanSatisfied: 0.84, StdSatisfied: 0.3, SLAMet: 3, Slices: 4},
			{Name: "bm_b", MeanSatisfied: 0.84, StdSatisfied: 0.3, SLAMet: 3, Slices: 4},
		}}
		if !allOK(checkSlicing(res, 4)) {
			t.Fatalf("valid result fails: %+v", checkSlicing(res, 4))
		}
		res.Strategies[1].MeanSatisfied = 1.2
		if findCheck(t, checkSlicing(res, 4), "every satisfaction value in [0, 1]").OK {
			t.Error("satisfaction 1.2 passed")
		}
		if findCheck(t, checkSlicing(res, 5), "3 strategies with antennas x modeled services slices").OK {
			t.Error("wrong slice count passed")
		}
	})
	t.Run("vran", func(t *testing.T) {
		ape := func(m float64) vran.APESummary {
			return vran.APESummary{P5: m / 2, Q1: m, Median: m, Q3: m, P95: 2 * m}
		}
		res := &experiments.Fig13Result{Strategies: []experiments.VRANStrategy{
			{Name: "session-level models", ActiveAPE: ape(1), PowerAPE: ape(4)},
			{Name: "bm_a", ActiveAPE: ape(80), PowerAPE: ape(85)},
			{Name: "bm_b", ActiveAPE: ape(10), PowerAPE: ape(10)},
			{Name: "bm_c", ActiveAPE: ape(10), PowerAPE: ape(11)},
		}}
		if !allOK(checkVRAN(res)) {
			t.Fatalf("valid result fails: %+v", checkVRAN(res))
		}
		res.Strategies[0].PowerAPE.Median = 10.5
		if findCheck(t, checkVRAN(res), "session-level model has the lowest median power APE").OK {
			t.Error("model APE above bm_b passed")
		}
		res.Strategies[2].ActiveAPE.Q3 = math.NaN()
		if findCheck(t, checkVRAN(res), "4 strategies with finite APEs").OK {
			t.Error("NaN APE passed")
		}
	})
}

// TestSlotsSpannedMatchesRasterizerLoop compares the slot count with
// the per-slot loop of slicing.DemandTrace.AddSession and
// vran.ThroughputSeries.AddSession.
func TestSlotsSpannedMatchesRasterizerLoop(t *testing.T) {
	loop := func(start, dur, width float64, n int) int {
		end, k := start+dur, 0
		for m := int(start / width); m < n; m++ {
			if math.Min(end, float64(m+1)*width)-math.Max(start, float64(m)*width) <= 0 {
				break
			}
			k++
		}
		return k
	}
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 200000; i++ {
		width := []float64{1, 60}[i%2]
		n := 1 + rng.Intn(500)
		start := rng.Float64() * float64(n+2) * width
		if i%5 == 0 { // session edges on slot boundaries
			start = float64(rng.Intn(n+2)) * width
		}
		dur := math.Exp(rng.NormFloat64()*3) * width
		if i%7 == 0 {
			dur = float64(1+rng.Intn(5)) * width
		}
		if got, want := slotsSpanned(start, dur, width, n), loop(start, dur, width, n); got != want {
			t.Fatalf("slotsSpanned(%v, %v, %v, %d) = %d, loop gives %d", start, dur, width, n, got, want)
		}
	}
}

// TestSelfTimes checks self time against overlapping children on
// parallel tracks: only the union of the children's intervals counts.
func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []obs.SpanRecord{
		{ID: 1, Name: "pool.run", Start: 0, Dur: 100 * ms},
		{ID: 2, Parent: 1, Name: "bench.task", Start: 10 * ms, Dur: 50 * ms},
		{ID: 3, Parent: 1, Name: "bench.task", Start: 20 * ms, Dur: 60 * ms},
		{ID: 4, Parent: 2, Name: "core.gen", Start: 10 * ms, Dur: 20 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{30 * ms, 30 * ms, 60 * ms, 20 * ms}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("span %d self time %v, want %v", spans[i].ID, got[i], want[i])
		}
	}
	if r := busyRatio(spans, "pool.run", "bench.task"); math.Abs(r-1.1) > 1e-9 {
		t.Errorf("busy ratio %v, want 110/100 with one worker", r)
	}
}
