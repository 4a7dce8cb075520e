package mobiletraffic

// Allocation-budget regression guard for the zero-materialization fold
// plane (ISSUE 9). PR 8's parallel campaign materialized every DayBlock
// of the Table 2 slicing study before folding it into the demand
// traces, inflating the experiment's transient heap from ~13 MB to
// ~372 MB per run. The fold rewiring must keep the footprint at the
// materialization-free level; this test fails if it regresses past 2x
// the PR-7 baseline, long before the benchmark dashboards would notice.

import (
	"runtime"
	"testing"

	"mobiletraffic/internal/experiments"
)

// table2AllocBudget is 2x the PR-7 Table2Slicing transient heap
// (13,292,336 B/op), the ceiling ISSUE 9 sets for the fold path.
const table2AllocBudget = 2 * 13292336

func TestTable2SlicingAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second slicing study")
	}
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	env, err := experiments.NewEnv(experiments.Config{NumBS: 20, Days: 7, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := experiments.SlicingConfig{Antennas: 4, Days: 2, Seed: 3}
	// Warm run: fitting caches, demand-trace growth, env-side lazy state.
	if _, err := experiments.ExpTable2(env, cfg); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if _, err := experiments.ExpTable2(env, cfg); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	got := m1.TotalAlloc - m0.TotalAlloc
	if got > table2AllocBudget {
		t.Errorf("ExpTable2 allocated %d B transient, budget %d B (2x PR-7 level): campaign blocks are being materialized again",
			got, table2AllocBudget)
	}
	t.Logf("ExpTable2 transient heap: %d B (budget %d B)", got, table2AllocBudget)
}
