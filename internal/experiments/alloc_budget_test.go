package experiments

// Allocation-budget regression guards for the measurement plane. The
// parallel campaign must allocate the statistics cells once, plus one
// pointer slab and one pre-sized DayColumns scratch per worker: the
// per-(BS, day) sampling and ingest loops run allocation-free, and the
// merge moves cells instead of copying them. A regression here means
// the day loop started allocating (scratch re-growth, per-session
// materialization, cell churn) or a second copy of the cells returned.

import (
	"context"
	"runtime"
	"testing"

	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
)

// Collect() footprint ceilings, calibrated at ~1.5x the measured
// footprint of the 20-BS, 7-day campaign below (41.1 MB with 1 worker,
// 46.3 MB with 2): the campaign's cells are allocated once whatever
// the worker count (4239 cells of 8448 B), and each worker adds its
// DayColumns scratch and partial-collector pointer slab (5.2 MB).
const (
	collectAllocPerWorker = 8 << 20  // columnar scratch + partial pointer slab
	collectAllocBase      = 54 << 20 // the cells, topology, merge plane
)

func TestCollectAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign")
	}
	const numBS, days = 20, 7
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: numBS, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: days, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// Warm run: lazy simulator state (phase tables, alias tables).
	if _, err := Collect(sim, days, nil); err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	coll, err := Collect(sim, days, nil)
	if err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if coll.TotalSessions() <= 0 {
		t.Fatal("campaign collected no sessions")
	}
	workers := runtime.NumCPU()
	if workers > numBS {
		workers = numBS
	}
	if workers < 1 {
		workers = 1
	}
	budget := uint64(collectAllocBase + workers*collectAllocPerWorker)
	got := m1.TotalAlloc - m0.TotalAlloc
	if got > budget {
		t.Errorf("collect allocated %d B transient with %d workers, budget %d B: the columnar day loop is allocating again",
			got, workers, budget)
	}
	t.Logf("collect transient heap: %d B with %d workers (budget %d B)", got, workers, budget)
}

// cellBytes measures the heap bytes one statistics cell costs: the
// allocation a collector makes when a session first touches a cell.
func cellBytes(t *testing.T) uint64 {
	t.Helper()
	c, err := probe.NewCollectorSized(1, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := c.Observe(netsim.Session{Minute: 1, Volume: 1e4, Duration: 10}); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// TestShardedCampaignAllocBudget pins the whole sharded, checkpointed
// campaign (collect, checkpoint, merge, fit) at 1.25x the bytes of the
// cells it populates: each cell is built once in its shard and moved
// by the merge. A second copy of the cells anywhere on the path would
// double the ratio. The configuration is the characterize benchmark
// workload (120 BS x 7 days, 4 shards), large enough that the fixed
// costs (per-shard scratch, checkpoint buffers, the fits) stay near a
// fifth of the cell bytes.
func TestShardedCampaignAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second campaign")
	}
	cell := cellBytes(t)
	// Warm-up: lazy simulator and generator state.
	if _, _, err := NewEnvSharded(context.Background(), Config{NumBS: 10, Days: 1, Seed: 2}, CampaignOptions{Shards: 4}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{NumBS: 120, Days: 7, Seed: 2, MoveProb: 0.25}
	dir := t.TempDir()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	env, _, err := NewEnvSharded(context.Background(), cfg, CampaignOptions{Shards: 4, CheckpointDir: dir})
	runtime.ReadMemStats(&m1)
	if err != nil {
		t.Fatal(err)
	}
	cells := uint64(len(env.Coll.Keys())) * cell
	got := m1.TotalAlloc - m0.TotalAlloc
	if ratio := float64(got) / float64(cells); ratio > 1.25 {
		t.Errorf("sharded campaign allocated %d B for %d B of cells (%.3fx, budget 1.25x): the cells are copied again",
			got, cells, ratio)
	}
	t.Logf("sharded campaign: %d B allocated, %d B of cells (%d B each), ratio %.3f", got, cells, cell, float64(got)/float64(cells))
}
