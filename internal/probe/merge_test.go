package probe

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"

	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
)

func TestMergeEquivalentToSerial(t *testing.T) {
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: 10, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: 1, Seed: 8})
	if err != nil {
		t.Fatal(err)
	}
	// Serial: everything into one collector.
	serial, err := NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	for bs := 0; bs < 10; bs++ {
		if err := sim.GenerateDay(bs, 0, func(s netsim.Session) {
			if err := serial.Observe(s); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Split: one collector per BS, merged afterwards.
	merged, err := NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	for bs := 0; bs < 10; bs++ {
		part, err := NewCollector(len(sim.Services))
		if err != nil {
			t.Fatal(err)
		}
		if err := sim.GenerateDay(bs, 0, func(s netsim.Session) {
			if err := part.Observe(s); err != nil {
				t.Fatal(err)
			}
		}); err != nil {
			t.Fatal(err)
		}
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	// Every cell agrees.
	sk := serial.Keys()
	mk := merged.Keys()
	if len(sk) != len(mk) {
		t.Fatalf("cell counts differ: %d vs %d", len(sk), len(mk))
	}
	for _, key := range sk {
		a, _ := serial.Get(key)
		b, ok := merged.Get(key)
		if !ok {
			t.Fatalf("merged missing cell %+v", key)
		}
		if a.Sessions != b.Sessions {
			t.Fatalf("cell %+v sessions %v vs %v", key, a.Sessions, b.Sessions)
		}
		for i := range a.Volume.P {
			if a.Volume.P[i] != b.Volume.P[i] {
				t.Fatalf("cell %+v volume bin %d differs", key, i)
			}
		}
		for i := range a.DurVolSum {
			if math.Abs(a.DurVolSum[i]-b.DurVolSum[i]) > 1e-6 || a.DurCount[i] != b.DurCount[i] {
				t.Fatalf("cell %+v pair bin %d differs", key, i)
			}
		}
	}
	// Shares identical after merge.
	s1, _, err := serial.SessionShare(nil)
	if err != nil {
		t.Fatal(err)
	}
	s2, _, err := merged.SessionShare(nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range s1 {
		if math.Abs(s1[i]-s2[i]) > 1e-12 {
			t.Fatalf("share %d differs: %v vs %v", i, s1[i], s2[i])
		}
	}
}

func TestMergeValidation(t *testing.T) {
	a, _ := NewCollector(3)
	if err := a.Merge(nil); err == nil {
		t.Error("nil merge must error")
	}
	b, _ := NewCollector(4)
	if err := a.Merge(b); err == nil {
		t.Error("service count mismatch must error")
	}
	c, _ := NewCollector(3)
	c.VolumeEdges = c.VolumeEdges[:len(c.VolumeEdges)-1]
	if err := a.Merge(c); err == nil {
		t.Error("grid mismatch must error")
	}
}

// TestMergeEmptyPartials verifies that folding in collectors that never
// observed a session is a no-op: a real campaign always has idle
// gateway sites, and after a fault-injected one it may have many.
func TestMergeEmptyPartials(t *testing.T) {
	dst, err := NewCollector(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := dst.Observe(netsim.Session{Service: 1, BS: 0, Day: 0, Minute: 10, Volume: 1e5, Duration: 30}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		empty, err := NewCollector(3)
		if err != nil {
			t.Fatal(err)
		}
		if err := dst.Merge(empty); err != nil {
			t.Fatalf("merging empty partial %d: %v", i, err)
		}
	}
	if got := len(dst.Keys()); got != 1 {
		t.Fatalf("empty merges changed the cell count to %d", got)
	}
	st, _ := dst.Get(dst.Keys()[0])
	if st.Sessions != 1 {
		t.Fatalf("sessions = %v after empty merges", st.Sessions)
	}
	// Merging into a fresh collector also works in the other direction.
	fresh, err := NewCollector(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := fresh.Merge(dst); err != nil {
		t.Fatal(err)
	}
	if len(fresh.Keys()) != 1 {
		t.Fatal("merge into empty collector lost the cell")
	}
}

// TestMergeAfterFaults verifies the map-reduce layout survives fault
// injection: partial collectors fed through per-cell fault streams
// merge to exactly the serial fault-injected campaign, even when some
// partials end up with disjoint or empty cell sets.
func TestMergeAfterFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: 1, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	cfg := faults.Config{
		OutageProb: 0.3, TruncatedDayProb: 0.3, FlowLossProb: 0.1,
		FlowDupProb: 0.05, SignalGapProb: 0.05, MisclassProb: 0.03, Seed: 21,
	}
	collect := func(bs int, inj *faults.Injector, coll *Collector) {
		t.Helper()
		stream := inj.Day(bs, 0)
		if stream.Down() {
			return
		}
		if err := sim.GenerateDay(bs, 0, func(s netsim.Session) {
			stream.Apply(s, func(s netsim.Session) {
				if err := coll.Observe(s); err != nil {
					t.Fatal(err)
				}
			})
		}); err != nil {
			t.Fatal(err)
		}
	}
	// Serial reference.
	injSer, err := faults.New(cfg, len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	for bs := 0; bs < 10; bs++ {
		collect(bs, injSer, serial)
	}
	// Partials: one collector per BS, merged afterwards.
	injPar, err := faults.New(cfg, len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	merged, err := NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	for bs := 0; bs < 10; bs++ {
		part, err := NewCollector(len(sim.Services))
		if err != nil {
			t.Fatal(err)
		}
		collect(bs, injPar, part)
		if err := merged.Merge(part); err != nil {
			t.Fatal(err)
		}
	}
	if injSer.Stats() != injPar.Stats() {
		t.Fatalf("fault realizations differ: %+v vs %+v", injSer.Stats(), injPar.Stats())
	}
	sk, mk := serial.Keys(), merged.Keys()
	if len(sk) != len(mk) {
		t.Fatalf("cell counts differ: %d vs %d", len(sk), len(mk))
	}
	for _, key := range sk {
		a, _ := serial.Get(key)
		b, ok := merged.Get(key)
		if !ok {
			t.Fatalf("merged missing cell %+v", key)
		}
		if a.Sessions != b.Sessions {
			t.Fatalf("cell %+v sessions %v vs %v", key, a.Sessions, b.Sessions)
		}
	}
}

// foldIntoFreshCells is the reference fold: every partial cell is added
// into the destination's cell for its key, created zeroed on first
// touch, in partial order. It leaves the partials as they were.
func foldIntoFreshCells(dst *Collector, others []*Collector) {
	for _, other := range others {
		other.forEachCell(nil, func(k StatKey, src *DayStats) {
			st := dst.cell(k)
			for m, v := range src.MinuteCounts {
				st.MinuteCounts[m] += v
			}
			st.Sessions += src.Sessions
			for i, p := range src.Volume.P {
				st.Volume.P[i] += p
			}
			for i := range src.DurVolSum {
				st.DurVolSum[i] += src.DurVolSum[i]
				st.DurCount[i] += src.DurCount[i]
			}
		})
	}
}

// mergePartials builds n partial collectors over one (numBS, days)
// extent. With disjoint set each partial observes only its own BS
// stripe; otherwise all of them draw from every BS, so their cells
// overlap.
func mergePartials(t *testing.T, seed int64, n, numSvc, numBS, days int, disjoint bool) []*Collector {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	out := make([]*Collector, n)
	for p := range out {
		c, err := NewCollectorSized(numSvc, numBS, days)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range randomSessions(rng, 400, numSvc, numBS, days) {
			if disjoint {
				s.BS = s.BS/n*n + p
				if s.BS >= numBS {
					continue
				}
			}
			if err := c.Observe(s); err != nil {
				t.Fatal(err)
			}
		}
		out[p] = c
	}
	return out
}

// TestMergeAllMovesCells pins the consuming fold: MergeAll moves a cell
// into an empty destination slot and adds one into an occupied slot,
// bit-identical to the add-into-fresh-cell reference, and leaves every
// merged partial empty. MergeAllReport leaves skipped partials as they
// were.
func TestMergeAllMovesCells(t *testing.T) {
	const numSvc, numBS, days = 4, 9, 3
	for _, disjoint := range []bool{true, false} {
		for _, workers := range []int{1, 3} {
			want, _ := NewCollector(numSvc)
			foldIntoFreshCells(want, mergePartials(t, 5, 4, numSvc, numBS, days, disjoint))
			parts := mergePartials(t, 5, 4, numSvc, numBS, days, disjoint)
			got, _ := NewCollector(numSvc)
			if err := got.MergeAll(parts, workers); err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("disjoint=%v workers=%d", disjoint, workers)
			requireCellsEqual(t, label, got, want)
			for i, p := range parts {
				if bs, d := p.Extent(); len(p.Keys()) != 0 || p.TotalSessions() != 0 || bs != 0 || d != 0 {
					t.Fatalf("%s: partial %d not empty after the merge: %d cells, extent %dx%d", label, i, len(p.Keys()), bs, d)
				}
			}
			for _, k := range got.Keys() {
				st, _ := got.Get(k)
				if &st.Volume.Edges[0] != &got.VolumeEdges[0] {
					t.Fatalf("%s: cell %+v histogram does not share the destination's edges", label, k)
				}
			}
		}
	}

	// A skipped partial keeps its cells and extent.
	parts := mergePartials(t, 6, 2, numSvc, numBS, days, true)
	ref := mergePartials(t, 6, 2, numSvc, numBS, days, true)
	wrongGrid, _ := NewCollectorGrids(numSvc, numBS, days, DefaultVolumeEdges, DefaultDurationEdges[:10])
	for _, s := range randomSessions(rand.New(rand.NewSource(7)), 50, numSvc, numBS, days) {
		if err := wrongGrid.Observe(s); err != nil {
			t.Fatal(err)
		}
	}
	wrongKeys := len(wrongGrid.Keys())
	dst, _ := NewCollector(numSvc)
	report, err := dst.MergeAllReport([]*Collector{parts[0], wrongGrid, parts[1]}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if report.Merged != 2 || report.Skipped != 1 {
		t.Fatalf("merged/skipped = %d/%d, want 2/1", report.Merged, report.Skipped)
	}
	if bs, d := wrongGrid.Extent(); len(wrongGrid.Keys()) != wrongKeys || bs != numBS || d != days {
		t.Fatalf("skipped partial was modified: %d cells (had %d), extent %dx%d", len(wrongGrid.Keys()), wrongKeys, bs, d)
	}
	want, _ := NewCollector(numSvc)
	foldIntoFreshCells(want, ref)
	requireCellsEqual(t, "report", dst, want)

	// Merging a collector into itself would consume the destination.
	if err := dst.Merge(dst); err == nil {
		t.Fatal("self-merge must error")
	}
	requireCellsEqual(t, "after self-merge", dst, want)
}

// TestMergeAllocatesNoCells pins that a merge of disjoint partials
// moves cells instead of copying them: the only allocation is the
// destination's pointer slab.
func TestMergeAllocatesNoCells(t *testing.T) {
	const numSvc, numBS, days = 5, 16, 4
	parts := mergePartials(t, 9, 4, numSvc, numBS, days, true)
	dst, _ := NewCollector(numSvc)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	if err := dst.MergeAll(parts, 1); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&m1)
	if n := m1.Mallocs - m0.Mallocs; n != 1 {
		t.Errorf("merge made %d allocations, want 1 (the destination slab)", n)
	}
	slab := uint64(numSvc * numBS * days * 8)
	if got := m1.TotalAlloc - m0.TotalAlloc; got > slab+slab/8 {
		t.Errorf("merge allocated %d B, want about the %d B destination slab", got, slab)
	}
	if len(dst.Keys()) == 0 {
		t.Fatal("merge produced no cells")
	}
}
