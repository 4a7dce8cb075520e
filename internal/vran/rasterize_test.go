package vran

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// addSessionOracle is the per-slot rasterizer AddSessions replaces: a
// min/max overlap evaluation at every slot the session touches.
func addSessionOracle(s *ThroughputSeries, du int, start, duration, volumeBytes float64) {
	mbps := volumeBytes / duration * 8 / 1e6
	end := start + duration
	for ts := int(math.Max(start, 0)); ts < s.Slots; ts++ {
		lo := math.Max(start, float64(ts))
		hi := math.Min(end, float64(ts+1))
		if hi <= lo {
			break
		}
		s.Series[du][ts] += mbps * (hi - lo)
	}
}

// edgeSessions covers the boundary cases of the three-segment split on
// a horizon of the given number of slots: slot-aligned starts and ends,
// sessions past the horizon, negative starts, sub-slot sessions and
// sessions longer than the horizon.
func edgeSessions(slots int) [][3]float64 {
	h := float64(slots)
	return [][3]float64{
		{0, 1, 1e6},         // exactly one slot
		{3, 4, 2e6},         // aligned start and end
		{2.5, 0.25, 1e5},    // inside one slot
		{2.75, 0.5, 1e5},    // straddles one boundary
		{1.5, 5, 3e6},       // partial head and tail
		{4, 2.5, 1e6},       // aligned start, partial tail
		{1.25, 2.75, 1e6},   // partial head, aligned end
		{-3, 5, 1e6},        // negative start
		{-10, 2, 1e6},       // entirely before time 0
		{-0.5, 0.75, 1e6},   // negative start inside slot 0
		{h - 1.5, 10, 1e7},  // runs past the horizon
		{h - 1, 1, 1e6},     // last slot exactly
		{h, 5, 1e6},         // starts at the horizon
		{h + 3, 1, 1e6},     // starts past the horizon
		{-5, 3 * h, 1e9},    // covers the whole horizon
		{0.1, 1e-9, 1},      // tiny duration
		{7, 1e-300, 1e-300}, // end rounds onto start
		{h - 1e-9, 1, 1e6},  // starts just before the horizon
		{0, h, 5e8},         // exactly the horizon
		{1e-320, 1, 1e6},    // subnormal start
		{math.Nextafter(2, 0), 3, 1e6},
	}
}

// TestAddSessionMatchesOracle pins the n=1 kernel bit for bit against
// the per-slot loop, session after session on one series.
func TestAddSessionMatchesOracle(t *testing.T) {
	const slots = 12
	got, _ := NewThroughputSeries(2, slots)
	want, _ := NewThroughputSeries(2, slots)
	for i, e := range edgeSessions(slots) {
		du := i % 2
		if err := got.AddSession(du, e[0], e[1], e[2]); err != nil {
			t.Fatalf("session %v: %v", e, err)
		}
		addSessionOracle(want, du, e[0], e[1], e[2])
		for d := range got.Series {
			for ts := range got.Series[d] {
				if g, w := got.Series[d][ts], want.Series[d][ts]; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("after session %d %v: DU %d slot %d = %v, oracle %v", i, e, d, ts, g, w)
				}
			}
		}
	}
	for _, x := range got.step {
		if x != 0 {
			t.Fatal("scratch step row not cleared")
		}
	}
	for _, x := range got.live {
		if x != 0 {
			t.Fatal("scratch live row not cleared")
		}
	}
}

// checkBatchAgainstOracle compares a batch-rasterized row with the
// oracle's: within 1e-12 of the row's peak everywhere, and exactly 0
// wherever the oracle is 0.
func checkBatchAgainstOracle(t *testing.T, got, want []float64) {
	t.Helper()
	var peak float64
	for _, w := range want {
		peak = math.Max(peak, math.Abs(w))
	}
	for ts := range want {
		g, w := got[ts], want[ts]
		if w == 0 && g != 0 {
			t.Fatalf("slot %d = %v, oracle exactly 0", ts, g)
		}
		if math.Abs(g-w) > 1e-12*peak {
			t.Fatalf("slot %d = %v, oracle %v (peak %v)", ts, g, w, peak)
		}
	}
}

// TestAddSessionsMatchesOracle pins batches against the per-slot loop:
// random batches mixing short, long, negative-start and past-horizon
// sessions, each on top of what earlier batches left in the series.
func TestAddSessionsMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		slots := 1 + rng.Intn(900)
		got, _ := NewThroughputSeries(2, slots)
		want, _ := NewThroughputSeries(2, slots)
		for batch := 0; batch < 3; batch++ {
			du := rng.Intn(2)
			n := rng.Intn(300)
			var start, dur, vol []float64
			if trial == 0 {
				for _, e := range edgeSessions(slots) {
					start, dur, vol = append(start, e[0]), append(dur, e[1]), append(vol, e[2])
				}
			}
			for i := 0; i < n; i++ {
				s := rng.Float64()*float64(slots+20) - 10
				switch rng.Intn(4) {
				case 0:
					s = math.Floor(s) // slot-aligned start
				case 1:
					s = -rng.Float64() * 50
				}
				d := math.Exp(rng.Float64()*12 - 4) // ~0.02 s to ~3 h
				if rng.Intn(5) == 0 {
					d = math.Ceil(d) // aligned end for aligned starts
				}
				start, dur, vol = append(start, s), append(dur, d), append(vol, math.Exp(rng.Float64()*20))
			}
			if err := got.AddSessions(du, start, dur, vol); err != nil {
				t.Fatal(err)
			}
			for i := range start {
				addSessionOracle(want, du, start[i], dur[i], vol[i])
			}
			for d := range got.Series {
				checkBatchAgainstOracle(t, got.Series[d], want.Series[d])
			}
		}
	}
}

// TestAddSessionsRejectsHostileInput pins that non-finite or
// non-positive session fields are errors and leave the series as it
// was; before, a NaN duration passed validation, wrote NaN into every
// later slot, and Run counted each NaN slot as an active server.
func TestAddSessionsRejectsHostileInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, e := range [][3]float64{
		{0, nan, 1e6}, {nan, 1, 1e6}, {inf, 1, 1e6}, {-inf, 1, 1e6}, {0, 1, nan},
		{0, inf, 1e6}, {0, 1, inf}, {0, -1, 1e6}, {0, 1, -1e6},
		{0, 1e-300, 1e300}, // throughput overflows
		{0, 1e300, 1e-300}, // throughput underflows to 0
	} {
		s, _ := NewThroughputSeries(1, 8)
		if err := s.AddSession(0, e[0], e[1], e[2]); err == nil {
			t.Errorf("AddSession%v accepted", e)
		}
		// A bad session anywhere in a batch rejects the whole batch.
		err := s.AddSessions(0, []float64{1, e[0]}, []float64{3, e[1]}, []float64{1e6, e[2]})
		if err == nil {
			t.Errorf("AddSessions with %v accepted", e)
		}
		for ts, v := range s.Series[0] {
			if v != 0 {
				t.Fatalf("rejected session %v wrote %v at slot %d", e, v, ts)
			}
		}
	}
	s, _ := NewThroughputSeries(1, 8)
	if err := s.AddSessions(0, []float64{0, 1}, []float64{1}, []float64{1, 1}); err == nil {
		t.Error("unequal columns must error")
	}
	if err := s.AddSessions(1, nil, nil, nil); err == nil {
		t.Error("DU out of range must error")
	}
	if err := s.AddSessions(0, nil, nil, nil); err != nil {
		t.Errorf("empty batch: %v", err)
	}
}

// packOracles are the per-slot packings Run used before it reused its
// buffers: a fresh clamped copy, sorted with sort.Reverse for the
// decreasing heuristics, and fresh bins.
var packOracles = map[Heuristic]func(PSModel, []float64) PackResult{
	FirstFitDecreasing: packFFDOracle,
	BestFitDecreasing:  packBFDOracle,
	NextFit:            packNFOracle,
}

func packFFDOracle(ps PSModel, duLoads []float64) PackResult {
	loads := appendClamped(nil, ps, duLoads)
	sort.Sort(sort.Reverse(sort.Float64Slice(loads)))
	var bins []float64
	for _, l := range loads {
		if l == 0 {
			continue
		}
		placed := false
		for i := range bins {
			if bins[i]+l <= ps.CapacityMbps {
				bins[i] += l
				placed = true
				break
			}
		}
		if !placed {
			bins = append(bins, l)
		}
	}
	res := PackResult{ActivePS: len(bins)}
	for _, b := range bins {
		res.PowerWatts += ps.Power(b)
	}
	return res
}

func packBFDOracle(ps PSModel, duLoads []float64) PackResult {
	loads := appendClamped(nil, ps, duLoads)
	sort.Sort(sort.Reverse(sort.Float64Slice(loads)))
	var bins []float64
	for _, l := range loads {
		if l == 0 {
			continue
		}
		best, bestSlack := -1, math.Inf(1)
		for i := range bins {
			slack := ps.CapacityMbps - bins[i] - l
			if slack >= 0 && slack < bestSlack {
				best, bestSlack = i, slack
			}
		}
		if best < 0 {
			bins = append(bins, l)
		} else {
			bins[best] += l
		}
	}
	res := PackResult{ActivePS: len(bins)}
	for _, b := range bins {
		res.PowerWatts += ps.Power(b)
	}
	return res
}

func packNFOracle(ps PSModel, duLoads []float64) PackResult {
	loads := appendClamped(nil, ps, duLoads)
	var bins []float64
	cur := -1
	for _, l := range loads {
		if l == 0 {
			continue
		}
		if cur < 0 || bins[cur]+l > ps.CapacityMbps {
			bins = append(bins, 0)
			cur = len(bins) - 1
		}
		bins[cur] += l
	}
	res := PackResult{ActivePS: len(bins)}
	for _, b := range bins {
		res.PowerWatts += ps.Power(b)
	}
	return res
}

// randomSeries fills a series with loads that exercise every packing
// branch: idle DUs, negative and oversized loads, and repeated values.
func randomSeries(rng *rand.Rand, dus, slots int) *ThroughputSeries {
	s, _ := NewThroughputSeries(dus, slots)
	for _, row := range s.Series {
		for ts := range row {
			switch rng.Intn(6) {
			case 0:
				row[ts] = 0
			case 1:
				row[ts] = -rng.Float64()
			case 2:
				row[ts] = 100 + rng.Float64()*50
			case 3:
				row[ts] = 25
			default:
				row[ts] = rng.Float64() * 70
			}
		}
	}
	return s
}

// TestRunMatchesPerSlotPack pins the buffered orchestration: Run and
// RunWith equal a per-slot PackWith loop over freshly gathered loads,
// and the decreasing heuristics equal the sort.Reverse oracle, bit for
// bit.
func TestRunMatchesPerSlotPack(t *testing.T) {
	ps := DefaultPS()
	rng := rand.New(rand.NewSource(3))
	series := randomSeries(rng, 17, 400)
	for _, h := range []Heuristic{FirstFitDecreasing, BestFitDecreasing, NextFit} {
		run, err := RunWith(h, ps, series)
		if err != nil {
			t.Fatal(err)
		}
		for ts := 0; ts < series.Slots; ts++ {
			loads := make([]float64, series.DUs)
			for du := range loads {
				loads[du] = series.Series[du][ts]
			}
			want := PackWith(h, ps, loads)
			if o := packOracles[h](ps, loads); o != want {
				t.Fatalf("%v slot %d: PackWith %+v, oracle %+v", h, ts, want, o)
			}
			if run.ActivePS[ts] != float64(want.ActivePS) || math.Float64bits(run.PowerW[ts]) != math.Float64bits(want.PowerWatts) {
				t.Fatalf("%v slot %d: run %v/%v, per-slot pack %+v", h, ts, run.ActivePS[ts], run.PowerW[ts], want)
			}
		}
	}
	run, _ := Run(ps, series)
	ffd, _ := RunWith(FirstFitDecreasing, ps, series)
	for ts := range run.PowerW {
		if run.PowerW[ts] != ffd.PowerW[ts] || run.ActivePS[ts] != ffd.ActivePS[ts] {
			t.Fatalf("Run and RunWith(FFD) differ at slot %d", ts)
		}
	}
}

// TestRunAllocs pins Run's allocations independently of the slot
// count: the result and its two series, one gather buffer and the
// packer's two buffers.
func TestRunAllocs(t *testing.T) {
	ps := DefaultPS()
	series := randomSeries(rand.New(rand.NewSource(4)), 16, 2000)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Run(ps, series); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Errorf("Run allocates %v times for %d slots, want <= 6", allocs, series.Slots)
	}
}

// FuzzThroughputSeriesAddSessions feeds arbitrary session batches: each
// must either be rejected or match the per-slot oracle, and never
// panic.
func FuzzThroughputSeriesAddSessions(f *testing.F) {
	f.Add(uint8(12), 1.5, 4.0, 1e6, -3.0, 20.0, 5e5, 11.0, 0.25, 1e3)
	f.Add(uint8(1), 0.0, 1.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0)
	f.Add(uint8(64), -70.0, 200.0, 1e9, 63.999, 0.002, 1e2, 2.0, 3.0, 4.0)
	f.Add(uint8(5), math.NaN(), 1.0, 1.0, 0.0, math.Inf(1), 1.0, 0.0, 1.0, -1.0)
	f.Fuzz(func(t *testing.T, slots uint8, s0, d0, v0, s1, d1, v1, s2, d2, v2 float64) {
		n := int(slots)%200 + 1
		start, dur, vol := []float64{s0, s1, s2}, []float64{d0, d1, d2}, []float64{v0, v1, v2}
		got, _ := NewThroughputSeries(1, n)
		want, _ := NewThroughputSeries(1, n)
		if err := got.AddSessions(0, start, dur, vol); err != nil {
			for ts, v := range got.Series[0] {
				if v != 0 {
					t.Fatalf("rejected batch wrote %v at slot %d", v, ts)
				}
			}
			return
		}
		for i := range start {
			addSessionOracle(want, 0, start[i], dur[i], vol[i])
		}
		checkBatchAgainstOracle(t, got.Series[0], want.Series[0])
		// Each session alone is the n=1 case: bit-identical.
		for i := range start {
			one, _ := NewThroughputSeries(1, n)
			ref, _ := NewThroughputSeries(1, n)
			if err := one.AddSession(0, start[i], dur[i], vol[i]); err != nil {
				t.Fatalf("session %d accepted in a batch, rejected alone: %v", i, err)
			}
			addSessionOracle(ref, 0, start[i], dur[i], vol[i])
			for ts := range one.Series[0] {
				if math.Float64bits(one.Series[0][ts]) != math.Float64bits(ref.Series[0][ts]) {
					t.Fatalf("session %d slot %d = %v, oracle %v", i, ts, one.Series[0][ts], ref.Series[0][ts])
				}
			}
		}
	})
}
