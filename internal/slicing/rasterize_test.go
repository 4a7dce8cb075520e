package slicing

import (
	"math"
	"math/rand"
	"testing"
)

// addSessionOracle is the per-minute rasterizer SpreadMinutes replaces:
// a min/max overlap evaluation at every minute the session touches,
// with negative starts clamped at minute 0.
func addSessionOracle(row []float64, start, duration, volume float64) {
	rate := volume / duration
	end := start + duration
	for m := int(math.Max(start, 0) / 60); m < len(row); m++ {
		lo := math.Max(start, float64(m)*60)
		hi := math.Min(end, float64(m+1)*60)
		if hi <= lo {
			break
		}
		row[m] += rate * (hi - lo)
	}
}

// edgeSessions covers the boundary cases of the three-segment split on
// a horizon of the given number of minutes: minute-aligned starts and
// ends, sessions past the horizon, negative starts, sub-minute sessions
// and sessions longer than the horizon.
func edgeSessions(minutes int) [][3]float64 {
	h := float64(minutes) * 60
	return [][3]float64{
		{0, 60, 6e4},         // exactly one minute
		{120, 180, 1e5},      // aligned start and end
		{130, 20, 1e3},       // inside one minute
		{170, 30, 1e3},       // straddles one boundary
		{30, 300, 1e6},       // partial head and tail
		{240, 90, 1e5},       // aligned start, partial tail
		{45, 135, 1e5},       // partial head, aligned end
		{-30, 100, 1e5},      // negative start inside minute 0
		{-200, 500, 1e6},     // start before minute -1
		{-600, 60, 1e6},      // entirely before time 0
		{h - 90, 600, 1e7},   // runs past the horizon
		{h - 60, 60, 1e5},    // last minute exactly
		{h, 60, 1e5},         // starts at the horizon
		{h + 1e5, 60, 1e5},   // starts past the horizon
		{-300, 3 * h, 1e9},   // covers the whole horizon
		{10, 1e-9, 1},        // tiny duration
		{70, 1e-300, 1e-300}, // end rounds onto start
		{h - 1e-9, 60, 1e5},  // starts just before the horizon
		{0, h, 5e8},          // exactly the horizon
		{math.Nextafter(120, 0), 200, 1e5},
		{60*7 + 1e-13, 60*3 - 2e-13, 1e4}, // end/60 rounds onto a boundary
	}
}

// TestSpreadMinutesMatchesOracle pins the minute kernel bit for bit
// against the per-minute loop: edge cases, then random sessions, each
// on top of what earlier sessions left in the trace.
func TestSpreadMinutesMatchesOracle(t *testing.T) {
	const minutes = 12
	got, _ := NewDemandTrace(1, minutes)
	want := make([]float64, minutes)
	check := func(e [3]float64) {
		t.Helper()
		if err := got.AddSession(SessionSpec{Start: e[0], Duration: e[1], Volume: e[2]}); err != nil {
			t.Fatalf("session %v: %v", e, err)
		}
		addSessionOracle(want, e[0], e[1], e[2])
		for m := range want {
			if g, w := got.Demand[0][m], want[m]; math.Float64bits(g) != math.Float64bits(w) {
				t.Fatalf("after session %v: minute %d = %v, oracle %v", e, m, g, w)
			}
		}
	}
	for _, e := range edgeSessions(minutes) {
		check(e)
	}
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 5000; i++ {
		s := rng.Float64()*float64(minutes+2)*60 - 90
		if rng.Intn(3) == 0 {
			s = math.Floor(s/60) * 60
		}
		d := math.Exp(rng.Float64()*12 - 3)
		if rng.Intn(4) == 0 {
			d = math.Ceil(d/60) * 60
		}
		check([3]float64{s, d, math.Exp(rng.Float64() * 20)})
	}
}

// TestSpreadMinutesGrowsRow pins the growing form the per-day demand
// tiles use: the row is extended with zeros exactly to the last column
// the session touches, never past the horizon, with zeros even where
// its capacity held other values.
func TestSpreadMinutesGrowsRow(t *testing.T) {
	for _, tc := range []struct {
		start, dur float64
		horizon    int
		wantLen    int
	}{
		{30, 60, 10, 2},    // ends inside minute 1
		{30, 90, 10, 2},    // ends on the minute-2 boundary
		{30, 90.5, 10, 3},  // just into minute 2
		{0, 6000, 10, 10},  // clamped at the horizon
		{600, 60, 10, 1},   // starts at the horizon: untouched
		{-120, 60, 10, 1},  // entirely before time 0: untouched
		{-120, 180, 10, 1}, // ends on minute 1's start
		{1e300, 1, 10, 1},  // start too large for an int
		{-1e300, 1e300, 10, 1},
	} {
		// Stale values past the row's length must not leak into it.
		row := []float64{7, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5, 5}[:1]
		row, err := SpreadMinutes(row, tc.horizon, tc.start, tc.dur, 1e3)
		if err != nil {
			t.Fatal(err)
		}
		if len(row) != tc.wantLen {
			t.Errorf("session [%v, +%v): row length %d, want %d", tc.start, tc.dur, len(row), tc.wantLen)
		}
		want := make([]float64, tc.horizon)
		want[0] = 7
		addSessionOracle(want, tc.start, tc.dur, 1e3)
		for m := range want {
			var g float64
			if m < len(row) {
				g = row[m]
			}
			if g != want[m] {
				t.Errorf("session [%v, +%v): minute %d = %v, oracle %v", tc.start, tc.dur, m, g, want[m])
			}
		}
	}
}

// TestDemandTraceRejectsHostileInput pins that non-finite session
// fields are errors and leave the trace as it was, and that a start
// before minute -1 clamps at minute 0. Before, a NaN duration passed
// validation and wrote NaN into every later minute, and a start below
// -60 s panicked with an index out of range.
func TestDemandTraceRejectsHostileInput(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, e := range [][3]float64{
		{0, nan, 1}, {nan, 60, 1}, {inf, 60, 1}, {-inf, 60, 1}, {0, 60, nan},
		{0, inf, 1}, {0, 60, inf}, {0, -1, 1}, {0, 60, -1},
	} {
		d, _ := NewDemandTrace(1, 4)
		if err := d.AddSession(SessionSpec{Start: e[0], Duration: e[1], Volume: e[2]}); err == nil {
			t.Errorf("session %v accepted", e)
		}
		for m, v := range d.Demand[0] {
			if v != 0 {
				t.Fatalf("rejected session %v wrote %v at minute %d", e, v, m)
			}
		}
	}
	d, _ := NewDemandTrace(1, 4)
	if err := d.AddSession(SessionSpec{Start: -150, Duration: 240, Volume: 2400}); err != nil {
		t.Fatal(err)
	}
	// 10 B/s over [-150, 90): 60 s in minute 0, 30 s in minute 1.
	want := []float64{600, 300, 0, 0}
	for m, w := range want {
		if d.Demand[0][m] != w {
			t.Errorf("minute %d = %v, want %v", m, d.Demand[0][m], w)
		}
	}
}

// FuzzDemandTraceAddSession feeds arbitrary sessions: each must either
// be rejected or match the per-minute oracle bit for bit, and never
// panic.
func FuzzDemandTraceAddSession(f *testing.F) {
	f.Add(uint8(10), 30.0, 120.0, 1.2e5)
	f.Add(uint8(1), 0.0, 60.0, 1.0)
	f.Add(uint8(3), -150.0, 240.0, 2400.0)
	f.Add(uint8(5), math.NaN(), 1.0, 1.0)
	f.Add(uint8(200), 1e300, 1e300, 1e-300)
	f.Fuzz(func(t *testing.T, minutes uint8, start, duration, volume float64) {
		n := int(minutes)%100 + 1
		d, _ := NewDemandTrace(1, n)
		if err := d.AddSession(SessionSpec{Start: start, Duration: duration, Volume: volume}); err != nil {
			for m, v := range d.Demand[0] {
				if v != 0 {
					t.Fatalf("rejected session wrote %v at minute %d", v, m)
				}
			}
			return
		}
		want := make([]float64, n)
		addSessionOracle(want, start, duration, volume)
		for m := range want {
			if math.Float64bits(d.Demand[0][m]) != math.Float64bits(want[m]) {
				t.Fatalf("minute %d = %v, oracle %v", m, d.Demand[0][m], want[m])
			}
		}
	})
}
