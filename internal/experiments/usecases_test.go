package experiments

import (
	"math"
	"math/rand"
	"testing"

	"mobiletraffic/internal/littrafgen"
	"mobiletraffic/internal/slicing"
)

// TestDemandTileMatchesAddSession pins the category builder's per-day
// tiles against the trace's own rasterizer: filling each day's tile and
// merging the tiles in day order gives the trace DemandTrace.AddSession
// builds from the same sessions at absolute times. On one day the two
// agree bit for bit. Across days, shifting a tile-relative time by d
// days rounds it, which moves a short session's share in the last bits;
// so there times are multiples of 2^-10 s, which shift exactly, and
// only the merge order differs: the two agree within 1e-12 of the
// row's peak, and are exactly 0 at the same minutes.
func TestDemandTileMatchesAddSession(t *testing.T) {
	for _, days := range []int{1, 3} {
		rng := rand.New(rand.NewSource(int64(days)))
		got, _ := slicing.NewDemandTrace(littrafgen.NumCategories, days*24*60)
		want, _ := slicing.NewDemandTrace(littrafgen.NumCategories, days*24*60)
		var tile demandTile
		for d := 0; d < days; d++ {
			tile.reset()
			for i := 0; i < 3000; i++ {
				cat := rng.Intn(littrafgen.NumCategories)
				start := rng.Float64() * 86400
				if i%10 == 0 {
					start = math.Floor(start/60) * 60
				}
				dur := math.Exp(rng.Float64()*14 - 2) // ~0.1 s to ~4 days
				vol := math.Exp(rng.Float64() * 20)
				if days > 1 {
					start = math.Round(start*1024) / 1024
					dur = math.Max(math.Round(dur*1024), 1) / 1024
				}
				tile.add(cat, start, dur, vol, (days-d)*24*60)
				if err := want.AddSession(slicing.SessionSpec{Service: cat, Start: float64(d)*86400 + start, Duration: dur, Volume: vol}); err != nil {
					t.Fatal(err)
				}
			}
			tile.add(0, 10, math.NaN(), 1, (days-d)*24*60) // invalid: adds nothing
			tile.merge(got, d)
		}
		for c := range want.Demand {
			var peak float64
			for _, w := range want.Demand[c] {
				peak = math.Max(peak, w)
			}
			for m, w := range want.Demand[c] {
				g := got.Demand[c][m]
				switch {
				case days == 1 && math.Float64bits(g) != math.Float64bits(w):
					t.Fatalf("1 day: category %d minute %d = %v, AddSession %v", c, m, g, w)
				case (w == 0) != (g == 0) || math.Abs(g-w) > 1e-12*peak:
					t.Fatalf("%d days: category %d minute %d = %v, AddSession %v (peak %v)", days, c, m, g, w, peak)
				}
			}
		}
	}
}
