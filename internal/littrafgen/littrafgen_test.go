package littrafgen

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/services"
)

func TestCategoryString(t *testing.T) {
	if IW.String() != "IW" || CS.String() != "CS" || MS.String() != "MS" {
		t.Error("category strings")
	}
	if Category(9).String() != "Category(9)" {
		t.Error("unknown category string")
	}
}

func TestModelsOrdering(t *testing.T) {
	m := Models()
	// Movie streaming carries more volume and lasts longer than casual
	// streaming, which exceeds interactive web.
	if !(m[MS].MeanVolume() > m[CS].MeanVolume() && m[CS].MeanVolume() > m[IW].MeanVolume()) {
		t.Error("category volume ordering violated")
	}
	if !(m[MS].DurMu > m[CS].DurMu && m[CS].DurMu > m[IW].DurMu) {
		t.Error("category duration ordering violated")
	}
}

func TestSampleMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	m := Models()[CS]
	var logs []float64
	for i := 0; i < 50000; i++ {
		s := m.Sample(rng)
		if s.Volume <= 0 || s.Duration < 1 || s.Throughput <= 0 {
			t.Fatalf("invalid session %+v", s)
		}
		if s.Category != CS {
			t.Fatalf("category = %v", s.Category)
		}
		logs = append(logs, math.Log10(s.Volume))
	}
	if got := mathx.Mean(logs); math.Abs(got-7.3) > 0.02 {
		t.Errorf("log-volume mean = %v", got)
	}
}

func TestMeanVolumeAnalytic(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	m := Models()[IW]
	var sum float64
	const n = 300000
	for i := 0; i < n; i++ {
		sum += m.Sample(rng).Volume
	}
	got := sum / n
	want := m.MeanVolume()
	if math.Abs(got-want)/want > 0.03 {
		t.Errorf("empirical mean volume %v vs analytic %v", got, want)
	}
}

func TestCategoryOfMapping(t *testing.T) {
	cases := map[string]Category{
		"Netflix":  MS,
		"Twitch":   MS,
		"FB Live":  MS,
		"Youtube":  MS,
		"Deezer":   CS,
		"Spotify":  CS,
		"Facebook": IW,
		"Amazon":   IW,
		"Waze":     IW,
	}
	for name, want := range cases {
		p, err := services.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		if got := CategoryOf(p); got != want {
			t.Errorf("CategoryOf(%s) = %v, want %v", name, got, want)
		}
	}
}

func TestBenchmarkShares(t *testing.T) {
	a, b := BMAShares(), BMBShares()
	if math.Abs(a[IW]+a[CS]+a[MS]-1) > 1e-9 {
		t.Errorf("bm_a shares sum to %v", a[IW]+a[CS]+a[MS])
	}
	if math.Abs(b[IW]+b[CS]+b[MS]-1) > 1e-9 {
		t.Errorf("bm_b shares sum to %v", b[IW]+b[CS]+b[MS])
	}
	// Paper values.
	if a[IW] != 0.4930 || a[CS] != 0.4846 || a[MS] != 0.0224 {
		t.Errorf("bm_a shares = %v", a)
	}
	if b[MS] != 0.0789 {
		t.Errorf("bm_b MS share = %v", b[MS])
	}
}

func TestPickCategoryDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	shares := BMAShares()
	var counts [NumCategories]int
	const n = 100000
	for i := 0; i < n; i++ {
		counts[PickCategory(shares, rng)]++
	}
	for c := 0; c < NumCategories; c++ {
		got := float64(counts[c]) / n
		if math.Abs(got-shares[c]) > 0.01 {
			t.Errorf("category %v share = %v, want %v", Category(c), got, shares[c])
		}
	}
}

func TestGeneratorNormalizeTotal(t *testing.T) {
	g := NewGenerator(BMAShares(), 4)
	want := 2e6
	scale := g.NormalizeTotal(want)
	if scale <= 0 {
		t.Fatalf("scale = %v", scale)
	}
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Sample().Volume
	}
	got := sum / n
	if math.Abs(got-want)/want > 0.05 {
		t.Errorf("normalized mean volume = %v, want %v", got, want)
	}
	// Degenerate target leaves scaling untouched.
	g2 := NewGenerator(BMAShares(), 5)
	if s := g2.NormalizeTotal(0); s != 1 {
		t.Errorf("zero-target scale = %v", s)
	}
}

func TestGeneratorNormalizePerCategory(t *testing.T) {
	g := NewGenerator([NumCategories]float64{IW: 1}, 6) // IW only
	want := [NumCategories]float64{IW: 5e5, CS: 1e7, MS: 2e8}
	scales := g.NormalizePerCategory(want)
	for c := 0; c < NumCategories; c++ {
		if scales[c] <= 0 {
			t.Errorf("scale[%d] = %v", c, scales[c])
		}
	}
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += g.Sample().Volume
	}
	got := sum / n
	if math.Abs(got-want[IW])/want[IW] > 0.05 {
		t.Errorf("per-category normalized mean = %v, want %v", got, want[IW])
	}
}

// TestSubstreamDeterministic pins the benchmark substream contract:
// cells are pure functions of (master seed, a, b) — creation order and
// sibling draws never change a cell — scales carry over, and the parent
// stream is untouched.
func TestSubstreamDeterministic(t *testing.T) {
	g := NewGenerator(BMAShares(), 321)
	g.NormalizeTotal(5e6)

	s1, err := g.Substream(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	ref := make([]Session, 8)
	for i := range ref {
		ref[i] = s1.Sample()
	}

	// Re-derive after interleaving draws on a sibling cell.
	sib, err := g.Substream(5, 5)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := g.Substream(2, 9)
	if err != nil {
		t.Fatal(err)
	}
	for i := range ref {
		sib.Sample()
		if got := s2.Sample(); got != ref[i] {
			t.Fatalf("substream (2,9) draw %d changed under interleaving: %+v vs %+v", i, got, ref[i])
		}
	}
	if s2.VolumeScale != g.VolumeScale {
		t.Error("substream did not inherit volume scales")
	}

	// Parent stream unaffected by substream derivation.
	fresh := NewGenerator(BMAShares(), 321)
	fresh.NormalizeTotal(5e6)
	if a, b := g.Sample(), fresh.Sample(); a != b {
		t.Errorf("parent stream perturbed by substream derivation: %+v vs %+v", a, b)
	}
}

// TestNewGeneratorEngineRejectsV1 pins the version argument: "" and
// core.GenV2 build the generator NewGenerator builds, and any other
// value panics with a message naming the removal of v1.
func TestNewGeneratorEngineRejectsV1(t *testing.T) {
	want := NewGenerator(BMAShares(), 5).Sample()
	for _, engine := range []core.Engine{"", core.GenV2} {
		if got := NewGeneratorEngine(BMAShares(), 5, engine).Sample(); got != want {
			t.Errorf("engine %q: first draw %+v, NewGenerator's %+v", engine, got, want)
		}
	}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "v1 was removed") {
			t.Errorf("NewGeneratorEngine(v1) recovered %v, want a panic naming the removal", r)
		}
	}()
	NewGeneratorEngine(BMAShares(), 5, "v1")
}

// TestGeneratorGoldenStream pins the v2 benchmark generator byte for
// byte: the parent stream's Sample draws (with a bm_b volume scale),
// SampleCategory draws, and two keyed Substream cells. The digests were
// captured before the v1 engine was retired; any change to a draw, its
// order or the category constants breaks them.
func TestGeneratorGoldenStream(t *testing.T) {
	h := sha256.New()
	var buf [8]byte
	w := func(s Session) {
		for _, v := range []uint64{uint64(s.Category), math.Float64bits(s.Volume), math.Float64bits(s.Duration), math.Float64bits(s.Throughput)} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	g := NewGenerator(BMBShares(), 42)
	g.NormalizeTotal(4e6)
	for i := 0; i < 2000; i++ {
		w(g.Sample())
	}
	for i := 0; i < 300; i++ {
		w(g.SampleCategory(Category(i % NumCategories)))
	}
	for _, cell := range [][2]uint64{{0, 0}, {7, 3}} {
		sub, err := g.Substream(cell[0], cell[1])
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 1000; i++ {
			w(sub.Sample())
		}
	}
	const golden = "aeea529469ce5136b01e9363aaa3cf5703a5bde93487f2cfa85ab3fb00cf31ab"
	if got := fmt.Sprintf("%x", h.Sum(nil)); got != golden {
		t.Errorf("benchmark generator stream drifted: got %s, want %s", got, golden)
	}
}
