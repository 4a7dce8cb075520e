package netsim

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"mobiletraffic/internal/dist"
)

// dayGenerator is one engine's per-(BS, day) session stream: the
// production (*Simulator).GenerateDay or the v1 oracle generateDayV1.
type dayGenerator func(s *Simulator, bsIdx, day int, yield func(Session)) error

// hashSessionStream runs the full campaign on gen (days outermost, BSs
// inner) and returns the sha256 of every session field at full float64
// precision plus the session count. Any change to a single random draw,
// clamp, or field changes the digest.
func hashSessionStream(t *testing.T, numBS int, topoSeed int64, cfg SimConfig, days int, gen dayGenerator) (string, int) {
	t.Helper()
	topo, err := NewTopology(TopologyConfig{NumBS: numBS, Seed: topoSeed})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf [8]byte
	n := 0
	w64 := func(v uint64) { binary.LittleEndian.PutUint64(buf[:], v); h.Write(buf[:]) }
	for day := 0; day < days; day++ {
		for bs := 0; bs < numBS; bs++ {
			err := gen(sim, bs, day, func(s Session) {
				n++
				w64(uint64(s.BS))
				w64(uint64(s.Service))
				w64(uint64(s.Day))
				w64(uint64(s.Minute))
				w64(math.Float64bits(s.Start))
				w64(math.Float64bits(s.Duration))
				w64(math.Float64bits(s.Volume))
				if s.Truncated {
					w64(1)
				} else {
					w64(0)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil)), n
}

// TestSamplerV1GoldenStream pins the v1 oracle (generateDayV1) byte for
// byte: the digests below were captured from the simulator before
// sampler versioning existed, so the oracle remaining equal to them
// proves it is still the historical stream the equivalence suite
// needs as its reference. If this test fails, the oracle no longer
// reproduces the historical stream — fix the oracle, do not re-pin.
func TestSamplerV1GoldenStream(t *testing.T) {
	cases := []struct {
		name     string
		numBS    int
		topoSeed int64
		cfg      SimConfig
		days     int
		hash     string
		sessions int
	}{
		{
			name:     "default-config",
			numBS:    20,
			topoSeed: 7,
			cfg:      SimConfig{Seed: 42},
			days:     2,
			hash:     "2551e10213f0b38b5038ddb4158845624d5130a9c998656dfb2b06f1b4e8c64b",
			sessions: 710756,
		},
		{
			name:     "weekend-mobility-week",
			numBS:    12,
			topoSeed: 3,
			cfg:      SimConfig{Seed: 9, Weekend: 0.5, MoveProb: 0.4, Days: 7},
			days:     7,
			hash:     "2be92c7fe9d1fad78392ec1e355fef73f1a968928586fe7dad2dc4169824112e",
			sessions: 1161144,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hash, n := hashSessionStream(t, tc.numBS, tc.topoSeed, tc.cfg, tc.days, generateDayV1)
			if n != tc.sessions {
				t.Errorf("v1 stream generated %d sessions, golden capture had %d", n, tc.sessions)
			}
			if hash != tc.hash {
				t.Errorf("v1 stream digest %s does not match golden %s", hash, tc.hash)
			}
		})
	}
}

// TestSamplerV2Deterministic checks that the v2 stream is a pure
// function of the seed: two simulators built from the same config
// produce identical digests.
func TestSamplerV2Deterministic(t *testing.T) {
	cfg := SimConfig{Seed: 42, Sampler: SamplerV2}
	h1, n1 := hashSessionStream(t, 20, 7, cfg, 2, (*Simulator).GenerateDay)
	h2, n2 := hashSessionStream(t, 20, 7, cfg, 2, (*Simulator).GenerateDay)
	if h1 != h2 || n1 != n2 {
		t.Fatalf("v2 stream not deterministic: %s/%d vs %s/%d", h1, n1, h2, n2)
	}
}

// collectMarginals generates a campaign and extracts the marginals the
// equivalence test compares: per-service session counts, per-service
// volume and duration samples for the highest-share services, the
// per-minute arrival-count histogram, and the truncation count.
type marginals struct {
	total        int
	svcCounts    []float64
	volumes      map[int][]float64 // log10 bytes, keyed by service
	durations    map[int][]float64 // log10 seconds
	arrivalHist  []float64         // sessions per (BS, minute) count histogram
	truncated    int
	weekendCount int
}

func collectMarginals(t *testing.T, gen dayGenerator, topSvc map[int]bool) marginals {
	t.Helper()
	topo, err := NewTopology(TopologyConfig{NumBS: 20, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(topo, SimConfig{Seed: 42, Days: 2, Weekend: 0.7})
	if err != nil {
		t.Fatal(err)
	}
	m := marginals{
		svcCounts: make([]float64, len(sim.Services)),
		volumes:   map[int][]float64{},
		durations: map[int][]float64{},
	}
	perMinute := make([]int, len(topo.BSs)*MinutesPerDay)
	for day := 0; day < 2; day++ {
		for i := range perMinute {
			perMinute[i] = 0
		}
		for bs := range topo.BSs {
			err := gen(sim, bs, day, func(s Session) {
				m.total++
				m.svcCounts[s.Service]++
				if topSvc[s.Service] {
					m.volumes[s.Service] = append(m.volumes[s.Service], math.Log10(s.Volume))
					m.durations[s.Service] = append(m.durations[s.Service], math.Log10(s.Duration))
				}
				if s.Truncated {
					m.truncated++
				}
				if IsWeekend(s.Day) {
					m.weekendCount++
				}
				perMinute[s.BS*MinutesPerDay+s.Minute]++
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		for _, c := range perMinute {
			for len(m.arrivalHist) <= c {
				m.arrivalHist = append(m.arrivalHist, 0)
			}
			m.arrivalHist[c]++
		}
	}
	return m
}

// mergeTailBins pools sparse high-count bins so every chi-square cell
// has a pooled count of at least min, keeping the asymptotic chi-square
// approximation honest for the long arrival-count tail.
func mergeTailBins(a, b []float64, min float64) (am, bm []float64) {
	n := len(a)
	if len(b) > n {
		n = len(b)
	}
	at := func(s []float64, i int) float64 {
		if i < len(s) {
			return s[i]
		}
		return 0
	}
	var accA, accB float64
	for i := 0; i < n; i++ {
		accA += at(a, i)
		accB += at(b, i)
		if accA+accB >= min {
			am = append(am, accA)
			bm = append(bm, accB)
			accA, accB = 0, 0
		}
	}
	if accA+accB > 0 && len(am) > 0 {
		am[len(am)-1] += accA
		bm[len(bm)-1] += accB
	}
	return am, bm
}

// TestSamplerV2StatEquivalence checks the v2 contract: a different draw
// mapping realizing the same ground truth. Both engines run the same
// config at the same seed and every compared marginal — per-service
// session shares, per-service volume and duration distributions,
// the per-(BS, minute) arrival-count histogram, and the mobility
// truncation rate — must agree within sampling noise (KS for continuous
// marginals, chi-square homogeneity for categorical ones). Seeds are
// fixed, so the observed p-values are constants; the 1e-3 floor keeps
// the test deterministic while still failing loudly on any systematic
// distributional shift.
func TestSamplerV2StatEquivalence(t *testing.T) {
	// Facebook, Instagram, SnapChat carry >75% of sessions; Youtube adds
	// a heavy-tailed streaming profile with multiple peaks.
	topSvc := map[int]bool{0: true, 1: true, 2: true, 3: true}
	v1 := collectMarginals(t, generateDayV1, topSvc)
	v2 := collectMarginals(t, (*Simulator).GenerateDay, topSvc)
	const minP = 1e-3

	if v1.total == 0 || v2.total == 0 {
		t.Fatal("empty campaign")
	}
	// Campaign sizes must agree to well under a percent: both engines
	// draw arrival counts from the same per-BS rate processes.
	if ratio := float64(v2.total) / float64(v1.total); ratio < 0.99 || ratio > 1.01 {
		t.Errorf("total sessions diverge: v1=%d v2=%d (ratio %.4f)", v1.total, v2.total, ratio)
	}

	// Service shares: chi-square homogeneity over all catalog services.
	stat, df, p, err := dist.Chi2Homogeneity(v1.svcCounts, v2.svcCounts)
	if err != nil {
		t.Fatalf("service-share chi2: %v", err)
	}
	if p < minP {
		t.Errorf("service shares differ: chi2=%.1f df=%d p=%.2e", stat, df, p)
	}

	// Arrival-count histogram: pooled tail bins, then homogeneity.
	ah1, ah2 := mergeTailBins(v1.arrivalHist, v2.arrivalHist, 25)
	stat, df, p, err = dist.Chi2Homogeneity(ah1, ah2)
	if err != nil {
		t.Fatalf("arrival-count chi2: %v", err)
	}
	if p < minP {
		t.Errorf("arrival-count histograms differ: chi2=%.1f df=%d p=%.2e", stat, df, p)
	}

	// Per-service volume and duration marginals: two-sample KS.
	for svc := range topSvc {
		for _, m := range []struct {
			name   string
			s1, s2 []float64
		}{
			{"volume", v1.volumes[svc], v2.volumes[svc]},
			{"duration", v1.durations[svc], v2.durations[svc]},
		} {
			d, p, err := dist.KSTwoSample(m.s1, m.s2)
			if err != nil {
				t.Fatalf("service %d %s KS: %v", svc, m.name, err)
			}
			if p < minP {
				t.Errorf("service %d %s marginals differ: D=%.4f p=%.2e (n1=%d n2=%d)",
					svc, m.name, d, p, len(m.s1), len(m.s2))
			}
		}
	}

	// Truncation rate: two-proportion chi-square (equivalent to the
	// z-test squared).
	stat, df, p, err = dist.Chi2Homogeneity(
		[]float64{float64(v1.truncated), float64(v1.total - v1.truncated)},
		[]float64{float64(v2.truncated), float64(v2.total - v2.truncated)},
	)
	if err != nil {
		t.Fatalf("truncation chi2: %v", err)
	}
	if p < minP {
		t.Errorf("truncation rates differ: v1=%.4f v2=%.4f chi2=%.1f df=%d p=%.2e",
			float64(v1.truncated)/float64(v1.total), float64(v2.truncated)/float64(v2.total), stat, df, p)
	}

	// Weekend scaling applies identically (day 5 of a 2-day run never
	// happens; weekendCount counts day-type attribution consistency).
	if (v1.weekendCount == 0) != (v2.weekendCount == 0) {
		t.Errorf("weekend attribution differs: v1=%d v2=%d", v1.weekendCount, v2.weekendCount)
	}
}

// TestSamplerV2DayAllocs pins the allocation property of the scalar
// surface: a day synthesizes its thousands of sessions into the pooled
// DayColumns scratch and yields them without per-day heap allocations —
// no rand.Rand, no mixture scratch, no session buffer.
func TestSamplerV2DayAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector adds allocations of its own")
	}
	sim := newTestSim(t, SimConfig{Seed: 42, Sampler: SamplerV2})
	var kept int
	yield := func(Session) { kept++ }
	// Warm up lazy state (obs handles, the pooled scratch).
	if err := sim.GenerateDay(2, 0, yield); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(5, func() {
		if err := sim.GenerateDay(2, 0, yield); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2 {
		t.Errorf("GenerateDay allocates %.1f times per day, want <= 2", allocs)
	}
	if kept == 0 {
		t.Fatal("no sessions generated")
	}
}

// TestPhaseTableMatchesDayWeight checks the precomputed phase table is
// bit-identical to the closed form — the property that lets the v1
// oracle read it without perturbing the historical stream.
func TestPhaseTableMatchesDayWeight(t *testing.T) {
	sim := newTestSim(t, SimConfig{Seed: 1})
	if len(sim.phase) != MinutesPerDay {
		t.Fatalf("phase table has %d entries, want %d", len(sim.phase), MinutesPerDay)
	}
	for m := 0; m < MinutesPerDay; m++ {
		if got, want := sim.phase[m], DayWeight(m); got != want {
			t.Fatalf("phase[%d] = %v, DayWeight = %v", m, got, want)
		}
	}
}

// TestParseSampler covers the sampler version field: "" and "v2"
// select the only stream, and every other value — v1 included — is
// rejected with an error naming the removal.
func TestParseSampler(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{NumBS: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		in      Sampler
		wantErr bool
	}{
		{"", false},
		{"v2", false},
		{"v1", true},
		{"v3", true},
		{"V1", true},
	} {
		sim, err := NewSimulator(topo, SimConfig{Seed: 1, Sampler: tc.in})
		if (err != nil) != tc.wantErr {
			t.Errorf("Sampler %q: error = %v, wantErr %v", tc.in, err, tc.wantErr)
			continue
		}
		if tc.wantErr && !strings.Contains(err.Error(), "v1 was removed") {
			t.Errorf("Sampler %q: error %q does not name the removal", tc.in, err)
		}
		if !tc.wantErr && sim.Config.Sampler != SamplerV2 {
			t.Errorf("Sampler %q resolved to %q, want %q", tc.in, sim.Config.Sampler, SamplerV2)
		}
	}
}

func TestNewSimulatorRejectsUnknownSampler(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{NumBS: 10, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSimulator(topo, SimConfig{Seed: 1, Sampler: "v99"}); err == nil {
		t.Fatal("expected error for unknown sampler version")
	}
}

// TestSamplerV2GoldenStream pins the v2 session stream byte for byte on
// the two configurations of TestSamplerV1GoldenStream. The digests were
// captured from the scalar GenerateDay path before the v1 engine was
// retired; any change to a v2 draw, clamp or field changes them. Like
// the v1 pin, a failure here is a breaking change to every downstream
// result, not a test to re-pin casually.
func TestSamplerV2GoldenStream(t *testing.T) {
	cases := []struct {
		name     string
		numBS    int
		topoSeed int64
		cfg      SimConfig
		days     int
		hash     string
		sessions int
	}{
		{
			name:     "default-config",
			numBS:    20,
			topoSeed: 7,
			cfg:      SimConfig{Seed: 42},
			days:     2,
			hash:     "05439d31b8c384f016c219da55b042f67094b423ad9c8068c5e16c0ee54c0a47",
			sessions: 711201,
		},
		{
			name:     "weekend-mobility-week",
			numBS:    12,
			topoSeed: 3,
			cfg:      SimConfig{Seed: 9, Weekend: 0.5, MoveProb: 0.4, Days: 7},
			days:     7,
			hash:     "e39c62fa5ee2c0f85b9c8723092492bbd441bd0869622e836be88c36f3d2ce46",
			sessions: 1161201,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			hash, n := hashSessionStream(t, tc.numBS, tc.topoSeed, tc.cfg, tc.days, (*Simulator).GenerateDay)
			if n != tc.sessions {
				t.Errorf("v2 stream generated %d sessions, golden capture had %d", n, tc.sessions)
			}
			if hash != tc.hash {
				t.Errorf("v2 stream digest %s does not match golden %s", hash, tc.hash)
			}
		})
	}
}

// TestGenerateDayMatchesSampleDayColumns checks that the scalar and
// columnar surfaces expose one v2 stream: GenerateDay yields, session
// for session and field for field, what SampleDayColumns leaves in its
// columns, with the Start column both drawn and elided (SkipStart
// leaves every other column's draws untouched). Five BSs of a 10-BS
// topology (the smallest with decile classes) cover weekdays and the
// weekend.
func TestGenerateDayMatchesSampleDayColumns(t *testing.T) {
	topo, err := NewTopology(TopologyConfig{NumBS: 10, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := NewSimulator(topo, SimConfig{Seed: 42, Days: 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, skipStart := range []bool{false, true} {
		cols := DayColumns{SkipStart: skipStart}
		for bs := 0; bs < 5; bs++ {
			for _, day := range []int{0, 3, 6} {
				var got []Session
				if err := sim.GenerateDay(bs, day, func(s Session) { got = append(got, s) }); err != nil {
					t.Fatal(err)
				}
				if err := sim.SampleDayColumns(bs, day, &cols); err != nil {
					t.Fatal(err)
				}
				if len(got) != cols.N() || len(got) == 0 {
					t.Fatalf("BS %d day %d: GenerateDay yielded %d sessions, SampleDayColumns %d", bs, day, len(got), cols.N())
				}
				for i, s := range got {
					g := cols.Slot[i]
					want := Session{
						BS: bs, Service: int(cols.Svc[i]), Day: day, Minute: int(cols.Minute[i]),
						Start: s.Start, Duration: cols.Duration[g], Volume: cols.Volume[g], Truncated: cols.Truncated[i],
					}
					if !skipStart {
						want.Start = cols.Start[i]
					}
					if s != want {
						t.Fatalf("skipStart=%v BS %d day %d session %d:\nGenerateDay      %+v\nSampleDayColumns %+v", skipStart, bs, day, i, s, want)
					}
				}
			}
		}
	}
}
