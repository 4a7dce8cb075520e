package core

import (
	"math"
	"strings"
	"testing"

	"mobiletraffic/internal/mathx"
	"mobiletraffic/internal/netsim"
)

func testModelSet() *ModelSet {
	return &ModelSet{
		Services: []ServiceModel{
			{
				Name:         "video",
				SessionShare: 0.25,
				Volume:       VolumeModel{MainMu: 7, MainSigma: 0.5},
				Duration:     DurationModel{Alpha: 3000, Beta: 1.4},
			},
			{
				Name:         "web",
				SessionShare: 0.75,
				Volume:       VolumeModel{MainMu: 5, MainSigma: 0.7},
				Duration:     DurationModel{Alpha: 800, Beta: 0.5},
			},
		},
		Arrivals: []*ArrivalModel{
			{PeakMu: 20, PeakSigma: 2, OffShape: ParetoShape, OffScale: 0.4},
		},
	}
}

func TestGeneratorServiceMix(t *testing.T) {
	g, err := NewGenerator(testModelSet(), 1)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	total := 0
	for minute := 0; minute < 2000; minute++ {
		sessions, err := g.Minute(0, true)
		if err != nil {
			t.Fatal(err)
		}
		for _, s := range sessions {
			counts[s.Service]++
			total++
		}
	}
	if total == 0 {
		t.Fatal("no sessions generated")
	}
	frac := float64(counts["web"]) / float64(total)
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("web share = %v, want ~0.75", frac)
	}
	// Arrival volume: ~20 sessions per peak minute.
	if rate := float64(total) / 2000; math.Abs(rate-20) > 1 {
		t.Errorf("mean arrivals/min = %v, want ~20", rate)
	}
}

func TestGenerateSessionConsistency(t *testing.T) {
	g, err := NewGenerator(testModelSet(), 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 1000; i++ {
		s, err := g.Session("video")
		if err != nil {
			t.Fatal(err)
		}
		if s.Volume <= 0 || s.Duration < 1 {
			t.Fatalf("invalid session %+v", s)
		}
		if math.Abs(s.Throughput-s.Volume/s.Duration) > 1e-9 {
			t.Fatalf("throughput inconsistent: %+v", s)
		}
	}
	if _, err := g.Session("nope"); err == nil {
		t.Error("unknown service must error")
	}
}

func TestGeneratorDurationFollowsInversePowerLaw(t *testing.T) {
	set := testModelSet()
	set.Services[0].DurationNoise = 0 // deterministic inverse
	g, err := NewGenerator(set, 3)
	if err != nil {
		t.Fatal(err)
	}
	m := set.Services[0]
	for i := 0; i < 200; i++ {
		s, err := g.Session("video")
		if err != nil {
			t.Fatal(err)
		}
		want := m.Duration.DurationFor(s.Volume)
		if want < 1 {
			want = 1
		}
		if math.Abs(s.Duration-want)/want > 1e-9 {
			t.Fatalf("duration %v, want inverse %v", s.Duration, want)
		}
	}
}

func TestGeneratorValidation(t *testing.T) {
	if _, err := NewGenerator(nil, 0); err == nil {
		t.Error("nil set must error")
	}
	if _, err := NewGenerator(&ModelSet{}, 0); err == nil {
		t.Error("empty set must error")
	}
	zero := testModelSet()
	zero.Services[0].SessionShare = 0
	zero.Services[1].SessionShare = 0
	if _, err := NewGenerator(zero, 0); err == nil {
		t.Error("zero shares must error")
	}
	g, err := NewGenerator(testModelSet(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g.Minute(5, true); err == nil {
		t.Error("out-of-range arrival class must error")
	}
	if _, err := g.Minute(-1, true); err == nil {
		t.Error("negative arrival class must error")
	}
	if _, err := g.MinuteAppend(nil, len(g.Set.Arrivals), false); err == nil {
		t.Error("MinuteAppend out-of-range class must error")
	}
	noArr := testModelSet()
	noArr.Arrivals = nil
	g2, err := NewGenerator(noArr, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := g2.Minute(0, true); err == nil {
		t.Error("missing arrival models must error")
	}
}

func TestModelSetJSONRoundTrip(t *testing.T) {
	set := testModelSet()
	set.Services[0].Volume.Peaks = []VolumeComponent{{K: 0.1, Mu: 7.6, Sigma: 0.08}}
	set.Services[0].DurationNoise = 0.35
	data, err := set.ToJSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ModelSetFromJSON(data)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Services) != 2 || len(back.Arrivals) != 1 {
		t.Fatalf("round trip shape: %+v", back)
	}
	v, err := back.ByName("video")
	if err != nil {
		t.Fatal(err)
	}
	if v.Volume.MainMu != 7 || len(v.Volume.Peaks) != 1 || v.Volume.Peaks[0].Mu != 7.6 {
		t.Errorf("round-tripped video model = %+v", v)
	}
	if v.Duration.Beta != 1.4 {
		t.Errorf("beta = %v", v.Duration.Beta)
	}
	if v.DurationNoise != 0.35 {
		t.Errorf("duration noise = %v, want 0.35", v.DurationNoise)
	}
	if a := back.Arrivals[0]; a.PeakMu != 20 || a.PeakSigma != set.Arrivals[0].PeakSigma ||
		a.OffShape != set.Arrivals[0].OffShape || a.OffScale != set.Arrivals[0].OffScale {
		t.Errorf("arrivals = %+v, want %+v", a, set.Arrivals[0])
	}
	if _, err := ModelSetFromJSON([]byte("{garbage")); err == nil {
		t.Error("malformed JSON must error")
	}
	if _, err := back.ByName("missing"); err == nil {
		t.Error("unknown name must error")
	}
}

func TestModelSetNormalize(t *testing.T) {
	set := testModelSet()
	set.Services[0].SessionShare = 1
	set.Services[1].SessionShare = 3
	if err := set.Normalize(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(set.Services[0].SessionShare-0.25) > 1e-12 {
		t.Errorf("normalized share = %v", set.Services[0].SessionShare)
	}
}

func TestGeneratedVolumesMatchModelPDF(t *testing.T) {
	set := testModelSet()
	g, err := NewGenerator(set, 11)
	if err != nil {
		t.Fatal(err)
	}
	var logs []float64
	for i := 0; i < 50000; i++ {
		s, err := g.Session("web")
		if err != nil {
			t.Fatal(err)
		}
		logs = append(logs, math.Log10(s.Volume))
	}
	if m := mathx.Mean(logs); math.Abs(m-5) > 0.02 {
		t.Errorf("generated log-volume mean = %v, want 5", m)
	}
	if s := mathx.Std(logs); math.Abs(s-0.7) > 0.02 {
		t.Errorf("generated log-volume std = %v, want 0.7", s)
	}
}

func validSet() *ModelSet {
	return &ModelSet{
		Services: []ServiceModel{
			{
				Name: "A", SessionShare: 0.6,
				Volume:   VolumeModel{MainMu: 6, MainSigma: 0.8, Peaks: []VolumeComponent{{K: 0.1, Mu: 7, Sigma: 0.2}}},
				Duration: DurationModel{Alpha: 1e4, Beta: 1.2, R2: 0.9},
			},
			{
				Name: "B", SessionShare: 0.4,
				Volume:   VolumeModel{MainMu: 5, MainSigma: 0.5},
				Duration: DurationModel{Alpha: 2e3, Beta: 0.7, R2: 0.8},
			},
		},
		Arrivals: []*ArrivalModel{{PeakMu: 10, PeakSigma: 1, OffShape: ParetoShape, OffScale: 0.5}},
	}
}

func TestModelSetValidate(t *testing.T) {
	if err := validSet().Validate(); err != nil {
		t.Fatalf("valid set rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*ModelSet)
	}{
		{"NaN volume mu", func(s *ModelSet) { s.Services[0].Volume.MainMu = math.NaN() }},
		{"Inf volume sigma", func(s *ModelSet) { s.Services[0].Volume.MainSigma = math.Inf(1) }},
		{"zero volume sigma", func(s *ModelSet) { s.Services[0].Volume.MainSigma = 0 }},
		{"negative alpha", func(s *ModelSet) { s.Services[1].Duration.Alpha = -3 }},
		{"NaN beta", func(s *ModelSet) { s.Services[1].Duration.Beta = math.NaN() }},
		{"zero beta", func(s *ModelSet) { s.Services[1].Duration.Beta = 0 }},
		{"negative share", func(s *ModelSet) { s.Services[0].SessionShare = -0.1 }},
		{"share above one", func(s *ModelSet) { s.Services[0].SessionShare = 1.5 }},
		{"shares sum past one", func(s *ModelSet) {
			s.Services[0].SessionShare = 0.8
			s.Services[1].SessionShare = 0.8
		}},
		{"negative peak weight", func(s *ModelSet) { s.Services[0].Volume.Peaks[0].K = -0.1 }},
		{"NaN peak mu", func(s *ModelSet) { s.Services[0].Volume.Peaks[0].Mu = math.NaN() }},
		{"negative EMD", func(s *ModelSet) { s.Services[0].VolumeEMD = -1 }},
		{"Inf max volume", func(s *ModelSet) { s.Services[0].Volume.MaxVolume = math.Inf(1) }},
		{"nil arrival", func(s *ModelSet) { s.Arrivals = append(s.Arrivals, nil) }},
		{"negative arrival mu", func(s *ModelSet) { s.Arrivals[0].PeakMu = -2 }},
		{"zero Pareto scale", func(s *ModelSet) { s.Arrivals[0].OffScale = 0 }},
		{"empty set", func(s *ModelSet) { s.Services = nil }},
		{"arrival mu past the rate bound", func(s *ModelSet) { s.Arrivals[0].PeakMu = 1e11 }},
		{"arrival sigma past the rate bound", func(s *ModelSet) { s.Arrivals[0].PeakSigma = 2 * MaxArrivalRate }},
		{"volume sigma past the spread bound", func(s *ModelSet) { s.Services[1].Volume.MainSigma = 1e300 }},
		{"peak sigma past the spread bound", func(s *ModelSet) { s.Services[0].Volume.Peaks[0].Sigma = 11 }},
		{"duration noise past the spread bound", func(s *ModelSet) { s.Services[0].DurationNoise = 1e5 }},
		{"vanishing beta", func(s *ModelSet) { s.Services[1].Duration.Beta = 1e-300 }},
		{"huge beta", func(s *ModelSet) { s.Services[1].Duration.Beta = -1e9 }},
		{"too many volume peaks", func(s *ModelSet) {
			for len(s.Services[0].Volume.Peaks) <= MaxVolumePeaks {
				s.Services[0].Volume.Peaks = append(s.Services[0].Volume.Peaks, VolumeComponent{K: 0.01, Mu: 4, Sigma: 0.1})
			}
		}},
	}
	for _, tc := range cases {
		s := validSet()
		tc.mutate(s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: not rejected", tc.name)
		}
	}
}

func TestValidateAcceptsFittedSet(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	coll, sim := buildMeasurement(t, netsim.SimConfig{Days: 1, Seed: 7}, 10)
	set, err := FitServiceModels(coll, sim.Services, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := set.Validate(); err != nil {
		t.Errorf("freshly fitted set must validate: %v", err)
	}
}

// TestValidateBoundsGeneratedMinute is the regression for an arrival
// rate that passed Validate and then made Generator.Minute allocate
// terabytes: a rate past MaxArrivalRate is rejected, and a set at the
// bounds generates a minute of bounded size.
func TestValidateBoundsGeneratedMinute(t *testing.T) {
	s := validSet()
	s.Arrivals[0].PeakMu = 1e11
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "arrival class 1") {
		t.Fatalf("PeakMu 1e11: err = %v", err)
	}
	s.Arrivals[0].PeakMu, s.Arrivals[0].PeakSigma = MaxArrivalRate, MaxArrivalRate
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	gen, err := NewGenerator(s, 3)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		out, err := gen.Minute(0, true)
		if err != nil {
			t.Fatal(err)
		}
		if len(out) > 20*MaxArrivalRate {
			t.Fatalf("one minute at the rate bound generated %d sessions", len(out))
		}
	}
}

// FuzzModelSetFromJSON drives the released-parameter surface end to
// end: parse, validate, and for an accepted set generate one daytime
// and one nighttime minute of every arrival class. An accepted set must
// never panic, allocate without bound or emit a non-finite session.
func FuzzModelSetFromJSON(f *testing.F) {
	valid, err := validSet().ToJSON()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	hostile := validSet()
	hostile.Arrivals[0].PeakMu = 1e11
	if b, err := hostile.ToJSON(); err == nil {
		f.Add(b)
	}
	f.Add([]byte(`{"services":[{"name":"x","session_share":1,"volume":{"mu":1e308,"sigma":9.9},` +
		`"duration":{"alpha":1e-300,"beta":0.001},"duration_noise":10}],` +
		`"arrivals":[{"peak_mu":10000,"peak_sigma":10000,"off_shape":1e-300,"off_scale":1e300}]}`))
	f.Add([]byte(`{"services":[]}`))
	f.Add([]byte(`not json`))
	f.Fuzz(func(t *testing.T, data []byte) {
		set, err := ModelSetFromJSON(data)
		if err != nil || set.Validate() != nil || len(set.Arrivals) > 16 {
			return
		}
		gen, err := NewGenerator(set, 1)
		if err != nil {
			return
		}
		for class := range set.Arrivals {
			for _, peak := range []bool{true, false} {
				out, err := gen.Minute(class, peak)
				if err != nil {
					t.Fatalf("class %d peak %v: %v", class, peak, err)
				}
				if len(out) > 20*MaxArrivalRate {
					t.Fatalf("class %d peak %v: %d sessions in one minute", class, peak, len(out))
				}
				for _, g := range out {
					if math.IsNaN(g.Volume) || math.IsInf(g.Volume, 0) || g.Volume < 0 ||
						math.IsNaN(g.Duration) || math.IsInf(g.Duration, 0) || g.Duration <= 0 ||
						math.IsNaN(g.Throughput) || math.IsInf(g.Throughput, 0) {
						t.Fatalf("class %d peak %v: non-finite session %+v", class, peak, g)
					}
				}
			}
		}
	})
}
