package mobiletraffic

import (
	"bytes"
	"math"
	"math/rand"
	"testing"

	"mobiletraffic/internal/core"
	"mobiletraffic/internal/faults"
	"mobiletraffic/internal/netsim"
	"mobiletraffic/internal/probe"
)

func TestFitFromSimulationAndGenerate(t *testing.T) {
	set, err := FitFromSimulation(SimulationConfig{NumBS: 12, Days: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Services) < 15 {
		t.Fatalf("modeled %d services", len(set.Services))
	}
	if len(set.Arrivals) != 10 {
		t.Fatalf("arrival classes = %d", len(set.Arrivals))
	}
	g, err := NewGenerator(set, 1)
	if err != nil {
		t.Fatal(err)
	}
	sessions, err := g.Minute(9, true)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range sessions {
		if s.Volume <= 0 || s.Duration < 1 || s.Throughput <= 0 {
			t.Fatalf("invalid generated session %+v", s)
		}
	}
}

func TestSaveLoadModelsRoundTrip(t *testing.T) {
	set, err := FitFromSimulation(SimulationConfig{NumBS: 12, Days: 1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := SaveModels(set, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := LoadModels(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Services) != len(set.Services) {
		t.Fatalf("round trip lost services: %d vs %d", len(back.Services), len(set.Services))
	}
	fb, err := back.ByName("Facebook")
	if err != nil {
		t.Fatal(err)
	}
	orig, _ := set.ByName("Facebook")
	if fb.Volume.MainMu != orig.Volume.MainMu || fb.Duration.Beta != orig.Duration.Beta {
		t.Error("round-tripped parameters differ")
	}
	if _, err := ParseModels([]byte("nope")); err == nil {
		t.Error("malformed input must error")
	}
}

func TestServicesCatalog(t *testing.T) {
	all := Services()
	if len(all) != 31 {
		t.Fatalf("catalog = %d services", len(all))
	}
	if all[0].Name != "Facebook" {
		t.Errorf("top service = %s", all[0].Name)
	}
}

func TestFitFromObservations(t *testing.T) {
	// Synthesize sessions of two artificial services with known
	// behaviour and check the fitted models recover it.
	rng := rand.New(rand.NewSource(7))
	var obs []SessionObservation
	for i := 0; i < 4000; i++ {
		// "heavy": log-normal volume around 10^7, beta = 1.4.
		vol := math.Pow(10, 7+0.5*rng.NormFloat64())
		dur := math.Pow(vol/3000, 1/1.4) * math.Pow(10, 0.1*rng.NormFloat64())
		obs = append(obs, SessionObservation{
			Service: "heavy", BS: i % 4, Day: i % 2, Minute: i % 1440,
			Volume: vol, Duration: math.Max(dur, 1),
		})
		// "light": volume around 10^5, beta = 0.5.
		vol = math.Pow(10, 5+0.4*rng.NormFloat64())
		dur = math.Pow(vol/2000, 1/0.5) * math.Pow(10, 0.1*rng.NormFloat64())
		obs = append(obs, SessionObservation{
			Service: "light", BS: i % 4, Day: i % 2, Minute: (i * 7) % 1440,
			Volume: vol, Duration: math.Max(dur, 1),
		})
	}
	set, err := FitFromObservations(obs, 0)
	if err != nil {
		t.Fatal(err)
	}
	heavy, err := set.ByName("heavy")
	if err != nil {
		t.Fatal(err)
	}
	light, err := set.ByName("light")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(heavy.Volume.MainMu-7) > 0.2 {
		t.Errorf("heavy mu = %v, want ~7", heavy.Volume.MainMu)
	}
	if math.Abs(heavy.Duration.Beta-1.4) > 0.15 {
		t.Errorf("heavy beta = %v, want ~1.4", heavy.Duration.Beta)
	}
	if math.Abs(light.Duration.Beta-0.5) > 0.1 {
		t.Errorf("light beta = %v, want ~0.5", light.Duration.Beta)
	}
	// Session shares ~50/50.
	if math.Abs(heavy.SessionShare-0.5) > 0.01 {
		t.Errorf("heavy share = %v", heavy.SessionShare)
	}
}

func TestFitFromObservationsValidation(t *testing.T) {
	if _, err := FitFromObservations(nil, 0); err == nil {
		t.Error("empty observations must error")
	}
	bad := []SessionObservation{{Service: "x", Minute: -1, Volume: 1, Duration: 1}}
	if _, err := FitFromObservations(bad, 0); err == nil {
		t.Error("invalid minute must error")
	}
	bad[0] = SessionObservation{Service: "x", Minute: 0, Volume: 0, Duration: 1}
	if _, err := FitFromObservations(bad, 0); err == nil {
		t.Error("zero volume must error")
	}
}

func TestFitFromSimulationFaulty(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	set, report, err := FitFromSimulationFaulty(
		SimulationConfig{NumBS: 12, Days: 3, Seed: 3},
		FaultConfig{
			OutageProb: 0.2, TruncatedDayProb: 0.1, FlowLossProb: 0.05,
			FlowDupProb: 0.02, SignalGapProb: 0.03, MisclassProb: 0.02, Seed: 9,
		})
	if err != nil {
		t.Fatal(err)
	}
	if len(set.Services) == 0 {
		t.Fatal("no services fitted under acceptance faults")
	}
	if report == nil || report.Fitted == 0 {
		t.Fatalf("report = %+v", report)
	}
	if err := set.Validate(); err != nil {
		t.Errorf("fault-fitted set must still validate: %v", err)
	}
	// A pristine fault config must reproduce FitFromSimulation exactly.
	clean, cleanReport, err := FitFromSimulationFaulty(SimulationConfig{NumBS: 12, Days: 3, Seed: 3}, FaultConfig{})
	if err != nil {
		t.Fatal(err)
	}
	direct, err := FitFromSimulation(SimulationConfig{NumBS: 12, Days: 3, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(clean.Services) != len(direct.Services) {
		t.Fatalf("zero-fault fit modeled %d services, direct fit %d", len(clean.Services), len(direct.Services))
	}
	for i := range clean.Services {
		a, b := clean.Services[i], direct.Services[i]
		if a.Name != b.Name || a.Volume.MainMu != b.Volume.MainMu || a.Duration.Beta != b.Duration.Beta {
			t.Fatalf("zero-fault fit differs from direct fit at %s", a.Name)
		}
	}
	if cleanReport.Degraded() {
		t.Errorf("pristine campaign reported degradation: %s", cleanReport.Summary())
	}
}

// serialFitOracle is the reference for FitFromSimulationFaulty: the
// campaign generated session by session with GenerateDay (days
// outermost), routed through the serial fault wrapper into the scalar
// Observe path, then fitted exactly as the facade fits.
func serialFitOracle(t *testing.T, cfg SimulationConfig, f FaultConfig) *ModelSet {
	t.Helper()
	topo, err := netsim.NewTopology(netsim.TopologyConfig{NumBS: cfg.NumBS, Seed: cfg.Seed})
	if err != nil {
		t.Fatal(err)
	}
	sim, err := netsim.NewSimulator(topo, netsim.SimConfig{Days: cfg.Days, Seed: cfg.Seed, MoveProb: cfg.MoveProb})
	if err != nil {
		t.Fatal(err)
	}
	inj, err := faults.New(f, len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	coll, err := probe.NewCollector(len(sim.Services))
	if err != nil {
		t.Fatal(err)
	}
	var obsErr error
	yield := inj.Wrap(func(s netsim.Session) {
		if obsErr == nil {
			obsErr = coll.Observe(s)
		}
	})
	for day := 0; day < cfg.Days; day++ {
		for bs := range topo.BSs {
			if err := sim.GenerateDay(bs, day, yield); err != nil {
				t.Fatal(err)
			}
		}
	}
	if obsErr != nil {
		t.Fatal(obsErr)
	}
	set, _, err := core.FitServiceModelsReport(coll, sim.Services, nil)
	if err != nil {
		t.Fatal(err)
	}
	set.Arrivals, _, err = core.FitArrivalsByDecileReport(coll, topo)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// TestFitFromSimulationFaultyMatchesSerialOracle pins the facade's
// fitted models, byte for byte as JSON, to the serial session-by-
// session oracle at two seeds, on a pristine and a fault-injected
// campaign.
func TestFitFromSimulationFaultyMatchesSerialOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation-heavy")
	}
	faulty := FaultConfig{
		OutageProb: 0.2, TruncatedDayProb: 0.1, FlowLossProb: 0.05,
		FlowDupProb: 0.02, SignalGapProb: 0.03, MisclassProb: 0.02, Seed: 9,
	}
	for _, seed := range []int64{1, 2} {
		for _, f := range []FaultConfig{{}, faulty} {
			cfg := SimulationConfig{NumBS: 12, Days: 2, Seed: seed}
			got, _, err := FitFromSimulationFaulty(cfg, f)
			if err != nil {
				t.Fatal(err)
			}
			gotJSON, err := got.ToJSON()
			if err != nil {
				t.Fatal(err)
			}
			wantJSON, err := serialFitOracle(t, cfg, f).ToJSON()
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotJSON, wantJSON) {
				t.Errorf("seed %d, faults %+v: facade models differ from the serial oracle", seed, f)
			}
		}
	}
}
