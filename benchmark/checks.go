package main

import (
	"bytes"
	"fmt"
	"math"

	"mobiletraffic/internal/campaign"
	"mobiletraffic/internal/experiments"
)

// The checks catch output that is fast but wrong. Each holds for any
// correct realization of the program's random streams, so a change
// that alters a realization without breaking the model does not trip
// them; matching the paper's headline shapes is the job of the
// program's own tests.

// sigmaRatioLo and sigmaRatioHi bound every decile's arrival sigma/mu,
// as TestExpFig3Shape in internal/experiments does.
const sigmaRatioLo, sigmaRatioHi = 0.02, 0.4

func checkCharacterize(env *experiments.Env, fresh, resumed *campaign.Report, freshJSON, resumedJSON []byte) []check {
	shards := check{Name: "no failed shards", OK: !fresh.Degraded() && !resumed.Degraded(),
		Detail: fresh.Summary() + " / " + resumed.Summary()}
	skipped := check{Name: "no skipped services",
		OK:     len(env.Models.Services) == len(env.Catalog),
		Detail: fmt.Sprintf("%d of %d services modeled", len(env.Models.Services), len(env.Catalog))}
	valid := check{Name: "ModelSet.Validate passes", OK: true}
	if err := env.Models.Validate(); err != nil {
		valid.OK, valid.Detail = false, err.Error()
	}
	identical := check{Name: "resumed models JSON byte-identical to fresh", OK: bytes.Equal(freshJSON, resumedJSON)}

	beta := check{Name: "Netflix beta > 1 and Waze beta < 1"}
	nf, errNF := env.Models.ByName("Netflix")
	wz, errWZ := env.Models.ByName("Waze")
	if errNF == nil && errWZ == nil {
		beta.OK = nf.Duration.Beta > 1 && wz.Duration.Beta < 1
		beta.Detail = fmt.Sprintf("Netflix %.4f, Waze %.4f", nf.Duration.Beta, wz.Duration.Beta)
	} else {
		beta.Detail = fmt.Sprintf("missing model: %v %v", errNF, errWZ)
	}

	sigma := check{Name: "every decile sigma/mu in [0.02, 0.4]", OK: len(env.Arrivals) == 10}
	for d, m := range env.Arrivals {
		if r := m.SigmaRatio(); !(r >= sigmaRatioLo && r <= sigmaRatioHi) {
			sigma.OK = false
			sigma.Detail += fmt.Sprintf("decile %d: %.4f; ", d+1, r)
		}
	}
	return []check{shards, skipped, valid, identical, beta, sigma}
}

// checkSlicing checks a Table 2 result: three strategies, each over
// wantSlices = antennas x modeled services slices, with every
// satisfaction value a fraction.
func checkSlicing(res *experiments.Table2Result, wantSlices int) []check {
	shape := check{Name: "3 strategies with antennas x modeled services slices", OK: len(res.Strategies) == 3}
	bounds := check{Name: "every satisfaction value in [0, 1]", OK: true}
	in01 := func(x float64) bool { return x >= 0 && x <= 1 }
	for _, s := range res.Strategies {
		if s.Slices != wantSlices {
			shape.OK = false
			shape.Detail += fmt.Sprintf("%s: %d slices, want %d; ", s.Name, s.Slices, wantSlices)
		}
		if !in01(s.MeanSatisfied) || !in01(s.StdSatisfied) || s.SLAMet < 0 || s.SLAMet > s.Slices {
			bounds.OK = false
			bounds.Detail += fmt.Sprintf("%s: mean %v std %v met %d/%d; ", s.Name, s.MeanSatisfied, s.StdSatisfied, s.SLAMet, s.Slices)
		}
	}
	return []check{shape, bounds}
}

// checkVRAN checks a Fig. 13 result: four strategies with finite APE
// summaries, the session-level model first by median power APE.
func checkVRAN(res *experiments.Fig13Result) []check {
	finite := check{Name: "4 strategies with finite APEs", OK: len(res.Strategies) == 4}
	for _, s := range res.Strategies {
		for _, a := range []float64{s.ActiveAPE.P5, s.ActiveAPE.Q1, s.ActiveAPE.Median, s.ActiveAPE.Q3, s.ActiveAPE.P95,
			s.PowerAPE.P5, s.PowerAPE.Q1, s.PowerAPE.Median, s.PowerAPE.Q3, s.PowerAPE.P95} {
			if math.IsNaN(a) || math.IsInf(a, 0) {
				finite.OK = false
				finite.Detail += s.Name + " has a non-finite APE; "
				break
			}
		}
	}
	lowest := check{Name: "session-level model has the lowest median power APE"}
	for i, s := range res.Strategies {
		lowest.Detail += fmt.Sprintf("%s %.3f; ", s.Name, s.PowerAPE.Median)
		if i == 0 {
			lowest.OK = s.Name == "session-level models"
			continue
		}
		if !(res.Strategies[0].PowerAPE.Median < s.PowerAPE.Median) {
			lowest.OK = false
		}
	}
	return []check{finite, lowest}
}

// finite maps a non-finite float to its string form, so a result
// record always marshals to JSON.
func finite(x float64) any {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return fmt.Sprint(x)
	}
	return x
}
