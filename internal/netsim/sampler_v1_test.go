package netsim

import (
	"math"
	"math/rand"

	"mobiletraffic/internal/services"
)

// generateDayV1 is the retired v1 sampling engine, kept as the test
// oracle the v2 stream is compared against: a math/rand stream per
// (BS, day) from BSDayRNG, drawing arrival count, service, volume,
// duration, mobility and start second session by session. It is pinned
// byte for byte by TestSamplerV1GoldenStream and is the reference of
// the KS/chi-square suite TestSamplerV2StatEquivalence. The simulator
// supplies the per-BS jittered shares and the phase table, which the
// v1 stream read exactly as the v2 stream does.
func generateDayV1(s *Simulator, bsIdx, day int, yield func(Session)) error {
	bs := &s.Topo.BSs[bsIdx]
	rng := BSDayRNG(s.Config.Seed, bsIdx, day)
	probs := s.bsProbs[bsIdx]
	weekendScale := 1.0
	if IsWeekend(day) {
		weekendScale = s.Config.Weekend
	}
	for minute := 0; minute < MinutesPerDay; minute++ {
		n := arrivalCountV1(bs, s.phase[minute], rng)
		if n == 0 {
			continue
		}
		if weekendScale != 1 {
			n = int(math.Round(float64(n) * weekendScale))
		}
		for k := 0; k < n; k++ {
			svc := services.PickService(probs, rng)
			prof := &s.Services[svc]
			volume := prof.SampleVolume(rng)
			duration := prof.SampleDuration(volume, rng)
			truncated := false
			if rng.Float64() < s.Config.MoveProb {
				dwell := rng.ExpFloat64() * s.Config.MeanDwell
				if dwell < 1 {
					dwell = 1
				}
				if dwell < duration {
					volume *= dwell / duration
					duration = dwell
					truncated = true
				}
			}
			yield(Session{
				BS:        bsIdx,
				Service:   svc,
				Day:       day,
				Minute:    minute,
				Start:     float64(minute)*60 + rng.Float64()*60,
				Duration:  duration,
				Volume:    volume,
				Truncated: truncated,
			})
		}
	}
	return nil
}

// arrivalCountV1 is arrivalCount on the v1 math/rand stream: the same
// bi-modal mixture and clamps, drawn in the v1 order.
func arrivalCountV1(bs *BS, w float64, rng *rand.Rand) int {
	var rate float64
	if rng.Float64() < w {
		rate = bs.PeakRate + bs.PeakRate/10*rng.NormFloat64()
	} else {
		rate = bs.OffPeakScale * math.Pow(1-rng.Float64(), offPeakExp)
		if clamp := bs.PeakRate * 0.5; rate > clamp {
			rate = clamp
		}
	}
	if rate <= 0 {
		return 0
	}
	n := int(math.Round(rate))
	if n < 0 {
		return 0
	}
	return n
}
