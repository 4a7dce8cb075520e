package vran

import (
	"math"
	"sort"
)

// Alternative packing heuristics and bounds. The paper's orchestrator
// is a bin-packing heuristic ([18], Johnson's near-optimal algorithms);
// first-fit decreasing is the default (Pack). Best-fit decreasing and
// the capacity lower bound let tests verify the heuristic's quality and
// let ablations quantify the orchestration policy's impact on energy.

// PackBestFit assigns DU loads to PSs with the best-fit-decreasing
// heuristic: each load goes to the active server it fills tightest.
func PackBestFit(ps PSModel, duLoads []float64) PackResult {
	return new(packer).pack(BestFitDecreasing, ps, duLoads)
}

// PackNextFit is the weakest common heuristic: loads go into the
// current server until it overflows, then a new one opens. It serves as
// a deliberately poor orchestration baseline for energy ablations.
func PackNextFit(ps PSModel, duLoads []float64) PackResult {
	return new(packer).pack(NextFit, ps, duLoads)
}

// packer holds the clamped-load and bin buffers of one packing. RunWith
// keeps one across every slot, so orchestration allocates nothing per
// slot.
type packer struct {
	loads, bins []float64
}

// pack places duLoads with heuristic h and prices the placement. The
// decreasing heuristics sort ascending and walk the loads backwards:
// the same descending order a reverse sort gives, without boxing.
func (p *packer) pack(h Heuristic, ps PSModel, duLoads []float64) PackResult {
	p.loads = appendClamped(p.loads[:0], ps, duLoads)
	p.bins = p.bins[:0]
	if h == NextFit {
		cur := -1
		for _, l := range p.loads {
			if l == 0 {
				continue
			}
			if cur < 0 || p.bins[cur]+l > ps.CapacityMbps {
				p.bins = append(p.bins, 0)
				cur = len(p.bins) - 1
			}
			p.bins[cur] += l
		}
	} else {
		sort.Float64s(p.loads)
		for k := len(p.loads) - 1; k >= 0; k-- {
			if l := p.loads[k]; l != 0 {
				p.place(h, ps, l)
			}
		}
	}
	res := PackResult{ActivePS: len(p.bins)}
	for _, b := range p.bins {
		res.PowerWatts += ps.Power(b)
	}
	return res
}

// place puts one load into the bin it leaves least slack in (best fit)
// or else the first bin it fits (first fit), opening a new bin if none
// fits.
func (p *packer) place(h Heuristic, ps PSModel, l float64) {
	best, bestSlack := -1, math.Inf(1)
	for i, b := range p.bins {
		if h != BestFitDecreasing {
			if b+l <= ps.CapacityMbps {
				best = i
				break
			}
		} else if slack := ps.CapacityMbps - b - l; slack >= 0 && slack < bestSlack {
			best, bestSlack = i, slack
		}
	}
	if best < 0 {
		p.bins = append(p.bins, l)
	} else {
		p.bins[best] += l
	}
}

// LowerBoundPS returns a valid minimum number of active servers for
// the given loads: the larger of the size bound ceil(total load /
// capacity) and the count of loads above half capacity (no two of
// those ever share a server). The second term is what makes Johnson's
// FFD guarantee testable against this bound: with the size bound
// alone, instances made of loads just above capacity/2 drive OPT — and
// FFD — arbitrarily far past it.
func LowerBoundPS(ps PSModel, duLoads []float64) int {
	loads := appendClamped(nil, ps, duLoads)
	var total float64
	var big int
	for _, l := range loads {
		total += l
		if l > ps.CapacityMbps/2 {
			big++
		}
	}
	if total == 0 {
		return 0
	}
	n := int(math.Ceil(total/ps.CapacityMbps - 1e-9))
	if big > n {
		return big
	}
	return n
}

// LowerBoundPower returns the minimum possible power for the loads: the
// lower-bound server count at balanced load.
func LowerBoundPower(ps PSModel, duLoads []float64) float64 {
	n := LowerBoundPS(ps, duLoads)
	if n == 0 {
		return 0
	}
	loads := appendClamped(nil, ps, duLoads)
	var total float64
	for _, l := range loads {
		total += l
	}
	return float64(n)*ps.IdleWatts + total/ps.CapacityMbps*(ps.MaxWatts-ps.IdleWatts)
}

// appendClamped appends the loads to dst, each clamped to [0, capacity].
func appendClamped(dst []float64, ps PSModel, duLoads []float64) []float64 {
	for _, l := range duLoads {
		if l < 0 {
			l = 0
		}
		if l > ps.CapacityMbps {
			l = ps.CapacityMbps
		}
		dst = append(dst, l)
	}
	return dst
}

// Heuristic selects a packing policy for Run.
type Heuristic int

// Packing policies.
const (
	FirstFitDecreasing Heuristic = iota
	BestFitDecreasing
	NextFit
)

// String implements fmt.Stringer.
func (h Heuristic) String() string {
	switch h {
	case FirstFitDecreasing:
		return "first-fit-decreasing"
	case BestFitDecreasing:
		return "best-fit-decreasing"
	default:
		return "next-fit"
	}
}

// PackWith dispatches to the selected heuristic.
func PackWith(h Heuristic, ps PSModel, duLoads []float64) PackResult {
	return new(packer).pack(h, ps, duLoads)
}

// RunWith executes the per-slot orchestration with the chosen
// heuristic. One gather buffer and one packer serve every slot.
func RunWith(h Heuristic, ps PSModel, series *ThroughputSeries) (*RunResult, error) {
	if series == nil {
		return nil, errNilSeries
	}
	out := &RunResult{
		ActivePS: make([]float64, series.Slots),
		PowerW:   make([]float64, series.Slots),
	}
	loads := make([]float64, series.DUs)
	// Each load opens at most one bin, so neither buffer grows.
	p := packer{loads: make([]float64, 0, series.DUs), bins: make([]float64, 0, series.DUs)}
	for ts := 0; ts < series.Slots; ts++ {
		for du, row := range series.Series {
			loads[du] = row[ts]
		}
		res := p.pack(h, ps, loads)
		out.ActivePS[ts] = float64(res.ActivePS)
		out.PowerW[ts] = res.PowerWatts
	}
	return out, nil
}
