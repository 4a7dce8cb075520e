// Package slicing implements the network-slicing capacity allocation
// use case of paper §6.1: an operator signs an SLA with one service
// provider per modeled service, reserves per-slice capacity at each
// antenna, and meets the SLA when all of the slice's traffic is served
// at least 95% of the time. Capacity is dimensioned from a traffic
// model — the paper's session-level models or the category-level
// literature benchmarks bm_a/bm_b — and evaluated against
// measurement-driven demand.
package slicing

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"mobiletraffic/internal/mathx"
)

// SessionSpec is the slice-relevant view of one session: which service
// it belongs to, when it starts (seconds from trace origin), how long
// it lasts and how much traffic it carries.
type SessionSpec struct {
	Service  int
	Start    float64 // seconds
	Duration float64 // seconds
	Volume   float64 // bytes
}

// DemandTrace is the per-service, per-minute traffic demand at one
// antenna in bytes per minute.
type DemandTrace struct {
	NumServices int
	Minutes     int
	// Demand[s][m] is the bytes of service s transferred in minute m.
	Demand [][]float64
}

// NewDemandTrace allocates an empty trace.
func NewDemandTrace(numServices, minutes int) (*DemandTrace, error) {
	if numServices <= 0 || minutes <= 0 {
		return nil, fmt.Errorf("slicing: invalid trace shape %dx%d", numServices, minutes)
	}
	d := &DemandTrace{NumServices: numServices, Minutes: minutes}
	d.Demand = make([][]float64, numServices)
	for s := range d.Demand {
		d.Demand[s] = make([]float64, minutes)
	}
	return d, nil
}

// AddSession spreads the session's volume uniformly over its lifetime
// across the minutes it overlaps, clamping to the trace horizon.
func (d *DemandTrace) AddSession(s SessionSpec) error {
	if s.Service < 0 || s.Service >= d.NumServices {
		return fmt.Errorf("slicing: service %d out of range [0, %d)", s.Service, d.NumServices)
	}
	_, err := SpreadMinutes(d.Demand[s.Service], d.Minutes, s.Start, s.Duration, s.Volume)
	return err
}

// SpreadMinutes is the minute-grid rasterizer. It adds a session's
// volume, spread at volume/duration bytes per second over [start,
// start+duration) seconds, to row, whose column m holds minute m. The
// parts of the session before time 0 and past horizon minutes are
// dropped. row grows with zeros up to the last column the session
// touches, and is returned as append returns its slice. A session with
// a non-finite start or a duration or volume that is not positive and
// finite is an error and leaves row unchanged.
//
// The session splits into a partial head minute, a run of full minutes
// and a partial tail minute. A full minute takes rate*60, which is what
// a per-minute overlap evaluation gives there bit for bit (the overlap
// is exactly 60 s), so the result equals that evaluation exactly.
func SpreadMinutes(row []float64, horizon int, start, duration, volume float64) ([]float64, error) {
	if math.IsNaN(start) || math.IsInf(start, 0) ||
		!(duration > 0) || math.IsInf(duration, 0) || !(volume > 0) || math.IsInf(volume, 0) {
		return row, fmt.Errorf("slicing: session needs finite start and positive finite duration and volume, got %v/%v/%v",
			start, duration, volume)
	}
	if start >= float64(horizon)*60 {
		return row, nil
	}
	rate := volume / duration // bytes per second
	end := start + duration
	// int(x/60) is floor(x/60) for x >= 0: the nearest float below a
	// multiple of 60 is too far below it for x/60 to round up onto it.
	m := int(math.Max(start, 0) / 60)
	head, headEnd := math.Max(start, float64(m)*60), math.Min(end, float64(m+1)*60)
	if headEnd <= head {
		return row, nil
	}
	// tail is the first minute after the head that end does not cover
	// fully; minutes m+1 .. tail-1 are full.
	tail := horizon
	if end < float64(horizon)*60 {
		tail = max(int(end/60), m+1)
	}
	n := tail
	if tail < horizon && end > float64(tail)*60 {
		n = tail + 1
	}
	if n > len(row) {
		old := len(row)
		row = slices.Grow(row, n-old)[:n]
		clear(row[old:])
	}
	row[m] += rate * (headEnd - head)
	for k := m + 1; k < tail; k++ {
		row[k] += rate * 60
	}
	if n > tail {
		row[tail] += rate * (end - float64(tail)*60)
	}
	return row, nil
}

// Total returns the summed demand over all services per minute.
func (d *DemandTrace) Total() []float64 {
	out := make([]float64, d.Minutes)
	for _, row := range d.Demand {
		for m, v := range row {
			out[m] += v
		}
	}
	return out
}

// Allocation is the per-service reserved capacity in bytes per minute.
type Allocation []float64

// AllocatePercentile reserves, for every service, the given percentile
// (e.g. 0.95) of its per-minute demand in the reference trace —
// the paper's model-driven allocation rule. minuteFilter optionally
// restricts which minutes inform the percentile (e.g. peak hours only).
func AllocatePercentile(ref *DemandTrace, pct float64, minuteFilter func(int) bool) (Allocation, error) {
	if ref == nil {
		return nil, errors.New("slicing: nil reference trace")
	}
	if pct <= 0 || pct >= 1 {
		return nil, fmt.Errorf("slicing: percentile %v outside (0, 1)", pct)
	}
	alloc := make(Allocation, ref.NumServices)
	// One sample buffer reused across services: the filtered minute set
	// has the same size for every service, so a single allocation
	// (sorted in place per service) serves the whole pass instead of an
	// append-grown slice plus a Quantile-internal copy per service.
	samples := make([]float64, 0, ref.Minutes)
	for s := 0; s < ref.NumServices; s++ {
		samples = samples[:0]
		for m, v := range ref.Demand[s] {
			if minuteFilter != nil && !minuteFilter(m) {
				continue
			}
			samples = append(samples, v)
		}
		if len(samples) == 0 {
			return nil, fmt.Errorf("slicing: no minutes selected for service %d", s)
		}
		sort.Float64s(samples)
		alloc[s] = mathx.QuantileSorted(samples, pct)
	}
	return alloc, nil
}

// AllocateCategoryUniform implements the benchmark allocation of §6.1:
// per-category capacity is the percentile of the category's aggregate
// demand in the reference category trace, then split uniformly across
// the services mapped to that category (no intra-category information
// is available to the literature models).
//
// catRef must have one row per category; membership maps each service
// to its category row.
func AllocateCategoryUniform(catRef *DemandTrace, membership []int, pct float64, minuteFilter func(int) bool) (Allocation, error) {
	if catRef == nil {
		return nil, errors.New("slicing: nil category trace")
	}
	catAlloc, err := AllocatePercentile(catRef, pct, minuteFilter)
	if err != nil {
		return nil, err
	}
	counts := make([]int, catRef.NumServices)
	for _, c := range membership {
		if c < 0 || c >= catRef.NumServices {
			return nil, fmt.Errorf("slicing: category %d out of range [0, %d)", c, catRef.NumServices)
		}
		counts[c]++
	}
	alloc := make(Allocation, len(membership))
	for s, c := range membership {
		if counts[c] == 0 {
			continue
		}
		alloc[s] = catAlloc[c] / float64(counts[c])
	}
	return alloc, nil
}

// SLAResult reports SLA satisfaction for one (service, antenna) slice.
type SLAResult struct {
	Service int
	// Satisfied is the fraction of evaluated minutes in which the
	// allocated capacity covered all demand ("time with no dropped
	// traffic", Table 2).
	Satisfied float64
	// DroppedBytes is the total demand exceeding capacity.
	DroppedBytes float64
}

// Evaluate checks the allocation against real demand: for every service
// it returns the fraction of (filtered) minutes fully served and the
// dropped volume.
func Evaluate(real *DemandTrace, alloc Allocation, minuteFilter func(int) bool) ([]SLAResult, error) {
	if real == nil {
		return nil, errors.New("slicing: nil demand trace")
	}
	if len(alloc) != real.NumServices {
		return nil, fmt.Errorf("slicing: allocation for %d services, trace has %d",
			len(alloc), real.NumServices)
	}
	out := make([]SLAResult, real.NumServices)
	for s := 0; s < real.NumServices; s++ {
		res := SLAResult{Service: s}
		var evaluated, ok int
		for m, v := range real.Demand[s] {
			if minuteFilter != nil && !minuteFilter(m) {
				continue
			}
			evaluated++
			if v <= alloc[s] {
				ok++
			} else {
				res.DroppedBytes += v - alloc[s]
			}
		}
		if evaluated > 0 {
			res.Satisfied = float64(ok) / float64(evaluated)
		}
		out[s] = res
	}
	return out, nil
}

// Summary condenses SLA results across services and antennas: the mean
// and standard deviation of the satisfaction fraction, and how many
// slices meet the 95% SLA bar — the Table 2 columns.
type Summary struct {
	MeanSatisfied float64
	StdSatisfied  float64
	SLAMetCount   int
	SliceCount    int
}

// Summarize aggregates results (possibly from several antennas),
// ignoring slices that saw no demand at all.
func Summarize(results []SLAResult, slaBar float64) Summary {
	var vals []float64
	met := 0
	for _, r := range results {
		vals = append(vals, r.Satisfied)
		if r.Satisfied >= slaBar {
			met++
		}
	}
	return Summary{
		MeanSatisfied: mathx.Mean(vals),
		StdSatisfied:  mathx.Std(vals),
		SLAMetCount:   met,
		SliceCount:    len(vals),
	}
}

// PeakMinutes returns a minute filter keeping the §6.1 SLA window:
// everything except nighttime 22:00-08:00, repeating daily.
func PeakMinutes() func(int) bool {
	return func(m int) bool {
		mod := m % (24 * 60)
		return mod >= 8*60 && mod < 22*60
	}
}
