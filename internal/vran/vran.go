// Package vran implements the CU-DU energy consumption use case of
// paper §6.2: a virtualized RAN where Centralized Units run on physical
// servers (PS) at a Telco Cloud Site, serving Distributed Units at far
// edge sites, each aggregating a group of Radio Units. PS energy
// follows the linear load model of the paper's IBM-server reference
// (60 W idle, 200 W at the 100 Mbps full load), and a first-fit
// bin-packing heuristic re-associates DUs to PSs every one-second time
// slot to minimize active servers. The package also provides the
// absolute-percentage-error metrics of Fig. 13b.
package vran

import (
	"errors"
	"fmt"
	"math"

	"mobiletraffic/internal/mathx"
)

// PSModel describes one physical server class (§6.2.1).
type PSModel struct {
	// CapacityMbps is the maximum summed throughput one PS can serve.
	CapacityMbps float64
	// IdleWatts is the power drawn by an active but idle PS.
	IdleWatts float64
	// MaxWatts is the power at 100% load; consumption interpolates
	// linearly in between.
	MaxWatts float64
}

// DefaultPS returns the paper's server: 100 Mbps capacity, 60 W idle,
// 200 W at full load.
func DefaultPS() PSModel {
	return PSModel{CapacityMbps: 100, IdleWatts: 60, MaxWatts: 200}
}

// Power returns the consumption of one PS serving the given load in
// Mbps (clamped to capacity).
func (p PSModel) Power(loadMbps float64) float64 {
	if loadMbps <= 0 {
		return p.IdleWatts
	}
	frac := math.Min(loadMbps/p.CapacityMbps, 1)
	return p.IdleWatts + frac*(p.MaxWatts-p.IdleWatts)
}

// PackResult is the outcome of one time slot's orchestration.
type PackResult struct {
	ActivePS int
	// PowerWatts is the total consumption of the active servers.
	PowerWatts float64
}

// Pack assigns the per-DU loads (Mbps) to the minimum number of PSs the
// first-fit-decreasing heuristic finds, then prices the placement with
// the linear power model. DU loads above a single PS capacity are
// clamped to capacity (the DU saturates its server).
func Pack(ps PSModel, duLoads []float64) PackResult {
	return new(packer).pack(FirstFitDecreasing, ps, duLoads)
}

// ThroughputSeries holds per-DU served throughput in Mbps at one-second
// time slots: Series[du][ts].
type ThroughputSeries struct {
	DUs   int
	Slots int
	// Series[du][ts] is the aggregate throughput (Mbps) DU du serves
	// during time slot ts.
	Series [][]float64

	// step and live are AddSessions' scratch rows, all zero between
	// calls: the signed throughput and the count of full-slot runs that
	// start (+) or end (-) at each slot.
	step []float64
	live []int32
}

// NewThroughputSeries allocates an all-zero series.
func NewThroughputSeries(dus, slots int) (*ThroughputSeries, error) {
	if dus <= 0 || slots <= 0 {
		return nil, fmt.Errorf("vran: invalid series shape %dx%d", dus, slots)
	}
	s := &ThroughputSeries{DUs: dus, Slots: slots, Series: make([][]float64, dus)}
	for i := range s.Series {
		s.Series[i] = make([]float64, slots)
	}
	return s, nil
}

// maxMbps bounds one session's throughput: far above any radio link,
// and low enough that the running sum of any batch stays finite.
const maxMbps = 1e200

// AddSession adds a session served by the DU: constant throughput
// volume/duration (bytes/s, converted to Mbps) over [start, start+dur),
// clamped to the horizon. It is AddSessions with one session.
func (s *ThroughputSeries) AddSession(du int, start, duration, volumeBytes float64) error {
	return s.AddSessions(du, []float64{start}, []float64{duration}, []float64{volumeBytes})
}

// AddSessions adds a batch of sessions served by the DU, one per index
// of the equal-length start, duration and volume (bytes) columns. Each
// session is validated first, so an error leaves the series unchanged.
//
// Every session splits into a partial head slot, a run of full slots
// and a partial tail slot. Head and tail are added directly, exactly as
// a per-slot evaluation would. A full slot carries the session's whole
// Mbps, so each run is only marked in the scratch rows: +Mbps and one
// more live run at its first slot, -Mbps and one fewer just past its
// last. One prefix sum over the slots the batch touched then adds every
// run, for O(sessions + slots) work instead of O(sessions x slots).
// Where no run is live the sum restarts at exactly 0, so slots no
// session covers stay exactly as they were. A single session's result
// is bit-identical to the per-slot evaluation; in a batch the order of
// additions changes, and with it the last bits.
func (s *ThroughputSeries) AddSessions(du int, start, duration, volume []float64) error {
	if du < 0 || du >= s.DUs {
		return fmt.Errorf("vran: DU %d out of range [0, %d)", du, s.DUs)
	}
	if len(duration) != len(start) || len(volume) != len(start) {
		return fmt.Errorf("vran: session columns of unequal length %d/%d/%d", len(start), len(duration), len(volume))
	}
	for i := range start {
		if math.IsNaN(start[i]) || math.IsInf(start[i], 0) ||
			!(duration[i] > 0) || math.IsInf(duration[i], 0) || !(volume[i] > 0) || math.IsInf(volume[i], 0) {
			return fmt.Errorf("vran: session %d needs finite start and positive finite duration/volume, got %v/%v/%v",
				i, start[i], duration[i], volume[i])
		}
		if mbps := volume[i] / duration[i] * 8 / 1e6; !(mbps > 0 && mbps <= maxMbps) {
			return fmt.Errorf("vran: session %d throughput %v Mbps outside (0, %g]", i, mbps, maxMbps)
		}
	}
	if s.step == nil {
		s.step = make([]float64, s.Slots+1)
		s.live = make([]int32, s.Slots+1)
	}
	row := s.Series[du]
	horizon := float64(s.Slots)
	lo, hi := s.Slots, 0 // scratch slots this batch marked
	for i, st := range start {
		if st >= horizon {
			continue
		}
		mbps := volume[i] / duration[i] * 8 / 1e6
		end := st + duration[i]
		t := int(math.Max(st, 0))
		if st > float64(t) { // partial head slot
			row[t] += mbps * (math.Min(end, float64(t+1)) - st)
			t++
		}
		full := s.Slots // one past the last full slot
		if end < horizon {
			full = max(int(math.Max(end, 0)), t)
		}
		if full > t {
			s.step[t] += mbps
			s.live[t]++
			s.step[full] -= mbps
			s.live[full]--
			lo, hi = min(lo, t), max(hi, full)
		}
		if full < s.Slots && end > float64(full) {
			row[full] += mbps * (end - float64(full))
		}
	}
	if lo >= hi {
		return nil
	}
	var run float64
	var live int32
	for t := lo; t < hi; t++ {
		run += s.step[t]
		live += s.live[t]
		if live == 0 {
			run = 0
			continue
		}
		row[t] += run
	}
	clear(s.step[lo : hi+1])
	clear(s.live[lo : hi+1])
	return nil
}

// RunResult is the orchestration outcome over a whole series.
type RunResult struct {
	ActivePS []float64 // per time slot
	PowerW   []float64 // per time slot
}

// MeanPower returns the time-averaged power consumption.
func (r *RunResult) MeanPower() float64 { return mathx.Mean(r.PowerW) }

// MeanActive returns the time-averaged number of active servers.
func (r *RunResult) MeanActive() float64 { return mathx.Mean(r.ActivePS) }

// Run executes the per-slot first-fit-decreasing orchestration over
// the series.
func Run(ps PSModel, series *ThroughputSeries) (*RunResult, error) {
	return RunWith(FirstFitDecreasing, ps, series)
}

// errNilSeries is shared by Run and RunWith.
var errNilSeries = errors.New("vran: nil series")

// APESeries returns the per-slot absolute percentage error of got
// versus want, skipping slots where the reference is zero — the
// Fig. 13b metric distributions.
func APESeries(got, want []float64) ([]float64, error) {
	if len(got) != len(want) || len(got) == 0 {
		return nil, fmt.Errorf("vran: APE needs matching non-empty series, got %d/%d", len(got), len(want))
	}
	var out []float64
	for i := range got {
		if want[i] == 0 {
			continue
		}
		out = append(out, math.Abs(got[i]-want[i])/want[i]*100)
	}
	if len(out) == 0 {
		return nil, errors.New("vran: APE reference is identically zero")
	}
	return out, nil
}

// APESummary condenses an APE distribution: median, quartiles and
// 5th/95th percentiles, matching the Fig. 13b boxplots.
type APESummary struct {
	P5, Q1, Median, Q3, P95 float64
}

// SummarizeAPE computes the boxplot statistics of an APE series.
func SummarizeAPE(ape []float64) APESummary {
	qs := mathx.Percentiles(ape, []float64{0.05, 0.25, 0.5, 0.75, 0.95})
	return APESummary{P5: qs[0], Q1: qs[1], Median: qs[2], Q3: qs[3], P95: qs[4]}
}
