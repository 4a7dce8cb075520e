package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// scale sizes every workload. fullScale is what BENCHMARK.json runs;
// the tests run tinyScale.
type scale struct {
	CampaignBS   int `json:"campaign_bs"`   // characterize: base stations
	CampaignDays int `json:"campaign_days"` // characterize: days
	Shards       int `json:"shards"`        // campaign shards (checkpoint files)
	EnvBS        int `json:"env_bs"`        // slicing/vran set-up environment
	EnvDays      int `json:"env_days"`
	Antennas     int `json:"antennas"` // slicing
	SlicingDays  int `json:"slicing_days"`
	ESs          int `json:"vran_es"` // vran
	RUsPerES     int `json:"vran_rus_per_es"`
	Hours        int `json:"vran_hours"`
	SetupReps    int `json:"setup_reps"` // set-up repetitions; setup_s takes their median
}

// fullScale matches the cmd/characterize campaign and the
// cmd/experiments defaults (ExpTable2: 10 antennas x 7 days; ExpFig13:
// 16 ES x 5 RU, 4 h).
var fullScale = scale{
	CampaignBS: 120, CampaignDays: 7, Shards: 4,
	EnvBS: 40, EnvDays: 7,
	Antennas: 10, SlicingDays: 7,
	ESs: 16, RUsPerES: 5, Hours: 4,
	SetupReps: 5,
}

// tinyScale is the smoke-test size: 10 BS x 1 day, 1 antenna, 1 h.
var tinyScale = scale{
	CampaignBS: 10, CampaignDays: 1, Shards: 4,
	EnvBS: 10, EnvDays: 1,
	Antennas: 1, SlicingDays: 1,
	ESs: 2, RUsPerES: 5, Hours: 1,
	SetupReps: 1,
}

type runOptions struct {
	Workload string
	Seed     int64
	Seconds  float64
	Traced   bool
	WorkDir  string
	Scale    scale
	// ProcessProbes is how many child processes per batch measure the
	// binary's own start-up for setup_s (0 skips it, as the in-process
	// tests do).
	ProcessProbes int
	// SourceRoot is the repository root that the run metadata
	// fingerprints.
	SourceRoot string
}

// iteration holds the end-to-end samples of one measured iteration.
type iteration struct {
	Wall    float64 `json:"wall_s"`
	Resume  float64 `json:"resume_s"`
	CPU     float64 `json:"cpu_s"`
	AllocMB float64 `json:"alloc_mb"`
	// PeakRSSMB is the peak resident set during the measured call.
	PeakRSSMB float64 `json:"peak_rss_mb"`
}

// check is one output check of one iteration.
type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// job is one workload bound to its scale and seed.
type job interface {
	// setup runs one set-up repetition; the last repetition's state is
	// what the iterations use.
	setup() error
	// iterate runs one measured iteration: the measured call and, where
	// the workload has one, the resume call.
	iterate(it *iteration) error
	// check inspects the outputs of the last iteration.
	check() []check
	// record is the result record of the last iteration; iterations of
	// one run must produce identical records.
	record() any
	// traced runs one traced replica iteration and returns the wall
	// time of the measured call's replica.
	traced(tr *tracer) (float64, error)
	cleanup()
}

func newJob(o runOptions) (job, error) {
	switch o.Workload {
	case "characterize":
		return newCharacterize(o), nil
	case "slicing":
		return newSlicing(o), nil
	case "vran":
		return newVRAN(o), nil
	}
	return nil, fmt.Errorf("unknown workload %q (want characterize, slicing or vran)", o.Workload)
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the benchmark's last line of output.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// detail is everything else a run reports: metadata, the result
// record, every check and every sample behind the medians.
type detail struct {
	Meta        runMeta              `json:"run"`
	Record      any                  `json:"record"`
	Checks      [][]check            `json:"checks"`
	Iterations  []iteration          `json:"iterations"`
	SetupS      []float64            `json:"setup_s"`
	ProcessS    []float64            `json:"process_start_s"`
	TracedWallS []float64            `json:"traced_wall_s,omitempty"`
	Layers      []map[string]float64 `json:"layers,omitempty"`
}

type output struct {
	Result resultLine
	Detail detail
	dir    string
	trace  []byte // Chrome trace-event JSON of the last traced iteration
}

// writeFiles stores the detail record (and the trace, when traced)
// under the work directory's results/.
func (o *output) writeFiles() error {
	dir := filepath.Join(o.dir, "results")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	m := o.Detail.Meta
	base := fmt.Sprintf("%s-seed%d-trace%d", m.Workload, m.Seed, btoi(m.Traced))
	b, err := json.MarshalIndent(o.Detail, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, base+".json"), b, 0o644); err != nil {
		return err
	}
	if o.trace != nil {
		return os.WriteFile(filepath.Join(dir, base+".trace.json"), o.trace, 0o644)
	}
	return nil
}

func nproc() int { return runtime.NumCPU() }

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// run executes one benchmark run: set-up, then measured iterations
// until the time budget is spent. A traced run spends the first half
// of its budget on untraced iterations, which give trace.overhead its
// baseline, and the second half on traced replica iterations.
func run(o runOptions) (*output, error) {
	j, err := newJob(o)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(o.WorkDir, 0o755); err != nil {
		return nil, fmt.Errorf("work dir: %w", err)
	}
	defer j.cleanup()
	out := &output{dir: o.WorkDir}
	out.Detail.Meta = collectMeta(o)

	// Process start-up takes a few milliseconds, and a burst of load on
	// the host inflates every probe taken during it, so the probes are
	// spread over the run: one batch now and one before each iteration.
	probeStart := func() error {
		xs, err := processStartSeconds(o.ProcessProbes)
		out.Detail.ProcessS = append(out.Detail.ProcessS, xs...)
		return err
	}
	if err := probeStart(); err != nil {
		return nil, err
	}
	for r := 0; r < max(o.Scale.SetupReps, 1); r++ {
		debug.FreeOSMemory() // each repetition starts from the same heap
		t0 := time.Now()
		if err := j.setup(); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		out.Detail.SetupS = append(out.Detail.SetupS, time.Since(t0).Seconds())
	}

	budget := o.Seconds
	if o.Traced {
		budget /= 2
	}
	res := &out.Result
	var firstRecord []byte
	start := time.Now()
	for len(out.Detail.Iterations) == 0 || time.Since(start).Seconds() < budget {
		if err := probeStart(); err != nil {
			return nil, err
		}
		var it iteration
		if err := j.iterate(&it); err != nil {
			return nil, fmt.Errorf("iteration %d: %w", len(out.Detail.Iterations)+1, err)
		}
		checks := j.check()
		record := j.record()
		rec, err := json.Marshal(record)
		if err != nil {
			return nil, err
		}
		if firstRecord == nil {
			firstRecord = rec
			out.Detail.Record = record
		} else {
			checks = append(checks, check{Name: "same result as iteration 1", OK: string(rec) == string(firstRecord)})
		}
		res.Attempted++
		if !allOK(checks) {
			res.Failed++
		}
		out.Detail.Iterations = append(out.Detail.Iterations, it)
		out.Detail.Checks = append(out.Detail.Checks, checks)
	}
	res.Correct = res.Failed == 0

	if !o.Traced {
		res.Metrics = endToEnd(out.Detail)
		return out, nil
	}
	start = time.Now()
	var tr *tracer
	for len(out.Detail.Layers) == 0 || time.Since(start).Seconds() < budget {
		tr = newTracer()
		debug.FreeOSMemory() // as measureCall does for the untraced calls
		wall, err := j.traced(tr)
		if err != nil {
			return nil, fmt.Errorf("traced iteration %d: %w", len(out.Detail.Layers)+1, err)
		}
		out.Detail.TracedWallS = append(out.Detail.TracedWallS, wall)
		out.Detail.Layers = append(out.Detail.Layers, tr.layerMetrics())
	}
	if out.trace, err = tr.chromeTrace(); err != nil {
		return nil, err
	}
	res.Metrics = perLayer(out.Detail)
	return out, nil
}

func allOK(checks []check) bool {
	for _, c := range checks {
		if !c.OK {
			return false
		}
	}
	return true
}

// endToEnd reduces a run to the end-to-end metrics. Times are the
// fastest iteration's: the host lends its CPUs to other virtual
// machines (5 to 25 % steal time measured on the 2-CPU host the
// benchmark was tuned on), which only ever adds time, in bursts that
// moved the median of a run by up to 20 %. Memory is the median
// iteration's, and setup_s the median of its repetitions.
func endToEnd(d detail) map[string]metric {
	col := func(f func(iteration) float64) []float64 {
		xs := make([]float64, len(d.Iterations))
		for i, it := range d.Iterations {
			xs[i] = f(it)
		}
		return xs
	}
	fastest := func(f func(iteration) float64) float64 { return slices.Min(col(f)) }
	typical := func(f func(iteration) float64) float64 { return median(col(f)) }
	var run, passed int
	for _, cs := range d.Checks {
		for _, c := range cs {
			run++
			if c.OK {
				passed++
			}
		}
	}
	return map[string]metric{
		"wall_s":              {fastest(func(it iteration) float64 { return it.Wall }), "s"},
		"resume_s":            {fastest(func(it iteration) float64 { return it.Resume }), "s"},
		"setup_s":             {median(d.ProcessS) + median(d.SetupS), "s"},
		"cpu_s":               {fastest(func(it iteration) float64 { return it.CPU }), "s"},
		"alloc_mb":            {typical(func(it iteration) float64 { return it.AllocMB }), "MB"},
		"max_rss_mb":          {typical(func(it iteration) float64 { return it.PeakRSSMB }), "MB"},
		"checks_passed_share": {float64(passed) / float64(max(run, 1)), "ratio"},
	}
}

// perLayer reduces a traced run to the per-layer metrics: for each,
// the median over the traced iterations, plus the tracing overhead:
// the fastest traced iteration against the fastest untraced one.
func perLayer(d detail) map[string]metric {
	out := make(map[string]metric, len(layerMetricUnits)+1)
	for name, unit := range layerMetricUnits {
		xs := make([]float64, len(d.Layers))
		for i, l := range d.Layers {
			xs[i] = l[name]
		}
		out[name] = metric{median(xs), unit}
	}
	walls := make([]float64, len(d.Iterations))
	for i, it := range d.Iterations {
		walls[i] = it.Wall
	}
	out["trace.overhead"] = metric{slices.Min(d.TracedWallS)/slices.Min(walls) - 1, "ratio"}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// measureCall runs the measured call fn into it. It first collects
// the garbage of earlier calls and returns the freed memory to the
// OS, so every call starts from the same heap and the peak resident
// set, reset just before fn, is fn's own: wall time, process CPU time,
// heap bytes allocated and peak RSS.
func measureCall(it *iteration, fn func() error) error {
	debug.FreeOSMemory()
	resetPeakRSS()
	c0, a0 := cpuSeconds(), heapAllocBytes()
	t0 := time.Now()
	err := fn()
	it.Wall = time.Since(t0).Seconds()
	it.CPU = cpuSeconds() - c0
	it.AllocMB = float64(heapAllocBytes()-a0) / (1 << 20)
	it.PeakRSSMB = peakRSSMB()
	return err
}

// resumeReps is how many times an iteration repeats its resume call,
// which is short (0.15 to 0.6 s), so a single sample is easily hit by a
// burst of host load.
const resumeReps = 3

// fastestTime is the least wall time of n calls of fn, each after a
// full GC, so one call's garbage is not collected on the next one's
// clock.
func fastestTime(n int, fn func() error) (float64, error) {
	best := math.Inf(1)
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		best = math.Min(best, time.Since(t0).Seconds())
	}
	return best, nil
}

// resetPeakRSS makes VmHWM restart from the current resident set.
func resetPeakRSS() {
	// Where the reset is refused, VmHWM keeps the process peak and the
	// metric over-reads; the run still measures.
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

func heapAllocBytes() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakRSSMB is the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	kb, _ := procStatusKB("VmHWM")
	return kb / 1024
}

func procStatusKB(field string) (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			return strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
		}
	}
	return 0, fmt.Errorf("/proc/self/status has no %s", field)
}

// readyProbeArg makes the binary print its main-entry time and exit.
const readyProbeArg = "--ready-probe"

// processStartSeconds starts the benchmark binary n times and returns,
// for each start, the time until its main function ran: exec, runtime
// start and every package initializer of the program.
func processStartSeconds(n int) ([]float64, error) {
	if n <= 0 {
		return []float64{0}, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	out := make([]float64, 0, n)
	for i := 0; i < n; i++ {
		t0 := time.Now()
		b, err := exec.Command(exe, readyProbeArg).Output()
		if err != nil {
			return nil, fmt.Errorf("process start probe: %w", err)
		}
		ns, err := strconv.ParseInt(strings.TrimSpace(string(b)), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("process start probe: %w", err)
		}
		out = append(out, time.Unix(0, ns).Sub(t0).Seconds())
	}
	return out, nil
}

// runMeta identifies the code, the machine and the run.
type runMeta struct {
	Workload     string  `json:"workload"`
	Seed         int64   `json:"seed"`
	Traced       bool    `json:"traced"`
	Seconds      float64 `json:"seconds"`
	Scale        scale   `json:"scale"`
	GitRev       string  `json:"git_rev"`
	SourceSHA256 string  `json:"source_sha256"`
	GoVersion    string  `json:"go_version"`
	GOMAXPROCS   int     `json:"gomaxprocs"`
	NProc        int     `json:"nproc"`
	CPUModel     string  `json:"cpu_model"`
	CheckpointFS string  `json:"checkpoint_fs"`
	Started      string  `json:"started"`
}

func collectMeta(o runOptions) runMeta {
	return runMeta{
		Workload:     o.Workload,
		Seed:         o.Seed,
		Traced:       o.Traced,
		Seconds:      o.Seconds,
		Scale:        o.Scale,
		GitRev:       gitRev(o.SourceRoot),
		SourceSHA256: sourceDigest(o.SourceRoot),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NProc:        runtime.NumCPU(),
		CPUModel:     cpuModel(),
		CheckpointFS: fsType(o.WorkDir),
		Started:      time.Now().UTC().Format(time.RFC3339),
	}
}

// gitRev reads HEAD from root/.git without running git, which would
// search the parent directories of a checkout that is not a repository.
func gitRev(root string) string {
	const none = "unavailable (not a git checkout)"
	gitDir := filepath.Join(root, ".git")
	head, err := os.ReadFile(filepath.Join(gitDir, "HEAD"))
	if err != nil {
		return none
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref
	}
	if b, err := os.ReadFile(filepath.Join(gitDir, ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, err := os.ReadFile(filepath.Join(gitDir, "packed-refs"))
	if err != nil {
		return none
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return none
}

// sourceDigest fingerprints the Go sources under root, so a run made
// outside a git checkout still names the code it measured.
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s\x00%d\x00", filepath.ToSlash(rel), len(b))
		h.Write(b)
		return nil
	})
	if err != nil {
		return "unavailable: " + err.Error()
	}
	return hex.EncodeToString(h.Sum(nil))
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// fsType names the filesystem holding dir, where checkpoints go.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	names := map[int64]string{
		0xEF53: "ext4", 0x01021994: "tmpfs", 0x794c7630: "overlayfs",
		0x58465342: "xfs", 0x9123683E: "btrfs", 0x6969: "nfs",
		0x2fc12fc1: "zfs", 0x65735546: "fuse",
	}
	t := int64(st.Type)
	if n, ok := names[t]; ok {
		return n
	}
	return fmt.Sprintf("0x%x", t)
}
