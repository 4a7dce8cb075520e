// Command benchmark is the repository's end-to-end benchmark. It runs
// one named workload against the unchanged program and prints, as the
// last line of standard output, one JSON object with the workload's
// end-to-end metrics (--trace 0) or its per-layer metrics (--trace 1).
// BENCHMARK.json at the repository root names the workloads and
// metrics; README.md in this directory says why each was chosen and
// which end-to-end metric each per-layer metric should move.
//
//	bash benchmark/run.sh --workload characterize --seed 1 --seconds 30 --trace 0
//
// The benchmark reads /proc, so it runs on Linux only.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"
)

func main() {
	// A child started by processStartSeconds reports when its main
	// began and exits: that is the process set-up cost of this binary.
	if len(os.Args) == 2 && os.Args[1] == readyProbeArg {
		fmt.Println(time.Now().UnixNano())
		return
	}
	workload := flag.String("workload", "", "workload: characterize, slicing or vran")
	seed := flag.Int64("seed", 1, "workload seed; every program input is derived from it")
	seconds := flag.Float64("seconds", 20, "how long to measure")
	trace := flag.Int("trace", 0, "1 prints per-layer metrics from a traced run instead of end-to-end metrics")
	workDir := flag.String("work-dir", ".bench_build/run", "scratch directory for checkpoints, results and traces")
	flag.Parse()
	if *trace != 0 && *trace != 1 {
		fail(fmt.Errorf("--trace must be 0 or 1, got %d", *trace))
	}
	runtime.GOMAXPROCS(runtime.NumCPU())

	opts := runOptions{
		Workload:      *workload,
		Seed:          *seed,
		Seconds:       *seconds,
		Traced:        *trace == 1,
		WorkDir:       *workDir,
		Scale:         fullScale,
		ProcessProbes: 3,
		SourceRoot:    ".",
	}
	out, err := run(opts)
	if err != nil {
		fail(err)
	}
	if err := out.writeFiles(); err != nil {
		fail(err)
	}
	detail, err := json.Marshal(out.Detail)
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(out.Result)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%s\n%s\n", detail, line)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
