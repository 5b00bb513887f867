// Command perfbench is partree's host-time benchmark. It drives the
// program's layers from outside, through their public functions, on
// inputs it generates from a seed, checks every timed operation for
// correctness, and prints its metrics as one JSON object on the last line
// of standard output. Run it from the root of a checkout:
//
//	bash perfbench/run.sh --workload train-hybrid --seed 1 --seconds 20 --trace 0
//
// Workloads, metrics and the layer each metric belongs to are described
// in README.md next to this file.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strings"
	"time"
)

// runConfig is one run's settings.
type runConfig struct {
	Seed    uint64
	Seconds float64 // measurement window
	Trace   bool
	WorkDir string // scratch space for on-disk stores

	// refSeedDelta, when non-zero, builds the serial reference from another
	// seed's rows, so every gate against it must fail (tests only).
	refSeedDelta uint64
	// corruptExpect flips one expected class id, so every response for
	// that body must fail its gate (tests only).
	corruptExpect bool
}

// workloads maps each workload name to its runner.
var workloads = map[string]func(runConfig, *recorder) error{
	"train-hybrid": func(c runConfig, r *recorder) error { return runTrain(hybridSpec, c, r) },
	"train-ooc":    func(c runConfig, r *recorder) error { return runTrain(oocSpec, c, r) },
	"serve-http":   func(c runConfig, r *recorder) error { return runServe(serveDefault, c, r) },
}

func main() {
	var (
		workload = flag.String("workload", "", "workload: train-hybrid, train-ooc or serve-http")
		seed     = flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
		seconds  = flag.Float64("seconds", 10, "measurement window in seconds")
		trace    = flag.Int("trace", 0, "1: traced run reporting the per-layer metrics")
		profile  = flag.String("cpuprofile", "", "write a CPU profile of the run to this file")
	)
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q)\n", *workload)
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{Seed: *seed, Seconds: *seconds, Trace: *trace == 1, WorkDir: filepath.Join(".bench_build", "work")}

	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fail(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fail(err)
		}
		defer f.Close()
	}
	res, err := runWorkload(run, cfg)
	if *profile != "" {
		pprof.StopCPUProfile()
	}
	if err != nil {
		fail(err)
	}
	host, err := json.Marshal(map[string]any{"host": hostInfo(), "workload": *workload, "seed": *seed})
	if err != nil {
		fail(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fail(err)
	}
	fmt.Println(string(host))
	fmt.Println(string(line))
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// runWorkload runs one workload in a fresh directory under cfg.WorkDir,
// removed when it returns, and returns its result.
func runWorkload(run func(runConfig, *recorder) error, cfg runConfig) (result, error) {
	if err := os.MkdirAll(cfg.WorkDir, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(cfg.WorkDir, "run-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)
	cfg.WorkDir = dir
	rec := newRecorder()
	if err := run(cfg, rec); err != nil {
		return result{}, err
	}
	for _, f := range rec.failures {
		fmt.Fprintln(os.Stderr, "perfbench: FAILED", f)
	}
	return rec.finish(cfg.Trace), nil
}

// setupReps is how many times a run sets up; setup_s is the median.
const setupReps = 5

// repeatSetup runs setup setupReps times from a collected heap,
// calling release between repetitions, and reports the median time as
// setup_s and the median of every span the repetitions recorded. The
// last repetition's state is what the run uses.
func repeatSetup(rec *recorder, setup func(rep int) error, release func()) error {
	var secs []float64
	for rep := 0; rep < setupReps; rep++ {
		if rep > 0 {
			release()
		}
		runtime.GC()
		t0 := time.Now()
		if err := setup(rep); err != nil {
			return fmt.Errorf("set-up: %w", err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	runtime.GC() // the timed window starts from a collected heap too
	rec.set("setup_s", median(secs))
	rec.set("bench.setup_samples", float64(len(secs)))
	for name, xs := range rec.spans {
		rec.set(name, median(xs))
	}
	return nil
}

// hostInfo describes the machine and build a result was measured on.
func hostInfo() map[string]any {
	h := map[string]any{
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"num_cpu":    runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				h["commit"] = s.Value
			case "vcs.modified":
				h["commit_modified"] = s.Value == "true"
			}
		}
	}
	return h
}

// cpuModel reads the processor model name from /proc/cpuinfo ("" when
// unavailable).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return ""
}
