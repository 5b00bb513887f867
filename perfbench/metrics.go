package main

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"os"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them with tracing off; see README.md for what each one
// means per workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"rows_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p99_ms", "ms"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the single-layer metrics of a traced run. Every workload
// reports all of them; a layer the workload never reaches reads 0.
// Modeled quantities carry the unit model_s (seconds on the modeled
// machine) to keep them apart from host time.
var perLayer = []metricDef{
	// Samples behind the end-to-end timings.
	{"bench.setup_samples", "count"},
	{"bench.op_samples", "count"},
	// Set-up spans (medians over the set-up repetitions).
	{"quest.generate_s", "s"},
	{"discretize.uniform_s", "s"},
	{"dataset.write_store_s", "s"},
	{"dataset.store_mb", "MB"},
	{"sprint.build_s", "s"},
	{"forest.train_s", "s"},
	{"serve.load_s", "s"},
	// Serial reference build and the traced replay of its level loop.
	{"tree.bfs_s", "s"},
	{"kernel.tabulate_s", "s"},
	{"tree.expand_s", "s"},
	{"tree.route_s", "s"},
	{"dataset.read_chunk_s", "s"},
	{"tree.nodes", "count"},
	{"tree.levels", "count"},
	{"kernel.rows_tabulated", "count"},
	// In-place timing of the out-of-core build's chunk reads.
	{"dataset.inplace_read_chunk_s", "s"},
	{"dataset.read_mb", "MB"},
	{"bench.trace_overhead", "x"},
	// Modeled-machine accounting of the timed builds (always on in mp).
	{"mp.modeled_s", "model_s"},
	{"mp.comm_bytes", "B"},
	{"mp.msgs", "count"},
	{"mp.comm_s", "model_s"},
	{"mp.comp_s", "model_s"},
	{"mp.disk_bytes", "B"},
	{"mp.statistics.comm_s", "model_s"},
	{"mp.reduction.comm_s", "model_s"},
	{"mp.moving.comm_s", "model_s"},
	{"mp.load-balance.comm_s", "model_s"},
	{"mp.assembly.comm_s", "model_s"},
	// Serving.
	{"serve.tree_p50_ms", "ms"},
	{"serve.forest_p50_ms", "ms"},
	{"serve.handler_tree_ms", "ms"},
	{"serve.handler_forest_ms", "ms"},
	{"serve.outside_handler_ms", "ms"},
	{"predict.walk_tree_ms", "ms"},
	{"predict.walk_forest_ms", "ms"},
	{"serve.swap_ms", "ms"},
	{"serve.swaps", "count"},
	{"serve.requests", "count"},
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// recorder collects the values a run measures and the outcome of every
// gated operation. A workload sets what it measures; finish reports the
// subset the run's mode asks for.
type recorder struct {
	values    map[string]float64
	spans     map[string][]float64 // set-up spans, one sample per repetition
	attempted int
	failed    int
	failures  []string // first few failure reasons, for stderr
}

func newRecorder() *recorder {
	return &recorder{values: map[string]float64{}, spans: map[string][]float64{}}
}

func (r *recorder) set(name string, v float64) { r.values[name] = v }

func (r *recorder) add(name string, v float64) { r.values[name] += v }

// span adds one set-up repetition's sample of a named span; repeatSetup
// reports the median of each.
func (r *recorder) span(name string, d time.Duration) {
	r.spans[name] = append(r.spans[name], d.Seconds())
}

// op records one gated operation; a non-empty why is its gate failure.
func (r *recorder) op(why string) {
	r.attempted++
	if why == "" {
		return
	}
	r.failed++
	if len(r.failures) < 8 {
		r.failures = append(r.failures, why)
	}
}

// finish builds the result line: end-to-end metrics with tracing off,
// per-layer metrics with it on. A metric the workload never set reads 0.
func (r *recorder) finish(trace bool) result {
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	out := result{
		Correct:   r.failed == 0 && r.attempted > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		out.Metrics[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	return out
}

// median returns the median of xs (0 for none).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// resetPeakRSS returns the heap's free pages to the operating system and
// resets the kernel's peak resident set (VmHWM) to the current resident
// set, so that peakRSSMB covers only what runs after it.
func resetPeakRSS() error {
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		return fmt.Errorf("reset peak resident set: %w", err)
	}
	return nil
}

// peakRSSMB returns the process's peak resident set size in MB since the
// last resetPeakRSS, read as VmHWM from /proc/self/status.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if v, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("VmHWM: %w", err)
			}
			return kb * 1024 / 1e6, nil
		}
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

// dirMB returns the total size of the regular files directly in dir, in MB.
func dirMB(dir string) (float64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return 0, err
	}
	var n int64
	for _, e := range ents {
		fi, err := e.Info()
		if err != nil {
			return 0, err
		}
		if fi.Mode().IsRegular() {
			n += fi.Size()
		}
	}
	return float64(n) / 1e6, nil
}
