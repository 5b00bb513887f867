package main

import (
	"encoding/json"
	"os"
	"testing"
	"time"
)

// Tiny sizes of every workload, so the tests run in seconds.
var (
	tinyHybrid = trainSpec{Function: 2, Datasets: 2, Rows: 3000, Procs: 4}
	tinyOOC    = trainSpec{Function: 2, Datasets: 2, Rows: 5000, Procs: 2, MaxDepth: 4, OOC: true, ChunkRows: 512}
	tinyServe  = serveSpec{
		Function: 9, TrainRows: 2000, ForestRows: 1000, ForestTrees: 4, ForestDepth: 4,
		Batch: 32, Bodies: 2, SwapEvery: 50 * time.Millisecond, Warmup: 10 * time.Millisecond, Slices: 2, WalkReps: 4,
	}
)

func tinyConfig(t *testing.T, trace bool) runConfig {
	return runConfig{Seed: 7, Seconds: 0.2, Trace: trace, WorkDir: t.TempDir()}
}

// tinyRuns are the workloads at tiny size, by name.
var tinyRuns = map[string]func(runConfig, *recorder) error{
	"train-hybrid": func(c runConfig, r *recorder) error { return runTrain(tinyHybrid, c, r) },
	"train-ooc":    func(c runConfig, r *recorder) error { return runTrain(tinyOOC, c, r) },
	"serve-http":   func(c runConfig, r *recorder) error { return runServe(tinyServe, c, r) },
}

// benchmarkFile is the part of BENCHMARK.json the metric table must match.
type benchmarkFile struct {
	Workloads []struct{ Name string }       `json:"workloads"`
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

func TestMetricTableMatchesBenchmarkFile(t *testing.T) {
	bf := readBenchmarkFile(t)
	check := func(kind string, got []metricDef, want []struct{ Name, Unit string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the table, %d in BENCHMARK.json", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].name != want[i].Name || got[i].unit != want[i].Unit {
				t.Errorf("%s[%d]: table %s (%s), BENCHMARK.json %s (%s)",
					kind, i, got[i].name, got[i].unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", endToEnd, bf.EndToEnd)
	check("per_layer", perLayer, bf.PerLayer)
	for _, w := range bf.Workloads {
		if workloads[w.Name] == nil || tinyRuns[w.Name] == nil {
			t.Errorf("workload %s has no runner", w.Name)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Errorf("%d workloads in BENCHMARK.json, %d runners", len(bf.Workloads), len(workloads))
	}
}

// TestEveryMetricEmitted runs each workload at tiny size in both modes
// and checks the result line: every named metric with its unit, all
// gates passed, and the end-to-end metrics non-zero.
func TestEveryMetricEmitted(t *testing.T) {
	for name, run := range tinyRuns {
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(run, tinyConfig(t, trace))
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct %v, %d of %d failed", name, trace, res.Correct, res.Failed, res.Attempted)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: %s missing", name, trace, d.name)
				case m.Unit != d.unit:
					t.Errorf("%s trace=%v: %s unit %q, want %q", name, trace, d.name, m.Unit, d.unit)
				case !trace && !(m.Value > 0):
					t.Errorf("%s: end-to-end %s = %v, want > 0", name, d.name, m.Value)
				}
			}
		}
	}
}

// TestWrongTreeFails builds the serial reference from another seed's
// rows: every timed build must then count as failed.
func TestWrongTreeFails(t *testing.T) {
	for _, spec := range []trainSpec{tinyHybrid, tinyOOC} {
		cfg := tinyConfig(t, false)
		cfg.refSeedDelta = 1
		res, err := runWorkload(func(c runConfig, r *recorder) error { return runTrain(spec, c, r) }, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if res.Correct || res.Attempted < 1 || res.Failed != res.Attempted {
			t.Errorf("ooc=%v: correct %v, %d of %d failed; want every build failed", spec.OOC, res.Correct, res.Failed, res.Attempted)
		}
	}
}

// TestWrongClassIDFails flips one expected forest class id: the replies
// for that body must count as failed, the others not.
func TestWrongClassIDFails(t *testing.T) {
	cfg := tinyConfig(t, false)
	cfg.corruptExpect = true
	res, err := runWorkload(func(c runConfig, r *recorder) error { return runServe(tinyServe, c, r) }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed < 1 || res.Failed >= res.Attempted {
		t.Errorf("correct %v, %d of %d failed; want some but not all failed", res.Correct, res.Failed, res.Attempted)
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Errorf("median = %v, want 2.5", got)
	}
	if got := quantile(xs, 1); got != 4 {
		t.Errorf("q1 = %v, want 4", got)
	}
	if got := median(nil); got != 0 {
		t.Errorf("median(nil) = %v, want 0", got)
	}
	if xs[0] != 4 {
		t.Error("quantile reordered its input")
	}
}
