package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"slices"
	"sync"
	"time"

	"partree/internal/dataset"
	"partree/internal/forest"
	"partree/internal/quest"
	"partree/internal/serve"
	"partree/internal/sprint"
	"partree/internal/tree"
)

// serveSpec sizes the serving workload.
type serveSpec struct {
	Function    int // Quest function both models learn
	TrainRows   int // the tree's training rows
	ForestRows  int // the forest's, a prefix of the tree's
	ForestTrees int
	ForestDepth int
	Batch       int           // rows per request
	Bodies      int           // distinct request bodies per model
	SwapEvery   time.Duration // forest hot-swap period
	Warmup      time.Duration // load before the window opens
	Slices      int           // window slices the end-to-end figures are medians over
	WalkReps    int           // direct engine timings per model
}

var serveDefault = serveSpec{
	Function: 9, TrainRows: 50_000, ForestRows: 10_000, ForestTrees: 32, ForestDepth: 8,
	Batch: 256, Bodies: 16, SwapEvery: time.Second, Warmup: 500 * time.Millisecond, Slices: 4, WalkReps: 200,
}

// The two served models, in request-alternation order.
var modelNames = [2]string{"tree", "forest"}

// body is one prebuilt request: its rows, its JSON and the class ids an
// in-process walk of each model gives them.
type body struct {
	rows   *dataset.Dataset
	json   [2][]byte
	expect [2][]int32
}

// serveSetup is the state one set-up repetition leaves: both models'
// JSON, the request bodies and a running server holding both models.
type serveSetup struct {
	forestJSON []byte
	bodies     []body
	srv        *serve.Server
	base       string
	cancel     context.CancelFunc
	done       chan error
}

// setup generates the rows, trains both models, renders the request
// bodies with their expected answers, starts a loopback server and loads
// both models into it over HTTP.
func (sp serveSpec) setup(cfg runConfig, rec *recorder) (*serveSetup, error) {
	qc := quest.Config{Function: sp.Function, Seed: cfg.Seed}
	t0 := time.Now()
	train, err := quest.GenerateBlock(qc, 0, sp.TrainRows)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	st := &serveSetup{bodies: make([]body, sp.Bodies)}
	for b := range st.bodies {
		lo := sp.TrainRows + b*sp.Batch
		if st.bodies[b].rows, err = quest.GenerateBlock(qc, lo, lo+sp.Batch); err != nil {
			return nil, fmt.Errorf("generate: %w", err)
		}
	}
	rec.span("quest.generate_s", time.Since(t0))

	t0 = time.Now()
	tr := sprint.Build(train, tree.Options{Binary: true})
	rec.span("sprint.build_s", time.Since(t0))
	t0 = time.Now()
	f, err := forest.Train(train.Slice(0, sp.ForestRows), forest.Config{
		Trees: sp.ForestTrees, Builder: "hunt", Seed: cfg.Seed, Bootstrap: true,
		Tree: tree.Options{Binary: true, MaxDepth: sp.ForestDepth},
	})
	if err != nil {
		return nil, fmt.Errorf("train forest: %w", err)
	}
	rec.span("forest.train_s", time.Since(t0))

	var treeJSON, forestJSON bytes.Buffer
	if err := tree.WriteJSON(&treeJSON, tr); err != nil {
		return nil, err
	}
	if err := forest.WriteJSON(&forestJSON, f); err != nil {
		return nil, err
	}
	st.forestJSON = forestJSON.Bytes()
	// Expected answers come from walks independent of the served
	// engines: the pointer tree and the fused forest's per-member path.
	fz, err := forest.Compile(f)
	if err != nil {
		return nil, err
	}
	for b := range st.bodies {
		bd := &st.bodies[b]
		n := bd.rows.Len()
		bd.expect[0] = make([]int32, n)
		for i := range bd.expect[0] {
			bd.expect[0][i] = tr.ClassifyRow(bd.rows, i)
		}
		bd.expect[1] = make([]int32, n)
		fz.PredictNaiveInto(bd.rows, bd.expect[1], 0, n)
		if cfg.corruptExpect && b == 0 {
			bd.expect[1][0] = 1 - bd.expect[1][0]
		}
		for m, name := range modelNames {
			if bd.json[m], err = predictBody(name, bd.rows); err != nil {
				return nil, err
			}
		}
	}

	if err := st.start(); err != nil {
		return nil, err
	}
	t0 = time.Now()
	client := &http.Client{}
	defer client.CloseIdleConnections()
	for m, js := range [2][]byte{treeJSON.Bytes(), st.forestJSON} {
		if why := st.put(client, modelNames[m], js, 1); why != "" {
			st.stop()
			return nil, fmt.Errorf("load: %s", why)
		}
	}
	rec.span("serve.load_s", time.Since(t0))
	return st, nil
}

// start runs an in-process server on a loopback listener.
func (st *serveSetup) start() error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	st.srv = serve.New(serve.Config{})
	st.base = "http://" + l.Addr().String()
	ctx, cancel := context.WithCancel(context.Background())
	st.cancel = cancel
	st.done = make(chan error, 1)
	go func() { st.done <- st.srv.Serve(ctx, l) }()
	return nil
}

// stop shuts the server down and waits for it.
func (st *serveSetup) stop() {
	st.cancel()
	<-st.done
	st.srv.Close()
}

// put loads a model over HTTP and returns why it failed its gate (200
// and generation wantGen), or "".
func (st *serveSetup) put(client *http.Client, name string, js []byte, wantGen int) string {
	req, err := http.NewRequest(http.MethodPut, st.base+"/v1/models/"+name, bytes.NewReader(js))
	if err != nil {
		return err.Error()
	}
	resp, err := client.Do(req)
	if err != nil {
		return err.Error()
	}
	defer resp.Body.Close()
	var info struct {
		Generation int `json:"generation"`
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(resp.Body)
		return fmt.Sprintf("PUT %s: status %d: %s", name, resp.StatusCode, bytes.TrimSpace(msg))
	}
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		return fmt.Sprintf("PUT %s: %v", name, err)
	}
	if info.Generation != wantGen {
		return fmt.Sprintf("PUT %s: generation %d, want %d", name, info.Generation, wantGen)
	}
	return ""
}

// predictBody renders rows as a /v1/predict body, categorical values by
// name, as a client would send them.
func predictBody(model string, d *dataset.Dataset) ([]byte, error) {
	records := make([]map[string]any, d.Len())
	for i := range records {
		rec := make(map[string]any, d.Schema.NumAttrs())
		for a, attr := range d.Schema.Attrs {
			if attr.Kind == dataset.Categorical {
				rec[attr.Name] = attr.Values[d.Cat[a][i]]
			} else {
				rec[attr.Name] = d.Cont[a][i]
			}
		}
		records[i] = rec
	}
	return json.Marshal(map[string]any{"model": model, "records": records})
}

// sample is one measured request.
type sample struct {
	model        int
	rttMS, hndMS float64 // round trip; server-side latency_ms
	end          time.Time
	why          string // gate failure, "" when correct
}

// runServe is the serving workload: GOMAXPROCS closed-loop clients, each
// on its own keep-alive connection, post prebuilt 256-row bodies that
// alternate between the tree and the forest while a writer hot-swaps
// the forest about once a second. Every response and every swap is
// gated.
func runServe(sp serveSpec, cfg runConfig, rec *recorder) error {
	var st *serveSetup
	err := repeatSetup(rec, func(int) error {
		var err error
		st, err = sp.setup(cfg, rec)
		return err
	}, func() {
		st.stop()
		st = nil
	})
	if err != nil {
		return err
	}
	defer st.stop()

	// peak_rss_mb covers the measured load only, not set-up.
	if err := resetPeakRSS(); err != nil {
		return err
	}
	clients := runtime.GOMAXPROCS(0)
	per := make([][]sample, clients)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			per[c] = st.client(c, stop)
		}(c)
	}
	time.Sleep(sp.Warmup)
	winStart := time.Now()
	swaps := st.swapper(sp, time.Duration(cfg.Seconds*float64(time.Second)))
	winEnd := time.Now()
	close(stop)
	wg.Wait()
	peak, err := peakRSSMB()
	if err != nil {
		return err
	}
	rec.set("peak_rss_mb", peak)

	var samples []sample
	for _, ss := range per {
		samples = append(samples, ss...)
	}
	// The window is cut into sp.Slices equal slices; throughput, the
	// median and the 99th percentile are medians over the slices, so a
	// burst of interference from outside the benchmark moves one slice,
	// not the result. A slice holds several swaps, so a slow swap path
	// still moves every slice's tail.
	part := winEnd.Sub(winStart) / time.Duration(sp.Slices)
	rtt := make([][]float64, sp.Slices)
	var outside []float64
	var byModel, handler [2][]float64
	requests := 0
	for _, s := range samples {
		rec.op(s.why)
		if s.end.Before(winStart) || !s.end.Before(winEnd) {
			continue
		}
		requests++
		if s.why != "" {
			continue
		}
		j := min(int(s.end.Sub(winStart)/part), sp.Slices-1)
		rtt[j] = append(rtt[j], s.rttMS)
		outside = append(outside, s.rttMS-s.hndMS)
		byModel[s.model] = append(byModel[s.model], s.rttMS)
		handler[s.model] = append(handler[s.model], s.hndMS)
	}
	var rps, p50, p99 []float64
	timed := 0
	for _, xs := range rtt {
		rps = append(rps, float64(len(xs)*sp.Batch)/part.Seconds())
		p50 = append(p50, median(xs))
		p99 = append(p99, quantile(xs, 0.99))
		timed += len(xs)
	}
	var swapMS []float64
	for _, s := range swaps {
		rec.op(s.why)
		swapMS = append(swapMS, s.rttMS)
	}
	rec.set("rows_per_s", median(rps))
	rec.set("p50_ms", median(p50))
	rec.set("p99_ms", median(p99))
	rec.set("bench.op_samples", float64(timed))
	rec.set("serve.requests", float64(requests))
	rec.set("serve.outside_handler_ms", median(outside))
	rec.set("serve.swaps", float64(len(swaps)))
	rec.set("serve.swap_ms", median(swapMS))
	for m, name := range modelNames {
		rec.set("serve."+name+"_p50_ms", median(byModel[m]))
		rec.set("serve.handler_"+name+"_ms", median(handler[m]))
	}
	if cfg.Trace {
		st.walks(sp, rec)
	}
	return nil
}

// client is one closed-loop batch scorer: it posts the next body as soon
// as the previous reply has been read, until stop is closed.
func (st *serveSetup) client(c int, stop <-chan struct{}) []sample {
	hc := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1, DisableCompression: true}}
	defer hc.CloseIdleConnections()
	var out []sample
	for k := c; ; k++ {
		select {
		case <-stop:
			return out
		default:
		}
		s := sample{model: k % 2}
		bd := &st.bodies[(k/2)%len(st.bodies)]
		t0 := time.Now()
		resp, err := hc.Post(st.base+"/v1/predict", "application/json", bytes.NewReader(bd.json[s.model]))
		var raw []byte
		if err == nil {
			raw, err = io.ReadAll(resp.Body)
			resp.Body.Close()
		}
		s.end = time.Now()
		s.rttMS = float64(s.end.Sub(t0).Nanoseconds()) / 1e6
		switch {
		case err != nil:
			s.why = "predict: " + err.Error()
		case resp.StatusCode != http.StatusOK:
			s.why = fmt.Sprintf("predict %s: status %d: %s", modelNames[s.model], resp.StatusCode, bytes.TrimSpace(raw))
		default:
			s.hndMS, s.why = checkReply(raw, bd.expect[s.model])
		}
		out = append(out, s)
	}
}

// checkReply decodes a predict reply and compares its class ids with the
// expected ones, returning the handler latency and any gate failure.
func checkReply(raw []byte, want []int32) (float64, string) {
	var r struct {
		ClassIDs  []int32 `json:"class_ids"`
		LatencyMS float64 `json:"latency_ms"`
	}
	if err := json.Unmarshal(raw, &r); err != nil {
		return 0, "predict: decoding reply: " + err.Error()
	}
	if !slices.Equal(r.ClassIDs, want) {
		return r.LatencyMS, fmt.Sprintf("predict: class ids differ from the in-process prediction (%d ids, want %d)", len(r.ClassIDs), len(want))
	}
	return r.LatencyMS, ""
}

// swapper re-PUTs the forest every SwapEvery for the window d, gating
// each reply on 200 and a generation bump, and returns one sample per
// swap.
func (st *serveSetup) swapper(sp serveSpec, d time.Duration) []sample {
	hc := &http.Client{}
	defer hc.CloseIdleConnections()
	var out []sample
	end := time.Now().Add(d)
	gen := 1
	for next := time.Now().Add(sp.SwapEvery); next.Before(end); next = next.Add(sp.SwapEvery) {
		time.Sleep(time.Until(next))
		t0 := time.Now()
		why := st.put(hc, "forest", st.forestJSON, gen+1)
		gen++
		out = append(out, sample{model: 1, rttMS: float64(time.Since(t0).Nanoseconds()) / 1e6, why: why})
	}
	time.Sleep(time.Until(end))
	return out
}

// walks times each registered model's engine directly on the request
// rows, the walk alone without HTTP or JSON, gating its answers.
func (st *serveSetup) walks(sp serveSpec, rec *recorder) {
	for m, name := range modelNames {
		e := st.srv.Registry().Get(name)
		if e == nil {
			rec.op("walk: model " + name + " not registered")
			continue
		}
		var ms []float64
		out := make([]int32, sp.Batch)
		for k := 0; k < sp.WalkReps; k++ {
			bd := &st.bodies[k%len(st.bodies)]
			out = out[:bd.rows.Len()]
			t0 := time.Now()
			err := e.Engine.PredictBatch(bd.rows, out)
			ms = append(ms, float64(time.Since(t0).Nanoseconds())/1e6)
			switch {
			case err != nil:
				rec.op("walk " + name + ": " + err.Error())
			case !slices.Equal(out, bd.expect[m]):
				rec.op("walk " + name + ": class ids differ from the in-process prediction")
			default:
				rec.op("")
			}
		}
		rec.set("predict.walk_"+name+"_ms", median(ms))
	}
}
