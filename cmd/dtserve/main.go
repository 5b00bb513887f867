// Command dtserve serves trained decision-tree and forest models over
// HTTP. It loads tree-JSON model files written by dtree -save and
// forest-JSON ensembles written by dtree -forest N -save, compiles both
// into the fused struct-of-arrays layout of internal/forest (a tree as a
// 1-tree forest), and answers batched prediction requests through the
// parallel engine (internal/predict). Models can be hot-swapped under
// live traffic with PUT /v1/models/NAME; SIGINT/SIGTERM drain in-flight
// requests before exit.
//
// Example:
//
//	dtree -n 50000 -algo sprint -save model.json
//	dtree -n 50000 -algo hunt -forest 100 -save grove.json
//	dtserve -addr :8080 -model quest=model.json -model grove=grove.json &
//	curl -s localhost:8080/v1/predict -X POST -d '{
//	  "model": "quest",
//	  "records": [{"salary": 60000, "commission": 0, "age": 35,
//	               "elevel": "level2", "car": "make3", "zipcode": "zip4",
//	               "hvalue": 150000, "hyears": 12, "loan": 20000}]}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"partree/internal/serve"
)

// preload checksum-verifies one model file against its .sha256 sidecar
// (written by dtree -save; absent sidecars verify trivially) and loads it
// into the registry.
func preload(reg *serve.Registry, name, path string) (*serve.Entry, error) {
	if verified, err := serve.VerifyFileChecksum(path); err != nil {
		return nil, err
	} else if verified {
		fmt.Printf("checksum verified for %s\n", path)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return reg.Load(name, f)
}

// modelFlags collects repeated -model name=path pairs.
type modelFlags []string

func (m *modelFlags) String() string { return strings.Join(*m, ",") }
func (m *modelFlags) Set(v string) error {
	*m = append(*m, v)
	return nil
}

func main() {
	var models modelFlags
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", 0, "prediction workers (0 = GOMAXPROCS)")
		maxBatch = flag.Int("max-batch", 100000, "largest accepted predict batch")
		timeout  = flag.Duration("timeout", 30*time.Second, "per-request handling timeout")
		drain    = flag.Duration("drain-timeout", 10*time.Second, "shutdown drain window; connections still open when it expires are force-closed")
		maxInfl  = flag.Int("max-inflight", 256, "concurrent /v1/ requests before shedding with 429 (negative disables)")
		brkFails = flag.Int("breaker-threshold", 3, "consecutive model-load failures that open the load circuit breaker")
		brkCool  = flag.Duration("breaker-cooldown", 5*time.Second, "how long an open load breaker rejects swaps before probing")
	)
	flag.Var(&models, "model", "model to preload, as name=path/to/model.json (repeatable)")
	flag.Parse()

	srv := serve.New(serve.Config{
		MaxBatch:         *maxBatch,
		RequestTimeout:   *timeout,
		ShutdownGrace:    *drain,
		Workers:          *workers,
		MaxInflight:      *maxInfl,
		BreakerThreshold: *brkFails,
		BreakerCooldown:  *brkCool,
	})
	for _, spec := range models {
		name, path, ok := strings.Cut(spec, "=")
		if !ok || name == "" || path == "" {
			fmt.Fprintf(os.Stderr, "dtserve: -model wants name=path, got %q\n", spec)
			os.Exit(2)
		}
		// A model that cannot be preloaded — unreadable, failing its
		// checksum sidecar, or unparseable — is skipped with a degraded
		// mark instead of failing boot: the remaining models still serve,
		// /healthz reports "degraded", and a later PUT can repair the name.
		if e, err := preload(srv.Registry(), name, path); err != nil {
			fmt.Fprintf(os.Stderr, "dtserve: model %q degraded, serving without it: %v\n", name, err)
			srv.Registry().SetDegraded(name, err.Error())
		} else {
			fmt.Printf("loaded %s %q from %s (%d trees, %d nodes, %d leaves)\n",
				e.Kind, e.Name, path, e.Model.Trees(), e.Model.Nodes(), e.Model.Leaves())
		}
	}

	if deg := srv.Registry().Degraded(); len(deg) > 0 {
		fmt.Printf("dtserve: %d model(s) degraded at boot; /healthz reports details\n", len(deg))
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	fmt.Printf("dtserve listening on %s (%d models)\n", *addr, srv.Registry().Len())
	err := srv.ListenAndServe(ctx, *addr)
	srv.Close()
	if errors.Is(err, serve.ErrDrainTimeout) {
		fmt.Printf("dtserve: drain window of %s expired; forced close of remaining connections\n", *drain)
		return
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "dtserve:", err)
		os.Exit(1)
	}
	fmt.Println("dtserve: drained and stopped")
}
