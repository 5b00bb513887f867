package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"partree/internal/core"
	"partree/internal/dataset"
	"partree/internal/discretize"
	"partree/internal/mp"
	"partree/internal/quest"
	"partree/internal/tree"
)

// trainSpec sizes one training workload. A run trains on a suite of
// Datasets independent datasets drawn from the run's seed: a tree grown
// to purity fits the generator's noise, so its size and build time vary
// from seed to seed, and the suite averages that out of the reported
// figures. A tree capped at a small depth reads every row on every level
// whatever the seed, and needs a suite of one.
type trainSpec struct {
	Function  int // Quest classification function
	Datasets  int // datasets in the suite
	Rows      int // rows per dataset
	Procs     int // modeled ranks (goroutines)
	MaxDepth  int // 0: grow to purity
	OOC       bool
	ChunkRows int // store chunk size (OOC only)
}

// The training workloads: the paper's headline configuration (hybrid,
// P=8, in RAM) and the chunked-store synchronous build.
var (
	hybridSpec = trainSpec{Function: 2, Datasets: 3, Rows: 300_000, Procs: 8}
	oocSpec    = trainSpec{Function: 2, Datasets: 1, Rows: 2_000_000, Procs: 4, MaxDepth: 8, OOC: true, ChunkRows: 8192}
)

// options are the parallel build's options: paper uniform
// discretization is applied to the data, splits are binary.
func (s trainSpec) options() core.Options {
	return core.Options{Tree: tree.Options{Binary: true, MaxDepth: s.MaxDepth}}
}

// subSeed is the generator seed of dataset k of the suite of seed.
func subSeed(seed uint64, k int) uint64 { return seed<<8 | uint64(k) }

// setupSpans are one set-up repetition's span totals.
type setupSpans struct{ generate, discretize, write time.Duration }

// generate makes one dataset's discretized rows.
func (s trainSpec) generate(seed uint64, sp *setupSpans) (*dataset.Dataset, error) {
	t0 := time.Now()
	d, err := quest.GenerateBlock(quest.Config{Function: s.Function, Seed: seed}, 0, s.Rows)
	if err != nil {
		return nil, fmt.Errorf("generate: %w", err)
	}
	t1 := time.Now()
	d = discretize.UniformPaper(d, quest.PaperBins(), quest.Ranges())
	sp.generate += t1.Sub(t0)
	sp.discretize += time.Since(t1)
	return d, nil
}

// trainSet is one dataset of the suite and the builds made on it.
type trainSet struct {
	d      *dataset.Dataset // discretized rows (in-RAM workload, until partitioned)
	store  *dataset.Store   // OOC only
	serial tree.Options     // the serial reference's options
	ref    *tree.Tree
	b      *builder
	gate   *buildGate
	secs   []float64  // timed builds
	built  *tree.Tree // last build's rank-0 tree
	world  *mp.World  // last build's
}

// setup generates the suite's rows and, for OOC, writes each dataset to
// a store and drops its rows.
func (s trainSpec) setup(cfg runConfig, rec *recorder, rep int) ([]*trainSet, error) {
	var sp setupSpans
	var storeMB float64
	sets := make([]*trainSet, s.Datasets)
	for k := range sets {
		d, err := s.generate(subSeed(cfg.Seed, k), &sp)
		if err != nil {
			return sets, err
		}
		set := &trainSet{}
		sets[k] = set
		if !s.OOC {
			set.d = d
			continue
		}
		dir := filepath.Join(cfg.WorkDir, fmt.Sprintf("store-%d-%d", rep, k))
		if err := os.RemoveAll(dir); err != nil {
			return sets, err
		}
		t0 := time.Now()
		if err := dataset.WriteStore(dir, d.Chunked(s.ChunkRows), s.ChunkRows); err != nil {
			return sets, fmt.Errorf("write store: %w", err)
		}
		sp.write += time.Since(t0)
		if set.store, err = dataset.OpenStore(dir); err != nil {
			return sets, fmt.Errorf("open store: %w", err)
		}
		mb, err := dirMB(dir)
		if err != nil {
			return sets, err
		}
		storeMB += mb
	}
	rec.span("quest.generate_s", sp.generate)
	rec.span("discretize.uniform_s", sp.discretize)
	if s.OOC {
		rec.span("dataset.write_store_s", sp.write)
		rec.set("dataset.store_mb", storeMB)
	}
	return sets, nil
}

func closeSets(sets []*trainSet) {
	for _, set := range sets {
		if set != nil && set.store != nil {
			set.store.Close()
			os.RemoveAll(set.store.Dir())
		}
	}
}

// reference builds dataset k's serial reference tree: tree.BuildBFS in
// RAM, tree.BuildBFSOOC over the store.
func (s trainSpec) reference(cfg runConfig, k int, set *trainSet) error {
	var err error
	if s.OOC {
		if set.serial, err = s.options().SerialOptionsTable(set.store); err != nil {
			return err
		}
	} else {
		set.serial = s.options().SerialOptions(set.d)
	}
	if cfg.refSeedDelta != 0 {
		other, err := s.generate(subSeed(cfg.Seed+cfg.refSeedDelta, k), &setupSpans{})
		if err != nil {
			return err
		}
		set.ref = tree.BuildBFS(other, set.serial)
		return nil
	}
	if s.OOC {
		set.ref, err = tree.BuildBFSOOC(set.store, set.serial)
		return err
	}
	set.ref = tree.BuildBFS(set.d, set.serial)
	return nil
}

// builder runs one parallel build of one dataset on a fresh modeled world.
type builder struct {
	spec     trainSpec
	blocks   []*dataset.Dataset // hybrid: rank blocks
	sections []dataset.Table    // OOC: rank sections of the store
}

func newBuilder(s trainSpec, set *trainSet) *builder {
	b := &builder{spec: s}
	if s.OOC {
		for r := 0; r < s.Procs; r++ {
			lo, hi := dataset.BlockBounds(set.store.Len(), s.Procs, r)
			b.sections = append(b.sections, dataset.SectionOf(set.store, lo, hi))
		}
	} else {
		b.blocks = set.d.BlockPartition(s.Procs)
	}
	return b
}

// build returns every rank's tree and the world that ran them. wrap, when
// non-nil, replaces each OOC rank section (the in-place timing hook).
func (b *builder) build(wrap func(dataset.Table) dataset.Table) ([]*tree.Tree, *mp.World, error) {
	p := b.spec.Procs
	w := mp.NewWorld(p, mp.SP2())
	trees := make([]*tree.Tree, p)
	errs := make([]error, p)
	o := b.spec.options()
	w.Run(func(c *mp.Comm) {
		r := c.Rank()
		if !b.spec.OOC {
			trees[r] = core.BuildHybrid(c, b.blocks[r], o)
			return
		}
		t := b.sections[r]
		if wrap != nil {
			t = wrap(t)
		}
		trees[r], errs[r] = core.BuildSyncOOC(c, t, o)
	})
	return trees, w, errors.Join(errs...)
}

// buildGate checks the builds of one dataset: no error, every rank's
// tree equal to the serial reference, and the modeled clock and traffic
// equal to the first build's.
type buildGate struct {
	ref     *tree.Tree
	builds  int
	modeled float64
	bytes   int64
}

func (g *buildGate) check(trees []*tree.Tree, w *mp.World, err error) string {
	what := fmt.Sprintf("build %d", g.builds)
	g.builds++
	if err != nil {
		return fmt.Sprintf("%s: %v", what, err)
	}
	for r, t := range trees {
		if t == nil || !tree.Equal(t, g.ref) {
			return fmt.Sprintf("%s: rank %d tree differs from the serial reference", what, r)
		}
	}
	modeled, bytes := w.MaxClock(), w.Traffic().Bytes
	if g.builds == 1 {
		g.modeled, g.bytes = modeled, bytes
	} else if modeled != g.modeled || bytes != g.bytes {
		return fmt.Sprintf("%s: modeled %.9g s / %d B, first build %.9g s / %d B",
			what, modeled, bytes, g.modeled, g.bytes)
	}
	return ""
}

// runTrain is a training workload: set-up, a serial reference build per
// dataset, then rounds of one parallel build per dataset for the run's
// window, each gated against its reference. A traced run adds the
// level-loop replays and, for OOC, one build per dataset with timed
// chunk reads.
func runTrain(s trainSpec, cfg runConfig, rec *recorder) error {
	var sets []*trainSet
	defer func() { closeSets(sets) }()
	err := repeatSetup(rec, func(rep int) error {
		var err error
		sets, err = s.setup(cfg, rec, rep)
		return err
	}, func() {
		closeSets(sets)
		sets = nil
	})
	if err != nil {
		return err
	}

	var bfs time.Duration
	nodes := 0
	for k, set := range sets {
		t0 := time.Now()
		if err := s.reference(cfg, k, set); err != nil {
			return fmt.Errorf("reference: %w", err)
		}
		bfs += time.Since(t0)
		nodes += set.ref.Stats().Nodes
		set.b = newBuilder(s, set)
		set.d = nil // the builds read the rank blocks; a replay regenerates the rows
		set.gate = &buildGate{ref: set.ref}
	}
	rec.set("tree.bfs_s", bfs.Seconds())
	rec.set("tree.nodes", float64(nodes))

	// peak_rss_mb is the median over the timed builds of each build's
	// peak resident set, which leaves set-up and the reference builds out.
	var peaks []float64
	start := time.Now()
	for time.Since(start).Seconds() < cfg.Seconds || len(sets[0].secs) == 0 {
		for _, set := range sets {
			if err := resetPeakRSS(); err != nil {
				return err
			}
			t0 := time.Now()
			trees, w, err := set.b.build(nil)
			set.secs = append(set.secs, time.Since(t0).Seconds())
			peak, perr := peakRSSMB()
			if perr != nil {
				return perr
			}
			peaks = append(peaks, peak)
			rec.op(set.gate.check(trees, w, err))
			set.built, set.world = trees[0], w
		}
	}
	rec.set("peak_rss_mb", median(peaks))
	var sumMed float64
	builds := 0
	for _, set := range sets {
		sumMed += median(set.secs)
		builds += len(set.secs)
		recordWorld(rec, set.world)
	}
	k := float64(len(sets))
	rec.set("bench.op_samples", float64(builds))
	rec.set("rows_per_s", k*float64(s.Rows)/sumMed)
	rec.set("p50_ms", sumMed/k*1e3)
	// A run makes too few builds per dataset for a tail percentile, so
	// p99_ms repeats the median build time.
	rec.set("p99_ms", sumMed/k*1e3)

	if cfg.Trace {
		return traceTrain(s, cfg, sets, sumMed, rec)
	}
	return nil
}

// recordWorld adds the modeled-machine accounting of a build to the
// suite's totals.
func recordWorld(rec *recorder, w *mp.World) {
	tf := w.Traffic()
	bd := w.Breakdown()
	rec.add("mp.modeled_s", w.MaxClock())
	rec.add("mp.comm_bytes", float64(tf.Bytes))
	rec.add("mp.msgs", float64(tf.Msgs))
	rec.add("mp.comm_s", tf.CommTime)
	rec.add("mp.comp_s", tf.CompTime)
	rec.add("mp.disk_bytes", float64(tf.DiskBytes))
	for _, ph := range []string{core.PhaseStatistics, core.PhaseReduction, core.PhaseMoving, core.PhaseLoadBalance, core.PhaseAssembly} {
		rec.add("mp."+ph+".comm_s", bd.Phase(ph).CommTime)
	}
}

// traceTrain is the traced part of a training run: per dataset, the
// serial level-loop replay through public functions, gated equal to the
// timed build's tree, and for OOC one more parallel build whose chunk
// reads are timed in place, gated like a timed build.
func traceTrain(s trainSpec, cfg runConfig, sets []*trainSet, sumMed float64, rec *recorder) error {
	var sp replaySpans
	var ns, bytes atomic.Int64
	var wall float64
	for k, set := range sets {
		var rp *tree.Tree
		if s.OOC {
			var err error
			if rp, err = replayOOC(set.store, set.serial, &sp); err != nil {
				return err
			}
		} else {
			d, err := s.generate(subSeed(cfg.Seed, k), &setupSpans{})
			if err != nil {
				return err
			}
			rp = replayRAM(d, set.serial, &sp)
		}
		if tree.Equal(rp, set.built) {
			rec.op("")
		} else {
			rec.op(fmt.Sprintf("dataset %d: replayed tree differs from the timed build's", k))
		}
		if !s.OOC {
			continue
		}
		t0 := time.Now()
		trees, w, err := set.b.build(func(t dataset.Table) dataset.Table {
			return timedTable{Table: t, ns: &ns, bytes: &bytes}
		})
		wall += time.Since(t0).Seconds()
		rec.op(set.gate.check(trees, w, err))
	}
	sp.record(rec)
	if s.OOC {
		rec.set("dataset.inplace_read_chunk_s", float64(ns.Load())/1e9)
		rec.set("dataset.read_mb", float64(bytes.Load())/1e6)
		rec.set("bench.trace_overhead", wall/sumMed)
	}
	return nil
}

// timedTable times every ReadChunk of the table it wraps. The ranks of a
// build read concurrently, so the total is summed over ranks.
type timedTable struct {
	dataset.Table
	ns, bytes *atomic.Int64
}

func (t timedTable) ReadChunk(k int, ch *dataset.Chunk) (int64, error) {
	t0 := time.Now()
	n, err := t.Table.ReadChunk(k, ch)
	t.ns.Add(int64(time.Since(t0)))
	t.bytes.Add(n)
	return n, err
}
