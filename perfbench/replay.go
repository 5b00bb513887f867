package main

import (
	"time"

	"partree/internal/dataset"
	"partree/internal/kernel"
	"partree/internal/tree"
)

// The traced replays re-run the serial breadth-first level loop
// (tree.BuildBFS and tree.BuildBFSOOC) from outside the program, calling
// the same public functions in the same order and timing each call into
// a layer. They grow the serial reference tree, which the timed parallel
// builds must also grow, so the spans describe the work of the tree the
// benchmark timed.

// replaySpans accumulates host time per layer call and the work counts
// over the replays of a suite.
type replaySpans struct {
	tabulate, expand, route, read time.Duration
	levels, rows                  int64
}

func (sp replaySpans) record(rec *recorder) {
	rec.set("kernel.tabulate_s", sp.tabulate.Seconds())
	rec.set("tree.expand_s", sp.expand.Seconds())
	rec.set("tree.route_s", sp.route.Seconds())
	rec.set("dataset.read_chunk_s", sp.read.Seconds())
	rec.set("tree.levels", float64(sp.levels))
	rec.set("kernel.rows_tabulated", float64(sp.rows))
}

// since adds the time elapsed from t0 to *acc.
func since(acc *time.Duration, t0 time.Time) { *acc += time.Since(t0) }

// replayRAM replays tree.BuildBFS over an in-RAM dataset: per node,
// kernel.TabulateInto, then tree.ExpandNodeOOC (split search), then
// tree.PartitionRows for the nodes that split.
func replayRAM(d *dataset.Dataset, o tree.Options, sp *replaySpans) *tree.Tree {
	o = o.WithDefaults()
	s := d.Schema
	root := &tree.Node{ID: 0, Kind: tree.Leaf, Dist: make([]int64, s.NumClasses())}
	ids := tree.NewIDGen(1)
	spec := tree.NewStatsSpec(d, o)
	flat := make([]int64, tree.StatsLen(s, o))
	frontier := []tree.FrontierItem{{Node: root, Idx: d.AllIndex()}}
	for len(frontier) > 0 {
		sp.levels++
		var next []tree.FrontierItem
		for _, it := range frontier {
			clear(flat)
			t0 := time.Now()
			kernel.TabulateInto(flat, it.Idx, spec)
			since(&sp.tabulate, t0)
			sp.rows += int64(len(it.Idx))

			t0 = time.Now()
			kids, childSlot, split := tree.ExpandNodeOOC(it, tree.DecodeStats(flat, s, o), s, o, ids)
			since(&sp.expand, t0)
			if !split {
				continue
			}
			t0 = time.Now()
			parts, _ := tree.PartitionRows(it.Node, d, it.Idx)
			since(&sp.route, t0)
			for ci, part := range parts {
				if sl := childSlot[ci]; sl >= 0 {
					kids[sl].Idx = part
				}
			}
			next = append(next, kids...)
		}
		frontier = next
	}
	return &tree.Tree{Schema: s, Root: root}
}

// replayOOC replays tree.BuildBFSOOC over a chunked table: per level, one
// pass of Table.ReadChunk + kernel.TabulateAssigned, tree.ExpandNodeOOC
// per frontier node, then one pass of Table.ReadChunk +
// tree.RerouteChunk.
func replayOOC(t dataset.Table, o tree.Options, sp *replaySpans) (*tree.Tree, error) {
	o = o.WithDefaults()
	s := t.Schema()
	root := &tree.Node{ID: 0, Kind: tree.Leaf, Dist: make([]int64, s.NumClasses())}
	ids := tree.NewIDGen(1)
	statsLen := tree.StatsLen(s, o)
	spec := tree.NewChunkSpec(s, o)
	slot := make([]int32, t.Len())
	frontier := []tree.FrontierItem{{Node: root}}
	var ch dataset.Chunk
	read := func(k int) error {
		t0 := time.Now()
		_, err := t.ReadChunk(k, &ch)
		since(&sp.read, t0)
		return err
	}
	for len(frontier) > 0 {
		sp.levels++
		blocks := make([]int64, len(frontier)*statsLen)
		for k := 0; k < t.NumChunks(); k++ {
			if err := read(k); err != nil {
				return nil, err
			}
			tree.BindChunk(spec, &ch)
			t0 := time.Now()
			sp.rows += kernel.TabulateAssigned(blocks, statsLen, slot[ch.Lo:ch.Hi], spec)
			since(&sp.tabulate, t0)
		}

		var next []tree.FrontierItem
		childSlots := make([][]int32, len(frontier))
		for j, it := range frontier {
			blk := blocks[j*statsLen : (j+1)*statsLen]
			t0 := time.Now()
			kids, cs, split := tree.ExpandNodeOOC(it, tree.DecodeStats(blk, s, o), s, o, ids)
			since(&sp.expand, t0)
			if !split {
				continue
			}
			base := int32(len(next))
			for ci := range cs {
				if cs[ci] >= 0 {
					cs[ci] += base
				}
			}
			childSlots[j] = cs
			next = append(next, kids...)
		}

		if len(next) > 0 {
			for k := 0; k < t.NumChunks(); k++ {
				if err := read(k); err != nil {
					return nil, err
				}
				t0 := time.Now()
				tree.RerouteChunk(frontier, childSlots, &ch, slot[ch.Lo:ch.Hi])
				since(&sp.route, t0)
			}
		}
		frontier = next
	}
	return &tree.Tree{Schema: s, Root: root}, nil
}
