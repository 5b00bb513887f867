package predict_test

import (
	"sync"
	"testing"

	"partree/internal/dataset"
	"partree/internal/forest"
	"partree/internal/predict"
	"partree/internal/quest"
	"partree/internal/sprint"
	"partree/internal/tree"
)

// compiled grows a tree on half of a function-2 sample and compiles it
// as a 1-tree forest, the single-tree serving form.
func compiled(t *testing.T, n int, seed uint64) (*forest.Fused, *tree.Tree, *dataset.Dataset) {
	t.Helper()
	d, err := quest.Generate(quest.Config{Function: 2, Seed: seed}, n)
	if err != nil {
		t.Fatal(err)
	}
	tr := tree.BuildHunt(d.Slice(0, n/2), tree.Options{Binary: true, MaxDepth: 10})
	return compile(t, tr), tr, d
}

func compile(t *testing.T, tr *tree.Tree) *forest.Fused {
	t.Helper()
	fz, err := forest.Compile(&forest.Forest{Trees: []*tree.Tree{tr}})
	if err != nil {
		t.Fatal(err)
	}
	return fz
}

// assertBatches runs every batch size through the engine and checks each
// row against the pointer walk.
func assertBatches(t *testing.T, eng *predict.Engine, tr *tree.Tree, d *dataset.Dataset, sizes []int) {
	t.Helper()
	for _, n := range sizes {
		batch := d.Slice(0, n)
		out := make([]int32, n)
		if err := eng.PredictBatch(batch, out); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i++ {
			if want := tr.ClassifyRow(batch, i); out[i] != want {
				t.Fatalf("n=%d row %d: batch %d, pointer walk %d", n, i, out[i], want)
			}
		}
	}
}

// TestPredictBatchMatchesSerial: the sharded batch path must agree with
// the row-at-a-time pointer walk on every row, for batch sizes around
// the inline/sharded threshold.
func TestPredictBatchMatchesSerial(t *testing.T) {
	fz, tr, d := compiled(t, 6000, 9)
	pool := predict.NewPool(4)
	defer pool.Close()
	eng := predict.NewEngine(pool, fz)
	assertBatches(t, eng, tr, d, []int{1, 17, 255, 256, 4096, d.Len()})
	st := eng.Stats()
	if st.Batches != 6 || st.Rows == 0 {
		t.Fatalf("engine stats not recorded: %+v", st)
	}
	if ps := pool.Stats(); ps.Rows != st.Rows {
		t.Fatalf("pool rows %d != engine rows %d", ps.Rows, st.Rows)
	}
}

// TestPredictBatchDeepTree: an unpruned SPRINT tree on function 9 —
// about 1.4k nodes over 18 levels, the shape of a production serving
// tree — served through the engine at batch sizes on both sides of the
// vote tile and the inline/sharded threshold, and through the naive
// member walk, equals the pointer walk on every training and held-out
// row. Training rows reach the deepest leaves, so this pins the
// unchecked step walk at Depths ≥ 18, far deeper than the forest tests'
// depth caps.
func TestPredictBatchDeepTree(t *testing.T) {
	d, err := quest.Generate(quest.Config{Function: 9, Seed: 1}, 54096)
	if err != nil {
		t.Fatal(err)
	}
	tr := sprint.Build(d.Slice(0, 50000), tree.Options{Binary: true})
	fz := compile(t, tr)
	if st := tr.Stats(); st.MaxDepth < 18 || st.Nodes < 1000 || fz.Depths[0] != int32(st.MaxDepth) {
		t.Fatalf("tree has %d nodes over %d levels, fused depth %d; want a deep tree", st.Nodes, st.MaxDepth, fz.Depths[0])
	}
	pool := predict.NewPool(4)
	defer pool.Close()
	assertBatches(t, predict.NewEngine(pool, fz), tr, d, []int{1, 255, 256, 257, 4096, d.Len()})
	naive := make([]int32, d.Len())
	fz.PredictNaiveInto(d, naive, 0, d.Len())
	for i, c := range naive {
		if want := tr.ClassifyRow(d, i); c != want {
			t.Fatalf("row %d: naive %d, pointer walk %d", i, c, want)
		}
	}
}

// TestPredictBatchConcurrent hammers one pool from many goroutines and
// two engines (the serving hot-swap shape) under the race detector.
func TestPredictBatchConcurrent(t *testing.T) {
	m1, _, d := compiled(t, 4000, 3)
	m2, _, _ := compiled(t, 4000, 4)
	pool := predict.NewPool(4)
	defer pool.Close()
	engines := []*predict.Engine{predict.NewEngine(pool, m1), predict.NewEngine(pool, m2)}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			eng := engines[g%2]
			out := make([]int32, d.Len())
			for iter := 0; iter < 5; iter++ {
				if err := eng.PredictBatch(d, out); err != nil {
					t.Error(err)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if ps := pool.Stats(); ps.Batches != 40 || ps.Rows != int64(40*d.Len()) {
		t.Fatalf("pool counters off: %+v", ps)
	}
}

// TestPredictBatchErrors covers the guard rails: short output buffer and
// mismatched schema.
func TestPredictBatchErrors(t *testing.T) {
	m, _, d := compiled(t, 1000, 5)
	pool := predict.NewPool(2)
	defer pool.Close()
	eng := predict.NewEngine(pool, m)
	if err := eng.PredictBatch(d, make([]int32, d.Len()-1)); err == nil {
		t.Error("short output buffer accepted")
	}
	other := dataset.New(&dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "only", Kind: dataset.Continuous}},
		Classes: []string{"a", "b"},
	}, 0)
	if err := eng.PredictBatch(other, nil); err == nil {
		t.Error("mismatched schema accepted")
	}
}

// TestStatsThroughput sanity-checks the derived metric.
func TestStatsThroughput(t *testing.T) {
	s := predict.Stats{Rows: 2000, WallNS: 1e9}
	if got := s.Throughput(); got != 2000 {
		t.Fatalf("throughput %v, want 2000", got)
	}
	if (predict.Stats{}).Throughput() != 0 {
		t.Fatal("zero stats must report zero throughput")
	}
}
