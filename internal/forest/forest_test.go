package forest

import (
	"fmt"
	"strings"
	"testing"

	"partree/internal/dataset"
	"partree/internal/quest"
	"partree/internal/tree"
)

func testData(t *testing.T, n int) *dataset.Dataset {
	t.Helper()
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 77}, n)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	return d
}

func TestConfigValidate(t *testing.T) {
	cases := []struct {
		cfg  Config
		want string
	}{
		{Config{Trees: 0}, "Trees"},
		{Config{Trees: 3, Builder: "cart"}, "unknown builder"},
		{Config{Trees: 3, FeatureFraction: 1.5}, "FeatureFraction"},
		{Config{Trees: 3, FeatureFraction: -0.1}, "FeatureFraction"},
	}
	for _, c := range cases {
		err := c.cfg.Validate()
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("Validate(%+v) = %v, want error containing %q", c.cfg, err, c.want)
		}
	}
	if err := (Config{Trees: 1}).Validate(); err != nil {
		t.Errorf("minimal config rejected: %v", err)
	}
}

func TestBootstrapIndicesDeterministic(t *testing.T) {
	a := BootstrapIndices(9, 3, 500)
	b := BootstrapIndices(9, 3, 500)
	if len(a) != 500 {
		t.Fatalf("got %d draws, want 500", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("draw %d differs between identical calls: %d vs %d", i, a[i], b[i])
		}
		if a[i] < 0 || a[i] >= 500 {
			t.Fatalf("draw %d = %d out of range", i, a[i])
		}
	}
	c := BootstrapIndices(9, 4, 500)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("members 3 and 4 drew identical bootstrap samples")
	}
}

func TestSubspace(t *testing.T) {
	if got := subspace(1, 0, 10, 0); got != nil {
		t.Fatalf("frac 0 => full schema, got %v", got)
	}
	if got := subspace(1, 0, 10, 1); got != nil {
		t.Fatalf("frac 1 => full schema, got %v", got)
	}
	a := subspace(1, 2, 10, 0.5)
	b := subspace(1, 2, 10, 0.5)
	if len(a) != 5 {
		t.Fatalf("frac 0.5 of 10 attrs => 5, got %d", len(a))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("subspace is not deterministic")
		}
		if i > 0 && a[i] <= a[i-1] {
			t.Fatalf("subspace not sorted/unique: %v", a)
		}
	}
	if got := subspace(1, 0, 10, 0.01); len(got) != 1 {
		t.Fatalf("tiny fraction must keep one attribute, got %v", got)
	}
}

// TestTrainWorkerCountInvariance: the forest is bit-identical however many
// trainer goroutines schedule the member builds — the determinism contract
// of the package doc.
func TestTrainWorkerCountInvariance(t *testing.T) {
	d := testData(t, 1200)
	cfg := Config{
		Trees:           8,
		Builder:         "hunt",
		Seed:            42,
		Bootstrap:       true,
		FeatureFraction: 0.6,
		Tree:            tree.Options{Binary: true},
	}
	cfg.Workers = 1
	one, err := Train(d, cfg)
	if err != nil {
		t.Fatalf("train workers=1: %v", err)
	}
	cfg.Workers = 5
	many, err := Train(d, cfg)
	if err != nil {
		t.Fatalf("train workers=5: %v", err)
	}
	for m := range one.Trees {
		if diff := tree.Diff(one.Trees[m], many.Trees[m]); diff != "" {
			t.Fatalf("member %d differs between worker counts: %s", m, diff)
		}
	}
}

// TestTrainSeedSensitivity: a different master seed grows a different
// forest (bootstrap samples actually vary).
func TestTrainSeedSensitivity(t *testing.T) {
	d := testData(t, 800)
	cfg := Config{Trees: 4, Seed: 1, Bootstrap: true, Tree: tree.Options{Binary: true}}
	a, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 2
	b, err := Train(d, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for m := range a.Trees {
		if tree.Diff(a.Trees[m], b.Trees[m]) != "" {
			return // at least one member differs: seeds matter
		}
	}
	t.Fatal("forests under different seeds are identical")
}

// TestTrainLeavesInputUntouched: training with bootstrap + subspace must
// not mutate the caller's dataset (projection views share columns).
func TestTrainLeavesInputUntouched(t *testing.T) {
	d := testData(t, 600)
	class := append([]int32(nil), d.Class...)
	rid := append([]int64(nil), d.RID...)
	col := append([]float64(nil), d.Cont[0]...)
	if _, err := Train(d, Config{Trees: 5, Seed: 7, Bootstrap: true, FeatureFraction: 0.5, Tree: tree.Options{Binary: true}}); err != nil {
		t.Fatal(err)
	}
	for i := range class {
		if d.Class[i] != class[i] || d.RID[i] != rid[i] || d.Cont[0][i] != col[i] {
			t.Fatalf("row %d of the training set was mutated", i)
		}
	}
}

// TestFusedMatchesNaive: the fused interleaved walk votes bit-identically
// to member-by-member aggregation through the bounds-checked walk, under
// both vote modes.
func TestFusedMatchesNaive(t *testing.T) {
	train := testData(t, 1500)
	test := testData(t, 2000)
	f, err := Train(train, Config{
		Trees:           12,
		Seed:            5,
		Bootstrap:       true,
		FeatureFraction: 0.7,
		Tree:            tree.Options{Binary: true, MaxDepth: 10},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []VoteMode{Majority, Weighted} {
		f.Vote = mode
		f.Weights = nil
		if mode == Weighted {
			f.Weights = make([]float64, len(f.Trees))
			for i := range f.Weights {
				// Distinct irrational-ish weights so float-sum order matters.
				f.Weights[i] = 0.31 + 0.173*float64(i)
			}
		}
		fz, err := Compile(f)
		if err != nil {
			t.Fatal(err)
		}
		fused := make([]int32, test.Len())
		naive := make([]int32, test.Len())
		fz.PredictInto(test, fused, 0, test.Len())
		fz.PredictNaiveInto(test, naive, 0, test.Len())
		for r := range fused {
			if fused[r] != naive[r] {
				t.Fatalf("%v: row %d fused=%d naive=%d", mode, r, fused[r], naive[r])
			}
		}
		// Single-row path agrees with the batch paths.
		for _, r := range []int{0, 1, 255, 256, 257, test.Len() - 1} {
			if got := fz.Predict(test, r); got != fused[r] {
				t.Fatalf("%v: row %d Predict=%d batch=%d", mode, r, got, fused[r])
			}
		}
	}
}

// fallbackTree is a hand-built tree exercising Case 3 of Hunt's method:
// a multiway root of class 1 whose child 1 is nil (falls back to the
// root's class) and whose child 2 is an empty (N = 0) internal node of
// class 0 splitting on x, with a left leaf holding data and an empty
// right leaf (falls back past the empty internal node to the root's
// class). Category codes beyond the root's three children route out of
// range to the root's class. Every other node predicts class 0, so each
// fallback is visible. rows holds one row per path.
func fallbackTree() (tr *tree.Tree, rows *dataset.Dataset) {
	s := &dataset.Schema{
		Attrs: []dataset.Attribute{
			{Name: "color", Kind: dataset.Categorical, Values: []string{"r", "g", "b", "w"}},
			{Name: "x", Kind: dataset.Continuous},
		},
		Classes: []string{"no", "yes"},
	}
	leafR := &tree.Node{Kind: tree.Leaf, Class: 0, N: 5, Dist: []int64{4, 1}, Depth: 1}
	leafBL := &tree.Node{Kind: tree.Leaf, Class: 0, N: 2, Dist: []int64{2, 0}, Depth: 2}
	leafBR := &tree.Node{Kind: tree.Leaf, Class: 0, N: 0, Dist: []int64{0, 0}, Depth: 2}
	emptyB := &tree.Node{
		Kind: tree.ContBinary, Attr: 1, Thresh: 10, Class: 0, N: 0,
		Dist: []int64{0, 0}, Depth: 1, Children: []*tree.Node{leafBL, leafBR},
	}
	root := &tree.Node{
		Kind: tree.CatMultiway, Attr: 0, Class: 1, N: 9,
		Dist: []int64{4, 5}, Children: []*tree.Node{leafR, nil, emptyB},
	}
	rows = dataset.New(s, 5)
	for _, c := range []struct {
		color int32
		x     float64
	}{
		{0, 0},  // leaf with data
		{1, 0},  // nil child → root fallback
		{2, 5},  // through the empty internal node to a leaf with data
		{2, 20}, // empty leaf under the empty internal node → root fallback
		{3, 0},  // category past the root's children → root fallback
	} {
		rows.Append(dataset.Record{Cat: []int32{c.color, 0}, Cont: []float64{0, c.x}})
	}
	return &tree.Tree{Schema: s, Root: root}, rows
}

// TestSingleMemberFusedMatchesPointerWalk: a single tree compiled as a
// 1-tree forest predicts exactly what the pointer walk (tree.ClassifyRow
// and tree.Classify) predicts, on train and held-out rows, through the
// step walk, the bounds-checked walk, the naive baseline and the
// single-row path. The inputs cover trees from the four serial builders,
// multiway categorical tests and the breadth-first builder's binned
// continuous tests, binary and multiway (these take the bounds-checked
// walk), and a hand-built tree with nil children, an empty internal node
// and out-of-range multiway codes. The root identity test extends this
// to forest-trained members of all nine builders.
func TestSingleMemberFusedMatchesPointerWalk(t *testing.T) {
	d, err := quest.Generate(quest.Config{Function: 2, Seed: 42}, 4000)
	if err != nil {
		t.Fatal(err)
	}
	train, test := d.Slice(0, 3000), d.Slice(3000, 4000)
	build := func(builder string, o tree.Options) *tree.Tree {
		tr, err := buildOne(Config{Builder: builder, Procs: 2, Tree: o}, train)
		if err != nil {
			t.Fatal(err)
		}
		return tr
	}
	binary := tree.Options{Binary: true, MaxDepth: 12}
	fb, fbRows := fallbackTree()
	cases := []struct {
		name string
		tr   *tree.Tree
		data []*dataset.Dataset
		fast bool // whether the step walk must qualify
	}{
		{"hunt", build("hunt", binary), []*dataset.Dataset{train, test}, true},
		{"sliq", build("sliq", binary), []*dataset.Dataset{train, test}, true},
		{"sprint", build("sprint", binary), []*dataset.Dataset{train, test}, true},
		{"scalparc", build("scalparc", binary), []*dataset.Dataset{train, test}, true},
		{"multiway", build("hunt", tree.Options{Binary: false, MaxDepth: 10}), []*dataset.Dataset{train, test}, false},
		{"binned", build("bfs", tree.Options{Binary: true, MaxDepth: 10}), []*dataset.Dataset{train, test}, false},
		{"binned-multiway", build("bfs", tree.Options{Binary: false, MaxDepth: 10}), []*dataset.Dataset{train, test}, false},
		{"fallbacks", fb, []*dataset.Dataset{fbRows}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			fz, err := Compile(&Forest{Trees: []*tree.Tree{c.tr}})
			if err != nil {
				t.Fatal(err)
			}
			if fz.Trees() != 1 || fz.fast != c.fast {
				t.Fatalf("fused has %d trees, step walk %v; want 1 tree, step walk %v", fz.Trees(), fz.fast, c.fast)
			}
			for _, d := range c.data {
				n := d.Len()
				fused := make([]int32, n)
				naive := make([]int32, n)
				fz.PredictInto(d, fused, 0, n)
				fz.PredictNaiveInto(d, naive, 0, n)
				for r := 0; r < n; r++ {
					want := c.tr.ClassifyRow(d, r)
					rec := d.Row(r)
					if rw := c.tr.Classify(&rec); rw != want {
						t.Fatalf("row %d: pointer record walk %d, row walk %d", r, rw, want)
					}
					if fused[r] != want || naive[r] != want || fz.Predict(d, r) != want {
						t.Fatalf("row %d: fused=%d naive=%d single=%d, pointer walk %d",
							r, fused[r], naive[r], fz.Predict(d, r), want)
					}
				}
				if pa, fa := c.tr.Accuracy(d), fz.Accuracy(d); pa != fa {
					t.Fatalf("accuracy diverges: pointer %v, fused %v", pa, fa)
				}
			}
		})
	}
}

// TestCompileRejectsMalformed checks the compiler's own validation: no
// trees, a nil or rootless member, an attribute outside the schema, a
// child count the split kind does not imply, mismatched weights, and
// members whose schemas cannot share one table.
func TestCompileRejectsMalformed(t *testing.T) {
	s := &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "x", Kind: dataset.Continuous}},
		Classes: []string{"a", "b"},
	}
	leaf := &tree.Tree{Schema: s, Root: &tree.Node{Kind: tree.Leaf, N: 1, Dist: []int64{1, 0}}}
	other := &tree.Tree{Root: leaf.Root, Schema: &dataset.Schema{
		Attrs:   []dataset.Attribute{{Name: "c", Kind: dataset.Categorical, Values: []string{"u", "v"}}},
		Classes: []string{"a", "b"},
	}}
	cases := []struct {
		name string
		f    *Forest
		want string
	}{
		{"nil forest", nil, "empty forest"},
		{"no trees", &Forest{}, "empty forest"},
		{"nil tree", &Forest{Trees: []*tree.Tree{nil}}, "nil tree"},
		{"rootless tree", &Forest{Trees: []*tree.Tree{{Schema: s}}}, "nil tree"},
		{"attribute out of range", &Forest{Trees: []*tree.Tree{{Schema: s, Root: &tree.Node{
			Kind: tree.ContBinary, Attr: 5, Children: []*tree.Node{nil, nil},
		}}}}, "out of schema range"},
		{"child count", &Forest{Trees: []*tree.Tree{{Schema: s, Root: &tree.Node{
			Kind: tree.ContBinary, Attr: 0, Children: []*tree.Node{nil},
		}}}}, "kind implies"},
		{"weight count", &Forest{Trees: []*tree.Tree{leaf, leaf}, Weights: []float64{1}}, "weights"},
		{"schema mismatch", &Forest{Trees: []*tree.Tree{leaf, other}}, "member 1"},
	}
	for _, c := range cases {
		if _, err := Compile(c.f); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: Compile error %v, want one mentioning %q", c.name, err, c.want)
		}
	}
}

// slots counts the table entries a pointer subtree compiles to: one per
// node, nil children included (they become synthesized leaves).
func slots(n *tree.Node) int {
	if n == nil {
		return 1
	}
	k := 1
	for _, c := range n.Children {
		k += slots(c)
	}
	return k
}

// TestFusedLayout pins the structural invariants the walks rely on, for
// a 5-tree forest and for a single tree: roots sit at indexes 0..T-1,
// nodes are emitted breadth-first and level-major across members,
// children are contiguous with absolute bases past their parent, leaves
// carry ChildBase -1 and no children, nil children become leaves, and
// Depths[t] is member t's deepest level.
func TestFusedLayout(t *testing.T) {
	d := testData(t, 900)
	for _, trees := range []int{5, 1} {
		t.Run(fmt.Sprintf("trees=%d", trees), func(t *testing.T) { checkFusedLayout(t, d, trees) })
	}
}

func checkFusedLayout(t *testing.T, d *dataset.Dataset, trees int) {
	f, err := Train(d, Config{Trees: trees, Seed: 11, Bootstrap: true, Tree: tree.Options{Binary: true, MaxDepth: 6}})
	if err != nil {
		t.Fatal(err)
	}
	fz, err := Compile(f)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, m := range f.Trees {
		total += slots(m.Root)
	}
	if fz.Nodes() != total {
		t.Fatalf("trees=%d: fused %d nodes, members compile to %d", trees, fz.Nodes(), total)
	}
	depth := make([]int32, fz.Nodes())
	member := make([]int, fz.Nodes())
	for tr, root := range fz.Roots {
		if root != int32(tr) {
			t.Fatalf("member %d root at fused index %d", tr, root)
		}
		member[root] = tr
	}
	maxDepth := make([]int32, trees)
	for i := range fz.Kind {
		if i > 0 && depth[i] < depth[i-1] {
			t.Fatalf("trees=%d: node %d at depth %d follows depth %d: not level-major", trees, i, depth[i], depth[i-1])
		}
		maxDepth[member[i]] = max(maxDepth[member[i]], depth[i])
		if fz.Kind[i] == tree.Leaf {
			if fz.ChildBase[i] != -1 || fz.NumChild[i] != 0 {
				t.Fatalf("leaf %d has child base %d and %d children", i, fz.ChildBase[i], fz.NumChild[i])
			}
			continue
		}
		cb, nc := fz.ChildBase[i], fz.NumChild[i]
		if nc <= 0 || cb <= int32(i) || int(cb+nc) > fz.Nodes() {
			t.Fatalf("node %d children [%d, %d) out of range", i, cb, cb+nc)
		}
		for c := cb; c < cb+nc; c++ {
			depth[c], member[c] = depth[i]+1, member[i]
		}
	}
	for tr := range maxDepth {
		if fz.Depths[tr] != maxDepth[tr] {
			t.Fatalf("trees=%d: member %d Depths %d, deepest node at %d", trees, tr, fz.Depths[tr], maxDepth[tr])
		}
	}
}
