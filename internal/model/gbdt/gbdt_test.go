package gbdt

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"
)

// synth builds a regression problem with known structure: y depends on
// feature 0 (step), feature 1 (linear), and noise; feature 2 is irrelevant.
func synth(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := 0; i < n; i++ {
		a, b, c := rng.Float64(), rng.Float64(), rng.Float64()
		X[i] = []float64{a, b, c}
		y[i] = 3*b + 0.05*rng.NormFloat64()
		if a > 0.5 {
			y[i] += 2
		}
	}
	return X, y
}

func mse(m *Model, X [][]float64, y []float64) float64 {
	s := 0.0
	for i := range X {
		d := m.Predict(X[i]) - y[i]
		s += d * d
	}
	return s / float64(len(X))
}

func TestTrainReducesError(t *testing.T) {
	X, y := synth(2000, 1)
	m, err := Train(X, y, Params{Trees: 100})
	if err != nil {
		t.Fatal(err)
	}
	Xt, yt := synth(500, 2)
	got := mse(m, Xt, yt)
	// Variance of y is ~ 3^2/12 + 1 ≈ 1.75; a fitted model should be far
	// below it.
	if got > 0.2 {
		t.Fatalf("test MSE = %v, want < 0.2", got)
	}
}

func TestBiasOnlyModel(t *testing.T) {
	// Constant target: every prediction equals the bias regardless of x.
	X := [][]float64{{0}, {1}, {2}, {3}}
	y := []float64{5, 5, 5, 5}
	m, err := Train(X, y, Params{Trees: 3, MinLeafSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Predict([]float64{99}); math.Abs(got-5) > 1e-9 {
		t.Fatalf("constant-target prediction = %v, want 5", got)
	}
}

func TestTrainRejectsBadInput(t *testing.T) {
	if _, err := Train(nil, nil, Params{}); err == nil {
		t.Fatal("empty training set must fail")
	}
	if _, err := Train([][]float64{{1}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatal("mismatched lengths must fail")
	}
	if _, err := Train([][]float64{{1}, {1, 2}}, []float64{1, 2}, Params{}); err == nil {
		t.Fatal("ragged rows must fail")
	}
	// A non-finite value used to train a model whose every prediction was
	// NaN, or whose edges its own decoder refuses; the error names the cell.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		X, y := synth(50, 12)
		y[7] = bad
		if _, err := Train(X, y, Params{Trees: 2}); err == nil || !strings.Contains(err.Error(), "row 7") {
			t.Fatalf("target %v: err = %v, want one naming row 7", bad, err)
		}
		X, y = synth(50, 12)
		X[31][2] = bad
		if _, err := Train(X, y, Params{Trees: 2}); err == nil || !strings.Contains(err.Error(), "row 31 column 2") {
			t.Fatalf("feature %v: err = %v, want one naming row 31 column 2", bad, err)
		}
	}
	for _, p := range []Params{{Trees: -1}, {MaxLeaves: -1}, {MinLeafSamples: -1}, {Bins: -1}} {
		X, y := synth(50, 12)
		if _, err := Train(X, y, p); err == nil {
			t.Fatalf("%+v must fail", p)
		}
	}
}

func TestImportanceIdentifiesRelevantFeatures(t *testing.T) {
	X, y := synth(3000, 3)
	m, err := Train(X, y, Params{Trees: 60})
	if err != nil {
		t.Fatal(err)
	}
	imp := m.Importance()
	if len(imp) != 3 {
		t.Fatalf("importance length = %d", len(imp))
	}
	sum := imp[0] + imp[1] + imp[2]
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("importance sums to %v, want 1", sum)
	}
	// Features 0 and 1 drive the target; feature 2 is noise.
	if imp[2] > 0.05 {
		t.Errorf("irrelevant feature importance = %v, want ~0", imp[2])
	}
	if imp[0] < 0.1 || imp[1] < 0.1 {
		t.Errorf("relevant features under-weighted: %v", imp)
	}
}

func TestDeterministicTraining(t *testing.T) {
	X, y := synth(500, 4)
	m1, err := Train(X, y, Params{Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Train(X, y, Params{Trees: 20})
	if err != nil {
		t.Fatal(err)
	}
	probe := []float64{0.3, 0.7, 0.1}
	if m1.Predict(probe) != m2.Predict(probe) {
		t.Fatal("training is not deterministic")
	}
}

func TestMaxLeavesRespected(t *testing.T) {
	X, y := synth(2000, 5)
	m, err := Train(X, y, Params{Trees: 5, MaxLeaves: 8, MinLeafSamples: 1})
	if err != nil {
		t.Fatal(err)
	}
	for ti, tr := range m.Trees {
		leaves := 0
		for _, n := range tr.Nodes {
			if n.Feature == -1 {
				leaves++
			}
		}
		if leaves > 8 {
			t.Fatalf("tree %d has %d leaves, want <= 8", ti, leaves)
		}
		// A binary tree with L leaves has 2L-1 nodes.
		if len(tr.Nodes) != 2*leaves-1 {
			t.Fatalf("tree %d has %d nodes for %d leaves", ti, len(tr.Nodes), leaves)
		}
	}
}

func TestMinLeafSamplesRespected(t *testing.T) {
	X, y := synth(200, 6)
	m, err := Train(X, y, Params{Trees: 3, MinLeafSamples: 50})
	if err != nil {
		t.Fatal(err)
	}
	// With 200 samples and min 50 per leaf, a tree can have at most 4
	// leaves.
	for _, tr := range m.Trees {
		leaves := 0
		for _, n := range tr.Nodes {
			if n.Feature == -1 {
				leaves++
			}
		}
		if leaves > 4 {
			t.Fatalf("tree has %d leaves despite MinLeafSamples=50", leaves)
		}
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	X, y := synth(500, 7)
	m, err := Train(X, y, Params{Trees: 10})
	if err != nil {
		t.Fatal(err)
	}
	got, err := load(bytes.NewReader(saved(t, m)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		probe := []float64{float64(i) / 20, float64(i%5) / 5, 0.5}
		if got.Predict(probe) != m.Predict(probe) {
			t.Fatalf("prediction mismatch after round trip at probe %d", i)
		}
	}
}

func TestLoadRejectsGarbage(t *testing.T) {
	if _, err := load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage must fail to load")
	}
	if _, err := load(bytes.NewBufferString(`{"num_features":0}`)); err == nil {
		t.Fatal("malformed model must fail to load")
	}
}

// malformedModels are documents that decode but that Predict cannot walk:
// the first four hung or panicked it before the decoder validated trees.
var malformedModels = map[string]string{
	"self-loop":          `{"bias":0,"trees":[{"nodes":[{"f":0,"b":0,"l":0,"r":0,"v":0}]}],"edges":[[1]],"num_features":1}`,
	"feature-too-large":  `{"bias":0,"trees":[{"nodes":[{"f":7,"b":0,"l":1,"r":2,"v":0},{"f":-1,"l":-1,"r":-1,"v":1},{"f":-1,"l":-1,"r":-1,"v":2}]}],"edges":[[1]],"num_features":1}`,
	"child-too-large":    `{"bias":0,"trees":[{"nodes":[{"f":0,"b":0,"l":5,"r":2,"v":0},{"f":-1,"l":-1,"r":-1,"v":1},{"f":-1,"l":-1,"r":-1,"v":2}]}],"edges":[[1]],"num_features":1}`,
	"empty-tree":         `{"bias":0,"trees":[{"nodes":[]}],"edges":[[1]],"num_features":1}`,
	"feature-below-leaf": `{"bias":0,"trees":[{"nodes":[{"f":-2,"b":0,"l":1,"r":2,"v":0},{"f":-1,"l":-1,"r":-1,"v":1},{"f":-1,"l":-1,"r":-1,"v":2}]}],"edges":[[1]],"num_features":1}`,
	"negative-child":     `{"bias":0,"trees":[{"nodes":[{"f":0,"b":0,"l":-1,"r":2,"v":0},{"f":-1,"l":-1,"r":-1,"v":1},{"f":-1,"l":-1,"r":-1,"v":2}]}],"edges":[[1]],"num_features":1}`,
	"backward-child":     `{"bias":0,"trees":[{"nodes":[{"f":-1,"l":-1,"r":-1,"v":1},{"f":0,"b":0,"l":0,"r":2,"v":0},{"f":-1,"l":-1,"r":-1,"v":2}]}],"edges":[[1]],"num_features":1}`,
	"leaf-with-children": `{"bias":0,"trees":[{"nodes":[{"f":-1,"l":1,"r":2,"v":0},{"f":-1,"l":-1,"r":-1,"v":1},{"f":-1,"l":-1,"r":-1,"v":2}]}],"edges":[[1]],"num_features":1}`,
	"internal-childless": `{"bias":0,"trees":[{"nodes":[{"f":0,"b":0,"l":-1,"r":-1,"v":0}]}],"edges":[[1]],"num_features":1}`,
	"unsorted-edges":     `{"bias":0,"trees":[],"edges":[[2,1]],"num_features":1}`,
	"edge-count":         `{"bias":0,"trees":[],"edges":[[` + strings.Repeat("1,", 255) + `1]],"num_features":1}`,
	"edges-per-feature":  `{"bias":0,"trees":[],"edges":[[1],[2]],"num_features":1}`,
}

func TestLoadRejectsMalformedTrees(t *testing.T) {
	for name, doc := range malformedModels {
		if m, err := load(strings.NewReader(doc)); err == nil {
			t.Errorf("%s: loaded as %+v, want an error", name, m)
		}
	}
	// Non-finite edges cannot be written in JSON; validate sees them when a
	// model is assembled in memory.
	for _, e := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		m := &Model{NumFeat: 1, Edges: [][]float64{{e}}}
		if err := m.validate(); err == nil {
			t.Errorf("edge %v validated", e)
		}
	}
	// The smallest well-formed documents still load.
	for _, doc := range []string{
		`{"bias":1.5,"trees":[],"edges":[[]],"num_features":1}`,
		`{"bias":0,"trees":[{"nodes":[{"f":0,"b":0,"l":1,"r":2,"v":0},{"f":-1,"l":-1,"r":-1,"v":1},{"f":-1,"l":-1,"r":-1,"v":2}]}],"edges":[[1,1]],"num_features":1}`,
	} {
		m, err := load(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		m.Predict([]float64{1})
	}
}

// FuzzLoad: whatever the document, the model decoder fails or returns a
// model that Predict can walk to the end and that PredictEachBin fills as
// the walk predicts.
func FuzzLoad(f *testing.F) {
	X, y := synth(300, 9)
	m, err := Train(X, y, Params{Trees: 3})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(saved(f, m))
	for _, name := range []string{"self-loop", "feature-too-large", "child-too-large", "empty-tree"} {
		f.Add([]byte(malformedModels[name]))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		m, err := load(bytes.NewReader(doc))
		if err != nil {
			return
		}
		x := make([]float64, m.NumFeat)
		m.Predict(x)
		for i := range x {
			x[i] = math.Inf(1)
		}
		m.Predict(x)
		// A bin vector drawn from the document's bytes, bins past the last
		// included: the one-pass fill must equal the walk on it.
		bins := make([]uint8, m.NumFeat)
		for i := range bins {
			bins[i] = doc[i%len(doc)]
		}
		checkEachBin(t, m, bins)
	})
}

// checkEachBin asserts PredictEachBin's output for every feature of m over
// bins is, bin for bin, the bits PredictBinned returns.
func checkEachBin(t *testing.T, m *Model, bins []uint8) {
	t.Helper()
	probe := append([]uint8(nil), bins...)
	for f := range m.Edges {
		out := make([]float64, len(m.Edges[f])+1)
		m.PredictEachBin(out, bins, f)
		for v := range out {
			probe[f] = uint8(v)
			if want := m.PredictBinned(probe); math.Float64bits(out[v]) != math.Float64bits(want) {
				t.Fatalf("feature %d bin %d over %v: PredictEachBin %v, PredictBinned %v", f, v, bins, out[v], want)
			}
		}
		probe[f] = bins[f]
	}
}

func TestPredictEachBinMatchesPredictBinned(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	randomBins := func(m *Model) []uint8 {
		bins := make([]uint8, m.NumFeat)
		for f := range bins {
			bins[f] = uint8(rng.Intn(len(m.Edges[f]) + 1))
		}
		return bins
	}
	sX, sy := synth(1500, 28)
	aX, ay := awkward(1200, 29)
	for _, p := range []Params{
		{Trees: 40},
		{Trees: 15, MaxLeaves: 8, MinLeafSamples: 5, Bins: 256},
		{Trees: 5, MaxLeaves: 4, Bins: 4},
	} {
		for _, pr := range []struct {
			X [][]float64
			y []float64
		}{{sX, sy}, {aX, ay}} {
			m, err := Train(pr.X, pr.y, p)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 50; i++ {
				checkEachBin(t, m, randomBins(m))
			}
		}
	}

	// Hand-built trees over two features of four bins each (three edges),
	// every leaf value a distinct power of two so a misrouted bin shows.
	leaf := func(v float64) node { return node{Feature: -1, Left: -1, Right: -1, Value: v} }
	split := func(f int, bin uint8, l, r int32) node { return node{Feature: f, Bin: bin, Left: l, Right: r} }
	trees := []tree{
		// Never splits on feature 0.
		{Nodes: []node{split(1, 1, 1, 2), leaf(1), leaf(2)}},
		// Splits on feature 0 at bin 0, then below at its last bin, where
		// nothing goes right.
		{Nodes: []node{split(0, 0, 1, 2), leaf(4), split(0, 3, 3, 4), leaf(8), leaf(16)}},
		// Two splits on feature 0 along one path, around one on feature 1.
		{Nodes: []node{
			split(0, 2, 1, 2), split(1, 0, 3, 4), leaf(32),
			split(0, 0, 5, 6), leaf(64), leaf(128), leaf(256)}},
		// A split on feature 0 at a bin above every bin that reaches it:
		// everything goes left.
		{Nodes: []node{split(0, 1, 1, 2), split(0, 200, 3, 4), leaf(512), leaf(1024), leaf(2048)}},
	}
	edges := [][]float64{{1, 2, 3}, {1, 2, 3}}
	for i, tr := range trees {
		m := &Model{Bias: 0.25, NumFeat: 2, Edges: edges, Trees: []tree{tr}}
		if err := m.validate(); err != nil {
			t.Fatalf("tree %d: %v", i, err)
		}
		for b1 := uint8(0); b1 < 4; b1++ {
			checkEachBin(t, m, []uint8{0, b1})
		}
	}
	m := &Model{Bias: 0.25, NumFeat: 2, Edges: edges, Trees: trees}
	for b1 := uint8(0); b1 < 4; b1++ {
		checkEachBin(t, m, []uint8{0, b1})
	}
}

// referencePredict is the walk Predict replaced: a binary search over the
// raw feature value at every node visited. Predict bins once and compares
// bytes; this is what it must equal, bit for bit.
func referencePredict(m *Model, x []float64) float64 {
	out := m.Bias
	for ti := range m.Trees {
		t := &m.Trees[ti]
		n := int32(0)
		for {
			nd := &t.Nodes[n]
			if nd.Feature == -1 {
				out += nd.Value
				break
			}
			if binValue(m.Edges[nd.Feature], x[nd.Feature]) <= nd.Bin {
				n = nd.Left
			} else {
				n = nd.Right
			}
		}
	}
	return out
}

func TestPredictMatchesReferenceWalk(t *testing.T) {
	for _, p := range []Params{
		{Trees: 40},
		{Trees: 15, MaxLeaves: 8, MinLeafSamples: 5, Bins: 256},
		{Trees: 5, MaxLeaves: 4, Bins: 4},
	} {
		X, y := synth(1500, 10)
		m, err := Train(X, y, p)
		if err != nil {
			t.Fatal(err)
		}
		check := func(x []float64) {
			t.Helper()
			got, want := m.Predict(x), referencePredict(m, x)
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("params %+v: Predict(%v) = %v, reference walk %v", p, x, got, want)
			}
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 2000; i++ {
			check([]float64{rng.Float64()*1.2 - 0.1, rng.Float64()*1.2 - 0.1, rng.Float64()*1.2 - 0.1})
		}
		// Every edge of every feature, and its neighbours one ulp either
		// side, against a random and an extreme background.
		specials := []float64{math.Inf(-1), math.Inf(1), math.NaN(), 0, -math.MaxFloat64, math.MaxFloat64}
		for f, edges := range m.Edges {
			probes := append([]float64{}, specials...)
			for _, e := range edges {
				probes = append(probes, e, math.Nextafter(e, math.Inf(-1)), math.Nextafter(e, math.Inf(1)))
			}
			for _, v := range probes {
				x := []float64{rng.Float64(), rng.Float64(), rng.Float64()}
				x[f] = v
				check(x)
				for g := range x {
					if g != f {
						x[g] = specials[rng.Intn(len(specials))]
					}
				}
				check(x)
			}
		}
	}
}

func TestBinValue(t *testing.T) {
	edges := []float64{1, 2, 3}
	cases := []struct {
		x    float64
		want uint8
	}{
		{0.5, 0}, {1, 1}, {1.5, 1}, {2, 2}, {2.9, 2}, {3, 3}, {100, 3},
	}
	for _, c := range cases {
		if got := binValue(edges, c.x); got != c.want {
			t.Errorf("binValue(%v) = %d, want %d", c.x, got, c.want)
		}
	}
}

func BenchmarkPredict(b *testing.B) {
	X, y := synth(5000, 8)
	m, err := Train(X, y, Params{Trees: 200})
	if err != nil {
		b.Fatal(err)
	}
	probe := []float64{0.4, 0.6, 0.2}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(probe)
	}
}

// --- the reference trainer -----------------------------------------------------

// referenceTrain is the trainer Train replaced: a column-major matrix, one
// pass over a node's samples per feature, fresh left and right index slices
// per candidate, children's sums and every prediction recomputed from
// scratch. It is kept as the oracle: Train must produce the same model
// document, byte for byte. It shares only withDefaults, computeEdges and
// binValue with Train.
func referenceTrain(X [][]float64, y []float64, p Params) *Model {
	p = p.withDefaults()
	nf := len(X[0])
	n := len(X)
	m := &Model{NumFeat: nf, Gain: make([]float64, nf), TrainedN: n}
	m.Edges = computeEdges(X, nf, p.Bins)
	cols := make([][]uint8, nf)
	for f := 0; f < nf; f++ {
		cols[f] = make([]uint8, n)
		for i := 0; i < n; i++ {
			cols[f][i] = binValue(m.Edges[f], X[i][f])
		}
	}
	sum := 0.0
	for _, v := range y {
		sum += v
	}
	m.Bias = sum / float64(n)
	pred := make([]float64, n)
	for i := range pred {
		pred[i] = m.Bias
	}
	resid := make([]float64, n)
	idx := make([]int, n)
	builder := refBuilder{cols: cols, p: p, gain: m.Gain}
	for t := 0; t < p.Trees; t++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		for i := range idx {
			idx[i] = i
		}
		tr := builder.build(idx, resid)
		for i := range tr.Nodes {
			if tr.Nodes[i].Feature == -1 {
				tr.Nodes[i].Value *= p.LearningRate
			}
		}
		for i := 0; i < n; i++ {
			nd := int32(0)
			for tr.Nodes[nd].Feature != -1 {
				if cols[tr.Nodes[nd].Feature][i] <= tr.Nodes[nd].Bin {
					nd = tr.Nodes[nd].Left
				} else {
					nd = tr.Nodes[nd].Right
				}
			}
			pred[i] += tr.Nodes[nd].Value
		}
		m.Trees = append(m.Trees, tr)
	}
	return m
}

type refBuilder struct {
	cols [][]uint8
	p    Params
	gain []float64
}

type refCand struct {
	node        int32
	feature     int
	bin         uint8
	gain        float64
	left, right []int
}

func (b *refBuilder) build(idx []int, r []float64) tree {
	var tr tree
	sum := 0.0
	for _, i := range idx {
		sum += r[i]
	}
	tr.Nodes = append(tr.Nodes, node{Feature: -1, Left: -1, Right: -1, Value: sum / float64(len(idx))})
	var cands []refCand
	if c, ok := b.bestSplit(0, idx, r); ok {
		cands = append(cands, c)
	}
	leaves := 1
	for leaves < b.p.MaxLeaves && len(cands) > 0 {
		best := 0
		for i := range cands {
			if cands[i].gain > cands[best].gain {
				best = i
			}
		}
		c := cands[best]
		cands = append(cands[:best], cands[best+1:]...)

		li := int32(len(tr.Nodes))
		ls := 0.0
		for _, i := range c.left {
			ls += r[i]
		}
		rs := 0.0
		for _, i := range c.right {
			rs += r[i]
		}
		tr.Nodes = append(tr.Nodes, node{Feature: -1, Left: -1, Right: -1, Value: ls / float64(len(c.left))})
		ri := int32(len(tr.Nodes))
		tr.Nodes = append(tr.Nodes, node{Feature: -1, Left: -1, Right: -1, Value: rs / float64(len(c.right))})
		tr.Nodes[c.node].Feature = c.feature
		tr.Nodes[c.node].Bin = c.bin
		tr.Nodes[c.node].Left = li
		tr.Nodes[c.node].Right = ri
		b.gain[c.feature] += c.gain
		leaves++

		if cl, ok := b.bestSplit(li, c.left, r); ok {
			cands = append(cands, cl)
		}
		if cr, ok := b.bestSplit(ri, c.right, r); ok {
			cands = append(cands, cr)
		}
	}
	return tr
}

func (b *refBuilder) bestSplit(nodeIdx int32, idx []int, r []float64) (refCand, bool) {
	if len(idx) < 2*b.p.MinLeafSamples {
		return refCand{}, false
	}
	total := 0.0
	for _, i := range idx {
		total += r[i]
	}
	n := float64(len(idx))
	baseScore := total * total / n

	bestGain := 1e-12
	bestFeat, bestBin := -1, uint8(0)
	var sums [256]float64
	var cnts [256]int
	for f, col := range b.cols {
		maxBin := 0
		for i := range sums {
			sums[i], cnts[i] = 0, 0
		}
		for _, i := range idx {
			bn := int(col[i])
			sums[bn] += r[i]
			cnts[bn]++
			if bn > maxBin {
				maxBin = bn
			}
		}
		cumSum, cumCnt := 0.0, 0
		for bn := 0; bn < maxBin; bn++ { // split "<= bn"
			cumSum += sums[bn]
			cumCnt += cnts[bn]
			if cumCnt < b.p.MinLeafSamples || len(idx)-cumCnt < b.p.MinLeafSamples {
				continue
			}
			rSum := total - cumSum
			rCnt := float64(len(idx) - cumCnt)
			gain := cumSum*cumSum/float64(cumCnt) + rSum*rSum/rCnt - baseScore
			if gain > bestGain {
				bestGain, bestFeat, bestBin = gain, f, uint8(bn)
			}
		}
	}
	if bestFeat < 0 {
		return refCand{}, false
	}
	c := refCand{node: nodeIdx, feature: bestFeat, bin: bestBin, gain: bestGain}
	col := b.cols[bestFeat]
	for _, i := range idx {
		if col[i] <= bestBin {
			c.left = append(c.left, i)
		} else {
			c.right = append(c.right, i)
		}
	}
	return c, true
}

// awkward builds a matrix of the shapes that stress the trainer's
// bookkeeping rather than its fit: a continuous column, a heavily tied one,
// a constant one, a binary one, a one-hot pair that partitions the rows
// with it, a column whose values all sit in the last bin but a few, and
// every fifth row a copy of the row before it, target included.
func awkward(n int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	X := make([][]float64, n)
	y := make([]float64, n)
	for i := range X {
		if i%5 == 4 {
			X[i], y[i] = X[i-1], y[i-1]
			continue
		}
		k := rng.Intn(3)
		hot := [3]float64{}
		hot[k] = 1
		rare := 1.0
		if rng.Intn(40) == 0 {
			rare = 0
		}
		X[i] = []float64{rng.NormFloat64(), float64(rng.Intn(4)), 7, hot[0], hot[1], hot[2], rare, math.Round(rng.Float64()*10) / 10}
		y[i] = X[i][0] + 2*hot[1] - X[i][1]*X[i][7] + 0.1*rng.NormFloat64()
	}
	return X, y
}

func saved(t testing.TB, m *Model) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := json.NewEncoder(&buf).Encode(m); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// load decodes a model document the way model.LoadGBDT decodes a bundle's
// model: through Model.UnmarshalJSON, which validates it.
func load(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, err
	}
	return &m, nil
}

// TestTrainMatchesReferenceTrainer: the one-pass trainer writes the model
// document of the column-wise one, byte for byte, and leaves no goroutine
// behind.
func TestTrainMatchesReferenceTrainer(t *testing.T) {
	type problem struct {
		name string
		X    [][]float64
		y    []float64
	}
	var problems []problem
	add := func(name string, X [][]float64, y []float64) {
		problems = append(problems, problem{name, X, y})
	}
	X, y := awkward(1200, 21)
	add("awkward-1200", X, y)
	X, y = awkward(300, 22) // n < 2*MinLeafSamples at 200: no tree splits
	add("awkward-300", X, y)
	X, y = synth(700, 23)
	add("synth-700", X, y)
	X, y = awkward(400, 24)
	for i := range y {
		y[i] = 3 // constant target: the root finds no gain and cannot split
	}
	add("constant-target", X, y)
	add("one-row", [][]float64{{1, 2}}, []float64{5})

	before := runtime.NumGoroutine()
	for _, pr := range problems {
		for _, bins := range []int{2, 16, 64, 256} {
			for _, minLeaf := range []int{1, 5, 20, 200} {
				for _, leaves := range []int{1, 2, 8, 32} {
					p := Params{Trees: 4, Bins: bins, MinLeafSamples: minLeaf, MaxLeaves: leaves}
					m, err := Train(pr.X, pr.y, p)
					if err != nil {
						t.Fatalf("%s %+v: %v", pr.name, p, err)
					}
					if got, want := saved(t, m), saved(t, referenceTrain(pr.X, pr.y, p)); !bytes.Equal(got, want) {
						t.Fatalf("%s %+v: model differs from the reference trainer's\n got %s\nwant %s", pr.name, p, got, want)
					}
				}
			}
		}
	}
	// Defaults, and enough trees for the residuals to reach noise.
	for _, pr := range problems[:3] {
		p := Params{Trees: 40}
		m, err := Train(pr.X, pr.y, p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(saved(t, m), saved(t, referenceTrain(pr.X, pr.y, p))) {
			t.Fatalf("%s %+v: model differs from the reference trainer's", pr.name, p)
		}
	}
	// The count is global: an unrelated runtime or test goroutine may exit
	// meanwhile, and one Train started may take a moment to be reaped. Only
	// a count that stays above the one before Train is a leak.
	after := runtime.NumGoroutine()
	for deadline := time.Now().Add(5 * time.Second); after > before && time.Now().Before(deadline); after = runtime.NumGoroutine() {
		time.Sleep(10 * time.Millisecond)
	}
	if after > before {
		t.Fatalf("goroutines: %d before Train, %d after", before, after)
	}
}

// TestTrainAllocationBudget: a fit allocates its scratch once, and then one
// node slice per tree — not per node, per candidate or per row.
func TestTrainAllocationBudget(t *testing.T) {
	X, y := synth(4000, 25)
	for _, trees := range []int{10, 60} {
		p := Params{Trees: trees}
		allocs := testing.AllocsPerRun(2, func() {
			if _, err := Train(X, y, p); err != nil {
				t.Fatal(err)
			}
		})
		// The constant: the model, its edge lists as they grow, the binned
		// matrix, the builder and its scratch as it reaches its size.
		if budget := float64(trees + 80); allocs > budget {
			t.Errorf("%d trees: %.0f allocations per fit, want <= %.0f", trees, allocs, budget)
		}
	}
}

// replayShaped builds a matrix shaped like the fit of the replay-gbdt
// benchmark workload: vms VMs of a few dozen types, eight uptime-augmented
// rows each, eleven columns — five target-encoded categoricals (the first
// constant, as a one-zone trace's zone is), three binaries, two shape
// sizes, and uptime.
func replayShaped(vms int, seed int64) ([][]float64, []float64) {
	rng := rand.New(rand.NewSource(seed))
	type vmType struct{ cols [10]float64 }
	types := make([]vmType, 40)
	for k := range types {
		c := &types[k].cols
		c[0] = 0.8
		for f := 1; f < 5; f++ {
			c[f] = float64(rng.Intn(4+3*f)) / 4
		}
		for f := 5; f < 8; f++ {
			c[f] = float64(rng.Intn(2))
		}
		c[8] = float64(int(1) << rng.Intn(6))
		c[9] = c[8] * float64(1+rng.Intn(4))
	}
	X := make([][]float64, 0, vms*8)
	y := make([]float64, 0, vms*8)
	for v := 0; v < vms; v++ {
		ty := &types[rng.Intn(len(types))]
		life := math.Pow(10, ty.cols[2]-1+ty.cols[5]+0.6*rng.NormFloat64()) // hours
		for k := 0; k < 8; k++ {
			up := life * float64(k) / 8
			row := append(ty.cols[:len(ty.cols):len(ty.cols)], -4)
			if up > 0 {
				row[10] = math.Log10(up)
			}
			X = append(X, row)
			y = append(y, math.Log10(math.Min(life-up, 168)))
		}
	}
	return X, y
}

var benchModel *Model

// BenchmarkTrain is one fit of the size the replay-gbdt workload pays per
// round: 57k rows x 11 columns, 100 trees.
func BenchmarkTrain(b *testing.B) {
	X, y := replayShaped(7125, 26)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := Train(X, y, Params{Trees: 100})
		if err != nil {
			b.Fatal(err)
		}
		benchModel = m
	}
}
