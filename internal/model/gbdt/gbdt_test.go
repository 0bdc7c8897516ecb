package gbdt

import (
	"bytes"
	"math"
	"math/rand"
	"strings"
	"testing"
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
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
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
	if _, err := Load(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage must fail to load")
	}
	if _, err := Load(bytes.NewBufferString(`{"num_features":0}`)); err == nil {
		t.Fatal("malformed model must fail to load")
	}
}

// malformedModels are documents that decode but that Predict cannot walk:
// the first four hung or panicked it before Load validated trees.
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
		if m, err := Load(strings.NewReader(doc)); err == nil {
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
		m, err := Load(strings.NewReader(doc))
		if err != nil {
			t.Fatalf("%s: %v", doc, err)
		}
		m.Predict([]float64{1})
	}
}

// FuzzLoad: whatever the document, Load fails or returns a model that
// Predict can walk to the end.
func FuzzLoad(f *testing.F) {
	X, y := synth(300, 9)
	m, err := Train(X, y, Params{Trees: 3})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	for _, name := range []string{"self-loop", "feature-too-large", "child-too-large", "empty-tree"} {
		f.Add([]byte(malformedModels[name]))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		m, err := Load(bytes.NewReader(doc))
		if err != nil {
			return
		}
		x := make([]float64, m.NumFeat)
		m.Predict(x)
		for i := range x {
			x[i] = math.Inf(1)
		}
		m.Predict(x)
	})
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
