package gbdt

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
)

// Params are the training hyperparameters. Zero values take the defaults in
// brackets, which mirror the paper's Appendix B configuration scaled down
// for synthetic data.
type Params struct {
	Trees          int     // number of boosting rounds [200]
	LearningRate   float64 // shrinkage [0.1]
	MaxLeaves      int     // best-first growth stops at this many leaves [32]
	MinLeafSamples int     // minimum samples per leaf [20]
	Bins           int     // histogram bins per feature, <= 256 [64]
}

func (p Params) withDefaults() Params {
	if p.Trees == 0 {
		p.Trees = 200
	}
	if p.LearningRate == 0 {
		p.LearningRate = 0.1
	}
	if p.MaxLeaves == 0 {
		p.MaxLeaves = 32
	}
	if p.MinLeafSamples == 0 {
		p.MinLeafSamples = 20
	}
	if p.Bins == 0 {
		p.Bins = 64
	}
	if p.Bins > 256 {
		p.Bins = 256
	}
	return p
}

// node is one tree node. Leaves have Feature == -1 and carry Value; internal
// nodes route binned feature values <= Bin to Left, else Right.
type node struct {
	Feature int     `json:"f"`
	Bin     uint8   `json:"b"`
	Left    int32   `json:"l"`
	Right   int32   `json:"r"`
	Value   float64 `json:"v"`
}

type tree struct {
	Nodes []node `json:"nodes"`
}

// Model is a trained GBDT ensemble.
type Model struct {
	Bias     float64     `json:"bias"`
	Trees    []tree      `json:"trees"`
	Edges    [][]float64 `json:"edges"` // per-feature bin upper edges (len = bins-1)
	Gain     []float64   `json:"gain"`  // cumulative split gain per feature (Fig. 11)
	NumFeat  int         `json:"num_features"`
	TrainedN int         `json:"trained_examples"`
}

// Train fits a GBDT regressor on rows X (n x f) with targets y.
func Train(X [][]float64, y []float64, p Params) (*Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("gbdt: empty or mismatched training data")
	}
	p = p.withDefaults()
	nf := len(X[0])
	n := len(X)
	for i, row := range X {
		if len(row) != nf {
			return nil, fmt.Errorf("gbdt: row %d has %d features, want %d", i, len(row), nf)
		}
	}

	m := &Model{NumFeat: nf, Gain: make([]float64, nf), TrainedN: n}
	m.Edges = computeEdges(X, nf, p.Bins)

	// Bin the matrix column-major.
	cols := make([][]uint8, nf)
	for f := 0; f < nf; f++ {
		cols[f] = make([]uint8, n)
		for i := 0; i < n; i++ {
			cols[f][i] = binValue(m.Edges[f], X[i][f])
		}
	}

	// Bias = mean target; residual boosting on squared loss.
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
	builder := treeBuilder{cols: cols, p: p, gain: m.Gain}
	for t := 0; t < p.Trees; t++ {
		for i := range resid {
			resid[i] = y[i] - pred[i]
		}
		for i := range idx {
			idx[i] = i
		}
		tr := builder.build(idx, resid)
		// Apply shrinkage by scaling leaf values once, then update preds.
		for i := range tr.Nodes {
			if tr.Nodes[i].Feature == -1 {
				tr.Nodes[i].Value *= p.LearningRate
			}
		}
		for i := 0; i < n; i++ {
			pred[i] += tr.predictBinned(cols, i)
		}
		m.Trees = append(m.Trees, tr)
	}
	return m, nil
}

// computeEdges derives per-feature bin edges from value quantiles.
func computeEdges(X [][]float64, nf, bins int) [][]float64 {
	n := len(X)
	edges := make([][]float64, nf)
	vals := make([]float64, n)
	for f := 0; f < nf; f++ {
		for i := 0; i < n; i++ {
			vals[i] = X[i][f]
		}
		sort.Float64s(vals)
		var es []float64
		for b := 1; b < bins; b++ {
			q := vals[b*n/bins]
			if len(es) == 0 || q > es[len(es)-1] {
				es = append(es, q)
			}
		}
		edges[f] = es
	}
	return edges
}

// binValue maps x to its bin index: the count of edges <= x.
func binValue(edges []float64, x float64) uint8 {
	// First edge > x.
	i := sort.SearchFloat64s(edges, math.Nextafter(x, math.Inf(1)))
	return uint8(i)
}

// --- tree construction ------------------------------------------------------

type treeBuilder struct {
	cols [][]uint8
	p    Params
	gain []float64
}

// splitCand describes the best split found for a leaf.
type splitCand struct {
	node    int32 // node index in the growing tree
	idx     []int // samples at the node
	feature int
	bin     uint8
	gain    float64
	sum     float64
	left    []int
	right   []int
}

// build grows one regression tree best-first on residuals r over samples idx.
func (b *treeBuilder) build(idx []int, r []float64) tree {
	var tr tree
	sum := 0.0
	for _, i := range idx {
		sum += r[i]
	}
	tr.Nodes = append(tr.Nodes, node{Feature: -1, Left: -1, Right: -1, Value: sum / float64(len(idx))})

	// Candidate heap ordered by gain (simple slice; MaxLeaves is small).
	var cands []splitCand
	if c, ok := b.bestSplit(0, idx, r); ok {
		cands = append(cands, c)
	}
	leaves := 1
	for leaves < b.p.MaxLeaves && len(cands) > 0 {
		// Pop max-gain candidate.
		best := 0
		for i := range cands {
			if cands[i].gain > cands[best].gain {
				best = i
			}
		}
		c := cands[best]
		cands = append(cands[:best], cands[best+1:]...)

		// Materialize the split.
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

// bestSplit finds the max-variance-reduction split of samples idx, scanning
// histogram bins per feature.
func (b *treeBuilder) bestSplit(nodeIdx int32, idx []int, r []float64) (splitCand, bool) {
	if len(idx) < 2*b.p.MinLeafSamples {
		return splitCand{}, false
	}
	total := 0.0
	for _, i := range idx {
		total += r[i]
	}
	n := float64(len(idx))
	baseScore := total * total / n

	bestGain := 1e-12
	bestFeat, bestBin := -1, uint8(0)
	nf := len(b.cols)

	var sums [256]float64
	var cnts [256]int
	for f := 0; f < nf; f++ {
		col := b.cols[f]
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
		return splitCand{}, false
	}
	c := splitCand{node: nodeIdx, idx: idx, feature: bestFeat, bin: bestBin, gain: bestGain, sum: total}
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

// predictBinned walks the tree for pre-binned sample i.
func (t *tree) predictBinned(cols [][]uint8, i int) float64 {
	n := int32(0)
	for {
		nd := &t.Nodes[n]
		if nd.Feature == -1 {
			return nd.Value
		}
		if cols[nd.Feature][i] <= nd.Bin {
			n = nd.Left
		} else {
			n = nd.Right
		}
	}
}

// Predict returns the ensemble prediction for a raw feature vector: it bins
// x once and walks the forest over the bins.
func (m *Model) Predict(x []float64) float64 {
	var buf [32]uint8 // on the stack for any model up to 32 features wide
	return m.PredictBinned(m.AppendBins(buf[:0], x))
}

// AppendBins appends the bin index of each of x's NumFeat columns to dst.
func (m *Model) AppendBins(dst []uint8, x []float64) []uint8 {
	for f, edges := range m.Edges {
		dst = append(dst, binValue(edges, x[f]))
	}
	return dst
}

// PredictBinned returns the ensemble prediction for a vector of AppendBins
// bin indices. The forest compares nothing but bins, so two raw vectors with
// equal bins get the same prediction, bit for bit.
func (m *Model) PredictBinned(bins []uint8) float64 {
	out := m.Bias
	for ti := range m.Trees {
		nodes := m.Trees[ti].Nodes
		n := int32(0)
		for {
			nd := &nodes[n]
			if nd.Feature == -1 {
				out += nd.Value
				break
			}
			if bins[nd.Feature] <= nd.Bin {
				n = nd.Left
			} else {
				n = nd.Right
			}
		}
	}
	return out
}

// Importance returns normalized per-feature split gains (the "split score"
// of Fig. 11). The slice sums to 1 unless no splits were made.
func (m *Model) Importance() []float64 {
	out := make([]float64, len(m.Gain))
	total := 0.0
	for _, g := range m.Gain {
		total += g
	}
	if total == 0 {
		return out
	}
	for i, g := range m.Gain {
		out[i] = g / total
	}
	return out
}

// NumTrees returns the ensemble size.
func (m *Model) NumTrees() int { return len(m.Trees) }

// Save serializes the model as JSON. The paper compiles the model into the
// scheduler binary; we keep an explicit codec so cmd/trainmodel can hand
// models to cmd/lavasim.
func (m *Model) Save(w io.Writer) error {
	return json.NewEncoder(w).Encode(m)
}

// Load deserializes a model written by Save.
func Load(r io.Reader) (*Model, error) {
	var m Model
	if err := json.NewDecoder(r).Decode(&m); err != nil {
		return nil, fmt.Errorf("gbdt: load: %w", err)
	}
	return &m, nil
}

// UnmarshalJSON decodes a model and validates it. A model document is
// operator input, alone (Load) or inside a bundle (model.LoadGBDT), so
// every decoder refuses the shapes Predict could not walk: see validate.
func (m *Model) UnmarshalJSON(data []byte) error {
	type plain Model // without this method
	var p plain
	if err := json.Unmarshal(data, &p); err != nil {
		return err
	}
	if err := (*Model)(&p).validate(); err != nil {
		return err
	}
	*m = Model(p)
	return nil
}

// validate checks what Train guarantees and Predict relies on: one sorted,
// finite edge list of at most 255 edges per feature (bins are uint8), and
// trees in build's layout — a root, leaves marked Feature -1 with no
// children, internal nodes splitting on an existing feature with both
// children at larger indices than their own, so every walk ends at a leaf.
func (m *Model) validate() error {
	if m.NumFeat <= 0 || len(m.Edges) != m.NumFeat {
		return errors.New("malformed model")
	}
	for f, edges := range m.Edges {
		if len(edges) > 255 {
			return fmt.Errorf("feature %d has %d edges, want <= 255", f, len(edges))
		}
		for i, e := range edges {
			if math.IsNaN(e) || math.IsInf(e, 0) || (i > 0 && e < edges[i-1]) {
				return fmt.Errorf("feature %d: edges are not finite and sorted", f)
			}
		}
	}
	for ti, t := range m.Trees {
		if len(t.Nodes) == 0 {
			return fmt.Errorf("tree %d is empty", ti)
		}
		for i, nd := range t.Nodes {
			switch {
			case nd.Feature == -1:
				if nd.Left != -1 || nd.Right != -1 {
					return fmt.Errorf("tree %d node %d: leaf with children", ti, i)
				}
			case nd.Feature < 0 || nd.Feature >= m.NumFeat:
				return fmt.Errorf("tree %d node %d: feature %d out of range", ti, i, nd.Feature)
			default:
				for _, c := range [2]int32{nd.Left, nd.Right} {
					if int(c) <= i || int(c) >= len(t.Nodes) {
						return fmt.Errorf("tree %d node %d: child %d out of order or range", ti, i, c)
					}
				}
			}
		}
	}
	return nil
}
