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
// for synthetic data. Train refuses a negative Trees, MaxLeaves,
// MinLeafSamples or Bins and clamps Bins to 256. There is no worker count:
// a fit is sequential, so that its bytes depend on nothing but its inputs.
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

// Train fits a GBDT regressor on rows X (n x f) with targets y. Every value
// must be finite. Training is sequential and deterministic: the same X, y
// and p give the same model document, byte for byte, on any machine.
func Train(X [][]float64, y []float64, p Params) (*Model, error) {
	if len(X) == 0 || len(X) != len(y) {
		return nil, errors.New("gbdt: empty or mismatched training data")
	}
	if p.Trees < 0 || p.MaxLeaves < 0 || p.MinLeafSamples < 0 || p.Bins < 0 {
		return nil, fmt.Errorf("gbdt: negative parameter in %+v", p)
	}
	p = p.withDefaults()
	nf := len(X[0])
	n := len(X)
	if n > math.MaxInt32 {
		return nil, fmt.Errorf("gbdt: %d rows, want <= %d", n, math.MaxInt32)
	}
	for i, row := range X {
		if len(row) != nf {
			return nil, fmt.Errorf("gbdt: row %d has %d features, want %d", i, len(row), nf)
		}
	}

	m := &Model{NumFeat: nf, Gain: make([]float64, nf), TrainedN: n}
	m.Edges = computeEdges(X, nf, p.Bins)

	// Bin the matrix row-major: a node's histogram pass reads one sample's
	// bins from one place.
	bins := make([]uint8, n*nf)
	for i, row := range X {
		if math.IsNaN(y[i]) || math.IsInf(y[i], 0) {
			return nil, fmt.Errorf("gbdt: target of row %d is %v, want a finite value", i, y[i])
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("gbdt: row %d column %d is %v, want a finite value", i, f, v)
			}
			bins[i*nf+f] = binValue(m.Edges[f], v)
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

	b := newTreeBuilder(bins, m.Edges, n, p, m.Gain)
	m.Trees = make([]tree, 0, p.Trees)
	for t := 0; t < p.Trees; t++ {
		total := 0.0
		for i := range b.resid {
			b.resid[i] = y[i] - pred[i]
			b.idx[i] = int32(i)
			total += b.resid[i]
		}
		b.build(total)
		// Apply shrinkage by scaling leaf values once, then update preds:
		// a leaf's samples are its range of idx, so no tree is walked.
		for k := range b.nodes {
			nd := &b.nodes[k]
			if nd.Feature != -1 {
				continue
			}
			nd.Value *= p.LearningRate
			for _, i := range b.idx[b.spans[k].lo:b.spans[k].hi] {
				pred[i] += nd.Value
			}
		}
		m.Trees = append(m.Trees, tree{Nodes: append([]node(nil), b.nodes...)})
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

// treeBuilder grows the trees of one Train call. A tree's samples live in
// one shared index array: a node owns a contiguous range of it, and a split
// partitions that range in place, stably, so every node sees its samples in
// ascending order. That order is the contract: a float sum over a node's
// samples — a histogram bin's, a child's total — adds the same numbers in
// the same order however the tree was grown, which is what keeps the model
// document byte-stable. All scratch is allocated once and reused per tree.
type treeBuilder struct {
	bins    []uint8 // n x nf, row-major
	nf      int
	numBins []int // per feature: len(edges)+1
	p       Params
	gain    []float64

	resid []float64
	idx   []int32    // the shared index array
	right []int32    // partition scratch: the right child's samples
	hist  []featHist // the node in hand: one per live feature, in live's order

	// Per tree, reset by build.
	nodes []node
	spans []span // parallel to nodes: each node's range of idx
	cands []splitCand
	live  []int32 // arena of the candidates' live-feature lists
}

// histBin is one bin of one feature's histogram at a node.
type histBin struct {
	sum float64
	cnt int32
}

// featHist is one feature's histogram. A bin index is a uint8, so indexing
// the array needs no bounds check; the four spare bins keep the histograms
// of neighbouring features from starting a whole number of 4 KB pages
// apart, where their low bins would compete for the same cache sets.
type featHist [256 + 4]histBin

// span is a node's range of the index array.
type span struct{ lo, hi int32 }

// splitCand describes the best split found for a leaf.
type splitCand struct {
	node    int32 // node index in the growing tree
	feature int32
	bin     uint8
	gain    float64
	// live lists the features that can still split below this node: those
	// with more than one non-empty bin here. A feature with one never gets
	// a second in a subset, so the children do not build its histogram.
	live []int32
}

func newTreeBuilder(bins []uint8, edges [][]float64, n int, p Params, gain []float64) *treeBuilder {
	nf := len(edges)
	b := &treeBuilder{bins: bins, nf: nf, p: p, gain: gain,
		numBins: make([]int, nf),
		hist:    make([]featHist, nf),
		resid:   make([]float64, n),
		idx:     make([]int32, n),
		right:   make([]int32, n),
	}
	for f, es := range edges {
		b.numBins[f] = len(es) + 1
	}
	return b
}

// build grows one regression tree best-first on the residuals, over all
// samples in order; total is their sum. The tree is left in b.nodes, its
// nodes' sample ranges in b.spans.
func (b *treeBuilder) build(total float64) {
	n := int32(len(b.idx))
	b.nodes, b.spans, b.cands, b.live = b.nodes[:0], b.spans[:0], b.cands[:0], b.live[:0]
	for f := int32(0); f < int32(b.nf); f++ {
		b.live = append(b.live, f)
	}
	b.addLeaf(span{0, n}, total)
	// A node that can never be split — the tree is at MaxLeaves — needs no
	// candidate: the root of a one-leaf tree here, the children of the last
	// split below.
	if b.p.MaxLeaves > 1 {
		b.bestSplit(0, total, b.live)
	}
	leaves := 1
	for leaves < b.p.MaxLeaves && len(b.cands) > 0 {
		// Pop the max-gain candidate; the list is short (<= MaxLeaves) and
		// keeps insertion order, which breaks ties.
		best := 0
		for i := range b.cands {
			if b.cands[i].gain > b.cands[best].gain {
				best = i
			}
		}
		c := b.cands[best]
		b.cands = append(b.cands[:best], b.cands[best+1:]...)

		// Materialize the split: partition the node's range, summing each
		// side on the way.
		sp := b.spans[c.node]
		mid, ls, rs := b.partition(sp, int(c.feature), c.bin)
		li := b.addLeaf(span{sp.lo, mid}, ls)
		ri := b.addLeaf(span{mid, sp.hi}, rs)
		nd := &b.nodes[c.node]
		nd.Feature, nd.Bin, nd.Left, nd.Right = int(c.feature), c.bin, li, ri
		b.gain[c.feature] += c.gain
		leaves++

		if leaves < b.p.MaxLeaves {
			b.bestSplit(li, ls, c.live)
			b.bestSplit(ri, rs, c.live)
		}
	}
}

// addLeaf appends a leaf over the samples of sp, whose residuals sum to
// total, and returns its index.
func (b *treeBuilder) addLeaf(sp span, total float64) int32 {
	b.nodes = append(b.nodes, node{Feature: -1, Left: -1, Right: -1, Value: total / float64(sp.hi-sp.lo)})
	b.spans = append(b.spans, sp)
	return int32(len(b.nodes) - 1)
}

// partition reorders the samples of sp so that those with feature's bin <=
// bin come first, each side keeping its order, and returns the boundary and
// the residual sum of each side.
func (b *treeBuilder) partition(sp span, feature int, bin uint8) (mid int32, ls, rs float64) {
	w, nr := sp.lo, 0
	for _, i := range b.idx[sp.lo:sp.hi] {
		if b.bins[int(i)*b.nf+feature] <= bin {
			b.idx[w] = i // w never passes the read position
			w++
			ls += b.resid[i]
		} else {
			b.right[nr] = i
			nr++
			rs += b.resid[i]
		}
	}
	copy(b.idx[w:sp.hi], b.right[:nr])
	return w, ls, rs
}

// accumulate fills b.hist with the histogram of each feature of live over
// the samples idx, in one walk: a bin's sum adds its samples' residuals in
// the order of idx. Kept out of line so the loop has the registers to itself.
//
//go:noinline
func (b *treeBuilder) accumulate(idx []int32, live []int32) {
	resid, bins, nf := b.resid, b.bins, b.nf
	hist := b.hist[:len(live)]
	for k, f := range live {
		clear(hist[k][:b.numBins[f]])
	}
	for _, i := range idx {
		r := resid[i]
		row := bins[int(i)*nf : int(i)*nf+nf]
		for k := range hist {
			h := &hist[k][row[live[k]]]
			h.sum += r
			h.cnt++
		}
	}
}

// bestSplit finds the max-variance-reduction split of a node whose
// residuals sum to total, over the features of live, and queues it as a
// candidate. One walk of the node's samples fills the histogram of every
// live feature.
func (b *treeBuilder) bestSplit(nodeIdx int32, total float64, live []int32) {
	sp := b.spans[nodeIdx]
	n := int(sp.hi - sp.lo)
	minLeaf := b.p.MinLeafSamples
	if n < 2*minLeaf {
		return
	}
	b.accumulate(b.idx[sp.lo:sp.hi], live)

	baseScore := total * total / float64(n)
	bestGain := 1e-12
	bestFeat, bestBin := int32(-1), uint8(0)
	liveStart := len(b.live)
	for k, f := range live {
		h := b.hist[k][:b.numBins[f]]
		cumSum, cumCnt := 0.0, 0
		single := false
		for bn := 0; bn < len(h)-1; bn++ { // split "<= bn"
			c := int(h[bn].cnt)
			if c == 0 {
				continue // same two sides as the bin before: no better
			}
			cumSum += h[bn].sum
			cumCnt += c
			if n-cumCnt < minLeaf { // and so for every later bin
				single = c == n
				break
			}
			if cumCnt < minLeaf {
				continue
			}
			rSum := total - cumSum
			rCnt := float64(n - cumCnt)
			gain := cumSum*cumSum/float64(cumCnt) + rSum*rSum/rCnt - baseScore
			if gain > bestGain {
				bestGain, bestFeat, bestBin = gain, f, uint8(bn)
			}
		}
		if !single && cumCnt > 0 { // cumCnt == 0: everything sits in the last bin
			b.live = append(b.live, f)
		}
	}
	if bestFeat < 0 {
		b.live = b.live[:liveStart]
		return
	}
	b.cands = append(b.cands, splitCand{node: nodeIdx, feature: bestFeat, bin: bestBin, gain: bestGain,
		live: b.live[liveStart:]})
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
