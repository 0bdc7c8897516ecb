package gbdt

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"sort"
)

// Params are the training hyperparameters. Zero values take the defaults in
// brackets, which mirror the paper's Appendix B configuration scaled down
// for synthetic data. Train refuses a negative Trees, MaxLeaves,
// MinLeafSamples or Bins and clamps Bins to 256. There is no worker count:
// a fit is sequential, so that its bytes depend on nothing but its inputs.
type Params struct {
	Trees          int // number of boosting rounds [200]
	MaxLeaves      int // best-first growth stops at this many leaves [32]
	MinLeafSamples int // minimum samples per leaf [20]
	Bins           int // histogram bins per feature, <= 256 [64]
}

// learningRate is the shrinkage applied to every leaf.
const learningRate = 0.1

func (p Params) withDefaults() Params {
	if p.Trees == 0 {
		p.Trees = 200
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
	return train(X, y, p, nil)
}

// train is Train, also storing in stats, if not nil, what ranking
// subtracted histograms cost.
func train(X [][]float64, y []float64, p Params, stats *certStats) (*Model, error) {
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
		var root nodeSums
		for i := range b.resid {
			b.resid[i] = y[i] - pred[i]
			b.idx[i] = int32(i)
			root.total += b.resid[i]
			root.abs += math.Abs(b.resid[i])
		}
		b.build(root)
		// Apply shrinkage by scaling leaf values once, then update preds:
		// a leaf's samples are its range of idx, so no tree is walked.
		for k := range b.nodes {
			nd := &b.nodes[k]
			if nd.Feature != -1 {
				continue
			}
			nd.Value *= learningRate
			for _, i := range b.idx[b.spans[k].lo:b.spans[k].hi] {
				pred[i] += nd.Value
			}
		}
		m.Trees = append(m.Trees, tree{Nodes: append([]node(nil), b.nodes...)})
	}
	if stats != nil {
		*stats = b.stats
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
// document byte-stable.
//
// A split walks its smaller child only. The larger child's histogram is
// its parent's minus its sibling's: the counts are exact, the sums are not
// the sample-order sums and only rank the features, and the features that
// ranking cannot rule out (see gainSlack) are walked again and scanned
// exactly. All scratch is allocated once per fit and reused per tree.
type treeBuilder struct {
	bins    []uint8 // n x nf, row-major
	nf      int
	numBins []int // per feature: len(edges)+1
	off     []int // per feature: where its bins start in a slot
	p       Params
	gain    []float64

	resid []float64
	idx   []int32    // the shared index array
	right []int32    // partition scratch: the right child's samples
	hist  []featHist // the walk in hand: one per feature walked, in its list's order

	// rootHist is a slot holding the root's counts, the same in every
	// tree, and zero sums. slots holds the histograms the candidates keep:
	// slot s is slots[s*slotLen:][:slotLen]. free lists the unused slots; a
	// candidate that finds none keeps no histogram, and both its children
	// are walked.
	rootHist []histBin
	slots    []histBin
	slotLen  int
	free     []int32
	approx   []float64 // a subtracted child's approximate best gain per live feature
	exact    []int32   // the features a subtracted child walks again

	stats certStats

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

// maxSlotBins caps the candidates' histograms at 16 MiB a fit; a wide,
// deep fit beyond it walks both children of the candidates it could not
// keep.
const maxSlotBins = 1 << 20

// span is a node's range of the index array.
type span struct{ lo, hi int32 }

// nodeSums are two sums over a node's samples in their order: of the
// residuals and of their absolute values.
type nodeSums struct{ total, abs float64 }

// splitCand describes the best split found for a leaf.
type splitCand struct {
	node    int32 // node index in the growing tree
	feature int32 // -1: no split gains more than minGain
	bin     uint8
	gain    float64
	// live lists the features that can still split below this node: those
	// with more than one non-empty bin here. A feature with one never gets
	// a second in a subset, so the children do not build its histogram.
	live []int32
	// slot holds the leaf's histogram for the features of live, or is -1.
	// For every feature, the sum over its bins of |held sum - real sum| is
	// at most errBound.
	slot     int32
	errBound float64
}

// certStats counts what ranking subtracted histograms cost.
type certStats struct {
	children int // larger children ranked from a subtracted histogram
	walked   int // features those children walked again
	multi    int // children that walked more than one feature
	unkept   int // candidates that found no free slot
}

// minGain is the gain a split must exceed.
const minGain = 1e-12

func newTreeBuilder(bins []uint8, edges [][]float64, n int, p Params, gain []float64) *treeBuilder {
	nf := len(edges)
	b := &treeBuilder{bins: bins, nf: nf, p: p, gain: gain,
		numBins: make([]int, nf),
		off:     make([]int, nf),
		hist:    make([]featHist, nf),
		approx:  make([]float64, nf),
		exact:   make([]int32, 0, nf),
		resid:   make([]float64, n),
		idx:     make([]int32, n),
		right:   make([]int32, n),
	}
	for f, es := range edges {
		b.numBins[f] = len(es) + 1
		b.off[f] = b.slotLen
		b.slotLen += b.numBins[f]
	}
	// A tree has fewer than MaxLeaves candidates at once, each of at least
	// 2*MinLeafSamples samples of its own: more slots would never be used.
	slots := min(p.MaxLeaves-1, n/(2*p.MinLeafSamples))
	if b.slotLen > 0 {
		slots = min(slots, maxSlotBins/b.slotLen)
	}
	slots = max(slots, 0)
	arena := make([]histBin, (slots+1)*b.slotLen)
	b.rootHist, b.slots = arena[:b.slotLen], arena[b.slotLen:]
	b.free = make([]int32, 0, slots)
	for i := 0; i < n; i++ {
		for f, v := range bins[i*nf : i*nf+nf] {
			b.rootHist[b.off[f]+int(v)].cnt++
		}
	}
	return b
}

// build grows one regression tree best-first on the residuals, over all
// samples in order; root holds their sums. The tree is left in b.nodes,
// its nodes' sample ranges in b.spans.
func (b *treeBuilder) build(root nodeSums) {
	n := int32(len(b.idx))
	b.nodes, b.spans, b.cands, b.live = b.nodes[:0], b.spans[:0], b.cands[:0], b.live[:0]
	b.free = b.free[:0]
	for s := int32(cap(b.free)) - 1; s >= 0; s-- {
		b.free = append(b.free, s)
	}
	for f := int32(0); f < int32(b.nf); f++ {
		b.live = append(b.live, f)
	}
	all := b.live
	b.addLeaf(span{0, n}, root.total)
	// A node that can never be split — the tree is at MaxLeaves — needs no
	// candidate: the root of a one-leaf tree here, the children of the last
	// split below.
	if b.p.MaxLeaves > 1 && int(n) >= 2*b.p.MinLeafSamples {
		// The root's walk adds the sums to the fit's counts.
		for k, f := range all {
			copy(b.hist[k][:b.numBins[f]], b.rootHist[b.off[f]:])
		}
		b.accumulate(b.idx, all, false)
		if c := b.walkedSplit(0, root.total, all); c.feature >= 0 {
			b.keep(&c, all, exactErr(int(n), root.abs))
			b.cands = append(b.cands, c)
		}
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
		li := b.addLeaf(span{sp.lo, mid}, ls.total)
		ri := b.addLeaf(span{mid, sp.hi}, rs.total)
		nd := &b.nodes[c.node]
		nd.Feature, nd.Bin, nd.Left, nd.Right = int(c.feature), c.bin, li, ri
		b.gain[c.feature] += c.gain
		leaves++

		if leaves < b.p.MaxLeaves {
			b.splitChildren(c, li, ri, ls, rs)
		} else if c.slot >= 0 {
			b.free = append(b.free, c.slot)
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
// the sums of each side.
func (b *treeBuilder) partition(sp span, feature int, bin uint8) (mid int32, l, r nodeSums) {
	w, nr := sp.lo, 0
	for _, i := range b.idx[sp.lo:sp.hi] {
		v := b.resid[i]
		if b.bins[int(i)*b.nf+feature] <= bin {
			b.idx[w] = i // w never passes the read position
			w++
			l.total += v
			l.abs += math.Abs(v)
		} else {
			b.right[nr] = i
			nr++
			r.total += v
			r.abs += math.Abs(v)
		}
	}
	copy(b.idx[w:sp.hi], b.right[:nr])
	return w, l, r
}

// accumulate adds the residual of each sample of idx into its bin of the
// histogram b.hist holds for each feature of feats, in the order of idx.
// With count it clears those histograms first and counts the samples too;
// without, the caller has set the counts and zeroed the sums. Kept out of
// line so the loop has the registers to itself.
//
//go:noinline
func (b *treeBuilder) accumulate(idx []int32, feats []int32, count bool) {
	resid, bins, nf := b.resid, b.bins, b.nf
	hist := b.hist[:len(feats)]
	if !count {
		for _, i := range idx {
			r := resid[i]
			row := bins[int(i)*nf : int(i)*nf+nf]
			for k := range hist {
				hist[k][row[feats[k]]].sum += r
			}
		}
		return
	}
	for k, f := range feats {
		clear(hist[k][:b.numBins[f]])
	}
	for _, i := range idx {
		r := resid[i]
		row := bins[int(i)*nf : int(i)*nf+nf]
		for k := range hist {
			h := &hist[k][row[feats[k]]]
			h.sum += r
			h.cnt++
		}
	}
}

// splitChildren finds the splits of li and ri, the children of c, whose
// samples sum to l and r, and queues them, li's first. It walks the
// smaller child; the larger takes over c's histogram, less the smaller's.
func (b *treeBuilder) splitChildren(c splitCand, li, ri int32, l, r nodeSums) {
	var kids [2]splitCand
	if c.slot < 0 {
		kids[0] = b.walkChild(li, l, c.live)
		kids[1] = b.walkChild(ri, r, c.live)
	} else {
		small, large := 0, 1
		ids, sums := [2]int32{li, ri}, [2]nodeSums{l, r}
		if b.size(ri) < b.size(li) {
			small, large = 1, 0
		}
		if b.size(ids[large]) < 2*b.p.MinLeafSamples { // neither can split
			b.free = append(b.free, c.slot)
			return
		}
		sp := b.spans[ids[small]]
		b.accumulate(b.idx[sp.lo:sp.hi], c.live, true)
		kids[small] = b.walkedSplit(ids[small], sums[small].total, c.live)
		held := b.slots[int(c.slot)*b.slotLen:][:b.slotLen]
		for k, f := range c.live {
			dst := held[b.off[f]:][:b.numBins[f]]
			for bn, h := range b.hist[k][:len(dst)] {
				dst[bn].sum -= h.sum
				dst[bn].cnt -= h.cnt
			}
		}
		smallErr := exactErr(b.size(ids[small]), sums[small].abs)
		if kids[small].feature >= 0 {
			b.keep(&kids[small], c.live, smallErr)
		}
		kids[large] = b.subtractedSplit(ids[large], sums[large], c.live, c.slot,
			subtractErr(c.errBound, smallErr, b.size(ids[large]), sums[large].abs))
		if kids[large].feature < 0 {
			b.free = append(b.free, c.slot)
		}
	}
	for _, k := range kids {
		if k.feature >= 0 {
			b.cands = append(b.cands, k)
		}
	}
}

// size returns the number of samples of node ni.
func (b *treeBuilder) size(ni int32) int {
	sp := b.spans[ni]
	return int(sp.hi - sp.lo)
}

// walkChild walks node ni, whose samples sum to s, for every feature of
// live, and returns its split, keeping its histogram if it has one.
func (b *treeBuilder) walkChild(ni int32, s nodeSums, live []int32) splitCand {
	n := b.size(ni)
	if n < 2*b.p.MinLeafSamples {
		return splitCand{feature: -1}
	}
	sp := b.spans[ni]
	b.accumulate(b.idx[sp.lo:sp.hi], live, true)
	c := b.walkedSplit(ni, s.total, live)
	if c.feature >= 0 {
		b.keep(&c, live, exactErr(n, s.abs))
	}
	return c
}

// walkedSplit scans the histograms b.hist holds of node ni, one per feature
// of live, for the node's best split; total is its residual sum. When there
// is one, the features still live below ni are left in the live arena.
func (b *treeBuilder) walkedSplit(ni int32, total float64, live []int32) splitCand {
	c := splitCand{node: ni, feature: -1, gain: minGain, slot: -1}
	n := b.size(ni)
	if n < 2*b.p.MinLeafSamples {
		return c
	}
	base := total * total / float64(n)
	liveStart := len(b.live)
	for k, f := range live {
		g, bn, lv := gainScan(b.hist[k][:b.numBins[f]], total, base, n, b.p.MinLeafSamples, minGain)
		if bn >= 0 && g > c.gain {
			c.feature, c.bin, c.gain = f, uint8(bn), g
		}
		if lv {
			b.live = append(b.live, f)
		}
	}
	if c.feature < 0 {
		b.live = b.live[:liveStart]
		return c
	}
	c.live = b.live[liveStart:]
	return c
}

// keep copies the histograms b.hist holds of c's node, one per feature of
// live, into a free slot for the features of c.live, if a slot is free.
func (b *treeBuilder) keep(c *splitCand, live []int32, errBound float64) {
	if len(b.free) == 0 {
		b.stats.unkept++
		return
	}
	c.slot, c.errBound = b.free[len(b.free)-1], errBound
	b.free = b.free[:len(b.free)-1]
	held := b.slots[int(c.slot)*b.slotLen:][:b.slotLen]
	k := 0
	for _, f := range c.live { // a subsequence of live
		for live[k] != f {
			k++
		}
		copy(held[b.off[f]:], b.hist[k][:b.numBins[f]])
	}
}

// subtractedSplit finds the split of node ni, whose samples sum to s, from
// the subtracted histogram in slot, exact counts and approximate sums for
// the features of live, within errBound a feature. It ranks the features
// on the approximate sums, walks the ones the ranking cannot rule out, and
// takes the split from their exact scan: the split, its gain and the
// features left live are those a walk of every feature finds.
func (b *treeBuilder) subtractedSplit(ni int32, s nodeSums, live []int32, slot int32, errBound float64) splitCand {
	c := splitCand{node: ni, feature: -1, gain: minGain, slot: -1}
	n, minLeaf := b.size(ni), b.p.MinLeafSamples
	base := s.total * s.total / float64(n)
	held := b.slots[int(slot)*b.slotLen:][:b.slotLen]
	liveStart := len(b.live)
	top := math.Inf(-1)
	for k, f := range live {
		g, _, lv := gainScan(held[b.off[f]:][:b.numBins[f]], s.total, base, n, minLeaf, math.Inf(-1))
		b.approx[k] = g
		if g > top {
			top = g
		}
		if lv {
			b.live = append(b.live, f)
		}
	}
	// Every approximate gain lies within delta of its exact one, so a
	// feature whose approximate best lies more than 2*delta below the top,
	// or delta below minGain, has an exact best below another feature's, or
	// not above minGain.
	delta := gainSlack(n, s.abs, errBound, minLeaf)
	certain := delta <= math.MaxFloat64
	cut, floor := top-2*delta, minGain-delta
	b.exact = b.exact[:0]
	for k, f := range live {
		if g := b.approx[k]; !certain || !(g < cut || g < floor) {
			b.exact = append(b.exact, f)
		}
	}
	b.stats.children++
	b.stats.walked += len(b.exact)
	if len(b.exact) > 1 {
		b.stats.multi++
	}
	if len(b.exact) > 0 {
		for j, f := range b.exact {
			h := b.hist[j][:b.numBins[f]]
			copy(h, held[b.off[f]:])
			for bn := range h {
				h[bn].sum = 0
			}
		}
		sp := b.spans[ni]
		b.accumulate(b.idx[sp.lo:sp.hi], b.exact, false)
		for j, f := range b.exact {
			g, bn, _ := gainScan(b.hist[j][:b.numBins[f]], s.total, base, n, minLeaf, minGain)
			if bn >= 0 && g > c.gain {
				c.feature, c.bin, c.gain = f, uint8(bn), g
			}
		}
	}
	if c.feature < 0 {
		b.live = b.live[:liveStart]
		return c
	}
	c.live, c.slot, c.errBound = b.live[liveStart:], slot, errBound
	return c
}

// gainScan scans the histogram h of one feature at a node of n samples
// whose residuals sum to total (base = total²/n) for the split "<= bin"
// with the largest gain above floor, the lowest such bin on a tie; bin is
// -1 if no gain is above floor. live reports whether h has more than one
// non-empty bin.
func gainScan(h []histBin, total, base float64, n, minLeaf int, floor float64) (gain float64, bin int, live bool) {
	gain, bin = floor, -1
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
		if g := splitGain(cumSum, total, base, cumCnt, n); g > gain {
			gain, bin = g, bn
		}
	}
	return gain, bin, !single && cumCnt > 0 // cumCnt == 0: everything sits in the last bin
}

// splitGain is the variance reduction of splitting a node of n samples
// whose residuals sum to total (base = total²/n) into k samples summing to
// left and the rest.
func splitGain(left, total, base float64, k, n int) float64 {
	right := total - left
	return left*left/float64(k) + right*right/float64(n-k) - base
}

// --- the subtraction bound ---------------------------------------------------
//
// The bound gainSlack returns is derived in DESIGN.md §6, "Training the
// forest". Every rounding is taken relative, |fl(x op y) - x op y| <=
// unit·|x op y|, with an absolute term for underflow; the inflation
// factors cover the rounding of the bound's own arithmetic.

// unit is the unit roundoff of float64.
const unit = 0x1p-53

// gamma is the classic γ_k = k·u/(1-k·u): a sum of k+1 terms folded in
// float64 is within γ_k·Σ|term| of the real sum.
func gamma(k int) float64 {
	ku := float64(k) * unit
	return ku / (1 - ku)
}

// absBound bounds the real sum of n absolute residuals whose float64 fold
// is abs.
func absBound(abs float64, n int) float64 {
	return abs * (1 + 2*gamma(n))
}

// exactErr bounds, for a histogram walked over n samples whose absolute
// residuals fold to abs, the sum over one feature's bins of |bin sum - real
// bin sum|.
func exactErr(n int, abs float64) float64 {
	return gamma(n) * absBound(abs, n)
}

// subtractErr is that bound for a histogram subtracted from a parent's
// (parentErr) and a sibling's (siblingErr), over the n samples, folding to
// abs, of the child: (1+u)(parentErr+siblingErr) + u·Σ|r|, rounded up.
func subtractErr(parentErr, siblingErr float64, n int, abs float64) float64 {
	return (1 + 0x1p-50) * (parentErr + siblingErr + 2*unit*absBound(abs, n))
}

// gainSlack bounds |approximate gain - exact gain| over every split of a
// node of n samples whose absolute residuals fold to abs: the approximate
// gain scanned from bins within errBound a feature of the real sums, the
// exact one from the sample-order bins. It is +Inf when a gain could
// overflow.
func gainSlack(n int, abs, errBound float64, minLeaf int) float64 {
	a := absBound(abs, n)
	a1 := a * (1 + gamma(n))             // bounds |left|+|right| and |total|
	rho := a1 / float64(max(minLeaf, 1)) // bounds |left|/k and |right|/(n-k)
	d := scanSlack(errBound, a, a1, rho) + scanSlack(exactErr(n, abs), a, a1, rho)
	return d*(1+0x1p-20) + 0x1p-1000
}

// scanSlack bounds |scanned gain - real gain| for a scan whose bins are
// within e a feature of the real bin sums; a, a1 and rho are gainSlack's.
func scanSlack(e, a, a1, rho float64) float64 {
	c := e + gamma(256)*(a+e) // |cumSum - left|
	d := c + unit*(a1+c)      // |rSum - right|
	if m := 2 * (a1 + d); m*m > math.MaxFloat64 {
		return math.Inf(1)
	}
	ar, g2 := a1*rho, gamma(2)
	x := 2*c*rho + c*c + g2*(ar+2*c*rho+c*c) // |cumSum²/k - left²/k|
	y := 2*d*rho + d*d + g2*(ar+2*d*rho+d*d) // |rSum²/(n-k) - right²/(n-k)|
	s := ar + x + y                          // bounds cumSum²/k + rSum²/(n-k)
	return x + y + unit*s + unit*(s*(1+unit)+ar*(1+g2))
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

// PredictEachBin writes to out, for every bin v of feature f, the value
// PredictBinned returns for bins with bins[f] = v; out must hold
// len(Edges[f])+1 values. It walks each tree once: a split on f divides the
// range of bins that reaches the node between its children, and a leaf adds
// its value to every bin of its range. Each output starts at Bias and adds
// one leaf per tree in tree order, the additions PredictBinned makes, so
// out[v] is the same bits as the walk.
func (m *Model) PredictEachBin(out []float64, bins []uint8, f int) {
	if len(out) != len(m.Edges[f])+1 {
		panic(fmt.Sprintf("gbdt: PredictEachBin into %d values, feature %d has %d bins", len(out), f, len(m.Edges[f])+1))
	}
	for v := range out {
		out[v] = m.Bias
	}
	for ti := range m.Trees {
		sweep(m.Trees[ti].Nodes, 0, bins, f, out, 0)
	}
}

// sweep adds the leaf below node n of each bin of feature f that reaches n:
// out holds those bins' outputs, out[0] that of bin base.
func sweep(nodes []node, n int32, bins []uint8, f int, out []float64, base int) {
	for {
		nd := &nodes[n]
		switch {
		case nd.Feature == -1:
			for v := range out {
				out[v] += nd.Value
			}
			return
		case nd.Feature != f:
			if bins[nd.Feature] <= nd.Bin {
				n = nd.Left
			} else {
				n = nd.Right
			}
		default:
			// Bins base..nd.Bin, out[:cut], go left; the rest go right.
			cut := min(max(int(nd.Bin)+1-base, 0), len(out))
			if cut > 0 {
				sweep(nodes, nd.Left, bins, f, out[:cut], base)
			}
			if cut == len(out) {
				return
			}
			out, base, n = out[cut:], base+cut, nd.Right
		}
	}
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

// UnmarshalJSON decodes a model and validates it. A model document is
// operator input inside a bundle (model.LoadGBDT, what trainmodel -save
// writes and lavasim -model-file reads), so every decoder refuses the
// shapes Predict could not walk: see validate.
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
