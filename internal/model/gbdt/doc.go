// Package gbdt implements gradient-boosted regression trees from scratch —
// the model family the paper deploys in production (§3, Appendix B: Yggdrasil
// GBDT, 2000 trees, max 32 nodes, best-first global growth). Training uses
// histogram-binned features and variance-reduction splits; inference is a
// pure tree walk designed to complete in microseconds so it can run inside
// the scheduler binary (Fig. 8).
//
// Train costs one pass over a node's samples per node: the matrix is binned
// row-major, the pass fills the histogram of every feature that can still
// split, and a split partitions one shared index array in place and stably.
// Every float sum runs over samples in ascending order, so the model
// document is a function of the inputs alone — the same bytes on any
// machine at any GOMAXPROCS — and Train starts no goroutines.
//
// Splits compare bin indices, never raw values: Predict bins the vector
// once (AppendBins) and walks every tree over bytes (PredictBinned), and
// callers that hold part of a vector fixed can key on its bins.
// PredictEachBin gives, in one pass over the trees, what PredictBinned
// returns for every bin of one feature with the others held fixed.
package gbdt
