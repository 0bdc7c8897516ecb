// Package gbdt implements gradient-boosted regression trees from scratch —
// the model family the paper deploys in production (§3, Appendix B: Yggdrasil
// GBDT, 2000 trees, max 32 nodes, best-first global growth). Training uses
// histogram-binned features and variance-reduction splits; inference is a
// pure tree walk designed to complete in microseconds so it can run inside
// the scheduler binary (Fig. 8).
//
// Splits compare bin indices, never raw values: Predict bins the vector
// once (AppendBins) and walks every tree over bytes (PredictBinned), and
// callers that hold part of a vector fixed can key on its bins.
package gbdt
