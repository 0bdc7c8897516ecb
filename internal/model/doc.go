// Package model defines the lifetime-prediction interface the schedulers
// consume and its reference implementations: ground-truth oracles, the
// accuracy-controlled noisy oracle of Appendix G.1, and the
// distribution-table predictor built on empirical lifetime CDFs (§2.1),
// which is also Table 4's stratified Kaplan-Meier baseline.
//
// The other learned models live in the sub-packages gbdt (the production
// model family of the paper), cox and mlp (Table 4 baselines); package
// model adapts them behind the same Predictor interface.
package model
