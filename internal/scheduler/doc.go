// Package scheduler implements a Borg-like VM scheduling framework (§2.2)
// and the paper's scheduling policies.
//
// The framework mirrors Borg's structure: for each VM request it computes
// the set of feasible hosts, then applies a *lexicographic* chain of scoring
// functions — one dimension at a time, with ties resolved by the next-lower
// dimension (§2.2). NILAS inserts its quantized temporal cost one level
// above the bin packing score (§4.2); LAVA adds a coarse lifetime-class
// preference one level above NILAS (§4.3); LA-Binary reproduces Barbalho et
// al.'s one-shot lifetime alignment (§2.4, §5.3).
//
// Scoring runs on one of two engines. The default is the incremental score
// cache (CachedChain): pool host events keep per-context candidate sets
// current, so a steady-state Schedule touches only changed hosts plus the
// winning score bucket. The exhaustive reference path (Chain, selectable
// via SetEngine/EngineExhaustive) rescans every feasible host; both engines
// share one filter core and produce byte-identical decisions — the
// differential tests (TestCachedMatchesExhaustiveMatrices among them)
// enforce it. See DESIGN.md §6.
package scheduler
