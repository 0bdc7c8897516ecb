package scheduler

import (
	"math/bits"
	"time"

	"lava/internal/cluster"
)

// This file is the decision-capture layer: when tracing is armed
// (EnableTrace), a chain policy retains, for each Schedule call, the scored
// context of the decision it just made — how many hosts were feasible, the
// top-K alternatives by level-0 score, and the chain level that decided.
// The recorder that persists captures lives in internal/ptrace; keeping the
// capture types here (and ptrace importing scheduler, never the reverse)
// avoids an import cycle and lets both engines fill the same buffers.
//
// Parity contract: the cached and exhaustive engines must emit identical
// captures for identical decisions. The cached engine reads its K
// alternatives off the sorted bucket structure; the exhaustive engine
// collects the same K from the scores it computes anyway during the level-0
// filter. Neither path may invoke a scorer the untraced engine would not
// have invoked — scorer side effects (exit-cache refreshes, model-call
// counters) are part of the byte-identical-results contract, and model-call
// counts appear in canonical experiment JSON.
//
// With tracing disabled the hot path sees only nil checks: no allocation,
// no scoring, no copying (verified by TestScheduleDisabledTraceAllocs).

// Alt is one scored placement alternative: a feasible host and its level-0
// chain score. Unscored marks the single-feasible-host fast path of a chain
// whose level 0 is dynamic — evaluating the scorer there would perturb
// model-call counts, so both engines record the host without a score.
type Alt struct {
	Host     cluster.HostID `json:"host"`
	Score    float64        `json:"score"`
	Unscored bool           `json:"unscored,omitempty"`
}

// Capture is the decision context retained for the most recent Schedule
// call of a traced policy. Alts holds the top-K feasible hosts ordered by
// (level-0 score ascending, host ID ascending). The chosen host always sits
// in the minimal-score group, but deeper chain levels break level-0 ties,
// so it need not be Alts[0] — and when that group is wider than K it may be
// truncated out entirely. Level is the chain level whose filter first
// narrowed the candidates to one; -1 means the decision fell through to the
// host-ID tie-break or only one host was feasible. The buffers are reused
// across calls: callers that retain a capture must copy it.
type Capture struct {
	Feasible int
	Level    int
	Alts     []Alt
}

// Traceable is implemented by policies that can capture decision context.
// EnableTrace(k) arms capture of the top-k alternatives (k <= 0 disarms);
// LastCapture returns the capture of the most recent Schedule call, or nil
// when tracing is disarmed. All built-in chain policies implement it.
type Traceable interface {
	EnableTrace(k int)
	LastCapture() *Capture
}

// EnableTrace arms decision capture on p when the policy supports it, and
// reports whether it does. Policies without capture support are left alone.
func EnableTrace(p Policy, k int) bool {
	t, ok := p.(Traceable)
	if ok {
		t.EnableTrace(k)
	}
	return ok
}

// CaptureOf returns p's most recent decision capture, or nil when the
// policy is untraced or does not support tracing.
func CaptureOf(p Policy) *Capture {
	if t, ok := p.(Traceable); ok {
		return t.LastCapture()
	}
	return nil
}

// capState is the armed-tracing state hung off a Chain. dyn0 records
// whether level 0 is dynamic (or the whole chain time-varying), which
// forbids out-of-band level-0 evaluation; scored tracks whether the current
// Schedule call has filled Alts yet.
type capState struct {
	Capture
	k      int
	dyn0   bool
	scored bool
}

// begin resets the capture for a new Schedule call over `feasible` hosts.
func (t *capState) begin(feasible int) {
	t.Feasible = feasible
	t.Level = -1
	t.Alts = t.Alts[:0]
	t.scored = false
}

// observe feeds one level-0 (host, score) pair from the exhaustive filter
// scan, maintaining the K smallest by (score, arrival order). Candidates
// arrive in host-ID order, and level-0 bucket scores are discrete (see the
// bucket contract in CachedChain.Schedule), so exact float comparison with
// stable insertion reproduces the cached engine's (key, ID)-sorted walk.
func (t *capState) observe(id cluster.HostID, score float64) {
	t.scored = true
	if len(t.Alts) == t.k {
		if score >= t.Alts[t.k-1].Score {
			return
		}
		t.Alts = t.Alts[:t.k-1]
	}
	i := len(t.Alts)
	for i > 0 && score < t.Alts[i-1].Score {
		i--
	}
	t.Alts = append(t.Alts, Alt{})
	copy(t.Alts[i+1:], t.Alts[i:])
	t.Alts[i] = Alt{Host: id, Score: score}
}

// narrowed records that chain level li left n survivors: the first level to
// leave exactly one is the level that decided. A nil receiver (tracing
// disarmed) is a no-op, so the filter loops call it unconditionally.
func (t *capState) narrowed(li, n int) {
	if t != nil && t.Level < 0 && n == 1 {
		t.Level = li
	}
}

// captureSingle records the lone candidate of a Schedule call whose chain
// filter never evaluated level 0 (one feasible host, or a one-member
// winning bucket never re-filtered). A static level 0 is pure, so scoring
// it here is free of side effects and matches the cached bucket key; a
// dynamic level 0 must not be evaluated out of band, so both engines record
// the host unscored.
func (t *capState) captureSingle(c *Chain, h *cluster.Host, vm *cluster.VM, now time.Duration) {
	t.scored = true
	if t.dyn0 || len(c.Scorers) == 0 {
		t.Alts = append(t.Alts[:0], Alt{Host: h.ID, Unscored: true})
		return
	}
	t.Alts = append(t.Alts[:0], Alt{Host: h.ID, Score: c.Scorers[0].Score(h, vm, now)})
}

// captureBuckets fills the capture from a candSet's sorted bucket
// structure: keys ascending, member IDs ascending — the K lexicographically
// smallest (score, ID) pairs — with zero scorer calls. Feasible is the sum of
// the bucket counts.
func (t *capState) captureBuckets(cs *candSet) {
	t.Alts = t.Alts[:0]
	t.Level = -1
	t.scored = true
	t.Feasible = 0
	for _, b := range cs.bkts {
		t.Feasible += b.n
		for w := 0; w < len(b.bits) && len(t.Alts) < t.k; w++ {
			for word := b.bits[w]; word != 0 && len(t.Alts) < t.k; word &= word - 1 {
				t.Alts = append(t.Alts, Alt{Host: cluster.HostID(w<<6 | bits.TrailingZeros64(word)), Score: b.key})
			}
		}
	}
}

// EnableTrace implements Traceable: arm capture of the top-k alternatives
// (k <= 0 disarms). Chains wrapped in a CachedChain are armed through
// CachedChain.EnableTrace, which also classifies level 0.
func (c *Chain) EnableTrace(k int) {
	if k <= 0 {
		c.tr = nil
		return
	}
	c.tr = &capState{k: k}
}

// LastCapture implements Traceable.
func (c *Chain) LastCapture() *Capture {
	if c.tr == nil {
		return nil
	}
	return &c.tr.Capture
}

// AppendLevelScores evaluates every chain level for the (host, VM, time)
// triple and appends the scores to dst. It bypasses the score cache —
// counterfactual replay uses it to price a divergence (regret), off the
// scheduling hot path. Note that dynamic scorers run with their usual side
// effects (exit-cache refreshes), so regret evaluation shares the policy's
// caches.
func (c *Chain) AppendLevelScores(dst []float64, h *cluster.Host, vm *cluster.VM, now time.Duration) []float64 {
	for _, s := range c.Scorers {
		dst = append(dst, s.Score(h, vm, now))
	}
	return dst
}

// levelScorable is implemented by policies that can price an arbitrary
// (host, VM) pair across their chain levels (see Chain.AppendLevelScores).
type levelScorable interface {
	AppendLevelScores(dst []float64, h *cluster.Host, vm *cluster.VM, now time.Duration) []float64
}

// LevelScores appends p's per-level scores for (h, vm, now) to dst,
// reporting false when the policy cannot price arbitrary pairs.
func LevelScores(p Policy, dst []float64, h *cluster.Host, vm *cluster.VM, now time.Duration) ([]float64, bool) {
	ls, ok := p.(levelScorable)
	if !ok {
		return dst, false
	}
	return ls.AppendLevelScores(dst, h, vm, now), true
}
