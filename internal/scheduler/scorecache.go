package scheduler

import (
	"math"
	"math/bits"
	"time"

	"lava/internal/cluster"
	"lava/internal/resources"
)

// This file implements the incremental scoring engine. The observation
// (§7 of the paper: production deployment) is that host state only changes
// on VM place/exit/migrate and on reprediction deadlines, yet the exhaustive
// Chain rescores every feasible host from scratch on every placement —
// O(hosts x scorers) per decision. The CachedChain below subscribes to the
// pool's host-event surface (cluster.Subscribe), keeps per-context candidate
// sets with cached per-host chain scores, and on Schedule touches only the
// hosts dirtied since the last call plus the winning score bucket: a dirty
// host is re-scored on the one level that defines the buckets, and a deeper
// static level is scored the first time the filter reads it for a surviving
// candidate.
//
// What Schedule walks is the winning bucket's bitset, once, into a reused
// slice of host IDs, and then one level-major column per chain level below
// 0, indexed by those IDs (filter): a byte per host, coding a value in the
// level's table of at most 255 (static scores are discrete; no replay-scale
// column holds more than 115). A *cluster.Host is touched only to hand it
// to a Scorer — a lazy fill, a dynamic level — and to return the winner.
//
// One kind of decision skips the walk: opening a host. When a VM fits on no
// occupied host, the winning bucket is every empty host (about 9.6k of 10k
// on replay-scale), and the walk would score each on every level below 0
// only to return the lowest ID. A blank host (blank) is empty with LAVA's
// State, Class and Deadline at zero. On a pool of one capacity (checked at
// bind), a scorer that reads nothing else of a host gives every blank host
// the same score; the built-in avoid-empty, waste-min, best-fit, lava-class
// and temporal-epoch scorers say so through ScorerFunc's unexported
// blankAlike marker. So each bucket counts its blank members, and when the
// winning bucket holds nothing else, every level below it is static and
// marked, and decision capture is off, Schedule returns the bucket's lowest
// member unscored (CacheStats.BlankPicks). The marker is a promise: a static
// scorer that reads host identity or per-host side state must not carry it
// (TestBlankHostsScoreAlike checks the built-ins). Outside scorers, chains
// with a dynamic level (exact NILAS and LAVA), traced runs and the
// exhaustive engine keep the walk, and a chain that can never take the
// shortcut keeps no blank counts.
//
// Equivalence to the exhaustive path is structural, not statistical: both
// engines put the same candidates through the same epsilon rule (sift) in
// the same ID order, with static levels read from cache and time-varying
// levels recomputed through the original Scorer. The differential tests
// (scorecache_test.go and TestCachedMatchesExhaustiveMatrices) verify
// byte-identical results on full experiment matrices.

// Engine selects the Schedule implementation of a chain policy.
type Engine int

// Engines. EngineCached is the default for every built-in policy;
// EngineExhaustive is the reference full-rescore path kept for differential
// testing and benchmarking.
const (
	EngineCached Engine = iota
	EngineExhaustive
)

// CacheContext is the key under which per-host chain scores are cached.
// Static scorer levels must be pure functions of (host state, context): two
// Schedule calls whose VMs map to the same context must observe bit-identical
// static scores for an unchanged host. The shape covers the packing scorers
// (waste-min, best-fit); Class carries policy-specific discrimination such
// as the LAVA lifetime class of the VM being placed.
type CacheContext struct {
	Shape resources.Vector
	Class int32
}

// maxCachedContexts bounds the per-policy context population (distinct VM
// shapes x classes). Workload mixes are small and discrete — the fig6 mix
// has 18 distinct shapes (wastemin holds 17 contexts on the benchmark's
// replay-scale workload), times at most four LAVA lifetime classes; the
// epoch variants multiply by the ~11 quantized remaining-lifetime buckets
// instead, of which only a handful are populated per shape (lava-epoch holds
// 133–138 on replay-scale, seeds 1–7; CacheStats reports the live count)
// — so the cap sits above the realistic population and exists only to keep
// memory bounded under adversarial inputs (memory ceiling: contexts x hosts
// x (levels+1) bytes plus bucket bitsets and value tables, CacheStats.Bytes).
// The least-recently-used context is evicted and rebuilt on demand if it
// ever returns; eviction thrash shows up directly in the scale benchmarks,
// so keep the cap comfortably above the live population.
const maxCachedContexts = 256

// CachedChain is a Chain wrapped in the incremental score-cache engine. The
// zero value of the extra fields gives a fully static chain (every level
// cached); Dynamic marks levels that must be recomputed on every call, and
// TimeVarying disables caching for the whole chain.
//
// Static levels below level 0 are cached lazily, as a one-byte code per
// host (0: not cached) into the level's table of values interned by bit
// pattern, so a static scorer may return any float64 — ±0, ±Inf, NaN with
// any payload — and both engines filter the same bits. A 256th distinct
// value resets the level, which then refills on demand. Level 0 keys the
// buckets, so there the discrete-value contract (see Schedule) applies and
// NaN is excluded.
//
// Like Chain, a CachedChain must not be shared by concurrent simulations.
// It additionally binds to one pool at a time: scheduling against a
// different pool unsubscribes from the old one and rebuilds the cache.
type CachedChain struct {
	Chain

	// Dynamic[i] marks scorer i as time- or VM-varying beyond the context
	// key (e.g. the NILAS temporal cost, which depends on the candidate
	// VM's repredicted exit). Dynamic levels are evaluated through the
	// original Scorer on exactly the candidates the exhaustive path would
	// evaluate them on, so side effects (exit-cache refreshes, model-call
	// counters) stay identical between engines. A dynamic level 0 disables
	// bucketing: every feasible host is a candidate, as in the exhaustive
	// path.
	Dynamic []bool

	// ClassOf extends the cache context beyond the VM shape. nil means the
	// shape alone determines every static score.
	ClassOf func(vm *cluster.VM, now time.Duration) int32

	// TimeVarying is the escape hatch for chains whose scores change with
	// the clock even when no host event fires (LA-Binary's host class
	// silently decays as time passes). Such a chain would need every host
	// rescored before every Schedule, so the engine skips the cache
	// bookkeeping entirely and delegates to the exhaustive path — same
	// results, none of the pointless maintenance.
	TimeVarying bool

	// Epoch is the middle ground between fully static and TimeVarying:
	// scores that are pure within a fixed quantum of virtual time (the
	// epoch-quantized temporal levels, see epoch.go). When set, a context
	// whose cached scores date from another epoch drops them on its next
	// Schedule — a stamp comparison per call, no sweep over the contexts at
	// the boundary itself.
	Epoch time.Duration

	// epochLevel is the one epoch-quantized level. Below level 0, a boundary
	// resets only that level's lazily cached codes and leaves bucket
	// membership alone; at level 0 (the zero value) the context is rebuilt.
	epochLevel int

	engine Engine
	pool   *cluster.Pool
	cancel func()
	hosts  []*cluster.Host // pool.Hosts(); hosts[i].ID == i (checked at bind)
	stats  CacheStats

	// blankOK: the bound pool has one capacity and every level below level
	// 0 is static and scores blank hosts alike (bind), so the buckets count
	// their blank members and Schedule may take the blank shortcut.
	blankOK bool

	sets   map[CacheContext]*candSet
	list   []*candSet // same sets, for event fan-out and eviction
	useSeq uint64
	ids    []int32 // reused candidate buffer: host IDs of the winning bucket
}

// NewCachedChain wraps chain in the incremental score-cache engine. dynamic
// marks the time/VM-varying levels (nil: all static); classOf extends the
// cache context beyond the VM shape (nil: shape only). See the CachedChain
// field docs for the exact contracts.
func NewCachedChain(chain Chain, dynamic []bool, classOf func(*cluster.VM, time.Duration) int32) *CachedChain {
	return &CachedChain{Chain: chain, Dynamic: dynamic, ClassOf: classOf}
}

// SetEngine switches between the incremental and the exhaustive engine.
// Switching to EngineExhaustive releases the cache and the pool
// subscription; switching back rebinds lazily on the next Schedule.
func (c *CachedChain) SetEngine(e Engine) {
	c.engine = e
	if e == EngineExhaustive {
		c.unbind()
	}
}

// EngineOf reports the engine a policy currently runs on; policies without
// an engine switch (plain Chains, custom policies) report EngineExhaustive.
func EngineOf(p Policy) Engine {
	if s, ok := p.(interface{ engineOf() Engine }); ok {
		return s.engineOf()
	}
	return EngineExhaustive
}

func (c *CachedChain) engineOf() Engine { return c.engine }

// SetEngine flips a policy (and any policies it wraps, e.g. both arms of a
// Switched rollout) onto the given engine. Policies without an engine
// switch are returned unchanged.
func SetEngine(p Policy, e Engine) Policy {
	if s, ok := p.(interface{ SetEngine(Engine) }); ok {
		s.SetEngine(e)
	}
	return p
}

// EnableTrace implements Traceable. Beyond arming the embedded chain it
// classifies level 0: a dynamic level 0 (or a TimeVarying chain) must never
// be evaluated outside the filter scan, so single-candidate decisions are
// recorded unscored on both engines.
func (c *CachedChain) EnableTrace(k int) {
	c.Chain.EnableTrace(k)
	if c.Chain.tr != nil {
		c.Chain.tr.dyn0 = c.dyn(0) || c.TimeVarying
	}
}

// dyn reports whether level li is dynamic.
func (c *CachedChain) dyn(li int) bool {
	return li < len(c.Dynamic) && c.Dynamic[li]
}

// Schedule implements Policy. In cached mode it syncs the context's
// candidate set with the hosts dirtied since the last call, then filters
// only the winning level-0 bucket (or, when level 0 is dynamic, the
// feasible set) through the epsilon rule the exhaustive engine applies — or,
// when that bucket holds only blank hosts, returns its lowest member (see
// the file comment).
func (c *CachedChain) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	if c.engine == EngineExhaustive || c.TimeVarying || !c.bind(pool) {
		return c.Chain.Schedule(pool, vm, now)
	}
	ctx := CacheContext{Shape: vm.Shape}
	if c.ClassOf != nil {
		ctx.Class = c.ClassOf(vm, now)
	}
	cs := c.lookup(ctx)
	if c.Epoch > 0 {
		// Epoch rollover, seen by each context on its own next Schedule
		// however many boundaries it sat out (+1 keeps a fresh context's
		// zero stamp distinct from epoch 0).
		if idx := int64(now/c.Epoch) + 1; idx != cs.epoch {
			if cs.epoch != 0 {
				c.stats.Rollovers++
			}
			cs.epoch = idx
			if c.epochLevel == 0 {
				cs.allDirty = true
			} else {
				cs.reset(c.epochLevel)
			}
		}
	}
	c.sync(cs, vm, now)

	// The candidates are the winning bucket: the lowest-key non-empty one.
	var win *scoreBkt
	for _, b := range cs.bkts {
		if b.n > 0 {
			win = b
			break
		}
	}
	t := c.Chain.tr
	if win == nil {
		if t != nil {
			t.begin(0)
		}
		return nil, ErrNoCapacity
	}
	c.stats.Filtered += int64(win.n)
	if t == nil && win.blanks == win.n {
		// The blank shortcut: every candidate is blank and every level
		// below the key scores blank hosts alike (bind), so each level's
		// sift would keep them all and the lowest ID would win.
		c.stats.BlankPicks++
		return c.hosts[win.first()], nil
	}
	// A static level 0 was consumed by the bucket structure: the winning
	// bucket is exactly the set of feasible hosts with the minimal level-0
	// score, i.e. the survivors of the exhaustive level-0 filter. Bucketed
	// level-0 scorers must therefore return discrete values separated by
	// more than the filter epsilon — all built-in level-0 scorers return
	// small integers.
	from := 1
	if c.dyn(0) {
		from = 0
	}
	if t != nil {
		if c.dyn(0) {
			// Dynamic level 0: the one bucket is the full feasible set and
			// the filter starts at 0, so capture rides the filter scan
			// exactly as on the exhaustive engine.
			t.begin(win.n)
		} else {
			// Static level 0: read the K best (score, ID) pairs straight
			// off the sorted buckets. A one-member winning bucket among
			// several feasible hosts means level 0 decided — the filter
			// the exhaustive engine would have run at level 0.
			t.captureBuckets(cs)
			if t.Feasible > 1 && win.n == 1 {
				t.Level = 0
			}
		}
	}
	h := c.hosts[c.filter(cs, win, from, vm, now)]
	if t != nil && !t.scored {
		// Single feasible host under a dynamic level 0: record it unscored,
		// as the exhaustive path does (see capState.captureSingle).
		t.captureSingle(&c.Chain, h, vm, now)
	}
	return h, nil
}

// filter is Chain.applyChain over columns: it walks the winning bucket's
// bitset into host IDs (ascending, the exhaustive scan order), sifts them
// level by level from level `from` down, in place, and returns the winner's
// ID. A static level is read from its code column through the level's value
// table — scored through the original Scorer, interned, and counted in
// LazyEvals, exactly when the host's code is 0. A dynamic level is scored
// through the original Scorer on the same IDs in the same order as the
// exhaustive engine, so its side effects match. Like applyChain it stops
// before scoring once one candidate is left.
func (c *CachedChain) filter(cs *candSet, win *scoreBkt, from int, vm *cluster.VM, now time.Duration) int32 {
	if cap(c.ids) < win.n {
		c.ids = make([]int32, len(c.hosts))
	}
	ids, k := c.ids[:win.n], 0
	for w, word := range win.bits {
		for ; word != 0; word &= word - 1 {
			ids[k] = int32(w<<6 | bits.TrailingZeros64(word))
			k++
		}
	}
	nHosts := len(c.hosts)
	for li := from; li < len(c.Scorers) && len(ids) > 1; li++ {
		s, dyn := c.Scorers[li], c.dyn(li)
		obs := c.Chain.tr // only a dynamic level 0 is ever filtered here
		if li != 0 {
			obs = nil
		}
		var col []uint8 // level 0 is filtered here only when dynamic
		if li > 0 {
			col = cs.codes[(li-1)*nHosts : li*nHosts]
		}
		tab := cs.tabs[li]
		n, best := 0, 0.0
		var at int
		for _, id := range ids {
			var sc float64
			switch {
			case dyn:
				sc = s.Score(c.hosts[id], vm, now)
				if obs != nil {
					obs.observe(cluster.HostID(id), sc)
				}
			case col[id] == 0:
				sc = s.Score(c.hosts[id], vm, now)
				col[id] = cs.code(c, li, sc)
				tab = cs.tabs[li]
				c.stats.LazyEvals++
			default:
				sc = tab[col[id]-1]
			}
			at, n, best = sift(n, sc, best)
			ids[at] = id
		}
		ids = ids[:n]
		c.Chain.tr.narrowed(li, n)
	}
	return ids[0]
}

// CacheStats counts the score cache's work since the chain was built; the
// engine only ever increments them, so reading costs nothing on the hot path.
type CacheStats struct {
	Contexts      int   `json:"contexts"`       // live contexts
	ColdBuilds    int64 `json:"cold_builds"`    // contexts built from nothing (first use, or back from eviction)
	Rollovers     int64 `json:"rollovers"`      // contexts that found their scores an epoch old
	Rebuilds      int64 `json:"rebuilds"`       // full pool rescans: cold builds, level-0 rollovers
	HostsResynced int64 `json:"hosts_resynced"` // dirty hosts re-scored on level 0, summed over contexts
	LazyEvals     int64 `json:"lazy_evals"`     // deep static levels scored on first read
	Filtered      int64 `json:"filtered"`       // candidates in the winning bucket
	Bytes         int64 `json:"bytes"`          // live bytes: codes, value tables, bucket bitsets, flag arrays
	CodeResets    int64 `json:"code_resets"`    // levels reset because their value table was full
	BlankPicks    int64 `json:"blank_picks"`    // decisions the blank shortcut resolved unfiltered
}

// CacheStats reports the work counters.
func (c *CachedChain) CacheStats() CacheStats {
	st := c.stats
	st.Contexts = len(c.list)
	for _, cs := range c.list {
		st.Bytes += int64(len(cs.codes) + len(cs.member) + len(cs.isDirty))
		for _, t := range cs.tabs {
			st.Bytes += 8 * int64(len(t))
		}
		for _, b := range cs.bkts {
			st.Bytes += 8 * int64(len(b.bits))
		}
	}
	return st
}

// CacheStatsOf reports p's score-cache counters, all zero for a policy
// without a score cache.
func CacheStatsOf(p Policy) CacheStats {
	if s, ok := p.(interface{ CacheStats() CacheStats }); ok {
		return s.CacheStats()
	}
	return CacheStats{}
}

// bind attaches the cache to the pool, subscribing to its host events. It
// reports false (permanent exhaustive fallback for this pool) when the
// pool's host IDs are not dense 0..n-1, which the ID-indexed cache arrays
// rely on; NewPool always numbers hosts densely.
func (c *CachedChain) bind(pool *cluster.Pool) bool {
	if c.pool == pool {
		return c.hosts != nil
	}
	c.unbind()
	c.pool = pool
	hosts := pool.Hosts()
	if n := len(hosts); n == 0 || int(hosts[0].ID) != 0 || int(hosts[n-1].ID) != n-1 {
		return false
	}
	c.hosts = hosts
	c.sets = make(map[CacheContext]*candSet)
	c.blankOK = c.blankAlike()
	for _, h := range hosts {
		if h.Capacity != hosts[0].Capacity {
			c.blankOK = false
			break
		}
	}
	c.cancel = pool.Subscribe(c.hostChanged)
	return true
}

// blankAlike reports whether every level below level 0 is static and
// carries the ScorerFunc marker that it scores every blank host alike. A
// dynamic level 0 is filtered from level 0 down, so it rules the chain out.
func (c *CachedChain) blankAlike() bool {
	if c.dyn(0) {
		return false
	}
	for li := 1; li < len(c.Scorers); li++ {
		if f, ok := c.Scorers[li].(ScorerFunc); !ok || !f.blankAlike || c.dyn(li) {
			return false
		}
	}
	return true
}

// unbind releases the subscription and the cached state.
func (c *CachedChain) unbind() {
	if c.cancel != nil {
		c.cancel()
		c.cancel = nil
	}
	c.pool = nil
	c.hosts = nil
	c.sets = nil
	c.list = nil
}

// hostChanged is the pool-event listener: O(contexts) dirty-bit flips, no
// rescoring — that happens lazily at the next Schedule of each context.
// Membership events (host add/remove) invalidate the ID-indexed cache
// arrays wholesale: the cache unbinds and the next Schedule rebinds against
// the pool's new host set — or falls back to the exhaustive engine if the
// removal left the IDs non-dense.
func (c *CachedChain) hostChanged(h *cluster.Host, ev cluster.HostEvent) {
	if ev == cluster.HostAdded || ev == cluster.HostRemoved {
		c.unbind()
		return
	}
	for _, cs := range c.list {
		cs.markDirty(h.ID)
	}
}

// lookup returns the context's candidate set, creating (all-dirty) or
// LRU-evicting as needed.
func (c *CachedChain) lookup(ctx CacheContext) *candSet {
	cs := c.sets[ctx]
	if cs == nil {
		if len(c.list) >= maxCachedContexts {
			c.evictLRU()
		}
		cs = newCandSet(ctx, len(c.hosts), len(c.Scorers))
		c.sets[ctx] = cs
		c.list = append(c.list, cs)
		c.stats.ColdBuilds++
	}
	c.useSeq++
	cs.lastUsed = c.useSeq
	return cs
}

// evictLRU drops the least-recently-scheduled context.
func (c *CachedChain) evictLRU() {
	lru := 0
	for i, cs := range c.list {
		if cs.lastUsed < c.list[lru].lastUsed {
			lru = i
		}
	}
	delete(c.sets, c.list[lru].ctx)
	c.list[lru] = c.list[len(c.list)-1]
	c.list = c.list[:len(c.list)-1]
}

// sync brings the candidate set up to date with every host event observed
// since its last Schedule. Steady state dirties one or two hosts per
// placement, so this is the only per-host work on the hot path.
func (c *CachedChain) sync(cs *candSet, vm *cluster.VM, now time.Duration) {
	if cs.allDirty {
		// Context creation or a level-0 epoch rollover: every host
		// starts from nothing.
		c.stats.Rebuilds++
		clear(cs.member)
		clear(cs.isDirty)
		for li := 1; li < len(cs.tabs); li++ {
			cs.reset(li)
		}
		for _, b := range cs.bkts {
			clear(b.bits)
			b.n, b.blanks = 0, 0
		}
		for id := range c.hosts {
			cs.update(c, cluster.HostID(id), vm, now)
		}
		cs.allDirty = false
	} else {
		c.stats.HostsResynced += int64(len(cs.dirty))
		for _, id := range cs.dirty {
			cs.isDirty[id] = false
			cs.update(c, id, vm, now)
		}
	}
	cs.dirty = cs.dirty[:0]
}

// candSet is one context's incremental candidate structure: per-host codes
// of cached static scores plus membership in buckets keyed by the level-0
// score (one bucket holding everyone when level 0 is dynamic). Membership means
// "feasible for the context's shape and available" — exactly
// AppendFeasible's predicate — so Schedule never rescans the pool for
// feasibility either.
type candSet struct {
	ctx CacheContext

	member   []uint8     // per host: notMember, isMember or isBlank
	codes    []uint8     // (nLevels-1) x nHosts, level li >= 1 at li-1: 0 = not cached, k = tabs[li][k-1]
	tabs     [][]float64 // per level: the distinct cached values, at most 255
	isDirty  []bool
	dirty    []cluster.HostID
	allDirty bool
	epoch    int64 // 1 + the epoch index the cached scores belong to
	lastUsed uint64

	bkts []*scoreBkt // ascending key; emptied buckets stay for reuse
}

// Membership states of a host in a candSet. isBlank is a member that is
// also blank (see blank); only a chain with blankOK records it.
const (
	notMember uint8 = iota
	isMember
	isBlank
)

// blank reports whether a host is blank: empty, with LAVA's state at its
// zero values. On a pool of one capacity, a marked scorer gives every blank
// host the same score for a given VM and time.
func blank(h *cluster.Host) bool {
	return h.Empty() && h.State == cluster.StateEmpty && h.Class == 0 && h.Deadline == 0
}

// scoreBkt is one level-0 score bucket, a bitset over host IDs: membership
// flips in O(1) whatever the bucket's size, and a walk meets the members in
// host-ID order, as the exhaustive scan does. blanks counts the members in
// state isBlank.
type scoreBkt struct {
	key    float64
	n      int
	blanks int
	bits   []uint64
}

// first returns the lowest member's host ID; the bucket must not be empty.
func (b *scoreBkt) first() int32 {
	w := 0
	for b.bits[w] == 0 {
		w++
	}
	return int32(w<<6 | bits.TrailingZeros64(b.bits[w]))
}

func newCandSet(ctx CacheContext, nHosts, nLevels int) *candSet {
	return &candSet{
		ctx:      ctx,
		member:   make([]uint8, nHosts),
		codes:    make([]uint8, nHosts*(nLevels-1)),
		tabs:     make([][]float64, nLevels),
		isDirty:  make([]bool, nHosts),
		allDirty: true,
	}
}

// markDirty queues a host for rescoring at the next Schedule.
func (cs *candSet) markDirty(id cluster.HostID) {
	if cs.allDirty || cs.isDirty[id] {
		return
	}
	cs.isDirty[id] = true
	cs.dirty = append(cs.dirty, id)
}

// update re-derives one host: membership out, fresh feasibility, the level-0
// score that picks its bucket, membership back in (counted blank when the
// chain has blankOK and the host is blank). Deeper static levels are
// only forgotten here; filter restores the ones a decision needs. The
// (vm, now) arguments are whatever Schedule is in flight; the static-purity
// contract makes the values valid for the whole context.
func (cs *candSet) update(c *CachedChain, id cluster.HostID, vm *cluster.VM, now time.Duration) {
	h := c.hosts[id]
	word, bit := id>>6, uint64(1)<<(id&63)
	if m := cs.member[id]; m != notMember { // level 0 keeps no column: find the bucket by its bit
		for _, b := range cs.bkts {
			if b.bits[word]&bit != 0 {
				b.bits[word] &^= bit
				b.n--
				if m == isBlank {
					b.blanks--
				}
				break
			}
		}
	}
	cs.member[id] = notMember
	if h.Unavailable || !h.Fits(cs.ctx.Shape) {
		return
	}
	key := 0.0
	if !c.dyn(0) {
		key = c.Scorers[0].Score(h, vm, now)
	}
	for i := int(id); i < len(cs.codes); i += len(cs.member) {
		cs.codes[i] = 0
	}
	b := cs.bucket(key)
	b.bits[word] |= bit
	b.n++
	cs.member[id] = isMember
	if c.blankOK && blank(h) {
		b.blanks++
		cs.member[id] = isBlank
	}
}

// code returns v's code in level li's value table, interning it by bit
// pattern. A full table resets the level first: every host of the context
// then refills that level on its next read.
func (cs *candSet) code(c *CachedChain, li int, v float64) uint8 {
	for k, t := range cs.tabs[li] {
		if math.Float64bits(t) == math.Float64bits(v) {
			return uint8(k + 1)
		}
	}
	if len(cs.tabs[li]) == math.MaxUint8 {
		cs.reset(li)
		c.stats.CodeResets++
	}
	cs.tabs[li] = append(cs.tabs[li], v)
	return uint8(len(cs.tabs[li]))
}

// reset forgets every cached value of level li >= 1.
func (cs *candSet) reset(li int) {
	n := len(cs.member)
	clear(cs.codes[(li-1)*n : li*n])
	cs.tabs[li] = cs.tabs[li][:0]
}

// bucket returns the bucket of a level-0 score, creating it in key order on
// first use. Level-0 scores are few and discrete (see Schedule), so a linear
// scan over the handful of buckets beats any index.
func (cs *candSet) bucket(key float64) *scoreBkt {
	i := 0
	for i < len(cs.bkts) && cs.bkts[i].key < key {
		i++
	}
	if i == len(cs.bkts) || cs.bkts[i].key != key {
		cs.bkts = append(cs.bkts, nil)
		copy(cs.bkts[i+1:], cs.bkts[i:])
		cs.bkts[i] = &scoreBkt{key: key, bits: make([]uint64, (len(cs.member)+63)/64)}
	}
	return cs.bkts[i]
}
