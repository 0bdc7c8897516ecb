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
// hosts changed since the context's last call plus the winning score
// bucket: a changed host is re-scored on the one level that defines the
// buckets, and a deeper static level is scored the first time the filter
// reads it for a surviving candidate.
//
// Which hosts changed is read off one journal per chain, shared by every
// context: a host event appends the host's ID and stamps the host with
// its journal position (lastAt), O(1) however many contexts there are. A
// context remembers the position it last synced to and, on its next
// Schedule, re-derives each host whose latest stamp lies past it, once,
// at that latest entry. The journal is bounded (trim): a context idle
// across a trim scans the stamps of every host instead.
//
// What Schedule walks is the winning bucket's bitset, once, into a reused
// slice of host IDs, and then one column per static chain level below 0,
// indexed by those IDs (filter): a byte per host, coding a value in the
// level's table of at most 255 (static scores are discrete; no replay-scale
// column holds more than 115). A column covers only the host IDs up to the
// highest one the filter has read on its level, so a context's footprint
// follows the hosts it caches, not the pool (see candSet). A dynamic level
// keeps no column.
// A *cluster.Host is touched only to hand it to a Scorer — a lazy fill, a
// dynamic level — and to return the winner.
//
// One kind of decision skips the walk: opening a host. When a VM fits on no
// occupied host, the winning bucket is every empty host (about 9.6k of 10k
// on replay-scale), and the walk would score each on every level below 0
// only to return the lowest ID. A blank host is an empty one: what a
// policy keeps per host is void once the host is empty (hostSlots). On a
// pool of one capacity (checked at bind), a scorer that reads nothing else
// of a host gives every blank host the same score; the built-in avoid-empty, waste-min, best-fit, lava-class
// and temporal-epoch scorers say so through ScorerFunc's unexported
// blankAlike marker. So each bucket counts its blank members, and when the
// winning bucket holds nothing else, every level is marked, and decision
// capture is off, Schedule returns the bucket's lowest member unscored
// (CacheStats.BlankPicks). A marked level may be dynamic (lava-epoch's
// temporal-epoch): the marker then also promises that scoring a blank host
// has no side effect the exhaustive engine counts, so skipping it changes no
// counter. The same promise lets a cold build put every available blank
// host into the bucket of the first one unscored. The marker is a promise:
// a scorer that reads host identity, or per-host side state an empty host
// does not void, must not carry it (TestBlankHostsScoreAlike checks the
// built-ins). Outside scorers,
// chains with an unmarked level (exact NILAS and LAVA, whose temporal cost
// may call the model), traced runs and the exhaustive engine keep the walk,
// and a chain that can never take the shortcut keeps no blank counts.
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
// replay-scale workload), times at most four LAVA lifetime classes (lava and
// lava-epoch); nilas-epoch multiplies by the ~11 quantized remaining-lifetime
// buckets instead, of which only a handful are populated per shape
// (CacheStats reports the live count) — so the cap sits above the realistic
// population and exists only to keep
// memory bounded under adversarial inputs (memory ceiling: contexts x hosts
// x static levels below level 0 bytes, once every code column has grown to
// the pool, plus membership and bucket bitsets and value tables,
// CacheStats.Bytes).
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
// host (0: not cached, also for a host past the column's end) into the
// level's table of values interned by bit pattern, so a static scorer may return any float64 — ±0, ±Inf, NaN with
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

	// Epoch is the middle ground between fully static and TimeVarying: a
	// level 0 whose scores are pure within a fixed quantum of virtual time
	// (nilas-epoch's temporal-epoch level, see epoch.go). When set, a
	// context whose buckets date from another epoch is rebuilt on its next
	// Schedule — a stamp comparison per call, no sweep over the contexts at
	// the boundary itself. An epoch-pure level below level 0 needs no epoch:
	// it is marked Dynamic and scored on the candidates that reach it
	// (lava-epoch).
	Epoch time.Duration

	engine Engine
	pool   *cluster.Pool
	cancel func()
	hosts  []*cluster.Host // pool.Hosts(); hosts[i].ID == i (checked at bind)
	stats  CacheStats

	// blankOK: the bound pool has one capacity and every level scores blank
	// hosts alike (bind), so the buckets count their blank members, cold
	// builds insert blank hosts in bulk and Schedule may take the blank
	// shortcut.
	blankOK bool

	// cols[li] is the code column of level li, -1 for level 0 and for the
	// dynamic levels, which keep none; nCols counts the columns (bind).
	cols  []int
	nCols int

	// The change journal: every host event since stamp base+1, in order
	// (journal[k] carries stamp base+1+k), and per host the stamp of its
	// latest event. Stamps grow across binds, so lastAt is reused as it is:
	// an old stamp is never past the sync point of a context built later.
	journal []cluster.HostID
	base    uint64
	lastAt  []uint64

	sets   map[CacheContext]*candSet
	list   []*candSet // same sets, for eviction and stats
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
// candidate set with the hosts changed since its last call, then filters
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
			cs.allDirty = true
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
// bitset into host IDs (ascending, the exhaustive scan order), stopping at
// the bucket's count, sifts them level by level from level `from` down, in
// place, and returns the winner's ID. A static level is read from its code column through the level's value
// table — scored through the original Scorer, interned, and counted in
// LazyEvals, exactly when the host's code is 0; the column is first grown to
// cover the last candidate, the highest ID. A dynamic level is scored
// through the original Scorer on the same IDs in the same order as the
// exhaustive engine, so its side effects match. Like applyChain it stops
// before scoring once one candidate is left.
func (c *CachedChain) filter(cs *candSet, win *scoreBkt, from int, vm *cluster.VM, now time.Duration) int32 {
	if cap(c.ids) < win.n {
		c.ids = make([]int32, max(win.n, 2*cap(c.ids)))
	}
	ids, k := c.ids[:win.n], 0
	for w := 0; k < win.n; w++ {
		for word := win.bits[w]; word != 0; word &= word - 1 {
			ids[k] = int32(w<<6 | bits.TrailingZeros64(word))
			k++
		}
	}
	for li := from; li < len(c.Scorers) && len(ids) > 1; li++ {
		s, dyn := c.Scorers[li], c.dyn(li)
		obs := c.Chain.tr // only a dynamic level 0 is ever filtered here
		if li != 0 {
			obs = nil
		}
		var col []uint8 // static levels below 0 only, grown to the last (highest) ID
		if k := c.cols[li]; k >= 0 {
			col = cs.column(k, ids[len(ids)-1], len(c.hosts))
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
	Rebuilds      int64 `json:"rebuilds"`       // full pool rescans: cold builds, rollovers
	HostsResynced int64 `json:"hosts_resynced"` // changed hosts re-scored on level 0, summed over contexts
	LazyEvals     int64 `json:"lazy_evals"`     // deep static levels scored on first read
	Filtered      int64 `json:"filtered"`       // candidates in the winning bucket
	Bytes         int64 `json:"bytes"`          // live bytes: code column capacities, value tables, bucket and membership bitsets, journal (not the code indexes)
	CodeResets    int64 `json:"code_resets"`    // levels reset because their value table was full
	BlankPicks    int64 `json:"blank_picks"`    // decisions the blank shortcut resolved unfiltered
}

// CacheStats reports the work counters.
func (c *CachedChain) CacheStats() CacheStats {
	st := c.stats
	st.Contexts = len(c.list)
	st.Bytes = 8*int64(len(c.lastAt)) + 4*int64(len(c.journal))
	for _, cs := range c.list {
		st.Bytes += 8 * int64(len(cs.member)+len(cs.blank))
		for _, col := range cs.cols {
			st.Bytes += int64(cap(col))
		}
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
	n := len(hosts)
	if n == 0 || int(hosts[0].ID) != 0 || int(hosts[n-1].ID) != n-1 {
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
	c.cols, c.nCols = c.cols[:0], 0
	for li := range c.Scorers {
		k := -1
		if li > 0 && !c.dyn(li) {
			k, c.nCols = c.nCols, c.nCols+1
		}
		c.cols = append(c.cols, k)
	}
	if cap(c.lastAt) < n {
		c.lastAt = make([]uint64, n)
	}
	c.lastAt = c.lastAt[:n]
	c.base += uint64(len(c.journal))
	c.journal = c.journal[:0]
	c.cancel = pool.Subscribe(c.hostChanged)
	return true
}

// blankAlike reports whether every level carries the ScorerFunc marker that
// it scores every blank host alike — on a dynamic level, also without a
// counted side effect. A dynamic level 0 is filtered from level 0 down, so
// it rules the chain out.
func (c *CachedChain) blankAlike() bool {
	if c.dyn(0) {
		return false
	}
	for _, s := range c.Scorers {
		if f, ok := s.(ScorerFunc); !ok || !f.blankAlike {
			return false
		}
	}
	return true
}

// unbind releases the subscription and the cached state; the journal's
// arrays stay for the next bind.
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

// hostChanged is the pool-event listener: one journal entry and one stamp,
// O(1) whatever the number of contexts, and no rescoring — that happens
// lazily at the next Schedule of each context (sync). Membership events
// (host add/remove) invalidate the ID-indexed cache arrays wholesale: the
// cache unbinds and the next Schedule rebinds against the pool's new host
// set — or falls back to the exhaustive engine if the removal left the IDs
// non-dense.
func (c *CachedChain) hostChanged(h *cluster.Host, ev cluster.HostEvent) {
	if ev == cluster.HostAdded || ev == cluster.HostRemoved {
		c.unbind()
		return
	}
	c.journal = append(c.journal, h.ID)
	c.lastAt[h.ID] = c.base + uint64(len(c.journal))
	if len(c.journal) >= 2*len(c.hosts) {
		c.trim()
	}
}

// trim drops the oldest half of a full journal, len(hosts) entries, so
// appends stay O(1) amortised. A context synced to a dropped position no
// longer finds its start in the journal and scans lastAt instead, which
// costs no more than walking the entries it missed.
func (c *CachedChain) trim() {
	drop := len(c.hosts)
	c.journal = c.journal[:copy(c.journal, c.journal[drop:])]
	c.base += uint64(drop)
}

// lookup returns the context's candidate set, creating (all-dirty) or
// LRU-evicting as needed.
func (c *CachedChain) lookup(ctx CacheContext) *candSet {
	cs := c.sets[ctx]
	if cs == nil {
		if len(c.list) >= maxCachedContexts {
			c.evictLRU()
		}
		cs = newCandSet(ctx, len(c.hosts), len(c.Scorers), c.nCols)
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

// sync brings the candidate set up to date with every host event journaled
// since its last Schedule. Steady state changes one or two hosts per
// placement, so this is the only per-host work on the hot path.
func (c *CachedChain) sync(cs *candSet, vm *cluster.VM, now time.Duration) {
	end := c.base + uint64(len(c.journal))
	switch {
	case cs.allDirty:
		// Context creation or an epoch rollover: every host starts from
		// nothing.
		c.stats.Rebuilds++
		c.rebuild(cs, vm, now)
		cs.allDirty = false
	case cs.synced >= c.base:
		// Each changed host once, at its latest entry.
		for k, id := range c.journal[cs.synced-c.base:] {
			if c.lastAt[id] == cs.synced+1+uint64(k) {
				c.stats.HostsResynced++
				cs.update(c, id, vm, now)
			}
		}
	default:
		// The entries since the last sync were trimmed: read the stamps.
		for id, at := range c.lastAt {
			if at > cs.synced {
				c.stats.HostsResynced++
				cs.update(c, cluster.HostID(id), vm, now)
			}
		}
	}
	cs.synced = end
}

// rebuild derives every host of the context from nothing. On a chain with
// blankOK, the available blank hosts share one feasibility and one level-0
// key, so only the first is scored and the rest join its bucket in bulk.
func (c *CachedChain) rebuild(cs *candSet, vm *cluster.VM, now time.Duration) {
	clear(cs.member)
	clear(cs.blank)
	for k := range cs.cols {
		cs.cols[k] = cs.cols[k][:0]
	}
	for li := range cs.tabs {
		cs.tabs[li] = cs.tabs[li][:0]
	}
	for _, x := range cs.index {
		clear(x)
	}
	for _, b := range cs.bkts {
		clear(b.bits)
		b.n, b.blanks = 0, 0
	}
	var blanks *scoreBkt // the first available blank host's bucket
	seen := false        // blanks is set (nil: blank hosts do not fit)
	for id, h := range c.hosts {
		switch {
		case !c.blankOK || h.Unavailable() || !h.Empty():
			cs.update(c, cluster.HostID(id), vm, now)
		case !seen:
			blanks, seen = cs.update(c, cluster.HostID(id), vm, now), true
		case blanks != nil:
			blanks.add(int32(id))
			blanks.blanks++
			word, bit := id>>6, uint64(1)<<(id&63)
			cs.member[word] |= bit
			cs.blank[word] |= bit
		}
	}
}

// candSet is one context's incremental candidate structure: per-host codes
// of cached static scores plus membership in buckets keyed by the level-0
// score (one bucket holding everyone when level 0 is dynamic). Membership means
// "feasible for the context's shape and available" — exactly
// AppendFeasible's predicate — so Schedule never rescans the pool for
// feasibility either.
//
// Its footprint follows the hosts it caches, not the pool: membership is two
// bits per host, and a code column covers only the host IDs the filter has
// read on its level. Ties break at the lowest host ID, so occupied hosts pack
// at the bottom of the ID range, and a chain with the blank shortcut never
// reads a blank host's codes.
type candSet struct {
	ctx CacheContext

	member   []uint64    // bitset over host IDs: feasible and available
	blank    []uint64    // bitset: a member counted blank in its bucket (blankOK only)
	cols     [][]uint8   // per column cols[li]: 0 = not cached, k = tabs[li][k-1]; a host past the end reads 0
	tabs     [][]float64 // per level: the distinct cached values, at most 255
	index    [][]uint8   // per column cols[li]: the codes of tabs[li] by value (see code)
	synced   uint64      // the journal stamp the context has applied up to
	allDirty bool        // rebuild on the next sync
	epoch    int64       // 1 + the epoch index the buckets belong to
	lastUsed uint64

	bkts []*scoreBkt // ascending key; emptied buckets stay for reuse
}

// scoreBkt is one level-0 score bucket, a bitset over host IDs: membership
// flips in O(1) whatever the bucket's size, and a walk meets the members in
// host-ID order, as the exhaustive scan does. blanks counts the members whose
// blank bit is set.
type scoreBkt struct {
	key    float64
	n      int
	blanks int
	bits   []uint64
}

// add sets a host's bit and counts it; the caller counts a blank member.
func (b *scoreBkt) add(id int32) {
	b.bits[id>>6] |= uint64(1) << (id & 63)
	b.n++
}

// first returns the lowest member's host ID; the bucket must not be empty.
func (b *scoreBkt) first() int32 {
	w := 0
	for b.bits[w] == 0 {
		w++
	}
	return int32(w<<6 | bits.TrailingZeros64(b.bits[w]))
}

func newCandSet(ctx CacheContext, nHosts, nLevels, nCols int) *candSet {
	words := (nHosts + 63) / 64
	cols := make([][]uint8, 2*nCols) // the code columns, then their indexes
	return &candSet{
		ctx:      ctx,
		member:   make([]uint64, words),
		blank:    make([]uint64, words),
		cols:     cols[:nCols:nCols],
		tabs:     make([][]float64, nLevels),
		index:    cols[nCols:],
		allDirty: true,
	}
}

// update re-derives one host: membership out, fresh feasibility, the level-0
// score that picks its bucket, membership back in (counted blank when the
// chain has blankOK and the host is blank). Deeper static levels are
// only forgotten here; filter restores the ones a decision needs. The
// (vm, now) arguments are whatever Schedule is in flight; the static-purity
// contract makes the values valid for the whole context. It returns the
// host's bucket, nil when the host is not a member.
func (cs *candSet) update(c *CachedChain, id cluster.HostID, vm *cluster.VM, now time.Duration) *scoreBkt {
	h := c.hosts[id]
	word, bit := id>>6, uint64(1)<<(id&63)
	if cs.member[word]&bit != 0 { // level 0 keeps no column: find the bucket by its bit
		for _, b := range cs.bkts {
			if b.bits[word]&bit != 0 {
				b.bits[word] &^= bit
				b.n--
				if cs.blank[word]&bit != 0 {
					b.blanks--
				}
				break
			}
		}
		cs.member[word] &^= bit
		cs.blank[word] &^= bit
	}
	if h.Unavailable() || !h.Fits(cs.ctx.Shape) {
		return nil
	}
	key := 0.0
	if !c.dyn(0) {
		key = c.Scorers[0].Score(h, vm, now)
	}
	for _, col := range cs.cols {
		if int(id) < len(col) {
			col[id] = 0
		}
	}
	b := cs.bucket(key)
	b.add(int32(id))
	cs.member[word] |= bit
	if c.blankOK && h.Empty() {
		b.blanks++
		cs.blank[word] |= bit
	}
	return b
}

// column returns code column k grown to cover host ID id. A column grows by
// doubling, capped at the pool's nHosts hosts, and the entries it gains read
// 0, not cached.
func (cs *candSet) column(k int, id int32, nHosts int) []uint8 {
	col := cs.cols[k]
	if int(id) < len(col) {
		return col
	}
	n := min(max(int(id)+1, 2*len(col)), nHosts)
	if n > cap(col) {
		col = append(make([]uint8, 0, n), col...)
	}
	old := len(col)
	col = col[:n]
	clear(col[old:])
	cs.cols[k] = col
	return col
}

// code returns v's code in level li's value table, interning it by bit
// pattern; codes count up in the order values first arrive. A full table
// resets the level first: every host of the context then refills that level
// on its next read.
//
// The code is found through the column's index, an open-addressed hash
// table over the values' bit patterns, linearly probed, each slot holding a
// code (0: empty). Its length is a power of two at least twice the table's,
// so a probe stops within a few slots; it doubles as the table grows, from
// 64 slots to at most 512, so a context's index costs bytes in proportion
// to the values it has met. A table that stays put costs no allocation.
func (cs *candSet) code(c *CachedChain, li int, v float64) uint8 {
	k, b := c.cols[li], math.Float64bits(v)
	if x := cs.index[k]; len(x) > 0 {
		for i := codeSlot(b, len(x)); x[i] != 0; i = (i + 1) & (len(x) - 1) {
			if math.Float64bits(cs.tabs[li][x[i]-1]) == b {
				return x[i]
			}
		}
	}
	if len(cs.tabs[li]) == math.MaxUint8 {
		cs.reset(c, li)
		c.stats.CodeResets++
	}
	cs.tabs[li] = append(cs.tabs[li], v)
	tab := cs.tabs[li]
	if x := cs.index[k]; 2*len(tab) > len(x) {
		x = make([]uint8, max(64, 2*len(x)))
		for j, t := range tab {
			codeInsert(x, math.Float64bits(t), uint8(j+1))
		}
		cs.index[k] = x
	} else {
		codeInsert(x, b, uint8(len(tab)))
	}
	return uint8(len(tab))
}

// codeSlot returns the slot a bit pattern's probe starts at in an index of
// n slots, n a power of two: the top bits of a Fibonacci hash.
func codeSlot(b uint64, n int) int {
	return int((b * 0x9e3779b97f4a7c15) >> (64 - bits.TrailingZeros(uint(n))))
}

// codeInsert puts a code into the first empty slot of its value's probe.
func codeInsert(x []uint8, b uint64, code uint8) {
	i := codeSlot(b, len(x))
	for x[i] != 0 {
		i = (i + 1) & (len(x) - 1)
	}
	x[i] = code
}

// reset forgets every cached value of the static level li >= 1.
func (cs *candSet) reset(c *CachedChain, li int) {
	clear(cs.cols[c.cols[li]])
	cs.tabs[li] = cs.tabs[li][:0]
	clear(cs.index[c.cols[li]])
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
		cs.bkts[i] = &scoreBkt{key: key, bits: make([]uint64, len(cs.member))}
	}
	return cs.bkts[i]
}
