// Package ptrace records placement decisions. A Recorder attached to a
// simulation (sim.Config.Tracer) or a placement server (serve.Config.TraceK)
// captures, for every Schedule call, the chosen host plus the top-K scored
// alternatives the scheduler considered, the chain level that decided, and
// the surrounding lifecycle events (exits, kills, host withdrawals) — the
// answer to "why did VM X land on host Y", and the input to counterfactual
// replay (sim.Replay), which re-prices a recorded decision stream under a
// different policy and reports it as a Report of Divergences.
//
// The capture itself happens inside internal/scheduler (see
// scheduler.Traceable); both scoring engines fill identical captures for
// identical decisions, so traces are engine-independent — a property
// TestTracingObserveOnlyAndParallelInvariant verifies on the fig13
// experiment matrix. Tracing is
// observe-only by construction: no scorer runs that the untraced scheduler
// would not have run, so enabling it cannot change placements, model-call
// counts, or canonical experiment JSON.
package ptrace

import (
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"

	"lava/internal/cluster"
	"lava/internal/scheduler"
	"lava/internal/trace"
)

// DefaultK is the number of alternatives captured per decision when the
// caller does not choose one.
const DefaultK = 8

// DefaultQueryLimit bounds Query pages when the filter does not set one.
const DefaultQueryLimit = 100

// Kind classifies a recorded decision or lifecycle event.
type Kind uint8

// Decision kinds. Place and Fail are scheduler decisions and carry the
// creation record plus scored alternatives; the rest are the lifecycle
// events replay needs to reproduce pool state between decisions.
const (
	KindPlace    Kind = iota // VM scheduled onto Host
	KindFail                 // no feasible host (capacity failure)
	KindExit                 // VM exited naturally
	KindKill                 // VM force-exited by an injector
	KindWithdraw             // host taken out of service
	KindRestore              // host returned to service
)

var kindNames = [...]string{"place", "fail", "exit", "kill", "withdraw", "restore"}

// String returns the JSON wire name of the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// MarshalJSON encodes the kind as its string name.
func (k Kind) MarshalJSON() ([]byte, error) { return json.Marshal(k.String()) }

// UnmarshalJSON decodes a kind from its string name.
func (k *Kind) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for i, n := range kindNames {
		if n == s {
			*k = Kind(i)
			return nil
		}
	}
	return fmt.Errorf("ptrace: unknown kind %q", s)
}

// Alt is one scored placement alternative (re-exported from the scheduler's
// capture layer so decisions round-trip without conversion).
type Alt = scheduler.Alt

// Decision is one recorded event. For Place/Fail kinds, Alts holds the
// top-K feasible hosts by (level-0 score, host ID); the chosen host of a
// Place sits somewhere in the minimal level-0 score group (deeper chain
// levels break level-0 ties, so it need not be Alts[0], and a tie group
// wider than K can truncate it out entirely). Level is the chain level
// that decided (-1: host-ID tie-break or single candidate), Feasible
// counts feasible hosts, and Rec
// carries the VM's creation record so the decision can be replayed. Host is
// -1 for capacity failures and unused (-1) for withdraw/restore, which set
// only Host; Exit/Kill set VM and the host it left.
type Decision struct {
	Seq      uint64         `json:"seq"`
	Kind     Kind           `json:"kind"`
	T        time.Duration  `json:"t_ns"`
	VM       cluster.VMID   `json:"vm"`
	Host     cluster.HostID `json:"host"`
	Level    int            `json:"level"`
	Feasible int            `json:"feasible,omitempty"`
	Alts     []Alt          `json:"alts,omitempty"`
	Rec      *trace.Record  `json:"rec,omitempty"`
}

// Divergence is one decision where a replayed candidate disagrees with the
// record.
type Divergence struct {
	Seq      uint64         `json:"seq"`
	T        time.Duration  `json:"t_ns"`
	VM       cluster.VMID   `json:"vm"`
	Recorded cluster.HostID `json:"recorded"`
	Chosen   cluster.HostID `json:"chosen"`
	// Level is the first chain level where the candidate scores the two
	// hosts apart (-1: every level ties, the divergence is pure host-ID
	// tie-breaking and costs nothing).
	Level int `json:"level"`
	// Regret is score(recorded) - score(chosen) at Level — how much worse
	// the recorded host is under the candidate's deciding criterion.
	Regret float64 `json:"regret"`
}

// Report summarizes a counterfactual replay.
type Report struct {
	Policy      string       `json:"policy"`
	Decisions   int          `json:"decisions"` // Place/Fail decisions replayed
	Matches     int          `json:"matches"`
	Divergences []Divergence `json:"divergences"`
	TotalRegret float64      `json:"total_regret"`
}

// Options configure a Recorder.
type Options struct {
	// K is the number of alternatives captured per decision (default
	// DefaultK). The recorder does not enforce it — the scheduler capture
	// does — but exposes it so consumers can arm policies consistently.
	K int

	// Capacity bounds the in-memory buffer: once full, the oldest decision
	// is overwritten (ring semantics; Dropped counts the overwrites). Zero
	// means unbounded — offline runs that feed replay need every decision.
	Capacity int

	// Out, when set, receives every decision as one JSON line at Record
	// time, surviving ring eviction. The first write error sticks (Err) and
	// stops further writes.
	Out io.Writer

	// Policy labels the trace for query responses and trace documents.
	Policy string
}

// Recorder accumulates decisions. Record is called from the single
// simulation/serving goroutine; queries may come from HTTP handler
// goroutines, so all state is guarded by a mutex — uncontended in offline
// runs.
type Recorder struct {
	mu      sync.Mutex
	opt     Options
	enc     *json.Encoder
	buf     []Decision
	start   int // ring head (oldest) once the buffer is full
	seq     uint64
	dropped uint64
	err     error
}

// New builds a Recorder from the options (see Options for defaults).
func New(opt Options) *Recorder {
	if opt.K <= 0 {
		opt.K = DefaultK
	}
	r := &Recorder{opt: opt}
	if opt.Out != nil {
		r.enc = json.NewEncoder(opt.Out)
	}
	return r
}

// K returns the per-decision alternative count policies should be armed
// with.
func (r *Recorder) K() int { return r.opt.K }

// Policy returns the trace's policy label.
func (r *Recorder) Policy() string { return r.opt.Policy }

// Record appends d, assigning the next sequence number (starting at 1).
func (r *Recorder) Record(d Decision) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	d.Seq = r.seq
	if r.enc != nil && r.err == nil {
		r.err = r.enc.Encode(d)
	}
	if c := r.opt.Capacity; c > 0 && len(r.buf) == c {
		r.buf[r.start] = d
		r.start = (r.start + 1) % c
		r.dropped++
		return
	}
	r.buf = append(r.buf, d)
}

// Seq returns the number of decisions ever recorded.
func (r *Recorder) Seq() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Len returns the number of decisions currently buffered.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.buf)
}

// Dropped returns the number of decisions evicted by the ring.
func (r *Recorder) Dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Err returns the first persistent-sink write error, if any.
func (r *Recorder) Err() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.err
}

// Decisions returns a copy of the buffered decisions, oldest first.
func (r *Recorder) Decisions() []Decision {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]Decision, 0, len(r.buf))
	out = append(out, r.buf[r.start:]...)
	out = append(out, r.buf[:r.start]...)
	return out
}

// Filter selects decisions for Query. The zero value of VM/Host matches
// that exact ID, so use MatchAll (or negative values) for "any".
type Filter struct {
	VM    int64         // decisions touching this VM ID; negative = any
	Host  int64         // decisions touching this host ID; negative = any
	From  time.Duration // inclusive lower bound on decision time
	To    time.Duration // inclusive upper bound; <= 0 = unbounded
	After uint64        // only decisions with Seq > After (pagination cursor)
	Limit int           // page size (<= 0: DefaultQueryLimit)
}

// MatchAll returns a filter matching every decision.
func MatchAll() Filter { return Filter{VM: -1, Host: -1} }

func (f Filter) match(d *Decision) bool {
	if f.VM >= 0 && int64(d.VM) != f.VM {
		return false
	}
	if f.Host >= 0 && int64(d.Host) != f.Host {
		return false
	}
	if d.T < f.From {
		return false
	}
	if f.To > 0 && d.T > f.To {
		return false
	}
	return d.Seq > f.After
}

// QueryResult is one page of matching decisions plus the cursor state to
// fetch the next (pass NextAfter as Filter.After while More holds).
type QueryResult struct {
	Policy    string     `json:"policy,omitempty"`
	K         int        `json:"k"`
	Total     uint64     `json:"total"`
	Dropped   uint64     `json:"dropped"`
	Decisions []Decision `json:"decisions"`
	NextAfter uint64     `json:"next_after"`
	More      bool       `json:"more"`
}

// Query returns the filtered decisions oldest-first, paginated by
// (After, Limit).
func (r *Recorder) Query(f Filter) QueryResult {
	r.mu.Lock()
	defer r.mu.Unlock()
	limit := f.Limit
	if limit <= 0 {
		limit = DefaultQueryLimit
	}
	res := QueryResult{
		Policy:    r.opt.Policy,
		K:         r.opt.K,
		Total:     r.seq,
		Dropped:   r.dropped,
		Decisions: []Decision{},
		NextAfter: f.After,
	}
	scan := func(ds []Decision) bool {
		for i := range ds {
			if !f.match(&ds[i]) {
				continue
			}
			if len(res.Decisions) == limit {
				res.More = true
				return false
			}
			res.Decisions = append(res.Decisions, ds[i])
			res.NextAfter = ds[i].Seq
		}
		return true
	}
	if scan(r.buf[r.start:]) {
		scan(r.buf[:r.start])
	}
	return res
}
