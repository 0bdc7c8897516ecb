package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"lava/internal/cluster"
	"lava/internal/features"
	"lava/internal/resources"
)

// Record is one VM in a trace.
type Record struct {
	ID       cluster.VMID      `json:"id"`
	Arrival  time.Duration     `json:"arrival_ns"`
	Lifetime time.Duration     `json:"lifetime_ns"`
	Shape    resources.Vector  `json:"shape"`
	Feat     features.Features `json:"features"`

	// Class is the request's SLO class ("latency" | "standard" |
	// "besteffort"); empty means standard, so pre-class traces and clients
	// decode unchanged. Validation lives in internal/slo — trace stays
	// class-agnostic and the class never influences placement or routing.
	Class string `json:"class,omitempty"`
}

// Exit returns the ground-truth exit time.
func (r Record) Exit() time.Duration { return r.Arrival + r.Lifetime }

// Trace is an ordered set of VM records.
type Trace struct {
	PoolName string `json:"pool"`
	Hosts    int    `json:"hosts"`
	HostCPU  int64  `json:"host_cpu_milli"`
	HostMem  int64  `json:"host_mem_mb"`
	HostSSD  int64  `json:"host_ssd_gb"`

	// WarmUp is the prefix of the trace that exists only to bring the pool
	// to steady state (Appendix F); consumers exclude it from aggregates.
	WarmUp time.Duration `json:"warmup_ns"`

	// Horizon is the end of the arrival window. Exits continue past it, but
	// simulations stop measuring there — after the horizon the pool only
	// drains, which is not steady-state behaviour. Zero means "until the
	// last exit".
	Horizon time.Duration `json:"horizon_ns"`

	Records []Record `json:"-"`
}

// End returns the measurement end: Horizon if set, else the last exit.
func (t *Trace) End() time.Duration {
	if t.Horizon > 0 {
		return t.Horizon
	}
	return t.Duration()
}

// HostShape returns the capacity vector of every host in the trace's pool.
func (t *Trace) HostShape() resources.Vector {
	return resources.Vector{CPUMilli: t.HostCPU, MemoryMB: t.HostMem, SSDGB: t.HostSSD}
}

// Duration returns the time of the last event in the trace.
func (t *Trace) Duration() time.Duration {
	var max time.Duration
	for _, r := range t.Records {
		if e := r.Exit(); e > max {
			max = e
		}
	}
	return max
}

// Sort orders records by (arrival, ID), the canonical replay order.
func (t *Trace) Sort() {
	sort.Slice(t.Records, func(i, j int) bool {
		if t.Records[i].Arrival != t.Records[j].Arrival {
			return t.Records[i].Arrival < t.Records[j].Arrival
		}
		return t.Records[i].ID < t.Records[j].ID
	})
}

// Validate checks structural soundness: unique IDs, non-negative times,
// positive lifetimes, shapes that fit a host.
func (t *Trace) Validate() error {
	host := t.HostShape()
	seen := make(map[cluster.VMID]bool, len(t.Records))
	for i, r := range t.Records {
		if seen[r.ID] {
			return fmt.Errorf("trace: duplicate vm id %d (record %d)", r.ID, i)
		}
		seen[r.ID] = true
		if err := checkRecord(r, host); err != nil {
			return err
		}
	}
	return nil
}

// checkRecord applies the rules every record obeys on its own: a
// non-negative arrival, a positive lifetime, and a non-zero, non-negative
// shape that fits host.
func checkRecord(r Record, host resources.Vector) error {
	if r.Arrival < 0 {
		return fmt.Errorf("trace: vm %d negative arrival", r.ID)
	}
	if r.Lifetime <= 0 {
		return fmt.Errorf("trace: vm %d non-positive lifetime", r.ID)
	}
	if !r.Shape.NonNegative() || r.Shape.IsZero() {
		return fmt.Errorf("trace: vm %d bad shape %s", r.ID, r.Shape)
	}
	if !r.Shape.Fits(host) {
		return fmt.Errorf("trace: vm %d shape %s exceeds host %s", r.ID, r.Shape, host)
	}
	return nil
}

// EventKind distinguishes trace events.
type EventKind int

// Event kinds, in processing order at equal timestamps: exits release
// capacity before creations consume it (the standard discrete-event
// convention for allocation traces).
const (
	EventExit EventKind = iota
	EventCreate
)

// String renders the kind.
func (k EventKind) String() string {
	if k == EventExit {
		return "exit"
	}
	return "create"
}

// Event is a derived trace event.
type Event struct {
	Time time.Duration
	Kind EventKind
	Rec  Record // the VM this event concerns
}

// Events derives the interleaved CREATE/EXIT stream in deterministic order:
// by time, then exits before creates, then VM ID.
func (t *Trace) Events() []Event {
	evs := make([]Event, 0, 2*len(t.Records))
	for _, r := range t.Records {
		evs = append(evs, Event{Time: r.Arrival, Kind: EventCreate, Rec: r})
		evs = append(evs, Event{Time: r.Exit(), Kind: EventExit, Rec: r})
	}
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].Time != evs[j].Time {
			return evs[i].Time < evs[j].Time
		}
		if evs[i].Kind != evs[j].Kind {
			return evs[i].Kind < evs[j].Kind
		}
		return evs[i].Rec.ID < evs[j].Rec.ID
	})
	return evs
}

// --- JSONL codec ---------------------------------------------------------

type header struct {
	Pool    string        `json:"pool"`
	Hosts   int           `json:"hosts"`
	HostCPU int64         `json:"host_cpu_milli"`
	HostMem int64         `json:"host_mem_mb"`
	HostSSD int64         `json:"host_ssd_gb"`
	WarmUp  time.Duration `json:"warmup_ns"`
	Horizon time.Duration `json:"horizon_ns"`
	Records int           `json:"records"`
}

// Write encodes the trace as JSON lines: a header line followed by one
// record per line.
func (t *Trace) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	h := header{Pool: t.PoolName, Hosts: t.Hosts, HostCPU: t.HostCPU, HostMem: t.HostMem, HostSSD: t.HostSSD, WarmUp: t.WarmUp, Horizon: t.Horizon, Records: len(t.Records)}
	if err := enc.Encode(h); err != nil {
		return fmt.Errorf("trace: encode header: %w", err)
	}
	for i := range t.Records {
		if err := enc.Encode(&t.Records[i]); err != nil {
			return fmt.Errorf("trace: encode record %d: %w", i, err)
		}
	}
	return bw.Flush()
}

// Read decodes a trace written by Write.
func Read(r io.Reader) (*Trace, error) {
	dec := json.NewDecoder(bufio.NewReader(r))
	var h header
	if err := dec.Decode(&h); err != nil {
		return nil, fmt.Errorf("trace: decode header: %w", err)
	}
	t := &Trace{PoolName: h.Pool, Hosts: h.Hosts, HostCPU: h.HostCPU, HostMem: h.HostMem, HostSSD: h.HostSSD, WarmUp: h.WarmUp, Horizon: h.Horizon}
	t.Records = make([]Record, 0, h.Records)
	for {
		var rec Record
		if err := dec.Decode(&rec); err != nil {
			if err == io.EOF {
				break
			}
			return nil, fmt.Errorf("trace: decode record %d: %w", len(t.Records), err)
		}
		t.Records = append(t.Records, rec)
	}
	if h.Records != len(t.Records) {
		return nil, fmt.Errorf("trace: header says %d records, found %d", h.Records, len(t.Records))
	}
	return t, nil
}

// ReadFile reads the trace file at path and validates it: the one loader of
// every command, so none replays, serves or trains on a trace Validate
// refuses.
func ReadFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Read(f)
	if err != nil {
		return nil, err
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
