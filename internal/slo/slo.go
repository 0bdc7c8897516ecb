// Package slo defines the serving stack's SLO classes and the deterministic
// token-bucket admission controller that sits in front of the sequencer.
//
// Every placement request carries a class — latency, standard, or besteffort
// (an empty class decodes as standard, so pre-class clients keep working).
// A Gate holds one token bucket per class, refilled on virtual-time window
// boundaries rather than wall-clock ticks: the admission decision for a
// request is a pure function of (class, virtual arrival time, decisions so
// far), so a replay at any concurrency — or an offline run of the fleet —
// reproduces the exact admit/reject stream byte-for-byte. Rejected requests
// get a typed RejectError carrying the virtual time at which the next token
// lands (surfaced as HTTP 429 by internal/serve) and a per-class counter;
// they never reach a cell.
//
// The package also owns the multi-objective serving score: the Jain fairness
// index over per-class admission rates and a fitness product (packing x
// stranding x fairness) that experiments and the CI bench-gate can optimize
// against. It has no latency term, so drain reports stay byte-comparable
// between a served run and its offline replay; live serving stats report
// per-class latency instead and omit fitness.
package slo

import (
	"errors"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"time"

	"lava/internal/stats"
	"lava/internal/trace"
)

// The three SLO classes, in canonical (mix and report) order.
const (
	ClassLatency    = "latency"
	ClassStandard   = "standard"
	ClassBestEffort = "besteffort"
)

// Classes returns the canonical class names in canonical order.
func Classes() []string {
	return []string{ClassLatency, ClassStandard, ClassBestEffort}
}

// ParseClass canonicalizes a wire-level class string. The empty string is
// the back-compat default (standard); anything else must name a known class.
func ParseClass(s string) (string, error) {
	switch s {
	case "":
		return ClassStandard, nil
	case ClassLatency, ClassStandard, ClassBestEffort:
		return s, nil
	default:
		return "", fmt.Errorf("slo: unknown class %q (want %s)", s, strings.Join(Classes(), " | "))
	}
}

// Bucket is one class's token-bucket limit. The zero value means unlimited.
// Refill tokens land at every Window boundary of virtual time; Burst caps
// the balance (0 defaults to Refill). A bucket with Burst > 0 and Refill == 0
// is a fixed budget that never refills. Negative Burst or Refill is invalid.
type Bucket struct {
	Burst  int64         `json:"burst,omitempty"`
	Refill int64         `json:"refill,omitempty"`
	Window time.Duration `json:"window,omitempty"`
}

// Unlimited reports whether the bucket imposes no limit.
func (b Bucket) Unlimited() bool { return b.Burst == 0 && b.Refill == 0 }

// burst returns the effective balance cap.
func (b Bucket) burst() int64 {
	if b.Burst > 0 {
		return b.Burst
	}
	return b.Refill
}

func (b Bucket) validate() error {
	switch {
	case b.Burst < 0 || b.Refill < 0:
		return fmt.Errorf("negative burst %d or refill %d", b.Burst, b.Refill)
	case !b.Unlimited() && b.Window <= 0:
		return errors.New("limited bucket needs a positive window")
	}
	return nil
}

// Config holds one bucket per class. A nil Config — or one where every
// bucket is unlimited and Track is false — disables the SLO layer entirely,
// keeping output byte-identical to pre-class builds. Track forces per-class
// accounting (and fairness/fitness reporting) even with no limits set; fleet
// cells run in this mode behind the fleet's front-door gate.
type Config struct {
	Track      bool   `json:"track,omitempty"`
	Latency    Bucket `json:"latency,omitempty"`
	Standard   Bucket `json:"standard,omitempty"`
	BestEffort Bucket `json:"besteffort,omitempty"`
}

// Bucket returns the class's bucket (standard for unknown input).
func (c *Config) Bucket(class string) Bucket {
	switch class {
	case ClassLatency:
		return c.Latency
	case ClassBestEffort:
		return c.BestEffort
	default:
		return c.Standard
	}
}

// Enabled reports whether the config changes behavior or reporting at all.
func (c *Config) Enabled() bool {
	if c == nil {
		return false
	}
	return c.Track || !c.Latency.Unlimited() || !c.Standard.Unlimited() || !c.BestEffort.Unlimited()
}

// Normalize collapses a do-nothing config to nil so "all buckets unlimited"
// is indistinguishable from "no SLO layer" — the back-compat contract.
func (c *Config) Normalize() *Config {
	if !c.Enabled() {
		return nil
	}
	return c
}

// Validate checks every limited bucket has a usable window.
func (c *Config) Validate() error {
	if c == nil {
		return nil
	}
	for _, cls := range Classes() {
		if err := c.Bucket(cls).validate(); err != nil {
			return fmt.Errorf("slo: class %s: %v", cls, err)
		}
	}
	return nil
}

// ParseConfig parses an admission spec of the form
//
//	latency=100/1m:200,standard=50/1m,besteffort=10/30s
//
// i.e. comma-separated class=refill/window[:burst] clauses. Classes left out
// are unlimited. The bare spec "track" enables per-class accounting with no
// limits; the empty spec returns (nil, nil) — SLO layer off.
func ParseConfig(spec string) (*Config, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return nil, nil
	}
	cfg := &Config{}
	if spec == "track" {
		cfg.Track = true
		return cfg, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, lim, ok := strings.Cut(clause, "=")
		if !ok {
			return nil, fmt.Errorf("slo: bad admission clause %q (want class=refill/window[:burst])", clause)
		}
		cls, err := ParseClass(strings.TrimSpace(name))
		if err != nil {
			return nil, err
		}
		lim, burstStr, hasBurst := strings.Cut(lim, ":")
		refillStr, winStr, ok := strings.Cut(lim, "/")
		if !ok {
			return nil, fmt.Errorf("slo: bad limit %q in clause %q (want refill/window)", lim, clause)
		}
		var b Bucket
		if b.Refill, err = strconv.ParseInt(strings.TrimSpace(refillStr), 10, 64); err != nil {
			return nil, fmt.Errorf("slo: bad refill in clause %q: %v", clause, err)
		}
		if b.Window, err = time.ParseDuration(strings.TrimSpace(winStr)); err != nil {
			return nil, fmt.Errorf("slo: bad window in clause %q: %v", clause, err)
		}
		if hasBurst {
			if b.Burst, err = strconv.ParseInt(strings.TrimSpace(burstStr), 10, 64); err != nil {
				return nil, fmt.Errorf("slo: bad burst in clause %q: %v", clause, err)
			}
		}
		if err := b.validate(); err != nil {
			return nil, fmt.Errorf("slo: bad admission clause %q: %v", clause, err)
		}
		switch cls {
		case ClassLatency:
			cfg.Latency = b
		case ClassStandard:
			cfg.Standard = b
		case ClassBestEffort:
			cfg.BestEffort = b
		}
	}
	return cfg, nil
}

// RejectError is the typed admission rejection: the request's class and the
// virtual time at which the class's next token lands. internal/serve maps it
// to HTTP 429 with both fields in the body.
type RejectError struct {
	Class   string
	RetryAt time.Duration
}

func (e *RejectError) Error() string {
	return fmt.Sprintf("slo: class %s over admission budget (retry at virtual t=%v)", e.Class, e.RetryAt)
}

// IsReject reports whether err is (or wraps) an admission rejection.
func IsReject(err error) bool {
	var rej *RejectError
	return errors.As(err, &rej)
}

// Counts is one class's lifecycle tally. Admitted + Rejected is the class's
// arrival count at whichever gate did the counting.
type Counts struct {
	Admitted int64 `json:"admitted"`
	Rejected int64 `json:"rejected,omitempty"`
	Placed   int64 `json:"placed,omitempty"`
	Failed   int64 `json:"failed,omitempty"`
	Exited   int64 `json:"exited,omitempty"`
}

// bucketState is a bucket's mutable balance. Tokens refill lazily: on first
// use the balance is the full burst; afterwards each elapsed window boundary
// adds Refill tokens up to the burst cap.
type bucketState struct {
	init   bool
	win    int64 // window index of the last refill
	tokens int64
}

// Gate is the deterministic admission controller: one token bucket and one
// Counts per class. It is NOT self-locking — callers serialize access (the
// sim.Machine single-writer loop, or the fleet mutex at sequencing time),
// which is exactly what makes the admit/reject stream replayable.
type Gate struct {
	cfg     Config
	buckets map[string]*bucketState
	counts  map[string]*Counts
}

// NewGate builds a gate for cfg, or nil for a nil/do-nothing config.
func NewGate(cfg *Config) *Gate {
	cfg = cfg.Normalize()
	if cfg == nil {
		return nil
	}
	return &Gate{
		cfg:     *cfg,
		buckets: make(map[string]*bucketState),
		counts:  make(map[string]*Counts),
	}
}

// Class returns the class's live counter, creating it on first use. The
// caller owns further field updates (Placed/Failed/Exited).
func (g *Gate) Class(class string) *Counts {
	c := g.counts[class]
	if c == nil {
		c = &Counts{}
		g.counts[class] = c
	}
	return c
}

// Admit decides a class's arrival at virtual time at, updating the bucket
// balance and the class's Admitted/Rejected counter. On rejection it returns
// the virtual time of the next refill boundary. Class must be canonical
// (ParseClass output).
func (g *Gate) Admit(class string, at time.Duration) (ok bool, retryAt time.Duration) {
	c := g.Class(class)
	b := g.cfg.Bucket(class)
	if b.Unlimited() {
		c.Admitted++
		return true, 0
	}
	st := g.buckets[class]
	if st == nil {
		st = &bucketState{}
		g.buckets[class] = st
	}
	if at < 0 {
		at = 0
	}
	w := int64(at / b.Window)
	switch {
	case !st.init:
		st.init = true
		st.win = w
		st.tokens = b.burst()
	case w > st.win:
		// Saturate before multiplying, so a huge Refill or a long idle
		// stretch cannot overflow the balance.
		if room := b.burst() - st.tokens; b.Refill > 0 && w-st.win > room/b.Refill {
			st.tokens = b.burst()
		} else {
			st.tokens += (w - st.win) * b.Refill
		}
		st.win = w
	}
	if st.tokens > 0 {
		st.tokens--
		c.Admitted++
		return true, 0
	}
	c.Rejected++
	return false, time.Duration(st.win+1) * b.Window
}

// Counts returns a deep copy of the per-class counters.
func (g *Gate) Counts() map[string]*Counts {
	out := make(map[string]*Counts, len(g.counts))
	for cls, c := range g.counts {
		cc := *c
		out[cls] = &cc
	}
	return out
}

// Summary snapshots the gate's counters into a report. packing and
// stranding feed the fitness score when withFitness is set; live /stats
// paths pass withFitness=false and report counts + fairness only.
func (g *Gate) Summary(packing, stranding float64, withFitness bool) *Summary {
	return Summarize(g.Counts(), packing, stranding, withFitness)
}

// Summary is the per-class report block that rides (omitempty) on drain
// metrics, /stats payloads, and cell rollups. Fairness is the Jain index
// over per-class admission rates; Fitness is the multi-objective
// score (0/omitted on live paths where packing aggregates don't exist yet).
type Summary struct {
	Classes  map[string]*Counts `json:"classes"`
	Fairness float64            `json:"fairness"`
	Fitness  float64            `json:"fitness,omitempty"`
}

// Summarize builds a Summary over the given counters (taking ownership of
// the map). Nil is returned for a nil map so empty gates stay omitted.
func Summarize(classes map[string]*Counts, packing, stranding float64, withFitness bool) *Summary {
	if classes == nil {
		return nil
	}
	s := &Summary{Classes: classes, Fairness: Fairness(classes)}
	if withFitness {
		s.Fitness = FitnessScore(packing, stranding, s.Fairness)
	}
	return s
}

// WriteText prints the summary the way the command-line tools report it: a
// fairness and fitness line, then one line of counts per class with traffic,
// in canonical class order. A nil summary prints nothing.
func (s *Summary) WriteText(w io.Writer) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "slo: fairness %.4f  fitness %.4f\n", s.Fairness, s.Fitness)
	for _, cls := range Classes() {
		if c, ok := s.Classes[cls]; ok {
			fmt.Fprintf(w, "  class %-10s admitted %d  rejected %d  placed %d  failed %d  exited %d\n",
				cls, c.Admitted, c.Rejected, c.Placed, c.Failed, c.Exited)
		}
	}
}

// Fairness is the Jain index over per-class admission rates
// (admitted / (admitted+rejected)), counting only classes with traffic.
// No traffic at all is perfectly fair: 1.
func Fairness(classes map[string]*Counts) float64 {
	var rates []float64
	for _, cls := range sortedClasses(classes) {
		c := classes[cls]
		if n := c.Admitted + c.Rejected; n > 0 {
			rates = append(rates, float64(c.Admitted)/float64(n))
		}
	}
	return stats.Jain(rates)
}

// MergeCounts sums src into dst (allocating dst if nil) and returns dst.
func MergeCounts(dst, src map[string]*Counts) map[string]*Counts {
	if src == nil {
		return dst
	}
	if dst == nil {
		dst = make(map[string]*Counts, len(src))
	}
	for cls, c := range src {
		d := dst[cls]
		if d == nil {
			d = &Counts{}
			dst[cls] = d
		}
		d.Admitted += c.Admitted
		d.Rejected += c.Rejected
		d.Placed += c.Placed
		d.Failed += c.Failed
		d.Exited += c.Exited
	}
	return dst
}

// MergeFrontDoor combines a fleet front-door gate's counters with the cells'
// summaries: admission numbers (Admitted/Rejected) come from the front door
// — the only place rejections happen in a fleet — while lifecycle numbers
// (Placed/Failed/Exited) are summed from the cells, whose own arrival counts
// would otherwise double-count the front door's. Either side may be nil.
func MergeFrontDoor(front map[string]*Counts, cells []*Summary, packing, stranding float64, withFitness bool) *Summary {
	var merged map[string]*Counts
	for _, s := range cells {
		if s != nil {
			merged = MergeCounts(merged, s.Classes)
		}
	}
	if front != nil {
		if merged == nil {
			merged = make(map[string]*Counts, len(front))
		}
		for cls, fc := range front {
			d := merged[cls]
			if d == nil {
				d = &Counts{}
				merged[cls] = d
			}
			d.Admitted = fc.Admitted
			d.Rejected = fc.Rejected
		}
	}
	return Summarize(merged, packing, stranding, withFitness)
}

// FitnessScore is the multi-objective serving score: the product packing x
// stranding x fairness, every term clamped to [0, 1]. It has no latency
// term, so the score — like every drain byte — is identical between a
// served run and its offline replay.
func FitnessScore(packing, stranding, fairness float64) float64 {
	return clamp01(packing) * clamp01(stranding) * clamp01(fairness)
}

func clamp01(v float64) float64 {
	switch {
	case math.IsNaN(v), v < 0:
		return 0
	case v > 1:
		return 1
	}
	return v
}

func sortedClasses(m map[string]*Counts) []string {
	out := make([]string, 0, len(m))
	for cls := range m {
		out = append(out, cls)
	}
	sort.Strings(out)
	return out
}

// --- class mixes -----------------------------------------------------------

// Mix is a class-assignment distribution for labelling trace records, e.g.
// "latency=0.2,standard=0.6,besteffort=0.2" (weights are normalized).
type Mix struct {
	weights [3]float64 // canonical class order
	total   float64
}

// ParseMix parses a comma-separated class=weight spec. The empty spec
// returns a zero Mix (no assignment).
func ParseMix(spec string) (Mix, error) {
	var m Mix
	spec = strings.TrimSpace(spec)
	if spec == "" {
		return m, nil
	}
	for _, clause := range strings.Split(spec, ",") {
		clause = strings.TrimSpace(clause)
		if clause == "" {
			continue
		}
		name, wstr, ok := strings.Cut(clause, "=")
		if !ok {
			return m, fmt.Errorf("slo: bad mix clause %q (want class=weight)", clause)
		}
		cls, err := ParseClass(strings.TrimSpace(name))
		if err != nil {
			return m, err
		}
		w, err := strconv.ParseFloat(strings.TrimSpace(wstr), 64)
		if err != nil || w < 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return m, fmt.Errorf("slo: bad weight in mix clause %q", clause)
		}
		for i, name := range Classes() {
			if name == cls {
				m.weights[i] += w
			}
		}
		m.total += w
	}
	if m.total <= 0 {
		return Mix{}, fmt.Errorf("slo: mix %q has no positive weight", spec)
	}
	if math.IsInf(m.total, 0) {
		return Mix{}, fmt.Errorf("slo: mix %q weights do not sum to a finite total", spec)
	}
	return m, nil
}

// Zero reports an empty mix (ParseMix("")).
func (m Mix) Zero() bool { return m.total <= 0 }

// Pick maps u in [0, 1) to a class by cumulative weight. A class of weight 0
// is never picked, even when rounding leaves the cumulative sum below u.
func (m Mix) Pick(u float64) string {
	if m.Zero() {
		return ClassStandard
	}
	cum, last := 0.0, 0
	classes := Classes()
	for i, w := range m.weights {
		if w == 0 {
			continue
		}
		cum += w / m.total
		if u < cum {
			return classes[i]
		}
		last = i
	}
	return classes[last]
}

// AssignClasses returns a copy of tr whose records carry classes drawn from
// the mix. The label is a pure function of (seed, record ID) — independent
// of record order or scenario composition — so the online client and the
// offline reference arm label identical traces identically. A zero mix
// returns tr unchanged.
func AssignClasses(tr *trace.Trace, m Mix, seed int64) *trace.Trace {
	if m.Zero() {
		return tr
	}
	out := *tr
	out.Records = append([]trace.Record(nil), tr.Records...)
	for i := range out.Records {
		out.Records[i].Class = m.Pick(hash01(seed, uint64(out.Records[i].ID)))
	}
	return &out
}

// hash01 maps (seed, id) to a uniform float64 in [0, 1) via splitmix64.
func hash01(seed int64, id uint64) float64 {
	x := uint64(seed)*0x9e3779b97f4a7c15 + id
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / (1 << 53)
}
