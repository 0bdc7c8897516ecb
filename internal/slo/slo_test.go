package slo

import (
	"errors"
	"fmt"
	"math"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/trace"
)

func TestParseClass(t *testing.T) {
	cases := []struct {
		in, want string
		ok       bool
	}{
		{"", ClassStandard, true}, // back-compat default
		{"latency", ClassLatency, true},
		{"standard", ClassStandard, true},
		{"besteffort", ClassBestEffort, true},
		{"gold", "", false},
		{"Latency", "", false}, // classes are case-sensitive wire tokens
		{" standard", "", false},
	}
	for _, c := range cases {
		got, err := ParseClass(c.in)
		if c.ok != (err == nil) || got != c.want {
			t.Fatalf("ParseClass(%q) = (%q, %v), want (%q, ok=%v)", c.in, got, err, c.want, c.ok)
		}
	}
}

func TestParseConfig(t *testing.T) {
	if cfg, err := ParseConfig(""); cfg != nil || err != nil {
		t.Fatalf("empty spec = (%v, %v), want (nil, nil)", cfg, err)
	}
	cfg, err := ParseConfig("track")
	if err != nil || cfg == nil || !cfg.Track || !cfg.Latency.Unlimited() {
		t.Fatalf("track spec = (%+v, %v)", cfg, err)
	}
	cfg, err = ParseConfig("latency=100/1m:200, standard=50/1m")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.Latency != (Bucket{Burst: 200, Refill: 100, Window: time.Minute}) {
		t.Fatalf("latency bucket = %+v", cfg.Latency)
	}
	if cfg.Standard != (Bucket{Refill: 50, Window: time.Minute}) {
		t.Fatalf("standard bucket = %+v", cfg.Standard)
	}
	if !cfg.BestEffort.Unlimited() {
		t.Fatal("unlisted class must stay unlimited")
	}
	for _, bad := range []string{
		"latency",           // no '='
		"gold=1/1m",         // unknown class
		"latency=x/1m",      // bad refill
		"latency=1/xyz",     // bad window
		"latency=1/1m:x",    // bad burst
		"latency=1",         // no window separator
		"besteffort=0/0s:5", // limited (burst>0) but no usable window
	} {
		if _, err := ParseConfig(bad); err == nil {
			t.Fatalf("ParseConfig(%q) accepted", bad)
		}
	}
}

func TestConfigNormalize(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Normalize() != nil || nilCfg.Enabled() {
		t.Fatal("nil config must stay nil/disabled")
	}
	// All buckets unlimited and no tracking: the layer is off — this is the
	// contract that keeps classed traces byte-identical to pre-class output
	// when no admission is configured.
	if (&Config{}).Normalize() != nil {
		t.Fatal("all-unlimited config must normalize to nil")
	}
	if (&Config{Track: true}).Normalize() == nil {
		t.Fatal("tracking config must survive Normalize")
	}
	if (&Config{Standard: Bucket{Refill: 1, Window: time.Second}}).Normalize() == nil {
		t.Fatal("limited config must survive Normalize")
	}
	if NewGate(nil) != nil || NewGate(&Config{}) != nil {
		t.Fatal("NewGate over a do-nothing config must be nil")
	}
}

func TestGateAdmitBucketSemantics(t *testing.T) {
	win := time.Minute
	g := NewGate(&Config{Standard: Bucket{Burst: 3, Refill: 2, Window: win}})

	// First use: full burst available within the first window.
	for i := 0; i < 3; i++ {
		if ok, _ := g.Admit(ClassStandard, time.Duration(i)*time.Second); !ok {
			t.Fatalf("admit %d within burst rejected", i)
		}
	}
	ok, retry := g.Admit(ClassStandard, 30*time.Second)
	if ok {
		t.Fatal("4th admit in window 0 must reject (burst 3)")
	}
	if retry != win {
		t.Fatalf("retryAt = %v, want next boundary %v", retry, win)
	}

	// One boundary later: +Refill tokens (2), capped at burst.
	if ok, _ := g.Admit(ClassStandard, win+time.Second); !ok {
		t.Fatal("refilled token rejected")
	}
	if ok, _ := g.Admit(ClassStandard, win+2*time.Second); !ok {
		t.Fatal("second refilled token rejected")
	}
	if ok, retry := g.Admit(ClassStandard, win+3*time.Second); ok {
		t.Fatal("over-refill admit")
	} else if retry != 2*win {
		t.Fatalf("retryAt = %v, want %v", retry, 2*win)
	}

	// Many idle windows: balance caps at burst, not refill x windows.
	at := 100 * win
	admits := 0
	for i := 0; i < 10; i++ {
		if ok, _ := g.Admit(ClassStandard, at+time.Duration(i)*time.Second); ok {
			admits++
		}
	}
	if admits != 3 {
		t.Fatalf("after long idle: %d admits, want burst cap 3", admits)
	}

	// Counters track every decision.
	c := g.Class(ClassStandard)
	if c.Admitted != 8 || c.Rejected != 9 {
		t.Fatalf("counts = %+v, want admitted 8 rejected 9", c)
	}
}

func TestGateAdmitEdgeCases(t *testing.T) {
	win := time.Minute
	// Burst defaults to Refill when unset.
	g := NewGate(&Config{Standard: Bucket{Refill: 2, Window: win}})
	n := 0
	for i := 0; i < 5; i++ {
		if ok, _ := g.Admit(ClassStandard, 0); ok {
			n++
		}
	}
	if n != 2 {
		t.Fatalf("burst-defaults-to-refill: %d admits, want 2", n)
	}

	// Fixed budget: Burst > 0 with Refill == 0 never refills.
	g = NewGate(&Config{Standard: Bucket{Burst: 1, Window: win}})
	if ok, _ := g.Admit(ClassStandard, 0); !ok {
		t.Fatal("budget token rejected")
	}
	if ok, _ := g.Admit(ClassStandard, 500*win); ok {
		t.Fatal("fixed budget refilled")
	}

	// Negative virtual time clamps to 0 rather than producing a negative
	// window index.
	g = NewGate(&Config{Standard: Bucket{Burst: 1, Refill: 1, Window: win}})
	if ok, _ := g.Admit(ClassStandard, -time.Hour); !ok {
		t.Fatal("clamped-negative admit rejected")
	}
	if ok, retry := g.Admit(ClassStandard, -time.Second); ok {
		t.Fatal("second admit must reject")
	} else if retry != win {
		t.Fatalf("retry = %v, want %v", retry, win)
	}

	// Backward time never refills — only forward boundaries add tokens.
	g = NewGate(&Config{Standard: Bucket{Burst: 1, Refill: 1, Window: win}})
	g.Admit(ClassStandard, 10*win) // spends the initial token at window 10
	if ok, _ := g.Admit(ClassStandard, 2*win); ok {
		t.Fatal("backward-time admit refilled")
	}

	// Unlimited classes admit unconditionally and count.
	g = NewGate(&Config{Track: true})
	for i := 0; i < 4; i++ {
		if ok, _ := g.Admit(ClassLatency, 0); !ok {
			t.Fatal("unlimited class rejected")
		}
	}
	if g.Class(ClassLatency).Admitted != 4 {
		t.Fatalf("unlimited class counts = %+v", g.Class(ClassLatency))
	}
}

func TestRejectError(t *testing.T) {
	rej := &RejectError{Class: ClassBestEffort, RetryAt: 3 * time.Minute}
	wrapped := fmt.Errorf("outer: %w", rej)
	if !IsReject(rej) || !IsReject(wrapped) {
		t.Fatal("IsReject must see direct and wrapped rejections")
	}
	if IsReject(errors.New("plain")) || IsReject(nil) {
		t.Fatal("IsReject false positive")
	}
	var got *RejectError
	if !errors.As(wrapped, &got) || got.Class != ClassBestEffort || got.RetryAt != 3*time.Minute {
		t.Fatalf("errors.As lost fields: %+v", got)
	}
}

func TestSummarizeAndFairness(t *testing.T) {
	if Summarize(nil, 0.5, 0.5, true) != nil {
		t.Fatal("nil classes must summarize to nil")
	}
	// Equal admit rates across classes: fairness 1.
	eq := map[string]*Counts{
		ClassLatency:  {Admitted: 10},
		ClassStandard: {Admitted: 70},
	}
	if f := Fairness(eq); f != 1 {
		t.Fatalf("equal-rate fairness = %v", f)
	}
	// One class fully shaped out, one untouched: rates {1, 0} -> 1/2.
	hot := map[string]*Counts{
		ClassLatency:    {Admitted: 10},
		ClassBestEffort: {Rejected: 10},
	}
	if f := Fairness(hot); math.Abs(f-0.5) > 1e-12 {
		t.Fatalf("one-hot fairness = %v, want 0.5", f)
	}
	// Zero-traffic classes are skipped, never divide-by-zero.
	quiet := map[string]*Counts{
		ClassLatency:  {},
		ClassStandard: {Admitted: 5},
	}
	if f := Fairness(quiet); f != 1 || math.IsNaN(f) {
		t.Fatalf("quiet-class fairness = %v", f)
	}
	s := Summarize(hot, 0.8, 0.5, true)
	if math.Abs(s.Fitness-0.8*0.5*0.5) > 1e-12 {
		t.Fatalf("fitness = %v, want packing*stranding*fairness = 0.2", s.Fitness)
	}
	if s2 := Summarize(hot, 0.8, 0.5, false); s2.Fitness != 0 {
		t.Fatalf("live summary must omit fitness, got %v", s2.Fitness)
	}
}

func TestMergeCountsAndFrontDoor(t *testing.T) {
	a := map[string]*Counts{ClassLatency: {Admitted: 3, Placed: 2, Exited: 1}}
	b := map[string]*Counts{
		ClassLatency:  {Admitted: 4, Placed: 4, Failed: 1},
		ClassStandard: {Admitted: 7, Placed: 7},
	}
	m := MergeCounts(nil, a)
	m = MergeCounts(m, b)
	if got := m[ClassLatency]; *got != (Counts{Admitted: 7, Placed: 6, Failed: 1, Exited: 1}) {
		t.Fatalf("merged latency = %+v", got)
	}
	// Additivity: merging cell maps then summarizing equals summing any
	// grouping of the same cells — MergeCounts is a plain field-wise sum.
	m2 := MergeCounts(MergeCounts(nil, b), a)
	for cls, c := range m {
		if *m2[cls] != *c {
			t.Fatalf("merge not order-independent at %s: %+v vs %+v", cls, c, m2[cls])
		}
	}

	// Front door: Admitted/Rejected come from the gate (cells would
	// double-count their own arrivals), lifecycle counts from the cells.
	front := map[string]*Counts{ClassLatency: {Admitted: 5, Rejected: 9}}
	cells := []*Summary{
		{Classes: map[string]*Counts{ClassLatency: {Admitted: 5, Placed: 5}}},
		nil,
	}
	s := MergeFrontDoor(front, cells, 1, 1, true)
	got := s.Classes[ClassLatency]
	if *got != (Counts{Admitted: 5, Rejected: 9, Placed: 5}) {
		t.Fatalf("front-door merge = %+v", got)
	}
	if MergeFrontDoor(nil, []*Summary{nil, nil}, 0, 0, false) != nil {
		t.Fatal("all-nil front door must stay nil")
	}
}

func TestFitnessScore(t *testing.T) {
	if got := FitnessScore(0.5, 0.5, 1, 1); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("fitness = %v", got)
	}
	// Out-of-range terms clamp instead of exploding the product.
	if got := FitnessScore(2, -1, 1, 1); got != 0 {
		t.Fatalf("clamped fitness = %v, want 0 (negative term)", got)
	}
	if got := FitnessScore(2, 1, 1, 1); got != 1 {
		t.Fatalf("clamped fitness = %v, want 1", got)
	}
	if got := FitnessScore(math.NaN(), 1, 1, 1); got != 0 {
		t.Fatalf("NaN term = %v, want 0", got)
	}
	// Weight 0 drops a term; weight 2 squares it.
	if got := FitnessScoreW(0.5, 0.1, 1, 1, Weights{Packing: 1, Stranding: 0, Latency: 1, Fairness: 1}); got != 0.5 {
		t.Fatalf("dropped-term fitness = %v", got)
	}
	if got := FitnessScoreW(0.5, 1, 1, 1, Weights{Packing: 2, Stranding: 1, Latency: 1, Fairness: 1}); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("squared-term fitness = %v", got)
	}
}

func TestParseMixAndAssignClasses(t *testing.T) {
	if m, err := ParseMix(""); err != nil || !m.Zero() {
		t.Fatalf("empty mix = (%+v, %v)", m, err)
	}
	for _, bad := range []string{"latency", "gold=1", "latency=-1", "latency=x", "latency=0,standard=0"} {
		if _, err := ParseMix(bad); err == nil {
			t.Fatalf("ParseMix(%q) accepted", bad)
		}
	}
	m, err := ParseMix("latency=1,standard=2,besteffort=1")
	if err != nil {
		t.Fatal(err)
	}
	if m.Pick(0) != ClassLatency || m.Pick(0.3) != ClassStandard || m.Pick(0.99) != ClassBestEffort {
		t.Fatalf("Pick boundaries wrong: %s %s %s", m.Pick(0), m.Pick(0.3), m.Pick(0.99))
	}

	tr := &trace.Trace{PoolName: "p", Hosts: 1}
	for i := 0; i < 200; i++ {
		tr.Records = append(tr.Records, trace.Record{ID: cluster.VMID(i + 1)})
	}
	out := AssignClasses(tr, m, 7)
	if out == tr {
		t.Fatal("AssignClasses must copy")
	}
	for _, rec := range tr.Records {
		if rec.Class != "" {
			t.Fatal("input trace mutated")
		}
	}
	seen := map[string]int{}
	for _, rec := range out.Records {
		if _, err := ParseClass(rec.Class); err != nil || rec.Class == "" {
			t.Fatalf("bad assigned class %q", rec.Class)
		}
		seen[rec.Class]++
	}
	if len(seen) != 3 {
		t.Fatalf("200 records hit %d classes, want all 3: %v", len(seen), seen)
	}

	// Assignment is a pure function of (seed, ID): reversing record order
	// labels every ID identically, and a different seed relabels.
	rev := &trace.Trace{PoolName: "p", Hosts: 1}
	for i := len(tr.Records) - 1; i >= 0; i-- {
		rev.Records = append(rev.Records, tr.Records[i])
	}
	outRev := AssignClasses(rev, m, 7)
	byID := map[cluster.VMID]string{}
	for _, rec := range out.Records {
		byID[rec.ID] = rec.Class
	}
	for _, rec := range outRev.Records {
		if byID[rec.ID] != rec.Class {
			t.Fatalf("order-dependent assignment at ID %d", rec.ID)
		}
	}
	out2 := AssignClasses(tr, m, 8)
	same := true
	for i := range out.Records {
		if out.Records[i].Class != out2.Records[i].Class {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical labels (hash degenerate?)")
	}

	if AssignClasses(tr, Mix{}, 7) != tr {
		t.Fatal("zero mix must return the input unchanged")
	}
}
