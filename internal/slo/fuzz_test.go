package slo

import (
	"math"
	"math/bits"
	"slices"
	"strings"
	"testing"
	"time"
)

// FuzzAdmissionSpecs feeds one arbitrary string to both operator-facing
// spec parsers and checks what they accept:
//
//  1. neither ParseConfig nor ParseMix panics;
//  2. an accepted config has no negative bucket, and every limited bucket a
//     positive window;
//  3. a Gate over an accepted config, fed monotone arrivals, admits exactly
//     when a saturating reference ledger holds a token — so it never admits
//     more than burst() in one window and never rejects while a token is
//     left;
//  4. an accepted mix has a finite positive total, and Pick never returns a
//     class of weight 0.
func FuzzAdmissionSpecs(f *testing.F) {
	for _, spec := range []string{
		"standard=-5/1m",                   // negative refill once read as no limit
		"standard=-3/1m:5",                 // negative refill once drained the bucket
		"standard=4611686018427387904/1ns", // refill x windows once overflowed
		"latency=1e308,standard=1e308",     // weights once summed to +Inf
		"latency=0.1,standard=0.2,besteffort=0",
		"latency=100/1m:200,standard=50/1m,besteffort=10/30s",
		"track",
	} {
		f.Add(spec, []byte{0, 3, 1, 200, 0, 0, 9})
	}

	f.Fuzz(func(t *testing.T, spec string, deltas []byte) {
		if len(deltas) > 256 {
			deltas = deltas[:256]
		}
		if cfg, err := ParseConfig(spec); err == nil && cfg != nil {
			for _, cls := range Classes() {
				b := cfg.Bucket(cls)
				if b.Burst < 0 || b.Refill < 0 || !b.Unlimited() && b.Window <= 0 {
					t.Fatalf("ParseConfig(%q) accepted %s bucket %+v", spec, cls, b)
				}
				if !b.Unlimited() {
					replayGate(t, cfg, cls, deltas)
				}
			}
		}

		m, err := ParseMix(spec)
		if err != nil || strings.TrimSpace(spec) == "" {
			return
		}
		if !(m.total > 0) || math.IsInf(m.total, 0) {
			t.Fatalf("ParseMix(%q) accepted total %v", spec, m.total)
		}
		for i := 0; i <= 64; i++ {
			u := min(float64(i)/64, math.Nextafter(1, 0))
			if cls := m.Pick(u); m.weights[slices.Index(Classes(), cls)] == 0 {
				t.Fatalf("ParseMix(%q).Pick(%v) = %s, a class of weight 0", spec, u, cls)
			}
		}
	})
}

// replayGate feeds a Gate over cfg one arrival of class cls per delta, each
// delta quarter-windows after the last, and checks every decision against a
// saturating reference ledger that shares no code with Gate.
func replayGate(t *testing.T, cfg *Config, cls string, deltas []byte) {
	t.Helper()
	b := cfg.Bucket(cls)
	g := NewGate(cfg)
	if g == nil {
		t.Fatalf("limited %s bucket %+v built no gate", cls, b)
	}
	capacity := b.Burst
	if capacity == 0 {
		capacity = b.Refill
	}
	step := max(b.Window/4, 1)
	var at time.Duration
	var tokens, win int64
	admits := map[int64]int64{}
	for i, d := range deltas {
		if time.Duration(d) > (math.MaxInt64-at)/step {
			return // virtual time would overflow
		}
		at += time.Duration(d) * step
		w := int64(at / b.Window)
		switch {
		case i == 0:
			tokens, win = capacity, w
		case w > win:
			hi, lo := bits.Mul64(uint64(w-win), uint64(b.Refill))
			if hi != 0 || lo >= uint64(capacity-tokens) {
				tokens = capacity
			} else {
				tokens += int64(lo)
			}
			win = w
		}
		want := tokens > 0
		if want {
			tokens--
		}
		if ok, _ := g.Admit(cls, at); ok != want {
			t.Fatalf("%s bucket %+v, arrival %d at %v: gate admitted %v, ledger %v", cls, b, i, at, ok, want)
		}
		if want {
			admits[w]++
			if admits[w] > capacity {
				t.Fatalf("%s bucket %+v: window %d admitted %d > burst %d", cls, b, w, admits[w], capacity)
			}
		}
	}
}

// FuzzTokenBucket drives a Gate with an arbitrary monotonic arrival stream
// and checks it against an independent reference ledger plus two invariants
// the admission contract promises:
//
//  1. capacity: within any single window the gate admits at most burst()
//     requests — tokens never exceed the cap, and no refill lands mid-window;
//  2. work conservation: the gate never rejects while the reference ledger
//     says a token is available (and vice versa — the decision streams match
//     exactly, which is what online/offline parity ultimately rests on).
//
// The reference model is deliberately the dumbest possible ledger: integer
// tokens, explicit refill per elapsed boundary, no shared code with Gate.
func FuzzTokenBucket(f *testing.F) {
	f.Add(int64(3), int64(2), int64(60), []byte{1, 1, 1, 1, 200, 1, 1})
	f.Add(int64(0), int64(1), int64(1), []byte{0, 0, 0})
	f.Add(int64(5), int64(0), int64(10), []byte{9, 9, 9, 9, 9, 9})
	f.Add(int64(1), int64(1), int64(3600), []byte{255, 255, 255, 0})

	f.Fuzz(func(t *testing.T, burst, refill, winSec int64, deltas []byte) {
		burst %= 16
		refill %= 16
		winSec %= 7200
		if burst < 0 {
			burst = -burst
		}
		if refill < 0 {
			refill = -refill
		}
		if winSec <= 0 {
			winSec = 1
		}
		if len(deltas) > 256 {
			deltas = deltas[:256]
		}
		win := time.Duration(winSec) * time.Second
		b := Bucket{Burst: burst, Refill: refill, Window: win}
		if b.Unlimited() {
			return // nothing to shape; unlimited admission is tested elsewhere
		}
		g := NewGate(&Config{Standard: b})
		if g == nil {
			t.Fatal("limited config produced nil gate")
		}

		cap := b.Burst
		if cap <= 0 {
			cap = b.Refill
		}

		// Reference ledger.
		refTokens := cap
		refWin := int64(0)
		refInit := false

		at := time.Duration(0)
		admitsInWin := map[int64]int64{}
		total := 0
		for _, d := range deltas {
			// Monotonic virtual time: each event advances 0..255 seconds.
			at += time.Duration(d) * time.Second
			w := int64(at / win)

			ok, retry := g.Admit(ClassStandard, at)

			// Advance the reference ledger to window w.
			if !refInit {
				refInit = true
				refWin = w
			} else if w > refWin {
				refTokens += (w - refWin) * refill
				if refTokens > cap {
					refTokens = cap
				}
				refWin = w
			}
			wantOK := refTokens > 0
			if wantOK {
				refTokens--
			}

			if ok != wantOK {
				t.Fatalf("event %d (at=%v w=%d): gate=%v ref=%v (burst=%d refill=%d win=%v, refTokens now %d)",
					total, at, w, ok, wantOK, burst, refill, win, refTokens)
			}
			if ok {
				admitsInWin[w]++
				if admitsInWin[w] > cap {
					t.Fatalf("window %d admitted %d > capacity %d", w, admitsInWin[w], cap)
				}
			} else {
				// The retry hint must point at a strictly future refill
				// boundary — a client sleeping until then can make progress.
				if retry <= at {
					t.Fatalf("retryAt %v not after arrival %v", retry, at)
				}
				if retry%win != 0 {
					t.Fatalf("retryAt %v not on a %v boundary", retry, win)
				}
			}
			total++
		}

		// The gate's own accounting agrees with the decision stream.
		c := g.Class(ClassStandard)
		var admitted int64
		for _, n := range admitsInWin {
			admitted += n
		}
		if c.Admitted != admitted || c.Admitted+c.Rejected != int64(total) {
			t.Fatalf("counts %+v disagree with %d admits / %d events", c, admitted, total)
		}
	})
}
