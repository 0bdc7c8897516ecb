package trace

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"time"
	"unsafe"

	"lava/internal/cluster"
	"lava/internal/resources"
)

// synth builds a canonical-order trace with n records and enough arrival
// ties and overlapping lifetimes to exercise the event-merge logic.
func synth(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{
		PoolName: "stream-test", Hosts: 32,
		HostCPU: 64000, HostMem: 262144, HostSSD: 3000,
		WarmUp: time.Hour, Horizon: 200 * time.Hour,
	}
	arrival := time.Duration(0)
	for i := 0; i < n; i++ {
		if rng.Intn(4) > 0 { // ~25% of records tie on arrival time
			arrival += time.Duration(rng.Intn(300)) * time.Second
		}
		tr.Records = append(tr.Records, Record{
			ID:       cluster.VMID(i + 1),
			Arrival:  arrival,
			Lifetime: time.Duration(1+rng.Intn(7200)) * time.Second,
			Shape:    resources.Cores(int64(1+rng.Intn(8)), 4096, 0),
		})
	}
	return tr
}

func TestCollectRoundTrip(t *testing.T) {
	tr := synth(500, 7)
	got, err := Collect(tr.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(tr.Records) {
		t.Fatalf("collected %d records, want %d", len(got), len(tr.Records))
	}
	for i := range got {
		if got[i] != tr.Records[i] {
			t.Fatalf("record %d: stream yielded %+v, want %+v", i, got[i], tr.Records[i])
		}
	}
}

// TestStreamSortsNonCanonicalCopy: a trace whose records are out of order
// must stream in canonical order without mutating the original slice.
func TestStreamSortsNonCanonicalCopy(t *testing.T) {
	tr := synth(100, 11)
	shuffled := &Trace{Records: append([]Record(nil), tr.Records...)}
	rng := rand.New(rand.NewSource(1))
	rng.Shuffle(len(shuffled.Records), func(i, j int) {
		shuffled.Records[i], shuffled.Records[j] = shuffled.Records[j], shuffled.Records[i]
	})
	first := shuffled.Records[0]
	got, err := Collect(shuffled.Stream())
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != tr.Records[i] {
			t.Fatalf("record %d: stream yielded vm %d, want vm %d", i, got[i].ID, tr.Records[i].ID)
		}
	}
	if shuffled.Records[0] != first {
		t.Fatal("Stream() mutated the caller's record slice")
	}
}

// synthTies builds a canonical-order trace whose arrivals and lifetimes sit
// on a 10 s grid, so exit times collide with each other and with arrivals by
// the hundred, and whose arrivals pause every few thousand records for longer
// than any lifetime, so the live set drains to nothing and refills — the
// cursor's heap empties and fills again.
func synthTies(n int, seed int64) *Trace {
	rng := rand.New(rand.NewSource(seed))
	tr := &Trace{PoolName: "ties", Hosts: 32, HostCPU: 64000, HostMem: 262144}
	arrival := time.Duration(0)
	for i := 0; i < n; i++ {
		arrival += time.Duration(rng.Intn(2)) * 10 * time.Second
		if i%4000 == 3999 {
			arrival += 2 * time.Hour
		}
		tr.Records = append(tr.Records, Record{
			ID:       cluster.VMID(i + 1),
			Arrival:  arrival,
			Lifetime: time.Duration(1+rng.Intn(500)) * 10 * time.Second,
			Shape:    resources.Cores(int64(1+rng.Intn(8)), 4096, 0),
		})
	}
	return tr
}

// TestEventCursorMatchesEvents is the streaming/materialized equivalence
// gate at the event level: the heap-merged cursor must reproduce the
// Events() slice exactly — same times, kinds, records, order — and Live must
// count the creates not yet matched by an exit.
func TestEventCursorMatchesEvents(t *testing.T) {
	for name, tr := range map[string]*Trace{
		"seed 3": synth(1000, 3), "seed 17": synth(1000, 17), "seed 99": synth(1000, 99),
		"ties": synthTies(50_000, 11),
	} {
		want := tr.Events()
		c := NewEventCursor(tr.Stream())
		live, maxLive := 0, 0
		for i, w := range want {
			ev, ok := c.Next()
			if !ok {
				t.Fatalf("%s: cursor exhausted at event %d/%d (err %v)", name, i, len(want), c.Err())
			}
			if ev != w {
				t.Fatalf("%s: event %d: cursor %+v, events %+v", name, i, ev, w)
			}
			if ev.Kind == EventCreate {
				live++
				maxLive = max(maxLive, live)
			} else {
				live--
			}
			if c.Live() != live {
				t.Fatalf("%s: event %d: Live() = %d, want %d", name, i, c.Live(), live)
			}
		}
		if ev, ok := c.Next(); ok {
			t.Fatalf("%s: cursor yielded extra event %+v", name, ev)
		}
		if err := c.Err(); err != nil {
			t.Fatalf("%s: cursor error after clean drain: %v", name, err)
		}
		if c.Live() != 0 {
			t.Fatalf("%s: %d VMs still live after full drain", name, c.Live())
		}
		if name == "ties" && maxLive < 100 {
			t.Fatalf("ties: the live set peaked at %d, too few to exercise the heap", maxLive)
		}
	}
}

// failingStream yields recs, then fails with err.
type failingStream struct {
	recs []Record
	err  error
}

func (s *failingStream) Next() (Record, bool) {
	if len(s.recs) == 0 {
		return Record{}, false
	}
	r := s.recs[0]
	s.recs = s.recs[1:]
	return r, true
}

func (s *failingStream) Err() error { return s.err }

// eventsBeforeFailure is what a cursor emits when its source fails, or its
// next record is refused, right after recs: their Events() up to the last
// create. The cursor reads one record ahead, so it learns of the failure as
// it emits that create, and it ends at once, exits still pending.
func eventsBeforeFailure(recs []Record) []Event {
	evs := (&Trace{Records: recs}).Events()
	for i := len(evs) - 1; i >= 0; i-- {
		if evs[i].Kind == EventCreate {
			return evs[:i+1]
		}
	}
	return nil
}

// TestEventCursorStreamError: a source that fails part way — a generator
// that hit a bad spec, a reader cut mid-record — must end the event cursor
// with the source's error, not a panic and not a clean end, after every
// event up to the create of the last record that did arrive. It must not
// drain the pending exits first: a consumer that stops at a horizon would
// then never reach the error.
func TestEventCursorStreamError(t *testing.T) {
	tr := synth(300, 5)
	whole := len(tr.Records) * 2 / 3
	want := eventsBeforeFailure(tr.Records[:whole])
	cut := errors.New("cut mid-record")

	c := NewEventCursor(&failingStream{recs: tr.Records[:whole], err: cut})
	for i, w := range want {
		ev, ok := c.Next()
		if !ok {
			t.Fatalf("cursor stopped at event %d of the %d before the cut (err %v)", i, len(want), c.Err())
		}
		if ev != w {
			t.Fatalf("event %d: cursor %+v, want %+v", i, ev, w)
		}
	}
	if ev, ok := c.Next(); ok {
		t.Fatalf("cursor yielded %+v past the cut (%d exits pending)", ev, c.Live())
	}
	if !errors.Is(c.Err(), cut) {
		t.Fatalf("cursor ended with %v, want the source's error", c.Err())
	}
}

// TestEventCursorFootprint: a live VM costs the cursor one 16-byte (exit,
// ID) key and nothing else, and once the key heap has grown to the live
// set, Next allocates nothing.
func TestEventCursorFootprint(t *testing.T) {
	if n := unsafe.Sizeof(exitKey{}); n != 16 {
		t.Fatalf("exitKey is %d bytes, want 16", n)
	}
	// One arrival a second, each living 1,000 s: once warm, the live set
	// reads 1,000 after a create and 999 after an exit.
	tr := &Trace{}
	for i := 0; i < 20_000; i++ {
		tr.Records = append(tr.Records, Record{ID: cluster.VMID(i + 1), Arrival: time.Duration(i) * time.Second,
			Lifetime: 1000 * time.Second, Shape: resources.Cores(2, 4096, 0)})
	}
	c := NewEventCursor(tr.Stream())
	for c.Live() < 1000 {
		if _, ok := c.Next(); !ok {
			t.Fatalf("cursor ended while warming (err %v)", c.Err())
		}
	}
	var ok bool
	if allocs := testing.AllocsPerRun(10_000, func() { _, ok = c.Next() }); allocs != 0 {
		t.Fatalf("warm Next allocates %.2f times per event, want 0", allocs)
	}
	if !ok || c.Live() < 999 {
		t.Fatalf("after the timed events: ok %v, %d live, want true and at least 999", ok, c.Live())
	}
}

// TestEventCursorRefusesRecords: a record outside the cursor's order
// argument — one whose exit is not after its arrival, or whose (arrival, ID)
// is not after its predecessor's — ends the cursor as a failing source
// would: every event up to the create of the record before it, then an
// error naming the VM.
// Events() orders such a record differently (a zero lifetime exits before it
// is created), and a replay machine would clamp a step back in time.
func TestEventCursorRefusesRecords(t *testing.T) {
	for _, c := range []struct {
		name string
		bad  func(r, prev *Record)
	}{
		{"zero lifetime", func(r, _ *Record) { r.Lifetime = 0 }},
		{"negative lifetime", func(r, _ *Record) { r.Lifetime = -time.Second }},
		{"exit past MaxInt64", func(r, _ *Record) { r.Lifetime = math.MaxInt64 - r.Arrival + 1 }},
		{"arrival steps back", func(r, prev *Record) { r.Arrival = prev.Arrival - time.Second }},
		{"predecessor's ID again", func(r, prev *Record) { r.Arrival, r.ID = prev.Arrival, prev.ID }},
	} {
		t.Run(c.name, func(t *testing.T) {
			recs := synth(300, 13).Records
			const k = 200
			c.bad(&recs[k], &recs[k-1])
			want := eventsBeforeFailure(recs[:k])
			cur := NewEventCursor(&sliceStream{recs: recs})
			for i, w := range want {
				if ev, ok := cur.Next(); !ok || ev != w {
					t.Fatalf("event %d: cursor %+v (ok %v, err %v), want %+v", i, ev, ok, cur.Err(), w)
				}
			}
			if ev, ok := cur.Next(); ok {
				t.Fatalf("cursor went past the refused record: %+v", ev)
			}
			if err := cur.Err(); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("vm %d ", recs[k].ID)) {
				t.Fatalf("cursor ended with %v, want an error naming vm %d", err, recs[k].ID)
			}
		})
	}
}

// fuzzRecords decodes data into a record stream, three bytes a record: an
// arrival gap byte (0–3 ticks of 10 s, plus a 2 h pause when its top bit is
// set, longer than any ordinary lifetime), a lifetime byte (1–256 ticks) and
// a kind byte. Most kinds make an ordinary record. Kind 10 makes one whose
// exit lies at most 30 s before math.MaxInt64; the kinds above it make the
// records the cursor refuses: a non-positive lifetime, an exit past
// math.MaxInt64, the predecessor's (arrival, ID) again, an arrival 10 s
// before the predecessor's. bad is the index of the first refused record, or
// len(recs).
func fuzzRecords(data []byte) (recs []Record, bad int) {
	const tick = 10 * time.Second
	var at time.Duration
	var id cluster.VMID
	bad = -1
	for ; len(data) >= 3 && len(recs) < 4096; data = data[3:] {
		gap, life, kind := data[0], data[1], data[2]%16
		at += time.Duration(gap&3) * tick
		if gap&0x80 != 0 {
			at += 2 * time.Hour
		}
		id++
		r := Record{ID: id, Arrival: at, Lifetime: time.Duration(1+int(life)) * tick, Shape: resources.Cores(1, 1024, 0)}
		switch kind {
		case 10:
			r.Lifetime = math.MaxInt64 - at - time.Duration(life%4)*tick
		case 11:
			r.Lifetime = -time.Duration(life%2) * tick
		case 12:
			r.Lifetime = math.MaxInt64 - at + 1 + time.Duration(life)
		case 13, 14:
			if len(recs) > 0 {
				prev := recs[len(recs)-1]
				r.ID, r.Arrival = prev.ID, prev.Arrival
				if kind == 14 && prev.Arrival >= tick {
					r.ID, r.Arrival = id, prev.Arrival-tick
				}
				at = r.Arrival
			}
		}
		if n := len(recs); bad < 0 && (r.Lifetime <= 0 || r.Lifetime > math.MaxInt64-r.Arrival ||
			(n > 0 && (r.Arrival < recs[n-1].Arrival || (r.Arrival == recs[n-1].Arrival && r.ID <= recs[n-1].ID)))) {
			bad = n
		}
		recs = append(recs, r)
	}
	if bad < 0 {
		bad = len(recs)
	}
	return recs, bad
}

// fuzzBytes encodes gap, lifetime and kind bytes per record for the seed
// corpus: the synthTies shape (10 s grid, zero gaps, a pause that drains
// the live set) when kinds is nil.
func fuzzBytes(n int, seed int64, kinds map[int]byte) []byte {
	rng := rand.New(rand.NewSource(seed))
	var data []byte
	for i := 0; i < n; i++ {
		gap := byte(rng.Intn(2))
		if i%100 == 99 {
			gap |= 0x80
		}
		data = append(data, gap, byte(rng.Intn(256)), kinds[i])
	}
	return data
}

// FuzzEventCursor: over any record stream the cursor never panics and never
// emits an event earlier than the one before it. A stream the order argument
// covers replays exactly as (*Trace).Events() orders the same records, with
// Live counting the creates not yet exited; any other stream replays the
// records before its first refused one exactly so up to their last create,
// then ends with an error.
func FuzzEventCursor(f *testing.F) {
	f.Add(fuzzBytes(400, 11, nil))
	f.Add(fuzzBytes(60, 3, map[int]byte{5: 10, 6: 10, 7: 10, 30: 10}))
	for kind := byte(11); kind <= 14; kind++ {
		f.Add(fuzzBytes(60, int64(kind), map[int]byte{40: kind}))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		recs, bad := fuzzRecords(data)
		want := (&Trace{Records: recs}).Events()
		if bad < len(recs) {
			want = eventsBeforeFailure(recs[:bad])
		}
		c := NewEventCursor(&sliceStream{recs: recs})
		live, last := 0, time.Duration(math.MinInt64)
		for i := 0; ; i++ {
			ev, ok := c.Next()
			if !ok {
				if i != len(want) {
					t.Fatalf("cursor ended after %d of %d events (err %v)", i, len(want), c.Err())
				}
				break
			}
			if ev.Time < last {
				t.Fatalf("event %d at %v after one at %v", i, ev.Time, last)
			}
			if i >= len(want) || ev != want[i] {
				t.Fatalf("event %d: cursor %+v, want the %d events of Events()", i, ev, len(want))
			}
			if last = ev.Time; ev.Kind == EventCreate {
				live++
			} else {
				live--
			}
			if c.Live() != live {
				t.Fatalf("event %d: Live() = %d, want %d", i, c.Live(), live)
			}
		}
		if err := c.Err(); (err != nil) != (bad < len(recs)) {
			t.Fatalf("cursor ended with %v; first refused record %d of %d", err, bad, len(recs))
		}
	})
}

// BenchmarkEventCursor is the cursor layer of a streamed replay: one derived
// event per op over 100k records, one arrival a second and lifetimes around
// 5,000 s, so about 5k exits are pending. Next must not allocate once the
// key heap has grown (the cursor is rebuilt every 200k ops, so B/op reads
// the heap's growth spread over them).
func BenchmarkEventCursor(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	tr := &Trace{}
	for i := 0; i < 100_000; i++ {
		tr.Records = append(tr.Records, Record{
			ID:       cluster.VMID(i + 1),
			Arrival:  time.Duration(i) * time.Second,
			Lifetime: time.Duration(1+rng.Intn(10_000)) * time.Second,
			Shape:    resources.Cores(2, 4096, 0),
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	c := NewEventCursor(tr.Stream())
	for i := 0; i < b.N; i++ {
		if _, ok := c.Next(); !ok {
			c = NewEventCursor(tr.Stream())
		}
	}
}
