package trace

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"time"

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
// cursor's slab hands every slot back and out again.
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
		if name == "ties" && (maxLive < 100 || len(c.slab) > maxLive) {
			t.Fatalf("ties: slab holds %d records for a live set that peaked at %d", len(c.slab), maxLive)
		}
	}
}

// TestOpenStreamMatchesRead: decoding a JSONL trace record by record must
// agree exactly with the materialized Read path — same geometry, same
// records.
func TestOpenStreamMatchesRead(t *testing.T) {
	tr := synth(300, 5)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	want, err := Read(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	s, err := OpenStream(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	meta := s.Meta()
	if meta.PoolName != want.PoolName || meta.Hosts != want.Hosts ||
		meta.HostShape() != want.HostShape() ||
		meta.WarmUp != want.WarmUp || meta.Horizon != want.Horizon {
		t.Fatalf("stream meta %+v disagrees with read header %+v", meta, want)
	}
	if len(meta.Records) != 0 {
		t.Fatalf("stream meta carries %d materialized records", len(meta.Records))
	}
	got, err := Collect(s)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want.Records) {
		t.Fatalf("streamed %d records, read %d", len(got), len(want.Records))
	}
	for i := range got {
		if got[i] != want.Records[i] {
			t.Fatalf("record %d: streamed %+v, read %+v", i, got[i], want.Records[i])
		}
	}
}

func TestOpenStreamRejectsBadRecords(t *testing.T) {
	header := `{"pool":"p","hosts":2,"host_cpu_milli":64000,"host_mem_mb":262144,"records":2}`
	cases := []struct {
		name string
		rows []string
	}{
		{"out of order", []string{
			`{"id":2,"arrival_ns":7200000000000,"lifetime_ns":60000000000,"shape":{"CPUMilli":1000,"MemoryMB":1024}}`,
			`{"id":1,"arrival_ns":3600000000000,"lifetime_ns":60000000000,"shape":{"CPUMilli":1000,"MemoryMB":1024}}`,
		}},
		{"duplicate id at same arrival", []string{
			`{"id":1,"arrival_ns":3600000000000,"lifetime_ns":60000000000,"shape":{"CPUMilli":1000,"MemoryMB":1024}}`,
			`{"id":1,"arrival_ns":3600000000000,"lifetime_ns":60000000000,"shape":{"CPUMilli":1000,"MemoryMB":1024}}`,
		}},
		{"zero lifetime", []string{
			`{"id":1,"arrival_ns":0,"lifetime_ns":0,"shape":{"CPUMilli":1000,"MemoryMB":1024}}`,
		}},
		{"shape exceeds host", []string{
			`{"id":1,"arrival_ns":0,"lifetime_ns":60000000000,"shape":{"CPUMilli":999000,"MemoryMB":1024}}`,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			doc := header + "\n" + strings.Join(tc.rows, "\n") + "\n"
			s, err := OpenStream(strings.NewReader(doc))
			if err != nil {
				t.Fatal(err)
			}
			if _, err := Collect(s); err == nil {
				t.Fatal("bad record streamed without error")
			}
		})
	}
}

// TestOpenStreamTruncated: a JSONL trace cut in the middle of a record —
// a partial download, a writer killed mid-line — must end the event cursor
// with an error, not a panic and not a clean end, after every event of the
// records that did arrive whole.
func TestOpenStreamTruncated(t *testing.T) {
	tr := synth(300, 5)
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	cut := len(data) * 2 / 3
	for data[cut-1] == '\n' || data[cut] == '\n' {
		cut++ // keep the cut strictly inside a record
	}
	whole := bytes.Count(data[:cut], []byte("\n")) - 1 // lines before the cut, less the header
	want := (&Trace{Records: tr.Records[:whole]}).Events()

	s, err := OpenStream(bytes.NewReader(data[:cut]))
	if err != nil {
		t.Fatal(err)
	}
	c := NewEventCursor(s)
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
		t.Fatalf("cursor yielded %+v past the cut", ev)
	}
	if c.Err() == nil {
		t.Fatal("truncated trace drained without an error")
	}
}

// BenchmarkEventCursor is the cursor layer of a streamed replay: one derived
// event per op over 100k records, one arrival a second and lifetimes around
// 5,000 s, so about 5k exits are pending. Next must not allocate once the
// key heap and the slab have grown (the cursor is rebuilt every 200k ops).
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
