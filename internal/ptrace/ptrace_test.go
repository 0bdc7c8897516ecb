package ptrace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"strings"
	"testing"
	"time"

	"lava/internal/cluster"
)

func mkDecision(i int) Decision {
	return Decision{
		Kind: KindPlace,
		T:    time.Duration(i) * time.Minute,
		VM:   cluster.VMID(i),
		Host: cluster.HostID(i % 7),
	}
}

func TestRecorderSeqAndOrder(t *testing.T) {
	r := New(Options{K: 3, Policy: "test"})
	for i := 0; i < 10; i++ {
		r.Record(mkDecision(i))
	}
	if r.Seq() != 10 || r.Len() != 10 || r.Dropped() != 0 {
		t.Fatalf("seq/len/dropped = %d/%d/%d", r.Seq(), r.Len(), r.Dropped())
	}
	ds := r.Decisions()
	for i, d := range ds {
		if d.Seq != uint64(i+1) {
			t.Fatalf("decision %d has seq %d, want %d", i, d.Seq, i+1)
		}
		if d.VM != cluster.VMID(i) {
			t.Fatalf("decision %d out of order: vm %d", i, d.VM)
		}
	}
}

func TestRecorderRingWraparound(t *testing.T) {
	r := New(Options{K: 3, Capacity: 4})
	for i := 0; i < 11; i++ {
		r.Record(mkDecision(i))
	}
	if r.Len() != 4 {
		t.Fatalf("ring len = %d, want 4", r.Len())
	}
	if r.Dropped() != 7 {
		t.Fatalf("dropped = %d, want 7", r.Dropped())
	}
	if r.Seq() != 11 {
		t.Fatalf("seq = %d, want 11 (drops must not reuse sequence numbers)", r.Seq())
	}
	ds := r.Decisions()
	want := []uint64{8, 9, 10, 11}
	for i, d := range ds {
		if d.Seq != want[i] {
			t.Fatalf("ring order: got seq %d at %d, want %d", d.Seq, i, want[i])
		}
	}
	// Exactly at capacity: no drops.
	r2 := New(Options{Capacity: 4})
	for i := 0; i < 4; i++ {
		r2.Record(mkDecision(i))
	}
	if r2.Dropped() != 0 || r2.Len() != 4 {
		t.Fatalf("at-capacity recorder: dropped %d len %d", r2.Dropped(), r2.Len())
	}
}

func TestRecorderJSONLOut(t *testing.T) {
	var buf bytes.Buffer
	r := New(Options{K: 2, Capacity: 2, Out: &buf, Policy: "p"})
	for i := 0; i < 5; i++ {
		r.Record(mkDecision(i))
	}
	if r.Err() != nil {
		t.Fatal(r.Err())
	}
	// The JSONL stream persists every decision, ring drops included.
	var seqs []uint64
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		var d Decision
		if err := json.Unmarshal(sc.Bytes(), &d); err != nil {
			t.Fatalf("bad JSONL line: %v", err)
		}
		seqs = append(seqs, d.Seq)
	}
	if len(seqs) != 5 {
		t.Fatalf("JSONL lines = %d, want 5", len(seqs))
	}
	for i, s := range seqs {
		if s != uint64(i+1) {
			t.Fatalf("JSONL seq %d at line %d", s, i)
		}
	}
}

func TestKindJSONRoundTrip(t *testing.T) {
	for _, k := range []Kind{KindPlace, KindFail, KindExit, KindKill, KindWithdraw, KindRestore} {
		b, err := json.Marshal(k)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(b), k.String()) {
			t.Fatalf("kind %v marshals to %s", k, b)
		}
		var back Kind
		if err := json.Unmarshal(b, &back); err != nil {
			t.Fatal(err)
		}
		if back != k {
			t.Fatalf("round trip %v -> %s -> %v", k, b, back)
		}
	}
	var bad Kind
	if err := json.Unmarshal([]byte(`"bogus"`), &bad); err == nil {
		t.Fatal("unknown kind name must fail to unmarshal")
	}
}

func TestQueryFilters(t *testing.T) {
	r := New(Options{K: 3, Policy: "p"})
	for i := 0; i < 20; i++ {
		r.Record(mkDecision(i))
	}
	// By VM.
	res := r.Query(Filter{VM: 7, Host: -1})
	if len(res.Decisions) != 1 || res.Decisions[0].VM != 7 {
		t.Fatalf("vm filter: %+v", res.Decisions)
	}
	// By host: VMs 3, 10, 17 land on host 3.
	res = r.Query(Filter{VM: -1, Host: 3})
	if len(res.Decisions) != 3 {
		t.Fatalf("host filter: got %d decisions", len(res.Decisions))
	}
	// Time window is inclusive on both ends; To <= 0 means unbounded.
	res = r.Query(Filter{VM: -1, Host: -1, From: 5 * time.Minute, To: 7 * time.Minute})
	if len(res.Decisions) != 3 {
		t.Fatalf("time filter: got %d decisions", len(res.Decisions))
	}
	res = r.Query(Filter{VM: -1, Host: -1, From: 18 * time.Minute})
	if len(res.Decisions) != 2 {
		t.Fatalf("open-ended time filter: got %d decisions", len(res.Decisions))
	}
	if res.Policy != "p" || res.K != 3 || res.Total != 20 {
		t.Fatalf("query metadata: %+v", res)
	}
}

func TestQueryPagination(t *testing.T) {
	r := New(Options{Capacity: 16})
	for i := 0; i < 25; i++ {
		r.Record(mkDecision(i))
	}
	// Ring holds seqs 10..25. Page through with limit 5.
	var got []uint64
	after := uint64(0)
	pages := 0
	for {
		res := r.Query(Filter{VM: -1, Host: -1, After: after, Limit: 5})
		for _, d := range res.Decisions {
			got = append(got, d.Seq)
		}
		pages++
		if !res.More {
			if res.NextAfter != 0 && res.NextAfter != got[len(got)-1] {
				t.Fatalf("final page next_after = %d", res.NextAfter)
			}
			break
		}
		if res.NextAfter <= after {
			t.Fatalf("pagination does not advance: %d -> %d", after, res.NextAfter)
		}
		after = res.NextAfter
		if pages > 10 {
			t.Fatal("pagination never terminates")
		}
	}
	if len(got) != 16 {
		t.Fatalf("paged decisions = %d, want 16", len(got))
	}
	for i, s := range got {
		if s != uint64(10+i) {
			t.Fatalf("page order: got seq %d at %d, want %d", s, i, 10+i)
		}
	}
	// Limit 0 uses the default page size.
	res := r.Query(Filter{VM: -1, Host: -1})
	if len(res.Decisions) != 16 {
		t.Fatalf("default limit returned %d", len(res.Decisions))
	}
	// After beyond the newest sequence: empty page, no more.
	res = r.Query(Filter{VM: -1, Host: -1, After: 1000})
	if len(res.Decisions) != 0 || res.More {
		t.Fatalf("past-the-end page: %+v", res)
	}
}

func TestSinkDocument(t *testing.T) {
	s := &Sink{}
	r1 := New(Options{K: 2, Policy: "a"})
	r1.Record(mkDecision(1))
	r2 := New(Options{K: 2, Policy: "b"})
	r2.Record(mkDecision(2))
	r2.Record(mkDecision(3))
	s.Add("exp/a", r1)
	s.Add("exp/b", r2)
	if len(s.streams) != 2 {
		t.Fatalf("sink holds %d streams", len(s.streams))
	}
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.K != 2 || len(doc.Streams) != 2 {
		t.Fatalf("document: k=%d streams=%d", doc.K, len(doc.Streams))
	}
	if got := doc.Streams["exp/b"]; got.Policy != "b" || len(got.Decisions) != 2 {
		t.Fatalf("stream exp/b: %+v", got)
	}
}
