package trace

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"lava/internal/features"
	"lava/internal/resources"
)

func sample() *Trace {
	return &Trace{
		PoolName: "p", Hosts: 4,
		HostCPU: 64000, HostMem: 262144, HostSSD: 3000,
		WarmUp: 2 * time.Hour, Horizon: 10 * time.Hour,
		Records: []Record{
			{ID: 1, Arrival: 0, Lifetime: 2 * time.Hour, Shape: resources.Cores(4, 16384, 0),
				Feat: features.Features{Zone: "z", VMCategory: "c"}},
			{ID: 2, Arrival: time.Hour, Lifetime: 30 * time.Minute, Shape: resources.Cores(2, 8192, 0)},
			{ID: 3, Arrival: time.Hour, Lifetime: 8 * time.Hour, Shape: resources.Cores(8, 32768, 375)},
		},
	}
}

func TestValidateOK(t *testing.T) {
	if err := sample().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
	}{
		{"duplicate id", func(tr *Trace) { tr.Records[1].ID = 1 }},
		{"negative arrival", func(tr *Trace) { tr.Records[0].Arrival = -time.Hour }},
		{"zero lifetime", func(tr *Trace) { tr.Records[0].Lifetime = 0 }},
		{"zero shape", func(tr *Trace) { tr.Records[0].Shape = resources.Vector{} }},
		{"oversized shape", func(tr *Trace) { tr.Records[0].Shape = resources.Cores(100, 1, 0) }},
		{"exit overflows", func(tr *Trace) { tr.Records[1].Lifetime = math.MaxInt64 - 10 }},
		{"exit overflows by one", func(tr *Trace) { tr.Records[1].Lifetime = math.MaxInt64 - tr.Records[1].Arrival + 1 }},
		{"exit overflows at arrival 1", func(tr *Trace) { tr.Records[0].Arrival, tr.Records[0].Lifetime = 1, math.MaxInt64 }},
	}
	for _, c := range cases {
		tr := sample()
		c.mutate(tr)
		if err := tr.Validate(); err == nil {
			t.Errorf("%s: want error", c.name)
		} else if !strings.Contains(err.Error(), "trace:") {
			t.Errorf("%s: error %q not namespaced", c.name, err)
		}
	}
	// An exit at exactly the last representable instant is legal, and an
	// overflow is refused naming the VM.
	tr := sample()
	tr.Records[1].Lifetime = math.MaxInt64 - tr.Records[1].Arrival
	if err := tr.Validate(); err != nil {
		t.Errorf("exit at MaxInt64: %v", err)
	}
	tr.Records[1].Lifetime++
	if err := tr.Validate(); err == nil || !strings.Contains(err.Error(), "vm 2 exit time overflows") {
		t.Errorf("exit past MaxInt64: error %v, want one naming vm 2", err)
	}
}

func TestSortAndDuration(t *testing.T) {
	tr := sample()
	// Shuffle arrival order.
	tr.Records[0], tr.Records[2] = tr.Records[2], tr.Records[0]
	tr.Sort()
	if tr.Records[0].ID != 1 {
		t.Fatalf("sort wrong: first = %d", tr.Records[0].ID)
	}
	if got := tr.Duration(); got != 9*time.Hour {
		t.Fatalf("Duration = %v, want 9h (vm3 exit)", got)
	}
	if got := tr.End(); got != 10*time.Hour {
		t.Fatalf("End = %v, want horizon", got)
	}
	tr.Horizon = 0
	if got := tr.End(); got != 9*time.Hour {
		t.Fatalf("End without horizon = %v", got)
	}
}

func TestEventsInterleaving(t *testing.T) {
	tr := sample()
	evs := tr.Events()
	if len(evs) != 6 {
		t.Fatalf("events = %d", len(evs))
	}
	// VM2 exits at 1.5h; VM1 exits at 2h.
	var order []string
	for _, e := range evs {
		order = append(order, e.Kind.String())
	}
	want := []string{"create", "create", "create", "exit", "exit", "exit"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("event order = %v", order)
		}
	}
}

func TestExitBeforeCreateAtSameInstant(t *testing.T) {
	tr := &Trace{
		Hosts: 1, HostCPU: 64000, HostMem: 262144,
		Records: []Record{
			{ID: 1, Arrival: 0, Lifetime: time.Hour, Shape: resources.Cores(1, 4096, 0)},
			{ID: 2, Arrival: time.Hour, Lifetime: time.Hour, Shape: resources.Cores(1, 4096, 0)},
		},
	}
	evs := tr.Events()
	// At t=1h: VM1 exit must precede VM2 create.
	if evs[1].Kind != EventExit || evs[1].Rec.ID != 1 {
		t.Fatalf("second event = %+v, want exit of vm1", evs[1])
	}
	if evs[2].Kind != EventCreate || evs[2].Rec.ID != 2 {
		t.Fatalf("third event = %+v, want create of vm2", evs[2])
	}
}

func TestRoundTripPreservesEverything(t *testing.T) {
	tr := sample()
	var buf bytes.Buffer
	if err := tr.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.WarmUp != tr.WarmUp || got.Horizon != tr.Horizon || got.PoolName != tr.PoolName {
		t.Fatalf("header mismatch: %+v", got)
	}
	for i := range tr.Records {
		if got.Records[i] != tr.Records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("garbage must fail")
	}
	// Header promising more records than present.
	var buf bytes.Buffer
	buf.WriteString(`{"pool":"p","hosts":1,"records":5}` + "\n")
	if _, err := Read(&buf); err == nil {
		t.Fatal("record count mismatch must fail")
	}
}

// FuzzReadTrace: whatever the bytes, Read followed by Validate — the
// loader behind ReadFile, which every command uses — never panics, and a
// trace it accepts has every exit at or after its arrival and replays as
// two events per record whose times never decrease.
func FuzzReadTrace(f *testing.F) {
	var buf bytes.Buffer
	if err := sample().Write(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	const header = `{"pool":"p","hosts":1,"host_cpu_milli":64000,"host_mem_mb":262144,"records":%d}` + "\n"
	const rec = `{"id":%d,"arrival_ns":%d,"lifetime_ns":%d,"shape":{"CPUMilli":1000,"MemoryMB":1024}}` + "\n"
	f.Add(fmt.Appendf(nil, header+rec+rec, 2, 1, int64(time.Hour), int64(math.MaxInt64-10), 2, 0, int64(time.Hour)))
	f.Add(fmt.Appendf(nil, header, -1))
	f.Fuzz(func(t *testing.T, doc []byte) {
		tr, err := Read(bytes.NewReader(doc))
		if err != nil || tr.Validate() != nil {
			return
		}
		for _, r := range tr.Records {
			if r.Exit() < r.Arrival {
				t.Fatalf("vm %d exits at %v, before its arrival %v", r.ID, r.Exit(), r.Arrival)
			}
		}
		c := NewEventCursor(tr.Stream())
		n, last := 0, time.Duration(math.MinInt64)
		for ev, ok := c.Next(); ok; ev, ok = c.Next() {
			if ev.Time < last {
				t.Fatalf("event %d at %v after one at %v", n, ev.Time, last)
			}
			n, last = n+1, ev.Time
		}
		if c.Err() != nil || n != 2*len(tr.Records) {
			t.Fatalf("cursor gave %d events for %d records (err %v)", n, len(tr.Records), c.Err())
		}
	})
}

func TestHostShape(t *testing.T) {
	tr := sample()
	hs := tr.HostShape()
	if hs.CPUMilli != 64000 || hs.MemoryMB != 262144 || hs.SSDGB != 3000 {
		t.Fatalf("host shape = %v", hs)
	}
}

func TestEventKindString(t *testing.T) {
	if EventExit.String() != "exit" || EventCreate.String() != "create" {
		t.Fatal("kind strings wrong")
	}
}
