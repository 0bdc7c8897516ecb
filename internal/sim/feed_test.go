package sim

import (
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
	"unsafe"

	"lava/internal/cluster"
	"lava/internal/scheduler"
	"lava/internal/simtime"
	"lava/internal/trace"
	"lava/internal/workload"
)

// feedRecords generates a trace long enough that Run's producer is several
// batches ahead of the machine when a run fails early.
func feedRecords(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.PoolSpec{Name: "feed", Zone: "z1", Hosts: 32, TargetUtil: 0.6,
		Duration: 6 * simtime.Day, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if n := len(tr.Records); n < 10*feedBatchLen {
		t.Fatalf("%d records: the failure tests need at least %d", n, 10*feedBatchLen)
	}
	return tr
}

// checkJoined fails unless the goroutine count is back at base: Run must
// have joined its producer. A goroutine that has closed its last channel
// may still be on its way out, so the count gets a second to settle.
func checkJoined(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(time.Second); ; time.Sleep(time.Millisecond) {
		n := runtime.NumGoroutine()
		if n <= base {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Run, %d before: the producer was not joined", n, base)
		}
	}
}

// failingStream yields recs[:n] and then panics with pval, or, when pval is
// nil, ends with err.
type failingStream struct {
	recs []trace.Record
	n    int
	pval any
	err  error
}

func (s *failingStream) Next() (trace.Record, bool) {
	if s.n == 0 {
		if s.pval != nil {
			panic(s.pval)
		}
		return trace.Record{}, false
	}
	s.n--
	r := s.recs[0]
	s.recs = s.recs[1:]
	return r, true
}

func (s *failingStream) Err() error {
	if s.n == 0 {
		return s.err
	}
	return nil
}

// TestRunRaisesSourcePanic: a source that panics mid-run makes Run panic
// on the caller's goroutine with the same value, after the producer is
// joined.
func TestRunRaisesSourcePanic(t *testing.T) {
	tr := feedRecords(t)
	type boom struct{ at int }
	want := &boom{at: len(tr.Records) / 2}
	base := runtime.NumGoroutine()
	got := func() (r any) {
		defer func() { r = recover() }()
		_, _ = Run(Config{Trace: tr, Source: &failingStream{recs: tr.Records, n: want.at, pval: want},
			Policy: scheduler.NewWasteMin()})
		return nil
	}()
	if got != want {
		t.Fatalf("Run panicked with %v, want %v", got, want)
	}
	checkJoined(t, base)
}

// failingPolicy is a policy whose Schedule fails with err from its after-th
// call on.
type failingPolicy struct {
	scheduler.Policy
	after int
	err   error
}

func (p *failingPolicy) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	if p.after--; p.after < 0 {
		return nil, p.err
	}
	return p.Policy.Schedule(pool, vm, now)
}

// TestRunReturnsScheduleError: a policy error mid-run, one that is not
// ErrNoCapacity, ends Run with that error while the producer is batches
// ahead, and the producer is joined.
func TestRunReturnsScheduleError(t *testing.T) {
	tr := feedRecords(t)
	want := errors.New("schedule failed")
	base := runtime.NumGoroutine()
	_, err := Run(Config{Trace: tr, Policy: &failingPolicy{Policy: scheduler.NewWasteMin(), after: 100, err: want}})
	if !errors.Is(err, want) {
		t.Fatalf("Run = %v, want %v", err, want)
	}
	checkJoined(t, base)
}

// TestRunReportsSourceErrorAfterPrefix: a source whose Err is set mid-stream
// ends Run with a "sim: trace stream:" error wrapping it, after the machine
// applied exactly the events one goroutine reading the cursor and applying
// each event in turn applies, and the producer is joined.
func TestRunReportsSourceErrorAfterPrefix(t *testing.T) {
	tr := feedRecords(t)
	cut := len(tr.Records) / 2
	want := errors.New("source failed")
	src := func() trace.Stream { return &failingStream{recs: tr.Records, n: cut, err: want} }

	// The reference: the cursor and the machine on one goroutine.
	ref := &hookLog{Policy: scheduler.NewWasteMin()}
	m, err := NewMachine(Config{Trace: tr, Policy: ref})
	if err != nil {
		t.Fatal(err)
	}
	cur := trace.NewEventCursor(src())
	for ev, ok := cur.Next(); ok && ev.Time <= m.End(); ev, ok = cur.Next() {
		if err := m.apply(&ev); err != nil {
			t.Fatal(err)
		}
	}
	if !errors.Is(cur.Err(), want) {
		t.Fatalf("reference cursor ended with %v, want %v", cur.Err(), want)
	}

	base := runtime.NumGoroutine()
	got := &hookLog{Policy: scheduler.NewWasteMin()}
	_, err = Run(Config{Trace: tr, Source: src(), Policy: got})
	if !errors.Is(err, want) || !strings.HasPrefix(err.Error(), "sim: trace stream: ") {
		t.Fatalf("Run = %v, want a sim: trace stream: error wrapping %v", err, want)
	}
	if len(ref.calls) == 0 || !reflect.DeepEqual(got.calls, ref.calls) {
		t.Fatalf("Run applied %d hook calls, the reference %d: the prefixes differ", len(got.calls), len(ref.calls))
	}
	checkJoined(t, base)
}

// TestConcurrentRunsMatch: runs on several goroutines at once, which share
// the idle batches, each produce the result of a run alone.
func TestConcurrentRunsMatch(t *testing.T) {
	tr := feedRecords(t)
	want, err := Run(Config{Trace: tr, Policy: scheduler.NewWasteMin()})
	if err != nil {
		t.Fatal(err)
	}
	got := make([]*Result, 4)
	errs := make([]error, len(got))
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i], errs[i] = Run(Config{Trace: tr, Policy: scheduler.NewWasteMin()})
		}()
	}
	wg.Wait()
	for i, res := range got {
		if errs[i] != nil {
			t.Fatalf("run %d: %v", i, errs[i])
		}
		if res.Aggregates != want.Aggregates || !reflect.DeepEqual(res.Series, want.Series) {
			t.Fatalf("run %d differs from a run alone: %+v, want %+v", i, res.Aggregates, want.Aggregates)
		}
	}
}

// TestRunAllocatesNoBatch: back-to-back runs take their batches from the
// ones earlier runs left, so a run allocates none.
func TestRunAllocatesNoBatch(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own")
	}
	tr := &trace.Trace{Hosts: 1, HostCPU: 1000, HostMem: 1000, Horizon: time.Hour}
	run := func() {
		if _, err := Run(Config{Trace: tr, Policy: scheduler.NewWasteMin()}); err != nil {
			t.Fatal(err)
		}
	}
	run()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	before := ms.TotalAlloc
	run()
	runtime.ReadMemStats(&ms)
	batch := feedBatchLen * uint64(unsafe.Sizeof(trace.Event{}))
	if grew := ms.TotalAlloc - before; grew >= batch {
		t.Fatalf("a run of no events allocated %d bytes: a batch is %d", grew, batch)
	}
}
