package serve

import (
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/slo"
	"lava/internal/trace"
)

// seqTarget is one backend of the sequencing contract: a Server over its
// client stream, or a Fleet whose front door runs the same sequencer.
type seqTarget struct {
	placer
	order *sequencer
	drain func() (placements int, err error)
	close func()
	// host is where the i-th applied whole-host placement lands.
	host func(i int) cluster.HostID
}

var wholeHost = resources.Vector{CPUMilli: 1000, MemoryMB: 1000}

// seqTargets builds a fresh Server and a fresh 2-cell round-robin Fleet of
// best-fit pools, hosts wide each.
func seqTargets(t *testing.T, hosts int) map[string]*seqTarget {
	t.Helper()
	s, err := New(Config{PoolName: "seq", Hosts: hosts, HostShape: wholeHost, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	f := bestFitFleet(t, hosts, 2, "round-robin", wholeHost)
	return map[string]*seqTarget{
		"server": {placer: s, order: s.order, close: s.Close,
			drain: func() (int, error) {
				res, err := s.Drain()
				if err != nil {
					return 0, err
				}
				return res.Placements, nil
			},
			host: func(i int) cluster.HostID { return cluster.HostID(i - 1) }},
		"fleet": {placer: f, order: f.order, close: f.Close,
			drain: func() (int, error) {
				roll, err := f.Drain()
				if err != nil {
					return 0, err
				}
				return roll.Placements, nil
			},
			// Round-robin over two cells, each numbering its hosts from 0.
			host: func(i int) cluster.HostID { return cluster.HostID((i - 1) / 2) }},
	}
}

// placeSeq places whole-host VM seq under sequence number seq.
func placeSeq(b placer, seq uint64) (cluster.HostID, error) {
	rec := trace.Record{ID: cluster.VMID(seq + 1000), Lifetime: time.Hour, Shape: wholeHost}
	h, placed, err := b.Place(rec, time.Duration(seq)*time.Second, seq)
	if err == nil && !placed {
		err = errors.New("not placed")
	}
	return h, err
}

// waitParked polls until n requests are parked at q.
func waitParked(t *testing.T, q *sequencer, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); q.pending() != n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d requests parked, want %d", q.pending(), n)
		}
	}
}

// enterBelowFastPath runs the sequencer's locked entry the way a request
// that passed the draining fast path before the drain started reaches it.
func enterBelowFastPath(t *testing.T, q *sequencer, seq uint64) error {
	t.Helper()
	done := make(chan error, 1)
	go func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		done <- q.enterLocked(seq)
	}()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatalf("seq %d parked forever", seq)
		return nil
	}
}

// TestSequencerContract pins the one ordering contract a Server and a Fleet
// share, row by row against both: concurrent sequenced requests apply in
// sequence order, a stale sequence number is refused, a duplicate of a
// parked one is refused while the original stays parked, a drain flushes
// the gaps in ascending order and then refuses everything, a retry behind
// the flushed cursor reads as draining (not stale), and Close answers every
// parked waiter.
func TestSequencerContract(t *testing.T) {
	rows := []struct {
		name string
		run  func(t *testing.T, b *seqTarget)
	}{
		{"shuffled concurrent seqs apply in order", func(t *testing.T, b *seqTarget) {
			const n = 8
			hosts := make([]cluster.HostID, n+1)
			var wg sync.WaitGroup
			for _, i := range rand.New(rand.NewSource(3)).Perm(n) {
				seq := uint64(i + 1)
				wg.Add(1)
				go func() {
					defer wg.Done()
					h, err := placeSeq(b, seq)
					if err != nil {
						t.Errorf("seq %d: %v", seq, err)
					}
					hosts[seq] = h
				}()
			}
			wg.Wait()
			for i := 1; i <= n; i++ {
				if hosts[i] != b.host(i) {
					t.Fatalf("seq %d on host %d, want %d: not applied in sequence order", i, hosts[i], b.host(i))
				}
			}
		}},
		{"stale seq refused", func(t *testing.T, b *seqTarget) {
			if _, err := placeSeq(b, 1); err != nil {
				t.Fatal(err)
			}
			if _, err := placeSeq(b, 1); !errors.Is(err, errStaleSeq) {
				t.Fatalf("replayed seq 1: %v, want errStaleSeq", err)
			}
		}},
		{"duplicate of a parked seq refused", func(t *testing.T, b *seqTarget) {
			first := make(chan error, 1)
			go func() {
				_, err := placeSeq(b, 3)
				first <- err
			}()
			waitParked(t, b.order, 1)
			if _, err := placeSeq(b, 3); !errors.Is(err, errDupSeq) {
				t.Fatalf("second seq 3: %v, want errDupSeq", err)
			}
			if n := b.order.pending(); n != 1 {
				t.Fatalf("%d parked after the duplicate, want the original only", n)
			}
			if placed, err := b.drain(); err != nil || placed != 1 {
				t.Fatalf("drain = (%d, %v), want the original placed", placed, err)
			}
			if err := <-first; err != nil {
				t.Fatalf("original seq 3: %v", err)
			}
		}},
		{"drain flushes gaps in ascending order, then refuses", func(t *testing.T, b *seqTarget) {
			seqs := []uint64{2, 4, 5}
			hosts := make([]cluster.HostID, len(seqs))
			var wg sync.WaitGroup
			for i, q := range seqs {
				wg.Add(1)
				go func() {
					defer wg.Done()
					h, err := placeSeq(b, q)
					if err != nil {
						t.Errorf("seq %d: %v", q, err)
					}
					hosts[i] = h
				}()
			}
			waitParked(t, b.order, len(seqs))
			placed, err := b.drain()
			if err != nil || placed != len(seqs) {
				t.Fatalf("drain = (%d, %v), want %d flushed", placed, err, len(seqs))
			}
			wg.Wait()
			for i, q := range seqs {
				if hosts[i] != b.host(i+1) {
					t.Fatalf("seq %d on host %d, want %d: flush out of order", q, hosts[i], b.host(i+1))
				}
			}
			if b.order.next != 6 {
				t.Fatalf("cursor at %d after the flush, want 6", b.order.next)
			}
			for _, q := range []uint64{0, 3, 6} {
				if _, err := placeSeq(b, q); !errors.Is(err, ErrDraining) {
					t.Fatalf("post-flush seq %d: %v, want ErrDraining", q, err)
				}
				if err := enterBelowFastPath(t, b.order, q); !errors.Is(err, ErrDraining) {
					t.Fatalf("post-flush seq %d below the fast path: %v, want ErrDraining", q, err)
				}
			}
		}},
		{"in-gap retry mid-drain reads draining", func(t *testing.T, b *seqTarget) {
			for q := uint64(1); q <= 2; q++ {
				if _, err := placeSeq(b, q); err != nil {
					t.Fatal(err)
				}
			}
			if err := enterBelowFastPath(t, b.order, 1); !errors.Is(err, errStaleSeq) {
				t.Fatalf("behind-cursor seq before the drain: %v, want errStaleSeq", err)
			}
			// A flush in progress has set draining and may have jumped the
			// cursor past the retry's slot: it was never processed.
			b.order.draining.Store(true)
			if err := enterBelowFastPath(t, b.order, 1); !errors.Is(err, ErrDraining) {
				t.Fatalf("behind-cursor seq mid-drain: %v, want ErrDraining", err)
			}
		}},
		{"close answers every parked waiter", func(t *testing.T, b *seqTarget) {
			done := make(chan error, 2)
			for _, q := range []uint64{3, 5} {
				go func() {
					_, err := placeSeq(b, q)
					done <- err
				}()
			}
			waitParked(t, b.order, 2)
			b.close()
			for i := 0; i < 2; i++ {
				select {
				case err := <-done:
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("parked waiter: %v, want ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatal("Close leaked a parked waiter")
				}
			}
			if _, err := placeSeq(b, 0); !errors.Is(err, ErrClosed) {
				t.Fatalf("post-close place: %v, want ErrClosed", err)
			}
		}},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			for name, b := range seqTargets(t, 8) {
				t.Run(name, func(t *testing.T) {
					defer b.close()
					row.run(t, b)
				})
			}
		})
	}
}

// TestFleetUnsequencedAfterDrainRejected is the seq-0 drain race: an
// unsequenced op that got past the draining fast path before Drain set it
// must be refused at the front door, before plan charges the admission gate
// — the drain report's slo block was built from counters that are final.
func TestFleetUnsequencedAfterDrainRejected(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Config:    Config{PoolName: "race", Hosts: 4, HostShape: wholeHost, SLO: &slo.Config{Track: true}},
		Cells:     2,
		Router:    "round-robin",
		NewPolicy: func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	counts := func() map[string]*slo.Counts {
		f.mu.Lock()
		defer f.mu.Unlock()
		return f.topo.gate.Counts()
	}
	before := counts()
	f.order.draining.Store(false) // the op passed the fast path before Drain set it
	_, err = f.Do(Op{Kind: OpPlace, Rec: trace.Record{ID: 7, Lifetime: time.Hour, Shape: wholeHost}}, 0)
	f.order.draining.Store(true)
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("post-flush unsequenced op: %v, want ErrDraining", err)
	}
	if after := counts(); !reflect.DeepEqual(after, before) {
		t.Fatalf("post-flush op charged the gate: %v -> %v", before["standard"], after["standard"])
	}
}

// stallPolicy is best-fit that holds the apply of VM 1 inside Schedule until
// release is closed, with its cell's lock held.
type stallPolicy struct {
	scheduler.Policy
	entered, release chan struct{}
}

func (p *stallPolicy) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	if vm.ID == 1 {
		close(p.entered)
		<-p.release
	}
	return p.Policy.Schedule(pool, vm, now)
}

func newStallPolicy() *stallPolicy {
	return &stallPolicy{Policy: scheduler.NewBestFit(), entered: make(chan struct{}), release: make(chan struct{})}
}

// waitGoroutines polls until at most n goroutines run.
func waitGoroutines(t *testing.T, n int) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > n; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines, want at most the %d before the test", runtime.NumGoroutine(), n)
		}
	}
}

// TestNoGoroutines pins that a Server and a 4-cell Fleet run on their
// callers' goroutines: building them starts none.
func TestNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	s, err := New(Config{PoolName: "idle", Hosts: 4, HostShape: wholeHost, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f := bestFitFleet(t, 8, 4, "round-robin", wholeHost)
	defer f.Close()
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("New and NewFleet started %d goroutines", after-before)
	}
}

// TestCloseWhileApplying holds an apply inside the policy (a fleet: cell 0's)
// with a sequenced request parked behind it. Close must wait for that apply
// and no longer: the held request completes, the parked one and every later
// request are answered ErrClosed, and no goroutine is left behind.
func TestCloseWhileApplying(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		t.Run(map[bool]string{false: "server", true: "fleet"}[fleet], func(t *testing.T) {
			baseline := runtime.NumGoroutine()
			pol := newStallPolicy()
			var (
				b      placer
				order  *sequencer // where seq 3 parks
				stop   func()
				stats  func() error
				placed = make(chan error, 1)
				parked = make(chan error, 1)
			)
			if fleet {
				f, err := NewFleet(FleetConfig{Config: Config{PoolName: "close", Hosts: 8, HostShape: wholeHost},
					Cells: 2, Router: "round-robin",
					NewPolicy: func(c int) (scheduler.Policy, error) {
						if c == 0 {
							return pol, nil
						}
						return scheduler.NewBestFit(), nil
					}})
				if err != nil {
					t.Fatal(err)
				}
				b, order, stop = f, f.order, f.Close
				stats = func() error { _, err := f.Stats(); return err }
			} else {
				s, err := New(Config{PoolName: "close", Hosts: 8, HostShape: wholeHost, Policy: pol})
				if err != nil {
					t.Fatal(err)
				}
				b, order, stop = s, s.order, s.Close
				stats = func() error { _, err := s.Stats(); return err }
			}
			go func() { // seq 3 parks behind the missing seq 2
				_, err := placeSeq(b, 3)
				parked <- err
			}()
			waitParked(t, order, 1)
			go func() { // seq 1 (VM 1; a fleet routes it to cell 0) is held inside its apply
				_, _, err := b.Place(trace.Record{ID: 1, Lifetime: time.Hour, Shape: wholeHost}, 0, 1)
				placed <- err
			}()
			<-pol.entered

			closed := make(chan struct{})
			go func() {
				stop()
				close(closed)
			}()
			select {
			case <-closed:
				t.Fatal("Close returned while an apply held the machine")
			case <-time.After(50 * time.Millisecond):
			}
			close(pol.release)
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return after the apply finished")
			}
			if err := <-placed; err != nil {
				t.Fatalf("the held apply: %v, want it completed", err)
			}
			if err := <-parked; !errors.Is(err, ErrClosed) {
				t.Fatalf("parked seq 3: %v, want ErrClosed", err)
			}
			for _, q := range []uint64{0, 2} {
				if _, err := placeSeq(b, q); !errors.Is(err, ErrClosed) {
					t.Fatalf("seq %d after Close: %v, want ErrClosed", q, err)
				}
			}
			if err := stats(); !errors.Is(err, ErrClosed) {
				t.Fatalf("stats after Close: %v, want ErrClosed", err)
			}
			waitGoroutines(t, baseline)
		})
	}
}

// panicPolicy is best-fit whose Schedule panics for VM 13.
type panicPolicy struct{ scheduler.Policy }

func (p panicPolicy) Schedule(pool *cluster.Pool, vm *cluster.VM, now time.Duration) (*cluster.Host, error) {
	if vm.ID == 13 {
		panic("scorer bug")
	}
	return p.Policy.Schedule(pool, vm, now)
}

// TestPanickingApplyClosesItsServer drives a panicking scorer over HTTP. The
// panicking request is answered 500, its server (a fleet: only the cell it
// was routed to) closes with its lock released, and every request parked
// at it or sent to it later is answered 503 — while a fleet's other cell
// keeps placing.
func TestPanickingApplyClosesItsServer(t *testing.T) {
	// post places VM id under seq and returns the status (0: no answer).
	post := func(t *testing.T, url string, seq, id int) int {
		body := fmt.Sprintf(`{"seq":%d,"record":{"id":%d,"lifetime_ns":3600000000000,"shape":{"CPUMilli":1000,"MemoryMB":1000}}}`, seq, id)
		resp, err := http.Post(url+"/place", "application/json", strings.NewReader(body))
		if err != nil {
			t.Error(err)
			return 0
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		return resp.StatusCode
	}
	expect := func(t *testing.T, what string, got, want int) {
		t.Helper()
		if got != want {
			t.Fatalf("%s: HTTP %d, want %d", what, got, want)
		}
	}

	t.Run("server", func(t *testing.T) {
		s, err := New(Config{PoolName: "panic", Hosts: 4, HostShape: wholeHost, Policy: panicPolicy{scheduler.NewBestFit()}})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		hs := httptest.NewServer(s.Handler())
		defer hs.Close()
		expect(t, "seq 1", post(t, hs.URL, 1, 1), 200)
		parked := make(chan int, 1)
		go func() { parked <- post(t, hs.URL, 4, 4) }()
		waitParked(t, s.order, 1)
		expect(t, "seq 2, the panicking VM", post(t, hs.URL, 2, 13), 500)
		expect(t, "parked seq 4", <-parked, 503)
		expect(t, "seq 3 after the panic", post(t, hs.URL, 3, 3), 503)
		resp, err := http.Get(hs.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		expect(t, "stats after the panic", resp.StatusCode, 503)
	})

	t.Run("fleet", func(t *testing.T) {
		f, err := NewFleet(FleetConfig{Config: Config{PoolName: "panic", Hosts: 8, HostShape: wholeHost},
			Cells: 2, Router: "round-robin",
			NewPolicy: func(int) (scheduler.Policy, error) { return panicPolicy{scheduler.NewBestFit()}, nil }})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		hs := httptest.NewServer(f.Handler())
		defer hs.Close()
		// Round-robin: odd sequence numbers land in cell 0, even in cell 1.
		expect(t, "seq 1 in cell 0", post(t, hs.URL, 1, 1), 200)
		expect(t, "seq 2, the panicking VM in cell 1", post(t, hs.URL, 2, 13), 500)
		for seq := 3; seq <= 6; seq++ {
			want := map[bool]int{true: 200, false: 503}[seq%2 == 1]
			expect(t, fmt.Sprintf("seq %d after the panic", seq), post(t, hs.URL, seq, seq), want)
		}
		if !f.cells[1].order.closed || f.cells[0].order.closed {
			t.Fatal("the panic closed the wrong cells")
		}
	})
}
