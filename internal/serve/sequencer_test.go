package serve

import (
	"errors"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/sim"
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

// TestCloseWithTurnHolderBlocked is the deadlock trap: with one-slot queues
// and the event loop (a fleet: cell 0's) held inside an injector, a
// sequenced request takes its turn and blocks enqueueing while it holds the
// sequencer's lock, and more wait behind it. Close must stop the loops
// before it takes that lock, so every waiter is answered ErrClosed while
// the loop is still held, and Close returns once the loop lets go.
func TestCloseWithTurnHolderBlocked(t *testing.T) {
	for _, fleet := range []bool{false, true} {
		name := map[bool]string{false: "server", true: "fleet"}[fleet]
		t.Run(name, func(t *testing.T) {
			held, entered := make(chan struct{}), make(chan struct{}, 1)
			release := sync.OnceFunc(func() { close(held) })
			defer release()
			hold := injectFunc(func(time.Duration) {
				select {
				case entered <- struct{}{}:
				default:
				}
				<-held
			})
			cfg := Config{PoolName: "trap", Hosts: 8, HostShape: wholeHost, QueueDepth: 1}
			var (
				b     placer
				order *sequencer
				queue chan *request // the held loop's
				stop  func()
			)
			if fleet {
				f, err := NewFleet(FleetConfig{Config: cfg, Cells: 2, Router: "round-robin",
					NewPolicy: func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil },
					NewInjectors: func(c int) []sim.Injector {
						if c == 0 {
							return []sim.Injector{hold}
						}
						return nil
					}})
				if err != nil {
					t.Fatal(err)
				}
				// Every placement routes to the held cell.
				if _, err := f.Do(Op{Kind: OpDrainCell, Cell: 1}, 0); err != nil {
					t.Fatal(err)
				}
				b, order, queue, stop = f, f.order, f.cells[0].reqs, f.Close
			} else {
				cfg.Policy, cfg.Injectors = scheduler.NewBestFit(), []sim.Injector{hold}
				s, err := New(cfg)
				if err != nil {
					t.Fatal(err)
				}
				b, order, queue, stop = s, s.order, s.reqs, s.Close
			}

			errs := make(chan error, 5)
			go func() { // seq 1: the loop takes the tick and is held inside it
				_, err := b.Tick(10*time.Minute, 1)
				errs <- err
			}()
			select {
			case <-entered:
			case <-time.After(5 * time.Second):
				t.Fatal("the loop never reached the injector")
			}
			place := func(seq uint64) {
				go func() {
					_, err := placeSeq(b, seq)
					errs <- err
				}()
			}
			// until polls cond under the sequencer's lock, or reports false
			// while someone holds it.
			until := func(what string, cond func() bool) {
				t.Helper()
				for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
					if order.mu.TryLock() {
						ok := cond()
						order.mu.Unlock()
						if ok {
							return
						}
					}
					if time.Now().After(deadline) {
						t.Fatal(what)
					}
				}
			}
			place(2) // fills the one-slot queue and leaves its turn
			until("seq 2 never left its turn", func() bool { return len(queue) == 1 && order.next == 3 })
			place(3) // takes its turn and blocks on the full queue, holding the lock
			for deadline := time.Now().Add(5 * time.Second); order.mu.TryLock(); time.Sleep(time.Millisecond) {
				order.mu.Unlock()
				if time.Now().After(deadline) {
					t.Fatal("seq 3 never took its turn")
				}
			}
			place(4)
			place(0)

			closed := make(chan struct{})
			go func() {
				stop()
				close(closed)
			}()
			for i := 0; i < cap(errs); i++ {
				select {
				case err := <-errs:
					if !errors.Is(err, ErrClosed) {
						t.Fatalf("waiter answered %v, want ErrClosed", err)
					}
				case <-time.After(5 * time.Second):
					t.Fatalf("Close answered %d of %d waiters: it waits on the turn-holder's lock", i, cap(errs))
				}
			}
			release()
			select {
			case <-closed:
			case <-time.After(5 * time.Second):
				t.Fatal("Close did not return after the loop let go")
			}
		})
	}
}
