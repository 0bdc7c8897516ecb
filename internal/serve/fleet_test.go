package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"lava/internal/cell"
	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/trace"
)

// bestFitFleet builds a small fleet of best-fit cells for the mechanics
// tests.
func bestFitFleet(t *testing.T, hosts, cells int, router string, shape resources.Vector) *Fleet {
	t.Helper()
	f, err := NewFleet(FleetConfig{
		Config:    Config{PoolName: "fleet-test", Hosts: hosts, HostShape: shape},
		Cells:     cells,
		Router:    router,
		NewPolicy: func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// TestFleetReplayParity is the federation's headline contract: replaying a
// trace through the fleet's HTTP API with concurrent sequence-numbered
// clients produces per-cell final aggregates
// byte-identical to sharding the same trace offline with cell.PlanCells and
// running every shard through sim.Run, for every router kind (the ledger
// PlanCells shards through is itself pinned to the three pre-ledger routers
// by internal/cell's TestShardMembershipPinned).
func TestFleetReplayParity(t *testing.T) {
	const cells = 4
	tr := smallTrace(t, 16, 3, 7)
	tr.Sort() // canonical record order, the sharding precondition
	pred, err := model.TrainDistTable(tr.Records)
	if err != nil {
		t.Fatal(err)
	}

	for _, router := range cell.RouterKinds() {
		t.Run(router, func(t *testing.T) {
			// Offline reference: shard, then replay every cell.
			plan, err := cell.PlanCells(tr, router, cells)
			if err != nil {
				t.Fatal(err)
			}
			offline := make([]*sim.Result, cells)
			for i, ct := range plan.Cells {
				res, err := sim.Run(sim.Config{Trace: ct, Policy: scheduler.NewLAVA(pred, time.Minute)})
				if err != nil {
					t.Fatalf("offline cell %d: %v", i, err)
				}
				offline[i] = res
			}
			offRoll, err := cell.RollUp(plan.Router, plan.Hosts, offline)
			if err != nil {
				t.Fatal(err)
			}

			// Served federation: same trace, concurrency 8.
			memo := Memoize(pred, 0)
			fc := FleetFromTrace(tr)
			fc.Cells = cells
			fc.Router = router
			fc.Memo = memo
			fc.NewPolicy = func(int) (scheduler.Policy, error) {
				return scheduler.NewLAVA(memo, time.Minute), nil
			}
			fleet, err := NewFleet(fc)
			if err != nil {
				t.Fatal(err)
			}
			defer fleet.Close()
			hs := httptest.NewServer(fleet.Handler())
			defer hs.Close()

			client := &Client{Base: hs.URL}
			rep, err := client.Replay(context.Background(), tr, ReplayOptions{Concurrency: 8})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Final == nil {
				t.Fatal("fleet replay returned no drain report")
			}
			fd := rep.Final
			if len(fd.Cells) != cells {
				t.Fatalf("drain reported %d cells, want %d", len(fd.Cells), cells)
			}

			// Per-cell byte parity: metrics, identity, series length.
			for i := range fd.Cells {
				want, err := json.Marshal(runner.MetricsOf(offline[i]))
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(fd.Cells[i].Metrics)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("cell %d diverged from offline shard:\nserved:  %s\noffline: %s", i, got, want)
				}
				if fd.Cells[i].Pool != offline[i].PoolName {
					t.Fatalf("cell %d pool %q != offline %q", i, fd.Cells[i].Pool, offline[i].PoolName)
				}
				if fd.Cells[i].SeriesLen != offline[i].Series.Len() {
					t.Fatalf("cell %d series length %d != offline %d", i, fd.Cells[i].SeriesLen, offline[i].Series.Len())
				}
			}

			// Fleet-level rollup parity against cell.RollUp over the
			// offline results.
			wantRoll, err := json.Marshal(&offRoll.Aggregates)
			if err != nil {
				t.Fatal(err)
			}
			gotRoll, err := json.Marshal(fd.Metrics)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotRoll, wantRoll) {
				t.Fatalf("fleet rollup diverged:\nserved:  %s\noffline: %s", gotRoll, wantRoll)
			}
			if fd.UtilSpread != offRoll.UtilSpread {
				t.Fatalf("util spread %v != offline %v", fd.UtilSpread, offRoll.UtilSpread)
			}
			if fd.Router != router {
				t.Fatalf("drain router %q, want %q", fd.Router, router)
			}
		})
	}
}

// TestFleetSequencedRoutingOrder drives a round-robin fleet with shuffled
// concurrent sequenced placements of whole-host VMs: the sequencer must
// route seq i to cell (i-1) mod cells and each cell must apply its stream
// in order, which best-fit exposes as consecutive host IDs per cell.
func TestFleetSequencedRoutingOrder(t *testing.T) {
	const (
		cells = 4
		vms   = 16
	)
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	f := bestFitFleet(t, vms, cells, "round-robin", shape)
	defer f.Close()

	hosts := make([]cluster.HostID, vms)
	var wg sync.WaitGroup
	for i := vms - 1; i >= 0; i-- { // reverse submission order
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := trace.Record{ID: cluster.VMID(i + 1), Lifetime: time.Hour, Shape: shape}
			h, placed, err := f.Place(rec, time.Duration(i)*time.Second, uint64(i+1))
			if err != nil || !placed {
				t.Errorf("seq %d: placed=%v err=%v", i+1, placed, err)
				return
			}
			hosts[i] = h
		}()
	}
	wg.Wait()

	// Cell host ID ranges: SplitHosts(16, 4) = [4 4 4 4], and every cell
	// numbers its own hosts from 0. Seqs 1,5,9,13 land on cell 0 in that
	// order → its hosts 0,1,2,3; same for the other cells.
	for i := range hosts {
		want := cluster.HostID(i / cells) // i-th visit to the cell
		if hosts[i] != want {
			t.Fatalf("seq %d landed on host %d of its cell, want %d", i+1, hosts[i], want)
		}
	}

	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Placements != vms || st.VMs != vms {
		t.Fatalf("fleet stats lost placements: %+v", st)
	}
	if st.CellStats[0].Placements != vms/cells {
		t.Fatalf("cell 0 holds %d placements, want %d", st.CellStats[0].Placements, vms/cells)
	}
}

// TestFleetLiveLeastUtilized pins the live router: with equal cell weights
// it spreads whole-host sequenced placements evenly (lowest committed CPU,
// ties to the lowest index), and exits release their commitment so the
// drained cell wins the next arrival.
func TestFleetLiveLeastUtilized(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	f := bestFitFleet(t, 8, 4, "least-utilized", shape)
	defer f.Close()

	seq := uint64(0)
	place := func(id int, cpu int64) {
		t.Helper()
		seq++
		rec := trace.Record{ID: cluster.VMID(id), Lifetime: time.Hour,
			Shape: resources.Vector{CPUMilli: cpu, MemoryMB: 100, SSDGB: 0}}
		if _, placed, err := f.Place(rec, time.Duration(seq)*time.Second, seq); err != nil || !placed {
			t.Fatalf("place %d: placed=%v err=%v", id, placed, err)
		}
	}
	// Four arrivals with descending CPU spread across all four cells.
	place(1, 800) // cell 0 (all zero, lowest index)
	place(2, 400) // cell 1
	place(3, 200) // cell 2
	place(4, 100) // cell 3
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for c, cs := range st.CellStats {
		if cs.Placements != 1 {
			t.Fatalf("cell %d has %d placements, want 1 each: %+v", c, cs.Placements, st)
		}
	}
	// VM 1 exits; cell 0's ledger drops to zero, so it must win the next
	// arrival over the still-committed cells.
	seq++
	if removed, err := f.ExitVM(1, time.Duration(seq)*time.Second, seq); err != nil || !removed {
		t.Fatalf("exit: removed=%v err=%v", removed, err)
	}
	place(5, 50)
	st, err = f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellStats[0].Placements != 2 {
		t.Fatalf("freed cell 0 did not win the next arrival: %+v", st.CellStats)
	}
}

// TestFleetExitFollowsVM checks exit routing: an exit must land on the cell
// that admitted the VM, and an exit for a VM the fleet never saw reports
// removed=false without consuming a cell event.
func TestFleetExitFollowsVM(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	f := bestFitFleet(t, 4, 2, "round-robin", shape)
	defer f.Close()

	if _, placed, err := f.Place(trace.Record{ID: 1, Lifetime: time.Hour, Shape: shape}, 0, 1); err != nil || !placed {
		t.Fatalf("place: placed=%v err=%v", placed, err)
	}
	if removed, err := f.ExitVM(99, time.Second, 2); err != nil || removed {
		t.Fatalf("unknown vm: removed=%v err=%v", removed, err)
	}
	if removed, err := f.ExitVM(1, 2*time.Second, 3); err != nil || !removed {
		t.Fatalf("routed exit: removed=%v err=%v", removed, err)
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Placements != 1 || st.Exits != 1 || st.VMs != 0 {
		t.Fatalf("exit not routed to its cell: %+v", st)
	}
}

// TestFleetTickFanOut checks that a sequenced tick advances every cell.
func TestFleetTickFanOut(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	f := bestFitFleet(t, 4, 2, "feature-hash", shape)
	defer f.Close()

	now, err := f.Tick(3*time.Hour, 1)
	if err != nil {
		t.Fatal(err)
	}
	if now != 3*time.Hour {
		t.Fatalf("tick reached %v", now)
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	for c, cs := range st.CellStats {
		if cs.NowNS != 3*time.Hour {
			t.Fatalf("cell %d clock at %v after fan-out tick", c, cs.NowNS)
		}
	}
	snap, err := f.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Cells) != 2 || snap.Cells[0].Time != 3*time.Hour || snap.Cells[1].Time != 3*time.Hour {
		t.Fatalf("snapshot fan-out wrong: %+v", snap)
	}
}

type injectFunc func(now time.Duration)

func (fn injectFunc) Inject(_ *sim.Control, now time.Duration) { fn(now) }

// TestFleetTickDoesNotSerializeCells holds cell 0 inside its tick and
// requires the rest of the fleet to carry on: the same sequenced tick must
// already have run in cell 1, and a later sequenced placement for cell 1
// must be answered, both while cell 0 is still busy. An executor that sends
// cell k its step only after cells 0..k-1 answered fails both — cell 1's
// tick is unsent, and the placement waits at the front door behind it.
func TestFleetTickDoesNotSerializeCells(t *testing.T) {
	held := make(chan struct{})
	release := sync.OnceFunc(func() { close(held) })
	cell1Ticked := make(chan struct{})
	var once sync.Once
	f, err := NewFleet(FleetConfig{
		Config:    Config{PoolName: "fleet-test", Hosts: 4, HostShape: resources.Vector{CPUMilli: 1000, MemoryMB: 1000}},
		Cells:     2,
		Router:    "round-robin",
		NewPolicy: func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil },
		NewInjectors: func(c int) []sim.Injector {
			if c == 0 {
				return []sim.Injector{injectFunc(func(time.Duration) { <-held })}
			}
			return []sim.Injector{injectFunc(func(time.Duration) { once.Do(func() { close(cell1Ticked) }) })}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	defer release() // runs before Close, which waits for cell 0's loop
	// Placements route to cell 1 only.
	if _, err := f.Do(Op{Kind: OpDrainCell, Cell: 0}, 0); err != nil {
		t.Fatal(err)
	}

	tickDone := make(chan error, 1)
	go func() {
		_, err := f.Tick(10*time.Minute, 1)
		tickDone <- err
	}()
	placeDone := make(chan error, 1)
	go func() {
		rec := trace.Record{ID: 1, Lifetime: time.Hour, Shape: resources.Vector{CPUMilli: 1000, MemoryMB: 1000}}
		_, placed, err := f.Place(rec, 10*time.Minute, 2)
		if err == nil && !placed {
			err = errors.New("not placed")
		}
		placeDone <- err
	}()
	timeout := time.After(10 * time.Second)
	select {
	case <-cell1Ticked:
	case <-timeout:
		t.Fatal("cell 1 did not tick while cell 0 was busy: the fan-out is sequential")
	}
	select {
	case err := <-placeDone:
		if err != nil {
			t.Fatalf("place behind the tick: %v", err)
		}
	case <-timeout:
		t.Fatal("a sequenced placement for cell 1 stalled behind cell 0's tick")
	}
	select {
	case err := <-tickDone:
		t.Fatalf("tick returned (%v) while cell 0 was still ticking", err)
	default:
	}
	release()
	if err := <-tickDone; err != nil {
		t.Fatal(err)
	}
}

// TestFleetDrainFlushesSequencerGaps parks sequenced requests behind
// missing predecessors at the fleet's front door, drains, and requires the
// parked work applied in ascending sequence order before the per-cell drains
// freeze the rollup. Late sequenced arrivals after the flush get
// ErrDraining.
func TestFleetDrainFlushesSequencerGaps(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	f := bestFitFleet(t, 4, 2, "round-robin", shape)
	defer f.Close()

	// Seqs 2, 4, 5 park behind the missing 1 and 3.
	seqs := []uint64{2, 4, 5}
	var wg sync.WaitGroup
	for _, q := range seqs {
		q := q
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := trace.Record{ID: cluster.VMID(q), Lifetime: time.Hour, Shape: shape}
			if _, placed, err := f.Place(rec, time.Duration(q)*time.Second, q); err != nil || !placed {
				t.Errorf("seq %d: placed=%v err=%v", q, placed, err)
			}
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := f.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending == len(seqs) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("only %d of %d sequenced requests parked", st.Pending, len(seqs))
		}
		time.Sleep(time.Millisecond)
	}

	roll, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if roll.Placements != len(seqs) {
		t.Fatalf("drain rollup has %d placements, want the %d flushed", roll.Placements, len(seqs))
	}
	// Idempotent.
	again, err := f.Drain()
	if err != nil || again != roll {
		t.Fatalf("second drain: %p vs %p, err %v", again, roll, err)
	}
	// Post-flush sequenced and unsequenced work is refused.
	if _, _, err := f.Place(trace.Record{ID: 9, Lifetime: time.Hour, Shape: shape}, 0, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain place: %v", err)
	}
	// Reads still serve the frozen federation.
	if _, err := f.Snapshot(); err != nil {
		t.Fatalf("post-drain snapshot: %v", err)
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Fatal("stats do not report draining")
	}
}

// TestFleetSequencedAfterDrainRejected models the drain race at the fleet
// layer: a sequenced request that slipped past the draining fast-path and
// reaches the sequencer after the flush must get ErrDraining, not park
// forever.
func TestFleetSequencedAfterDrainRejected(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	f := bestFitFleet(t, 4, 2, "round-robin", shape)
	defer f.Close()
	if _, err := f.Drain(); err != nil {
		t.Fatal(err)
	}
	// Bypass the fast-path the way a request already past it would behave.
	f.order.mu.Lock()
	err := f.order.enterLocked(9)
	f.order.mu.Unlock()
	if !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain sequenced admission: %v, want ErrDraining", err)
	}
}

// TestFleetInGapSeqDuringDrainNotStale models the flush race: a gap-filling
// sequenced request whose cursor slot the drain already jumped past was
// never processed, so it must be answered ErrDraining — reporting it
// errStaleSeq would claim it was applied.
func TestFleetInGapSeqDuringDrainNotStale(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	f := bestFitFleet(t, 4, 2, "round-robin", shape)
	defer f.Close()

	// Advance the cursor to 3 by admitting seqs 1 and 2.
	for q := uint64(1); q <= 2; q++ {
		rec := trace.Record{ID: cluster.VMID(q), Lifetime: time.Hour, Shape: shape}
		if _, placed, err := f.Place(rec, time.Duration(q)*time.Second, q); err != nil || !placed {
			t.Fatalf("seq %d: placed=%v err=%v", q, placed, err)
		}
	}
	// Mid-drain (draining set, flush not yet complete), a retry of seq 1
	// reaches the sequencer: never-processed-as-far-as-the-client-knows,
	// must read as draining, not stale. Without draining it IS stale.
	f.order.mu.Lock()
	errBefore := f.order.enterLocked(1)
	f.order.draining.Store(true)
	errDuring := f.order.enterLocked(1)
	f.order.mu.Unlock()
	if !errors.Is(errBefore, errStaleSeq) {
		t.Fatalf("pre-drain behind-cursor seq: %v, want errStaleSeq", errBefore)
	}
	if !errors.Is(errDuring, ErrDraining) {
		t.Fatalf("mid-drain behind-cursor seq: %v, want ErrDraining", errDuring)
	}
}

// TestFleetCloseUnblocksParked verifies Close answers parked waiters.
func TestFleetCloseUnblocksParked(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	f := bestFitFleet(t, 4, 2, "round-robin", shape)

	done := make(chan error, 1)
	go func() {
		// seq 5 with no predecessors parks forever — until Close.
		_, _, err := f.Place(trace.Record{ID: 1, Lifetime: time.Hour, Shape: shape}, 0, 5)
		done <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if f.order.pending() == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sequenced request never parked")
		}
		time.Sleep(time.Millisecond)
	}
	f.Close()
	select {
	case err := <-done:
		if !errors.Is(err, ErrClosed) {
			t.Fatalf("parked waiter got %v, want ErrClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close leaked a parked waiter")
	}
	if _, _, err := f.Place(trace.Record{ID: 2, Lifetime: time.Hour, Shape: shape}, 0, 0); err == nil {
		t.Fatal("closed fleet accepted work")
	}
}

// TestNewFleetValidation pins the constructor's error cases.
func TestNewFleetValidation(t *testing.T) {
	geo := func(hosts int) Config {
		return Config{Hosts: hosts, HostShape: resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}}
	}
	pol := func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil }
	cases := []struct {
		name string
		cfg  FleetConfig
	}{
		{"no cells", FleetConfig{Config: geo(4), NewPolicy: pol}},
		{"too many cells", FleetConfig{Config: geo(2), Cells: 4, NewPolicy: pol}},
		{"no factory", FleetConfig{Config: geo(4), Cells: 2}},
		{"bad router", FleetConfig{Config: geo(4), Cells: 2, Router: "nope", NewPolicy: pol}},
		{"nil policy", FleetConfig{Config: geo(4), Cells: 2,
			NewPolicy: func(int) (scheduler.Policy, error) { return nil, nil }}},
	}
	for _, tc := range cases {
		if _, err := NewFleet(tc.cfg); err == nil {
			t.Errorf("%s: NewFleet accepted a bad config", tc.name)
		}
	}
}

// BenchmarkFleetTick times one sequenced day-long fleet tick over 8 loaded
// cells of 2k hosts: with the cells ticking in parallel it costs the slowest
// cell, not the sum.
func BenchmarkFleetTick(b *testing.B) {
	f, err := NewFleet(FleetConfig{
		Config:    Config{Hosts: 16384, HostShape: resources.Vector{CPUMilli: 64000, MemoryMB: 256000}},
		Cells:     8,
		Router:    "round-robin",
		NewPolicy: func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil },
	})
	if err != nil {
		b.Fatal(err)
	}
	defer f.Close()
	for i := 0; i < 32768; i++ {
		rec := trace.Record{ID: cluster.VMID(i + 1), Lifetime: 1e6 * time.Hour,
			Shape: resources.Vector{CPUMilli: 16000, MemoryMB: 64000}}
		if _, _, err := f.Place(rec, 0, 0); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 1; i <= b.N; i++ {
		if _, err := f.Tick(time.Duration(i)*24*time.Hour, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}
