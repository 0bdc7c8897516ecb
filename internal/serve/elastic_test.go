package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"lava/internal/cell"
	"lava/internal/cluster"
	"lava/internal/features"
	"lava/internal/resources"
	"lava/internal/scenario"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/slo"
	"lava/internal/trace"
)

// elasticCfg is the fleet configuration both halves of an elasticity parity
// test consume: NewFleet builds its served cells from it and scriptOracle
// its bare machines, each through its own code, so a divergence is in the
// fleet's setup, sequencing or stepping — never in the script.
func elasticCfg(hosts, cells int, router string) FleetConfig {
	return FleetConfig{
		Config: Config{PoolName: "elastic-test", Hosts: hosts,
			HostShape: resources.Vector{CPUMilli: 4000, MemoryMB: 8000, SSDGB: 0}, Horizon: 12 * time.Hour},
		Cells:     cells,
		Router:    router,
		NewPolicy: func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil },
	}
}

// scriptRecord synthesizes a deterministic VM record: distinct arrival
// times, varied shapes and lifetimes, and a small feature vocabulary so the
// feature-hash router spreads them across cells.
func scriptRecord(i int) trace.Record {
	return trace.Record{
		ID:       cluster.VMID(i + 1),
		Arrival:  time.Duration(i) * 4 * time.Minute,
		Lifetime: 61*time.Minute + time.Duration(i%7)*31*time.Minute + time.Duration(i)*time.Second,
		Shape: resources.Vector{
			CPUMilli: int64(1000 + (i%3)*1000),
			MemoryMB: int64(2000 + (i%3)*2000),
		},
		Feat: features.Features{MetadataID: fmt.Sprintf("meta-%d", i%11)},
	}
}

// elasticScript builds the canonical elasticity script: a sequenced request
// stream (places, exits, ticks) with every admin op interleaved at fixed
// points. The admin positions are chosen so each op's precondition holds by
// construction — e.g. a host is removed or split away immediately after
// fresh (empty) hosts were added, with no placement in between.
func elasticScript(places int) []Op {
	var ops []Op
	for i := 0; i < places; i++ {
		rec := scriptRecord(i)
		ops = append(ops, Op{Kind: OpPlace, At: rec.Arrival, Rec: rec})
		ops = append(ops, Op{Kind: OpExit, At: rec.Exit(), VM: rec.ID})
	}
	// Time-order the request stream (place before exit at equal times,
	// lower VM first — the canonical replay order).
	kindRank := func(k OpKind) int {
		if k == OpExit {
			return 0 // exits free capacity before same-instant arrivals
		}
		return 1
	}
	for i := 1; i < len(ops); i++ {
		for j := i; j > 0; j-- {
			a, b := ops[j-1], ops[j]
			if a.At < b.At || (a.At == b.At && kindRank(a.Kind) <= kindRank(b.Kind)) {
				break
			}
			ops[j-1], ops[j] = b, a
		}
	}
	// Interleave the admin ops. Each batch inserts after a fixed index of
	// the request stream, at the previous op's virtual time (the machines
	// clamp identically on both sides).
	insert := func(at int, admin ...Op) {
		t := ops[at-1].At
		for i := range admin {
			admin[i].At = t
		}
		ops = append(ops[:at], append(admin, ops[at:]...)...)
	}
	// Walk back to front so earlier indices stay valid. With 12 hosts and 3
	// cells the initial split is [4 4 4]; the script grows cell 0 to 7
	// hosts, removes the empty host 6 again, later adds two more empty
	// hosts and splits exactly those off into cell 3, rebalances, merges
	// cell 3 away into cell 2, and drains/rehydrates two cells.
	n := len(ops)
	insert(n*9/10, Op{Kind: OpRehydrateCell, Cell: 0}, Op{Kind: OpTick})
	insert(n*8/10, Op{Kind: OpDrainCell, Cell: 0})
	insert(n*7/10, Op{Kind: OpMergeCells, Cell: 3, Into: 2})
	insert(n*6/10, Op{Kind: OpRebalance, N: 4})
	insert(n*5/10, Op{Kind: OpTick})
	insert(n*4/10, Op{Kind: OpAddHosts, Cell: 0, N: 2}, Op{Kind: OpSplitCell, Cell: 0, N: 2})
	insert(n*3/10, Op{Kind: OpRehydrateCell, Cell: 1})
	insert(n*2/10, Op{Kind: OpDrainCell, Cell: 1})
	insert(n*1/10, Op{Kind: OpAddHosts, Cell: 0, N: 3}, Op{Kind: OpRemoveHost, Cell: 0, Host: 6})
	return ops
}

// scriptOracle is the sequential reference a fleet is diffed against: each
// op expanded by topology.plan and its steps applied to bare per-cell
// machines through applyTo, in plan order — no sequencer, no runSteps, no
// Server, no Fleet. It builds its topology and cells itself, so it shares
// with the fleet only the ledger, the expansion and the step semantics. A
// front-door rejection is counted at the gate; any other error ends the
// script.
func scriptOracle(cfg FleetConfig, ops []Op) (*cell.Rollup, error) {
	hosts := cell.SplitHosts(cfg.Hosts, cfg.Cells)
	topo, err := newTopology(cfg.Router, hosts)
	if err != nil {
		return nil, err
	}
	topo.gate = slo.NewGate(cfg.SLO) // nil: admission off
	var machines []*sim.Machine
	topo.grow = func(idx, hosts int) error {
		pol, err := cfg.NewPolicy(idx)
		if err != nil {
			return err
		}
		cc := cfg.Config
		cc.PoolName = fmt.Sprintf("%s/cell-%d", cfg.PoolName, idx)
		cc.Hosts, cc.Policy, cc.Injectors, cc.SLO, cc.TraceK = hosts, pol, nil, nil, 0
		if cfg.NewInjectors != nil {
			cc.Injectors = cfg.NewInjectors(idx)
		}
		if topo.gate != nil {
			cc.SLO = &slo.Config{Track: true}
		}
		m, _, err := newMachine(&cc)
		machines = append(machines, m)
		return err
	}
	for i, h := range hosts {
		if err := topo.grow(i, h); err != nil {
			return nil, err
		}
	}
	for i := range ops {
		steps, _, err := topo.plan(&ops[i], nil)
		var vm *cluster.VM // what the last step handed over (MigrateOut only)
		for j := range steps {
			if steps[j].kind == reqMigrateIn {
				steps[j].vm = vm
			}
			resp := applyTo(machines[steps[j].cell], &steps[j])
			vm = resp.vm
			err = errors.Join(err, resp.err)
		}
		if err != nil && !slo.IsReject(err) {
			return nil, fmt.Errorf("oracle: op %d (%s): %w", i, ops[i].Kind, err)
		}
	}
	results := make([]*sim.Result, len(machines))
	for i, m := range machines {
		if results[i], err = m.Finish(); err != nil {
			return nil, err
		}
	}
	roll, err := cell.RollUp(topo.Kind, topo.Hosts, results)
	if err == nil && topo.gate != nil {
		roll.SLO = slo.MergeFrontDoor(topo.gate.Counts(), []*slo.Summary{roll.SLO},
			roll.AvgPackingDensity, roll.AvgEmptyToFree, true)
	}
	return roll, err
}

// reportJSON marshals roll as the drain report a fleet of cfg answers.
func reportJSON(t *testing.T, cfg FleetConfig, roll *cell.Rollup) []byte {
	t.Helper()
	pol, err := cfg.NewPolicy(0)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := json.Marshal(FleetReportOf(cfg.PoolName, pol.Name(), roll))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// runScriptOnline replays a script against a live fleet: op i carries
// global sequence number i+1 and the ops are handed to `workers` concurrent
// goroutines, so completion order scrambles while the sequencer restores
// the scripted order. Returns the canonical drain report.
func runScriptOnline(t *testing.T, cfg FleetConfig, ops []Op, workers int) DrainResponse {
	t.Helper()
	f, err := NewFleet(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	feed := make(chan int)
	var wg sync.WaitGroup
	var mu sync.Mutex
	var opErrs []error
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				if _, err := f.Do(ops[i], uint64(i+1)); err != nil {
					mu.Lock()
					opErrs = append(opErrs, fmt.Errorf("op %d (%s): %w", i, ops[i].Kind, err))
					mu.Unlock()
				}
			}
		}()
	}
	for i := range ops {
		feed <- i
	}
	close(feed)
	wg.Wait()
	if len(opErrs) > 0 {
		t.Fatalf("online script errors: %v", errors.Join(opErrs...))
	}
	rep, err := f.drainReport()
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

// TestElasticScriptParity is the elasticity tentpole's contract: a script
// mixing sequenced requests with every admin op — host add/remove, cell
// drain/rehydrate, split, merge, rebalance — produces, run offline
// (RunScriptOffline) and replayed online at any concurrency, a drain report
// byte-identical to the sequential oracle's.
func TestElasticScriptParity(t *testing.T) {
	ops := elasticScript(90)
	for _, router := range []string{"feature-hash", "round-robin"} {
		t.Run(router, func(t *testing.T) {
			cfg := elasticCfg(12, 3, router)
			roll, err := scriptOracle(cfg, ops)
			if err != nil {
				t.Fatal(err)
			}
			if roll.MigratedOut == 0 || roll.MigratedIn == 0 {
				t.Fatalf("script moved no VMs (out=%d in=%d): merge/rebalance not exercised", roll.MigratedOut, roll.MigratedIn)
			}
			if len(roll.Cells) != 4 {
				t.Fatalf("script ended with %d cells, want 4 (split ran?)", len(roll.Cells))
			}
			want := reportJSON(t, cfg, roll)
			offline, err := RunScriptOffline(cfg, ops)
			if err != nil {
				t.Fatal(err)
			}
			if got := reportJSON(t, cfg, offline); !bytes.Equal(got, want) {
				t.Fatalf("offline run diverged from the oracle:\noffline: %s\noracle:  %s", got, want)
			}
			for _, workers := range []int{1, 8} {
				got, err := json.Marshal(runScriptOnline(t, cfg, ops, workers))
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("online (%d workers) diverged from the oracle:\nonline: %s\noracle: %s", workers, got, want)
				}
			}
		})
	}
}

// TestOfflineScriptIgnoresTracing pins that the offline runner is blind to
// the tracing settings: it records nothing (no reader exists for an offline
// cell's ring), so a traced config yields the untraced report byte for byte.
func TestOfflineScriptIgnoresTracing(t *testing.T) {
	ops := elasticScript(40)
	report := func(traceK int) []byte {
		cfg := elasticCfg(12, 3, "feature-hash")
		cfg.TraceK, cfg.TraceCap = traceK, -1
		roll, err := RunScriptOffline(cfg, ops)
		if err != nil {
			t.Fatal(err)
		}
		out, err := json.Marshal(FleetReportOf(cfg.PoolName, "p", roll))
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	if plain, traced := report(0), report(3); !bytes.Equal(plain, traced) {
		t.Fatalf("tracing changed the offline report:\nplain:  %s\ntraced: %s", plain, traced)
	}
}

// TestOfflineScriptSurvivesPanickingScorer runs a script whose scorer
// panics while placing VM 13. The panic must not escape RunScriptOffline:
// it returns an error naming the op and the cell, and leaves no goroutine
// behind — the ticks fan out across the cells.
func TestOfflineScriptSurvivesPanickingScorer(t *testing.T) {
	var ops []Op
	for i := 0; i < 20; i++ {
		rec := scriptRecord(i)
		ops = append(ops, Op{Kind: OpPlace, At: rec.Arrival, Rec: rec})
		if i%5 == 4 {
			ops = append(ops, Op{Kind: OpTick, At: rec.Arrival})
		}
	}
	// Round-robin sends the 13th placement to cell 12 mod 5.
	cfg := elasticCfg(10, 5, "round-robin")
	cfg.NewPolicy = func(int) (scheduler.Policy, error) { return panicPolicy{scheduler.NewBestFit()}, nil }
	at := slices.IndexFunc(ops, func(op Op) bool { return op.Kind == OpPlace && op.Rec.ID == 13 })
	base := runtime.NumGoroutine()
	var err error
	escaped := func() (p any) {
		defer func() { p = recover() }()
		_, err = RunScriptOffline(cfg, ops)
		return nil
	}()
	if escaped != nil {
		t.Fatalf("the scorer's panic escaped RunScriptOffline: %v", escaped)
	}
	want := fmt.Sprintf("serve: script op %d (place): serve: elastic-test/cell-2: apply panicked: scorer bug", at)
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	for deadline := time.Now().Add(time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// TestPlanCoversEveryOpKind walks the OpKind enumeration: every kind has a
// name and an arm in topology.plan, the one expansion the fleet and the
// oracle consume, so a kind added to the enumeration alone
// fails here instead of silently doing nothing.
func TestPlanCoversEveryOpKind(t *testing.T) {
	for k := OpKind(0); k < numOpKinds; k++ {
		if k.String() == "op(?)" {
			t.Errorf("op kind %d has no name", k)
		}
		topo, err := newTopology("round-robin", []int{4, 4})
		if err != nil {
			t.Fatal(err)
		}
		topo.grow = func(int, int) error { return nil }
		// Valid for every kind on a fresh two-cell ledger: cell 0 gives up
		// (or gains) two hosts, or merges into cell 1.
		op := Op{Kind: k, Rec: scriptRecord(0), Cell: 0, Into: 1, N: 2, Host: 3}
		if _, _, err := topo.plan(&op, nil); err != nil {
			t.Errorf("plan(%s): %v", k, err)
		}
	}
	if got := numOpKinds.String(); got != "op(?)" {
		t.Errorf("out-of-range kind renders %q", got)
	}
	topo, _ := newTopology("round-robin", []int{4})
	if _, _, err := topo.plan(&Op{Kind: numOpKinds}, nil); err == nil {
		t.Error("plan accepted an unknown op kind")
	}
}

// TestFleetCellDrainZeroDrop pins the drain/rehydrate guarantee: sequenced
// placements racing a cell drain and rehydrate are never dropped — every
// accepted request lands exactly once, so placements+failed equals the
// number of place ops, and the whole stream byte-matches the oracle.
func TestFleetCellDrainZeroDrop(t *testing.T) {
	var ops []Op
	for i := 0; i < 40; i++ {
		rec := scriptRecord(i)
		ops = append(ops, Op{Kind: OpPlace, At: rec.Arrival, Rec: rec})
	}
	// Drain cell 0 for the middle half of the stream.
	drain := Op{Kind: OpDrainCell, Cell: 0}
	rehydrate := Op{Kind: OpRehydrateCell, Cell: 0}
	ops = append(ops[:30], append([]Op{rehydrate}, ops[30:]...)...)
	ops = append(ops[:10], append([]Op{drain}, ops[10:]...)...)

	cfg := elasticCfg(8, 2, "round-robin")
	cfg.Horizon = 8 * time.Hour
	roll, err := scriptOracle(cfg, ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := roll.Placements + roll.Failed; got != 40 {
		t.Fatalf("oracle dropped requests: placements+failed = %d, want 40", got)
	}
	// While cell 0 was drained every arrival went to cell 1; the drain did
	// not leak placements into the drained cell.
	if roll.Cells[1].Placements+roll.Cells[1].Failed <= 20 {
		t.Fatalf("drained window did not shift load: cell 1 saw %d requests", roll.Cells[1].Placements+roll.Cells[1].Failed)
	}
	want := reportJSON(t, cfg, roll)
	got, err := json.Marshal(runScriptOnline(t, cfg, ops, 6))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("drain/rehydrate stream diverged:\nonline: %s\noracle: %s", got, want)
	}
}

// TestElasticAdminHTTP exercises the /admin surface end to end through the
// fleet's handler table: every endpoint, the stats reflection of the new
// topology, and the error paths.
func TestElasticAdminHTTP(t *testing.T) {
	shape := resources.Vector{CPUMilli: 4000, MemoryMB: 8000, SSDGB: 0}
	f := bestFitFleet(t, 8, 2, "round-robin", shape)
	defer f.Close()
	hs := httptest.NewServer(f.Handler())
	defer hs.Close()
	c := &Client{Base: hs.URL}
	ctx := context.Background()

	if err := c.post(ctx, "/admin/add-hosts", AdminAddHostsRequest{Cell: 0, N: 2}, nil); err != nil {
		t.Fatalf("add-hosts: %v", err)
	}
	if err := c.post(ctx, "/admin/remove-host", AdminRemoveHostRequest{Cell: 0, Host: 5}, nil); err != nil {
		t.Fatalf("remove-host: %v", err)
	}
	if err := c.post(ctx, "/admin/drain-cell", AdminCellRequest{Cell: 1}, nil); err != nil {
		t.Fatalf("drain-cell: %v", err)
	}
	// With cell 1 drained, round-robin sends everything to cell 0.
	for i := 0; i < 4; i++ {
		rec := scriptRecord(i)
		if _, err := c.Place(ctx, PlaceRequest{Record: rec, At: rec.Arrival}); err != nil {
			t.Fatalf("place %d: %v", i, err)
		}
	}
	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellStats[0].Placements != 4 || st.CellStats[1].Placements != 0 {
		t.Fatalf("drained cell took placements: %d/%d, want 4/0",
			st.CellStats[0].Placements, st.CellStats[1].Placements)
	}
	if err := c.post(ctx, "/admin/rehydrate-cell", AdminCellRequest{Cell: 1}, nil); err != nil {
		t.Fatalf("rehydrate-cell: %v", err)
	}

	// Split one empty host off cell 1 (never placed into, so all empty).
	var sp AdminSplitResponse
	if err := c.post(ctx, "/admin/split-cell", AdminSplitRequest{Cell: 1, N: 1}, &sp); err != nil {
		t.Fatalf("split-cell: %v", err)
	}
	if sp.NewCell != 2 {
		t.Fatalf("split created cell %d, want 2", sp.NewCell)
	}
	if err := c.post(ctx, "/admin/merge-cells", AdminMergeRequest{From: 2, Into: 0}, nil); err != nil {
		t.Fatalf("merge-cells: %v", err)
	}
	if n := f.Cells(); n != 3 {
		t.Fatalf("Cells() = %d after split and merge, want 3: a retired cell still counts", n)
	}
	if err := c.post(ctx, "/admin/rebalance", AdminRebalanceRequest{MaxMoves: 2}, &AdminRebalanceResponse{}); err != nil {
		t.Fatalf("rebalance: %v", err)
	}

	st, err = f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.CellCount != 3 {
		t.Fatalf("stats report %d cells, want 3", st.CellCount)
	}
	if len(st.Retired) != 1 || st.Retired[0] != 2 {
		t.Fatalf("stats retired = %v, want [2]", st.Retired)
	}
	// 8 initial + 2 added - 1 removed; the merged cell's host moved to
	// cell 0, so the live total is unchanged by split+merge.
	if st.Hosts != 9 {
		t.Fatalf("stats count %d live hosts, want 9", st.Hosts)
	}

	// Error paths: bad cell index, retired target, oversized split.
	if err := c.post(ctx, "/admin/drain-cell", AdminCellRequest{Cell: 99}, nil); err == nil {
		t.Fatal("drain of cell 99 succeeded")
	}
	if err := c.post(ctx, "/admin/add-hosts", AdminAddHostsRequest{Cell: 2, N: 1}, nil); err == nil {
		t.Fatal("add-hosts to retired cell succeeded")
	}
	if err := c.post(ctx, "/admin/split-cell", AdminSplitRequest{Cell: 0, N: 100}, &AdminSplitResponse{}); err == nil {
		t.Fatal("oversized split succeeded")
	}

	fd, err := c.Drain(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(fd.Cells) != 3 {
		t.Fatalf("drain reports %d cells, want 3", len(fd.Cells))
	}
	if fd.Hosts[2] != 0 {
		t.Fatalf("retired cell weighs %d hosts in the rollup, want 0", fd.Hosts[2])
	}
	// The admin surface is part of the drain barrier: post-drain admin ops
	// are refused like any other mutation.
	if err := c.post(ctx, "/admin/add-hosts", AdminAddHostsRequest{Cell: 0, N: 1}, nil); err == nil {
		t.Fatal("add-hosts after drain succeeded")
	}
}

// randomScript generates a random but always-valid elasticity script: the
// generator tracks a topology mirror so every emitted op's precondition
// holds (never drain the last routable cell, never touch a retired one).
// This is the fuzz half of the sequencer property test — scripts mix
// request traffic with out-of-order-arriving admin ops and the online replay
// must still byte-match the sequential oracle.
func randomScript(rng *rand.Rand, cells, places int) []Op {
	routable := make([]bool, cells)
	retired := make([]bool, cells)
	for i := range routable {
		routable[i] = true
	}
	routableCount := func() int {
		n := 0
		for i := range routable {
			if routable[i] && !retired[i] {
				n++
			}
		}
		return n
	}
	liveCells := func() []int {
		var out []int
		for i := range retired {
			if !retired[i] {
				out = append(out, i)
			}
		}
		return out
	}
	var ops []Op
	var now time.Duration
	var placed []cluster.VMID
	nextID := cluster.VMID(1)
	for len(ops) < places {
		now += time.Duration(rng.Intn(300)+1) * time.Second
		switch k := rng.Intn(100); {
		case k < 55: // place
			rec := trace.Record{
				ID:       nextID,
				Arrival:  now,
				Lifetime: time.Duration(rng.Intn(240)+30) * time.Minute,
				Shape: resources.Vector{
					CPUMilli: int64(rng.Intn(3)+1) * 1000,
					MemoryMB: int64(rng.Intn(3)+1) * 2000,
				},
				Feat: features.Features{MetadataID: fmt.Sprintf("m%d", rng.Intn(13))},
			}
			nextID++
			placed = append(placed, rec.ID)
			ops = append(ops, Op{Kind: OpPlace, At: now, Rec: rec})
		case k < 70: // exit a random known VM (double exits are no-ops)
			if len(placed) == 0 {
				continue
			}
			ops = append(ops, Op{Kind: OpExit, At: now, VM: placed[rng.Intn(len(placed))]})
		case k < 80: // tick
			ops = append(ops, Op{Kind: OpTick, At: now})
		case k < 86: // drain a routable cell, keeping at least one routable
			if routableCount() < 2 {
				continue
			}
			c := rng.Intn(len(routable))
			if retired[c] || !routable[c] {
				continue
			}
			routable[c] = false
			ops = append(ops, Op{Kind: OpDrainCell, Cell: c})
		case k < 92: // rehydrate a drained cell
			c := rng.Intn(len(routable))
			if retired[c] || routable[c] {
				continue
			}
			routable[c] = true
			ops = append(ops, Op{Kind: OpRehydrateCell, Cell: c})
		case k < 96: // grow a live cell
			live := liveCells()
			c := live[rng.Intn(len(live))]
			ops = append(ops, Op{Kind: OpAddHosts, At: now, Cell: c, N: rng.Intn(2) + 1})
		case k < 99: // bounded rebalance
			ops = append(ops, Op{Kind: OpRebalance, At: now, N: rng.Intn(3) + 1})
		default: // merge, keeping at least two live cells afterwards
			live := liveCells()
			if len(live) < 3 {
				continue
			}
			from := live[rng.Intn(len(live))]
			into := live[rng.Intn(len(live))]
			if from == into {
				continue
			}
			retired[from] = true
			routable[from] = false
			ops = append(ops, Op{Kind: OpMergeCells, At: now, Cell: from, Into: into})
		}
	}
	return ops
}

// TestFleetScriptFuzzParity is the sequencer property test: random scripts
// of interleaved requests and admin ops, replayed online at concurrency 8
// with scrambled completion order, must byte-match their sequential oracle
// runs — the fleet never reorders and never drops a sequenced operation.
func TestFleetScriptFuzzParity(t *testing.T) {
	for _, seed := range []int64{1, 7, 23} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			ops := randomScript(rng, 3, 140)
			cfg := elasticCfg(9, 3, "round-robin")
			cfg.Horizon = 24 * time.Hour
			roll, err := scriptOracle(cfg, ops)
			if err != nil {
				t.Fatal(err)
			}
			want := reportJSON(t, cfg, roll)
			got, err := json.Marshal(runScriptOnline(t, cfg, ops, 8))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("seed %d diverged:\nonline: %s\noracle: %s", seed, got, want)
			}
		})
	}
}

// TestFleetDrainFlushesParkedAdminOps pins the other sequencer property:
// a fleet drain with sequence gaps and parked admin ops must terminate,
// release every parked waiter, and account for every operation exactly once
// — nothing reordered, nothing dropped, nothing deadlocked.
func TestFleetDrainFlushesParkedAdminOps(t *testing.T) {
	shape := resources.Vector{CPUMilli: 4000, MemoryMB: 8000, SSDGB: 0}
	rng := rand.New(rand.NewSource(99))
	f := bestFitFleet(t, 8, 2, "round-robin", shape)
	defer f.Close()

	// Random subset of sequence numbers 1..60: the withheld ones are gaps
	// the drain must flush past. Admin ops ride random sequence numbers.
	type outcome struct {
		err error
		ok  bool
	}
	results := make([]outcome, 61)
	var wg sync.WaitGroup
	submitted := 0
	for seq := uint64(1); seq <= 60; seq++ {
		if rng.Intn(100) < 30 {
			continue // gap
		}
		submitted++
		seq, kind := seq, rng.Intn(10)
		wg.Add(1)
		go func() {
			defer wg.Done()
			op := Op{Kind: OpPlace, Rec: scriptRecord(int(seq)), At: time.Duration(seq) * time.Minute}
			switch kind {
			case 0:
				op = Op{Kind: OpAddHosts, Cell: int(seq) % 2, N: 1, At: time.Duration(seq) * time.Minute}
			case 1:
				op = Op{Kind: OpDrainCell, Cell: 0}
			case 2:
				op = Op{Kind: OpRehydrateCell, Cell: 0}
			}
			_, err := f.Do(op, seq)
			results[seq] = outcome{err: err, ok: true}
		}()
	}
	// Give the submissions a moment to park behind the gaps, then drain.
	time.Sleep(50 * time.Millisecond)
	roll, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()

	applied := 0
	for seq, r := range results {
		if !r.ok {
			continue
		}
		if r.err == nil {
			applied++
		} else if !errors.Is(r.err, ErrDraining) {
			t.Fatalf("seq %d failed with %v, want nil or ErrDraining", seq, r.err)
		}
	}
	if applied == 0 {
		t.Fatal("no operation was applied before the drain")
	}
	// Every successful op was applied exactly once and the drain is
	// idempotent over the same rollup.
	if roll.Placements+roll.Failed > submitted {
		t.Fatalf("rollup accounts %d placements+failed > %d submitted", roll.Placements+roll.Failed, submitted)
	}
	again, err := f.Drain()
	if err != nil || again != roll {
		t.Fatalf("second drain = (%p, %v), want same rollup (%p)", again, err, roll)
	}
	if _, err := f.Do(Op{Kind: OpAddHosts, Cell: 0, N: 1}, 61); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain admin op: %v, want ErrDraining", err)
	}
}

// TestTopologyRoutingElasticity covers the router disciplines' elasticity
// edge cases directly on the shared ledger: single-cell fleets, draining,
// retirement, and the probe/skip behaviour of each discipline.
func TestTopologyRoutingElasticity(t *testing.T) {
	rec := func(i int) *trace.Record {
		r := scriptRecord(i)
		return &r
	}

	t.Run("single-cell", func(t *testing.T) {
		topo, err := newTopology("round-robin", []int{4})
		if err != nil {
			t.Fatal(err)
		}
		if c, err := topo.routeCreate(rec(0), 0); err != nil || c != 0 {
			t.Fatalf("route = (%d, %v), want (0, nil)", c, err)
		}
		if err := topo.setRoutable(0, false); err != nil {
			t.Fatal(err)
		}
		if _, err := topo.routeCreate(rec(1), 0); !errors.Is(err, ErrNoRoutableCell) {
			t.Fatalf("route with every cell drained: %v, want ErrNoRoutableCell", err)
		}
	})

	t.Run("round-robin-skips-drained", func(t *testing.T) {
		topo, _ := newTopology("round-robin", []int{2, 2, 2})
		if err := topo.setRoutable(1, false); err != nil {
			t.Fatal(err)
		}
		want := []int{0, 2, 0, 2}
		for i, w := range want {
			if c, err := topo.routeCreate(rec(i), 0); err != nil || c != w {
				t.Fatalf("arrival %d routed to (%d, %v), want %d", i, c, err, w)
			}
		}
	})

	t.Run("feature-hash-probes-forward", func(t *testing.T) {
		topo, _ := newTopology("feature-hash", []int{2, 2, 2, 2})
		// rec(3+11k) share their features under distinct VM IDs (a live ID
		// cannot be routed twice).
		home, err := topo.routeCreate(rec(3), 0)
		if err != nil {
			t.Fatal(err)
		}
		// Draining an unrelated cell leaves the assignment untouched.
		other := (home + 2) % 4
		if err := topo.setRoutable(other, false); err != nil {
			t.Fatal(err)
		}
		if c, _ := topo.routeCreate(rec(14), 0); c != home {
			t.Fatalf("draining cell %d moved record from %d to %d", other, home, c)
		}
		// Draining the home cell probes forward to the next routable one.
		if err := topo.setRoutable(home, false); err != nil {
			t.Fatal(err)
		}
		c, err := topo.routeCreate(rec(25), 0)
		if err != nil {
			t.Fatal(err)
		}
		if want := (home + 1) % 4; c != want && !(want == other && c == (home+3)%4) {
			// The forward probe skips `other` too when it sits right after
			// home; either way the result is the first routable successor.
			t.Fatalf("drained home %d routed to %d", home, c)
		}
		// Rehydration restores the original assignment exactly.
		if err := topo.setRoutable(home, true); err != nil {
			t.Fatal(err)
		}
		if c, _ := topo.routeCreate(rec(36), 0); c != home {
			t.Fatalf("rehydrated home %d but record routes to %d", home, c)
		}
	})

	t.Run("least-utilized-excludes-unroutable", func(t *testing.T) {
		topo, _ := newTopology("least-utilized", []int{2, 2, 2})
		// Tie on empty cells goes to the lowest index.
		if c, _ := topo.routeCreate(rec(0), 0); c != 0 {
			t.Fatalf("first arrival routed to %d, want 0", c)
		}
		// Next lands on the emptiest remaining cell.
		if c, _ := topo.routeCreate(rec(1), 0); c != 1 {
			t.Fatalf("second arrival routed to %d, want 1", c)
		}
		if err := topo.setRoutable(2, false); err != nil {
			t.Fatal(err)
		}
		// Cell 2 is emptiest but drained: the pick must avoid it.
		if c, _ := topo.routeCreate(rec(2), 0); c == 2 {
			t.Fatal("least-utilized routed to a drained cell")
		}
	})

	t.Run("merge-repoints-exits", func(t *testing.T) {
		topo, _ := newTopology("round-robin", []int{2, 2})
		r := rec(0)
		c, _ := topo.routeCreate(r, 0) // cell 0
		if c != 0 {
			t.Fatalf("routed to %d, want 0", c)
		}
		victims, err := topo.merge(0, 1)
		if err != nil {
			t.Fatal(err)
		}
		if len(victims) != 1 || victims[0] != r.ID {
			t.Fatalf("merge victims = %v, want [%d]", victims, r.ID)
		}
		if c, ok := topo.Exit(r.ID); !ok || c != 1 {
			t.Fatalf("post-merge exit routed to (%d, %v), want (1, true)", c, ok)
		}
		// The retired cell is terminal.
		if err := topo.setRoutable(0, true); err == nil {
			t.Fatal("rehydrate of a retired cell succeeded")
		}
		if _, err := topo.merge(0, 1); err == nil {
			t.Fatal("second merge of a retired cell succeeded")
		}
		if topo.Hosts[0] != 0 || topo.Hosts[1] != 4 {
			t.Fatalf("merge left hosts %v, want [0 4]", topo.Hosts)
		}
	})

	t.Run("remove-last-host-refused", func(t *testing.T) {
		topo, _ := newTopology("round-robin", []int{1, 2})
		if err := topo.removeHost(0); err == nil {
			t.Fatal("removing a cell's last host succeeded")
		}
		if err := topo.removeHost(1); err != nil {
			t.Fatal(err)
		}
	})
}

// TestFeatureHashStability pins the feature-hash contract the elasticity
// design leans on: the assignment is a pure function of (Feat, cell count).
// It ignores the VM's identity and arrival, is untouched by routing
// history, and shifts only when the cell count itself changes.
func TestFeatureHashStability(t *testing.T) {
	a := scriptRecord(0)
	b := scriptRecord(11) // same Feat vocabulary slot (11 % 11 == 0), different ID/arrival/shape
	if a.Feat.String() != b.Feat.String() {
		t.Fatalf("records %d and %d should share a feature tuple", a.ID, b.ID)
	}
	for _, n := range []int{1, 2, 3, 4, 7} {
		ca, cb := cellFeatureHash(&a, n), cellFeatureHash(&b, n)
		if ca != cb {
			t.Fatalf("n=%d: same features hashed to cells %d and %d", n, ca, cb)
		}
		if ca < 0 || ca >= n {
			t.Fatalf("n=%d: hash out of range: %d", n, ca)
		}
		// Repeated evaluation with interleaved unrelated routing is stable.
		topo, _ := newTopology("feature-hash", make10(n))
		first, err := topo.routeCreate(&a, 0)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 5; i++ {
			r := scriptRecord(i + 1)
			r.ID = cluster.VMID(1000 + i)
			if _, err := topo.routeCreate(&r, 0); err != nil {
				t.Fatal(err)
			}
		}
		c := scriptRecord(22) // same tuple again
		c.ID = 2000
		if got, _ := topo.routeCreate(&c, 0); got != first {
			t.Fatalf("n=%d: routing history moved the assignment %d -> %d", n, first, got)
		}
		if first != ca {
			t.Fatalf("n=%d: topology route %d != pure hash %d", n, first, ca)
		}
	}
}

// cellFeatureHash mirrors the router's pure assignment for the stability
// assertions.
func cellFeatureHash(r *trace.Record, n int) int {
	topo, _ := newTopology("feature-hash", make10(n))
	c, _ := topo.routeCreate(r, 0)
	return c
}

// make10 builds n cells of 10 hosts each.
func make10(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = 10
	}
	return out
}

// TestRemoveWithdrawnHostIsRefused: a fleet cell refuses to remove a host
// that one of its injectors withdrew, and keeps serving, so the
// injector's restore finds the host. Before, the removal went through and
// the restore closed the cell with a nil host. The ledger keeps the weight
// it dropped when it sequenced the op (see OpRemoveHost).
func TestRemoveWithdrawnHostIsRefused(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Config:    Config{PoolName: "crunched", Hosts: 8, HostShape: resources.Cores(32, 131072, 0)},
		Cells:     2,
		NewPolicy: func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil },
		NewInjectors: func(int) []sim.Injector {
			return []sim.Injector{scenario.Crunch{At: time.Hour, Frac: 0.25, For: time.Hour}.NewInjector(0)}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	seq := uint64(0)
	do := func(op Op) error {
		seq++
		_, err := f.Do(op, seq)
		return err
	}
	if err := do(Op{Kind: OpTick, At: time.Hour}); err != nil {
		t.Fatal(err)
	}
	if err := do(Op{Kind: OpRemoveHost, Cell: 0, Host: 3, At: time.Hour}); err == nil {
		t.Fatal("cell 0 removed host 3 under the crunch's claim")
	}
	if err := do(Op{Kind: OpTick, At: 3 * time.Hour}); err != nil {
		t.Fatalf("after the refused removal: %v", err)
	}
	pool := f.cells[0].m.Pool()
	if pool.NumHosts() != 4 || pool.Host(3) == nil || pool.Host(3).Unavailable() {
		t.Fatalf("cell 0 after the crunch: %d hosts, host 3 %v", pool.NumHosts(), pool.Host(3))
	}
	if f.topo.Hosts[0] != 3 {
		t.Fatalf("ledger weight of cell 0 is %d, want the 3 it kept at sequencing", f.topo.Hosts[0])
	}
}

// TestSplitAfterMiddleRemoval: a split gives up its cell's highest-ID hosts
// as the cell's pool holds them when each removal applies, not IDs guessed
// from the ledger weight. A cell of 4 hosts loses host 2, then splits off
// one host: host 3 leaves, and every pool holds as many hosts as the ledger
// counts.
func TestSplitAfterMiddleRemoval(t *testing.T) {
	f, err := NewFleet(FleetConfig{
		Config:    Config{PoolName: "p", Hosts: 4, HostShape: resources.Cores(32, 131072, 0)},
		Cells:     1,
		NewPolicy: func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Do(Op{Kind: OpRemoveHost, Cell: 0, Host: 2}, 1); err != nil {
		t.Fatal(err)
	}
	res, err := f.Do(Op{Kind: OpSplitCell, Cell: 0, N: 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	var ids []cluster.HostID
	for _, h := range f.cells[0].m.Pool().Hosts() {
		ids = append(ids, h.ID)
	}
	if !slices.Equal(ids, []cluster.HostID{0, 1}) {
		t.Fatalf("cell 0 holds hosts %v after the split, want [0 1]", ids)
	}
	for _, c := range []int{0, res.NewCell} {
		if n := f.cells[c].m.Pool().NumHosts(); n != f.topo.Hosts[c] {
			t.Fatalf("cell %d's pool holds %d hosts, its ledger weight is %d", c, n, f.topo.Hosts[c])
		}
	}
}
