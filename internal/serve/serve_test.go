package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/simtime"
	"lava/internal/slo"
	"lava/internal/trace"
	"lava/internal/workload"
)

// smallTrace generates a quick production-like trace.
func smallTrace(t testing.TB, hosts, days int, seed int64) *trace.Trace {
	t.Helper()
	tr, err := workload.Generate(workload.PoolSpec{
		Name: "serve-test", Zone: "z1", Hosts: hosts, TargetUtil: 0.6,
		Duration: time.Duration(days) * simtime.Day, Prefill: 2 * simtime.Day,
		Seed: seed, Diurnal: 0.3,
	})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestServedReplayParity is the headline contract: replaying a trace
// through the HTTP API with concurrent, sequence-numbered clients produces
// final aggregates byte-identical to offline sim.Run on the same trace.
func TestServedReplayParity(t *testing.T) {
	tr := smallTrace(t, 16, 3, 7)
	pred, err := model.TrainDistTable(tr.Records)
	if err != nil {
		t.Fatal(err)
	}

	offline, err := sim.Run(sim.Config{Trace: tr, Policy: scheduler.NewLAVA(pred, time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(runner.MetricsOf(offline))
	if err != nil {
		t.Fatal(err)
	}

	memo := Memoize(pred, 0)
	cfg := FromTrace(tr)
	cfg.Policy = scheduler.NewLAVA(memo, time.Minute)
	cfg.Memo = memo
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	client := &Client{Base: hs.URL}
	rep, err := client.Replay(context.Background(), tr, ReplayOptions{Concurrency: 8})
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(rep.Final.Metrics)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("served replay diverged from offline run:\nserved:  %s\noffline: %s", got, want)
	}
	if rep.Final.SeriesLen != offline.Series.Len() {
		t.Fatalf("series length %d != offline %d", rep.Final.SeriesLen, offline.Series.Len())
	}
	if rep.Serving == nil || rep.Serving.Requests == 0 {
		t.Fatal("replay reported no latency observations")
	}
}

// TestSequencedAdmissionOrder floods the server with sequence-numbered
// placements from shuffled concurrent goroutines; every VM fills a whole
// host, so host IDs expose processing order: VM with seq i must land on
// host i-1 under best-fit regardless of arrival interleaving.
func TestSequencedAdmissionOrder(t *testing.T) {
	const n = 24
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 10}
	s, err := New(Config{
		PoolName:  "order",
		Hosts:     n,
		HostShape: shape,
		Policy:    scheduler.NewBestFit(),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	order := rand.New(rand.NewSource(1)).Perm(n)
	var wg sync.WaitGroup
	hosts := make([]cluster.HostID, n)
	for _, idx := range order {
		idx := idx
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := trace.Record{
				ID:       cluster.VMID(idx + 1),
				Arrival:  time.Duration(idx) * time.Second,
				Lifetime: time.Hour,
				Shape:    shape,
			}
			h, placed, err := s.Place(rec, rec.Arrival, uint64(idx+1))
			if err != nil || !placed {
				t.Errorf("place %d: placed=%v err=%v", idx, placed, err)
				return
			}
			hosts[idx] = h
		}()
	}
	wg.Wait()
	for i, h := range hosts {
		if h != cluster.HostID(i) {
			t.Fatalf("seq %d placed on host %d; admission order not sequential", i+1, h)
		}
	}
}

// TestHandlers is the API table test: methods, payloads and status codes,
// one table run row by row against a Server, a Fleet and a Fleet with a
// front-door admission gate. All three build their routes from the same
// constructors, so every row must read the same on each; admin rows exist
// only on the fleets.
func TestHandlers(t *testing.T) {
	shape := resources.Vector{CPUMilli: 4000, MemoryMB: 8192, SSDGB: 100}
	s, err := New(Config{PoolName: "api", Hosts: 4, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	type target struct {
		name  string
		h     http.Handler
		fleet *Fleet
		url   string
	}
	targets := []*target{{name: "server", h: s.Handler()}}
	for _, fl := range []struct {
		name  string
		admit *slo.Config
	}{{"fleet", nil}, {"fleet-gated", &slo.Config{Track: true}}} {
		f, err := NewFleet(FleetConfig{
			Config: Config{PoolName: "api", Hosts: 4, HostShape: shape, SLO: fl.admit}, Cells: 2, Router: "round-robin",
			NewPolicy: func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil },
		})
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		targets = append(targets, &target{name: fl.name, h: f.Handler(), fleet: f})
	}
	for _, tg := range targets {
		hs := httptest.NewServer(tg.h)
		defer hs.Close()
		tg.url = hs.URL
	}

	record := func(id int, class string) string {
		return fmt.Sprintf(`"record":{"id":%d,"class":%q,"arrival_ns":1000000000,"lifetime_ns":3600000000000,`+
			`"shape":{"CPUMilli":1000,"MemoryMB":1024,"SSDGB":0},"features":{}}`, id, class)
	}
	place := "{" + record(1, "") + "}"
	const serverOnly, fleetOnly = "server", "fleet"
	cases := []struct {
		name   string
		method string
		path   string
		body   string
		status int
		expect string // substring of the response body
		only   string // serverOnly | fleetOnly | "" for every target
		// parked is sent first, in the background: a sequenced request that
		// must be parked at the sequencer when the row's own arrives.
		parked string
		// idle: after the row, no fleet cell carries a ledger commitment.
		idle bool
	}{
		{name: "place ok", method: "POST", path: "/place", body: place, status: 200, expect: `"placed":true`},
		// A second placement of a live VM ID is refused before the gate and
		// the policy: the first copy stays the only one, and its exit leaves
		// nothing behind.
		{name: "place live vm", method: "POST", path: "/place", body: place, status: 409, expect: "vm id already live"},
		{name: "stats one vm", method: "GET", path: "/stats", status: 200, expect: `"hosts":4,"vms":1,`},
		{name: "exit running vm", method: "POST", path: "/exit", body: `{"at_ns":2000000000,"id":1}`, status: 200, expect: `"removed":true`},
		{name: "stats no vm", method: "GET", path: "/stats", status: 200, expect: `"hosts":4,"vms":0,`, idle: true},
		{name: "place wrong method", method: "GET", path: "/place", status: 405, expect: "method not allowed"},
		{name: "place bad json", method: "POST", path: "/place", body: "{nope", status: 400, expect: "bad request body"},
		{name: "place unknown field", method: "POST", path: "/place", body: `{"bogus":1}`, status: 400, expect: "bad request body"},
		{name: "place oversized body", method: "POST", path: "/place", body: strings.Repeat(" ", maxBodyBytes) + place,
			status: 413, expect: `{"error":"serve: bad request body: http: request body too large"}`},
		// An unknown class is refused before it takes a sequence number or a
		// routing turn: the corrected request goes through under the same seq,
		// and only then is that seq spent.
		{name: "place unknown class", method: "POST", path: "/place", body: `{"seq":1,` + record(2, "gold") + "}", status: 400, expect: "gold"},
		{name: "place same seq corrected", method: "POST", path: "/place", body: `{"seq":1,` + record(2, "latency") + "}", status: 200, expect: `"placed":true`},
		{name: "place stale seq", method: "POST", path: "/place", body: `{"seq":1,` + record(3, "") + "}", status: 409, expect: "already processed"},
		// A Server and a Fleet run the same sequencer: a second copy of a
		// parked sequence number is refused, the first stays parked.
		{name: "place duplicate seq in flight", method: "POST", path: "/place", body: `{"seq":5,` + record(5, "") + "}",
			parked: `{"seq":5,` + record(4, "") + "}", status: 409, expect: "duplicate"},
		{name: "exit unknown vm", method: "POST", path: "/exit", body: `{"at_ns":3000000000,"id":99}`, status: 200, expect: `"removed":false`},
		{name: "tick", method: "POST", path: "/tick", body: `{"at_ns":7200000000000}`, status: 200, expect: `"now_ns":7200000000000`},
		{name: "stats", method: "GET", path: "/stats", status: 200, expect: `"pool":"api"`},
		{name: "stats wrong method", method: "POST", path: "/stats", body: "{}", status: 405, expect: "method not allowed"},
		{name: "snapshot", method: "GET", path: "/snapshot", status: 200, expect: `"empty_host_frac"`},

		// The admin surface: the same 405/400 from the shared constructor,
		// the host-count cap, and each endpoint's ledger refusal (rebalance
		// has none: VM 2 moves from the now smaller cell 1 to cell 0).
		{name: "admin wrong method", method: "GET", path: "/admin/drain-cell", status: 405, expect: "method not allowed", only: fleetOnly},
		{name: "admin unknown field", method: "POST", path: "/admin/rebalance", body: `{"bogus":1}`, status: 400, expect: "bad request body", only: fleetOnly},
		{name: "add-hosts over cap", method: "POST", path: "/admin/add-hosts", body: fmt.Sprintf(`{"seq":2,"cell":0,"n":%d}`, maxAddHosts+1),
			status: 400, expect: "at most", only: fleetOnly},
		{name: "add-hosts same seq capped", method: "POST", path: "/admin/add-hosts", body: `{"seq":2,"cell":0,"n":1}`, status: 200, expect: `"ok":true`, only: fleetOnly},
		{name: "add-hosts none", method: "POST", path: "/admin/add-hosts", body: `{"cell":0,"n":0}`, status: 500, expect: "add 0 hosts", only: fleetOnly},
		{name: "remove-host unknown cell", method: "POST", path: "/admin/remove-host", body: `{"cell":9,"host":0}`, status: 500, expect: "no cell 9", only: fleetOnly},
		{name: "drain-cell unknown cell", method: "POST", path: "/admin/drain-cell", body: `{"cell":9}`, status: 500, expect: "no cell 9", only: fleetOnly},
		{name: "rehydrate-cell unknown cell", method: "POST", path: "/admin/rehydrate-cell", body: `{"cell":-1}`, status: 500, expect: "no cell -1", only: fleetOnly},
		{name: "split-cell too wide", method: "POST", path: "/admin/split-cell", body: `{"cell":0,"n":100}`, status: 500, expect: "cannot split off 100", only: fleetOnly},
		{name: "merge-cells into itself", method: "POST", path: "/admin/merge-cells", body: `{"from":1,"into":1}`, status: 500, expect: "merge into itself", only: fleetOnly},
		{name: "rebalance", method: "POST", path: "/admin/rebalance", body: `{}`, status: 200, expect: `"moves":1`, only: fleetOnly},

		{name: "drain", method: "POST", path: "/drain", body: "{}", status: 200, expect: `"metrics"`},
		{name: "place after drain", method: "POST", path: "/place", body: place, status: 503, expect: "draining"},
		{name: "admin after drain", method: "POST", path: "/admin/drain-cell", body: `{"cell":0}`, status: 503, expect: "draining", only: fleetOnly},
		{name: "drain idempotent", method: "POST", path: "/drain", body: "{}", status: 200, expect: `"metrics"`},
		{name: "stats after drain", method: "GET", path: "/stats", status: 200, expect: `"draining":true`},
	}
	do := func(t *testing.T, method, url, body string) (int, string) {
		t.Helper()
		req, err := http.NewRequest(method, url, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		data, err := readAll(resp)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(data)
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			for _, tg := range targets {
				if (tc.only == fleetOnly && tg.fleet == nil) || (tc.only == serverOnly && tg.fleet != nil) {
					continue
				}
				t.Run(tg.name, func(t *testing.T) {
					if tc.parked != "" {
						go http.Post(tg.url+tc.path, "application/json", strings.NewReader(tc.parked))
						for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
							if _, body := do(t, "GET", tg.url+"/stats", ""); strings.Contains(body, `"pending_seq":1`) {
								break
							}
							if time.Now().After(deadline) {
								t.Fatal("sequenced request never parked")
							}
						}
					}
					status, body := do(t, tc.method, tg.url+tc.path, tc.body)
					if status != tc.status {
						t.Fatalf("status %d want %d (body %s)", status, tc.status, body)
					}
					if !strings.Contains(body, tc.expect) {
						t.Fatalf("body %q missing %q", body, tc.expect)
					}
					if tc.idle && tg.fleet != nil {
						tg.fleet.mu.Lock()
						defer tg.fleet.mu.Unlock()
						for c := range tg.fleet.topo.Hosts {
							if load := tg.fleet.topo.Score(c); load != 0 {
								t.Fatalf("cell %d still commits %v CPU-milli per host", c, load)
							}
						}
					}
				})
			}
		})
	}
}

// TestSequenceConflicts verifies the 409 mapping for stale and duplicate
// sequence numbers.
func TestSequenceConflicts(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "seq", Hosts: 2, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	rec := trace.Record{ID: 1, Lifetime: time.Hour, Shape: shape}
	if _, _, err := s.Place(rec, 0, 1); err != nil {
		t.Fatal(err)
	}
	rec.ID = 2
	if _, _, err := s.Place(rec, time.Second, 1); err == nil {
		t.Fatal("reused sequence number must be rejected")
	}
}

// TestDrainFlushesPendingSequences checks that a drain processes buffered
// out-of-order sequenced requests (in seq order) rather than abandoning
// their clients.
func TestDrainFlushesPendingSequences(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "flush", Hosts: 4, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// seq 2 arrives without seq 1: it parks at the sequencer.
	done := make(chan error, 1)
	go func() {
		rec := trace.Record{ID: 2, Lifetime: time.Hour, Shape: shape}
		_, _, err := s.Place(rec, time.Second, 2)
		done <- err
	}()
	// Wait until the request is parked.
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s.Stats()
		if err != nil {
			t.Fatal(err)
		}
		if st.Pending == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sequenced request never parked at the sequencer")
		}
		time.Sleep(time.Millisecond)
	}

	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if err := <-done; err != nil {
		t.Fatalf("parked request not flushed by drain: %v", err)
	}
	if res.Placements != 1 {
		t.Fatalf("drain result has %d placements, want the flushed one", res.Placements)
	}
	// New mutating work is refused; reads still serve.
	if _, _, err := s.Place(trace.Record{ID: 3, Lifetime: time.Hour, Shape: shape}, 0, 0); err == nil {
		t.Fatal("post-drain placement must be refused")
	}
	if _, err := s.Snapshot(); err != nil {
		t.Fatalf("post-drain snapshot failed: %v", err)
	}
}

// TestSequencedRequestAfterDrainRejected covers the drain race: a
// sequenced request that slipped past the draining fast path and reaches
// the sequencer after the drain completed must be answered with
// ErrDraining, not parked forever.
func TestSequencedRequestAfterDrainRejected(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "race", Hosts: 2, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	// Bypass the draining fast path to model the race where the request
	// passed it concurrently with the drain.
	done := make(chan error, 1)
	go func() {
		s.order.mu.Lock()
		defer s.order.mu.Unlock()
		done <- s.order.enterLocked(9) // a gap: nothing could ever release it
	}()
	select {
	case err := <-done:
		if !errors.Is(err, ErrDraining) {
			t.Fatalf("post-drain sequenced request: %v, want ErrDraining", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("post-drain sequenced request parked forever")
	}
}

// TestCloseUnblocksClients verifies that Close answers in-flight waiters
// instead of leaking them.
func TestCloseUnblocksClients(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "close", Hosts: 2, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		// seq 5 with no predecessors parks forever — until Close.
		_, _, err := s.Place(trace.Record{ID: 1, Lifetime: time.Hour, Shape: shape}, 0, 5)
		done <- err
	}()
	time.Sleep(10 * time.Millisecond)
	s.Close()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("parked client got a success response from Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close leaked a parked client")
	}
	if _, _, err := s.Place(trace.Record{ID: 2, Lifetime: time.Hour, Shape: shape}, 0, 0); err == nil {
		t.Fatal("closed server accepted work")
	}
}

// TestBackwardTimeClampedOnAPI pins the documented serving semantics end to
// end: Place, ExitVM and Tick with at < Now apply at the server's current
// time — no error, no time travel.
func TestBackwardTimeClampedOnAPI(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "clamp", Hosts: 2, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	if _, err := s.Tick(2*time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	// Backward tick: clamped, reports the time actually reached.
	now, err := s.Tick(time.Hour, 0)
	if err != nil {
		t.Fatalf("backward tick errored: %v", err)
	}
	if now != 2*time.Hour {
		t.Fatalf("backward tick reached %v, want the clamped 2h", now)
	}
	// Backward placement and exit: both apply at the current time.
	if _, placed, err := s.Place(trace.Record{ID: 1, Lifetime: time.Hour, Shape: shape}, 30*time.Minute, 0); err != nil || !placed {
		t.Fatalf("backward place: placed=%v err=%v", placed, err)
	}
	if removed, err := s.ExitVM(1, 45*time.Minute, 0); err != nil || !removed {
		t.Fatalf("backward exit: removed=%v err=%v", removed, err)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NowNS != 2*time.Hour {
		t.Fatalf("backward events moved time to %v", st.NowNS)
	}
	if st.Placements != 1 || st.Exits != 1 {
		t.Fatalf("clamped events not counted: %+v", st)
	}
}

// TestDrainFlushesGappedPendingInOrder covers the multi-gap flush branch:
// several sequenced requests parked behind missing predecessors must be
// applied in ascending sequence order by the drain (observable through
// best-fit host assignment with whole-host VMs), and the sequencer's cursor
// must land past the highest flushed sequence.
func TestDrainFlushesGappedPendingInOrder(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "gaps", Hosts: 4, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Seqs 2, 4, 5 park (1 and 3 never arrive). Whole-host VMs under
	// best-fit expose application order as host IDs 0, 1, 2.
	seqs := []uint64{2, 4, 5}
	hosts := make([]cluster.HostID, len(seqs))
	var wg sync.WaitGroup
	for i, q := range seqs {
		i, q := i, q
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := trace.Record{ID: cluster.VMID(q), Lifetime: time.Hour, Shape: shape}
			h, placed, err := s.Place(rec, time.Duration(q)*time.Second, q)
			if err != nil || !placed {
				t.Errorf("seq %d: placed=%v err=%v", q, placed, err)
				return
			}
			hosts[i] = h
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := s.Stats()
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

	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res.Placements != len(seqs) {
		t.Fatalf("drain flushed %d placements, want %d", res.Placements, len(seqs))
	}
	for i := range seqs {
		if hosts[i] != cluster.HostID(i) {
			t.Fatalf("flush order broken: seq %d landed on host %d, want %d", seqs[i], hosts[i], i)
		}
	}

	// After the flush the sequencer is flushed and its cursor is
	// seqs[last]+1 = 6: any late sequenced request — stale, in-gap, or
	// future — that got past the draining fast path must be answered with
	// ErrDraining rather than parked forever or misreported as stale.
	if s.order.next != 6 {
		t.Fatalf("cursor at %d after the flush, want 6", s.order.next)
	}
	for _, q := range []uint64{3, 6} {
		done := make(chan error, 1)
		go func() {
			s.order.mu.Lock()
			defer s.order.mu.Unlock()
			done <- s.order.enterLocked(q)
		}()
		select {
		case err := <-done:
			if !errors.Is(err, ErrDraining) {
				t.Fatalf("post-drain seq %d: got %v, want ErrDraining", q, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("post-drain seq %d parked forever", q)
		}
	}
}

// TestSnapshotDoesNotAdvanceTime pins /snapshot's read-only semantics.
func TestSnapshotDoesNotAdvanceTime(t *testing.T) {
	shape := resources.Vector{CPUMilli: 1000, MemoryMB: 1000, SSDGB: 0}
	s, err := New(Config{PoolName: "snap", Hosts: 2, HostShape: shape, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Tick(2*time.Hour, 0); err != nil {
		t.Fatal(err)
	}
	sample, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if sample.Time != 2*time.Hour {
		t.Fatalf("snapshot at %v, want the ticked time", sample.Time)
	}
	st, err := s.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.NowNS != 2*time.Hour {
		t.Fatalf("snapshot advanced time to %v", st.NowNS)
	}
}
