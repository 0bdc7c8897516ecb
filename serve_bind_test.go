package lava

import (
	"context"
	"net/http/httptest"
	"testing"

	"lava/internal/model"
	"lava/internal/serve"
	"lava/internal/sim"
)

// hideSteps hides its predictor's Steps, so nothing binds its answers.
type hideSteps struct{ Predictor }

// TestServedPathBinds builds a single Server and a 3-cell feature-hash
// Fleet the way lavad does (lava.NewServer, lava.NewFleet, a model trained
// by model.Train), on the dist table and on a 5-tree GBDT, replays a trace
// against each over HTTP at concurrency 8 as lavaload does, and requires
// every cell's exit cache to have bound the VMs it holds — each live VM
// carries a binding handle of its own — in the same model calls as a twin
// whose predictor hides Steps, which binds nothing.
func TestServedPathBinds(t *testing.T) {
	tr, err := GenerateTrace(TraceConfig{Hosts: 24, Days: 1, PrefillDays: 2, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []string{"dist", "gbdt"} {
		pred, err := model.Train(kind, tr.Records, 5)
		if err != nil {
			t.Fatal(err)
		}
		for _, cells := range []int{1, 3} {
			bound := servedCells(t, tr, pred, cells)
			twin := servedCells(t, tr, hideSteps{pred}, cells)
			for c := range bound {
				b, u := bound[c], twin[c]
				if b.ModelCalls != u.ModelCalls || b.ModelCalls == 0 {
					t.Fatalf("%s, %d cells, cell %d: model calls %d bound, %d unbound", kind, cells, c, b.ModelCalls, u.ModelCalls)
				}
				if n, distinct := liveHandles(b); n < 2 || distinct != n {
					t.Fatalf("%s, %d cells, cell %d: %d live VMs hold %d binding handles; the exit cache did not bind them", kind, cells, c, n, distinct)
				}
				if n, distinct := liveHandles(u); n < 2 || distinct != 1 {
					t.Fatalf("%s, %d cells, cell %d: %d live VMs of the unbound twin hold %d binding handles, want 1", kind, cells, c, n, distinct)
				}
			}
		}
	}
}

// servedCells serves pred as lavad would — a Server for one cell, a
// feature-hash Fleet for more — replays tr against it and returns each
// cell's drained result.
func servedCells(t *testing.T, tr *Trace, pred Predictor, cells int) []*sim.Result {
	t.Helper()
	sc := ServeConfig{Pred: pred}
	var (
		h     interface{ Close() }
		drain func() ([]*sim.Result, error)
		hs    *httptest.Server
	)
	if cells == 1 {
		srv, err := NewServer(tr, sc)
		if err != nil {
			t.Fatal(err)
		}
		h, hs = srv, httptest.NewServer(srv.Handler())
		drain = func() ([]*sim.Result, error) {
			res, err := srv.Drain()
			return []*sim.Result{res}, err
		}
	} else {
		f, err := NewFleet(tr, FleetConfig{ServeConfig: sc, Cells: cells, Router: RouterFeatureHash})
		if err != nil {
			t.Fatal(err)
		}
		h, hs = f, httptest.NewServer(f.Handler())
		drain = func() ([]*sim.Result, error) {
			roll, err := f.Drain()
			if err != nil {
				return nil, err
			}
			return roll.Cells, nil
		}
	}
	defer h.Close()
	defer hs.Close()
	if _, err := (&serve.Client{Base: hs.URL}).Replay(context.Background(), tr, serve.ReplayOptions{Concurrency: 8}); err != nil {
		t.Fatal(err)
	}
	res, err := drain()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// liveHandles counts the VMs left on the cell's hosts and the distinct
// binding handles they carry.
func liveHandles(res *sim.Result) (n, distinct int) {
	seen := map[int32]bool{}
	for _, h := range res.FinalPool.Hosts() {
		for _, vm := range h.VMs() {
			n++
			seen[vm.BindSlot] = true
		}
	}
	return n, len(seen)
}
