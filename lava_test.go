package lava

import (
	"bytes"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
)

func smallTrace(t *testing.T) *Trace {
	t.Helper()
	tr, err := GenerateTrace(TraceConfig{Hosts: 24, Days: 3, PrefillDays: 8, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestGenerateTraceDefaults(t *testing.T) {
	tr, err := GenerateTrace(TraceConfig{Hosts: 16, Days: 1, PrefillDays: 1, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tr.Hosts != 16 || len(tr.Records) == 0 {
		t.Fatalf("bad trace: hosts=%d records=%d", tr.Hosts, len(tr.Records))
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestTrainModelKinds(t *testing.T) {
	tr := smallTrace(t)
	for _, kind := range []ModelKind{ModelKM, ModelDist, ModelOracle} {
		p, err := TrainModel(tr, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if p.Name() == "" {
			t.Fatalf("%s: empty name", kind)
		}
	}
	if _, err := TrainModel(tr, "bogus"); err == nil {
		t.Fatal("unknown model kind must fail")
	}
}

// A nil trace is an error or — for the oracle, which ignores it as
// documented — fine; it used to be a nil dereference in both entry points.
func TestTrainModelNilTrace(t *testing.T) {
	if p, err := TrainModel(nil, ModelOracle); err != nil || p == nil {
		t.Fatalf("oracle over a nil trace = %v, %v", p, err)
	}
	if _, err := TrainModel(nil, ModelDist); err == nil {
		t.Fatal("training on a nil trace must fail")
	}
}

func TestSimulateManyNilTrace(t *testing.T) {
	// An unnamed spec derives its job name from the trace.
	_, err := SimulateMany(context.Background(), 1,
		SimSpec{Trace: smallTrace(t), Policy: PolicyWasteMin}, SimSpec{Policy: PolicyWasteMin})
	if err == nil || !strings.Contains(err.Error(), "spec 1 has no trace") {
		t.Fatalf("trace-less spec: err = %v", err)
	}
}

func TestNewPolicyValidation(t *testing.T) {
	if _, err := NewPolicy(PolicyNILAS, nil); err == nil {
		t.Fatal("NILAS without predictor must fail")
	}
	if _, err := NewPolicy("bogus", nil); err == nil {
		t.Fatal("unknown policy must fail")
	}
	if _, err := NewPolicy(PolicyWasteMin, nil); err != nil {
		t.Fatal("baseline must not need a predictor")
	}
}

func TestSimulateEndToEnd(t *testing.T) {
	tr := smallTrace(t)
	pred, err := TrainModel(tr, ModelOracle)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Simulate(tr, PolicyNILAS, pred)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placements == 0 || res.AvgEmptyHostFrac <= 0 {
		t.Fatalf("implausible result: %+v", res)
	}
}

func TestSimulateMany(t *testing.T) {
	tr := smallTrace(t)
	pred, err := TrainModel(tr, ModelOracle)
	if err != nil {
		t.Fatal(err)
	}
	specs := []SimSpec{
		{Trace: tr, Policy: PolicyWasteMin},
		{Trace: tr, Policy: PolicyNILAS, Pred: pred},
		{Trace: tr, Policy: PolicyLAVA, Pred: pred},
	}
	par, err := SimulateMany(context.Background(), 4, specs...)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SimulateMany(context.Background(), 1, specs...)
	if err != nil {
		t.Fatal(err)
	}
	if len(par) != len(specs) || len(seq) != len(specs) {
		t.Fatalf("results = %d/%d, want %d", len(par), len(seq), len(specs))
	}
	for i := range specs {
		if par[i].Policy != seq[i].Policy {
			t.Fatalf("spec %d: order differs: %s vs %s", i, par[i].Policy, seq[i].Policy)
		}
		// Determinism across worker counts, observed through the facade.
		if par[i].AvgEmptyHostFrac != seq[i].AvgEmptyHostFrac || par[i].Placements != seq[i].Placements {
			t.Errorf("spec %d (%s): parallel and sequential results differ", i, par[i].Policy)
		}
	}
	// Invalid spec fails the batch.
	if _, err := SimulateMany(context.Background(), 2, SimSpec{Trace: tr, Policy: PolicyLAVA}); err == nil {
		t.Fatal("LAVA without predictor must fail the batch")
	}
}

func TestSimulateScenarioFederation(t *testing.T) {
	tr := smallTrace(t)
	cfg := FleetConfig{
		ServeConfig: ServeConfig{Policy: PolicyWasteMin},
		Scenario:    "drain-wave", ScenarioSeed: 3, Cells: 4, Router: RouterFeatureHash,
	}
	roll, err := SimulateScenario(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(roll.Cells) != 4 {
		t.Fatalf("cells = %d, want 4", len(roll.Cells))
	}
	hostSum := 0
	for _, h := range roll.Hosts {
		hostSum += h
	}
	if hostSum != tr.Hosts {
		t.Fatalf("federation holds %d of %d hosts", hostSum, tr.Hosts)
	}
	if roll.Placements == 0 || roll.AvgCPUUtil <= 0 {
		t.Fatalf("implausible rollup: %+v", roll)
	}
	// Unknown scenario and oversharding fail cleanly.
	cfg.Scenario = "nope"
	if _, err := SimulateScenario(tr, cfg); err == nil {
		t.Fatal("unknown scenario must fail")
	}
	cfg.Scenario, cfg.Cells = "", tr.Hosts+1
	if _, err := SimulateScenario(tr, cfg); err == nil {
		t.Fatal("more cells than hosts must fail")
	}
}

func TestCompare(t *testing.T) {
	tr := smallTrace(t)
	pred, err := TrainModel(tr, ModelOracle)
	if err != nil {
		t.Fatal(err)
	}
	out, err := Compare(tr, pred, PolicyWasteMin, PolicyNILAS)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 2 {
		t.Fatalf("results = %d", len(out))
	}
	if out[PolicyNILAS].AvgEmptyHostFrac <= 0 {
		t.Fatal("NILAS produced no empty hosts")
	}
}

// TestHTTPServerTimeouts pins the hardening of the daemon's listener: the
// http.Server that Serve runs must bound slow-header and idle connections.
func TestHTTPServerTimeouts(t *testing.T) {
	hs := newHTTPServer(nil)
	if hs.ReadHeaderTimeout <= 0 || hs.IdleTimeout <= 0 {
		t.Fatalf("ReadHeaderTimeout = %v, IdleTimeout = %v; both must be set", hs.ReadHeaderTimeout, hs.IdleTimeout)
	}
}

// TestServeConfigMemoIsIgnored: the deprecated field builds the same server
// as its zero value — no wrapper around the predictor, no memo block in
// /stats.
func TestServeConfigMemoIsIgnored(t *testing.T) {
	tr := smallTrace(t)
	pred, err := TrainModel(tr, ModelDist)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(tr, ServeConfig{Pred: pred, Memo: true})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, placed, err := srv.Place(tr.Records[0], tr.Records[0].Arrival, 0); err != nil || !placed {
		t.Fatalf("Place = %v, %v", placed, err)
	}
	st, err := srv.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Memo != nil {
		t.Fatalf("ServeConfig.Memo still reaches /stats: %+v", st.Memo)
	}
}

// failingWriter refuses every write, as a full disk would.
type failingWriter struct{}

var errDiskFull = errors.New("disk full")

func (failingWriter) Write([]byte) (int, error) { return 0, errDiskFull }

// TestServeReportsTraceOutError: a TraceOut stream that fails while serving
// makes Serve return that error once it shuts down; a working one returns
// nil and holds every decision.
func TestServeReportsTraceOutError(t *testing.T) {
	tr := smallTrace(t)
	pred, err := TrainModel(tr, ModelDist)
	if err != nil {
		t.Fatal(err)
	}
	var ok bytes.Buffer
	for _, out := range []io.Writer{failingWriter{}, &ok} {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			done <- Serve(ctx, ln, tr, FleetConfig{ServeConfig: ServeConfig{Pred: pred, TraceK: 1, TraceOut: out}})
		}()
		_, rerr := ReplayTrace(context.Background(), "http://"+ln.Addr().String(), tr, ReplayOptions{})
		cancel()
		err = <-done
		if rerr != nil {
			t.Fatal(rerr)
		}
		switch _, failing := out.(failingWriter); {
		case failing && (!errors.Is(err, errDiskFull) || !strings.Contains(err.Error(), "TraceOut")):
			t.Fatalf("Serve with a failing TraceOut returned %v, want the write error", err)
		case !failing && (err != nil || strings.Count(ok.String(), "\n") == 0):
			t.Fatalf("Serve with a working TraceOut returned %v after writing %d bytes", err, ok.Len())
		}
	}
}
