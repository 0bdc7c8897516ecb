package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/model"
	"lava/internal/resources"
	"lava/internal/runner"
	"lava/internal/scheduler"
	"lava/internal/sim"
	"lava/internal/slo"
	"lava/internal/trace"
)

// classedTrace labels a small workload with the study class mix. Assignment
// is a pure function of (seed, record ID), so both arms of a parity test
// label identically without sharing state.
func classedTrace(t *testing.T, hosts, days int, seed int64) *trace.Trace {
	t.Helper()
	tr := smallTrace(t, hosts, days, seed)
	tr.Sort()
	mix, err := slo.ParseMix("latency=1,standard=2,besteffort=1")
	if err != nil {
		t.Fatal(err)
	}
	return slo.AssignClasses(tr, mix, seed)
}

// tightSLO is an admission config that visibly shapes the small test
// workloads: best-effort is throttled to one token every six virtual hours.
func tightSLO() *slo.Config {
	return &slo.Config{BestEffort: slo.Bucket{Burst: 2, Refill: 1, Window: 6 * time.Hour}}
}

// TestServedAdmissionParity is the single-server half of the SLO tentpole:
// a classed trace replayed through the HTTP API at concurrency 8, with
// token-bucket admission on, drains to metrics byte-identical to an offline
// sim.Run with the same admission config — rejects, per-class counts,
// fairness and fitness included.
func TestServedAdmissionParity(t *testing.T) {
	tr := classedTrace(t, 16, 3, 7)
	pred, err := model.TrainDistTable(tr.Records)
	if err != nil {
		t.Fatal(err)
	}

	offline, err := sim.Run(sim.Config{
		Trace:  tr,
		Policy: scheduler.NewLAVA(pred, time.Minute),
		SLO:    tightSLO(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if offline.SLO == nil {
		t.Fatal("offline run produced no SLO summary")
	}
	be := offline.SLO.Classes[slo.ClassBestEffort]
	if be == nil || be.Rejected == 0 {
		t.Fatalf("admission config did not shape best-effort traffic: %+v", offline.SLO.Classes)
	}
	if offline.SLO.Fairness >= 1 {
		t.Fatalf("fairness = %v with rejections present", offline.SLO.Fairness)
	}
	want, err := json.Marshal(runner.MetricsOf(offline))
	if err != nil {
		t.Fatal(err)
	}

	cfg := FromTrace(tr)
	cfg.Policy = scheduler.NewLAVA(pred, time.Minute)
	cfg.SLO = tightSLO()
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
		t.Fatalf("served classed replay diverged from offline run:\nserved:  %s\noffline: %s", got, want)
	}
	// The client saw exactly the rejections the gate counted.
	var totalRejected int64
	for _, c := range offline.SLO.Classes {
		totalRejected += c.Rejected
	}
	if rep.Rejected != totalRejected {
		t.Fatalf("client counted %d rejections, gate %d", rep.Rejected, totalRejected)
	}
	// Per-class client latency landed for every class that got traffic.
	if rep.Serving == nil || len(rep.Serving.PerClass) == 0 {
		t.Fatal("classed replay produced no per-class latency stats")
	}
	for cls, cs := range rep.Serving.PerClass {
		if cs.Requests == 0 {
			t.Fatalf("class %s has a latency block with no requests", cls)
		}
		if _, err := slo.ParseClass(cls); err != nil {
			t.Fatalf("latency block for unknown class %q", cls)
		}
	}
}

// TestFleetAdmissionParity is the federated half: a classed trace against a
// fleet with a front-door gate, run offline (RunScriptOffline) and replayed
// at 1 and at 8 workers, drains byte-identically to the sequential oracle
// over the same ops — the admission decisions, the routing, and the
// per-class rollup all replay.
func TestFleetAdmissionParity(t *testing.T) {
	tr := classedTrace(t, 16, 3, 7)
	fc := FleetFromTrace(tr)
	fc.Cells = 3
	fc.Router = "feature-hash"
	fc.SLO = tightSLO()
	fc.NewPolicy = func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil }

	ops := OpsFromTrace(tr)
	roll, err := scriptOracle(fc, ops)
	if err != nil {
		t.Fatal(err)
	}
	if roll.SLO == nil {
		t.Fatal("oracle rollup has no SLO summary")
	}
	if roll.SLO.Classes[slo.ClassBestEffort].Rejected == 0 {
		t.Fatal("front-door gate rejected nothing; tighten the test config")
	}
	want := reportJSON(t, fc, roll)
	offline, err := RunScriptOffline(fc, ops)
	if err != nil {
		t.Fatal(err)
	}
	if got := reportJSON(t, fc, offline); !bytes.Equal(got, want) {
		t.Fatalf("offline run diverged from the oracle:\noffline: %s\noracle:  %s", got, want)
	}

	for _, workers := range []int{1, 8} {
		fleet, err := NewFleet(fc)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(fleet.Handler())
		client := &Client{Base: hs.URL}
		rep, err := client.Replay(context.Background(), tr, ReplayOptions{Concurrency: workers})
		hs.Close()
		fleet.Close()
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if rep.Final == nil || len(rep.Final.Cells) == 0 {
			t.Fatalf("workers=%d: no fleet drain report", workers)
		}
		got, err := json.Marshal(rep.Final)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("online fleet (workers=%d) diverged from the oracle:\nonline: %s\noracle: %s", workers, got, want)
		}
		if rep.Rejected == 0 {
			t.Fatalf("workers=%d: client saw no 429s", workers)
		}
	}
}

// TestFleetRejectConsumesNoCellSequence pins the rejection contract: a
// rejected placement consumes its global routing turn (the sequencer moves
// on) but no cell sequence slot and no routing state — the stream continues
// and the drain never stalls on a phantom gap.
func TestFleetRejectConsumesNoCellSequence(t *testing.T) {
	shape := resources.Vector{CPUMilli: 4000, MemoryMB: 8000}
	f, err := NewFleet(FleetConfig{
		Config: Config{PoolName: "admit-test", Hosts: 4, HostShape: shape, Horizon: time.Hour,
			SLO: &slo.Config{BestEffort: slo.Bucket{Burst: 1, Window: time.Hour}}},
		Cells:     2,
		Router:    "round-robin",
		NewPolicy: func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()

	rec := func(id int, class string) trace.Record {
		return trace.Record{
			ID: cluster.VMID(1000 + id), Lifetime: time.Hour, Class: class,
			Shape: resources.Vector{CPUMilli: 1000, MemoryMB: 2000},
		}
	}
	if _, _, err := f.Place(rec(1, "besteffort"), 0, 1); err != nil {
		t.Fatalf("budget token rejected: %v", err)
	}
	_, _, err = f.Place(rec(2, "besteffort"), time.Minute, 2)
	var rej *slo.RejectError
	if !errors.As(err, &rej) {
		t.Fatalf("over-budget place = %v, want RejectError", err)
	}
	if rej.Class != slo.ClassBestEffort || rej.RetryAt != time.Hour {
		t.Fatalf("rejection = %+v, want besteffort retrying at 1h", rej)
	}
	// The global turn was consumed: seq 3 proceeds; a re-send of seq 2
	// would now be stale, proving the sequencer did not park on it.
	if _, _, err := f.Place(rec(3, "standard"), 2*time.Minute, 3); err != nil {
		t.Fatalf("stream stalled after rejection: %v", err)
	}
	if _, _, err := f.Place(rec(4, "latency"), 3*time.Minute, 2); !errors.Is(err, errStaleSeq) {
		t.Fatal("rejected request must still consume its global sequence turn")
	}

	st, err := f.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.SLO == nil {
		t.Fatal("fleet stats missing SLO block")
	}
	if got := st.SLO.Classes[slo.ClassBestEffort]; got.Admitted != 1 || got.Rejected != 1 {
		t.Fatalf("best-effort counts = %+v", got)
	}
	// A ledger-refused admin op is the same contract: it consumes its global
	// turn and no cell sequence slot, so the next op still reaches its cell.
	if _, err := f.Do(Op{Kind: OpDrainCell, Cell: 99}, 4); err == nil {
		t.Fatal("drain of cell 99 succeeded")
	}
	if _, err := f.Do(Op{Kind: OpAddHosts, Cell: 0, N: 1, At: 4 * time.Minute}, 5); err != nil {
		t.Fatalf("stream stalled after a refused admin op: %v", err)
	}
	if _, err := f.Do(Op{Kind: OpRehydrateCell, Cell: 0}, 4); !errors.Is(err, errStaleSeq) {
		t.Fatalf("re-send of the refused op's seq = %v, want errStaleSeq", err)
	}

	// Drain flushes cleanly — no cell waits on a sequence slot the
	// rejected request never took — and the rollup places exactly the
	// three admitted VMs.
	roll, err := f.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if roll.Placements != 2 {
		t.Fatalf("placements = %d, want 2 (rejected VM must not reach a cell)", roll.Placements)
	}
	if roll.SLO == nil || roll.SLO.Classes[slo.ClassBestEffort].Rejected != 1 {
		t.Fatalf("drain rollup lost the front-door rejection: %+v", roll.SLO)
	}
}

// TestAdmissionHTTPEdges covers the wire contract: rejections answer 429
// with the class and retry-at virtual time in the body, and /stats with the
// SLO layer on still decodes through a pre-class client struct
// (superset-decode). The unknown-class 400 is a TestHandlers row.
func TestAdmissionHTTPEdges(t *testing.T) {
	cfg := Config{
		PoolName:  "edge-test",
		Hosts:     2,
		HostShape: resources.Vector{CPUMilli: 4000, MemoryMB: 8000},
		Horizon:   time.Hour,
		Policy:    scheduler.NewBestFit(),
		SLO:       &slo.Config{BestEffort: slo.Bucket{Burst: 1, Window: time.Minute}},
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	var raw429 []byte
	post := func(body string) (*http.Response, errorBody) {
		t.Helper()
		resp, err := http.Post(hs.URL+"/place", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		raw429, err = readAll(resp)
		if err != nil {
			t.Fatal(err)
		}
		var eb errorBody
		_ = json.Unmarshal(raw429, &eb)
		return resp, eb
	}

	// Budget token admits; the next best-effort arrival gets a 429 whose
	// body carries the class and the next-token virtual time.
	if resp, _ := post(`{"seq":1,"record":{"id":1,"class":"besteffort","lifetime_ns":60000000000,"shape":{"CPUMilli":1000,"MemoryMB":1000}}}`); resp.StatusCode != http.StatusOK {
		t.Fatalf("first besteffort place: HTTP %d", resp.StatusCode)
	}
	resp, eb := post(`{"seq":2,"at_ns":1000,"record":{"id":2,"class":"besteffort","lifetime_ns":60000000000,"shape":{"CPUMilli":1000,"MemoryMB":1000}}}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-budget place: HTTP %d", resp.StatusCode)
	}
	if eb.Class != slo.ClassBestEffort || eb.RetryAtNS != time.Minute || eb.Error == "" {
		t.Fatalf("429 body = %+v, want class besteffort retry 1m", eb)
	}
	// The bytes json.Encoder wrote before the envelope had a codec
	// (captured at 36a2995), and its Content-Type.
	const parent429 = `{"error":"slo: class besteffort over admission budget (retry at virtual t=1m0s)","class":"besteffort","retry_at_ns":60000000000}` + "\n"
	if string(raw429) != parent429 || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("429 moved: Content-Type %q, body %q, want %q", resp.Header.Get("Content-Type"), raw429, parent429)
	}

	// /stats: a legacy client struct (no slo field) decodes the enriched
	// payload; a current one sees the per-class block.
	sresp, err := http.Get(hs.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := readAll(sresp)
	if err != nil {
		t.Fatal(err)
	}
	var legacy struct {
		Pool       string `json:"pool"`
		Placements int    `json:"placements"`
	}
	if err := json.Unmarshal(raw, &legacy); err != nil {
		t.Fatalf("legacy decode of enriched /stats failed: %v", err)
	}
	if legacy.Pool != "edge-test" || legacy.Placements != 1 {
		t.Fatalf("legacy stats = %+v", legacy)
	}
	var st Stats
	if err := json.Unmarshal(raw, &st); err != nil {
		t.Fatal(err)
	}
	if st.SLO == nil || st.SLO.Classes[slo.ClassBestEffort].Rejected != 1 {
		t.Fatalf("stats SLO block = %+v", st.SLO)
	}
	if st.SLO.Fitness != 0 {
		t.Fatalf("live stats must not carry fitness, got %v", st.SLO.Fitness)
	}
}

// TestClassedBackCompatBytes is the acceptance bar for old clients: with
// the SLO layer off — nil config, or every bucket unlimited — a classed
// trace drains to output byte-identical to the same trace with no classes
// at all. Classes never influence placement; only the admission layer reads
// them.
func TestClassedBackCompatBytes(t *testing.T) {
	plain := smallTrace(t, 8, 2, 11)
	plain.Sort()
	mix, err := slo.ParseMix("latency=1,standard=1,besteffort=1")
	if err != nil {
		t.Fatal(err)
	}
	classed := slo.AssignClasses(plain, mix, 11)

	run := func(tr *trace.Trace, cfgSLO *slo.Config) []byte {
		t.Helper()
		cfg := FromTrace(tr)
		cfg.Policy = scheduler.NewBestFit()
		cfg.SLO = cfgSLO
		srv, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv.Handler())
		client := &Client{Base: hs.URL}
		rep, err := client.Replay(context.Background(), tr, ReplayOptions{Concurrency: 4})
		hs.Close()
		srv.Close()
		if err != nil {
			t.Fatal(err)
		}
		data, err := json.Marshal(rep.Final)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	want := run(plain, nil)
	if got := run(classed, nil); !bytes.Equal(got, want) {
		t.Fatalf("classed trace with SLO off diverged from unclassed:\nclassed:   %s\nunclassed: %s", got, want)
	}
	// All-unlimited config normalizes away entirely — same bytes again.
	if got := run(classed, &slo.Config{}); !bytes.Equal(got, want) {
		t.Fatal("all-unlimited SLO config changed drain output")
	}
	if !bytes.Contains(want, []byte(`"metrics"`)) || bytes.Contains(want, []byte(`"slo"`)) {
		t.Fatalf("baseline drain unexpectedly carries an slo block: %s", want)
	}
}

// readAll drains and closes an HTTP response body.
func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}
