package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"lava/internal/cell"
	"lava/internal/model"
	"lava/internal/ptrace"
	"lava/internal/scheduler"
	"lava/internal/sim"
)

// getJSON fetches url and decodes the response into out, returning the
// HTTP status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil && resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatal(err)
		}
	}
	return resp.StatusCode
}

// TestServeTraceParity: a traced served replay at concurrency 8 records the
// identical decision stream as a traced offline sim.Run of the same trace —
// the serving layer's determinism contract extended to traces.
func TestServeTraceParity(t *testing.T) {
	tr := smallTrace(t, 16, 3, 7)
	pred, err := model.TrainDistTable(tr.Records)
	if err != nil {
		t.Fatal(err)
	}

	offRec := ptrace.New(ptrace.Options{K: 3, Policy: "lava"})
	if _, err := sim.Run(sim.Config{Trace: tr, Policy: scheduler.NewLAVA(pred, time.Minute), Tracer: offRec}); err != nil {
		t.Fatal(err)
	}

	cfg := FromTrace(tr)
	cfg.Policy = scheduler.NewLAVA(pred, time.Minute)
	cfg.TraceK = 3
	cfg.TraceCap = -1 // unbounded: compare full streams
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()

	if _, err := (&Client{Base: hs.URL}).Replay(context.Background(), tr, ReplayOptions{Concurrency: 8}); err != nil {
		t.Fatal(err)
	}

	want, err := json.Marshal(offRec.Decisions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.Marshal(srv.Tracer().Decisions())
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Fatalf("served trace differs from offline trace (%d vs %d decisions)",
			srv.Tracer().Len(), offRec.Len())
	}
}

// TestTraceEndpoint drives GET /trace: filters, pagination edges, bad
// parameters, wrong method, and the 404 for untraced servers.
func TestTraceEndpoint(t *testing.T) {
	tr := smallTrace(t, 8, 2, 3)
	cfg := FromTrace(tr)
	cfg.Policy = scheduler.NewWasteMin()
	cfg.TraceK = 2
	cfg.TraceCap = -1
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	if _, err := (&Client{Base: hs.URL}).Replay(context.Background(), tr, ReplayOptions{SkipDrain: true}); err != nil {
		t.Fatal(err)
	}

	var page ptrace.QueryResult
	if code := getJSON(t, hs.URL+"/trace?limit=10", &page); code != http.StatusOK {
		t.Fatalf("GET /trace = %d", code)
	}
	if page.K != 2 || len(page.Decisions) != 10 || !page.More {
		t.Fatalf("first page: k=%d n=%d more=%v", page.K, len(page.Decisions), page.More)
	}

	// Paginate to exhaustion; pages must chain without overlap or gaps.
	total, last := len(page.Decisions), page.Decisions[len(page.Decisions)-1].Seq
	for page.More {
		next := ptrace.QueryResult{}
		if code := getJSON(t, fmt.Sprintf("%s/trace?limit=500&after=%d", hs.URL, page.NextAfter), &next); code != http.StatusOK {
			t.Fatalf("paged GET = %d", code)
		}
		if len(next.Decisions) == 0 {
			t.Fatal("more=true but next page empty")
		}
		if next.Decisions[0].Seq <= last {
			t.Fatalf("page overlap: seq %d after %d", next.Decisions[0].Seq, last)
		}
		total += len(next.Decisions)
		last = next.Decisions[len(next.Decisions)-1].Seq
		page = next
	}
	if uint64(total) != srv.Tracer().Seq() {
		t.Fatalf("paged %d decisions, recorder holds %d", total, srv.Tracer().Seq())
	}

	// VM filter returns only that VM's decisions.
	vmID := tr.Records[0].ID
	var vmPage ptrace.QueryResult
	if code := getJSON(t, fmt.Sprintf("%s/trace?vm=%d", hs.URL, vmID), &vmPage); code != http.StatusOK {
		t.Fatalf("vm filter = %d", code)
	}
	if len(vmPage.Decisions) == 0 {
		t.Fatal("vm filter found nothing")
	}
	for _, d := range vmPage.Decisions {
		if d.VM != vmID {
			t.Fatalf("vm filter leaked %+v", d)
		}
	}

	// Edges: bad number, negative limit, wrong method.
	if code := getJSON(t, hs.URL+"/trace?vm=abc", nil); code != http.StatusBadRequest {
		t.Fatalf("bad vm param = %d, want 400", code)
	}
	if code := getJSON(t, hs.URL+"/trace?limit=-1", nil); code != http.StatusBadRequest {
		t.Fatalf("negative limit = %d, want 400", code)
	}
	resp, err := http.Post(hs.URL+"/trace", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /trace = %d, want 405", resp.StatusCode)
	}

	// Tracing disabled: /trace is 404.
	cfg2 := FromTrace(tr)
	cfg2.Policy = scheduler.NewWasteMin()
	srv2, err := New(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	if code := getJSON(t, hs2.URL+"/trace", nil); code != http.StatusNotFound {
		t.Fatalf("untraced /trace = %d, want 404", code)
	}
}

// TestFleetTraceParity: with per-cell tracers armed, a federated replay at
// concurrency 8 records, in every cell, the identical decision stream as a
// traced offline sim.Run of that cell's shard.
func TestFleetTraceParity(t *testing.T) {
	const cells = 4
	tr := smallTrace(t, 16, 3, 7)
	tr.Sort()
	pred, err := model.TrainDistTable(tr.Records)
	if err != nil {
		t.Fatal(err)
	}

	plan, err := cell.PlanCells(tr, "feature-hash", cells)
	if err != nil {
		t.Fatal(err)
	}
	offline := make([]*ptrace.Recorder, cells)
	for i, ct := range plan.Cells {
		rec := ptrace.New(ptrace.Options{K: 3, Policy: "lava"})
		if _, err := sim.Run(sim.Config{Trace: ct, Policy: scheduler.NewLAVA(pred, time.Minute), Tracer: rec}); err != nil {
			t.Fatalf("offline cell %d: %v", i, err)
		}
		offline[i] = rec
	}

	fc := FleetFromTrace(tr)
	fc.Cells = cells
	fc.Router = "feature-hash"
	fc.TraceK = 3
	fc.TraceCap = -1
	fc.NewPolicy = func(int) (scheduler.Policy, error) {
		return scheduler.NewLAVA(pred, time.Minute), nil
	}
	fleet, err := NewFleet(fc)
	if err != nil {
		t.Fatal(err)
	}
	defer fleet.Close()
	hs := httptest.NewServer(fleet.Handler())
	defer hs.Close()
	if _, err := (&Client{Base: hs.URL}).Replay(context.Background(), tr, ReplayOptions{Concurrency: 8}); err != nil {
		t.Fatal(err)
	}

	for i := 0; i < cells; i++ {
		rec := fleet.cells[i].Tracer()
		if rec == nil {
			t.Fatalf("cell %d has no tracer", i)
		}
		want, err := json.Marshal(offline[i].Decisions())
		if err != nil {
			t.Fatal(err)
		}
		got, err := json.Marshal(rec.Decisions())
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Fatalf("cell %d trace differs from offline shard (%d vs %d decisions)",
				i, rec.Len(), offline[i].Len())
		}
	}

	// The HTTP surface: one cell, then the all-cells fan-out.
	var one FleetTraceResponse
	if code := getJSON(t, hs.URL+"/trace?cell=2&limit=5", &one); code != http.StatusOK {
		t.Fatalf("GET /trace?cell=2 = %d", code)
	}
	if len(one.Cells) != 1 || one.Cells[0].Cell != 2 || len(one.Cells[0].Decisions) != 5 {
		t.Fatalf("cell query: %+v", one)
	}
	var all FleetTraceResponse
	if code := getJSON(t, hs.URL+"/trace?limit=1", &all); code != http.StatusOK {
		t.Fatalf("GET /trace = %d", code)
	}
	if len(all.Cells) != cells {
		t.Fatalf("fan-out returned %d cells, want %d", len(all.Cells), cells)
	}
	if code := getJSON(t, hs.URL+"/trace?cell=99", nil); code != http.StatusBadRequest {
		t.Fatalf("out-of-range cell = %d, want 400", code)
	}
}
