package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"lava/internal/resources"
	"lava/internal/scheduler"
)

// The wire documents below were captured at commit e37d453 — the last one
// with separate leaf and fleet payload structs — from the scenario wirePair
// builds: a 4-host pool (one Server; one 2-cell round-robin Fleet), best fit,
// TraceK 2, two sequenced placements. Virtual time makes /drain fully
// deterministic, so its bytes are pinned; /stats carries wall-clock latency,
// so its key set is.
const (
	parentServerDrain = `{"pool":"wire","policy":"bestfit","metrics":{"avg_empty_host_frac":0.8333333333333334,"avg_empty_to_free":0.9487179487179488,"avg_packing_density":0.5,"avg_cpu_util":0.125,"placements":2,"exits":0,"failed":0},"series_len":3}`
	parentFleetDrain  = `{"pool":"wire","policy":"bestfit","metrics":{"avg_empty_host_frac":0.6666666666666666,"avg_empty_to_free":0.746031746031746,"avg_packing_density":0.25,"avg_cpu_util":0.125,"placements":2,"exits":0,"failed":0},"series_len":6,"router":"round-robin","hosts":[2,2],"util_spread":0.08333333333333333,"cells":[{"pool":"wire/cell-0","policy":"bestfit","metrics":{"avg_empty_host_frac":0.6666666666666666,"avg_empty_to_free":0.7142857142857143,"avg_packing_density":0.16666666666666666,"avg_cpu_util":0.08333333333333333,"placements":1,"exits":0,"failed":0},"series_len":3},{"pool":"wire/cell-1","policy":"bestfit","metrics":{"avg_empty_host_frac":0.6666666666666666,"avg_empty_to_free":0.7777777777777777,"avg_packing_density":0.3333333333333333,"avg_cpu_util":0.16666666666666666,"placements":1,"exits":0,"failed":0},"series_len":3}]}`
	parentServerStats = `{"pool":"wire","policy":"bestfit","hosts":4,"vms":2,"now_ns":120000000000,"horizon_ns":7200000000000,"placements":2,"exits":0,"failed":0,"queue_depth":0,"pending_seq":0,"draining":false,"latency":{"requests":2,"qps":1216.5,"avg_ms":0.017,"p50_ms":0.004,"p95_ms":0.004,"p99_ms":0.004,"max_ms":0.03}}`
	parentFleetStats  = `{"pool":"wire","policy":"bestfit","router":"round-robin","cells":2,"hosts":4,"vms":2,"now_ns":120000000000,"placements":2,"exits":0,"failed":0,"queue_depth":0,"pending_seq":0,"draining":false,"cell_stats":[{"pool":"wire/cell-0","policy":"bestfit","hosts":2,"vms":1,"now_ns":60000000000,"horizon_ns":7200000000000,"placements":1,"exits":0,"failed":0,"queue_depth":0,"pending_seq":0,"draining":false},{"pool":"wire/cell-1","policy":"bestfit","hosts":2,"vms":1,"now_ns":120000000000,"horizon_ns":7200000000000,"placements":1,"exits":0,"failed":0,"queue_depth":0,"pending_seq":0,"draining":false}]}`
)

var (
	parentServerSnapshotKeys = []string{"cpu_util", "empty_host_frac", "empty_to_free", "mem_util", "num_empty_hosts", "num_vms", "packing_density", "time_ns"}
	parentServerTraceKeys    = []string{"decisions", "dropped", "k", "more", "next_after", "policy", "total"}
)

// wirePair starts the Server and the Fleet of the captured scenario behind
// httptest listeners and sends each the two placements.
func wirePair(t *testing.T) (server, fleet string) {
	t.Helper()
	geo := Config{PoolName: "wire", Hosts: 4, HostShape: resources.Vector{CPUMilli: 4000, MemoryMB: 8000},
		Horizon: 2 * time.Hour, TraceK: 2}
	sc := geo
	sc.Policy = scheduler.NewBestFit()
	srv, err := New(sc)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	f, err := NewFleet(FleetConfig{Config: geo, Cells: 2, Router: "round-robin",
		NewPolicy: func(int) (scheduler.Policy, error) { return scheduler.NewBestFit(), nil }})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(f.Close)
	urls := make([]string, 0, 2)
	for _, h := range []http.Handler{srv.Handler(), f.Handler()} {
		hs := httptest.NewServer(h)
		t.Cleanup(hs.Close)
		for _, body := range []string{
			`{"seq":1,"at_ns":60000000000,"record":{"id":1,"lifetime_ns":3600000000000,"shape":{"CPUMilli":1000,"MemoryMB":1000}}}`,
			`{"seq":2,"at_ns":120000000000,"record":{"id":2,"lifetime_ns":3600000000000,"shape":{"CPUMilli":2000,"MemoryMB":1000}}}`,
		} {
			wireDo(t, http.MethodPost, hs.URL+"/place", body)
		}
		urls = append(urls, hs.URL)
	}
	return urls[0], urls[1]
}

func wireDo(t *testing.T, method, url, body string) []byte {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("%s %s: HTTP %d, %v: %s", method, url, resp.StatusCode, err, b)
	}
	return bytes.TrimSpace(b)
}

func keysOf(t *testing.T, doc []byte) []string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("%v: %s", err, doc)
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// TestWireCompat holds the unified payload types to the documents the split
// ones produced: a single server's /stats, /snapshot and /trace keep exactly
// their key sets and its /drain its bytes; a fleet's /drain keeps its bytes
// and its /stats every key it had (it gains horizon_ns).
func TestWireCompat(t *testing.T) {
	server, fleet := wirePair(t)
	for _, tc := range []struct {
		path string
		want []string
	}{
		{"/stats", keysOf(t, []byte(parentServerStats))},
		{"/snapshot", parentServerSnapshotKeys},
		{"/trace", parentServerTraceKeys},
	} {
		if got := keysOf(t, wireDo(t, http.MethodGet, server+tc.path, "")); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("server %s keys = %v, want %v", tc.path, got, tc.want)
		}
	}
	got := keysOf(t, wireDo(t, http.MethodGet, fleet+"/stats", ""))
	for _, k := range keysOf(t, []byte(parentFleetStats)) {
		if i := sort.SearchStrings(got, k); i == len(got) || got[i] != k {
			t.Errorf("fleet /stats lost key %q: has %v", k, got)
		}
	}
	if got := wireDo(t, http.MethodPost, server+"/drain", ""); string(got) != parentServerDrain {
		t.Errorf("server /drain bytes moved:\n got %s\nwant %s", got, parentServerDrain)
	}
	if got := wireDo(t, http.MethodPost, fleet+"/drain", ""); string(got) != parentFleetDrain {
		t.Errorf("fleet /drain bytes moved:\n got %s\nwant %s", got, parentFleetDrain)
	}
}

// TestClientStatsFleet is the regression test for Client.Stats against a
// fleet: it used to decode the node into the leaf struct and silently drop
// the router, the cell counts and the per-cell breakdown.
func TestClientStatsFleet(t *testing.T) {
	_, fleet := wirePair(t)
	st, err := (&Client{Base: fleet}).Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Router != "round-robin" || st.CellCount != 2 || len(st.CellStats) != st.CellCount {
		t.Fatalf("fleet stats lost the federation: router %q, cells %d, %d cell_stats", st.Router, st.CellCount, len(st.CellStats))
	}
	if st.Placements != 2 || st.CellStats[0].Placements+st.CellStats[1].Placements != 2 || st.CellStats[1].Pool != "wire/cell-1" {
		t.Fatalf("fleet stats totals disagree with the cells: %+v", st)
	}
}

// TestClientDecodesParentDocuments feeds the typed client the documents a
// pre-unification daemon serves, leaf and fleet.
func TestClientDecodesParentDocuments(t *testing.T) {
	serveDocs := func(stats, drain string) *Client {
		mux := http.NewServeMux()
		mux.HandleFunc("/stats", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, stats) })
		mux.HandleFunc("/drain", func(w http.ResponseWriter, _ *http.Request) { io.WriteString(w, drain) })
		hs := httptest.NewServer(mux)
		t.Cleanup(hs.Close)
		return &Client{Base: hs.URL}
	}
	ctx := context.Background()

	leaf := serveDocs(parentServerStats, parentServerDrain)
	st, err := leaf.Stats(ctx)
	if err != nil || st.Hosts != 4 || st.HorizonNS != 2*time.Hour || st.Latency == nil || st.CellStats != nil {
		t.Fatalf("leaf stats = %+v, %v", st, err)
	}
	dr, err := leaf.Drain(ctx)
	if err != nil || dr.Metrics.Placements != 2 || dr.SeriesLen != 3 || dr.Cells != nil {
		t.Fatalf("leaf drain = %+v, %v", dr, err)
	}

	node := serveDocs(parentFleetStats, parentFleetDrain)
	st, err = node.Stats(ctx)
	if err != nil || st.Router != "round-robin" || st.CellCount != 2 || len(st.CellStats) != 2 || st.CellStats[0].HorizonNS != 2*time.Hour {
		t.Fatalf("fleet stats = %+v, %v", st, err)
	}
	dr, err = node.Drain(ctx)
	if err != nil || dr.Router != "round-robin" || len(dr.Cells) != 2 || !reflect.DeepEqual(dr.Hosts, []int{2, 2}) || dr.Cells[1].Metrics.Placements != 1 {
		t.Fatalf("fleet drain = %+v, %v", dr, err)
	}
	// Re-encoding what was decoded gives the document back: no field of the
	// parent's shape is lost or renamed.
	if b, _ := json.Marshal(dr); string(b) != parentFleetDrain {
		t.Fatalf("fleet drain does not round-trip:\n got %s\nwant %s", b, parentFleetDrain)
	}
}

// TestTrailingDataRejected: after a body's JSON value only JSON whitespace
// may follow. A second value or garbage used to answer 200 and apply the
// first value alone — a client concatenating two sequenced requests lost the
// second and parked the stream. Every case below is refused with 400 before
// it takes a sequence number: all of them say seq 3 (wirePair used 1 and 2),
// and seq 3 is still there for the well-formed requests at the end. The
// bodies cover a codec route on its parsed and its reflective path, a
// reflective-only route and an admin route.
func TestTrailingDataRejected(t *testing.T) {
	server, fleet := wirePair(t)
	post := func(url, body string) (int, string) {
		resp, err := http.Post(url, "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp.StatusCode, string(b)
	}
	const place3 = `{"seq":3,"at_ns":180000000000,"record":{"id":3,"lifetime_ns":3600000000000,"shape":{"CPUMilli":1000,"MemoryMB":1000}}}`
	for _, tc := range []struct {
		name, url, body string
		status          int
	}{
		{"two values", server + "/exit", `{"seq":3,"at_ns":180000000000,"id":1}{"seq":4,"at_ns":180000000000,"id":2}`, 400},
		{"garbage", server + "/exit", `{"seq":3,"at_ns":180000000000,"id":1} garbage`, 400},
		{"two values, fleet", fleet + "/exit", `{"seq":3,"at_ns":180000000000,"id":1}{"seq":4,"at_ns":180000000000,"id":2}`, 400},
		{"reflective path", server + "/place", place3 + place3, 400},
		{"reflective-only route", server + "/tick", `{"seq":3,"at_ns":180000000000}]`, 400},
		{"admin route", fleet + "/admin/add-hosts", `{"seq":3,"cell":0,"n":1}{"seq":4,"cell":0,"n":1}`, 400},
		// Trailing whitespace is not data, on either decode path.
		{"newline, parsed", server + "/exit", `{"seq":3,"at_ns":180000000000,"id":1}` + "\n", 200},
		{"spaces, reflective", server + "/exit", `{"seq":4, "at_ns":180000000000, "id":2}` + " \r\n\t ", 200},
		{"newline, admin", fleet + "/admin/add-hosts", `{"seq":3,"cell":0,"n":1}` + "\n", 200},
		{"spaces, fleet", fleet + "/exit", `{"seq":4,"at_ns":180000000000,"id":1}  `, 200},
	} {
		code, body := post(tc.url, tc.body)
		if code != tc.status {
			t.Errorf("%s: HTTP %d, want %d: %s", tc.name, code, tc.status, body)
		}
		if tc.status == 400 && !strings.Contains(body, "bad request body") {
			t.Errorf("%s: error %q does not say bad request body", tc.name, body)
		}
	}
}
