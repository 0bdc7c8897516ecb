package serve

import (
	"context"
	"errors"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/resources"
	"lava/internal/scheduler"
	"lava/internal/slo"
	"lava/internal/trace"
)

// hotServer starts a best-fit Server over a pool no test below fills.
func hotServer(t testing.TB) *Server {
	t.Helper()
	srv, err := New(Config{PoolName: "hot", Hosts: 64, HostShape: resources.Vector{CPUMilli: 64000, MemoryMB: 256000},
		Horizon: time.Hour, Policy: scheduler.NewBestFit()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	return srv
}

// hotRecord is the placement the in-process tests and BenchmarkServerPlace
// send, under VM ID id.
func hotRecord(id int) trace.Record {
	return trace.Record{ID: cluster.VMID(id), Lifetime: time.Hour, Shape: resources.Vector{CPUMilli: 1000, MemoryMB: 1000}}
}

// TestHotRouteAllocBudgets pins the allocations of one /place and one /exit
// on our side of net/http: the client through a transport that answers from
// memory, the handler over a backend that answers at once, and the
// server's typed methods applied in their sequencer turns; and of a refused
// placement's round trip, the handler over a backend that refuses and the
// client over a transport that answers 429. Each ceiling is the count
// measured when the client stopped copying its request and rebuilding its
// request object per call, the handler stopped wrapping a body of declared
// length and the error envelope got its codec, plus one; the server's, the
// count measured once requests became stack values applied in their turns
// (Place 1: the VM object; ExitVM 0), plus one. The client's counts include
// the canned transport's own response (3 allocations). Under the race
// detector sync.Pool drops a quarter of what is put back, so a row that
// takes from a pool (our calls and buffers, fmt's printers) and counts more
// there than its ceiling has a race ceiling: the count measured under the
// detector, rounded down, plus two. Every other row keeps its ceiling.
func TestHotRouteAllocBudgets(t *testing.T) {
	ctx := context.Background()
	client := func(status int, body string) *Client {
		return &Client{Base: "http://localhost", HTTPClient: &http.Client{Transport: cannedTransport{status, []byte(body)}}}
	}
	place, exit := client(0, "{\"host\":3,\"placed\":true}\n"), client(0, "{\"removed\":true}\n")
	refused := client(http.StatusTooManyRequests, reject429)
	var q PlaceRequest
	if err := decodeStrict([]byte(canonicalPlace), &q); err != nil {
		t.Fatal(err)
	}
	handler := func(b backend) func() int {
		h, w, body := routes(b), &discardWriter{h: http.Header{}}, []byte(canonicalPlace)
		req, rd := handlerRequest(t, body)
		return func() int {
			rd.Reset(body)
			w.status = http.StatusOK
			h.ServeHTTP(w, req)
			return w.status
		}
	}
	accept, refuse := handler(stubBackend{}), handler(rejectBackend{})
	srv := hotServer(t)
	const runs = 200
	var placed, exited int
	for _, tc := range []struct {
		name         string
		budget, race float64 // race: the ceiling under the race detector
		fn           func()
	}{
		{"Client.Place", 6, 8, func() {
			if r, err := place.Place(ctx, q); err != nil || !r.Placed {
				t.Fatalf("Place = %+v, %v", r, err)
			}
		}},
		{"Client.Exit", 6, 8, func() {
			if r, err := exit.Exit(ctx, ExitRequest{Seq: 9, At: time.Minute, ID: 41}); err != nil || !r.Removed {
				t.Fatalf("Exit = %+v, %v", r, err)
			}
		}},
		{"Client.Place refused", 17, 22, func() {
			if _, err := refused.Place(ctx, q); !slo.IsReject(err) {
				t.Fatalf("Place over a 429 = %v, want a rejection", err)
			}
		}},
		{"handler /place", 6, 6, func() {
			if code := accept(); code != http.StatusOK {
				t.Fatalf("HTTP %d", code)
			}
		}},
		{"handler /place refused", 12, 15, func() {
			if code := refuse(); code != http.StatusTooManyRequests {
				t.Fatalf("HTTP %d, want 429", code)
			}
		}},
		{"Server.Place", 2, 2, func() {
			placed++
			if _, ok, err := srv.Place(hotRecord(placed), 0, 0); err != nil || !ok {
				t.Fatalf("Place = %v, %v", ok, err)
			}
		}},
		// Exits the VMs the Server.Place case placed, oldest first.
		{"Server.ExitVM", 1, 1, func() {
			exited++
			if ok, err := srv.ExitVM(cluster.VMID(exited), 0, 0); err != nil || !ok {
				t.Fatalf("ExitVM(%d) = %v, %v", exited, ok, err)
			}
		}},
	} {
		budget := tc.budget
		if raceEnabled {
			budget = tc.race
		}
		if got := testing.AllocsPerRun(runs, tc.fn); got > budget {
			t.Errorf("%s: %.1f allocs per call, budget %.0f", tc.name, got, budget)
		}
	}
}

// reject429 is what the route table answers a placement its backend
// refuses at t=1m for class besteffort: json.Encoder's bytes of the
// envelope.
const reject429 = `{"error":"slo: class besteffort over admission budget (retry at virtual t=1m0s)","class":"besteffort","retry_at_ns":60000000000}` + "\n"

// rejectBackend refuses every placement, as admission control refuses an
// over-budget class.
type rejectBackend struct{ stubBackend }

func (rejectBackend) Place(trace.Record, time.Duration, uint64) (cluster.HostID, bool, error) {
	return 0, false, &slo.RejectError{Class: slo.ClassBestEffort, RetryAt: time.Minute}
}

// BenchmarkServerPlace is the row of the typed request surface: one
// Server.Place and the ExitVM that keeps the pool steady, each applied in
// its sequencer turn. BenchmarkPlaceHandler's backend answers at once, so
// only this row sees what a turn costs.
func BenchmarkServerPlace(b *testing.B) {
	srv := hotServer(b)
	b.ReportAllocs()
	for i := 1; i <= b.N; i++ {
		if _, ok, err := srv.Place(hotRecord(i), 0, 0); err != nil || !ok {
			b.Fatalf("Place = %v, %v", ok, err)
		}
		if ok, err := srv.ExitVM(cluster.VMID(i), 0, 0); err != nil || !ok {
			b.Fatalf("ExitVM = %v, %v", ok, err)
		}
	}
}

// TestReplayReusesConnections replays over the default client at
// concurrency 8: every worker keeps its keep-alive connection, so the server
// sees at most one new connection per worker. http.DefaultTransport keeps
// two idle connections per host, and over it this replay dialled hundreds.
func TestReplayReusesConnections(t *testing.T) {
	tr := smallTrace(t, 40, 2, 3)
	cfg := FromTrace(tr)
	cfg.Policy = scheduler.NewBestFit()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var dialed atomic.Int64
	hs := httptest.NewUnstartedServer(srv.Handler())
	hs.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			dialed.Add(1)
		}
	}
	hs.Start()
	defer hs.Close()
	const workers = 8
	rep, err := (&Client{Base: hs.URL}).Replay(context.Background(), tr, ReplayOptions{Concurrency: workers})
	if err != nil {
		t.Fatal(err)
	}
	if n := dialed.Load(); n > workers {
		t.Fatalf("%d requests dialled %d connections, want at most %d", rep.Requests, n, workers)
	}
}

// dyingConn is a client connection the test can kill: the first write after
// die is set closes it and writes nothing, as a connection the server
// closed while it sat idle looks to a transport that had not yet read the
// close.
type dyingConn struct {
	net.Conn
	die *atomic.Bool
}

func (c *dyingConn) Write(b []byte) (int, error) {
	if c.die.CompareAndSwap(true, false) {
		c.Conn.Close()
		return 0, net.ErrClosed
	}
	return c.Conn.Write(b)
}

// TestPlaceRetriesDeadIdleConnection: the second of two Place calls finds
// its reused keep-alive connection dead before a byte is written. The
// transport retries such a request on a fresh connection only when it can
// rewind the body through GetBody, so the call must succeed on a second
// dial.
func TestPlaceRetriesDeadIdleConnection(t *testing.T) {
	hs := httptest.NewServer(hotServer(t).Handler())
	defer hs.Close()
	var die atomic.Bool
	var dials atomic.Int64
	rt := http.DefaultTransport.(*http.Transport).Clone()
	defer rt.CloseIdleConnections()
	rt.DialContext = func(ctx context.Context, network, addr string) (net.Conn, error) {
		dials.Add(1)
		conn, err := (&net.Dialer{}).DialContext(ctx, network, addr)
		return &dyingConn{Conn: conn, die: &die}, err
	}
	c := &Client{Base: hs.URL, HTTPClient: &http.Client{Transport: rt}}
	ctx := context.Background()
	for i := 1; i <= 2; i++ {
		die.Store(i == 2)
		if r, err := c.Place(ctx, PlaceRequest{Seq: uint64(i), Record: hotRecord(i)}); err != nil || !r.Placed {
			t.Fatalf("Place %d = %+v, %v", i, r, err)
		}
	}
	if die.Load() || dials.Load() != 2 {
		t.Fatalf("the reused connection was not the one that died: %d dials, die still set %v", dials.Load(), die.Load())
	}
}

// stampTransport adds a header the way middleware must: on a clone of the
// request, never on the caller's header.
type stampTransport struct{ base http.RoundTripper }

func (t stampTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	req = req.Clone(req.Context())
	req.Header.Set("X-Stamp", "1")
	return t.base.RoundTrip(req)
}

// TestSharedHeaderReadOnly replays concurrently through a transport that
// stamps each request's clone: the header the hot routes share is never
// written (the race detector watches it), and every request still reaches
// the server stamped.
func TestSharedHeaderReadOnly(t *testing.T) {
	tr := smallTrace(t, 16, 1, 5)
	cfg := FromTrace(tr)
	cfg.Policy = scheduler.NewBestFit()
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var unstamped atomic.Int64
	h := srv.Handler()
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Header.Get("X-Stamp") != "1" || r.Header.Get("Content-Type") != "application/json" {
			unstamped.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	defer hs.Close()
	rt := http.DefaultTransport.(*http.Transport).Clone()
	defer rt.CloseIdleConnections()
	c := &Client{Base: hs.URL, HTTPClient: &http.Client{Transport: stampTransport{rt}}}
	if _, err := c.Replay(context.Background(), tr, ReplayOptions{Concurrency: 4}); err != nil {
		t.Fatal(err)
	}
	if n := unstamped.Load(); n > 0 {
		t.Fatalf("%d requests reached the server without their headers", n)
	}
	want := http.Header{"Content-Type": {"application/json"}}
	hr, _ := c.hotRoutes()
	for _, tmpl := range []*http.Request{hr.place, hr.exit} {
		if !reflect.DeepEqual(tmpl.Header, want) {
			t.Fatalf("the shared header of %s changed: %v", tmpl.URL.Path, tmpl.Header)
		}
	}
	if !reflect.DeepEqual(jsonHeader, want) {
		t.Fatalf("the shared header changed: %v", jsonHeader)
	}
}

// TestHotRouteErrors: a transport error reads as Client.Do's does,
// `Post "<url>": …`, and unwraps to a *url.Error; a Base that does not
// parse fails every call; a new Base takes effect on the next call;
// HTTPClient.Timeout bounds a hot route and /drain alike.
func TestHotRouteErrors(t *testing.T) {
	ctx := context.Background()
	hs := httptest.NewServer(hotServer(t).Handler())
	base := hs.URL
	hs.Close()
	c := &Client{Base: base}
	_, err := c.Place(ctx, PlaceRequest{Record: hotRecord(1)})
	var ue *url.Error
	if !errors.As(err, &ue) || !strings.HasPrefix(err.Error(), `Post "`+base+`/place": `) {
		t.Fatalf("Place to a closed server: %v", err)
	}
	if _, err := (&Client{Base: "http://[::1"}).Exit(ctx, ExitRequest{ID: 1}); err == nil || !strings.Contains(err.Error(), "parse") {
		t.Fatalf("Exit with a bad Base: %v", err)
	}
	hs = httptest.NewServer(hotServer(t).Handler())
	defer hs.Close()
	c.Base = hs.URL
	if r, err := c.Place(ctx, PlaceRequest{Record: hotRecord(1)}); err != nil || !r.Placed {
		t.Fatalf("Place after a new Base = %+v, %v", r, err)
	}

	release := make(chan struct{})
	stuck := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) { <-release }))
	defer stuck.Close()
	defer close(release)
	rt := http.DefaultTransport.(*http.Transport).Clone()
	defer rt.CloseIdleConnections()
	c = &Client{Base: stuck.URL, HTTPClient: &http.Client{Transport: rt, Timeout: 50 * time.Millisecond}}
	if _, err := c.Place(ctx, PlaceRequest{Record: hotRecord(1)}); !errors.As(err, &ue) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Place past the Timeout: %v", err)
	}
	if _, err := c.Drain(ctx); !errors.As(err, &ue) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Drain past the Timeout: %v", err)
	}
}

// sliceCtx is a context type that reads as comparable but panics under ==
// when v holds a slice.
type sliceCtx struct {
	context.Context
	v any
}

// TestCallRequestUnderIncomparableContext: a pooled call compares the
// context of its last request with the caller's only where == cannot panic.
// Two values of a by-value context type whose field holds a slice read as
// different contexts, and Place under one twice builds a second request
// instead of panicking.
func TestCallRequestUnderIncomparableContext(t *testing.T) {
	a, b := sliceCtx{context.Background(), []int{1}}, sliceCtx{context.Background(), []int{1}}
	if sameContext(a, b) || sameContext(a, a) {
		t.Fatal("two contexts whose == panics read as one")
	}
	bg := context.Background()
	if cc, cancel := context.WithCancel(bg); !sameContext(bg, context.Background()) || !sameContext(cc, cc) || sameContext(cc, bg) {
		t.Fatal("sameContext misreads context.Background or a derived context")
	} else {
		cancel()
	}
	c := &Client{Base: "http://localhost", HTTPClient: &http.Client{Transport: cannedTransport{body: []byte("{\"host\":3,\"placed\":true}\n")}}}
	for i := 1; i <= 2; i++ {
		if r, err := c.Place(a, PlaceRequest{Seq: uint64(i), Record: hotRecord(i)}); err != nil || !r.Placed {
			t.Fatalf("Place %d = %+v, %v", i, r, err)
		}
	}
}

// BenchmarkRejectRoundTrip is the row of a refused placement on our side of
// net/http: the handler answering 429 over a backend that refuses, and the
// client reading a 429 into the typed rejection.
func BenchmarkRejectRoundTrip(b *testing.B) {
	b.Run("handler", func(b *testing.B) {
		h, w, body := routes(rejectBackend{}), &discardWriter{h: http.Header{}}, []byte(canonicalPlace)
		req, rd := handlerRequest(b, body)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rd.Reset(body)
			h.ServeHTTP(w, req)
			if w.status != http.StatusTooManyRequests {
				b.Fatalf("HTTP %d, want 429", w.status)
			}
		}
	})
	b.Run("client", func(b *testing.B) {
		c := &Client{Base: "http://localhost", HTTPClient: &http.Client{Transport: cannedTransport{http.StatusTooManyRequests, []byte(reject429)}}}
		q := benchPlaceBodies(b)["canonical"]
		ctx := context.Background()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := c.Place(ctx, q); !slo.IsReject(err) {
				b.Fatalf("Place over a 429 = %v, want a rejection", err)
			}
		}
	})
}
