package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"lava/internal/runner"
	"lava/internal/slo"
	"lava/internal/trace"
)

// Client is a typed HTTP client for the placement API.
type Client struct {
	// Base is the server root, e.g. "http://127.0.0.1:8080".
	Base string
	// HTTPClient defaults to http.DefaultClient. Every route honours its
	// Transport (http.DefaultTransport when nil) and its Timeout; requests go
	// to the transport directly, so none follows a redirect or uses a cookie
	// jar (the server sends neither).
	HTTPClient *http.Client

	hot atomic.Pointer[hotRoutes] // the hot routes of Base, built once per Base
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// jsonHeader is the header of every request. Transports and middleware that
// change headers do so on a clone (RoundTripper's contract), so this map is
// only ever read.
var jsonHeader = http.Header{"Content-Type": {"application/json"}}

// newRoute returns the template request of the route at path, made by
// http.NewRequest: every request of the route is a shallow copy of it and
// shares its parsed URL and header read-only.
func newRoute(base, path string) (*http.Request, error) {
	req, err := http.NewRequest(http.MethodPost, base+path, nil)
	if err != nil {
		return nil, err
	}
	req.Header = jsonHeader
	if u := req.URL.User; u != nil {
		// What Client.Do adds for a URL with user info.
		pw, _ := u.Password()
		req.Header = jsonHeader.Clone()
		req.SetBasicAuth(u.Username(), pw)
	}
	return req, nil
}

// hotRoutes holds the templates of the hot routes for one Base value.
type hotRoutes struct {
	base        string
	place, exit *http.Request
	err         error // Base does not make a request URL
}

// hotRoutes returns the hot routes of the current Base, building them when
// Base changed since the last call.
func (c *Client) hotRoutes() (*hotRoutes, error) {
	hr := c.hot.Load()
	if hr == nil || hr.base != c.Base {
		hr = &hotRoutes{base: c.Base}
		if hr.place, hr.err = newRoute(c.Base, "/place"); hr.err == nil {
			hr.exit, hr.err = newRoute(c.Base, "/exit")
		}
		c.hot.Store(hr)
	}
	return hr, hr.err
}

// send posts body as a shallow copy of tmpl, a template from newRoute,
// straight through HTTPClient's Transport, and hands the body of a 200 to
// read. HTTPClient's Timeout is a context deadline over both. A transport
// error comes back as the *url.Error Client.Do would return (`Post "<url>":
// …`), any other status as the error checkStatus makes of it.
func (c *Client) send(ctx context.Context, tmpl *http.Request, body []byte, read func(io.Reader) error) error {
	hc := c.httpClient()
	if hc.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, hc.Timeout)
		defer cancel()
	}
	rt := hc.Transport
	if rt == nil {
		rt = http.DefaultTransport
	}
	// The body is what http.NewRequest makes of a *bytes.Reader: a type the
	// transport knows is in memory, so it writes headers and body in one
	// go, and rewindable through GetBody, so a request whose reused
	// keep-alive connection died before it was written is retried on a
	// fresh one.
	req := tmpl.WithContext(ctx)
	req.Body = io.NopCloser(bytes.NewReader(body))
	req.GetBody = func() (io.ReadCloser, error) { return io.NopCloser(bytes.NewReader(body)), nil }
	req.ContentLength = int64(len(body))
	resp, err := rt.RoundTrip(req)
	if err != nil {
		return &url.Error{Op: "Post", URL: tmpl.URL.Redacted(), Err: err}
	}
	if resp, err = checkStatus(resp, tmpl.URL.Path); err != nil {
		return err
	}
	defer resp.Body.Close()
	return read(resp.Body)
}

// post sends a JSON request and decodes the JSON response into out, unless
// out is nil.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("serve client: encode %s: %w", path, err)
	}
	tmpl, err := newRoute(c.Base, path)
	if err != nil {
		return err
	}
	return c.send(ctx, tmpl, body, func(r io.Reader) error {
		if out == nil {
			return nil
		}
		if err := json.NewDecoder(r).Decode(out); err != nil {
			return fmt.Errorf("serve client: decode %s: %w", path, err)
		}
		return nil
	})
}

// checkStatus returns resp if it is a 200, for the caller to read and
// close; any other status is consumed into the error its envelope
// describes.
func checkStatus(resp *http.Response, path string) (*http.Response, error) {
	if resp.StatusCode == http.StatusOK {
		return resp, nil
	}
	defer resp.Body.Close()
	var eb errorBody
	if json.NewDecoder(io.LimitReader(resp.Body, 4096)).Decode(&eb) == nil && eb.Error != "" {
		if resp.StatusCode == http.StatusTooManyRequests && eb.Class != "" {
			// Surface admission rejections as the typed error so callers
			// can branch with slo.IsReject and honor RetryAt.
			return nil, fmt.Errorf("serve client: %s: %w", path,
				&slo.RejectError{Class: eb.Class, RetryAt: eb.RetryAtNS})
		}
		return nil, fmt.Errorf("serve client: %s: %s (HTTP %d)", path, eb.Error, resp.StatusCode)
	}
	return nil, fmt.Errorf("serve client: %s: HTTP %d", path, resp.StatusCode)
}

// hotPost is post for a route with a codec, on the route's template tmpl
// (see hotRoutes): the request is encoded into a pooled buffer and the
// response read whole — to EOF, so the keep-alive connection is reused —
// and parsed from the same buffer. Either side falls back to encoding/json
// when the codec declines.
func hotPost[Req, Resp any](ctx context.Context, c *Client, tmpl *http.Request, cd *codec[Req, Resp], in *Req) (out Resp, err error) {
	path := tmpl.URL.Path
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	b, ok := cd.appendReq(buf.AvailableBuffer(), in)
	if !ok {
		if b, err = json.Marshal(in); err != nil {
			return out, fmt.Errorf("serve client: encode %s: %w", path, err)
		}
	}
	// buf is pooled again only once read has run: after any other outcome
	// the transport may close the request body after RoundTrip returns, so
	// it can still be reading b.
	err = c.send(ctx, tmpl, b, func(body io.Reader) error {
		// A 200 means the server read the request to its end; buf is free.
		defer bufPool.Put(buf)
		if _, err := buf.ReadFrom(body); err != nil {
			return fmt.Errorf("serve client: read %s: %w", path, err)
		}
		if r, ok := cd.parseResp(trimSpace(buf.Bytes())); ok {
			out = r
			return nil
		}
		if err := json.NewDecoder(buf).Decode(&out); err != nil {
			return fmt.Errorf("serve client: decode %s: %w", path, err)
		}
		return nil
	})
	return out, err
}

// Place submits one placement request.
func (c *Client) Place(ctx context.Context, req PlaceRequest) (PlaceResponse, error) {
	hr, err := c.hotRoutes()
	if err != nil {
		return PlaceResponse{}, err
	}
	return hotPost(ctx, c, hr.place, placeCodec, &req)
}

// Exit submits one VM exit.
func (c *Client) Exit(ctx context.Context, req ExitRequest) (ExitResponse, error) {
	hr, err := c.hotRoutes()
	if err != nil {
		return ExitResponse{}, err
	}
	return hotPost(ctx, c, hr.exit, exitCodec, &req)
}

// Drain finishes the served run and returns the final report: a leaf from a
// Server, a node with the per-cell breakdown from a Fleet.
func (c *Client) Drain(ctx context.Context) (DrainResponse, error) {
	var out DrainResponse
	err := c.post(ctx, "/drain", struct{}{}, &out)
	return out, err
}

// DrainFleet is Drain; the name is kept as a wrapper only because bench/
// (which this repo's changes may not edit) calls it.
func (c *Client) DrainFleet(ctx context.Context) (DrainResponse, error) { return c.Drain(ctx) }

// ReplayOptions shape a Replay run.
type ReplayOptions struct {
	// Concurrency is the number of in-flight request workers (default 1).
	// Any value produces identical placement decisions: requests carry
	// sequence numbers and the server's sequencer restores event order.
	Concurrency int

	// QPS paces request admission (requests per wall-clock second across
	// all workers); <= 0 replays as fast as the server accepts.
	QPS float64

	// SkipDrain leaves the server running for further traffic instead of
	// finishing the replay with /drain.
	SkipDrain bool
}

// ReplayReport is the client-side outcome of a replay.
type ReplayReport struct {
	Requests int
	// Rejected counts placements the server's admission control turned away
	// with HTTP 429. Rejections are expected traffic shaping, not errors:
	// the replay keeps going and the server's drain report accounts for them
	// per class.
	Rejected int64
	Elapsed  time.Duration
	// Hist holds client-observed round-trip latencies; Serving is its
	// summary with achieved throughput.
	Hist    *runner.LatencyHist
	Serving *runner.ServingStats
	// Final is the drain report (nil when SkipDrain): a single Server's
	// aggregates, or a Fleet's host-weighted rollup with the federation
	// breakdown — router, per-cell host counts and reports — in its node
	// fields.
	Final *DrainResponse
}

// Replay streams a trace's script against the server: OpsFromTrace(tr), op
// i under sequence number i+1 — every OpPlace as /place, every OpExit as
// /exit — so the served decisions are byte-identical to an offline sim.Run
// of the same trace at any Concurrency. Unless SkipDrain is set, the replay
// finishes with /drain and returns the final aggregates.
//
// The same call drives a Fleet: the fleet's front-end sequencer routes the
// globally sequenced stream across its cells, so each cell replays exactly
// the shard cell.Shard would hand it offline, and the drain report gains
// the per-cell breakdown.
//
// With HTTPClient nil, Replay keeps one idle connection per worker on a
// transport of its own and closes them all before it returns.
func (c *Client) Replay(ctx context.Context, tr *trace.Trace, opt ReplayOptions) (*ReplayReport, error) {
	workers := opt.Concurrency
	if workers <= 0 {
		workers = 1
	}
	if dt, ok := http.DefaultTransport.(*http.Transport); ok && c.HTTPClient == nil {
		// The default transport keeps two idle connections per host, so past
		// two workers nearly every request would dial anew. Replay on a
		// clone that keeps one per worker, and close them when done: an idle
		// connection left behind holds up the server's graceful shutdown.
		rt := dt.Clone()
		rt.MaxIdleConnsPerHost = workers
		if rt.MaxIdleConns > 0 {
			rt.MaxIdleConns = max(rt.MaxIdleConns, workers)
		}
		defer rt.CloseIdleConnections()
		c = &Client{Base: c.Base, HTTPClient: &http.Client{Transport: rt}}
	}
	ops := OpsFromTrace(tr)
	var (
		hist     runner.LatencyHist
		rejected atomic.Int64
		start    = time.Now()
		feed     = make(chan int)
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()

	var interval time.Duration
	if opt.QPS > 0 {
		interval = time.Duration(float64(time.Second) / opt.QPS)
	}

	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		cancel()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range feed {
				op := &ops[i]
				seq := uint64(i + 1)
				if interval > 0 {
					due := start.Add(time.Duration(i) * interval)
					if d := time.Until(due); d > 0 {
						select {
						case <-time.After(d):
						case <-ctx.Done():
							return
						}
					}
				}
				reqStart := time.Now()
				var err error
				switch op.Kind {
				case OpPlace:
					_, err = c.Place(ctx, PlaceRequest{Seq: seq, At: op.At, Record: op.Rec})
				case OpExit:
					_, err = c.Exit(ctx, ExitRequest{Seq: seq, At: op.At, ID: op.VM})
				}
				if err != nil {
					if slo.IsReject(err) {
						// Traffic shaping, not failure: the request consumed
						// its sequence turn server-side, so the replay stays
						// in lockstep — count it and move on.
						rejected.Add(1)
						continue
					}
					fail(err)
					return
				}
				d := time.Since(reqStart)
				if cls, cerr := slo.ParseClass(op.Rec.Class); cerr == nil && op.Rec.Class != "" {
					hist.RecordClass(cls, d)
				} else {
					hist.Record(d)
				}
			}
		}()
	}
feed:
	for i := range ops {
		select {
		case feed <- i:
		case <-ctx.Done():
			break feed
		}
	}
	close(feed)
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	rep := &ReplayReport{
		Requests: len(ops),
		Rejected: rejected.Load(),
		Elapsed:  time.Since(start),
		Hist:     &hist,
	}
	rep.Serving = hist.Stats(rep.Elapsed)
	if !opt.SkipDrain {
		fd, err := c.Drain(ctx)
		if err != nil {
			return nil, err
		}
		rep.Final = &fd
	}
	return rep, nil
}
