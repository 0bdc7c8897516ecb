package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
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
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// post sends a JSON request and decodes the JSON response.
func (c *Client) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("serve client: encode %s: %w", path, err)
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	return c.do(req, path, out)
}

// get fetches and decodes a JSON resource.
func (c *Client) get(ctx context.Context, path string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.Base+path, nil)
	if err != nil {
		return err
	}
	return c.do(req, path, out)
}

func (c *Client) do(req *http.Request, path string, out any) error {
	resp, err := c.roundTrip(req, path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if out == nil {
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("serve client: decode %s: %w", path, err)
	}
	return nil
}

// roundTrip sends req and returns the response if it is a 200, for the
// caller to read and close; any other status is consumed into the error its
// envelope describes.
func (c *Client) roundTrip(req *http.Request, path string) (*http.Response, error) {
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return nil, err
	}
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

// hotPost is post for a route with a codec: the request is encoded into a
// pooled buffer and the response read whole — to EOF, so the keep-alive
// connection is reused — and parsed from the same buffer. Either side falls
// back to encoding/json when the codec declines.
func hotPost[Req, Resp any](ctx context.Context, c *Client, path string, cd *codec[Req, Resp], in *Req) (out Resp, err error) {
	buf := bufPool.Get().(*bytes.Buffer)
	buf.Reset()
	body, ok := cd.appendReq(buf.AvailableBuffer(), in)
	if !ok {
		if body, err = json.Marshal(in); err != nil {
			return out, fmt.Errorf("serve client: encode %s: %w", path, err)
		}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.roundTrip(req, path)
	if err != nil {
		// buf is not pooled again: the transport may close a request body
		// after RoundTrip returns, so it can still be reading these bytes.
		return out, err
	}
	defer resp.Body.Close()
	// A 200 means the server read the request to its end; buf is free.
	defer bufPool.Put(buf)
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return out, fmt.Errorf("serve client: read %s: %w", path, err)
	}
	if r, ok := cd.parseResp(trimSpace(buf.Bytes())); ok {
		return r, nil
	}
	if err := json.NewDecoder(buf).Decode(&out); err != nil {
		return out, fmt.Errorf("serve client: decode %s: %w", path, err)
	}
	return out, nil
}

// Place submits one placement request.
func (c *Client) Place(ctx context.Context, req PlaceRequest) (PlaceResponse, error) {
	return hotPost(ctx, c, "/place", placeCodec, &req)
}

// Exit submits one VM exit.
func (c *Client) Exit(ctx context.Context, req ExitRequest) (ExitResponse, error) {
	return hotPost(ctx, c, "/exit", exitCodec, &req)
}

// Tick advances the server's virtual time.
func (c *Client) Tick(ctx context.Context, req TickRequest) (TickResponse, error) {
	var out TickResponse
	err := c.post(ctx, "/tick", req, &out)
	return out, err
}

// Stats fetches serving counters: a leaf from a Server, a node with the
// federation fields and per-cell leaves from a Fleet.
func (c *Client) Stats(ctx context.Context) (Stats, error) {
	var out Stats
	err := c.get(ctx, "/stats", &out)
	return out, err
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
	// sequence numbers and the server's reorder buffer restores event
	// order.
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

// Replay streams a trace's event stream against the server: every CREATE
// becomes /place, every EXIT becomes /exit, in the canonical event order
// and sequence-numbered so the served decisions are byte-identical to an
// offline sim.Run of the same trace — at any Concurrency. Events past the
// trace's measurement end are skipped, exactly as offline. Unless
// SkipDrain is set, the replay finishes with /drain and returns the final
// aggregates.
//
// The same call drives a Fleet: the fleet's front-end sequencer routes the
// globally sequenced stream across its cells, so each cell replays exactly
// the shard cell.Shard would hand it offline, and the drain report gains
// the per-cell breakdown.
func (c *Client) Replay(ctx context.Context, tr *trace.Trace, opt ReplayOptions) (*ReplayReport, error) {
	workers := opt.Concurrency
	if workers <= 0 {
		workers = 1
	}
	end := tr.End()
	evs := tr.Events()
	// Events arrive pre-sorted; cut the drain-only tail.
	n := 0
	for _, ev := range evs {
		if ev.Time > end {
			break
		}
		n++
	}
	evs = evs[:n]

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
				ev := evs[i]
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
				switch ev.Kind {
				case trace.EventCreate:
					_, err = c.Place(ctx, PlaceRequest{Seq: seq, At: ev.Time, Record: ev.Rec})
				case trace.EventExit:
					_, err = c.Exit(ctx, ExitRequest{Seq: seq, At: ev.Time, ID: ev.Rec.ID})
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
				if cls, cerr := slo.ParseClass(ev.Rec.Class); cerr == nil && ev.Rec.Class != "" && ev.Kind == trace.EventCreate {
					hist.RecordClass(cls, d)
				} else {
					hist.Record(d)
				}
			}
		}()
	}
feed:
	for i := range evs {
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
		Requests: len(evs),
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
