package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"lava/internal/cluster"
	"lava/internal/ptrace"
	"lava/internal/runner"
	"lava/internal/sim"
	"lava/internal/slo"
	"lava/internal/trace"
)

// Wire types. Durations travel as integer nanoseconds (the _ns convention
// every JSON surface in this repo uses); VM records reuse the trace.Record
// shape so a trace file line is literally a valid placement payload.

// PlaceRequest asks for one VM placement at virtual time At (times in the
// past clamp forward to the server's current time, so an omitted At means
// "now"). Seq > 0 enrolls the request in the strictly ordered stream.
type PlaceRequest struct {
	Seq    uint64        `json:"seq,omitempty"`
	At     time.Duration `json:"at_ns,omitempty"`
	Record trace.Record  `json:"record"`
}

// PlaceResponse reports the decision. Placed false with no error means the
// pool had no feasible host (counted as a failed placement, as offline).
type PlaceResponse struct {
	Host   cluster.HostID `json:"host"`
	Placed bool           `json:"placed"`
}

// ExitRequest reports that a VM exited at virtual time At.
type ExitRequest struct {
	Seq uint64        `json:"seq,omitempty"`
	At  time.Duration `json:"at_ns"`
	ID  cluster.VMID  `json:"id"`
}

// ExitResponse reports whether the VM was actually running.
type ExitResponse struct {
	Removed bool `json:"removed"`
}

// TickRequest advances virtual time without an event.
type TickRequest struct {
	Seq uint64        `json:"seq,omitempty"`
	At  time.Duration `json:"at_ns"`
}

// TickResponse reports the time reached.
type TickResponse struct {
	Now time.Duration `json:"now_ns"`
}

// DrainResponse is the final report of a served run, one recursive type for
// both shapes of the service: the identity of the run plus the exact
// aggregate metrics an offline replay of the same event stream produces. A
// Server answers a leaf. A Fleet answers a node: the leaf fields hold the
// host-weighted fleet rollup (so single-pool clients keep working
// unchanged), and the federation breakdown — router, per-cell host counts,
// utilization spread, one leaf per cell — rides alongside, omitted from a
// leaf.
type DrainResponse struct {
	Pool      string          `json:"pool"`
	Policy    string          `json:"policy"`
	Metrics   *runner.Metrics `json:"metrics"`
	SeriesLen int             `json:"series_len"`

	Router     string          `json:"router,omitempty"`
	Hosts      []int           `json:"hosts,omitempty"`
	UtilSpread float64         `json:"util_spread,omitempty"`
	Cells      []DrainResponse `json:"cells,omitempty"`
}

// FleetDrainResponse is DrainResponse; the name is kept as an alias only
// because bench/ (which this repo's changes may not edit) spells it.
type FleetDrainResponse = DrainResponse

// errorBody is the JSON error envelope. Admission rejections (HTTP 429)
// additionally carry the request's SLO class and the virtual time at which
// the class's next token lands, so a client can resubmit at RetryAtNS
// instead of blind backoff.
type errorBody struct {
	Error     string        `json:"error"`
	Class     string        `json:"class,omitempty"`
	RetryAtNS time.Duration `json:"retry_at_ns,omitempty"`
}

// Handler returns the server's HTTP API: the route table of routes, with
// leaf payloads.
func (s *Server) Handler() http.Handler { return routes(s) }

func (s *Server) snapshot() (any, error) { return s.Snapshot() }

func (s *Server) drainReport() (DrainResponse, error) {
	res, err := s.Drain()
	if err != nil {
		return DrainResponse{}, err
	}
	return drainResponseOf(res), nil
}

func (s *Server) tracers() ([]*ptrace.Recorder, bool) { return []*ptrace.Recorder{s.tracer}, false }

// drainResponseOf projects one machine's final result into its wire form.
func drainResponseOf(res *sim.Result) DrainResponse {
	return DrainResponse{
		Pool:      res.PoolName,
		Policy:    res.Policy,
		Metrics:   runner.MetricsOf(res),
		SeriesLen: res.Series.Len(),
	}
}

// placer is the typed request surface a Server and a Fleet share.
type placer interface {
	Place(rec trace.Record, at time.Duration, seq uint64) (cluster.HostID, bool, error)
	ExitVM(id cluster.VMID, at time.Duration, seq uint64) (bool, error)
	Tick(at time.Duration, seq uint64) (time.Duration, error)
}

// backend is what the route table fronts: a Server (a leaf) or a Fleet (a
// node over its cells' leaves). The payload types are shared and recursive,
// so the table does not know which one it serves.
type backend interface {
	placer
	Stats() (Stats, error)
	snapshot() (any, error) // leaf: metrics.Sample; node: FleetSnapshot
	drainReport() (DrainResponse, error)
	// tracers lists the decision recorders, one for a leaf and one per cell
	// for a node (node reports which); entries are nil when tracing is off.
	tracers() (recs []*ptrace.Recorder, node bool)
}

// doer is a backend that executes fleet operations; routes gives it the
// /admin surface.
type doer interface {
	Do(op Op, seq uint64) (OpResult, error)
}

// routes builds the one route table both Handler methods return:
//
//	POST /place    PlaceRequest  -> PlaceResponse (a node routes it to a cell)
//	POST /exit     ExitRequest   -> ExitResponse  (a node follows the VM's cell)
//	POST /tick     TickRequest   -> TickResponse  (a node fans out)
//	GET  /stats                  -> Stats
//	GET  /snapshot               -> metrics.Sample | FleetSnapshot
//	GET  /trace                  -> ptrace.QueryResult | FleetTraceResponse
//	POST /drain                  -> DrainResponse
//
// /trace filters with query parameters: vm and host select decisions
// touching one VM/host ID, from_ns/to_ns bound the virtual-time window
// (inclusive), and after/limit paginate (pass the response's next_after
// back as after while more holds). A node additionally takes cell=N to
// restrict the query to one cell; without it every cell answers, in cell
// order. It answers 404 when tracing is disabled (Config.TraceK == 0).
//
// A backend that can Do also gets the elasticity surface; each op is
// sequenced through the same global sequencer as the request stream:
//
//	POST /admin/add-hosts      AdminAddHostsRequest   -> AdminOKResponse
//	POST /admin/remove-host    AdminRemoveHostRequest -> AdminOKResponse
//	POST /admin/drain-cell     AdminCellRequest       -> AdminOKResponse
//	POST /admin/rehydrate-cell AdminCellRequest       -> AdminOKResponse
//	POST /admin/split-cell     AdminSplitRequest      -> AdminSplitResponse
//	POST /admin/merge-cells    AdminMergeRequest      -> AdminOKResponse
//	POST /admin/rebalance      AdminRebalanceRequest  -> AdminRebalanceResponse
//
// Errors come back as {"error": "..."} with 400 for malformed or invalid
// payloads, 405 for wrong methods, 409 for sequencing conflicts and for a
// /place whose VM ID is live, 413 for bodies over 1 MiB, 429 for admission
// rejections and 503 once the backend is draining or closed.
func routes(b backend) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/place", post(placeCodec, (*PlaceRequest).validate, func(q PlaceRequest) (PlaceResponse, error) {
		host, placed, err := b.Place(q.Record, q.At, q.Seq)
		return PlaceResponse{Host: host, Placed: placed}, err
	}))
	mux.HandleFunc("/exit", post(exitCodec, nil, func(q ExitRequest) (ExitResponse, error) {
		removed, err := b.ExitVM(q.ID, q.At, q.Seq)
		return ExitResponse{Removed: removed}, err
	}))
	mux.HandleFunc("/tick", post(nil, nil, func(q TickRequest) (TickResponse, error) {
		now, err := b.Tick(q.At, q.Seq)
		return TickResponse{Now: now}, err
	}))
	mux.HandleFunc("/stats", noBody(http.MethodGet, b.Stats))
	mux.HandleFunc("/snapshot", noBody(http.MethodGet, b.snapshot))
	mux.HandleFunc("/trace", traceHandler(b))
	mux.HandleFunc("/drain", noBody(http.MethodPost, b.drainReport))
	d, ok := b.(doer)
	if !ok {
		return mux
	}
	admin := func(op Op, seq uint64) (AdminOKResponse, error) {
		_, err := d.Do(op, seq)
		return AdminOKResponse{OK: true}, err
	}
	mux.HandleFunc("/admin/add-hosts", post(nil, (*AdminAddHostsRequest).validate, func(q AdminAddHostsRequest) (AdminOKResponse, error) {
		return admin(Op{Kind: OpAddHosts, Cell: q.Cell, N: q.N, At: q.At}, q.Seq)
	}))
	mux.HandleFunc("/admin/remove-host", post(nil, nil, func(q AdminRemoveHostRequest) (AdminOKResponse, error) {
		return admin(Op{Kind: OpRemoveHost, Cell: q.Cell, Host: q.Host, At: q.At}, q.Seq)
	}))
	mux.HandleFunc("/admin/drain-cell", post(nil, nil, func(q AdminCellRequest) (AdminOKResponse, error) {
		return admin(Op{Kind: OpDrainCell, Cell: q.Cell}, q.Seq)
	}))
	mux.HandleFunc("/admin/rehydrate-cell", post(nil, nil, func(q AdminCellRequest) (AdminOKResponse, error) {
		return admin(Op{Kind: OpRehydrateCell, Cell: q.Cell}, q.Seq)
	}))
	mux.HandleFunc("/admin/split-cell", post(nil, nil, func(q AdminSplitRequest) (AdminSplitResponse, error) {
		res, err := d.Do(Op{Kind: OpSplitCell, Cell: q.Cell, N: q.N, At: q.At}, q.Seq)
		return AdminSplitResponse{NewCell: res.NewCell}, err
	}))
	mux.HandleFunc("/admin/merge-cells", post(nil, nil, func(q AdminMergeRequest) (AdminOKResponse, error) {
		return admin(Op{Kind: OpMergeCells, Cell: q.From, Into: q.Into, At: q.At}, q.Seq)
	}))
	mux.HandleFunc("/admin/rebalance", post(nil, nil, func(q AdminRebalanceRequest) (AdminRebalanceResponse, error) {
		res, err := d.Do(Op{Kind: OpRebalance, N: q.MaxMoves, At: q.At}, q.Seq)
		return AdminRebalanceResponse{Moves: res.Moves}, err
	}))
	return mux
}

// CellTrace is one cell's page of a node's trace query.
type CellTrace struct {
	Cell int `json:"cell"`
	ptrace.QueryResult
}

// FleetTraceResponse is the /trace payload of a node: one filtered page per
// queried cell.
type FleetTraceResponse struct {
	Cells []CellTrace `json:"cells"`
}

// traceHandler is the one /trace handler: a leaf answers its recorder's
// page, a node one page per queried cell.
func traceHandler(b backend) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			methodErr(w)
			return
		}
		recs, node := b.tracers()
		if recs[0] == nil {
			writeStatus(w, http.StatusNotFound, errors.New("serve: tracing disabled (set TraceK)"))
			return
		}
		flt, err := traceFilter(r)
		if err != nil {
			writeStatus(w, http.StatusBadRequest, err)
			return
		}
		if !node {
			writeJSON(w, recs[0].Query(flt))
			return
		}
		lo, hi := 0, len(recs)
		if v := r.URL.Query().Get("cell"); v != "" {
			c, err := strconv.Atoi(v)
			if err != nil || c < 0 || c >= len(recs) {
				writeStatus(w, http.StatusBadRequest, fmt.Errorf("serve: bad cell %q (fleet has %d)", v, len(recs)))
				return
			}
			lo, hi = c, c+1
		}
		out := FleetTraceResponse{Cells: make([]CellTrace, 0, hi-lo)}
		for c := lo; c < hi; c++ {
			out.Cells = append(out.Cells, CellTrace{Cell: c, QueryResult: recs[c].Query(flt)})
		}
		writeJSON(w, out)
	}
}

// traceFilter parses /trace query parameters into a ptrace.Filter.
func traceFilter(r *http.Request) (ptrace.Filter, error) {
	f := ptrace.MatchAll()
	q := r.URL.Query()
	parse := func(name string, into *int64) error {
		v := q.Get(name)
		if v == "" {
			return nil
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("serve: bad %s %q: %w", name, v, err)
		}
		*into = n
		return nil
	}
	var from, to, after, limit int64
	for _, p := range []struct {
		name string
		into *int64
	}{
		{"vm", &f.VM}, {"host", &f.Host},
		{"from_ns", &from}, {"to_ns", &to},
		{"after", &after}, {"limit", &limit},
	} {
		if err := parse(p.name, p.into); err != nil {
			return f, err
		}
	}
	if after < 0 || limit < 0 || from < 0 || to < 0 {
		return f, errors.New("serve: trace filter values must be non-negative")
	}
	f.From, f.To = time.Duration(from), time.Duration(to)
	f.After, f.Limit = uint64(after), int(limit)
	return f, nil
}

// validate refuses an unknown SLO class before the request takes a sequence
// number or a routing turn, so the client can correct and resend it under
// the same seq.
func (q *PlaceRequest) validate() error {
	_, err := slo.ParseClass(q.Record.Class)
	return err
}

// maxBodyBytes bounds a request body; a larger one answers 413.
const maxBodyBytes = 1 << 20

// post builds the handler of a POST endpoint that takes a JSON body: method
// check, the body read whole under the size bound, the route's codec if it
// has one (nil: it has none) and otherwise — or when the codec declines —
// the strict reflective decode (unknown fields and trailing data are
// errors), the route's validate check (nil: the endpoint has none), then fn,
// whose error maps onto a status through writeErr. Every body-carrying route
// of a Server and a Fleet is built here, so the two cannot answer the same
// bad request differently.
func post[Req, Resp any](c *codec[Req, Resp], validate func(*Req) error, fn func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			methodErr(w)
			return
		}
		buf := bufPool.Get().(*bytes.Buffer)
		defer bufPool.Put(buf)
		buf.Reset()
		var req Req
		_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		if err == nil {
			req, err = c.decode(buf.Bytes())
		}
		if err != nil {
			code := http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				code = http.StatusRequestEntityTooLarge
			}
			writeStatus(w, code, fmt.Errorf("serve: bad request body: %w", err))
			return
		}
		if validate != nil {
			if err := validate(&req); err != nil {
				writeStatus(w, http.StatusBadRequest, err)
				return
			}
		}
		resp, err := fn(req)
		if err != nil {
			writeErr(w, err)
			return
		}
		if c != nil {
			// The request's strings were copied out of buf; it is free.
			buf.Reset()
			if out, ok := c.appendResp(buf.AvailableBuffer(), &resp); ok {
				w.Header()["Content-Type"] = jsonContentType
				_, _ = w.Write(append(out, '\n')) // json.Encoder's line end
				return
			}
		}
		writeJSON(w, resp)
	}
}

// jsonContentType is the codec path's Content-Type value, shared by every
// response: the server only reads it, and Header.Set would allocate a new
// slice per request.
var jsonContentType = []string{"application/json"}

// noBody builds the handler of an endpoint that reads no request body: the
// GET reads, and POST /drain.
func noBody[Resp any](method string, fn func() (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != method {
			methodErr(w)
			return
		}
		resp, err := fn()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, resp)
	}
}

func methodErr(w http.ResponseWriter) {
	writeStatus(w, http.StatusMethodNotAllowed, errors.New("serve: method not allowed"))
}

// writeErr maps server errors onto HTTP statuses.
func writeErr(w http.ResponseWriter, err error) {
	var rej *slo.RejectError
	switch {
	case errors.As(err, &rej):
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusTooManyRequests)
		_ = json.NewEncoder(w).Encode(errorBody{
			Error:     err.Error(),
			Class:     rej.Class,
			RetryAtNS: rej.RetryAt,
		})
	case errors.Is(err, ErrDraining), errors.Is(err, ErrClosed):
		writeStatus(w, http.StatusServiceUnavailable, err)
	case errors.Is(err, errStaleSeq), errors.Is(err, errDupSeq), errors.Is(err, sim.ErrLiveVM):
		writeStatus(w, http.StatusConflict, err)
	default:
		writeStatus(w, http.StatusInternalServerError, err)
	}
}

func writeStatus(w http.ResponseWriter, code int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(errorBody{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}
