package serve

import (
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

// DrainResponse is the final report of a served run: the identity of the
// run plus the exact aggregate metrics an offline replay of the same event
// stream produces.
type DrainResponse struct {
	Pool      string          `json:"pool"`
	Policy    string          `json:"policy"`
	Metrics   *runner.Metrics `json:"metrics"`
	SeriesLen int             `json:"series_len"`
}

// errorBody is the JSON error envelope. Admission rejections (HTTP 429)
// additionally carry the request's SLO class and the virtual time at which
// the class's next token lands, so a client can resubmit at RetryAtNS
// instead of blind backoff.
type errorBody struct {
	Error     string        `json:"error"`
	Class     string        `json:"class,omitempty"`
	RetryAtNS time.Duration `json:"retry_at_ns,omitempty"`
}

// Handler returns the HTTP API:
//
//	POST /place    PlaceRequest  -> PlaceResponse
//	POST /exit     ExitRequest   -> ExitResponse
//	POST /tick     TickRequest   -> TickResponse
//	GET  /stats                  -> Stats
//	GET  /snapshot               -> metrics.Sample
//	GET  /trace                  -> ptrace.QueryResult
//	POST /drain                  -> DrainResponse
//
// /trace filters with query parameters: vm and host select decisions
// touching one VM/host ID, from_ns/to_ns bound the virtual-time window
// (inclusive), and after/limit paginate (pass the response's next_after
// back as after while more holds). It answers 404 when tracing is disabled
// (Config.TraceK == 0).
//
// Errors come back as {"error": "..."} with 400 for malformed or invalid
// payloads, 405 for wrong methods, 409 for sequencing conflicts, 413 for
// bodies over 1 MiB, and 503 once the server is draining or closed.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	requestRoutes(mux, s)
	mux.HandleFunc("/stats", noBody(http.MethodGet, s.Stats))
	mux.HandleFunc("/snapshot", noBody(http.MethodGet, s.Snapshot))
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/drain", noBody(http.MethodPost, func() (DrainResponse, error) {
		res, err := s.Drain()
		if err != nil {
			return DrainResponse{}, err
		}
		return drainResponseOf(res), nil
	}))
	return mux
}

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

// requestRoutes registers the request-stream endpoints, identical on a
// Server and a Fleet.
func requestRoutes(mux *http.ServeMux, p placer) {
	mux.HandleFunc("/place", post((*PlaceRequest).validate, func(q PlaceRequest) (PlaceResponse, error) {
		host, placed, err := p.Place(q.Record, q.At, q.Seq)
		return PlaceResponse{Host: host, Placed: placed}, err
	}))
	mux.HandleFunc("/exit", post(nil, func(q ExitRequest) (ExitResponse, error) {
		removed, err := p.ExitVM(q.ID, q.At, q.Seq)
		return ExitResponse{Removed: removed}, err
	}))
	mux.HandleFunc("/tick", post(nil, func(q TickRequest) (TickResponse, error) {
		now, err := p.Tick(q.At, q.Seq)
		return TickResponse{Now: now}, err
	}))
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		methodErr(w)
		return
	}
	if s.tracer == nil {
		writeStatus(w, http.StatusNotFound, errors.New("serve: tracing disabled (set TraceK)"))
		return
	}
	f, err := traceFilter(r)
	if err != nil {
		writeStatus(w, http.StatusBadRequest, err)
		return
	}
	writeJSON(w, s.tracer.Query(f))
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
// check, bounded strict decode (unknown fields are errors), the route's
// validate check (nil: the endpoint has none), then fn, whose error maps
// onto a status through writeErr. Every body-carrying route of a Server and
// a Fleet is built here, so the two cannot answer the same bad request
// differently.
func post[Req, Resp any](validate func(*Req) error, fn func(Req) (Resp, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			methodErr(w)
			return
		}
		var req Req
		dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
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
		writeJSON(w, resp)
	}
}

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
	case errors.Is(err, errStaleSeq), errors.Is(err, errDupSeq):
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
