package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"
	"time"

	"lava/internal/cluster"
	"lava/internal/features"
	"lava/internal/metrics"
	"lava/internal/ptrace"
	"lava/internal/resources"
	"lava/internal/trace"
)

// codecHalf is one wire type's encoder and parser.
type codecHalf[T any] struct {
	name   string
	append func([]byte, T) ([]byte, bool)
	parse  func([]byte) (T, bool)
}

var (
	placeReqHalf  = codecHalf[PlaceRequest]{"PlaceRequest", appendPlaceRequest, parsePlaceRequest}
	exitReqHalf   = codecHalf[ExitRequest]{"ExitRequest", appendExitRequest, parseExitRequest}
	placeRespHalf = codecHalf[PlaceResponse]{"PlaceResponse", appendPlaceResponse, parsePlaceResponse}
	exitRespHalf  = codecHalf[ExitResponse]{"ExitResponse", appendExitResponse, parseExitResponse}
	errorBodyHalf = codecHalf[errorBody]{"errorBody", appendErrorBody, parseErrorBody}
)

// checkParse: if the parser accepts data, the strict reflective decode
// accepts it too, to a deeply equal value, and data is what the encoder
// writes for that value. It reports whether the parser accepted.
func (h codecHalf[T]) checkParse(t *testing.T, data []byte) bool {
	t.Helper()
	got, ok := h.parse(data)
	if !ok {
		return false
	}
	var want T
	if err := decodeStrict(data, &want); err != nil {
		t.Fatalf("%s parser accepted %q, which encoding/json refuses: %v", h.name, data, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s parser read %q as %+v, encoding/json as %+v", h.name, data, got, want)
	}
	if b, ok := h.append(nil, got); !ok || !bytes.Equal(b, data) {
		t.Fatalf("%s parser accepted %q, which its encoder does not write (it writes %q, accepted %v)", h.name, data, b, ok)
	}
	return true
}

// checkEncode: if the encoder accepts v, it wrote json.Marshal's bytes and
// the parser reads them back to v. It reports whether the encoder accepted.
func (h codecHalf[T]) checkEncode(t *testing.T, v T) bool {
	t.Helper()
	b, ok := h.append(nil, v)
	if !ok {
		return false
	}
	want, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, want) {
		t.Fatalf("%s encoder wrote %q, json.Marshal %q", h.name, b, want)
	}
	if back, ok := h.parse(b); !ok || !reflect.DeepEqual(back, v) {
		t.Fatalf("%s: parse(encode(%+v)) = %+v, accepted %v", h.name, v, back, ok)
	}
	return true
}

// checkDecode: a route's answer to a body — value or refusal — is the strict
// reflective decode's, with or without the codec in front.
func checkDecode[Req, Resp any](t *testing.T, c *codec[Req, Resp], data []byte) {
	t.Helper()
	got, gotErr := c.decode(data)
	var want Req
	wantErr := decodeStrict(data, &want)
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("body %q: with the codec %v, without %v", data, gotErr, wantErr)
	}
	if gotErr == nil && !reflect.DeepEqual(got, want) {
		t.Fatalf("body %q: with the codec %+v, without %+v", data, got, want)
	}
}

const (
	canonicalPlace = `{"seq":7,"at_ns":60000000000,"record":{"id":41,"arrival_ns":60000000000,"lifetime_ns":3600000000000,"shape":{"CPUMilli":4000,"MemoryMB":16384,"SSDGB":0},"features":{"Zone":"z1","VMShape":"n2-standard-4","VMCategory":"batch","MetadataID":"m-17","Priority":"p1","HasSSD":false,"Spot":true,"AdmissionPolicy":false,"CPUMilli":4000,"MemoryMB":16384}}}`
	classedPlace   = `{"seq":8,"record":{"id":42,"arrival_ns":0,"lifetime_ns":-5,"shape":{"CPUMilli":1,"MemoryMB":2,"SSDGB":3},"features":{"Zone":"","VMShape":"","VMCategory":"","MetadataID":"","Priority":"","HasSSD":true,"Spot":false,"AdmissionPolicy":true,"CPUMilli":-1,"MemoryMB":0},"class":"latency"}}`
	escapedPlace   = `{"record":{"id":1,"arrival_ns":0,"lifetime_ns":1,"shape":{"CPUMilli":1,"MemoryMB":1,"SSDGB":0},"features":{"Zone":"a<b","VMShape":"q\"uote","VMCategory":"café","MetadataID":"","Priority":"","HasSSD":false,"Spot":false,"AdmissionPolicy":false,"CPUMilli":0,"MemoryMB":0}}}`
)

// FuzzHotRouteCodec is the proof the hot-route codec rests on (see codec),
// and the error envelope's codec with it: on arbitrary bytes a parser that
// accepts agrees with encoding/json, and a route decodes a body the same
// with the codec as without; on arbitrary field values an encoder that
// accepts wrote json.Marshal's bytes, and they parse back to the value.
func FuzzHotRouteCodec(f *testing.F) {
	bodies := []string{
		canonicalPlace, classedPlace, escapedPlace,
		// wire_test.go / admission_test.go / serve_test.go bodies.
		`{"seq":1,"at_ns":60000000000,"record":{"id":1,"lifetime_ns":3600000000000,"shape":{"CPUMilli":1000,"MemoryMB":1000}}}`,
		`{"seq":2,"at_ns":1000,"record":{"id":2,"class":"besteffort","lifetime_ns":60000000000,"shape":{"CPUMilli":1000,"MemoryMB":1000}}}`,
		`{"record":{"id":1,"class":"gold","arrival_ns":1000000000,"lifetime_ns":3600000000000,"shape":{"CPUMilli":1000,"MemoryMB":1024,"SSDGB":0},"features":{}}}`,
		`{"seq":1,"at_ns":5,"id":3}`,
		`{"seq":1,"at_ns":5,"id":3}{"seq":2,"at_ns":5,"id":4}`,
		`{"seq":1,"at_ns":5,"id":3} garbage`,
		"{\"at_ns\":5,\"id\":3}\n",
		`{"bogus":1}`, `{nope`, ``, `null`, `{}`,
		// Integers at and past the edges of their types, and the spellings
		// encoding/json takes or refuses that the parser must leave to it.
		`{"seq":18446744073709551615,"at_ns":-9223372036854775808,"id":9223372036854775807}`,
		`{"seq":18446744073709551616,"at_ns":0,"id":0}`,
		`{"at_ns":9223372036854775808,"id":0}`,
		`{"at_ns":-0,"id":1}`, `{"at_ns":01,"id":1}`, `{"at_ns":1e3,"id":1}`, `{"at_ns":+1,"id":1}`, `{"at_ns":1.0,"id":1}`,
		`{"seq":0,"at_ns":1,"id":1}`, `{"seq":-1,"at_ns":1,"id":1}`,
		`{"SEQ":3,"at_ns":1,"id":1}`, `{"seq":3,"seq":4,"at_ns":1,"id":1}`, `{"id":1,"at_ns":1}`, `{ "at_ns":1,"id":1}`,
		`{"host":3,"placed":true}`, `{"host":-1,"placed":false}`, "{\"host\":3,\"placed\":true}\n",
		`{"host":2147483647,"placed":true}`, `{"host":2147483648,"placed":true}`, `{"host":-2147483648,"placed":true}`, `{"host":-2147483649,"placed":true}`,
		`{"host":3,"placed":1}`, `{"placed":true,"host":3}`, `{"host":3,"placed":true,"extra":1}`,
		`{"removed":true}`, `{"removed":false}`, `{"removed":"true"}`, `{"Removed":true}`,
		// Error envelopes: a refused placement's, a plain error's, and
		// ones the parser must leave to encoding/json.
		`{"error":"slo: class besteffort over admission budget (retry at virtual t=1h0m0.5s)","class":"besteffort","retry_at_ns":3600500000000}`,
		`{"error":"serve: draining"}`, `{"error":"serve: bad cell \"x\""}`, `{"error":"","class":"gold"}`,
		`{"error":"e","retry_at_ns":-5}`, `{"error":"e","retry_at_ns":0}`, `{"error":"e","class":""}`, `{"class":"c","error":"e"}`,
	}
	for _, b := range bodies {
		f.Add([]byte(b), uint64(0), int64(0), int32(0), "", "", false)
	}
	for _, s := range []struct {
		seq       uint64
		n         int64
		host      int32
		s1, class string
		flag      bool
	}{
		{1, 60e9, 3, "n2-standard-4", "", true},
		{1<<64 - 1, -1 << 63, -1 << 31, "", "latency", false},
		{0, 1<<63 - 1, 1<<31 - 1, "a<b", "standard", true},
		{2, 0, 0, `q"uote`, "", false},
		{3, -1, -1, "café", "", false},
		{4, 1, 1, "back\\slash & amp > gt", "", false},
		{5, 1, 1, "nul\x00 del\x7f bad\xff", "tab\t", true},
	} {
		f.Add([]byte(nil), s.seq, s.n, s.host, s.s1, s.class, s.flag)
	}

	f.Fuzz(func(t *testing.T, data []byte, seq uint64, n int64, host int32, s1, class string, flag bool) {
		placeReqHalf.checkParse(t, data)
		exitReqHalf.checkParse(t, data)
		placeRespHalf.checkParse(t, data)
		exitRespHalf.checkParse(t, data)
		errorBodyHalf.checkParse(t, data)
		checkDecode(t, placeCodec, data)
		checkDecode(t, exitCodec, data)

		placeReqHalf.checkEncode(t, PlaceRequest{Seq: seq, At: time.Duration(n), Record: trace.Record{
			ID: cluster.VMID(n >> 3), Arrival: time.Duration(-n), Lifetime: time.Duration(n / 7),
			Shape: resources.Vector{CPUMilli: n >> 40, MemoryMB: int64(host), SSDGB: n & 0xff},
			Feat: features.Features{Zone: s1, VMShape: class + s1, VMCategory: s1[:len(s1)/2], MetadataID: class, Priority: s1[len(s1)/2:],
				HasSSD: flag, Spot: !flag, AdmissionPolicy: n&1 == 0, CPUMilli: int64(host) << 10, MemoryMB: ^n},
			Class: class,
		}})
		exitReqHalf.checkEncode(t, ExitRequest{Seq: seq, At: time.Duration(n), ID: cluster.VMID(^n)})
		placeRespHalf.checkEncode(t, PlaceResponse{Host: cluster.HostID(host), Placed: flag})
		exitRespHalf.checkEncode(t, ExitResponse{Removed: flag})
		errorBodyHalf.checkEncode(t, errorBody{Error: s1, Class: class, RetryAtNS: time.Duration(n)})
	})
}

// TestHotRouteCodecTakesTheTrace keeps the equivalence above from being
// vacuous: every request a trace replay sends, and every response it gets,
// goes through the codec, not the fallback.
func TestHotRouteCodecTakesTheTrace(t *testing.T) {
	tr := smallTrace(t, 8, 2, 3)
	for i, rec := range tr.Records {
		if i%3 == 0 {
			rec.Class = "latency"
		}
		if !placeReqHalf.checkEncode(t, PlaceRequest{Seq: uint64(i + 1), At: rec.Arrival, Record: rec}) {
			t.Fatalf("the encoder declined generated record %+v", rec)
		}
		if !exitReqHalf.checkEncode(t, ExitRequest{Seq: uint64(i + 1), At: rec.Exit(), ID: rec.ID}) ||
			!placeRespHalf.checkEncode(t, PlaceResponse{Host: cluster.HostID(i - 1), Placed: i%2 == 0}) ||
			!exitRespHalf.checkEncode(t, ExitResponse{Removed: i%2 == 0}) {
			t.Fatalf("a codec declined the traffic of record %d", i)
		}
	}
	for _, body := range []string{canonicalPlace, classedPlace} {
		if !placeReqHalf.checkParse(t, []byte(body)) {
			t.Errorf("the parser declined a canonical body: %s", body)
		}
	}
	if placeReqHalf.checkParse(t, []byte(escapedPlace)) {
		t.Errorf("the parser took a body with escapes: %s", escapedPlace)
	}
}

// stubBackend answers every placement at once, so the handler benchmark
// times the HTTP layer alone: decode, dispatch, encode.
type stubBackend struct{}

func (stubBackend) Place(trace.Record, time.Duration, uint64) (cluster.HostID, bool, error) {
	return 3, true, nil
}
func (stubBackend) ExitVM(cluster.VMID, time.Duration, uint64) (bool, error) { return true, nil }
func (stubBackend) Tick(at time.Duration, _ uint64) (time.Duration, error)   { return at, nil }
func (stubBackend) Stats() (Stats, error)                                    { return Stats{}, nil }
func (stubBackend) snapshot() (any, error)                                   { return metrics.Sample{}, nil }
func (stubBackend) drainReport() (DrainResponse, error)                      { return DrainResponse{}, nil }
func (stubBackend) tracers() ([]*ptrace.Recorder, bool)                      { return []*ptrace.Recorder{nil}, false }

// benchBody is a request body a benchmark rewinds instead of reallocating.
type benchBody struct{ bytes.Reader }

func (*benchBody) Close() error { return nil }

// handlerRequest is a POST /place of body as a server hands it to its
// handler, with its declared Content-Length, on a body the caller rewinds.
func handlerRequest(tb testing.TB, body []byte) (*http.Request, *benchBody) {
	rd := &benchBody{}
	req, err := http.NewRequest(http.MethodPost, "/place", rd)
	if err != nil {
		tb.Fatal(err)
	}
	req.ContentLength = int64(len(body))
	return req, rd
}

// discardWriter is the cheapest http.ResponseWriter: it keeps the status and
// counts the bytes.
type discardWriter struct {
	h      http.Header
	status int
	n      int
}

func (w *discardWriter) Header() http.Header  { return w.h }
func (w *discardWriter) WriteHeader(code int) { w.status = code }
func (w *discardWriter) Write(b []byte) (int, error) {
	w.n += len(b)
	return len(b), nil
}

// benchPlaceBodies are the two /place bodies the layer benchmarks send: one
// the codec takes, and the same record with a "<" in a feature string, which
// both its encoder and its parser leave to encoding/json.
func benchPlaceBodies(b *testing.B) map[string]PlaceRequest {
	var q PlaceRequest
	if err := json.Unmarshal([]byte(canonicalPlace), &q); err != nil {
		b.Fatal(err)
	}
	esc := q
	esc.Record.Feat.Zone = "z<1"
	return map[string]PlaceRequest{"canonical": q, "fallback": esc}
}

// BenchmarkPlaceHandler is the row of the HTTP handler layer: one POST
// /place through the route table into a backend that answers at once.
func BenchmarkPlaceHandler(b *testing.B) {
	h := routes(stubBackend{})
	for name, q := range benchPlaceBodies(b) {
		body, err := json.Marshal(q)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(name, func(b *testing.B) {
			req, rd := handlerRequest(b, body)
			w := &discardWriter{h: http.Header{}}
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				rd.Reset(body)
				w.status = http.StatusOK
				h.ServeHTTP(w, req)
				if w.status != http.StatusOK {
					b.Fatalf("HTTP %d", w.status)
				}
			}
		})
	}
}

// cannedTransport answers every request with one status (0: 200) and one
// body, after reading the request as a server would.
type cannedTransport struct {
	status int
	body   []byte
}

func (c cannedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if _, err := io.Copy(io.Discard, req.Body); err != nil {
		return nil, err
	}
	req.Body.Close()
	status := c.status
	if status == 0 {
		status = http.StatusOK
	}
	return &http.Response{StatusCode: status, Body: io.NopCloser(bytes.NewReader(c.body)), ContentLength: int64(len(c.body))}, nil
}

// BenchmarkClientPlace is the row of the client layer: one Client.Place
// against a transport that answers from memory.
func BenchmarkClientPlace(b *testing.B) {
	c := &Client{Base: "http://localhost", HTTPClient: &http.Client{Transport: cannedTransport{body: []byte("{\"host\":3,\"placed\":true}\n")}}}
	ctx := context.Background()
	for name, q := range benchPlaceBodies(b) {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				resp, err := c.Place(ctx, q)
				if err != nil || resp.Host != 3 || !resp.Placed {
					b.Fatalf("Place = %+v, %v", resp, err)
				}
			}
		})
	}
}
