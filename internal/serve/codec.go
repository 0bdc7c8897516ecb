package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"math"
	"strconv"
	"sync"
	"time"

	"lava/internal/cluster"
)

// Hot-route codec. /place and /exit carry almost every request a daemon
// serves, and encoding/json's reflection was the largest cost of this
// package left on their path, so their four wire types get hand-written
// codecs. The contract is accept-or-decline, never reinterpret:
//
//   - An encoder emits exactly json.Marshal's bytes, or declines: any string
//     byte that json.Marshal would escape (outside printable ASCII, or one of
//     "\<>&) declines.
//   - A parser accepts exactly what its encoder emits — keys in struct order,
//     omitempty keys absent when zero, no whitespace, integers canonical and
//     inside the field's Go type, strings of plain bytes only — or declines.
//
// Whoever is declined falls back to encoding/json (json.Marshal, decodeStrict),
// which is what serves every other route, so the accepted language, the
// status codes and the error messages are encoding/json's by construction.
// FuzzHotRouteCodec holds both halves to it.
//
// The encoders take their value, not a pointer to it: a call through a
// codec's function field is opaque to escape analysis, and a pointer passed
// to it would move the request or response it points at to the heap.
type codec[Req, Resp any] struct {
	appendReq  func([]byte, Req) ([]byte, bool)
	parseReq   func([]byte) (Req, bool)
	appendResp func([]byte, Resp) ([]byte, bool)
	parseResp  func([]byte) (Resp, bool)
}

var (
	placeCodec = &codec[PlaceRequest, PlaceResponse]{appendPlaceRequest, parsePlaceRequest, appendPlaceResponse, parsePlaceResponse}
	exitCodec  = &codec[ExitRequest, ExitResponse]{appendExitRequest, parseExitRequest, appendExitResponse, parseExitResponse}
)

// decode decodes a request body: by the codec when there is one (c may be
// nil) and it accepts, by decodeStrict otherwise.
func (c *codec[Req, Resp]) decode(b []byte) (Req, error) {
	if c != nil {
		if req, ok := c.parseReq(trimSpace(b)); ok {
			return req, nil
		}
	}
	var req Req
	err := decodeStrict(b, &req)
	return req, err
}

// bufPool holds the scratch buffers of the request path: a handler reads the
// body into one and encodes the response over it, a client encodes the
// request into one and reads the response over it.
var bufPool = sync.Pool{New: func() any { return bytes.NewBuffer(make([]byte, 0, 1024)) }}

// trimSpace cuts trailing JSON whitespace (the newline json.Encoder appends,
// a hand-typed body's line end).
func trimSpace(b []byte) []byte { return bytes.TrimRight(b, " \t\r\n") }

// decodeStrict is the reflective request decode every route can fall back
// to: unknown fields are errors, and so is anything but whitespace after the
// value — a concatenated second request would otherwise be silently dropped.
func decodeStrict(b []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(b))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// plain reports whether json.Marshal emits c inside a string as itself.
func plain(c byte) bool {
	return c >= 0x20 && c < 0x7f && c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
}

// enc appends one JSON document; declined is sticky.
type enc struct {
	b        []byte
	declined bool
}

func (e *enc) raw(s string)  { e.b = append(e.b, s...) }
func (e *enc) int(v int64)   { e.b = strconv.AppendInt(e.b, v, 10) }
func (e *enc) uint(v uint64) { e.b = strconv.AppendUint(e.b, v, 10) }
func (e *enc) bool(v bool)   { e.b = strconv.AppendBool(e.b, v) }

func (e *enc) str(s string) {
	for i := 0; i < len(s); i++ {
		if !plain(s[i]) {
			e.declined = true
			return
		}
	}
	e.b = append(append(append(e.b, '"'), s...), '"')
}

func (e *enc) done() ([]byte, bool) { return e.b, !e.declined }

// cur consumes one JSON document left to right; bad is sticky, and every
// method is a no-op returning zero once it is set.
type cur struct {
	b   []byte
	bad bool
}

// lit consumes exactly s.
func (c *cur) lit(s string) {
	if !c.opt(s) {
		c.bad = true
	}
}

// opt consumes s if it is next.
func (c *cur) opt(s string) bool {
	if c.bad || len(c.b) < len(s) || string(c.b[:len(s)]) != s {
		return false
	}
	c.b = c.b[len(s):]
	return true
}

// digits consumes a canonical non-negative integer: "0", or a nonzero digit
// and more digits, at most max.
func (c *cur) digits(max uint64) (v uint64) {
	i := 0
	for ; i < len(c.b) && c.b[i] >= '0' && c.b[i] <= '9'; i++ {
		d := uint64(c.b[i] - '0')
		if v > (max-d)/10 {
			c.bad = true
			return 0
		}
		v = v*10 + d
	}
	if c.bad || i == 0 || (i > 1 && c.b[0] == '0') {
		c.bad = true
		return 0
	}
	c.b = c.b[i:]
	return v
}

func (c *cur) uint() uint64 { return c.digits(math.MaxUint64) }

// int consumes a canonical integer of the given width; "-0" is not one.
func (c *cur) int(bits int) int64 {
	max := uint64(1)<<(bits-1) - 1
	if !c.opt("-") {
		return int64(c.digits(max))
	}
	v := c.digits(max + 1)
	if v == 0 {
		c.bad = true
	}
	return -int64(v)
}

func (c *cur) bool() bool {
	if c.opt("true") {
		return true
	}
	c.lit("false")
	return false
}

// str consumes a quoted string of plain bytes.
func (c *cur) str() string {
	c.lit(`"`)
	for i := 0; !c.bad && i < len(c.b); i++ {
		if c.b[i] == '"' {
			s := string(c.b[:i])
			c.b = c.b[i+1:]
			return s
		}
		if !plain(c.b[i]) {
			break
		}
	}
	c.bad = true
	return ""
}

// done reports whether the whole input was consumed without a decline.
func (c *cur) done() bool { return !c.bad && len(c.b) == 0 }

func appendPlaceRequest(b []byte, q PlaceRequest) ([]byte, bool) {
	e := enc{b: b}
	e.raw(`{`)
	if q.Seq != 0 {
		e.raw(`"seq":`)
		e.uint(q.Seq)
		e.raw(`,`)
	}
	if q.At != 0 {
		e.raw(`"at_ns":`)
		e.int(int64(q.At))
		e.raw(`,`)
	}
	r, f := &q.Record, &q.Record.Feat
	e.raw(`"record":{"id":`)
	e.int(int64(r.ID))
	e.raw(`,"arrival_ns":`)
	e.int(int64(r.Arrival))
	e.raw(`,"lifetime_ns":`)
	e.int(int64(r.Lifetime))
	e.raw(`,"shape":{"CPUMilli":`)
	e.int(r.Shape.CPUMilli)
	e.raw(`,"MemoryMB":`)
	e.int(r.Shape.MemoryMB)
	e.raw(`,"SSDGB":`)
	e.int(r.Shape.SSDGB)
	e.raw(`},"features":{"Zone":`)
	e.str(f.Zone)
	e.raw(`,"VMShape":`)
	e.str(f.VMShape)
	e.raw(`,"VMCategory":`)
	e.str(f.VMCategory)
	e.raw(`,"MetadataID":`)
	e.str(f.MetadataID)
	e.raw(`,"Priority":`)
	e.str(f.Priority)
	e.raw(`,"HasSSD":`)
	e.bool(f.HasSSD)
	e.raw(`,"Spot":`)
	e.bool(f.Spot)
	e.raw(`,"AdmissionPolicy":`)
	e.bool(f.AdmissionPolicy)
	e.raw(`,"CPUMilli":`)
	e.int(f.CPUMilli)
	e.raw(`,"MemoryMB":`)
	e.int(f.MemoryMB)
	e.raw(`}`)
	if r.Class != "" {
		e.raw(`,"class":`)
		e.str(r.Class)
	}
	e.raw(`}}`)
	return e.done()
}

func parsePlaceRequest(b []byte) (q PlaceRequest, ok bool) {
	c := cur{b: b}
	c.lit(`{`)
	if c.opt(`"seq":`) {
		q.Seq = c.uint()
		c.bad = c.bad || q.Seq == 0
		c.lit(`,`)
	}
	if c.opt(`"at_ns":`) {
		q.At = time.Duration(c.int(64))
		c.bad = c.bad || q.At == 0
		c.lit(`,`)
	}
	r, f := &q.Record, &q.Record.Feat
	c.lit(`"record":{"id":`)
	r.ID = cluster.VMID(c.int(64))
	c.lit(`,"arrival_ns":`)
	r.Arrival = time.Duration(c.int(64))
	c.lit(`,"lifetime_ns":`)
	r.Lifetime = time.Duration(c.int(64))
	c.lit(`,"shape":{"CPUMilli":`)
	r.Shape.CPUMilli = c.int(64)
	c.lit(`,"MemoryMB":`)
	r.Shape.MemoryMB = c.int(64)
	c.lit(`,"SSDGB":`)
	r.Shape.SSDGB = c.int(64)
	c.lit(`},"features":{"Zone":`)
	f.Zone = c.str()
	c.lit(`,"VMShape":`)
	f.VMShape = c.str()
	c.lit(`,"VMCategory":`)
	f.VMCategory = c.str()
	c.lit(`,"MetadataID":`)
	f.MetadataID = c.str()
	c.lit(`,"Priority":`)
	f.Priority = c.str()
	c.lit(`,"HasSSD":`)
	f.HasSSD = c.bool()
	c.lit(`,"Spot":`)
	f.Spot = c.bool()
	c.lit(`,"AdmissionPolicy":`)
	f.AdmissionPolicy = c.bool()
	c.lit(`,"CPUMilli":`)
	f.CPUMilli = c.int(64)
	c.lit(`,"MemoryMB":`)
	f.MemoryMB = c.int(64)
	c.lit(`}`)
	if c.opt(`,"class":`) {
		r.Class = c.str()
		c.bad = c.bad || r.Class == ""
	}
	c.lit(`}}`)
	return q, c.done()
}

func appendExitRequest(b []byte, q ExitRequest) ([]byte, bool) {
	e := enc{b: b}
	e.raw(`{`)
	if q.Seq != 0 {
		e.raw(`"seq":`)
		e.uint(q.Seq)
		e.raw(`,`)
	}
	e.raw(`"at_ns":`)
	e.int(int64(q.At))
	e.raw(`,"id":`)
	e.int(int64(q.ID))
	e.raw(`}`)
	return e.done()
}

func parseExitRequest(b []byte) (q ExitRequest, ok bool) {
	c := cur{b: b}
	c.lit(`{`)
	if c.opt(`"seq":`) {
		q.Seq = c.uint()
		c.bad = c.bad || q.Seq == 0
		c.lit(`,`)
	}
	c.lit(`"at_ns":`)
	q.At = time.Duration(c.int(64))
	c.lit(`,"id":`)
	q.ID = cluster.VMID(c.int(64))
	c.lit(`}`)
	return q, c.done()
}

func appendPlaceResponse(b []byte, r PlaceResponse) ([]byte, bool) {
	e := enc{b: b}
	e.raw(`{"host":`)
	e.int(int64(r.Host))
	e.raw(`,"placed":`)
	e.bool(r.Placed)
	e.raw(`}`)
	return e.done()
}

func parsePlaceResponse(b []byte) (r PlaceResponse, ok bool) {
	c := cur{b: b}
	c.lit(`{"host":`)
	r.Host = cluster.HostID(c.int(32))
	c.lit(`,"placed":`)
	r.Placed = c.bool()
	c.lit(`}`)
	return r, c.done()
}

func appendExitResponse(b []byte, r ExitResponse) ([]byte, bool) {
	e := enc{b: b}
	e.raw(`{"removed":`)
	e.bool(r.Removed)
	e.raw(`}`)
	return e.done()
}

func parseExitResponse(b []byte) (r ExitResponse, ok bool) {
	c := cur{b: b}
	c.lit(`{"removed":`)
	r.Removed = c.bool()
	c.lit(`}`)
	return r, c.done()
}

// appendErrorBody and parseErrorBody are the codec of the error envelope,
// under the same contract; the server answers every error through the
// first and the client reads every one through the second, so a refused
// placement (HTTP 429) costs neither side an encoding/json round trip.
func appendErrorBody(b []byte, eb errorBody) ([]byte, bool) {
	e := enc{b: b}
	e.raw(`{"error":`)
	e.str(eb.Error)
	if eb.Class != "" {
		e.raw(`,"class":`)
		e.str(eb.Class)
	}
	if eb.RetryAtNS != 0 {
		e.raw(`,"retry_at_ns":`)
		e.int(int64(eb.RetryAtNS))
	}
	e.raw(`}`)
	return e.done()
}

func parseErrorBody(b []byte) (eb errorBody, ok bool) {
	c := cur{b: b}
	c.lit(`{"error":`)
	eb.Error = c.str()
	if c.opt(`,"class":`) {
		eb.Class = c.str()
		c.bad = c.bad || eb.Class == ""
	}
	if c.opt(`,"retry_at_ns":`) {
		eb.RetryAtNS = time.Duration(c.int(64))
		c.bad = c.bad || eb.RetryAtNS == 0
	}
	c.lit(`}`)
	return eb, c.done()
}
