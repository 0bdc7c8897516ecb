package ptrace

import (
	"encoding/json"
	"io"
	"sync"
)

// Stream is one named decision stream inside a trace document.
type Stream struct {
	Policy    string     `json:"policy,omitempty"`
	Decisions []Decision `json:"decisions"`
}

// Document is the JSON trace document cmd/experiments -trace-out emits:
// every traced job's full decision stream keyed by "experiment/job".
// Encoding sorts map keys, so the document is deterministic for a given set
// of streams — TestTracingObserveOnlyAndParallelInvariant diffs it
// byte-for-byte across worker counts and engines.
type Document struct {
	K       int               `json:"k"`
	Streams map[string]Stream `json:"streams"`
}

// Sink collects finished recorders into a Document. Adds may come from
// concurrent runner workers.
type Sink struct {
	mu      sync.Mutex
	k       int
	streams map[string]Stream
}

// Add captures rec's buffered decisions under the given stream name,
// overwriting a previous stream of the same name.
func (s *Sink) Add(name string, rec *Recorder) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.streams == nil {
		s.streams = make(map[string]Stream)
	}
	if s.k == 0 {
		s.k = rec.K()
	}
	s.streams[name] = Stream{Policy: rec.Policy(), Decisions: rec.Decisions()}
}

// Len returns the number of collected streams.
func (s *Sink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.streams)
}

// Document snapshots the collected streams.
func (s *Sink) Document() Document {
	s.mu.Lock()
	defer s.mu.Unlock()
	doc := Document{K: s.k, Streams: make(map[string]Stream, len(s.streams))}
	for name, st := range s.streams {
		doc.Streams[name] = st
	}
	return doc
}

// WriteJSON writes the collected streams as an indented, deterministic JSON
// document.
func (s *Sink) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s.Document())
}
