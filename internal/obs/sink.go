package obs

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
)

// Sink consumes trace events. Implementations must be safe for
// concurrent use. An event's Payload is valid only during Emit: a sink
// that keeps or writes the event calls Render first.
type Sink interface {
	Emit(e Event)
	Close() error
}

// JSONLSink writes one JSON object per event, suitable for offline
// analysis (jq, replay, flame-scope style tooling).
type JSONLSink struct {
	mu  sync.Mutex
	w   *bufio.Writer
	c   io.Closer
	enc *json.Encoder
}

// NewJSONLSink wraps w; if w is an io.Closer, Close closes it after
// flushing.
func NewJSONLSink(w io.Writer) *JSONLSink {
	bw := bufio.NewWriter(w)
	s := &JSONLSink{w: bw, enc: json.NewEncoder(bw)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit writes the event as one JSON line. Encoding errors are dropped:
// tracing must never fail a tuning session.
func (s *JSONLSink) Emit(e Event) {
	e.Render()
	s.mu.Lock()
	defer s.mu.Unlock()
	_ = s.enc.Encode(e)
}

// Close flushes buffered events and closes the underlying writer when
// it is closable.
func (s *JSONLSink) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.w.Flush()
	if s.c != nil {
		if cerr := s.c.Close(); err == nil {
			err = cerr
		}
	}
	return err
}

// MemorySink buffers events in memory; tests and the explain pipeline
// read them back with Events.
type MemorySink struct {
	mu     sync.Mutex
	events []Event
}

// NewMemorySink returns an empty in-memory sink.
func NewMemorySink() *MemorySink { return &MemorySink{} }

// Emit appends the event, rendered.
func (s *MemorySink) Emit(e Event) {
	e.Render()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = append(s.events, e)
}

// Events returns a copy of everything emitted so far.
func (s *MemorySink) Events() []Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]Event, len(s.events))
	copy(out, s.events)
	return out
}

// Len returns the number of buffered events.
func (s *MemorySink) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.events)
}

// Reset discards all buffered events.
func (s *MemorySink) Reset() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.events = nil
}

// Close is a no-op.
func (s *MemorySink) Close() error { return nil }

// multiSink fans events out to several sinks.
type multiSink struct{ sinks []Sink }

// MultiSink fans every event out to all non-nil sinks. With zero or one
// sink it collapses to the trivial form.
func MultiSink(sinks ...Sink) Sink {
	var nz []Sink
	for _, s := range sinks {
		if s != nil {
			nz = append(nz, s)
		}
	}
	switch len(nz) {
	case 0:
		return nil
	case 1:
		return nz[0]
	}
	return &multiSink{sinks: nz}
}

func (m *multiSink) Emit(e Event) {
	for _, s := range m.sinks {
		s.Emit(e)
	}
}

func (m *multiSink) Close() error {
	var err error
	for _, s := range m.sinks {
		if cerr := s.Close(); err == nil {
			err = cerr
		}
	}
	return err
}
