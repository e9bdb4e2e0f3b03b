package obs

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
)

// Sink receives every event emitted on a Bus. Implementations must not
// retain the event beyond the call unless they copy it (Event is a value
// type, so plain assignment copies).
type Sink interface {
	Emit(ev Event)
}

// Bus fans events out to its sinks, stamping each with a monotonically
// increasing sequence number. A nil *Bus is valid and drops everything, so
// instrumented code only ever pays a nil check when observability is off.
type Bus struct {
	sinks []Sink
	seq   uint64
}

// NewBus builds a bus over the given sinks.
func NewBus(sinks ...Sink) *Bus {
	return &Bus{sinks: sinks}
}

// Emit stamps ev with the next sequence number and delivers it to every
// sink. Safe on a nil bus.
func (b *Bus) Emit(ev Event) {
	if b == nil {
		return
	}
	b.seq++
	ev.Seq = b.seq
	for _, s := range b.sinks {
		s.Emit(ev)
	}
}

// Emitted reports how many events have passed through the bus.
func (b *Bus) Emitted() uint64 {
	if b == nil {
		return 0
	}
	return b.seq
}

// Ring is a fixed-capacity in-memory sink that keeps the most recent
// events, oldest first. It backs RunHandle.Events and tests. Its buffer
// grows as events arrive, doubling up to the capacity, so a run that emits
// few events never pays for the whole ring; once it holds capacity events
// it wraps.
type Ring struct {
	buf      []Event
	capacity int
	next     int
	wrapped  bool
	dropped  uint64
	onDrop   func()
}

// NewRing returns a ring holding up to capacity events.
func NewRing(capacity int) *Ring {
	if capacity <= 0 {
		panic("obs: ring capacity must be positive")
	}
	return &Ring{capacity: capacity}
}

// Emit appends ev, evicting the oldest event when full.
func (r *Ring) Emit(ev Event) {
	if len(r.buf) < r.capacity {
		if len(r.buf) == cap(r.buf) {
			grown := make([]Event, len(r.buf), min(max(2*len(r.buf), 16), r.capacity))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, ev)
		return
	}
	r.buf[r.next] = ev
	r.next++
	if r.next == r.capacity {
		r.next = 0
	}
	r.wrapped = true
	r.dropped++
	if r.onDrop != nil {
		r.onDrop()
	}
}

// SetOnDrop installs a hook invoked once per evicted event, letting the
// run surface silent ring truncation (e.g. as a lazily registered
// counter) without coupling the ring to the registry.
func (r *Ring) SetOnDrop(fn func()) { r.onDrop = fn }

// Len reports how many events the ring currently holds.
func (r *Ring) Len() int { return len(r.buf) }

// Dropped reports how many events were evicted to make room.
func (r *Ring) Dropped() uint64 { return r.dropped }

// Events returns the retained events in emission order.
func (r *Ring) Events() []Event {
	if !r.wrapped {
		return append([]Event(nil), r.buf...)
	}
	out := make([]Event, 0, len(r.buf))
	out = append(out, r.buf[r.next:]...)
	out = append(out, r.buf[:r.next]...)
	return out
}

// JSONLSink streams events as one JSON object per line. Encoding is
// deterministic (struct field order, omitted zero fields), so two runs with
// the same seed produce byte-identical logs. The first encoding or write
// error is retained and surfaced by Close.
type JSONLSink struct {
	w   *bufio.Writer
	c   io.Closer // non-nil when the underlying writer should be closed
	err error
}

// NewJSONL wraps w in a buffered JSONL sink. If w is an io.Closer (e.g. an
// *os.File), Close closes it after flushing.
func NewJSONL(w io.Writer) *JSONLSink {
	s := &JSONLSink{w: bufio.NewWriter(w)}
	if c, ok := w.(io.Closer); ok {
		s.c = c
	}
	return s
}

// Emit writes ev as one JSON line.
func (s *JSONLSink) Emit(ev Event) {
	if s.err != nil {
		return
	}
	data, err := json.Marshal(ev)
	if err != nil {
		s.err = err
		return
	}
	if _, err := s.w.Write(data); err != nil {
		s.err = err
		return
	}
	s.err = s.w.WriteByte('\n')
}

// Flush forces buffered lines out to the underlying writer.
func (s *JSONLSink) Flush() error {
	if s.err != nil {
		return s.err
	}
	s.err = s.w.Flush()
	return s.err
}

// Close flushes and, when the underlying writer is a closer, closes it.
// It returns the first error the sink encountered.
func (s *JSONLSink) Close() error {
	flushErr := s.Flush()
	if s.c != nil {
		if err := s.c.Close(); err != nil && flushErr == nil {
			flushErr = err
		}
	}
	return flushErr
}

// Err reports the first error the sink hit (nil while healthy).
func (s *JSONLSink) Err() error { return s.err }

// StreamJSONL parses a JSONL event log produced by JSONLSink, calling fn
// for each event in order without materializing the stream. Lines are not
// length-capped (the sink imposes no cap either); blank and whitespace-only
// lines (including CRLF artifacts) are skipped. A malformed line aborts
// with an error — except an unterminated, unparseable final line, which is
// a torn tail from an interrupted writer and is dropped, mirroring the
// binary store's recovery discipline. An fn error aborts the scan and is
// returned as-is.
func StreamJSONL(r io.Reader, fn func(Event) error) error {
	br := bufio.NewReader(r)
	line := 0
	for {
		text, rerr := br.ReadBytes('\n')
		if rerr != nil && rerr != io.EOF {
			return fmt.Errorf("obs: reading event log: %w", rerr)
		}
		line++
		if trimmed := bytes.TrimSpace(text); len(trimmed) > 0 {
			var ev Event
			if err := json.Unmarshal(trimmed, &ev); err != nil {
				if rerr == io.EOF {
					return nil // torn final line: drop, keep the prefix
				}
				return fmt.Errorf("obs: event log line %d: %w", line, err)
			}
			if err := fn(ev); err != nil {
				return err
			}
		}
		if rerr == io.EOF {
			return nil
		}
	}
}

// ReadJSONL parses a JSONL event log produced by JSONLSink into a slice.
// See StreamJSONL for the parsing rules; prefer it for large logs.
func ReadJSONL(r io.Reader) ([]Event, error) {
	var out []Event
	if err := StreamJSONL(r, func(ev Event) error {
		out = append(out, ev)
		return nil
	}); err != nil {
		return nil, err
	}
	return out, nil
}

// CountSink tallies events by kind; a cheap assertion helper for tests.
type CountSink struct {
	ByKind map[Kind]int64
	Total  int64
}

// NewCountSink returns an empty counting sink.
func NewCountSink() *CountSink { return &CountSink{ByKind: make(map[Kind]int64)} }

// Emit tallies ev.
func (c *CountSink) Emit(ev Event) {
	c.ByKind[ev.Kind]++
	c.Total++
}
