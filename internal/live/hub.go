package live

import (
	"encoding/json"
	"net/http"
	"sync"
)

// subBuffer is each subscriber's channel capacity: room for a burst of
// events while the HTTP writer flushes, small enough that a stalled client
// costs a bounded amount of memory before it starts missing events.
const subBuffer = 256

// Hub fans values out to dynamically attached subscribers: the one
// publish/subscribe mechanism behind both binaries' /events streams
// (gangsim -http streams obs.Event, gangsimd streams queue events). Emit
// never blocks — a subscriber whose buffer is full misses the value — so a
// slow client cannot stall the simulation or the queue. A hub built with
// a positive replay bound keeps that many recent values and hands them to
// each new subscriber ahead of the live ones, with no gap and no
// duplicate between the two. Close ends every stream; later subscribers
// are refused.
//
// A Hub[obs.Event] is an obs.Sink.
type Hub[T any] struct {
	mu     sync.Mutex
	ring   []T // the most recent values, oldest first, at most bound
	bound  int
	subs   map[chan T]struct{}
	closed bool
}

// NewHub returns a hub that replays up to replay recent values to each new
// subscriber (none when replay is 0).
func NewHub[T any](replay int) *Hub[T] {
	return &Hub[T]{bound: replay, subs: make(map[chan T]struct{})}
}

// Emit publishes v to every subscriber, dropping it for any whose buffer
// is full, and remembers it for replay. After Close it does nothing.
func (h *Hub[T]) Emit(v T) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	if h.bound > 0 {
		h.ring = append(h.ring, v)
		if len(h.ring) > h.bound {
			h.ring = h.ring[1:]
		}
	}
	for ch := range h.subs {
		select {
		case ch <- v:
		default:
		}
	}
}

// Subscribe attaches a subscriber. It returns the retained values, oldest
// first, and a channel carrying every value emitted after them; cancel
// detaches the subscriber and closes the channel, and may be called more
// than once. After Close, Subscribe returns a nil channel and a no-op
// cancel.
func (h *Hub[T]) Subscribe() (replay []T, ch <-chan T, cancel func()) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, nil, func() {}
	}
	replay = append(replay, h.ring...)
	c := make(chan T, subBuffer)
	h.subs[c] = struct{}{}
	return replay, c, func() {
		h.mu.Lock()
		defer h.mu.Unlock()
		if _, ok := h.subs[c]; ok {
			delete(h.subs, c)
			close(c)
		}
	}
}

// Close ends every subscriber's stream and refuses new subscribers. It is
// idempotent.
func (h *Hub[T]) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for c := range h.subs {
		delete(h.subs, c)
		close(c)
	}
}

// ServeHTTP streams the hub as NDJSON: the replayed values, then live ones
// until the client goes away or the hub closes. A closed hub answers 503.
func (h *Hub[T]) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	replay, ch, cancel := h.Subscribe()
	defer cancel()
	if ch == nil {
		http.Error(w, "event stream closed", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "application/x-ndjson")
	w.WriteHeader(http.StatusOK)
	fl, _ := w.(http.Flusher)
	enc := json.NewEncoder(w)
	for _, v := range replay {
		if enc.Encode(v) != nil {
			return
		}
	}
	if fl != nil {
		fl.Flush()
	}
	for {
		select {
		case v, open := <-ch:
			if !open {
				return
			}
			if enc.Encode(v) != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		case <-r.Context().Done():
			return
		}
	}
}
