package live

import (
	"bufio"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"repro/internal/obs"
)

// A run attaches its hub to the event bus.
var _ obs.Sink = (*Hub[obs.Event])(nil)

// drain reads everything already buffered on ch without blocking.
func drain(ch <-chan int) []int {
	var got []int
	for {
		select {
		case v, ok := <-ch:
			if !ok {
				return got
			}
			got = append(got, v)
		default:
			return got
		}
	}
}

func TestHubDropsWhenFull(t *testing.T) {
	h := NewHub[int](0)
	_, ch, cancel := h.Subscribe()
	// Nobody reads: the buffer fills and the rest are dropped, and Emit
	// returns every time (a blocking Emit would hang the test).
	for i := 0; i < subBuffer+10; i++ {
		h.Emit(i)
	}
	got := drain(ch)
	if len(got) != subBuffer || got[0] != 0 || got[subBuffer-1] != subBuffer-1 {
		t.Fatalf("buffered %d values (%v...), want the first %d", len(got), got[:min(len(got), 3)], subBuffer)
	}
	h.Emit(-1)
	cancel()
	if v, ok := <-ch; !ok || v != -1 {
		t.Fatalf("value buffered before cancel lost: %v %v", v, ok)
	}
	if _, ok := <-ch; ok {
		t.Fatal("channel open after cancel")
	}
	cancel()
	h.Emit(-2) // no subscribers left: must not panic
}

func TestHubReplayBound(t *testing.T) {
	for _, tc := range []struct {
		bound, emitted int
		want           []int
	}{
		{0, 5, nil},
		{4, 2, []int{0, 1}},
		{4, 4, []int{0, 1, 2, 3}},
		{4, 10, []int{6, 7, 8, 9}},
	} {
		h := NewHub[int](tc.bound)
		for i := 0; i < tc.emitted; i++ {
			h.Emit(i)
		}
		replay, _, cancel := h.Subscribe()
		cancel()
		if len(replay) != len(tc.want) {
			t.Fatalf("bound %d after %d: replay %v, want %v", tc.bound, tc.emitted, replay, tc.want)
		}
		for i := range replay {
			if replay[i] != tc.want[i] {
				t.Fatalf("bound %d after %d: replay %v, want %v", tc.bound, tc.emitted, replay, tc.want)
			}
		}
	}
}

// TestHubReplayThenLive subscribes while another goroutine emits: each
// subscriber's replay followed by its live values must be consecutive —
// no value lost between the two and none seen twice.
func TestHubReplayThenLive(t *testing.T) {
	const n = 200 // below subBuffer, so no live value can be dropped
	h := NewHub[int](8)
	var wg sync.WaitGroup
	for s := 0; s < 8; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			replay, ch, cancel := h.Subscribe()
			defer cancel()
			if ch == nil {
				return // subscribed after Close
			}
			seen := replay
			for v := range ch {
				seen = append(seen, v)
			}
			for i := 1; i < len(seen); i++ {
				if seen[i] != seen[i-1]+1 {
					t.Errorf("%d follows %d (replay %v)", seen[i], seen[i-1], replay)
					return
				}
			}
			if len(seen) > 0 && seen[len(seen)-1] != n-1 {
				t.Errorf("stream ended at %d, want %d", seen[len(seen)-1], n-1)
			}
		}()
	}
	for i := 0; i < n; i++ {
		h.Emit(i)
		if i%25 == 0 {
			runtime.Gosched() // let subscribers join part way through
		}
	}
	h.Close()
	wg.Wait()
}

func TestHubCloseEndsStreams(t *testing.T) {
	h := NewHub[obs.Event](16)
	h.Emit(obs.Event{T: 1, Kind: obs.KindDiskTransfer, Pages: 3})
	srv := httptest.NewServer(h)
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get("Content-Type") != "application/x-ndjson" {
		t.Fatalf("status %d, content type %q", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	sc := bufio.NewScanner(resp.Body)
	next := func() obs.Event {
		t.Helper()
		if !sc.Scan() {
			t.Fatalf("stream ended early: %v", sc.Err())
		}
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("line %q: %v", sc.Text(), err)
		}
		return ev
	}
	if ev := next(); ev.T != 1 || ev.Pages != 3 {
		t.Fatalf("replayed %+v", ev)
	}
	h.Emit(obs.Event{T: 2, Kind: obs.KindDiskTransfer})
	if ev := next(); ev.T != 2 {
		t.Fatalf("live %+v", ev)
	}
	h.Close()
	if sc.Scan() {
		t.Fatalf("stream went on after Close: %q", sc.Text())
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream did not end cleanly: %v", err)
	}

	late, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	late.Body.Close()
	if late.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("subscribe after Close: status %d, want 503", late.StatusCode)
	}
	h.Emit(obs.Event{T: 3}) // after Close: dropped, must not panic
	h.Close()
}

func TestHubCancelAfterClose(t *testing.T) {
	h := NewHub[int](4)
	_, ch, cancel := h.Subscribe()
	h.Close()
	if _, ok := <-ch; ok {
		t.Fatal("channel open after Close")
	}
	cancel() // the channel is already closed: must not close it again
	cancel()
	if _, ch, cancel := h.Subscribe(); ch != nil {
		t.Fatal("Subscribe after Close returned a channel")
	} else {
		cancel()
	}
}

// TestHubConcurrent emits, subscribes, cancels and closes from several
// goroutines at once; run it under the race detector.
func TestHubConcurrent(t *testing.T) {
	h := NewHub[int](32)
	var wg sync.WaitGroup
	for e := 0; e < 2; e++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				h.Emit(i)
			}
		}()
	}
	for s := 0; s < 4; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				_, ch, cancel := h.Subscribe()
				if ch == nil {
					return
				}
				drain(ch)
				cancel()
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, ch, cancel := h.Subscribe()
		defer cancel()
		if ch == nil {
			return
		}
		for range ch { // ends when the hub closes
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			h.Emit(-i)
		}
		h.Close()
	}()
	wg.Wait()
}
