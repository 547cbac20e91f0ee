package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"
)

// Live job progress: GET /v1/jobs/{id}/events is a Server-Sent-Events
// stream. Each job owns a broadcaster; the per-attempt obs registry's
// stream hook publishes one "span" event per span open/close/event record
// (obs.StreamEvent as data), the lifecycle publishes "status" records, and
// the terminal response is delivered as a final "done" event before every
// subscriber channel closes. Subscribers attaching after the job finished
// get the terminal event immediately.
//
// Backpressure is drop-oldest: each subscriber has a queue of streamQueue
// records, and a slow reader loses its oldest undelivered records —
// counted in serve.sse_dropped — never stalls the engine goroutines
// publishing. The terminal "done" event is always delivered:
// close displaces queued records to make room for it if it must.

// streamMsg is one SSE frame: the event name and its JSON data line.
type streamMsg struct {
	event string
	data  []byte
}

// streamQueue bounds each SSE subscriber's event queue: room for a burst
// of span records while the reader writes the earlier ones out.
const streamQueue = 256

// broadcaster fans one job's event stream out to its SSE subscribers.
type broadcaster struct {
	dropped func(int64) // records lost to slow subscribers

	mu       sync.Mutex
	subs     map[chan streamMsg]struct{}
	closed   bool
	terminal *streamMsg // retained for post-finish subscribers
}

func newBroadcaster(dropped func(int64)) *broadcaster {
	if dropped == nil {
		dropped = func(int64) {}
	}
	return &broadcaster{
		dropped: dropped,
		subs:    map[chan streamMsg]struct{}{},
	}
}

// publish encodes v and offers it to every subscriber, dropping each slow
// subscriber's oldest queued record to make room. Publishes from parallel
// engine goroutines are serialized by the mutex, so each subscriber sees
// one total order.
func (b *broadcaster) publish(event string, v any) {
	if b == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	msg := streamMsg{event: event, data: data}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	for ch := range b.subs {
		b.offerLocked(ch, msg)
	}
}

// offerLocked enqueues msg on ch, evicting the oldest queued record when the
// queue is full. The queue has capacity ≥ 1 and this is the only sender (the
// mutex is held), so the second send always lands.
func (b *broadcaster) offerLocked(ch chan streamMsg, msg streamMsg) {
	select {
	case ch <- msg:
		return
	default:
	}
	select {
	case <-ch:
		b.dropped(1)
	default:
	}
	select {
	case ch <- msg:
	default:
		b.dropped(1) // capacity drained concurrently; count the loss
	}
}

// finish publishes the terminal event, closes every subscriber channel and
// marks the broadcaster closed. Later subscribers receive the terminal event
// from a pre-closed channel; later publishes are no-ops.
func (b *broadcaster) finish(event string, v any) {
	if b == nil {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(`{}`)
	}
	msg := streamMsg{event: event, data: data}
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return
	}
	b.closed = true
	b.terminal = &msg
	for ch := range b.subs {
		b.offerLocked(ch, msg)
		close(ch)
	}
	b.subs = nil
}

// subscribe returns a channel of the job's remaining events. The channel is
// closed when the job finishes; a subscription after the finish yields just
// the terminal event. Callers must unsubscribe when done reading.
func (b *broadcaster) subscribe() chan streamMsg {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		ch := make(chan streamMsg, 1)
		if b.terminal != nil {
			ch <- *b.terminal
		}
		close(ch)
		return ch
	}
	ch := make(chan streamMsg, streamQueue)
	b.subs[ch] = struct{}{}
	return ch
}

// unsubscribe detaches a live subscription; harmless after finish.
func (b *broadcaster) unsubscribe(ch chan streamMsg) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.subs != nil {
		delete(b.subs, ch)
	}
}

// handleJobEvents is GET /v1/jobs/{id}/events: the SSE progress stream.
// The connection opens with a "status" event (the job's current snapshot),
// streams "span" and "status" records as the job runs, keeps the connection
// alive with comment heartbeats, and ends after the "done" event.
func (s *Server) handleJobEvents(w http.ResponseWriter, r *http.Request) {
	s.requests.Inc()
	s.mu.Lock()
	j := s.jobs[r.PathValue("id")]
	s.mu.Unlock()
	if j == nil {
		writeError(w, r, http.StatusNotFound, "unknown job %q", r.PathValue("id"))
		return
	}
	fl, ok := w.(http.Flusher)
	if !ok {
		writeError(w, r, http.StatusInternalServerError, "streaming unsupported by this connection")
		return
	}
	// Subscribe before the initial snapshot: anything the job publishes after
	// the snapshot is queued, so the stream can lag but never miss records.
	ch := j.events.subscribe()
	defer j.events.unsubscribe(ch)

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Trace-Id", j.trace)
	w.WriteHeader(http.StatusOK)
	writeSSE(w, streamMsg{event: "status", data: mustJSON(j.snapshot())})
	fl.Flush()

	hb := time.NewTicker(s.cfg.StreamHeartbeat)
	defer hb.Stop()
	for {
		select {
		case msg, ok := <-ch:
			if !ok {
				return
			}
			writeSSE(w, msg)
			fl.Flush()
			if msg.event == "done" {
				return
			}
		case <-hb.C:
			fmt.Fprint(w, ": heartbeat\n\n")
			fl.Flush()
		case <-r.Context().Done():
			return
		}
	}
}

// writeSSE renders one frame in text/event-stream framing. The data is a
// single JSON line (json.Marshal emits no raw newlines), so one data: field
// suffices.
func writeSSE(w http.ResponseWriter, msg streamMsg) {
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", msg.event, msg.data)
}

func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		return []byte(`{}`)
	}
	return data
}
