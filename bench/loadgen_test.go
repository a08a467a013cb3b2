package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"
	"time"
)

// A server that stalls once for 50 ms must show the stall in the latency of
// the requests due while it lasted, and the generator must keep every
// sample.
func TestOpenLoopStallDelaysLaterRequests(t *testing.T) {
	var n atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if n.Add(1) == 20 {
			time.Sleep(50 * time.Millisecond)
		}
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()

	r := loadWindow{
		rate: 1000, conns: 1, window: 300 * time.Millisecond, grace: time.Second,
		url: func(int) string { return srv.URL },
	}.open(context.Background())

	if r.due < 250 || r.ok != r.due || r.errors != 0 || r.unfinished != 0 {
		t.Fatalf("due %d ok %d errors %d unfinished %d: every due request must complete (%s)",
			r.due, r.ok, r.errors, r.unfinished, r.firstErr)
	}
	if len(r.fromDue) != r.ok || len(r.service) != r.ok || len(r.late) != r.due {
		t.Fatalf("samples: %d from due, %d service, %d released for %d requests", len(r.fromDue), len(r.service), len(r.late), r.due)
	}
	slowFromDue, slowService := 0, 0
	for i := range r.fromDue {
		if r.fromDue[i] >= 0.02 {
			slowFromDue++
		}
		if r.service[i] >= 0.02 {
			slowService++
		}
	}
	// About 50 requests fall due during the stall; those due in its first
	// 30 ms wait at least 20 ms for it.
	if slowFromDue < 25 {
		t.Errorf("%d requests waited >= 20 ms from their due time; the stall must delay the ones queued behind it", slowFromDue)
	}
	// Timed from the send, as trackerd.LoadGen does, the stall all but
	// vanishes: only the stalled request itself is slow.
	if slowService > 2 {
		t.Errorf("%d requests took >= 20 ms from send; want only the stalled one", slowService)
	}
	// The pacer kept its schedule through the stall: the requests queued
	// for the busy connection, they were not released late.
	if got := quantile(r.late, 0.5); got > 0.005 {
		t.Errorf("generator lateness p50 %.4fs: the pacer must not wait for the server", got)
	}
}

// A request that never completes ends the window at the grace deadline:
// the requests it blocked count as unfinished, and the samples of the ones
// that completed before it are all kept.
func TestOpenLoopKeepsSamplesAtDeadline(t *testing.T) {
	var n atomic.Int64
	hang := make(chan struct{})
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if n.Add(1) == 10 {
			select {
			case <-hang:
			case <-r.Context().Done():
			}
			return
		}
		_, _ = w.Write([]byte("ok"))
	}))
	defer srv.Close()
	defer close(hang)

	r := loadWindow{
		rate: 1000, conns: 1, window: 200 * time.Millisecond, grace: 100 * time.Millisecond,
		url: func(int) string { return srv.URL },
	}.open(context.Background())

	if r.ok != 9 || len(r.fromDue) != 9 {
		t.Fatalf("ok %d with %d samples, want the 9 requests before the hang", r.ok, len(r.fromDue))
	}
	if r.errors != 0 || r.ok+r.unfinished != r.due {
		t.Fatalf("due %d = ok %d + unfinished %d + errors %d: every due request must be accounted for",
			r.due, r.ok, r.unfinished, r.errors)
	}
}
