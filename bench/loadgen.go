package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// loadWindow is the benchmark's request generator: one window of HTTP load
// over a fixed set of keep-alive connections, in one of two shapes.
//
// open is an open loop: request i is due at start + i/rate whatever
// happened to earlier requests, as independent peers announce on their own
// schedules. Each request is timed from its due time, so a stall in the
// server shows up in the latency of every request queued behind it instead
// of vanishing, and how late the generator itself released each request is
// reported too. saturate is a closed loop: every connection sends its next
// request as soon as the last is answered, so the server never idles.
//
// trackerd.LoadGen cannot serve here: it times requests from their send
// time, and its paced workers return on cancellation before merging their
// samples (README.md records the defect).
type loadWindow struct {
	rate   float64 // requests per second, for open
	conns  int
	window time.Duration
	// stop, when non-nil, ends the window early once closed.
	stop <-chan struct{}
	// grace is how long after the window requests may still complete;
	// later ones count as unfinished.
	grace time.Duration
	url   func(i int) string
	// check validates a 200 response body.
	check func(i int, body []byte) error
}

// loadResult is one window's measurement. Durations are in seconds.
type loadResult struct {
	due        int // requests scheduled within the window
	ok         int
	inWindow   int // ok requests that completed before the window ended
	errors     int // transport errors, non-200 answers and bad bodies
	unfinished int // not completed within the grace period
	firstErr   string
	fromDue    []float64 // completion − due, per ok request
	service    []float64 // completion − send, per ok request
	// late is how late the generator itself released each request: the
	// pacer's wake-up − due. Waiting for a busy connection is not in it;
	// that counts in fromDue.
	late    []float64
	elapsed float64 // the window actually run
}

// queueDepth bounds the requests the pacer may hand out ahead of the
// connections. When they fall behind the pacer blocks, but due times come
// from request indices, so the backlog still counts against latency.
const queueDepth = 1024

func (g loadWindow) open(ctx context.Context) loadResult {
	start := time.Now()
	end := start.Add(g.window)
	ctx, cancel := context.WithDeadline(ctx, end.Add(g.grace))
	defer cancel()
	due := func(i int) time.Time { return start.Add(time.Duration(float64(i) / g.rate * float64(time.Second))) }

	queue := make(chan int, queueDepth)
	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		total   loadResult
		stopped = make(chan time.Time, 1)
	)
	wg.Add(1)
	go func() { // the pacer
		defer wg.Done()
		lockPacerThread()
		n, unsent, windowEnd := 0, 0, end
		var late []float64
		defer func() {
			close(queue)
			mu.Lock()
			total.due = n
			total.unfinished += unsent
			total.late = late
			mu.Unlock()
			stopped <- windowEnd
		}()
		for ; due(n).Before(end); n++ {
			if !sleepUntil(due(n), g.stop) {
				windowEnd = time.Now()
				return
			}
			late = append(late, time.Since(due(n)).Seconds())
			select {
			case queue <- n:
			case <-ctx.Done():
				// The connections are still stuck past the grace period:
				// everything else due in the window is never sent.
				for ; due(n).Before(end); n++ {
					unsent++
				}
				return
			}
		}
	}()

	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newConn()
			defer client.CloseIdleConnections()
			var local loadResult
			for i := range queue {
				g.send(ctx, client, i, due(i), end, &local)
			}
			// Every worker merges, whatever ended its loop: no sample is
			// lost to the deadline.
			mu.Lock()
			total.merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	windowEnd := <-stopped
	total.elapsed = windowEnd.Sub(start).Seconds()
	return total
}

// saturate runs the window as a closed loop. Every request counts as due
// when it is sent, so fromDue equals service.
func (g loadWindow) saturate(ctx context.Context) loadResult {
	start := time.Now()
	end := start.Add(g.window)
	ctx, cancel := context.WithDeadline(ctx, end.Add(g.grace))
	defer cancel()
	var (
		next  atomic.Int64
		wg    sync.WaitGroup
		mu    sync.Mutex
		total loadResult
	)
	for c := 0; c < g.conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			client := newConn()
			defer client.CloseIdleConnections()
			var local loadResult
			for time.Now().Before(end) {
				local.due++
				g.send(ctx, client, int(next.Add(1)-1), time.Now(), end, &local)
			}
			mu.Lock()
			total.merge(local)
			mu.Unlock()
		}()
	}
	wg.Wait()
	total.elapsed = time.Since(start).Seconds()
	return total
}

// newConn is a client that holds at most one keep-alive connection.
func newConn() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func (g loadWindow) send(ctx context.Context, client *http.Client, i int, due, end time.Time, r *loadResult) {
	if ctx.Err() != nil {
		r.unfinished++
		return
	}
	sent := time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, g.url(i), nil)
	if err != nil {
		r.fail(err)
		return
	}
	resp, err := client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			r.unfinished++
		} else {
			r.fail(err)
		}
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	done := time.Now()
	switch {
	case err != nil && ctx.Err() != nil:
		r.unfinished++
		return
	case err != nil:
		r.fail(err)
		return
	case resp.StatusCode != http.StatusOK:
		r.fail(fmt.Errorf("request %d: status %d", i, resp.StatusCode))
		return
	}
	if g.check != nil {
		if err := g.check(i, body); err != nil {
			r.fail(err)
			return
		}
	}
	r.ok++
	if done.Before(end) {
		r.inWindow++
	}
	r.fromDue = append(r.fromDue, done.Sub(due).Seconds())
	r.service = append(r.service, done.Sub(sent).Seconds())
}

func (r *loadResult) fail(err error) {
	r.errors++
	if r.firstErr == "" {
		r.firstErr = err.Error()
	}
}

func (r *loadResult) merge(o loadResult) {
	r.due += o.due
	r.ok += o.ok
	r.inWindow += o.inWindow
	r.errors += o.errors
	r.unfinished += o.unfinished
	if r.firstErr == "" {
		r.firstErr = o.firstErr
	}
	r.fromDue = append(r.fromDue, o.fromDue...)
	r.service = append(r.service, o.service...)
}

// lockPacerThread gives the calling goroutine a thread of its own with the
// kernel's timer slack cut to 1 ns (prctl PR_SET_TIMERSLACK), for
// sleepUntil. The thread is discarded when the goroutine exits.
//
// time.Sleep rounds sub-millisecond waits up to about a millisecond, which
// at 10 000 requests/s would make the generator itself the main source of
// latency; nanosleep on this thread wakes within about 10 µs.
func lockPacerThread() {
	runtime.LockOSThread()
	const prSetTimerslack = 29
	_, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, prSetTimerslack, 1, 0) // best effort: only precision is lost
}

// sleepUntil blocks until t, or returns false once stop is closed.
func sleepUntil(t time.Time, stop <-chan struct{}) bool {
	for {
		if stop != nil {
			select {
			case <-stop:
				return false
			default:
			}
		}
		d := time.Until(t)
		if d <= 0 {
			return true
		}
		if d > 5*time.Millisecond {
			d = 5 * time.Millisecond // keep polling stop
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR only ends this slice early
	}
}
