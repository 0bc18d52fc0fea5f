package vclock

import (
	"sync"
	"time"
)

// Clock is the time source protocol-level code schedules against.  The
// deterministic *Scheduler implements it for simulations and tests; Wall
// implements it over real time for multi-process clusters (cmd/polynode
// over a TCP transport).
type Clock interface {
	// Now returns the current instant (duration since the clock's epoch).
	Now() Time
	// After schedules fn to run d from now and returns a cancellation ID.
	After(d time.Duration, fn func()) TimerID
	// At schedules fn at the absolute instant t (in the past: runs
	// promptly).
	At(t Time, fn func()) TimerID
	// Cancel drops a scheduled call; it reports whether an event was
	// actually cancelled.
	Cancel(id TimerID) bool
}

var (
	_ Clock = (*Scheduler)(nil)
	_ Clock = (*Wall)(nil)
)

// Wall is a Clock over real time.  Unlike Scheduler it is safe for
// concurrent use: callbacks fire on their own goroutines (time.AfterFunc)
// and may themselves schedule or cancel.  Callers needing serialization
// (the cluster's site runtime) provide their own, exactly as they do for
// concurrent message delivery.  One mutex guards the timer table; the
// cluster arms one clock timer per site, so it sees little contention.
type Wall struct {
	epoch  time.Time
	mu     sync.Mutex
	nextID TimerID
	closed bool
	timers map[TimerID]*time.Timer
}

// NewWall returns a wall clock with its epoch at the moment of the call.
func NewWall() *Wall {
	return &Wall{epoch: time.Now(), timers: map[TimerID]*time.Timer{}}
}

// Now returns the time elapsed since the clock's epoch.
func (w *Wall) Now() Time { return time.Since(w.epoch) }

// After schedules fn to run d from now on its own goroutine.  After Stop,
// scheduling is a no-op returning 0.
func (w *Wall) After(d time.Duration, fn func()) TimerID {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.closed {
		return 0
	}
	w.nextID++
	id := w.nextID
	// The callback takes mu, so it cannot look the timer up before the
	// insert below lands, even at d <= 0.
	w.timers[id] = time.AfterFunc(max(d, 0), func() {
		w.mu.Lock()
		_, live := w.timers[id]
		delete(w.timers, id)
		w.mu.Unlock()
		if live {
			fn()
		}
	})
	return id
}

// At schedules fn at the absolute instant t.
func (w *Wall) At(t Time, fn func()) TimerID {
	return w.After(t-w.Now(), fn)
}

// Cancel stops a pending timer.  A timer that already started running
// (or finished) is not cancellable; returns false.
func (w *Wall) Cancel(id TimerID) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	tm, ok := w.timers[id]
	if !ok {
		return false
	}
	delete(w.timers, id)
	tm.Stop()
	return true
}

// Pending returns the number of timers not yet fired or cancelled.
func (w *Wall) Pending() int {
	w.mu.Lock()
	defer w.mu.Unlock()
	return len(w.timers)
}

// Stop cancels every pending timer and refuses new ones.  Callbacks
// already started keep running; Stop does not wait for them.
func (w *Wall) Stop() {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.closed = true
	for id, tm := range w.timers {
		tm.Stop()
		delete(w.timers, id)
	}
}
