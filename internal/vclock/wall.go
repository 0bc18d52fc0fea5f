package vclock

import (
	"sync"
	"sync/atomic"
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

// wallShards spreads the timer table over independently-locked shards:
// every transaction arms and cancels several timers (wait-phase, retry),
// so a single mutex becomes the contention point under a concurrent load
// generator.  Power of two, indexed by id&(wallShards-1).
const wallShards = 16

type wallShard struct {
	mu     sync.Mutex
	timers map[TimerID]*time.Timer
}

// Wall is a Clock over real time.  Unlike Scheduler it is safe for
// concurrent use: callbacks fire on their own goroutines (time.AfterFunc)
// and may themselves schedule or cancel.  Callers needing serialization
// (the cluster's site runtime) provide their own, exactly as they do for
// concurrent message delivery.
type Wall struct {
	epoch  time.Time
	nextID atomic.Uint64
	closed atomic.Bool
	shards [wallShards]wallShard
}

// NewWall returns a wall clock with its epoch at the moment of the call.
func NewWall() *Wall {
	w := &Wall{epoch: time.Now()}
	for i := range w.shards {
		w.shards[i].timers = map[TimerID]*time.Timer{}
	}
	return w
}

// Now returns the time elapsed since the clock's epoch.
func (w *Wall) Now() Time { return time.Since(w.epoch) }

func (w *Wall) shard(id TimerID) *wallShard {
	return &w.shards[uint64(id)&(wallShards-1)]
}

// After schedules fn to run d from now on its own goroutine.  After Stop,
// scheduling is a no-op returning 0.
func (w *Wall) After(d time.Duration, fn func()) TimerID {
	if d < 0 {
		d = 0
	}
	if w.closed.Load() {
		return 0
	}
	id := TimerID(w.nextID.Add(1))
	sh := w.shard(id)
	sh.mu.Lock()
	sh.timers[id] = time.AfterFunc(d, func() {
		sh.mu.Lock()
		_, live := sh.timers[id]
		delete(sh.timers, id)
		sh.mu.Unlock()
		if live && !w.closed.Load() {
			fn()
		}
	})
	sh.mu.Unlock()
	// A Stop that raced the arm above may have swept its shard before the
	// insert landed; honour it.
	if w.closed.Load() {
		w.Cancel(id)
		return 0
	}
	return id
}

// At schedules fn at the absolute instant t.
func (w *Wall) At(t Time, fn func()) TimerID {
	return w.After(t-w.Now(), fn)
}

// Cancel stops a pending timer.  A timer that already started running
// (or finished) is not cancellable; returns false.
func (w *Wall) Cancel(id TimerID) bool {
	if id == 0 {
		return false
	}
	sh := w.shard(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	tm, ok := sh.timers[id]
	if !ok {
		return false
	}
	delete(sh.timers, id)
	tm.Stop()
	return true
}

// Pending returns the number of timers not yet fired or cancelled.
func (w *Wall) Pending() int {
	n := 0
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		n += len(sh.timers)
		sh.mu.Unlock()
	}
	return n
}

// Stop cancels every pending timer and refuses new ones.  Callbacks
// already started keep running; Stop does not wait for them.
func (w *Wall) Stop() {
	w.closed.Store(true)
	for i := range w.shards {
		sh := &w.shards[i]
		sh.mu.Lock()
		for id, tm := range sh.timers {
			tm.Stop()
			delete(sh.timers, id)
		}
		sh.mu.Unlock()
	}
}
