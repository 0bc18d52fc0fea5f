package storage

import (
	"errors"
	"sync"
)

// ErrGroupLogClosed is returned by GroupLog operations after Close.
var ErrGroupLogClosed = errors.New("storage: group log closed")

// GroupLog is a group-commit stage in front of a FileLog: WAL frames
// from many site events accumulate in a buffer and a background flusher
// retires the whole buffer with a single file write + fsync.  Callers
// that need durability wait on WaitSynced for their bytes to reach disk
// instead of paying a private fsync — one disk sync is amortized over
// every event that arrived during the previous sync.
//
// Positions are byte offsets in enqueue order: Write assigns each frame
// the range (Seq-len, Seq]; WaitSynced(seq) returns once at least seq
// bytes are durable.  A frame written with WriteUnforced starts no flush
// and moves no Seq: it reaches the disk with the next flush a Write asks
// for, and nothing waits for it.  Errors from the underlying file are sticky — once
// a write or sync fails, every subsequent Write/WaitSynced
// reports it, because the tail of the log after a failed batch has an
// undefined on-disk state.
type GroupLog struct {
	mu     sync.Mutex
	cond   *sync.Cond
	f      *FileLog
	buf    []byte
	enq    uint64 // bytes accepted into buf, total
	due    uint64 // enq as of the last Write: what waiters need flushed
	synced uint64 // bytes durably on disk, total
	err    error  // sticky first failure
	closed bool

	kick chan struct{}
	quit chan struct{}
	idle chan struct{} // closed when the flusher goroutine exits

	syncs   uint64 // fsync batches issued
	batched uint64 // frames retired (Write calls)
}

// NewGroupLog starts a group-commit stage over f.  The flusher flushes
// as soon as it is free: each fsync covers every frame that arrived
// while the previous fsync was in flight, which is the classic
// self-clocking group commit.
func NewGroupLog(f *FileLog) *GroupLog {
	g := &GroupLog{
		f:    f,
		kick: make(chan struct{}, 1),
		quit: make(chan struct{}),
		idle: make(chan struct{}),
	}
	g.cond = sync.NewCond(&g.mu)
	go g.flusher()
	return g
}

// Write buffers p, asks for a flush and returns; p is durable only after
// a flush covers it.  Implements io.Writer so a GroupLog can serve as a
// WAL sink.
func (g *GroupLog) Write(p []byte) (int, error) { return g.write(p, true) }

// WriteUnforced buffers p for the next flush a Write asks for, without
// asking for one: the frame of a record whose loss in a crash costs only
// a repeat of what it records.
func (g *GroupLog) WriteUnforced(p []byte) (int, error) { return g.write(p, false) }

func (g *GroupLog) write(p []byte, force bool) (int, error) {
	g.mu.Lock()
	if g.err != nil {
		err := g.err
		g.mu.Unlock()
		return 0, err
	}
	if g.closed {
		g.mu.Unlock()
		return 0, ErrGroupLogClosed
	}
	g.buf = append(g.buf, p...)
	g.enq += uint64(len(p))
	g.batched++
	if force {
		g.due = g.enq
	}
	g.mu.Unlock()
	if force {
		select {
		case g.kick <- struct{}{}:
		default:
		}
	}
	return len(p), nil
}

// Seq returns the position the last Write's frame ends at — pass it to
// WaitSynced to wait for everything written up to this point, bar
// unforced frames written since.
func (g *GroupLog) Seq() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.due
}

// Synced returns the total bytes durably flushed so far.
func (g *GroupLog) Synced() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.synced
}

// SyncBatches returns how many write+fsync batches have been issued —
// the denominator of the group-commit amortization ratio.
func (g *GroupLog) SyncBatches() (frames, syncs uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.batched, g.syncs
}

// WaitSynced blocks until at least seq enqueued bytes are durable, a
// flush fails, or the log closes.
func (g *GroupLog) WaitSynced(seq uint64) error {
	g.mu.Lock()
	defer g.mu.Unlock()
	for g.synced < seq && g.err == nil && !g.closed {
		g.cond.Wait()
	}
	if g.err != nil {
		return g.err
	}
	if g.synced < seq {
		return ErrGroupLogClosed
	}
	return nil
}

// flush retires everything buffered at the moment of the call with one
// file write + fsync.  Only the flusher goroutine calls it, so batches
// hit the file in pop order.
func (g *GroupLog) flush() {
	g.mu.Lock()
	if g.err != nil || len(g.buf) == 0 {
		g.mu.Unlock()
		return
	}
	batch := g.buf
	g.buf = nil
	g.mu.Unlock()

	_, err := g.f.Write(batch)
	if err == nil {
		err = g.f.Sync()
	}

	g.mu.Lock()
	if err != nil {
		g.err = err
	} else {
		g.synced += uint64(len(batch))
		g.syncs++
	}
	g.cond.Broadcast()
	g.mu.Unlock()
}

// flusher is the background group-commit loop: on each kick it retires
// the whole buffer with one write+sync.  A frame written while a flush is in
// flight re-arms the kick, so nothing waits for a later writer.
func (g *GroupLog) flusher() {
	defer close(g.idle)
	// Final drain so Close leaves nothing buffered.
	defer g.flush()
	for {
		select {
		case <-g.quit:
			return
		case <-g.kick:
			g.flush()
		}
	}
}

// Close drains the buffer, stops the flusher, and marks the log closed.
// It does not close the underlying FileLog — the owner does that.
func (g *GroupLog) Close() error {
	g.mu.Lock()
	if g.closed {
		g.mu.Unlock()
		return nil
	}
	g.closed = true
	g.cond.Broadcast()
	g.mu.Unlock()
	close(g.quit)
	<-g.idle
	g.mu.Lock()
	err := g.err
	g.mu.Unlock()
	return err
}

// SetWALSink repoints the store's WAL sink — used to interpose a
// GroupLog between the store and its FileLog after OpenFileStore.
func (s *Store) SetWALSink(w *GroupLog) {
	s.mu.Lock()
	s.wal.sink = w
	s.mu.Unlock()
}
