package cluster

import (
	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/txn"
	"repro/internal/vclock"
)

// Site event engine.
//
// Everything a site does is an event: a delivered message (or a run of
// them from one frame), a client submit, a timer, a control operation.
// Every event takes the same path on every runtime:
//
//	enqueue → run under stateMu → make durable → release outputs
//
// enqueue puts the event on one of the site's queues.  queues[0] takes
// TID-less work (timers, gossip, control) and, with Config.Lanes <= 1,
// everything; with Lanes > 1 there are Lanes more queues and an event
// with a transaction identity goes to the one its TID hashes to, so all
// of one transaction's messages stay in FIFO order on one queue.  Each
// queue is drained by one goroutine running loop.
//
// Queues do NOT parallelize protocol logic.  Every event runs under the
// site's single stateMu, so the lock table, dependency table and every
// other protocol map see exactly the serialized execution the paper's
// site model assumes.  What more than one queue overlaps is the part of
// an event spent OUTSIDE the mutex: the durable group-commit wait.
//
// While it runs, an event does not touch the outside world.  What it
// wants to leave the site — protocol sends, client decisions, query
// answers, the site's own up/down marking — is staged as a list of
// effects.  After the event, exec waits until the WAL bytes the event
// depends on are durable and then releases the effects in staging order.
// Nothing leaves before its WAL bytes are durable, and everything staged
// before a crash point leaves before the site is marked down:
// Montgomery's wait phase begins when the ready has left.
//
// A run of messages is queued, and waits for the disk, as one event, but
// each message runs under the mutex on its own.  With a group log the
// run's effects leave together after the one wait; without one the WAL
// writes were synchronous and there is nothing to wait for, so each
// message's effects leave as soon as it has run instead of behind the
// rest of its frame.
//
// The simulated runtime (New) and the wall-clock runtime (NewNode) run
// this same engine.  They differ only in what their constructors inject:
// the clock, the transport, whether deliveries and submits wait for the
// event (the scheduler needs that for determinism), and New zeroing
// Lanes and SyncWAL.

// siteEvent is one queued event: a closure, or a run of delivered
// messages handled one by one.  done, when non-nil, is closed after the
// event has run and its effects have been released.
type siteEvent struct {
	fn   func()
	msgs []protocol.Message
	done chan struct{}
}

// siteInboxDepth buffers each event queue so posters (TCP read loops,
// timers) hand off without a rendezvous.
const siteInboxDepth = 256

// enqueueMode says what enqueue's caller needs.
type enqueueMode uint8

const (
	// wait blocks until the event has run and its effects have left.
	wait enqueueMode = iota
	// async queues the event and returns; a full queue blocks the caller.
	async
	// shed queues the event and returns, or reports false (counted in
	// site.inbox.shed) when the queue is full: the overload path for
	// work a caller can retry, so it never sits behind a backlog.
	shed
)

// enqueue is the one way onto a site's event queues.  It reports false
// only for a shed event.  After close, events are silently dropped —
// late timers and deliveries racing a shutdown land here.
func (s *Site) enqueue(tid txn.ID, ev siteEvent, mode enqueueMode) bool {
	if mode == wait {
		ev.done = make(chan struct{})
	}
	q := s.queues[s.laneFor(tid)]
	if mode == shed {
		select {
		case q <- ev:
		case <-s.quit:
		default:
			s.inboxShed.Inc()
			return false
		}
		return true
	}
	select {
	case q <- ev:
	case <-s.quit:
		return true
	}
	if ev.done != nil {
		select {
		case <-ev.done:
		case <-s.quit:
		}
	}
	return true
}

// do is enqueue for TID-less work the caller waits on.
func (s *Site) do(fn func()) { s.enqueue("", siteEvent{fn: fn}, wait) }

// laneFor maps a transaction ID to a queue index: 0 when there is one
// queue or no transaction identity, else 1 + FNV-1a(tid) mod Lanes.
func (s *Site) laneFor(tid txn.ID) int {
	if len(s.queues) == 1 || tid == "" {
		return 0
	}
	h := uint32(2166136261)
	for i := 0; i < len(tid); i++ {
		h ^= uint32(tid[i])
		h *= 16777619
	}
	return 1 + int(h%uint32(len(s.queues)-1))
}

// loop drains one queue.  The effect buffer is this goroutine's own and
// is reused from event to event.
func (s *Site) loop(q chan siteEvent) {
	var fx []effect
	for {
		select {
		case <-s.quit:
			return
		case ev := <-q:
			// Queue depth as observed at dequeue (this event included).
			fx = s.exec(ev, len(q)+1, fx)
			depth := 0
			for _, q := range s.queues {
				depth += len(q)
			}
			s.inboxDepth.Set(int64(depth))
		}
	}
}

// exec runs one event with fx as its staging buffer — each message of a
// run separately under stateMu — waits for the WAL bytes it depends on,
// and releases what it staged.  It returns the buffer, emptied, for the
// next event.
func (s *Site) exec(ev siteEvent, depth int, fx []effect) []effect {
	fx = fx[:0]
	var target uint64
	for i := 0; i == 0 || i < len(ev.msgs); i++ {
		s.stateMu.Lock()
		// The high-water mark over all of the site's queues is what
		// overload post-mortems read.
		if depth > s.hwm {
			s.hwm = depth
			s.inboxHWM.Set(int64(depth))
		}
		var before uint64
		if s.glog != nil {
			before = s.glog.Seq()
		}
		s.fx = fx
		switch {
		case ev.fn != nil:
			ev.fn()
		case !s.down:
			s.handle(ev.msgs[i])
		}
		fx, s.fx = s.fx, nil
		if s.glog != nil {
			// Conservative output commit: an event that wrote WAL frames
			// waits for them; an event that wrote nothing but has outputs
			// still waits for ALL currently unsynced frames, because its
			// outputs may externalize state some earlier unsynced event
			// installed (e.g. relaying an outcome another event just
			// logged).  Pure-internal events (no frames, no outputs) skip
			// the wait entirely.
			if after := s.glog.Seq(); after > before || len(fx) > 0 {
				target = after
			}
		}
		s.stateMu.Unlock()
		if target == 0 {
			// Nothing to wait for: what this message staged leaves now,
			// not behind the rest of its frame.
			s.release(fx, 0)
			clear(fx)
			fx = fx[:0]
		}
	}
	lost := 0
	if target > 0 {
		if err := s.glog.WaitSynced(target); err != nil {
			// fsyncgate: the WAL frames this event depends on never
			// reached the disk (the flush error is sticky in the
			// GroupLog, so durability is gone for the rest of this
			// incarnation).  Nothing the event staged may leave — no
			// Prepared, no Committed, no client decision — because each
			// would ack state the disk may have dropped.  Crash the site
			// instead; what the crash itself stages is released as usual.
			lost = len(fx)
			s.stateMu.Lock()
			s.fx = fx
			s.durabilityPanic("", err)
			fx, s.fx = s.fx, nil
			s.stateMu.Unlock()
		}
	}
	s.release(fx, lost)
	if ev.done != nil {
		close(ev.done)
	}
	clear(fx) // drop message and handle references until the next event
	return fx
}

// effectKind names what an effect does when it leaves the site.
type effectKind uint8

const (
	// fxSend transmits msg.
	fxSend effectKind = iota
	// fxDecide resolves a client transaction handle.
	fxDecide
	// fxQuery resolves a query handle.
	fxQuery
	// fxDown publishes the site's up/down state to the transport.
	fxDown
)

// effect is one staged output of a site event, as data.
type effect struct {
	kind effectKind

	msg protocol.Message // fxSend

	h      *Handle // fxDecide
	st     Status
	reason string
	at     vclock.Time

	qh   *QueryHandle // fxQuery
	poly polyvalue.Poly
	err  error
}

// release lets staged effects leave the site, in staging order, outside
// stateMu.  The first lost of them were staged by an event whose WAL
// bytes failed to reach the disk; what happens to those follows from
// their kind: a send is discarded, a decision is withheld (the handle
// stays pending, like any crashed coordinator's) but its admission
// credit comes home, and a query — which carries no durability promise —
// fails fast instead of hanging on a dead site.
func (s *Site) release(fx []effect, lost int) {
	for i := range fx {
		e := &fx[i]
		switch e.kind {
		case fxSend:
			if i >= lost {
				s.c.fab.Send(e.msg)
			}
		case fxDecide:
			if i < lost {
				e.h.releaseAdmission()
				continue
			}
			e.h.decide(e.st, e.reason, e.at)
			if e.st == StatusCommitted {
				// The handle only learns its latency once the decide
				// lands.
				if lat, ok := e.h.Latency(); ok {
					s.c.latency.Observe(lat.Seconds())
				}
			}
		case fxQuery:
			if i < lost {
				e.qh.complete(polyvalue.Poly{}, errSiteDown)
				continue
			}
			e.qh.complete(e.poly, e.err)
		case fxDown:
			// Events on different queues can release out of order, so a
			// crash's marking could land after the restart's.  Publishing
			// whatever the state is NOW, under the mutex that guards it,
			// makes the last publish always carry the latest state.
			s.stateMu.Lock()
			s.c.fab.SetDown(s.id, s.down)
			s.stateMu.Unlock()
		}
	}
}

// send stages a message from this site.  The trace line is emitted at
// staging time, under stateMu, so the trace ring needs no extra
// synchronization.
func (s *Site) send(msg protocol.Message) {
	msg.From = s.id
	if s.c.tracing {
		s.c.trace("%s send %s", s.id, msg)
	}
	s.fx = append(s.fx, effect{kind: fxSend, msg: msg})
}

// decideHandle stages the resolution of a client transaction handle: the
// client must not observe a commit the site could still forget.
func (s *Site) decideHandle(h *Handle, st Status, reason string) {
	s.fx = append(s.fx, effect{kind: fxDecide, h: h, st: st, reason: reason, at: s.c.clk.Now()})
}

// completeQuery stages the resolution of a query handle.
func (s *Site) completeQuery(qh *QueryHandle, p polyvalue.Poly, err error) {
	s.fx = append(s.fx, effect{kind: fxQuery, qh: qh, poly: p, err: err})
}

// setDown flips the site's crash state and stages its publication, so
// whatever the running event staged before this point leaves first.
func (s *Site) setDown(down bool) {
	s.down = down
	s.fx = append(s.fx, effect{kind: fxDown})
}

// onMessage is the transport's delivery handler for one message.
func (s *Site) onMessage(msg protocol.Message) {
	s.enqueue(msg.TID, siteEvent{fn: func() {
		if !s.down {
			s.handle(msg)
		}
	}}, s.c.deliver)
}

// onMessageBatch is the delivery handler for a whole same-destination
// frame.  The frame is split into runs that share a queue, preserving
// arrival order within each (all of one transaction's messages share a
// queue, so per-TID FIFO survives); each run is one event.  With one
// queue the frame is one event.  The transport hands over ownership of
// the slice, so it can cross the goroutine boundary without a copy.
func (s *Site) onMessageBatch(msgs []protocol.Message) {
	for start := 0; start < len(msgs); {
		lane := s.laneFor(msgs[start].TID)
		end := start + 1
		for end < len(msgs) && s.laneFor(msgs[end].TID) == lane {
			end++
		}
		s.enqueue(msgs[start].TID, siteEvent{msgs: msgs[start:end]}, s.c.deliver)
		start = end
	}
}

// after schedules a site-local timer that is automatically ignored if
// the site is down when it fires.
func (s *Site) after(d vclock.Time, fn func()) vclock.TimerID {
	return s.c.clk.After(d, func() {
		s.do(func() {
			if s.down {
				return
			}
			fn()
		})
	})
}
