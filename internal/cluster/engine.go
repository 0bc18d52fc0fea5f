package cluster

import (
	"container/heap"
	"slices"

	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/vclock"
)

// Site event engine.
//
// Everything a site does is an event: a delivered message (or a frame
// of them), a client submit, a timer, a control operation.
// Every event takes the same path on every runtime:
//
//	enqueue → run under stateMu → park or release outputs
//
// enqueue puts the event on the site's one queue, in FIFO order, and one
// goroutine running loop drains it.  Every event runs under the site's
// stateMu, so the lock table, dependency table and every other protocol
// map see exactly the serialized execution the paper's site model
// assumes; the queue goroutine never waits for the disk.
//
// While it runs, a message (or any other event) does not touch the
// outside world.  What it wants to leave the site — protocol sends,
// client decisions, query answers, the site's own up/down marking —
// is staged as a list of effects, and every staging call declares the
// WAL position the effect depends on (see send and sendDep).  Effects
// leave per message, the output-commit rule as Gray and Lamport state
// it: a message's effects leave together, in staging order, once the
// log is durable up to that message's target — the frames it wrote
// itself, or the furthest position one of its effects declared,
// whichever is later.  If the target is already durable — always,
// without a group log — exec releases the effects on the spot.
// Otherwise it parks them on the site's outbox as their own batch and
// goes on with the next message of the frame; the site's one releaser
// goroutine takes parked batches in FIFO order, waits for each target
// and releases.  Nothing leaves before the WAL bytes
// it depends on are durable, and everything a message staged before a
// crash point leaves before the site is marked down: Montgomery's
// wait phase begins when the ready has left.  Batches may overtake
// each other (an unparked one passes a parked one), which the
// protocol tolerates as it tolerates the network reordering messages.
//
// The simulated runtime (New) and the wall-clock runtime (NewNode) run
// this same engine.  They differ only in what their constructors inject:
// the clock, the transport, whether deliveries and submits wait for the
// event (the scheduler needs that for determinism), and New zeroing
// SyncWAL.

// siteEvent is one queued event: a closure, or a frame of delivered
// messages handled one by one.  done, when non-nil, is closed after the
// event has run and its effects have been released.
type siteEvent struct {
	fn   func()
	msgs []protocol.Message
	done chan struct{}
}

// siteInboxDepth buffers the event queue so posters (TCP read loops,
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

// enqueue is the one way onto a site's event queue.  It reports false
// only for a shed event.  After close, events are silently dropped —
// late timers and deliveries racing a shutdown land here.
func (s *Site) enqueue(ev siteEvent, mode enqueueMode) bool {
	if mode == wait {
		ev.done = make(chan struct{})
	}
	if mode == shed {
		select {
		case s.queue <- ev:
		case <-s.quit:
		default:
			s.inboxShed.Inc()
			return false
		}
		return true
	}
	select {
	case s.queue <- ev:
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

// do is enqueue for work the caller waits on.
func (s *Site) do(fn func()) { s.enqueue(siteEvent{fn: fn}, wait) }

// loop drains the queue.  The effect buffer is this goroutine's own and
// is reused from message to message.
func (s *Site) loop() {
	var fx []effect
	for {
		select {
		case <-s.quit:
			return
		case ev := <-s.queue:
			// Queue depth as observed at dequeue (this event included).
			fx = s.exec(ev, len(s.queue)+1, fx)
			s.inboxDepth.Set(int64(len(s.queue)))
		}
	}
}

// exec runs one event with fx as its staging buffer — each message of a
// frame separately under stateMu — and releases what each message
// staged, at once if the WAL bytes it depends on are durable and through
// the outbox if not.  It returns the buffer, emptied, for the next event.
func (s *Site) exec(ev siteEvent, depth int, fx []effect) []effect {
	// held is the latest parked batch, pushed once the next one parks or
	// the event ends, so the event's done can ride on its last batch.
	var held parked
	for i := 0; i == 0 || i < len(ev.msgs); i++ {
		fx = fx[:0]
		s.stateMu.Lock()
		// The queue's high-water mark is what overload post-mortems read.
		if depth > s.hwm {
			s.hwm = depth
			s.inboxHWM.Set(int64(depth))
		}
		var before uint64
		if s.glog != nil {
			before = s.glog.Seq()
		}
		s.fx, s.dep, s.early, s.seq0 = fx, 0, 0, before
		switch {
		case ev.fn != nil:
			ev.fn()
		case !s.down:
			s.handle(ev.msgs[i])
		}
		fx, s.fx = s.fx, nil
		early := s.early
		var target uint64
		if s.glog != nil {
			// Output commit: the message waits for the frames it wrote
			// itself, else for what its effects declared — for most of
			// them (send) everything written so far, because they may
			// externalize state an earlier, still unsynced message
			// installed.  No frames and no dependency: nothing to wait
			// for.
			after := s.glog.Seq()
			target = min(s.dep, after)
			if after > before {
				target = after
			}
		}
		s.stateMu.Unlock()
		if target > 0 && s.glog.Synced() < target {
			// The queue goroutine never sleeps on the disk: what the
			// message sent ahead of its frames leaves, the rest waits in
			// the outbox and the next message runs.
			s.release(fx[:early], 0)
			if held.target > 0 {
				s.park(held)
			}
			held = parked{fx: slices.Clone(fx[early:]), target: target, at: s.c.clk.Now()}
		} else {
			s.release(fx, 0)
		}
		clear(fx) // drop message and handle references until they are reused
	}
	if held.target > 0 {
		held.done = ev.done
		s.park(held)
	} else if ev.done != nil {
		close(ev.done)
	}
	return fx
}

// park puts a batch on the outbox.  A full outbox is the site's
// back-pressure.
func (s *Site) park(b parked) {
	select {
	case s.outbox <- b:
	case <-s.quit:
	}
}

// parked is one message's staged effects waiting in the outbox for the
// WAL to be durable up to target.
type parked struct {
	fx     []effect
	target uint64
	done   chan struct{}
	at     vclock.Time
}

// releaser drains the outbox of a site with a group log: it waits for
// each parked batch's target in FIFO order and releases the batch.
func (s *Site) releaser() {
	for {
		select {
		case <-s.quit:
			return
		case b := <-s.outbox:
			lost := 0
			if err := s.glog.WaitSynced(b.target); err != nil {
				// fsyncgate: the WAL frames this batch depends on never
				// reached the disk (the flush error is sticky in the
				// GroupLog, so durability is gone for the rest of this
				// incarnation, and every batch parked behind this one
				// lands here too).  Nothing the batch holds may leave —
				// no Prepared, no Committed, no client decision — because
				// each would ack state the disk may have dropped.  Crash
				// the site instead, once; what the crash itself stages is
				// released as usual.
				lost = len(b.fx)
				s.stateMu.Lock()
				s.fx = b.fx
				s.durabilityPanic("", err)
				b.fx, s.fx = s.fx, nil
				s.stateMu.Unlock()
			}
			s.outboxWait.Observe((s.c.clk.Now() - b.at).Seconds())
			s.release(b.fx, lost)
			if b.done != nil {
				close(b.done)
			}
		}
	}
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
			// An unparked batch can overtake a parked one, so a crash's
			// marking could land after the restart's.  Publishing
			// whatever the state is NOW, under the mutex that guards it,
			// makes the last publish always carry the latest state.
			s.stateMu.Lock()
			s.c.fab.SetDown(s.id, s.down)
			s.stateMu.Unlock()
		}
	}
}

// depAll is the dependency of an effect that may externalize anything the
// site has logged: every WAL frame written up to the end of its event.
const depAll = ^uint64(0)

// stage appends one effect to the running event's outputs and raises the
// event's declared dependency to dep.
func (s *Site) stage(e effect, dep uint64) {
	s.fx, s.dep = append(s.fx, e), max(s.dep, dep)
}

// send stages a message from this site that may leave only once
// everything the site has logged so far is durable — the safe default,
// and what decideHandle, completeQuery and setDown declare too.
func (s *Site) send(msg protocol.Message) { s.sendDep(msg, depAll) }

// sendDep stages a message that externalizes nothing this site logged
// beyond WAL position dep, so it may leave as soon as dep is durable
// (dep 0: at once).
func (s *Site) sendDep(msg protocol.Message, dep uint64) {
	msg.From = s.id
	s.stage(effect{kind: fxSend, msg: msg}, dep)
}

// sendAhead is sendDep for a read reply, which reveals nothing its message
// logs after it: staged before any frame, behind only such replies and
// with dep durable, it leaves at once, not with the message's frames.
func (s *Site) sendAhead(msg protocol.Message, dep uint64) {
	ahead := s.glog != nil && s.early == len(s.fx) && s.glog.Seq() == s.seq0 && dep <= s.glog.Synced()
	s.sendDep(msg, dep)
	if ahead {
		s.early++
	}
}

// installSeq is what a read reply for items depends on: the WAL position
// by which the current value of every one of them is logged, the latest
// of their last installs.  Entries the disk has caught up with are pruned
// as they are met.  Replica versions and Paxos state have no such bound,
// so on those planes the reply depends on everything.
func (s *Site) installSeq(items []string) uint64 {
	if s.glog == nil || s.c.cfg.Replication != nil || s.paxosPlane() {
		return depAll
	}
	var dep uint64
	synced := s.glog.Synced()
	for _, item := range items {
		if seq, ok := s.itemSeq[item]; ok && seq <= synced {
			delete(s.itemSeq, item)
		} else if ok {
			dep = max(dep, seq)
		}
	}
	return dep
}

// decideHandle stages the resolution of a client transaction handle: the
// client must not observe a commit the site could still forget.
func (s *Site) decideHandle(h *Handle, st Status, reason string) {
	s.stage(effect{kind: fxDecide, h: h, st: st, reason: reason, at: s.c.clk.Now()}, depAll)
}

// completeQuery stages the resolution of a query handle.
func (s *Site) completeQuery(qh *QueryHandle, p polyvalue.Poly, err error) {
	s.stage(effect{kind: fxQuery, qh: qh, poly: p, err: err}, depAll)
}

// setDown flips the site's crash state and stages its publication, so
// whatever the running event staged before this point leaves first.
func (s *Site) setDown(down bool) {
	s.down = down
	s.stage(effect{kind: fxDown}, depAll)
}

// onMessage is the transport's delivery handler for one message.
func (s *Site) onMessage(msg protocol.Message) {
	s.enqueue(siteEvent{fn: func() {
		if !s.down {
			s.handle(msg)
		}
	}}, s.c.deliver)
}

// onMessageBatch is the delivery handler for a whole same-destination
// frame: one event, its messages run in arrival order.  The transport
// hands over ownership of the slice, so it can cross the goroutine
// boundary without a copy.
func (s *Site) onMessageBatch(msgs []protocol.Message) {
	s.enqueue(siteEvent{msgs: msgs}, s.c.deliver)
}

// Site timers.
//
// Every timer a site arms is an entry in the site's own min-heap,
// ordered by (due, arm order), and the site keeps one clock timer armed
// for the head.  Arming and cancelling are heap operations under
// stateMu; the clock is re-armed only when a new entry is due before the
// armed one, so the common timer — armed, then cancelled long before it
// is due — never reaches the clock.  A fire is one site event that runs
// every due entry in order, and drops those that fall due while the
// site is down.

// siteTimer is one entry of a site's timer heap.
type siteTimer struct {
	due   vclock.Time
	seq   uint64 // arm order: FIFO among entries due at the same instant
	fn    func()
	index int // position in the heap; -1 once fired or cancelled
}

// timerID names a site timer for cancel; nil names none.  It is not a
// vclock.TimerID: site timers are cancelled through the site.
type timerID *siteTimer

// timerHeap orders a site's timers by (due, seq).
type timerHeap []*siteTimer

func (h timerHeap) Len() int { return len(h) }
func (h timerHeap) Less(i, j int) bool {
	if h[i].due != h[j].due {
		return h[i].due < h[j].due
	}
	return h[i].seq < h[j].seq
}
func (h timerHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *timerHeap) Push(x any) {
	t := x.(*siteTimer)
	t.index = len(*h)
	*h = append(*h, t)
}
func (h *timerHeap) Pop() any {
	old := *h
	t := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	t.index = -1
	return t
}

// after schedules fn to run on this site d from now, unless the site is
// down when it falls due.
func (s *Site) after(d vclock.Time, fn func()) timerID {
	s.timerSeq++
	t := &siteTimer{due: s.c.clk.Now() + d, seq: s.timerSeq, fn: fn}
	heap.Push(&s.timers, t)
	s.armClock()
	return t
}

// cancel drops a pending site timer; a fired or cancelled one, or nil,
// is a no-op.  The clock stays armed: a fire with nothing due re-arms.
func (s *Site) cancel(id timerID) {
	if id == nil || id.index < 0 {
		return
	}
	heap.Remove(&s.timers, id.index)
	id.fn = nil
}

// armClock keeps the site's one clock timer armed for the heap's head.
// Each arm gets a new generation, so a fire that lost a race with a
// re-arm does not disarm its successor.
func (s *Site) armClock() {
	if len(s.timers) == 0 {
		return
	}
	due := s.timers[0].due
	if s.clockID != 0 {
		if s.clockDue <= due {
			return
		}
		s.c.clk.Cancel(s.clockID)
	}
	s.clockGen++
	gen := s.clockGen
	s.clockDue = due
	s.clockID = s.c.clk.At(due, func() { s.do(func() { s.fireTimers(gen) }) })
}

// fireTimers runs every due entry in order, then re-arms the clock.
func (s *Site) fireTimers(gen uint64) {
	if gen == s.clockGen {
		s.clockID = 0
	}
	now := s.c.clk.Now()
	for len(s.timers) > 0 && s.timers[0].due <= now {
		t := heap.Pop(&s.timers).(*siteTimer)
		fn := t.fn
		t.fn = nil
		if !s.down {
			fn()
		}
	}
	s.armClock()
}
