package main

import (
	"sync"
	"testing"
	"time"
)

// With consumers that keep up, every request is picked up at its due
// time (to scheduling precision) and none is dropped.
func TestOpenLoopKeepsItsSchedule(t *testing.T) {
	const rate, n = 1000, 100
	start := time.Now()
	var mu sync.Mutex
	late := make([]time.Duration, n)
	dropped := openLoop(start, rate, n, 8, n, func(_, i int, due, picked time.Time) {
		if want := start.Add(time.Duration(i) * time.Millisecond); !due.Equal(want) {
			t.Errorf("request %d due at +%v, want +%v", i, due.Sub(start), want.Sub(start))
		}
		mu.Lock()
		late[i] = picked.Sub(due)
		mu.Unlock()
	})
	if dropped != 0 {
		t.Fatalf("dropped %d requests with idle consumers", dropped)
	}
	if took := time.Since(start); took < n*time.Millisecond*9/10 {
		t.Errorf("schedule of %v finished in %v: requests ran ahead of their due times", n*time.Millisecond, took)
	}
	for i, l := range late {
		if l < 0 {
			t.Errorf("request %d picked up %v before it was due", i, -l)
		}
	}
}

// A stalled consumer does not slow the schedule down: requests keep
// coming due on time, queue, and their lateness — and so the latency
// measured from the due time — grows by the stall; once the queue is
// full the overflow is dropped and counted, never silently skipped.
func TestOpenLoopAccountsForAStalledConsumer(t *testing.T) {
	const rate, n, stall = 1000, 40, 5 * time.Millisecond
	start := time.Now()
	var picked, finished [n]time.Duration // from due
	dropped := openLoop(start, rate, n, 1, n, func(_, i int, due, at time.Time) {
		picked[i] = at.Sub(due)
		time.Sleep(stall)
		finished[i] = time.Since(due)
	})
	if dropped != 0 {
		t.Fatalf("dropped %d with room in the queue", dropped)
	}
	// One consumer at ≥5 ms per request against 1 ms spacing: request i
	// starts no earlier than i·(stall−1ms) after it was due.
	last := n - 1
	if min := time.Duration(last) * (stall - time.Millisecond); picked[last] < min {
		t.Errorf("last request picked up %v late, want ≥ %v: queueing delay was not charged", picked[last], min)
	}
	for i := range picked {
		if finished[i] < picked[i]+stall {
			t.Errorf("request %d: latency from due %v < lateness %v + service %v", i, finished[i], picked[i], stall)
		}
	}

	// Same stall, a queue of 4: most of the schedule overflows.
	var mu sync.Mutex
	ran := 0
	dropped = openLoop(time.Now(), rate, n, 1, 4, func(int, int, time.Time, time.Time) {
		time.Sleep(stall)
		mu.Lock()
		ran++
		mu.Unlock()
	})
	if dropped == 0 {
		t.Error("a full queue dropped nothing")
	}
	if ran+dropped != n {
		t.Errorf("ran %d + dropped %d != scheduled %d", ran, dropped, n)
	}
}

func TestCrashPlanCycles(t *testing.T) {
	for _, c := range []struct {
		window time.Duration
		want   int
	}{{20 * time.Second, 4}, {10 * time.Second, 2}, {30 * time.Second, 6}, {2 * time.Second, 0}} {
		if got := fullCrashPlan.cycles(c.window); got != c.want {
			t.Errorf("cycles(%v) = %d, want %d", c.window, got, c.want)
		}
	}
}
