package cluster

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/polyvalue"
	"repro/internal/protocol"
	"repro/internal/value"
)

// stressSites is the 3-node cluster the durable stress runs over.
var stressSites = []protocol.SiteID{"A", "B", "C"}

// stressPlacement spreads the stress accounts ("la<N>") round-robin.
func stressPlacement(item string) protocol.SiteID {
	if n, err := strconv.Atoi(strings.TrimPrefix(item, "la")); err == nil {
		return stressSites[n%len(stressSites)]
	}
	return "A"
}

// newDurableHarness is a nodeHarness booting every site with
// synchronous group-commit durability enabled.
func newDurableHarness(t *testing.T) *nodeHarness {
	return newTunedNodeHarness(t, func(cfg *Config) {
		cfg.Placement, cfg.SyncWAL = stressPlacement, true
	})
}

func stressTransfer(from, to string, amount int) string {
	return fmt.Sprintf("%s = %s - %d if %s >= %d; %s = %s + %d if %s >= %d",
		from, from, amount, from, amount, to, to, amount, from, amount)
}

// TestDurableStress hammers a durable cluster from concurrent workers —
// some on worker-private (disjoint) account pairs, some on a shared hot
// set where their transactions collide — with a crash point armed and a kill/restart cycle in the middle.  Run
// under -race this is the event engine's data-race audit; the final
// conservation check is the correctness audit.  (The seeded simulated
// harnesses stay single-threaded by design; this test is wall-clock on
// purpose.)
func TestDurableStress(t *testing.T) {
	if testing.Short() {
		t.Skip("durable stress needs real fsyncs and wall-clock settling")
	}
	h := newDurableHarness(t)

	// la0..la3 are the shared hot set; la4..la9 are three disjoint
	// private pairs.  100 each: the conserved total is 1000.
	const accounts = 10
	const initial = 100
	for i := 0; i < accounts; i++ {
		item := fmt.Sprintf("la%d", i)
		if err := h.nodes[stressPlacement(item)].Load(item, polyvalue.Simple(value.Int(initial))); err != nil {
			t.Fatalf("load %s: %v", item, err)
		}
	}

	type job struct {
		coord    protocol.SiteID
		from, to string
	}
	var workers [][]job
	// Three overlap workers: random-ish walks over the shared hot set,
	// coordinated from different sites.
	for w := 0; w < 3; w++ {
		var js []job
		for i := 0; i < 12; i++ {
			from := fmt.Sprintf("la%d", (w+i)%4)
			to := fmt.Sprintf("la%d", (w+i+1)%4)
			js = append(js, job{coord: stressSites[w%3], from: from, to: to})
		}
		workers = append(workers, js)
	}
	// Three disjoint workers: each owns its private pair outright.
	for w := 0; w < 3; w++ {
		a, b := fmt.Sprintf("la%d", 4+2*w), fmt.Sprintf("la%d", 5+2*w)
		var js []job
		for i := 0; i < 12; i++ {
			from, to := a, b
			if i%2 == 1 {
				from, to = b, a
			}
			js = append(js, job{coord: stressSites[w%3], from: from, to: to})
		}
		workers = append(workers, js)
	}

	runPhase := func(phase string) {
		var wg sync.WaitGroup
		for w, js := range workers {
			wg.Add(1)
			go func(w int, js []job) {
				defer wg.Done()
				for _, j := range js {
					n := h.nodes[j.coord]
					hd, err := n.Submit(j.coord, stressTransfer(j.from, j.to, 5))
					if err != nil {
						// Refused (admission, site down after the armed
						// crash): no money moved.
						continue
					}
					hd.Wait(10 * time.Second)
				}
			}(w, js)
		}
		wg.Wait()
		t.Logf("%s phase drained", phase)
	}

	runPhase("warm")

	// Arm the decided-but-unannounced crash window on B, push one more
	// phase through it (B dies at its next commit decision, stranding
	// its participants in doubt), then bring B back from its WAL.
	if err := h.nodes["B"].ArmCrash("B", CrashAfterDecisionLog); err != nil {
		t.Fatalf("arm crash: %v", err)
	}
	runPhase("crash")
	h.kill("B")
	h.start("B", nil)
	runPhase("recovered")

	// Conservation audit.  A handle decides before the complete messages
	// fan out, so "the workers have drained" is not yet "the cluster is
	// quiet": a committed transfer's credit can be installed while its
	// debit is still in flight.  Wait for quiescence first — no locks, no
	// prepared or awaited transactions, no polyvalues at any site — and
	// only then read the accounts, once.  The total must be exactly
	// accounts*initial: committed transfers move money, aborted ones move
	// none, nothing may be lost or minted across group commits, parked
	// outputs, the crash, or recovery.
	quiet := func() bool {
		for _, id := range stressSites {
			info, err := h.nodes[id].SiteInfo(id)
			if err != nil || info.Locks+info.Prepared+info.Awaits+info.PolyItems > 0 {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(45 * time.Second); !quiet(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("cluster never went quiet")
		}
	}
	total := int64(0)
	for i := 0; i < accounts; i++ {
		item := fmt.Sprintf("la%d", i)
		v, ok := h.nodes[stressPlacement(item)].Read(item).IsCertain()
		if !ok {
			t.Fatalf("%s uncertain on a quiet cluster: %v", item, h.nodes[stressPlacement(item)].Read(item))
		}
		iv, ok := v.(value.Int)
		if !ok {
			t.Fatalf("%s settled non-int %v", item, v)
		}
		total += int64(iv)
	}
	if total != accounts*initial {
		t.Fatalf("conservation violated: total %d, want %d", total, accounts*initial)
	}

	// Group commit must actually have grouped — no more fsync batches
	// than frames.
	for _, id := range stressSites {
		n := h.nodes[id]
		for _, g := range n.glogs {
			frames, syncs := g.SyncBatches()
			if frames > 0 && syncs > frames {
				t.Fatalf("site %s: %d syncs for %d frames", id, syncs, frames)
			}
			t.Logf("site %s: %d WAL frames in %d fsync batches", id, frames, syncs)
		}
	}
}
