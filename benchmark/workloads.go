package main

import (
	"fmt"
	"math/rand"
	"time"

	"repro/internal/cluster"
	"repro/internal/expr"
)

// Fixed settings shared by every workload (see README.md for why each
// value is what it is and how it diverges from a deployment).
const (
	numSites    = 3
	numAccounts = 4096
	startMoney  = 1000
	poolSize    = 65536
	// conflictClasses partitions accounts and pool entries so that
	// transactions submitted close together never touch the same
	// account: entry i only uses accounts whose index is
	// i mod conflictClasses.  Lock conflicts abort under this protocol
	// (no-wait locking), and the acceptance contract wants workloads on
	// which no operation fails.  Many more classes than clients, because
	// a participant releases a transaction's locks only when the complete
	// message arrives, after the client already has its answer: a client
	// must not come back to a class until its earlier transfers' locks
	// are long gone (with 16 clients, every 16th transfer).
	conflictClasses = 256
	gcPercent       = 400
	maxProcs        = 4
	clientWait      = 5 * time.Second
	// A client resubmits a transfer that was definitely aborted, after
	// retryFirst doubling up to retryMax, until retryFor has passed since
	// the first abort: long enough to outlast the 250 ms an account stays
	// locked before an outage turns it into a polyvalue, and any stall of
	// the host that makes the protocol's own 250 ms timeouts fire.  A
	// client whose coordinator went quiet looks every inquireEvery
	// whether it has been restarted.
	retryFirst   = 5 * time.Millisecond
	retryMax     = 100 * time.Millisecond
	retryFor     = time.Second
	inquireEvery = 100 * time.Millisecond
	// chaseAfter is how long after a crash the chaser starts: just past
	// the default WaitTimeout (250 ms), when a polyvalue site has turned
	// every transaction left in doubt into polyvalues and a blocking
	// site is still holding their locks.
	chaseAfter  = 300 * time.Millisecond
	settleLimit = 20 * time.Second
	syncDelay   = time.Millisecond
)

// workload is one named traffic shape.  The names are final: later
// issues cite them.
type workload struct {
	name string
	why  string
	// clients > 0 is a closed loop with that many clients; rate > 0 an
	// open loop with that many submissions per second.
	clients, rate int
	// warmup is the count of transactions run before the clock starts.
	warmup int
	// durable runs every site on a WAL with SyncWAL, four lanes and the
	// fixed-delay sync filesystem.
	durable bool
	// outage makes s0 a coordinator that owns no account and crashes it
	// on a schedule, with the chaser client running while it is down.
	outage bool
}

var workloads = []workload{
	{
		name: "transfer-sat", clients: 16, warmup: 20000,
		why: "16 closed-loop clients saturate the CPU: cluster event loop, protocol, wire, transport batching and the allocator do all the work",
	},
	{
		name: "transfer-solo", clients: 1, warmup: 500,
		why: "one closed-loop client: no queueing, nothing to coalesce, so fixed per-hop costs such as the batch linger dominate",
	},
	{
		name: "transfer-durable", clients: 16, warmup: 1000, durable: true,
		why: "SyncWAL, 4 lanes and a fixed 1 ms sync on an in-memory filesystem: storage framing, group commit and output commit dominate, the device does not",
	},
	{
		name: "outage-poly", rate: 3000, warmup: 6000, outage: true,
		why: "open loop at 3000/s while the coordinator crashes mid-commit every 5 s: in-doubt items become polyvalues and must keep committing",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// crashPlan schedules the outage workload's coordinator crashes within
// one measured window: the k-th crash is armed at first + k·every, the
// site stays down for down, and a cycle only starts if it can finish
// inside the window.
type crashPlan struct {
	first, every, down time.Duration
}

var fullCrashPlan = crashPlan{first: time.Second, every: 5 * time.Second, down: 2 * time.Second}

func (p crashPlan) cycles(window time.Duration) int {
	n := 0
	for at := p.first; at+p.down <= window; at += p.every {
		n++
	}
	return n
}

// crashPoints alternate between the two coordinator-side durability
// windows: decision logged but unsent (participants must extract the
// commit from the restarted coordinator) and nothing logged (presumed
// abort).
var crashPoints = []cluster.CrashPoint{cluster.CrashAfterDecisionLog, cluster.CrashBeforeDecision}

// runOpts is everything about one run that is not the workload.
type runOpts struct {
	seed   int64
	window time.Duration
	trace  bool
	// setups is how many times the cluster is brought up, loaded and
	// warmed before the measured window (setup_s is their median).
	setups int
	wait   time.Duration // client Handle.Wait bound
	crash  crashPlan
	policy cluster.Policy
	// traceDir receives trace-<workload>.jsonl on traced runs ("" skips
	// the file).
	traceDir string
}

func defaultOpts(seed int64, window time.Duration, trace bool) runOpts {
	o := runOpts{
		seed: seed, window: window, trace: trace, setups: 3,
		wait: clientWait, crash: fullCrashPlan, traceDir: "benchmark/out",
	}
	if trace {
		o.setups = 1 // setup_s is an end-to-end metric; traced runs do not report it
	}
	return o
}

func accountName(i int) string { return fmt.Sprintf("acct%d", i) }

func transferSource(from, to string, amt int) string {
	return fmt.Sprintf("%s = %s - %d if %s >= %d; %s = %s + %d if %s >= %d",
		from, from, amt, from, amt, to, to, amt, from, amt)
}

// transferPool is the seeded input: poolSize guarded two-account
// transfers, parsed before any clock starts.  The seed changes these
// programs and nothing else.
type transferPool struct {
	src  []string
	prog []expr.Program
}

func newTransferPool(seed int64) (*transferPool, error) {
	rng := rand.New(rand.NewSource(seed))
	perClass := numAccounts / conflictClasses
	p := &transferPool{src: make([]string, poolSize), prog: make([]expr.Program, poolSize)}
	for i := range p.src {
		class := i % conflictClasses
		x := rng.Intn(perClass)
		y := rng.Intn(perClass - 1)
		if y >= x {
			y++
		}
		amt := 1 + rng.Intn(50)
		p.src[i] = transferSource(accountName(x*conflictClasses+class), accountName(y*conflictClasses+class), amt)
		prog, err := expr.Parse(p.src[i])
		if err != nil {
			return nil, fmt.Errorf("pool entry %d: %w", i, err)
		}
		p.prog[i] = prog
	}
	return p, nil
}
