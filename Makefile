GO ?= go

.PHONY: check lint vet build test race bench bench-procs bench-procs-smoke ab golden loc tables examples fuzz-smoke cluster-demo chaos chaos-smoke chaos-demo diskchaos diskchaos-smoke frontier overload overload-smoke telemetry-smoke consensus consensus-smoke georep georep-smoke

check: lint vet build race ## everything CI runs

# gofmt must be clean; staticcheck runs when the binary is installed
# (CI installs it, offline dev machines may not have it).
lint:
	@unformatted="$$(gofmt -l .)"; \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	@if command -v staticcheck >/dev/null 2>&1; then \
		staticcheck ./...; \
	else \
		echo "staticcheck not installed; skipping"; \
	fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem -run=^$$ ./...

# Closed-loop throughput and latency of a real multi-process cluster on
# the planes the fixed benchmark does not cover: boot $(SITES) polynodes
# with $(NODE_FLAGS), drive them with polybench $(BENCH_FLAGS) over the
# control ports, audit, tear down.  Cluster knobs are polynode flags;
# it records nothing and gates nothing but its own audit.
#   make bench-procs NODE_FLAGS='-decision-plane paxos' BENCH_FLAGS='-workers 16 -txns 20000'
# (command-line and environment variables reach the script as is.)
bench-procs:
	scripts/bench_procs.sh

# CI variant: 3 sites, 2,000 seeded bank transactions, fails on the audit.
bench-procs-smoke:
	SITES=3 BENCH_FLAGS='-workers 8 -txns 2000 -seed 7' scripts/bench_procs.sh

# Paired A/B of the fixed benchmark, parent revision against this tree:
# ten alternating pairs with fresh seeds, medians, quartiles, pairs won
# and the parent's own spread per end-to-end metric — the acceptance
# instrument for any change that claims (or must not cause) a move.
#   make ab REV=<parent> [WORKLOAD=transfer-durable]
ab:
	@test -n "$(REV)" || { echo "usage: make ab REV=<parent-rev> [WORKLOAD=<name>]"; exit 2; }
	scripts/ab.sh $(REV) $(WORKLOAD)

# Seeded outputs (polyverify, polytables, outagedrill, replicated,
# polystat -export), parent revision against this tree: prints a
# unified diff of any that differ and exits 1 if one does — the
# acceptance check for a change that must not move behaviour.
#   make golden REV=<parent>
golden:
	@test -n "$(REV)" || { echo "usage: make golden REV=<parent-rev>"; exit 2; }
	scripts/golden.sh $(REV)

# Non-test Go lines outside benchmark/, per package and in total — the
# figure ROADMAP.md and the simplicity PRs quote, by ROADMAP's method.
loc:
	@find . -name '*.go' -not -name '*_test.go' -not -path './benchmark/*' -not -path './.*' | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub("/[^/]*$$", "", d); n[d] += $$1; t += $$1 } \
		     END { for (d in n) printf "%7d %s\n", n[d], d; printf "%7d total\n", t }' | sort -k2

tables:
	$(GO) run ./cmd/polytables

# Run every examples/* program, failing on the first non-zero exit (a
# panic included).  Each is a seeded simulation that ends in seconds.
examples:
	@for d in examples/*/; do \
		echo "== $$d"; $(GO) run ./$$d || { echo "$$d failed"; exit 1; }; \
	done

# Short fuzzing passes over every wire-format decoder, the program
# parser and the fault-plan grammar (one -fuzz run per target; go test
# only accepts a single fuzz target at a time).
fuzz-smoke:
	$(GO) test -run=^$$ -fuzz=FuzzMessageDecode -fuzztime=10s ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzPaxosDecode -fuzztime=10s ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzAntiEntropyDecode -fuzztime=10s ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzPolyDecode -fuzztime=10s ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzBatchDecode -fuzztime=10s ./internal/wire
	$(GO) test -run=^$$ -fuzz=FuzzRecover -fuzztime=10s ./internal/storage
	$(GO) test -run=^$$ -fuzz=FuzzDecodeBinary -fuzztime=10s ./internal/polyvalue
	$(GO) test -run=^$$ -fuzz=FuzzParseProgram -fuzztime=10s ./internal/expr
	$(GO) test -run=^$$ -fuzz=FuzzApplyPlan -fuzztime=10s ./internal/fault

# Full crash-recovery torture: seeded faults (drops, dup, delay,
# corruption, partitions, resets), crash points, and kill+restart cycles
# against a 3-site TCP cluster, asserting conservation, zero residual
# polyvalues, WAL idempotence, and no goroutine leaks.
chaos:
	$(GO) test -race -count=1 -v -run TestChaos ./internal/harness

# Short seeded torture for CI: same assertions, smaller schedule.
chaos-smoke:
	$(GO) test -race -count=1 -short -run TestChaosTortureSeeded ./internal/harness

# Full storage-fault torture: fsync failures, torn writes, ENOSPC,
# slow-disk windows and recovery-read bit-flips injected under every
# site's WAL, woven with kill-9 cycles, asserting the fsyncgate
# discipline (durability panics, rebuild-only revival), conservation,
# and a clean crash-recovery frontier sweep over every final WAL.
diskchaos:
	$(GO) test -race -count=1 -v -run TestDiskChaos ./internal/harness

# Short seeded disk torture for CI: same assertions, smaller schedule.
diskchaos-smoke:
	$(GO) test -race -count=1 -short -run TestDiskChaosTortureSeeded ./internal/harness

# Deterministic ALICE-style crash-recovery frontier sweep: recover a
# recorded WAL from every frame boundary and torn tail, asserting clean
# recovery, fixpoint idempotence, and exact torn-tail equivalence.
frontier:
	$(GO) test -race -count=1 -v -run 'TestCrashRecoveryFrontier|TestFrontierSweep' ./internal/storage

# Full overload torture: offered load above the admission cap through a
# 60s+ partition with tight polyvalue budgets and transaction deadlines,
# asserting bounded polyvalue population, conservation, shed submissions,
# detector suspects, and a return to polyvalue mode after the heal.
overload:
	$(GO) test -race -count=1 -v -run TestOverloadTortureSeeded ./internal/harness

# Short overload torture for CI: same assertions, ~3s partition.
overload-smoke:
	$(GO) test -race -count=1 -short -v -run TestOverloadTortureSeeded ./internal/harness

# Full Paxos Commit decision-plane torture: the unit-level consensus and
# cluster paxos suites, then the chaos harness on a 5-site TCP cluster
# with the paxos plane, killing F=2 acceptors plus the armed victim each
# cycle and asserting durable consistent decisions, conservation, and
# acceptor-state GC.
consensus:
	$(GO) test -race -count=1 ./internal/consensus
	$(GO) test -race -count=1 -run TestPaxos ./internal/cluster
	$(GO) test -race -count=1 -v -run TestConsensusChaosSeeded ./internal/harness

# Short decision-plane torture for CI: same assertions, one kill cycle.
consensus-smoke:
	$(GO) test -race -count=1 ./internal/consensus
	$(GO) test -race -count=1 -run TestPaxos ./internal/cluster
	$(GO) test -race -count=1 -short -v -run TestConsensusChaosSeeded ./internal/harness

# Full geo-replication torture: a 5-site cluster with k=3 replicas and a
# 2/2 write/read quorum rides out a long partition — quorum writes keep
# committing on the majority side while write-all blocks — then heals and
# lets anti-entropy gossip alone (the coordinator stays dead) reduce every
# stranded polyvalue and converge every replica, with conservation
# asserted throughout.
georep:
	$(GO) test -race -count=1 -v -run TestGeoRep ./internal/harness

# Short seeded geo-replication run for CI: same assertions, one partition.
georep-smoke:
	$(GO) test -race -count=1 -short -v -run TestGeoRepSeeded ./internal/harness

# Boot a 3-process cluster with -spans and -telemetry, commit a
# transfer, and check /metrics, /healthz, /trace and the control-port
# SPANS dump agree — ending with polytrace reconstructing a complete
# causal timeline for the committed transaction.
telemetry-smoke:
	scripts/telemetry_smoke.sh

# Boot a real 3-process cluster on loopback TCP, transfer between
# accounts, kill the coordinator mid-commit, watch polyvalues install,
# restart it, and assert conservation after the reduction.
cluster-demo:
	scripts/cluster_demo.sh

# Drive the fault plane through polynode control ports: partitions,
# drops and corruption against a live 3-process cluster, healed live,
# ending with conservation intact.
chaos-demo:
	scripts/chaos_demo.sh
