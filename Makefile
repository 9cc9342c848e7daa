GO ?= go
SHA := $(shell git rev-parse --short HEAD)

# Benchmarks archived per commit and gated on allocs/op by benchjson.
GATED_BENCHES := BenchmarkSimEventLoop|BenchmarkSegEncodeDecode|BenchmarkSingleDownload4MB|BenchmarkTCPSingle4MB|BenchmarkTCPBloat8MB

.PHONY: all build test race vet bench bench-diff ledger ledger-identity scorecard fuzz-smoke cover loadsmoke chaos-smoke sched-smoke serve-smoke

all: vet build test

build:
	$(GO) build ./...

test:
	$(GO) test -timeout 10m ./...

vet:
	$(GO) vet ./...
	@test -z "$$(gofmt -l .)" || { echo "gofmt -l lists:"; gofmt -l .; exit 1; }

race:
	$(GO) test -race -shuffle=on -timeout 20m ./...

# bench runs the gated hot-path benchmarks with -benchmem, archives
# the numbers as BENCH_<sha>.json, and fails if any allocation gate
# regresses (see cmd/benchjson for the ceilings).
bench:
	$(GO) test -run '^$$' -bench '$(GATED_BENCHES)' -benchmem . \
		| $(GO) run ./cmd/benchjson -o BENCH_$(SHA).json

# bench-diff additionally compares the gated benchmarks against the
# committed BENCH_baseline.json and fails on a >10% regression in
# ns/op or allocs/op. A perf PR that deliberately moves the numbers
# refreshes the baseline (and archives its BENCH_<sha>.json point).
BENCH_BASELINE ?= BENCH_baseline.json
bench-diff:
	$(GO) test -run '^$$' -bench '$(GATED_BENCHES)' -benchmem . \
		| $(GO) run ./cmd/benchjson -baseline $(BENCH_BASELINE) -o BENCH_$(SHA).json

# ledger runs the performance ledger (bench/, declared by
# BENCHMARK.json): four end-to-end workloads, each printing the
# export_sha256 and sim.events that show two commits simulated the same
# thing. `go run ./bench -trace 1` adds the per-layer ladder; see
# bench/README.md.
ledger:
	$(GO) run ./bench

# ledger-identity is the byte-identity gate for performance work: it
# runs the ledger at the default seed (shortest timed passes — the
# pairs do not depend on how long it measures) and fails unless every
# workload's export_sha256 / sim.events pair equals the committed
# LEDGER_IDENTITY. The failure says which half moved. A new
# export_sha256 means the commit simulates something else; a new
# sim.events under the same export_sha256 means it reaches the same
# bytes through a different number of events (as when link departures
# stopped being events, DESIGN.md §7.1). A change that intends either
# edits the file in the same commit (the diff below prints the new
# lines) and says why.
LEDGER_PAIRS = awk '/^== / { for (i = 2; i <= NF; i++) if ($$i ~ /^(export_sha256|sim\.events)=/) $$2 = $$2 " " $$i; print $$2 }'
LEDGER_SAME_SHA = awk 'NR == FNR { sha[$$1] = $$2; n++; next } sha[$$1] != $$2 { moved = 1 } END { exit moved || FNR != n }'
ledger-identity:
	$(GO) run ./bench -seconds 1 | tee /dev/stderr | $(LEDGER_PAIRS) > ledger_identity.out
	@diff -u LEDGER_IDENTITY ledger_identity.out || { \
		if $(LEDGER_SAME_SHA) LEDGER_IDENTITY ledger_identity.out; \
		then echo "ledger-identity: only sim.events moved: same simulation, different event count — update LEDGER_IDENTITY and say why"; \
		else echo "ledger-identity: export_sha256 moved: this commit simulates something else than LEDGER_IDENTITY records"; fi; \
		rm -f ledger_identity.out; exit 1; }
	@rm -f ledger_identity.out
	@echo "ledger-identity: all export_sha256 / sim.events pairs match LEDGER_IDENTITY"

# scorecard regenerates SCORECARD.csv: every paper claim of
# internal/experiment/scorecard.go with its band, its value at seed
# families 1, 2 and 3, and its verdict. TestScorecard fails when the
# committed file differs from what this writes, or when a row fails; a
# change that moves a scored number runs this and commits the diff.
scorecard:
	$(GO) run ./cmd/paperbench -experiment all -reps 8 -format scorecard -o SCORECARD.csv

# fuzz-smoke gives each native fuzz target a short budget beyond its
# checked-in corpus (root TestFuzzSmokeListsEveryTarget fails when a
# Fuzz function of the module is missing from this list), then sweeps
# the adversarial scenario fuzzer over 200 seeded scenarios under each
# registered packet scheduler with the full invariant checker armed.
# Any violation prints the one command line that reruns its shrunk
# case (mptcpsim -replay seed:mask[:sched]).
FUZZTIME ?= 20s
FUZZ_SCHEDS := minrtt roundrobin weighted redundant blest adaptive
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz '^FuzzSegDecode$$' -fuzztime $(FUZZTIME) ./internal/seg/
	$(GO) test -run '^$$' -fuzz '^FuzzReorderInsert$$' -fuzztime $(FUZZTIME) ./internal/mptcp/
	$(GO) test -run '^$$' -fuzz '^FuzzTimerWheel$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzLazySource$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzSlotLookAhead$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzScheduler$$' -fuzztime $(FUZZTIME) ./internal/sim/
	$(GO) test -run '^$$' -fuzz '^FuzzLinkOccupancy$$' -fuzztime $(FUZZTIME) ./internal/netem/
	$(GO) test -run '^$$' -fuzz '^FuzzStoreOpen$$' -fuzztime $(FUZZTIME) ./internal/sweep/
	$(GO) test -run '^$$' -fuzz '^FuzzJournalOpen$$' -fuzztime $(FUZZTIME) ./cmd/mptcpd/
	$(GO) test -run '^$$' -fuzz '^FuzzSenderBookkeeping$$' -fuzztime $(FUZZTIME) ./internal/tcp/
	$(GO) test -run '^$$' -fuzz '^FuzzResultBinary$$' -fuzztime $(FUZZTIME) ./internal/experiment/
	$(GO) test -run '^$$' -fuzz '^FuzzSortFloats$$' -fuzztime $(FUZZTIME) ./internal/stats/
	for s in $(FUZZ_SCHEDS); do \
		$(GO) run ./cmd/mptcpfuzz -n 200 -seed 1 -sched $$s || exit 1; \
	done

# sched-smoke is the scheduler-matrix gate: the golden export fixture
# pins minrtt's placement byte-for-byte (any scheduler-layer change
# that perturbs the default policy fails here), and the conformance
# suite runs every registered scheduler through the five-scenario
# battery — zero invariant violations, byte-stream oracle intact,
# policy properties (RTT preference, rotation, weighted split,
# zero-stall blackout redundancy, backup silence until WiFi dies,
# blest HoL gate, adaptive fade survival) asserted — under the race
# detector. The suite runs in seconds; the tight timeout catches a
# gating policy wedging the virtual clock.
sched-smoke:
	$(GO) test -count=1 -run '^TestGoldenSmallFlowsExports$$' ./internal/experiment/
	$(GO) test -race -count=1 -timeout 5m \
		-run '^TestSchedulerConformance$$|^TestConformanceReplayTokens$$' ./internal/check/

# loadsmoke proves the fleet engine's determinism contract end to end:
# the same sweep, run serially and with a worker pool, must produce
# byte-identical CSV and JSON exports, with the invariant checker armed
# on every run (mptcpload exits non-zero on any violation). The second
# pair runs a 5,000-client fleet, whose clients are built at their
# first dial, long after the checker armed. The third mixes run shapes
# (hundreds of flows, then tens, on a serial worker's one world), so the
# connection objects each Reset recycles are sometimes more and
# sometimes fewer than the next run needs.
LOADFLAGS := -clients 60 -rates 3,10 -duration 15s -drain 15s -reps 2 -seed 42 -transport 'wifi=0.3,cell=0.2,mptcp=0.5'
LOADFLAGS5K := -clients 5000 -rates 3 -duration 15s -drain 15s -reps 2 -seed 42 -transport 'wifi=0.3,cell=0.2,mptcp=0.5'
LOADFLAGSMIX := -fleets 200,20 -rates 20,2 -duration 15s -drain 15s -reps 2 -seed 42 -transport 'wifi=0.3,cell=0.2,mptcp=0.5'
loadsmoke:
	$(GO) run ./cmd/mptcpload $(LOADFLAGS) -workers 1 -o loadsmoke_w1.csv
	$(GO) run ./cmd/mptcpload $(LOADFLAGS) -workers 8 -o loadsmoke_w8.csv
	$(GO) run ./cmd/mptcpload $(LOADFLAGS) -workers 1 -format json -o loadsmoke_w1.json
	$(GO) run ./cmd/mptcpload $(LOADFLAGS) -workers 8 -format json -o loadsmoke_w8.json
	cmp loadsmoke_w1.csv loadsmoke_w8.csv
	cmp loadsmoke_w1.json loadsmoke_w8.json
	$(GO) run ./cmd/mptcpload $(LOADFLAGS5K) -workers 1 -o loadsmoke_w1_5k.csv
	$(GO) run ./cmd/mptcpload $(LOADFLAGS5K) -workers 8 -o loadsmoke_w8_5k.csv
	cmp loadsmoke_w1_5k.csv loadsmoke_w8_5k.csv
	$(GO) run ./cmd/mptcpload $(LOADFLAGSMIX) -workers 1 -o loadsmoke_w1_mix.csv
	$(GO) run ./cmd/mptcpload $(LOADFLAGSMIX) -workers 8 -o loadsmoke_w8_mix.csv
	cmp loadsmoke_w1_mix.csv loadsmoke_w8_mix.csv
	@echo "loadsmoke: exports byte-identical across worker counts, zero violations"
	@rm -f loadsmoke_w1.csv loadsmoke_w8.csv loadsmoke_w1.json loadsmoke_w8.json loadsmoke_w1_5k.csv loadsmoke_w8_5k.csv loadsmoke_w1_mix.csv loadsmoke_w8_mix.csv

# chaos-smoke proves the resilience layer's determinism contract: the
# same chaos sweep, serial and with a worker pool, must produce
# byte-identical run exports AND byte-identical resilience reports,
# with the invariant checker armed on every run. Then mptcpsim renders
# a report through the one renderer twice: the §6 contrast (MP-2 vs
# SP-WiFi through one WiFi outage, unsampled), and the replay of the
# first resilience row's token.
CHAOSFLAGS := -clients 40 -rates 4,8 -duration 10s -drain 20s -reps 2 -seed 42 \
	-transport 'wifi=0.3,cell=0.2,mptcp=0.5' \
	-chaos 'flap:path=wifi;at=2s;dur=400ms;every=2s;n=3'
chaos-smoke:
	$(GO) run ./cmd/mptcpload $(CHAOSFLAGS) -workers 1 -o chaos_w1.csv -res-out chaosres_w1.csv
	$(GO) run ./cmd/mptcpload $(CHAOSFLAGS) -workers 4 -o chaos_w4.csv -res-out chaosres_w4.csv
	$(GO) run ./cmd/mptcpload $(CHAOSFLAGS) -workers 1 -format json -o chaos_w1.json -res-out chaosres_w1.json
	$(GO) run ./cmd/mptcpload $(CHAOSFLAGS) -workers 4 -format json -o chaos_w4.json -res-out chaosres_w4.json
	cmp chaos_w1.csv chaos_w4.csv
	cmp chaosres_w1.csv chaosres_w4.csv
	cmp chaos_w1.json chaos_w4.json
	cmp chaosres_w1.json chaosres_w4.json
	$(GO) run ./cmd/mptcpsim -chaos 'outage:path=wifi;at=2s;dur=3s' -size 4MB -seed 61 -sample=false -transport mp2,sp-wifi
	$(GO) run ./cmd/mptcpsim -replay "$$(sed -n '2s/.*,"\([^"]*\)"$$/\1/p' chaosres_w1.csv)" > chaos_replay.txt
	cat chaos_replay.txt
	grep -q '^  verdict:' chaos_replay.txt
	@echo "chaos-smoke: chaos sweep + resilience exports byte-identical across worker counts; replay renders its report"
	@rm -f chaos_w1.csv chaos_w4.csv chaos_w1.json chaos_w4.json \
		chaosres_w1.csv chaosres_w4.csv chaosres_w1.json chaosres_w4.json chaos_replay.txt

# serve-smoke is the service layer's acceptance gate: boot mptcpd on a
# random port, submit a small experiment campaign and a small load
# campaign twice each, and assert (1) every artifact is byte-identical
# to running paperbench / mptcpload's writers directly, (2) the second
# submission of each is answered 100% from the content-addressed
# cache, its exports included (one stored artifact set per campaign,
# re-rendered byte-identically when that record is damaged), and (3)
# cancellation mid-campaign still exports the completed
# prefix. The durability suite rides in the same pattern: SIGKILL the
# daemon mid-campaign at an injected sync point, restart over the same
# store+journal, and require the resumed campaign to replay its
# completed prefix as store hits with exports byte-identical to an
# uninterrupted run — plus corrupted-segment, garbage-journal (the
# journal is a second store log), failed-fsync and degraded-disk
# recovery. The assertions live in cmd/mptcpd's TestServe* suite.
serve-smoke:
	$(GO) test -count=1 -timeout 5m -run '^TestServe' -v ./cmd/mptcpd/
	@echo "serve-smoke: daemon artifacts byte-identical to direct runners; repeat submissions 100% cache hits, their exports from the store; kill/restart resumes byte-identically"

# cover enforces the statement-coverage floor (baseline 72.7% when the
# gate landed; the floor leaves a little slack for counter drift) over
# everything but bench/, the benchmark harness: its statements run
# under `make ledger`, not under `go test`.
COVER_FLOOR ?= 72.0
cover:
	$(GO) test -count=1 -coverprofile=cover.out $$($(GO) list ./... | grep -v '/bench$$')
	@total=$$($(GO) tool cover -func=cover.out | awk '/^total:/ {sub(/%/, "", $$3); print $$3}'); \
	echo "total coverage: $$total% (floor $(COVER_FLOOR)%)"; \
	awk -v t="$$total" -v f="$(COVER_FLOOR)" 'BEGIN { exit (t+0 >= f+0) ? 0 : 1 }' \
		|| { echo "coverage $$total% fell below the $(COVER_FLOOR)% floor"; exit 1; }
