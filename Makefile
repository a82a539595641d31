# Development targets. `make check` is the full gate: vet, build, tests
# with the race detector (the parallel sweep paths are exercised by the
# top-level sweep tests).

GO ?= go

.PHONY: all build vet test race bench serve-smoke realization-smoke chaos-smoke fuzz-smoke obs-smoke scale-smoke market-smoke kernel-smoke twin-smoke check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

test:
	$(GO) test ./...

# The race detector is 10-20× on a 1-CPU runner; internal/core alone runs
# ~11 min there, past go test's default 10m per-package timeout.
race:
	$(GO) test -race -timeout 30m ./...

# Sweep/solver benchmarks only (fast smoke: one iteration each).
bench:
	$(GO) test -run xxx -bench 'Sweep' -benchtime 1x ./internal/core/ .

# End-to-end daemon smoke: build pcschedd, start it on a random port, fire
# a solve, a cache-hit repeat, and a cancelled request, assert the /metrics
# counters, then SIGTERM and require a clean exit.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 -v ./cmd/pcschedd/

# Realization pipeline smoke: race-detected runs of the problem-IR and
# schedule-realization packages (including the sweep property test: realized
# makespan ≥ LP bound, zero cap violation), then one small end-to-end
# realization exhibit.
realization-smoke:
	$(GO) test -race -count=1 ./internal/problem/ ./internal/schedule/
	$(GO) run ./cmd/experiments -ranks 4 -benchjson /dev/null realization

# Fault-injected soak under the race detector: every fault class armed
# against a live in-process daemon; asserts zero crashes, ≥99% valid
# responses, never a cap-violating schedule, and full recovery (breakers
# closed, bit-identical results) once faults clear. The twin-chaos case
# storms an adaptive daemon with lp-stall/lp-nan/worker-panic armed and
# requires the controller back at full fidelity with breakers closed
# within a bounded number of calm epochs.
chaos-smoke:
	$(GO) test -race -run 'TestChaosSoak|TestTwinChaosRecovery' -count=1 -v ./internal/service/

# Observability smoke: race-detected span/flight-recorder/SLO-engine tests,
# then a traced solve against a real pcschedd — validates the inline Chrome
# trace JSON (nesting checked strictly), request-ID propagation into
# header/body/access-log, double /metrics scrape with counter monotonicity,
# and /debug/pprof. The second daemon leg (race-detected end to end) arms an
# lp-stall fault window via PCSCHEDD_FAULTS and requires the flight dump to
# name the brownout rung and the SLO burn spike, plus a SIGQUIT dump that
# round-trips as wide-event JSON (DESIGN.md §16).
obs-smoke:
	$(GO) test -race -count=1 ./internal/obs/ ./internal/slo/
	$(GO) test -run TestObsSmoke -count=1 -v ./cmd/pcschedd/
	$(GO) test -race -run TestFlightRecorderSmoke -count=1 -v ./cmd/pcschedd/

# Large-trace path smoke: race-detected runs of the coarsening, windowed
# decomposition, and synthetic-generator tests (including the property that
# windowing alone never beats the monolithic bound), then a shrunken
# end-to-end scale exhibit (gap ladder + a monolithic-breakdown size).
scale-smoke:
	$(GO) test -race -count=1 ./internal/coarsen/
	$(GO) test -race -count=1 -run 'TestWindowed|TestSynthetic' ./internal/core/ ./internal/workloads/
	$(GO) test -run TestScaleExhibitSmoke -count=1 -v ./cmd/experiments/

# Cluster power market smoke: race-detected allocator tests (policy
# properties, convergence, floors, degradation), then one real /v1/cluster
# allocation against a spawned pcschedd — convergence, budget feasibility,
# per-job cache seeding, cluster metrics, clean shutdown.
market-smoke:
	$(GO) test -race -count=1 ./internal/market/
	$(GO) test -run TestMarketSmoke -count=1 -v ./cmd/pcschedd/

# LP kernel smoke: race-detected runs of the lp packages (the LU against
# its eta-file and dense-LU oracles, the dense-tableau equivalence suite,
# presolve round-trip, pricing, degenerate-cycling guards, and the rescue's
# one-extra-solve bound), then through internal/core the golden objectives
# in both kernel configurations (presolved and the rescue's), the warm
# CapSession probes, and the windowed numerical-rescue regressions.
kernel-smoke:
	$(GO) test -race -count=1 ./internal/lp/...
	$(GO) test -race -count=1 -run 'TestEngineEquivalenceGoldenObjectives|TestCapSession|TestWindowedNumericalRescue' ./internal/core/

# Adaptive overload control plane + deterministic traffic twin smoke:
# race-detected controller/brownout/twin tests, then the end-to-end
# TestTwinSmoke — a seeded flash crowd against a real adaptive daemon vs
# a static one (adaptive goodput fraction must be ≥ static) and a
# record/replay regression (two replays byte-identical, zero mismatches).
twin-smoke:
	$(GO) test -race -count=1 ./internal/adapt/ ./internal/twin/
	$(GO) test -race -count=1 -run 'TestBrownout|TestRetry|TestDeadline|TestParking|TestDrainCheckpoint|TestAdaptOff' ./internal/service/
	$(GO) test -run TestTwinSmoke -count=1 -v ./cmd/pcschedd/

# Bounded fuzz sessions over the trace parser, the canonical DAG digest
# (the content-addressing the schedule cache rests on), and the Markowitz
# sparse LU factorization (factor → FTRAN/BTRAN vs dense LU). Seeds are
# checked in via f.Add; 5s each keeps the gate fast while still exploring.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzRead -fuzztime 5s ./internal/trace/
	$(GO) test -run xxx -fuzz FuzzDigest -fuzztime 5s ./internal/dag/
	$(GO) test -run xxx -fuzz FuzzLU -fuzztime 5s ./internal/lp/basis/

check: vet build race serve-smoke realization-smoke chaos-smoke obs-smoke scale-smoke market-smoke kernel-smoke twin-smoke fuzz-smoke
