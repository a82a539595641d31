# Development targets. `make check` is the full gate: gofmt, vet, build,
# tests with the race detector (the parallel sweep paths are exercised by
# the top-level sweep tests), the bench module, and the smokes below.

GO ?= go

.PHONY: all build vet fmt-check test race bench bench-vet bench-smoke serve-smoke realization-smoke chaos-smoke fuzz-smoke obs-smoke scale-smoke market-smoke kernel-smoke twin-smoke check

all: check

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# Every tracked Go file must be gofmt-clean: gofmt -l prints the ones that
# are not.
fmt-check:
	@out=$$(gofmt -l $$(git ls-files '*.go')); \
	if [ -n "$$out" ]; then echo "gofmt needed:"; echo "$$out"; exit 1; fi

test:
	$(GO) test ./...

# The race detector is 10-20× on a 1-CPU runner; internal/core alone runs
# ~11 min there, past go test's default 10m per-package timeout.
race:
	$(GO) test -race -timeout 30m ./...

# Sweep/solver benchmarks only (fast smoke: one iteration each).
bench:
	$(GO) test -run xxx -bench 'Sweep' -benchtime 1x ./internal/core/ .

# bench/ is its own module, so ./... above never compiles it; it builds
# against the facade and service APIs. bench-vet compiles and vets it, so a
# break of that API shows on its own, apart from any failing bench test;
# bench-smoke runs its tests.
bench-vet:
	$(GO) -C bench vet ./...

bench-smoke:
	$(GO) -C bench test ./...

# End-to-end daemon smoke: build pcschedd, start it on a random port, fire
# a solve, a cache-hit repeat, and a cancelled request, assert the /metrics
# counters, then SIGTERM and require a clean exit. Then the named-graph memo
# under the race detector (shared graphs, the bound's reset, inline traces
# kept out, every endpoint leaving a memoized graph's digest unchanged,
# concurrent hits and misses, a panicking generator answering 400), and one
# short pass of the in-process cache-hit benchmark.
serve-smoke:
	$(GO) test -run TestServeSmoke -count=1 -v ./cmd/pcschedd/
	$(GO) test -race -run 'TestNamed|TestInlineTraceNotMemoized|TestMemoizedGraphReadOnly' -count=1 -v ./internal/service/
	$(GO) test -run '^$$' -bench '^BenchmarkSolveHit$$' -benchtime 200x -benchmem ./internal/service/

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
# storms a daemon with lp-stall/lp-nan/worker-panic armed and requires
# the sparse breaker closed again within a bounded number of calm
# solves. The stall case sends every /v1/solve shape (monolithic,
# windowed, coarsened, costly realizations) with lp-stall armed and
# requires a cap-clean degraded 200 from each.
chaos-smoke:
	$(GO) test -race -run 'TestChaosSoak|TestTwinChaosRecovery|TestEveryShapeDegradesUnderStall' -count=1 -v ./internal/service/

# Observability smoke: race-detected span/flight-recorder/SLO-engine tests,
# then a traced solve against a real pcschedd — validates the inline Chrome
# trace JSON (nesting checked strictly), request-ID propagation into
# header/body/access-log, double /metrics scrape with counter monotonicity,
# and /debug/pprof. The second daemon leg (race-detected end to end) arms an
# lp-stall fault window via PCSCHEDD_FAULTS and requires the flight dump to
# name the ladder rung that served, the descent trail and the SLO burn
# spike, plus a SIGQUIT dump that round-trips as wide-event JSON
# (DESIGN.md §16).
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
# properties, the top-down equal-marginal split against the bottom-up grant
# over whole curves and against one joint LP, closed-form floors, capture
# fallback and degradation, the first failing job named when the walks open
# side by side), at GOMAXPROCS 1 (walks opened inline) and 2 (opened side
# by side), then one real /v1/cluster allocation against a spawned
# pcschedd — the response and /metrics schema, budget feasibility, per-job
# cache seeding, clean shutdown.
market-smoke:
	$(GO) test -race -count=1 -cpu 1,2 ./internal/market/
	$(GO) test -run TestMarketSmoke -count=1 -v ./cmd/pcschedd/

# LP kernel smoke: race-detected runs of the lp packages (the LU against
# its eta-file, dense-LU and step-scan oracles, the dense-tableau
# equivalence suite with every optimum certified, empty, duplicate and
# singleton rows among its inputs, row-free problems, warm starts from
# arbitrary bases, primal starts after cost changes, the abandoned
# attempt's effort, pricing, degenerate-cycling guards, the rescue's
# one-extra-solve bound, the certificate's rejection of perturbed answers,
# and the form builder against the copy chain it replaced: every array of
# the form and every Solve answer and stats count bit for bit), then
# through internal/core the golden objectives in both kernel
# configurations (scaled and the rescue's unscaled), every answer on the
# bench paths' programs bit for bit against digests recorded before the
# one-pass form builder (basis-free answers re-recorded when presolve was
# retired, each certified against its crash start), the rendered names of a
# whole-graph and a window program, the crash basis on every benchmark
# program and speculative window program against basis-free solves (no
# phase 1, certified, deterministic, a rejected crash falling back cold),
# the warm CapSession probes, the
# curve walks and the stepped walks' captures checked against them, the
# closed-form floors against the walked ones, the sweeps that run on the
# sessions, the windowed rescue (the former breakdown traces finishing
# clean, and injected NaNs reaching the rescue), and the fan-out helper
# (internal/fanout's four rules) with the decomposed solves it runs side by
# side (answers and stats bit for bit against the serial loop, the serial
# loop's infeasibility error, cancellation without a goroutine left). The
# helper and core lines run at GOMAXPROCS 1 and 2, so the inline one-worker
# path and the fanned-out path both run under the race detector.
kernel-smoke:
	$(GO) test -race -count=1 ./internal/lp/...
	$(GO) test -race -count=1 -cpu 1,2 ./internal/fanout/
	$(GO) test -race -count=1 -cpu 1,2 -run 'TestEngineEquivalenceGoldenObjectives|TestSolveBits|TestProgramNames|TestCrashBasis|TestCapSession|TestFloorClosedForm|TestSolveSweep|TestWindowedNumericalRescue|TestFanout' ./internal/core/

# Deterministic traffic twin smoke: race-detected twin tests (schedule
# expansion, classification, record/replay), then the end-to-end
# TestTwinSmoke — a seeded flash crowd at about twice capacity against a
# real daemon (no cap-violating schedule) and a record/replay regression
# (two replays byte-identical, zero mismatches).
twin-smoke:
	$(GO) test -race -count=1 ./internal/twin/
	$(GO) test -run TestTwinSmoke -count=1 -v ./cmd/pcschedd/

# Bounded fuzz sessions over the trace parser, the canonical DAG digest
# (the content-addressing the schedule cache rests on), the Markowitz
# sparse LU factorization (factor → FTRAN/BTRAN vs dense LU, and factors
# and solves bit for bit vs the step-scan reference LU), the parametric
# right-hand-side walk (walked objective vs point solves, and a certified
# capture at a fuzz-chosen shift), warm starts
# from arbitrary bases (status and objective vs a cold solve; then, after a
# cost change, a certified primal start from the cold optimum's basis with
# no phase 1), and the form builder (every array of the kernel's form, and
# every Solve answer, bit for bit against the copy chain it replaced, on
# random problems from a fuzzed seed). Seeds are
# checked in via f.Add; 5s each keeps the gate fast while still exploring.
fuzz-smoke:
	$(GO) test -run xxx -fuzz FuzzRead -fuzztime 5s ./internal/trace/
	$(GO) test -run xxx -fuzz FuzzDigest -fuzztime 5s ./internal/dag/
	$(GO) test -run xxx -fuzz '^FuzzLU$$' -fuzztime 5s ./internal/lp/basis/
	$(GO) test -run xxx -fuzz FuzzLUMatchesScan -fuzztime 5s ./internal/lp/basis/
	$(GO) test -run xxx -fuzz FuzzParametric -fuzztime 5s ./internal/lp/
	$(GO) test -run xxx -fuzz FuzzWarmBasis -fuzztime 5s ./internal/lp/
	$(GO) test -run xxx -fuzz FuzzForm -fuzztime 5s ./internal/lp/

check: fmt-check vet build race bench-vet bench-smoke serve-smoke realization-smoke chaos-smoke obs-smoke scale-smoke market-smoke kernel-smoke twin-smoke fuzz-smoke
