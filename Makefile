# Convenience targets for the SuperGlue reproduction (stdlib-only Go).

GO ?= go
# Repetitions for `make bench`. For repeated samples with their spread,
# use `make bench-json`: it runs the same benchmark registry in five
# interleaved rounds and records each row's median, min and max.
BENCHCOUNT ?= 1
# Duration of each fuzz target's pass in `make fuzz`.
FUZZTIME ?= 10s

.PHONY: all build test race race-smoke fleet-smoke examples bench bench-smoke bench-json gen lint check experiments watchdog-experiments fault-experiments storage-experiments fuzz clean

all: build test lint check

build:
	$(GO) build ./...
	$(GO) vet ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# Parallel campaign engine under the race detector: every service, trials
# sharded over 4 workers with per-trial trace recorders (the same runs CI
# performs). Campaign output is byte-identical to -workers 1. The second
# run drives the shaped-campaign planner and the typed-fault injectors
# (storm bursts across all eight fault kinds, supervision tree installed).
# The last line runs the live web server's tests three times over:
# webserver.Serve runs the injectors, multi-core placement and the idle
# handler on the machine's goroutine while connection goroutines queue
# requests and signal it.
race-smoke:
	$(GO) run -race ./cmd/swifi -trials 20 -seed 2026 -workers 4 -trace
	$(GO) run -race ./cmd/swifi -trials 20 -seed 2026 -workers 4 -shape storm -policy one-for-one
	$(GO) run -race ./cmd/swifi -trials 20 -seed 2026 -workers 4 -shape storm -cores 4
	$(GO) run -race ./cmd/swifi -trials 20 -seed 2026 -workers 4 -shape storm \
		-kinds storage-crash,storage-corruption -replicas 3
	$(GO) test -race -count 3 -run '^TestServe' ./internal/webserver

# Fleet-scale campaign smoke (DESIGN.md §14), under the race detector:
#   1. checkpoint/resume — a campaign killed midway (-halt-after, exit 3)
#      and then -resume'd must render stdout and a trace snapshot
#      byte-identical to an uninterrupted reference run;
#   2. shard/merge — two -shard halves folded by -merge (shard files fed
#      in reversed order) must be byte-identical to the single-process
#      run of the same storm campaign.
fleet-smoke:
	set -e; tmp=$$(mktemp -d); trap 'rm -rf "$$tmp"' EXIT; \
	$(GO) build -race -o $$tmp/swifi ./cmd/swifi; \
	mkdir $$tmp/ref $$tmp/res $$tmp/sref $$tmp/shard; \
	(cd $$tmp/ref && $$tmp/swifi -service lock -trials 30 -seed 2026 -workers 4 \
		-trace -trace-out snap.json -checkpoint ckpt.bin -checkpoint-every 7 >stdout.txt); \
	code=0; (cd $$tmp/res && $$tmp/swifi -service lock -trials 30 -seed 2026 -workers 4 \
		-trace -trace-out snap.json -checkpoint ckpt.bin -checkpoint-every 7 \
		-halt-after 13 >/dev/null 2>halt.log) || code=$$?; \
	test $$code -eq 3 || { echo "fleet-smoke: want exit 3 from -halt-after, got $$code"; cat $$tmp/res/halt.log; exit 1; }; \
	(cd $$tmp/res && $$tmp/swifi -service lock -trials 30 -seed 2026 -workers 4 \
		-trace -trace-out snap.json -checkpoint ckpt.bin -checkpoint-every 7 -resume >stdout.txt); \
	cmp $$tmp/ref/stdout.txt $$tmp/res/stdout.txt; \
	cmp $$tmp/ref/lock.snap.json $$tmp/res/lock.snap.json; \
	(cd $$tmp/sref && $$tmp/swifi -service lock -trials 30 -seed 2026 -workers 4 \
		-shape storm -trace -trace-out snap.json >stdout.txt); \
	(cd $$tmp/shard && $$tmp/swifi -service lock -trials 30 -seed 2026 -workers 4 \
		-shape storm -trace -shard 0/2 -shard-out sh.bin >/dev/null); \
	(cd $$tmp/shard && $$tmp/swifi -service lock -trials 30 -seed 2026 -workers 4 \
		-shape storm -trace -shard 1/2 -shard-out sh.bin >/dev/null); \
	(cd $$tmp/shard && $$tmp/swifi -merge -trace-out snap.json \
		lock.shard1of2.sh.bin lock.shard0of2.sh.bin >stdout.txt); \
	cmp $$tmp/sref/stdout.txt $$tmp/shard/stdout.txt; \
	cmp $$tmp/sref/lock.snap.json $$tmp/shard/lock.snap.json; \
	echo "fleet-smoke: checkpoint/resume and shard/merge byte-identical"

# Run every example's main; any non-zero exit fails the target. Each
# finishes in seconds. examples/webserver drives the web server's crash
# injector end to end.
EXAMPLES = quickstart lockservice filesystem webserver idlpipeline
examples:
	set -e; for e in $(EXAMPLES); do \
		echo "examples/$$e"; $(GO) run ./examples/$$e >/dev/null; \
	done

# Every Go benchmark (the registry under BenchmarkSuperGlue, plus the
# package-level ones), benchmarks only (no tests), repeatable count.
bench:
	$(GO) test -run '^$$' -bench=. -benchmem -count=$(BENCHCOUNT) ./...

# Every Go benchmark for one iteration, benchmarks only: a registry row
# that a refactor breaks (BenchmarkSuperGlue/Tracking*, .../Recovery*,
# ...) fails here rather than waiting for someone to run `make bench`.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime 1x ./...

# Benchmark trajectory: run every registry row (kernel and storage
# substrate, Fig. 6(a) tracking, Fig. 6(b) recovery, Fig. 7 web server,
# a SWIFI campaign) in five interleaved rounds and write each row's
# median, min, max and sample count to BENCH_superglue.json. The traced
# SWIFI campaigns behind the recovery breakdown shard over all cores
# (-workers 0 = GOMAXPROCS); the wall-clock rows run one at a time so
# their timings are uncontended.
bench-json:
	$(GO) run ./cmd/benchjson -workers 0 -o BENCH_superglue.json

# Regenerate the committed sgc-generated typed clients from the IDL
# specifications (golden-tested by internal/gen.TestCommittedStubsMatchGenerator).
gen:
	$(GO) run ./cmd/sgc -builtin -loc -o internal/gen

# Static analysis beyond the compiler (see DESIGN.md §7):
#   - go vet: the standard checks;
#   - sgvet: the runtime-contract analyzers (determinism, atomicstate,
#     stubdiscipline, shadowbuiltin, coreaffinity, threadbody) plus
#     missingdoc over the deterministic-replay packages and every
#     generated client package (listed by `go list ./internal/gen/...`);
#   - sgvet -run missingdoc: godoc completeness over the remaining API
#     surface (c3 stays out of the determinism list: the hand-written
#     baseline is kept verbatim for the Fig. 6(c) LOC comparison);
#   - sgvet over cmd/... and examples/...: the command-line front ends and
#     runnable examples obey the same runtime contracts;
#   - sgvet -run threadbody over every package, _test.go files included: no
#     t.Fatal/t.FailNow/t.Skip/runtime.Goexit inside a simulated thread
#     body, where it would end Kernel.Run's goroutine and hang Run;
#   - sgc vet -builtin: semantic spec lints (SG1xx) over the six system
#     services;
#   - sgc vet -gen: committed generated clients must match the generator,
#     with no Go file or directory beyond what it emits;
#   - sgc doc -check: committed docs/services references must match the
#     specifications;
#   - sgc check -builtin: the bounded exhaustive recovery model checker
#     (SG2xx, docs/MODELCHECK.md) over the six system services.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/sgvet internal/kernel internal/core internal/swifi \
		internal/codegen $$($(GO) list -f '{{.Dir}}' ./internal/gen/...)
	$(GO) run ./cmd/sgvet -run missingdoc internal/binding internal/c3 internal/obs \
		internal/fault internal/idl internal/docgen internal/experiments \
		internal/webserver internal/storage internal/cbuf \
		internal/workload internal/pool internal/analysis/govet \
		internal/analysis/speclint internal/analysis/driftcheck \
		internal/analysis/model internal/analysis/sarif internal/profiling
	$(GO) run ./cmd/sgvet cmd/benchjson cmd/microbench cmd/sgc cmd/sgvet \
		cmd/swifi cmd/webbench examples/filesystem examples/idlpipeline \
		examples/lockservice examples/quickstart examples/webserver
	$(GO) run ./cmd/sgvet -run threadbody $$($(GO) list -f '{{.Dir}}' ./...)
	$(GO) run ./cmd/sgc vet -builtin -gen
	$(GO) run ./cmd/sgc doc -check
	$(GO) run ./cmd/sgc check -builtin

# Exhaustive recovery verification with an explicit resource guard: the
# model checker must finish all six builtin specs within the wall-clock
# and state budgets below, printing the per-spec BFS state-count
# trajectory so a budget regression is visible in the log before it
# becomes a failure. Exceeds fail loudly (nonzero exit), they never
# silently truncate the pass.
check:
	$(GO) run ./cmd/sgc check -builtin -trajectory -budget 30s -max-states 1048576

# Regenerate every table and figure of the paper's evaluation.
experiments:
	$(GO) run ./cmd/swifi -trials 500 -seed 2026
	$(GO) run ./cmd/microbench -count 5
	GOMAXPROCS=1 $(GO) run ./cmd/webbench -requests 200000 -repeats 5

# Table II': paired hang-injection campaigns, kernel watchdog off vs on.
watchdog-experiments:
	$(GO) run ./cmd/swifi -prime -trials 500 -seed 2026

# Shaped campaigns of the typed fault taxonomy (docs/FAULTS.md): per-kind
# outcome columns for correlated double faults, fault storms, and
# faults injected during recovery (EXPERIMENTS.md "Shaped campaigns").
fault-experiments:
	$(GO) run ./cmd/swifi -trials 500 -seed 2026 -shape correlated
	$(GO) run ./cmd/swifi -trials 500 -seed 2026 -shape storm
	$(GO) run ./cmd/swifi -trials 500 -seed 2026 -shape during-recovery

# Storage-fault columns of Table II (docs/STORAGE.md): storms of
# storage-crash/storage-corruption against the 3-replica store (quorum
# absorbs every fault inside the store) and against the single trusted
# copy (the paper's original storage model, where corruption is data
# loss the service must degrade around).
storage-experiments:
	$(GO) run ./cmd/swifi -trials 500 -seed 2026 -shape storm \
		-kinds storage-crash,storage-corruption -replicas 3
	$(GO) run ./cmd/swifi -trials 500 -seed 2026 -shape storm \
		-kinds storage-crash,storage-corruption -replicas 1

# Short fuzzing passes over every fuzz target in the module: the IDL
# parser, the HTTP parsers and response framing, the storage decoders of
# persisted state, the SWIFI campaign-state decoder behind -resume and
# -merge, and the JSON decoders of the fault and trace types those
# campaign files carry. The list is derived, not kept by hand: every
# package with tests is asked for its targets (`go test -list '^Fuzz'`),
# so a new target runs here without another edit. `go test -fuzz` takes
# one target per run, so each gets its own anchored pattern and FUZZTIME.
# Each list is taken into a variable first, so a package that cannot be
# listed or whose tests do not compile fails the run (set -e skips a
# failure inside a for-loop's word list), and so does finding no target.
fuzz:
	set -e; n=0; \
	pkgs=$$($(GO) list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...); \
	for pkg in $$pkgs; do \
		list=$$($(GO) test -list '^Fuzz' $$pkg); \
		for target in $$(echo "$$list" | grep '^Fuzz' || true); do \
			echo "fuzz: $$pkg $$target"; n=$$((n + 1)); \
			$(GO) test -run='^$$' -fuzz="^$${target}\$$" -fuzztime=$(FUZZTIME) $$pkg; \
		done; \
	done; \
	test $$n -gt 0 || { echo "fuzz: no fuzz targets found"; exit 1; }

clean:
	$(GO) clean ./...
