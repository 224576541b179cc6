GO ?= go
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race lint vet memlpvet vuln cover bench bench-batch bench-trace bench-serve bench-hotpath bench-pdhg bless-traces

all: build test lint

# perfbench is its own module (replace => ../), so the root ./... never
# compiles it; build and vet it with the repo so an internal refactor cannot
# break the benchmark unnoticed.
PERFBENCH_CHECK = cd perfbench && $(GO) build ./... && $(GO) vet ./...

build:
	$(GO) build ./...
	$(PERFBENCH_CHECK)

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

vet:
	$(GO) vet ./...
	$(PERFBENCH_CHECK)

# The domain-specific invariant suite (floatcmp, ctxloop, rawwrite, nanguard,
# hotpath — see DESIGN.md D11). Also runnable through go vet's cache:
#   $(GO) build -o memlpvet ./cmd/memlpvet && $(GO) vet -vettool=$$PWD/memlpvet ./...
memlpvet:
	$(GO) run ./cmd/memlpvet ./...

# golangci-lint is optional locally; vet + memlpvet are the required floor.
lint: vet memlpvet
	@if command -v golangci-lint >/dev/null 2>&1; then \
		golangci-lint run; \
	else \
		echo "golangci-lint not installed; ran go vet + memlpvet only"; \
	fi

# Pinned so CI results are reproducible; requires network access.
vuln:
	$(GO) run golang.org/x/vuln/cmd/govulncheck@$(GOVULNCHECK_VERSION) ./...

cover:
	$(GO) test -coverprofile=cover.out -coverpkg=./... ./...
	$(GO) tool cover -func=cover.out | tail -1

# The seeded three-workload benchmark that BENCHMARK.json declares
# (perfbench/doc.go describes its workloads and metrics). It builds from
# this checkout, keeps its caches under .bench_build/, and exits 1 when an
# answer check fails. Add --trace 1 for the per-layer metrics.
bench:
	bash perfbench/run.sh --workload all

# Fabric-pool throughput benchmarks (the BENCH_BATCH.json source). Raise
# -benchtime for tighter numbers on a quiet machine.
bench-batch:
	$(GO) test . ./internal/core/ ./internal/linalg/ -run '^$$' \
		-bench 'BenchmarkBatchParallel|BenchmarkBatchValidation|BenchmarkSolveStructuredPDIPShape' \
		-benchtime 3x -benchmem

# Serving throughput (the BENCH_SERVE.json source): 8 closed-loop clients
# against an in-process memlpd, same-matrix coalescing off vs on. Wall
# req/s is core-count-bound; the amortization columns are the stable signal.
bench-serve:
	$(GO) run ./cmd/benchtables -table serve -sizes 16,24 -vars 0 \
		-serve-clients 8 -serve-requests 8 -serve-window 5ms \
		-serve-json BENCH_SERVE.json

# Trace-recording overhead (the BENCH_TRACE.json source): the same solve
# with and without the ring-sink recorder.
bench-trace:
	$(GO) test . -run '^$$' \
		-bench 'BenchmarkSolveTraced|BenchmarkSolveUntraced' \
		-benchtime 50x -benchmem

# Hot-path benchmarks (the BENCH_HOTPATH.json source): delta-programming
# cell-write savings, warm-started repeat solves, and the structured LDL^T
# versus dense LU on the reduced KKT system.
bench-hotpath:
	$(GO) test . ./internal/linalg/ -run '^$$' \
		-bench 'BenchmarkDeltaWrites|BenchmarkWarmStart|BenchmarkLDLT|BenchmarkLUKKT' \
		-benchtime 20x -benchmem

# Tiled-PDHG worker-grid benchmarks (the BENCH_PDHG.json source): one
# 24x18 solve on a 3x3 block grid of 8-wide crossbars at worker grids of
# 1, 4, and 16 goroutines. Results are bit-identical across grids; the
# sweep overhead is the measured signal.
bench-pdhg:
	$(GO) test . -run '^$$' -bench 'BenchmarkPDHGTiles' \
		-benchtime 20x -benchmem

# Regenerate the golden iteration traces under testdata/traces/ from the
# current solver output (DESIGN.md D13). Review the JSONL diff like any
# other code change before committing.
bless-traces:
	$(GO) test . -run 'TestGoldenTraces$$' -args -bless-traces
