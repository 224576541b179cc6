GO ?= go
GOVULNCHECK_VERSION ?= v1.1.4

.PHONY: all build test race lint fmt vet memlpvet vuln cover bench bless-traces check-traces bless-tables check-tables

all: build test lint

# perfbench is its own module (replace => ../), so the root ./... never
# compiles it; build and vet it with the repo (in build, test and vet) so an
# internal refactor cannot break the benchmark unnoticed.
PERFBENCH_CHECK = cd perfbench && $(GO) build ./... && $(GO) vet ./...

build:
	$(GO) build ./...
	$(PERFBENCH_CHECK)

test:
	$(GO) test ./...
	$(PERFBENCH_CHECK)

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

# Every tracked Go file is gofmt-clean, except the analyzer fixtures under
# testdata/, which are unformatted on purpose.
fmt:
	test -z "$$(gofmt -l $$(git ls-files '*.go' | grep -v /testdata/))"

# golangci-lint is optional locally; fmt + vet + memlpvet are the required
# floor.
lint: fmt vet memlpvet
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

# Regenerate the golden iteration traces under testdata/traces/ from the
# current solver output (DESIGN.md D13). Review the JSONL diff like any
# other code change before committing.
bless-traces:
	$(GO) test . -run 'TestGoldenTraces$$' -args -bless-traces

# The byte-identity gate: bless the goldens afresh, then fail if that left
# any file under testdata/traces/ modified, deleted or new. A golden that was
# blessed but never committed is untracked, so `git diff` alone misses it.
check-traces: bless-traces
	@status="$$(git status --porcelain -- testdata/traces)"; \
	if [ -n "$$status" ]; then \
		echo "golden traces differ from a fresh bless:"; echo "$$status"; exit 1; \
	fi

# The paper tables whose output is a pure function of the seed. fig6a, fig6b,
# fig7a, fig7b, infeasible and batch print host wall times, so they are left
# out.
TABLES = fig5a fig5b iters varcheck ab1 ab2 ab3 ab4 ab5 ab6 ab7

# Regenerate testdata/tables/<table>.txt, the benchtables output of each
# deterministic table at a small, fixed sweep. Review the diff like any other
# code change before committing.
bless-tables:
	@mkdir -p testdata/tables
	@for t in $(TABLES); do \
		$(GO) run ./cmd/benchtables -table $$t -sizes 4,16,64 -trials 2 > testdata/tables/$$t.txt || exit 1; \
	done

# The tables' byte-identity gate, built like check-traces: bless afresh, then
# fail if that left any file under testdata/tables/ modified, deleted or new.
check-tables: bless-tables
	@status="$$(git status --porcelain -- testdata/tables)"; \
	if [ -n "$$status" ]; then \
		echo "paper tables differ from a fresh bless:"; echo "$$status"; exit 1; \
	fi
