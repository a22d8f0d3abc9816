# Build, test, and lint entry points. `make lint` is golangci-free by
# design: gofmt, go vet, and the repo's own invariant linter (cmd/cclint)
# are the whole gate — CI's lint job runs exactly these three steps.

GO ?= go

.PHONY: all build test race lint fmt vet cclint cclint-vet bench-smoke

all: build test lint

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

lint: fmt vet cclint

fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

# The invariant linter, standalone. Exit 2 (mapped by `go run` to 1) on
# any unsuppressed finding; the summary lists every //lint:ignore and its
# justification.
cclint:
	$(GO) run ./cmd/cclint ./...

# The same analyzers driven through go vet's unitchecker protocol —
# proves the -vettool integration stays alive.
cclint-vet:
	@mkdir -p bin
	$(GO) build -o bin/cclint ./cmd/cclint
	$(GO) vet -vettool=$(CURDIR)/bin/cclint ./...

# A short traced run of the gating benchmark on its checkpointing
# workload (CI's bench-smoke job): exits 0 only if the ledger oracle holds,
# and writes bench/out/trace-wide-ckpt.json, a Chrome trace-event file
# loadable in chrome://tracing or Perfetto.
bench-smoke:
	bash bench/run.sh --workload wide-ckpt --seconds 2 --trace 1
