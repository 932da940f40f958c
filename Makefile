GO ?= go

# Tier-1: everything must build and every test must pass.
.PHONY: build
build:
	$(GO) build ./...

.PHONY: test
test:
	$(GO) test -timeout 180s ./...

.PHONY: vet
vet:
	$(GO) vet ./...

# The canonical pre-commit check: tier-1 + vet, the race-detector run,
# a 10 s slice of every fuzz target, then the multi-process
# cluster-smoke, chaos-soak and ingest-soak. scripts/check.sh is the
# one place the race package list, the fuzz target list and the step
# timeouts are written down; the targets below run single steps of it.
.PHONY: check
check:
	sh scripts/check.sh

.PHONY: race cluster-smoke chaos-soak ingest-soak
race cluster-smoke chaos-soak ingest-soak:
	sh scripts/check.sh $@

# The same fuzz targets as `make check`, 30 s each.
.PHONY: fuzz-smoke
fuzz-smoke:
	sh scripts/check.sh fuzz 30s

# Rewrite the golden of the paper's deterministic counters (Figures 5
# and 6) from this tree. Only for a change that is meant to move what a
# query examines; EXPERIMENTS.md must say which cells moved and why.
.PHONY: paper-golden
paper-golden:
	$(GO) test ./internal/bench -run TestPaperCountersGolden -update

# Non-test Go lines per package outside benchmark/ (all lines, and lines
# that are neither blank nor comment) — the figure simplicity PRs quote.
.PHONY: loc
loc:
	sh scripts/loc.sh

.PHONY: bench
bench:
	$(GO) test -bench=. -benchmem ./...
