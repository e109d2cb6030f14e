GO ?= go

.PHONY: all build test race lint fmt tidy-check check overhead-gate results

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race ./...

# lint runs the in-tree analyzer suite (see internal/lint); it exits non-zero
# on any finding.
lint:
	$(GO) run ./cmd/clusterqlint ./...

# fmt fails if any file is not gofmt-clean (lists the offenders).
fmt:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi

# tidy-check fails if go.mod/go.sum would change under `go mod tidy`.
tidy-check:
	$(GO) mod tidy -diff

# overhead-gate asserts the disabled-flight-recorder event loop stays near
# the recorded baseline (results/BENCH_obs.json; CI's bench-smoke job runs
# this on every push).
overhead-gate:
	CLUSTERQ_OVERHEAD_GATE=1 $(GO) test -run TestDisabledRecorderOverheadGate -v ./internal/sim

# results regenerates the checked-in experiment output, full_results.txt and
# the per-table CSVs in results/, from the full-fidelity suite (~25 s wall on
# 2 vCPUs). It exits non-zero, after every table is written, when an
# experiment fails its headline check: E23 does at full fidelity (ROADMAP
# item 3). The E9 and E17 timing columns differ on every run.
results:
	$(GO) run ./cmd/clusterq -run all -csv results > full_results.txt

# check is the full pre-push suite: build, formatting, module hygiene, the
# nine-analyzer lint gate (including the hotalloc escape-analysis pass, which
# replays from the go build cache), and the tests. Measured at ~12s wall on a
# warm build/test cache (2026-08: `time make check` = 11.7s real), comfortably
# under the 30s budget; a cold cache pays the one-time compile on top.
check: build fmt tidy-check lint test
