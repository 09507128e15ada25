# Development entry points. `make check` is the full local gate; CI runs it
# plus the race detector and the invariants-armed test suite (see
# .github/workflows/ci.yml).

GO ?= go

.PHONY: check fmt vet build test test-race test-race-sweep attack-soak test-invariants fuzz cover mutate mutate-full bench-check

check: fmt vet build test test-race-sweep

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt: needs formatting:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./internal/...

# The parallel sweep engine's determinism, cancellation and shared-warmup
# tests under the race detector (also part of `check`).
test-race-sweep:
	$(GO) test -race -run 'TestSweepParallel|TestBestStatic|TestProfileTable' ./internal/hetero/

# Adversarial campaign soak under the race detector: every scheme in the
# registry crossed with every attack class, randomized schedules, verified
# against the detection matrix. -short keeps it at reduced scale for CI;
# scale up locally with e.g. ATTACK_SOAK_SEEDS=20 make attack-soak.
attack-soak:
	$(GO) test -race -short ./internal/attack/

test-invariants:
	$(GO) test -tags invariants ./...

# Coverage gate: run the suite with a profile and compare the total against
# the checked-in floor (coverage-floor.txt). A drop of 2 points or more
# fails; raise the floor when new tests push coverage up so it can't quietly
# erode back. CI uploads coverage.out as an artifact.
cover:
	$(GO) test -coverprofile=coverage.out ./...
	@total=$$($(GO) tool cover -func=coverage.out | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	floor=$$(cat coverage-floor.txt); \
	echo "total coverage: $$total% (floor $$floor%, tolerance 2.0)"; \
	awk -v t="$$total" -v f="$$floor" 'BEGIN { \
		if (t+0 <= f-2.0) { printf "coverage regressed >= 2 points below the floor (%.1f%% vs %.1f%%)\n", t, f; exit 1 } \
		if (t+0 > f+2.0) { printf "note: coverage is %.1f%%; consider raising coverage-floor.txt\n", t } }'

# Mutation-testing gate (see cmd/mgmutate and DESIGN.md "Mutation
# testing"). The run first audits the //mutate:ignore directives against
# the full site set (stale or unreasoned ones fail before any mutant is
# built), then runs the seeded deterministic sample over the five
# security-critical packages: same seed, byte-identical report. Fails on a
# per-package score below mutation-floor.txt or on any untriaged survivor.
# CI uploads mgmutate-report.json as an artifact.
mutate:
	$(GO) run ./cmd/mgmutate -sample 12 -seed 1 -short -tags invariants -v \
		-floor mutation-floor.txt -no-survivors -o mgmutate-report.json ./...

# Exhaustive tier: every derivable mutant, no sampling. Slow; run before
# raising mutation-floor.txt or after reworking a target package.
mutate-full:
	$(GO) run ./cmd/mgmutate -short -tags invariants -v \
		-floor mutation-floor.txt -no-survivors -o mgmutate-full.json ./...

# Reference-digest gate: one short untraced run of all five benchmark
# workloads (about a minute on 2 vCPU) checks their seed-1 digests against
# bench/testdata/reference.json. The benchmark
# exits 0 even when a digest mismatches, so the gate reads its last line,
# which must report "correct":true and "failed":0.
bench-check:
	@last=$$(bash bench/run.sh --seconds 1 --trace 0 | tail -n 1); echo "$$last"; \
	case "$$last" in *'"correct":true'*'"failed":0,'*) ;; \
	*) echo "bench-check: a workload failed an op or missed its reference digest"; exit 1 ;; esac

# Short fuzz pass over the fuzz targets (seed corpus runs in plain `test`).
fuzz:
	$(GO) test -tags invariants -run '^$$' -fuzz FuzzMACSlot -fuzztime 30s ./internal/meta/
	$(GO) test -tags invariants -run '^$$' -fuzz FuzzGeometryEqs -fuzztime 30s ./internal/meta/
	$(GO) test -tags invariants -run '^$$' -fuzz FuzzTrackerEviction -fuzztime 30s ./internal/tracker/
	$(GO) test -tags invariants -run '^$$' -fuzz FuzzAttackCheck -fuzztime 30s ./internal/secmem/
