# Convenience targets; scripts/ci.sh is the canonical verify flow.

.PHONY: verify test race smoke soak size bench-e2e bench-micro

# verify runs the tier-1 flow: build, vet, full tests, race tests for
# the concurrent packages (exp's experiment engine, sim's cell runners,
# sched's pooled kernels), and a sweep smoke across every experiment file.
verify:
	./scripts/ci.sh

test:
	go test ./...

race:
	go test -race ./internal/core/... ./internal/grid/... ./internal/exp/... ./internal/fault/... ./internal/sched/... ./internal/sim/... ./internal/trust/... ./internal/wal/... ./internal/frame/... ./internal/rmswire/... ./internal/metrics/... ./internal/load/... ./internal/trustwire/... ./internal/fleet/... ./internal/chaos/...

# smoke runs every experiment file once through `trustsim sweep` at two
# replications (mirrors the smoke stage of scripts/ci.sh).
smoke:
	go build -o /tmp/gridtrust-smoke-trustsim ./cmd/trustsim
	for spec in configs/sweeps/*.json configs/paper-tables.json configs/extensions.json; do \
		/tmp/gridtrust-smoke-trustsim sweep -reps 2 -seed 1 $$spec > /dev/null || exit 1; \
	done
	rm -f /tmp/gridtrust-smoke-trustsim

# soak runs the chaos soak N times, one isolated `go test -count=1` process
# at a time, and prints how many passed; the output of a failed run is
# shown.  A PR that touches rmswire, fleet, trustwire, frame, wal or core
# quotes this at its parent and at its change.
N ?= 20
soak:
	@pass=0; i=0; out=$$(mktemp); \
	while [ $$i -lt $(N) ]; do \
		if go test -count=1 -run '^TestChaosSoak$$' ./internal/fleet/ > $$out 2>&1; then \
			pass=$$((pass + 1)); \
		else \
			cat $$out; \
		fi; \
		i=$$((i + 1)); \
	done; \
	rm -f $$out; \
	echo "soak: $$pass of $(N) passed"; \
	test $$pass -eq $(N)

# size prints non-test Go lines per package, the measure simplicity PRs
# quote (scripts/size.sh PKG... limits it to the packages named).
size:
	./scripts/size.sh

# bench-e2e runs the repository's benchmark (BENCHMARK.json, bench/README.md):
# every workload once untraced for the gated end-to-end metrics, then once
# traced for the per-layer metrics.  The window is BENCHMARK.json's
# run_seconds; for another seed call bench/run.sh directly.
bench-e2e:
	for trace in 0 1; do \
		for w in serve_durable serve_mixed fleet3 sim_paper sim_trust; do \
			bash bench/run.sh --workload $$w --seed 1 --seconds 20 --trace $$trace || exit 1; \
		done; \
	done

# bench-micro runs every testing.B in the module: the kernels beside their
# references (sched, des), the run loops (sim), the experiment engine, the
# trust zoo (BenchmarkModelTrust: one Trust call of every registered model,
# with allocations), the WAL, the daemon's decision and the paper-table
# pipelines.
# They are for reading one layer while working on it; nothing gates them
# (bench-e2e is the gated benchmark) and scripts/ci.sh runs them at
# BENCHTIME=1x so none can rot.  The 5000-machine x 1M-task replication
# takes half a minute and is left out; run it by name:
#   go test ./internal/sim -run '^$' -bench SimFlagship -benchtime 1x -timeout 30m
BENCHTIME ?= 1s
bench-micro:
	go test -run '^$$' -bench . -skip SimFlagship -benchtime $(BENCHTIME) -benchmem ./...
