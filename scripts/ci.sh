#!/usr/bin/env sh
# Tier-1 verify flow.  Beyond the seed contract (build + test), it vets
# the whole module, race-tests the packages with real concurrency or
# shared scratch (the trust table reports write while the TRMS prices
# against it, the experiment engine's global pool, internal/sim's
# cell runners, internal/sched's pooled kernel state, the WAL's group
# commit, the daemon's journal), runs the seeded chaos soak (wire
# faults, a partition, a mid-storm crash-restart; books must balance),
# fuzzes every fuzz target briefly,
# smoke-runs every experiment file through the engine, smoke-runs the
# journalled daemon demo, and proves checkpoint-resume: a SIGINT'd sweep
# resumed against its checkpoint directory prints byte-identical output.
# The overload+drain stage runs a journalled daemon with admission limits,
# drives load through gridctl, SIGTERMs it, and requires a clean exit plus
# byte-identical stats from the replayed daemon.  The gridload stage
# SIGKILLs a journalled daemon mid-load and requires the driver's client
# totals to reconcile exactly with the replayed daemon's metrics.
set -eu

cd "$(dirname "$0")/.."

# start_daemon LOG ARGS... starts gridtrustd in the background with its
# output in LOG and waits for the listening line; it sets dpid to the
# process id and addr to the bound address.
start_daemon() {
    log=$1
    shift
    /tmp/gridtrust-ci-daemon "$@" > "$log" 2>&1 &
    dpid=$!
    addr=""
    i=0
    while [ -z "$addr" ] && [ "$i" -lt 100 ]; do
        sleep 0.1
        addr=$(sed -n 's/^gridtrustd listening on //p' "$log")
        i=$((i + 1))
    done
    test -n "$addr"
}

echo "==> gofmt"
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt: needs formatting:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "==> no process-global setters (package-level func Set… in non-test code under internal/)"
if grep -rnE '^func Set[A-Z]' --include='*.go' internal | grep -v '_test\.go:'; then
    echo "ci: configuration is passed as values, not set on the process" >&2
    exit 1
fi

echo "==> no matching on an error's text (err.Error() inside a strings. call in non-test code under internal/ and cmd/)"
if grep -rnE 'strings\.[A-Za-z]+\(.*\.Error\(\)' --include='*.go' internal cmd | grep -v '_test\.go:'; then
    echo "ci: errors are told apart by type or value (errors.Is, errors.As, a typed reply field), not by their text" >&2
    exit 1
fi

echo "==> one dialler (net.Dial in non-test code only under internal/frame)"
if grep -rn 'net\.Dial' --include='*.go' internal cmd | grep -v '_test\.go:' | grep -v '^internal/frame/'; then
    echo "ci: client connections are frame.Conn, which owns dial, deadline and redial" >&2
    exit 1
fi

echo "==> one gossip loop (time.NewTicker in non-test code under internal/fleet, internal/trustwire only in internal/trustwire/replica.go; no sync.Mutex or sync.RWMutex in internal/fleet/claims.go)"
if grep -rn 'time\.NewTicker' --include='*.go' internal/fleet internal/trustwire | grep -v '_test\.go:' \
    | grep -v '^internal/trustwire/replica\.go:'; then
    echo "ci: trustwire.Replica.Poll is the one gossip loop; a consumer hands it a per-round hook" >&2
    exit 1
fi
if grep -nE 'sync\.(RW)?Mutex' internal/fleet/claims.go; then
    echo "ci: a peer's claim is one atomically published value, loaded by FuseOTL without a lock" >&2
    exit 1
fi

echo "==> one listener loop (.Accept() in non-test code only under internal/frame, internal/chaos/wire.go and internal/testutil; bufio.NewReader only under internal/frame and internal/testutil)"
if grep -rn '\.Accept()' --include='*.go' internal cmd | grep -v '_test\.go:' \
    | grep -v '^internal/frame/' | grep -v '^internal/chaos/wire\.go:' | grep -v '^internal/testutil/'; then
    echo "ci: servers answer through frame.Server, which owns the listener, the connections, the idle deadline and the request loop" >&2
    exit 1
fi
if grep -rn 'bufio\.NewReader' --include='*.go' internal cmd | grep -v '_test\.go:' \
    | grep -v '^internal/frame/' | grep -v '^internal/testutil/'; then
    echo "ci: a frame stream is read through frame's one reader, one size on both sides" >&2
    exit 1
fi

echo "==> one scrape path (no non-test Go outside internal/metrics assigns into a metrics.Snapshot's Counters, Gauges or Histograms map)"
if grep -rnE '\.(Counters|Gauges|Histograms)\[[^]]*\] *=' --include='*.go' . | grep -v '_test\.go:' \
    | grep -v '^\./internal/metrics/'; then
    echo "ci: a value the scrape reports is a registry metric (a CounterFunc or GaugeFunc for one read at scrape time), so the wire reply is written from the registry alone" >&2
    exit 1
fi

echo "==> one wall-clock latency instrument (non-test Go imports internal/stats only under internal/sim; non-test internal/stats imports no internal/rng)"
if grep -rn '"gridtrust/internal/stats"' --include='*.go' --exclude-dir=.bench_build . | grep -v '_test\.go:' \
    | grep -v '^\./internal/sim/'; then
    echo "ci: internal/stats is the simulator's exact sample; a wall-clock latency goes into a metrics.Histogram, as the daemon, the fleet router, gridctl and gridload record it" >&2
    exit 1
fi
if grep -rn '"gridtrust/internal/rng"' --include='*.go' internal/stats | grep -v '_test\.go:'; then
    echo "ci: a Sample keeps every observation, so nothing in it draws a random number" >&2
    exit 1
fi

echo "==> the forward hop relays a line (every RoundTrip in non-test code under internal/fleet sends a frame.Line, not a decoded rmswire.Request)"
if grep -rn 'RoundTrip(' --include='*.go' internal/fleet | grep -v '_test\.go:' | grep -v 'RoundTrip(nil, '; then
    echo "ci: an entry shard forwards the client's line spliced by rmswire.Forward and hands back the owner's reply line; re-encoding either costs a codec pass that changes nothing" >&2
    exit 1
fi

echo "==> one owner of the forward key's form (\"fwd- in non-test code only under internal/rmswire)"
if grep -rn '"fwd-' --include='*.go' internal cmd | grep -v '_test\.go:' | grep -v '^internal/rmswire/'; then
    echo "ci: router-minted keys are made by rmswire.ForwardKey and read by the ledger's parser, so the owner's window and the router agree on the form" >&2
    exit 1
fi

echo "==> one switch on journal record kind (internal/rmswire/ledger.go)"
if grep -rnE 'case recPlace|case recReport|\.Kind ==' --include='*.go' internal/rmswire \
    | grep -v '_test\.go:' | grep -v '^internal/rmswire/ledger\.go:'; then
    echo "ci: a journal record changes the daemon's books through ledger.apply, the one place that tells record kinds apart" >&2
    exit 1
fi

echo "==> no goroutine or channel in the TRMS (a go statement or chan in non-test code under internal/core)"
if grep -rnE '^[[:space:]]*go[[:space:]]+[A-Za-z_(]|(^|[^A-Za-z0-9_])chan([^A-Za-z0-9_]|$)' --include='*.go' internal/core \
    | grep -v '_test\.go:'; then
    echo "ci: ReportOutcome applies a report on the caller's goroutine, so the table a submit is priced from depends only on the calls before it" >&2
    exit 1
fi

echo "==> no math.Max or math.Min (non-test code under internal/sim, internal/sched, internal/core)"
if grep -rnE 'math\.(Max|Min)\(' --include='*.go' internal/sim internal/sched internal/core | grep -v '_test\.go:'; then
    echo "ci: math.Max and math.Min are never inlined; the builtin max and min are, and agree with them on every non-NaN input" >&2
    exit 1
fi

echo "==> one cost formula (no ESC func fields, opaque policy form or second decision-table builder in non-test Go code)"
if grep -rnE 'DecisionESC|ChargedESC|ESCOpaque|eccTable' --include='*.go' --exclude-dir=.bench_build . | grep -v '_test\.go:'; then
    echo "ci: a policy is its closed form, sched.ESC; every cost goes through ESC.Cost or a loop that keeps its parenthesisation" >&2
    exit 1
fi

echo "==> one cost interface (no per-cell cost method, RowCosts, decisionRow, AssignBatch method or BatchInto assertion in non-test code under internal/sched, internal/sim, internal/core)"
if grep -rnE 'RowCosts|decisionRow|\(sched\.BatchInto\)|^func \([^)]*\) (AssignBatch|EEC|TrustCost)\(' --include='*.go' internal/sched internal/sim internal/core \
    | grep -v '_test\.go:'; then
    echo "ci: a cost instance serves rows (sched.Costs: NumRequests, MachineIndex, CostRows) and a batch heuristic maps through AssignBatchInto alone" >&2
    exit 1
fi

echo "==> one incoming run per trust query (no outgoing adjacency, tally map or load map in non-test code under internal/trust)"
if grep -rnE '\bout[[:space:]]+\[\]\[\]edge|\.out\[|\bobs[[:space:]]+map\[|\bloadCnt\b|map\[\[[23]\]int32\]' --include='*.go' internal/trust \
    | grep -v '_test\.go:'; then
    echo "ci: a trust query reads one run, the subject's incoming run in the context, and the rival models' tallies live on its records" >&2
    exit 1
fi

echo "==> the trust model asked by handle (no run map or UnderlyingEngine in non-test internal/trust, internal/core; no by-name model.Trust or model.Observe in non-test internal/sim)"
if grep -rnE 'runIdx|runKey|UnderlyingEngine' --include='*.go' internal/trust internal/core | grep -v '_test\.go:' \
    || grep -rnE 'model\.(Trust|Observe)\(' --include='*.go' internal/sim | grep -v '_test\.go:'; then
    echo "ci: a subject's runs are a dense row per subject, the model interface has no engine escape hatch, and the simulator asks by minted handle (TrustOf, ObserveOf)" >&2
    exit 1
fi

echo "==> a run interns request profiles by integer id (no map in internal/sim/costs.go, no map[string] or fmt.Sprintf in internal/sim/modelview.go)"
if grep -nE 'map\[' internal/sim/costs.go || grep -nE 'map\[string\]|fmt\.Sprintf' internal/sim/modelview.go; then
    echo "ci: newWorkloadCosts interns slots, askers and contexts by open addressing checked against their first occurrence, and modelView reads the table's ids and renders names with strconv into one buffer" >&2
    exit 1
fi

echo "==> one replicated trust table (no wrapper table, dimension walk or history cache in non-test code under internal/trustwire, internal/fleet)"
if grep -rnE 'ReadOnlyTable|replicaTable|copyTable|entriesFromTable|historySize|histOrder' --include='*.go' internal/trustwire internal/fleet \
    | grep -v '_test\.go:'; then
    echo "ci: gossip sends Since(have) of one grid.TableReplica, the table's store, and a replica is built only by Overlay" >&2
    exit 1
fi

echo "==> one trust-table store (no map or sync.RWMutex in internal/grid/table.go, no .ForEach( in non-test Go code)"
if grep -nE 'map\[|sync\.RWMutex' internal/grid/table.go \
    || grep -rn --include='*.go' '\.ForEach(' . | grep -v '_test\.go:'; then
    echo "ci: the table is one dense, copy-on-write grid.TableReplica published by grid.TrustTable; read it through Replica(), the whole of it through Since(0)" >&2
    exit 1
fi

echo "==> no unsafe on the wire (non-test code under internal/frame, rmswire, trustwire, fleet)"
if grep -rn '"unsafe"' --include='*.go' internal/frame internal/rmswire internal/trustwire internal/fleet | grep -v '_test\.go:'; then
    echo "ci: the frame codec reads and writes through typed accessors; bytes from a peer never meet unsafe" >&2
    exit 1
fi

echo "==> VEX-only vector kernels (no legacy SSE instruction on an X or Y register in internal/sched/decide_amd64.s)"
if grep -nE '^[[:space:]]+[A-UW-Z][A-Z0-9]*[[:space:]].*\b[XY][0-9]+\b' internal/sched/decide_amd64.s; then
    echo "ci: a legacy SSE instruction beside dirty YMM state costs a state transition on every call; use its VEX form" >&2
    exit 1
fi

echo "==> no hand-recorded benchmark files (BENCH_*.json at the repository root)"
if ls BENCH_*.json 2>/dev/null; then
    echo "ci: bench/ and BENCHMARK.json are the one benchmark; a microbenchmark's history is a dated row in EXPERIMENTS.md" >&2
    exit 1
fi

echo "==> go build ./..."
go build ./...

echo "==> go vet ./..."
go vet ./...

echo "==> portable-only build (arm64 has no vector decision kernels, so every row runs the Go bodies)"
GOARCH=arm64 go vet ./internal/sched ./internal/sim
GOARCH=arm64 go build ./...

echo "==> go test ./..."
go test ./...

echo "==> bench module tests (its own module: held-out-seed goldens, estimator tests)"
(cd bench && go test .)

echo "==> microbenchmarks, one iteration each (none may rot; nothing is timed)"
if ! out=$(make bench-micro BENCHTIME=1x 2>&1); then
    echo "$out" >&2
    exit 1
fi

echo "==> go test -race (concurrent packages)"
go test -race ./internal/core/... ./internal/grid/... ./internal/exp/... ./internal/fault/... ./internal/sched/... ./internal/sim/... ./internal/trust/... ./internal/wal/... ./internal/frame/... ./internal/rmswire/... ./internal/metrics/... ./internal/load/... ./internal/trustwire/... ./internal/fleet/... ./internal/chaos/...

echo "==> sequential reports are deterministic (race detector, 20 runs)"
go test -race -count=20 -run '^TestSequentialReportsAreDeterministic$' ./internal/core

echo "==> chaos soak smoke (seeded fault schedule, race detector, bounded)"
# The soak runs a 3-shard journaled fleet under a scripted schedule of
# wire faults, a partition, and a SIGKILL-equivalent crash-restart; its
# seed is fixed in the test, so a failure reproduces exactly.
go test -race -run '^TestChaosSoak$' -timeout 120s ./internal/fleet/

echo "==> fuzz smoke (every fuzz target, 5s each)"
for spec in \
    "./internal/wal FuzzWALRecover" \
    "./internal/wal FuzzWALRecoverSnapshot" \
    "./internal/sched FuzzKernelEquivalence" \
    "./internal/sched FuzzDecisionKernels" \
    "./internal/des FuzzQueueEquivalence" \
    "./internal/sim FuzzFusedScan" \
    "./internal/sim FuzzCostsBuild" \
    "./internal/stats FuzzSampleOrder" \
    "./internal/trust FuzzEngineEquivalence" \
    "./internal/trust FuzzModelEquivalence" \
    "./internal/grid FuzzParseLevel" \
    "./internal/grid FuzzETSWith" \
    "./internal/grid FuzzLevelFromScore" \
    "./internal/grid FuzzStoreMatchesReference" \
    "./internal/frame FuzzCodecParsesLikeJSON" \
    "./internal/trustwire FuzzReadFrame" \
    "./internal/trustwire FuzzCodecMatchesJSON" \
    "./internal/rmswire FuzzCodecMatchesJSON" \
    "./internal/rmswire FuzzForwardSplice" \
    "./internal/trustwire FuzzApplyEntries" \
    "./internal/trustwire FuzzServerRespond" \
    "./internal/chaos FuzzTornTailRecovery" \
    "./internal/chaos FuzzWireDeliveredPrefix"; do
    set -- $spec
    echo "    fuzz $1 $2"
    go test "$1" -run '^$' -fuzz "^$2\$" -fuzztime 5s > /dev/null
done

echo "==> sweep smoke (every experiment file, 2 reps)"
go build -o /tmp/gridtrust-ci-trustsim ./cmd/trustsim
for spec in configs/sweeps/*.json configs/paper-tables.json configs/extensions.json; do
    echo "    trustsim sweep $spec"
    /tmp/gridtrust-ci-trustsim sweep -reps 2 -seed 1 "$spec" > /dev/null
done
/tmp/gridtrust-ci-trustsim sweep -reps 2 -seed 1 -format json configs/sweeps/machines.json > /dev/null

echo "==> trustsim subcommand smoke (ets, transfer, workload round trip, report)"
td=$(mktemp -d)
/tmp/gridtrust-ci-trustsim ets -rule linear | grep -q "linear variant"
/tmp/gridtrust-ci-trustsim transfer -net 100 -sizes 1,10 | grep -q "asymptotic overhead"
/tmp/gridtrust-ci-trustsim workload gen -seed 7 -tasks 30 -out "$td/w.json" > /dev/null
/tmp/gridtrust-ci-trustsim workload describe -in "$td/w.json" | grep -q "30 tasks x 5 machines"
/tmp/gridtrust-ci-trustsim workload run -in "$td/w.json" -heuristic minmin -gantt | grep -q "makespan:"
/tmp/gridtrust-ci-trustsim report -reps 1 | grep -q '## Table 9'
rm -rf "$td"

echo "==> sweep byte-identity smoke (default trust model named explicitly; 1 vs 4 workers; rival models vs committed outputs)"
kd=$(mktemp -d)
# The default trust model is the paper engine: selecting it explicitly
# must not change a byte of any sweep output.
for mode in heuristics fault; do
    /tmp/gridtrust-ci-trustsim sweep -reps 2 -seed 1 "configs/sweeps/$mode.json" > "$kd/$mode.txt"
    /tmp/gridtrust-ci-trustsim sweep -reps 2 -seed 1 -trust-model paper "configs/sweeps/$mode.json" > "$kd/$mode-model.txt"
    cmp "$kd/$mode.txt" "$kd/$mode-model.txt"
done
# Rival models are bit-deterministic under any worker count.
/tmp/gridtrust-ci-trustsim sweep -reps 2 -seed 1 -trust-model purge -workers 1 configs/sweeps/fault.json > "$kd/fault-purge-w1.txt"
/tmp/gridtrust-ci-trustsim sweep -reps 2 -seed 1 -trust-model purge -workers 4 configs/sweeps/fault.json > "$kd/fault-purge-w4.txt"
cmp "$kd/fault-purge-w1.txt" "$kd/fault-purge-w4.txt"
# The model-driven path against outputs committed from the binary of
# commit bc8376a, whose model view asked the model again after every
# completion: keeping answers per (context, subject) must not move a byte.
for model in purge frtrust bawa; do
    /tmp/gridtrust-ci-trustsim sweep -trust-model "$model" -reps 10 configs/sweeps/heuristics.json > "$kd/heuristics-$model.txt"
    cmp "$kd/heuristics-$model.txt" "cmd/trustsim/testdata/heuristics-$model-reps10.txt"
done
/tmp/gridtrust-ci-trustsim sweep configs/sweeps/trustzoo.json > "$kd/trustzoo.txt"
cmp "$kd/trustzoo.txt" cmd/trustsim/testdata/trustzoo.txt
# The event-per-task loop (churn, whitewashing, a live model) against
# outputs committed from the binary of commit a76c2c1, whose loop walked
# every machine's queue for availability and priced MCT through AssignOne.
/tmp/gridtrust-ci-trustsim sweep -reps 10 -seed 1 configs/sweeps/fault.json > "$kd/fault.txt"
cmp "$kd/fault.txt" cmd/trustsim/testdata/fault-reps10.txt
for model in purge frtrust bawa; do
    /tmp/gridtrust-ci-trustsim sweep -trust-model "$model" -reps 10 -seed 1 configs/sweeps/fault.json > "$kd/fault-$model.txt"
    cmp "$kd/fault-$model.txt" "cmd/trustsim/testdata/fault-$model-reps10.txt"
done
rm -rf "$kd"

echo "==> gridtrustd demo smoke (journalled)"
go build -o /tmp/gridtrust-ci-daemon ./cmd/gridtrustd
go build -o /tmp/gridtrust-ci-gridctl ./cmd/gridctl
dd=$(mktemp -d)
/tmp/gridtrust-ci-daemon -addr 127.0.0.1:0 -data "$dd" -demo | grep -q "demo: placed=5"
/tmp/gridtrust-ci-gridctl wal-info -data "$dd" | grep -q "live records"
rm -rf "$dd"

echo "==> gridtrustd overload + drain smoke (limits on, SIGTERM, replay must match)"
dd=$(mktemp -d)
start_daemon "$dd/log" -addr 127.0.0.1:0 -data "$dd" -max-conns 8 -max-inflight 2
/tmp/gridtrust-ci-gridctl -addr "$addr" health | grep -q "in-flight:"
# Discover the machine count by growing the EEC vector until the daemon
# accepts a submit (the topology is seed-drawn, so it is not known here).
eec="100"
n=1
while [ "$n" -le 64 ]; do
    if /tmp/gridtrust-ci-gridctl -addr "$addr" submit -client 0 \
        -activities 0 -rtl F -eec "$eec" > /dev/null 2>&1; then
        break
    fi
    n=$((n + 1))
    eec="$eec,100"
done
test "$n" -le 64
/tmp/gridtrust-ci-gridctl -addr "$addr" report -placement 1 -outcome 5 > /dev/null
reports=1
i=2
while [ "$i" -le 9 ]; do
    out=$(/tmp/gridtrust-ci-gridctl -addr "$addr" submit -client 0 \
        -activities 0 -rtl F -eec "$eec" -now "$i")
    pl=$(printf '%s\n' "$out" | sed -n 's/^placement \([0-9]*\):.*/\1/p')
    /tmp/gridtrust-ci-gridctl -addr "$addr" report -placement "$pl" \
        -outcome 5 -now "$i" > /dev/null
    reports=$((reports + 1))
    i=$((i + 1))
done
# Every report was applied before its reply, so this view is final.
/tmp/gridtrust-ci-gridctl -addr "$addr" stats > "$dd/stats-before.txt"
grep -q "agents processed:  $reports (" "$dd/stats-before.txt"
kill -TERM "$dpid"
wait "$dpid" # graceful drain must exit 0
grep -q "final checkpoint" "$dd/log"
grep -q "drained; exiting" "$dd/log"
# The replayed daemon must serve byte-identical stats.
start_daemon "$dd/log2" -addr 127.0.0.1:0 -data "$dd" -max-conns 8 -max-inflight 2
/tmp/gridtrust-ci-gridctl -addr "$addr" stats > "$dd/stats-after.txt"
cmp "$dd/stats-before.txt" "$dd/stats-after.txt"
# Drain over the wire: the daemon must exit 0 without a signal.
/tmp/gridtrust-ci-gridctl -addr "$addr" drain > /dev/null
wait "$dpid"
grep -q "draining: requested over the wire" "$dd/log2"
rm -rf "$dd"

echo "==> gridload smoke (limits on, mid-run SIGKILL+restart, books must balance)"
go build -o /tmp/gridtrust-ci-gridload ./cmd/gridload
ld=$(mktemp -d)
mkdir "$ld/data"
start_daemon "$ld/log" -addr 127.0.0.1:0 -data "$ld/data" -max-inflight 2
# gridload exits 3 if its client totals do not reconcile with the
# daemon's {"op":"metrics"} counters, so the smoke is the exit code;
# the SIGKILL below lands mid-run and WAL replay must restore the
# durable anchors (placed, idem entries, open placements) exactly.
/tmp/gridtrust-ci-gridload -addr "$addr" -clients 4 -duration 2s \
    -seed 41 -max-attempts 80 -op-timeout 2s -format json > "$ld/run.json" &
lpid=$!
sleep 1
kill -KILL "$dpid"
wait "$dpid" 2> /dev/null || true
/tmp/gridtrust-ci-daemon -addr "$addr" -data "$ld/data" \
    -max-inflight 2 > "$ld/log2" 2>&1 &
dpid=$!
wait "$lpid"
grep -q '"daemon_restarted": true' "$ld/run.json"
grep -q '"unresolved": 0' "$ld/run.json"
# The metrics op and its CLI surface answer on the replayed daemon.
/tmp/gridtrust-ci-gridctl -addr "$addr" metrics | grep -q "placed"
/tmp/gridtrust-ci-gridctl -addr "$addr" metrics -format json \
    | grep -q '"start_unix_nanos"'
# Clean wire-drain exit closes the smoke.
/tmp/gridtrust-ci-gridctl -addr "$addr" drain > /dev/null
wait "$dpid"
grep -q "drained; exiting" "$ld/log2"
rm -rf "$ld"

echo "==> fleet single-shard byte-identity smoke (demo stdout + WAL must match non-fleet)"
fd=$(mktemp -d)
mkdir "$fd/plain" "$fd/fleet"
printf '{"shards":[{"name":"s0","addr":"127.0.0.1:7469"}]}\n' > "$fd/solo.json"
# Relative -data paths so the WAL recovery line prints the same path in
# both runs; the runs are sequential so the fixed port never conflicts.
(cd "$fd/plain" && /tmp/gridtrust-ci-daemon -addr 127.0.0.1:7469 -data data -demo) > "$fd/plain.out"
(cd "$fd/fleet" && /tmp/gridtrust-ci-daemon -fleet "$fd/solo.json" -shard s0 -data data -demo) \
    > "$fd/fleet.out" 2> "$fd/fleet.err"
# Identical stdout (fleet chatter is stderr-only) and identical on-disk
# state: shard 0's placement-ID namespace base is 0, so a single-shard
# fleet journals byte-for-byte what a plain daemon journals.
cmp "$fd/plain.out" "$fd/fleet.out"
diff -r "$fd/plain/data" "$fd/fleet/data"
grep -q "fleet: shard s0" "$fd/fleet.err"
rm -rf "$fd"

echo "==> fleet smoke (3 shards, mid-run SIGKILL+restart, fleet-wide books + gossip convergence)"
fd=$(mktemp -d)
mkdir "$fd/d0" "$fd/d1" "$fd/d2"
printf '%s\n' '{"shards":[' \
    ' {"name":"s0","addr":"127.0.0.1:7471","trust_addr":"127.0.0.1:7474"},' \
    ' {"name":"s1","addr":"127.0.0.1:7472","trust_addr":"127.0.0.1:7475"},' \
    ' {"name":"s2","addr":"127.0.0.1:7473","trust_addr":"127.0.0.1:7476"}],' \
    ' "gossip_interval_ms":50,"staleness_bound_ms":5000}' > "$fd/fleet.json"
for i in 0 1 2; do
    /tmp/gridtrust-ci-daemon -fleet "$fd/fleet.json" -shard "s$i" -data "$fd/d$i" \
        > "$fd/log$i" 2>&1 &
    eval "dpid$i=\$!"
done
for i in 0 1 2; do
    j=0
    while ! grep -q "^gridtrustd listening on " "$fd/log$i" && [ "$j" -lt 100 ]; do
        sleep 0.1
        j=$((j + 1))
    done
    grep -q "^gridtrustd listening on " "$fd/log$i"
done
/tmp/gridtrust-ci-gridctl fleet health -config "$fd/fleet.json" | grep -q "s2"
# gridload drives all three shards (workers pinned round-robin) and
# exits 3 unless the durable anchors balance when summed fleet-wide —
# including across the SIGKILL+restart of shard s1 below.
/tmp/gridtrust-ci-gridload -fleet "$fd/fleet.json" -clients 6 -duration 3s \
    -seed 43 -max-attempts 200 -op-timeout 2s -settle-timeout 30s \
    -format json > "$fd/run.json" &
lpid=$!
sleep 1
kill -KILL "$dpid1"
wait "$dpid1" 2> /dev/null || true
sleep 0.3
/tmp/gridtrust-ci-daemon -fleet "$fd/fleet.json" -shard s1 -data "$fd/d1" \
    > "$fd/log1b" 2>&1 &
dpid1=$!
wait "$lpid" # exit 0 = fleet-wide exactly-once reconciliation held
grep -q '"daemon_restarted": true' "$fd/run.json"
grep -q '"unresolved": 0' "$fd/run.json"
# Trust gossip must reconverge after the churn: every shard's claim set
# reaches every peer's current table version within the staleness bound.
/tmp/gridtrust-ci-gridctl fleet gossip -config "$fd/fleet.json" -wait 10s | grep -q "converged"
/tmp/gridtrust-ci-gridctl fleet ring -config "$fd/fleet.json" | grep -q "share: "
/tmp/gridtrust-ci-gridctl fleet metrics -config "$fd/fleet.json" | grep -q "fleet total:"
/tmp/gridtrust-ci-gridctl fleet drain -config "$fd/fleet.json" > /dev/null
wait "$dpid0"
wait "$dpid1"
wait "$dpid2"
grep -q "drained; exiting" "$fd/log0"
grep -q "drained; exiting" "$fd/log1b"
grep -q "drained; exiting" "$fd/log2"
rm -rf "$fd"
rm -f /tmp/gridtrust-ci-daemon /tmp/gridtrust-ci-gridctl /tmp/gridtrust-ci-gridload

echo "==> sweep checkpoint-resume smoke (SIGINT, resume, diff)"
ckd=$(mktemp -d)
# -reps sizes each of the five cells to a quarter of a second or so, so
# the interrupt, sent once the first cell is journalled, lands before the
# last (a cell's journal record grows with -reps: 40 machines at 5000 reps
# outgrow the WAL's 8 MiB record limit).
flags="-reps 2000 -seed 5 -workers 1"
spec=configs/sweeps/machines.json
/tmp/gridtrust-ci-trustsim sweep $flags "$spec" > "$ckd/expected.txt"
/tmp/gridtrust-ci-trustsim sweep $flags -v -checkpoint "$ckd/ck" "$spec" > /dev/null 2> "$ckd/interrupted.log" &
pid=$!
i=0
until grep -q '\[1/5\]' "$ckd/interrupted.log"; do
    i=$((i + 1))
    test "$i" -lt 1200
    sleep 0.05
done
kill -INT "$pid"
status=0
wait "$pid" || status=$?
test "$status" -eq 130
# The resumed run restores the journalled cells, runs the rest, and must
# emit output byte-identical to the uninterrupted one.
/tmp/gridtrust-ci-trustsim sweep $flags -v -checkpoint "$ckd/ck" "$spec" > "$ckd/resumed.txt" 2> "$ckd/resumed.log"
grep -q ', cached$' "$ckd/resumed.log"
grep -q ', ok$' "$ckd/resumed.log"
cmp "$ckd/expected.txt" "$ckd/resumed.txt"
rm -rf "$ckd"
rm -f /tmp/gridtrust-ci-trustsim

echo "==> size (non-test Go lines; simplicity PRs quote it)"
./scripts/size.sh internal/core internal/sched internal/sim internal/trust internal/load internal/rmswire cmd/gridctl

echo "ci: ok"
