# Convenience targets; everything is plain dune underneath.

.PHONY: all build test bench examples clean doc bench-json microbench \
        trace metrics overhead check fault-matrix validate golden-check \
        golden-update batch-demo batch-smoke serve-smoke bench-gate \
        bench-ratchet report-demo flamegraph tail-demo optimize-demo \
        bench-delta

all: check

build:
	dune build @all

test:
	dune runtest

test-verbose:
	dune runtest --force --no-buffer

# The default gate: build, run the full test suites, then exercise the
# fault-injection matrix and the full validation sweep end to end
# through the CLI (the quick sweep already runs inside dune runtest).
check: build
	dune runtest
	$(MAKE) fault-matrix
	$(MAKE) golden-check

# 3 sites x 2 seeds of deterministic fault injection, driven through
# the real binary.  Estimator-tier faults (linear.f) must exit 3 under
# --strict and recover (exit 0) in best-effort mode; pool and Cholesky
# faults have no fallback tier, so they exit 3 in either mode.  The
# quadrature site arms the Simpson fallback, so the run must succeed.
RGLEAK := dune exec --no-build bin/rgleak.exe --
fault-matrix: build
	@set -e; \
	for seed in 1 2; do \
	  for site in linear.f parallel cholesky; do \
	    case $$site in \
	    linear.f) \
	      cmd="estimate -n 200 --method linear --fault-spec $$site:1:$$seed"; \
	      want_strict=3; want_lax=0 ;; \
	    parallel) \
	      cmd="estimate -n 200 --method linear --fault-spec $$site:1:$$seed"; \
	      want_strict=3; want_lax=3 ;; \
	    cholesky) \
	      cmd="map -n 100 --fault-spec $$site:1:$$seed"; \
	      want_strict=3; want_lax=3 ;; \
	    esac; \
	    got=0; $(RGLEAK) $$cmd --strict >/dev/null 2>&1 || got=$$?; \
	    test $$got -eq $$want_strict || { \
	      echo "FAIL: $$site seed $$seed strict: exit $$got, want $$want_strict"; exit 1; }; \
	    got=0; $(RGLEAK) $$cmd >/dev/null 2>&1 || got=$$?; \
	    test $$got -eq $$want_lax || { \
	      echo "FAIL: $$site seed $$seed lax: exit $$got, want $$want_lax"; exit 1; }; \
	    echo "ok: $$site seed $$seed (strict $$want_strict, best-effort $$want_lax)"; \
	  done; \
	  got=0; $(RGLEAK) estimate -n 200 --method linear \
	    --fault-spec quadrature:1:$$seed --strict >/dev/null 2>&1 || got=$$?; \
	  test $$got -eq 0 || { \
	    echo "FAIL: quadrature seed $$seed: fallback should succeed, exit $$got"; exit 1; }; \
	  echo "ok: quadrature seed $$seed (fallback engages, exit 0)"; \
	done; \
	echo "fault matrix passed"

# The full paper-table validation sweep: exact/linear/integral tiers
# against a seeded MC reference at every design point, human-readable
# tables on stdout.  Bit-reproducible for a given --seed.
validate: build
	$(RGLEAK) validate --sweep default --seed 42

# The canonical arguments of the committed tail baseline
# (data/golden/tail_quick.json): a 192-gate scenario with the budget at
# roughly mean + 2.5 sigma, 500 importance-sampled replicas.
TAIL_QUICK := tail -n 192 --budget 0.85 --replicas 500 --seed 42

# The canonical arguments of the committed optimizer baseline
# (data/golden/optimize_quick.json): 400 gates starting all-LVT with a
# 30-unit slack budget; fully deterministic, so the golden compares at
# numeric-epsilon tolerance only.
OPTIMIZE_QUICK := optimize -n 400 --budget 30 --seed 7

# Regenerate the committed golden baselines after an intentional
# harness or estimator change; commit the resulting JSON.
golden-update: build
	$(RGLEAK) validate --sweep quick --seed 42 --json data/golden/validate_quick.json
	$(RGLEAK) validate --sweep default --seed 42 --json data/golden/validate_default.json
	$(RGLEAK) $(TAIL_QUICK) --json data/golden/tail_quick.json
	$(RGLEAK) $(OPTIMIZE_QUICK) --json data/golden/optimize_quick.json
	$(RGLEAK) characterize > data/golden/characterize_default.txt

# Both sweeps must reproduce their committed baselines (drift within MC
# sampling noise is tolerated, anything else fails), and a deliberately
# fault-poisoned run must be caught as breaking drift — proving the
# golden gate can actually fail.  The characterize report, whose MC
# cross-check is opt-in, must reproduce its baseline byte for byte at
# any job count.
golden-check: build
	$(RGLEAK) characterize | cmp - data/golden/characterize_default.txt
	$(RGLEAK) characterize --jobs 1 | cmp - data/golden/characterize_default.txt
	$(RGLEAK) validate --sweep quick --seed 42 --golden data/golden/validate_quick.json
	$(RGLEAK) validate --sweep default --seed 42 --golden data/golden/validate_default.json
	$(RGLEAK) $(TAIL_QUICK) --golden data/golden/tail_quick.json >/dev/null
	$(RGLEAK) $(TAIL_QUICK) --jobs 4 --golden data/golden/tail_quick.json >/dev/null
	$(RGLEAK) $(OPTIMIZE_QUICK) --golden data/golden/optimize_quick.json >/dev/null
	$(RGLEAK) $(OPTIMIZE_QUICK) --jobs 4 --golden data/golden/optimize_quick.json >/dev/null
	@got=0; $(RGLEAK) validate --sweep quick --seed 42 \
	  --fault-spec linear.f:1:1 --golden data/golden/validate_quick.json \
	  >/tmp/rgleak_golden_neg.out 2>&1 || got=$$?; \
	test $$got -ne 0 || { \
	  echo "FAIL: faulted validate run passed the golden gate"; exit 1; }; \
	grep -q "BREAKING" /tmp/rgleak_golden_neg.out || { \
	  echo "FAIL: faulted drift not classified as breaking"; exit 1; }; \
	echo "ok: golden gate rejects a poisoned estimator (exit $$got, breaking drift)"

# Tail-risk demo: importance-sampled exceedance at the canonical quick
# scenario, report written next to the other telemetry artifacts.
tail-demo: build
	$(RGLEAK) $(TAIL_QUICK) --json tail_demo.json
	@echo "wrote tail_demo.json"

# Multi-Vt optimizer demo: greedy LVT downgrades at the canonical quick
# scenario, driven by the incremental delta estimator.
optimize-demo: build
	$(RGLEAK) $(OPTIMIZE_QUICK) --json optimize_demo.json
	@echo "wrote optimize_demo.json"

# Run the checked-in example manifest on a throwaway cache.
batch-demo: build
	$(RGLEAK) batch examples/batch_manifest.jsonl --cache-dir /tmp/rgleak_batch_demo_cache

# Cold run, warm run, byte-compare the reports, assert the warm run
# actually hit the cache (via --metrics-json counters), then aggregate
# the shared run ledger into fleet telemetry with `rgleak report` and
# assert the window's cache hit rate.  The warm run also writes a
# collapsed-stack profile for flamegraph.pl / speedscope.
batch-smoke: build
	@rm -rf /tmp/rgleak_batch_smoke; mkdir -p /tmp/rgleak_batch_smoke
	$(RGLEAK) batch examples/batch_manifest.jsonl \
	  --cache-dir /tmp/rgleak_batch_smoke/cache \
	  --out /tmp/rgleak_batch_smoke/cold.jsonl \
	  --metrics-json /tmp/rgleak_batch_smoke/cold-metrics.json \
	  --ledger /tmp/rgleak_batch_smoke/ledger.jsonl
	$(RGLEAK) batch examples/batch_manifest.jsonl \
	  --cache-dir /tmp/rgleak_batch_smoke/cache \
	  --out /tmp/rgleak_batch_smoke/warm.jsonl \
	  --metrics-json /tmp/rgleak_batch_smoke/warm-metrics.json \
	  --trace-folded /tmp/rgleak_batch_smoke/warm.folded \
	  --ledger /tmp/rgleak_batch_smoke/ledger.jsonl
	cmp /tmp/rgleak_batch_smoke/cold.jsonl /tmp/rgleak_batch_smoke/warm.jsonl
	@grep -E '"cache.hits": [1-9]' /tmp/rgleak_batch_smoke/warm-metrics.json \
	  || { echo "FAIL: warm run had no cache hits"; exit 1; }
	$(RGLEAK) report /tmp/rgleak_batch_smoke/ledger.jsonl \
	  --json /tmp/rgleak_batch_smoke/report.json
	@grep -E '"hit_rate": 0\.[1-9]' /tmp/rgleak_batch_smoke/report.json \
	  || { echo "FAIL: fleet report shows no cache hit rate"; exit 1; }
	@test -s /tmp/rgleak_batch_smoke/warm.folded \
	  || { echo "FAIL: collapsed-stack profile is empty"; exit 1; }
	@echo "batch smoke passed: identical reports, warm cache hits, fleet report aggregates the ledger"

# Service smoke gate: start the daemon on a throwaway socket, fire 8
# concurrent clients (the mixed-tier example manifest, duplicated so
# the shared cache sees repeats), byte-compare every response against
# the direct `rgleak batch` records, assert nonzero cache hits in the
# serve stats, check that a --no-cache daemon answers a duplicate
# request byte-identically from its in-memory engine (nonzero engine
# hits), prove shed-to-integral under a forced shed threshold
# and admission rejection under a zero queue cap, then check the
# SIGTERM drain exits 0, unlinks the socket and flushes the final
# ledger line.  The daemon and clients run the built binary directly:
# concurrent `dune exec` invocations would race on the build lock.
RGLEAK_BIN := _build/default/bin/rgleak.exe
serve-smoke: build
	@set -e; \
	D=/tmp/rgleak_serve_smoke; rm -rf $$D; mkdir -p $$D; \
	$(RGLEAK_BIN) batch examples/batch_manifest.jsonl --no-cache \
	  --out $$D/batch.jsonl 2>/dev/null; \
	tail -n +2 $$D/batch.jsonl > $$D/reference.jsonl; \
	$(RGLEAK_BIN) serve --socket $$D/serve.sock --cache-dir $$D/cache \
	  --ledger $$D/ledger.jsonl 2>$$D/serve.err & pid=$$!; \
	$(RGLEAK_BIN) client --socket $$D/serve.sock --ping --wait 10; \
	cpids=""; \
	for i in 1 2 3 4 5 6 7 8; do \
	  $(RGLEAK_BIN) client --socket $$D/serve.sock \
	    --manifest examples/batch_manifest.jsonl > $$D/resp$$i.jsonl & \
	  cpids="$$cpids $$!"; \
	done; \
	for p in $$cpids; do wait $$p; done; \
	for i in 1 2 3 4 5 6 7 8; do \
	  cmp $$D/resp$$i.jsonl $$D/reference.jsonl; \
	done; \
	$(RGLEAK_BIN) client --socket $$D/serve.sock --stats > $$D/stats.json; \
	grep -E '"cache": \{[^}]*"hits": [1-9]' $$D/stats.json >/dev/null \
	  || { echo "FAIL: duplicate requests produced no cache hits"; exit 1; }; \
	kill -TERM $$pid; wait $$pid \
	  || { echo "FAIL: SIGTERM drain exited nonzero"; exit 1; }; \
	test ! -e $$D/serve.sock \
	  || { echo "FAIL: socket not unlinked after drain"; exit 1; }; \
	grep -q '"subcommand": "serve"' $$D/ledger.jsonl \
	  || { echo "FAIL: no final ledger line after drain"; exit 1; }; \
	printf '%s\n' '{"id": "one", "n": 400, "mix": "INV_X1:2,NOR2_X1:1", "corr": "exp:60", "tier": "int2d", "seed": 3}' \
	  > $$D/one.jsonl; \
	$(RGLEAK_BIN) batch $$D/one.jsonl --no-cache --out $$D/one-batch.jsonl \
	  2>/dev/null; \
	tail -n +2 $$D/one-batch.jsonl > $$D/one-reference.jsonl; \
	$(RGLEAK_BIN) serve --socket $$D/mem.sock --no-cache \
	  2>>$$D/serve.err & mpid=$$!; \
	$(RGLEAK_BIN) client --socket $$D/mem.sock --ping --wait 10; \
	for i in 1 2; do \
	  $(RGLEAK_BIN) client --socket $$D/mem.sock \
	    --manifest $$D/one.jsonl > $$D/mem$$i.jsonl; \
	  cmp $$D/mem$$i.jsonl $$D/one-reference.jsonl; \
	done; \
	$(RGLEAK_BIN) client --socket $$D/mem.sock --stats > $$D/mem-stats.json; \
	grep -E '"engine": \{[^}]*"hits": [1-9]' $$D/mem-stats.json >/dev/null \
	  || { echo "FAIL: --no-cache duplicate request missed the engine"; exit 1; }; \
	$(RGLEAK_BIN) client --socket $$D/mem.sock --shutdown; wait $$mpid; \
	printf '%s\n' '{"id": "ex", "n": 200, "mix": "INV_X1:1", "corr": "spherical:100", "tier": "exact"}' \
	  > $$D/exact.jsonl; \
	$(RGLEAK_BIN) serve --socket $$D/shed.sock --no-cache \
	  --shed-threshold 0 2>>$$D/serve.err & spid=$$!; \
	$(RGLEAK_BIN) client --socket $$D/shed.sock --ping --wait 10; \
	$(RGLEAK_BIN) client --socket $$D/shed.sock \
	  --manifest $$D/exact.jsonl > $$D/shed.out; \
	grep -q '"degraded": true' $$D/shed.out \
	  || { echo "FAIL: shed record not marked degraded"; exit 1; }; \
	$(RGLEAK_BIN) client --socket $$D/shed.sock --shutdown; wait $$spid; \
	$(RGLEAK_BIN) serve --socket $$D/cap.sock --no-cache \
	  --max-queue 0 2>>$$D/serve.err & qpid=$$!; \
	$(RGLEAK_BIN) client --socket $$D/cap.sock --ping --wait 10; \
	got=0; $(RGLEAK_BIN) client --socket $$D/cap.sock \
	  --manifest $$D/exact.jsonl >/dev/null 2>&1 || got=$$?; \
	test $$got -eq 5 \
	  || { echo "FAIL: full queue expected exit 5, got $$got"; exit 1; }; \
	kill -TERM $$qpid; wait $$qpid; \
	echo "serve smoke passed: 8 identical concurrent responses, cache hits, in-memory engine hits without a cache, shed + overload paths, clean drain"

# Perf-regression gate: fresh timing pass vs the committed baseline.
# Warnings (1.5x+ on noisy runners) pass; schema breaks, missing
# entries, slowdowns beyond the per-tier fail threshold (3x default,
# 2x on the exact tier) and allocation metrics over budget fail.
bench-gate: build
	@cp BENCH_estimators.json /tmp/rgleak_bench_baseline.json
	$(MAKE) bench-json
	dune exec tools/bench_gate.exe -- \
	  --baseline /tmp/rgleak_bench_baseline.json --current BENCH_estimators.json

# Ratchet the committed baseline: run a fresh timing pass and adopt it
# as BENCH_estimators.json only when it is a clean >= 10% improvement
# (the gate still fails on regressions).  Commit the updated baseline
# when the ratchet reports adoption.
bench-ratchet: build
	@cp BENCH_estimators.json /tmp/rgleak_bench_baseline.json
	$(MAKE) bench-json
	@cp BENCH_estimators.json /tmp/rgleak_bench_current.json
	@cp /tmp/rgleak_bench_baseline.json BENCH_estimators.json
	dune exec tools/bench_gate.exe -- \
	  --baseline BENCH_estimators.json \
	  --current /tmp/rgleak_bench_current.json --ratchet

bench:
	dune exec bench/main.exe

bench-fast:
	dune exec bench/main.exe -- --fast

timing:
	dune exec bench/main.exe -- --run timing

# Fast timing pass; writes BENCH_estimators.json in the working
# directory.  The timing run rewrites the document from scratch, so
# ext-delta (which merges its delta-swap row into the same file) must
# run second — the bench gate fails on any missing baseline entry.
bench-json:
	dune exec bench/main.exe -- --run timing --fast
	dune exec bench/main.exe -- --run ext-delta --fast

# Full-size delta benchmark: asserts the >= 50x swap-vs-full-estimate
# speedup at n = 100k gates and refreshes the delta-swap bench entry.
bench-delta:
	dune exec bench/main.exe -- --run ext-delta

microbench:
	dune exec bench/main.exe -- --run microbench

# Telemetry demos: span/counter report on stderr, Chrome trace + metrics
# JSON files in the working directory (open trace.json in ui.perfetto.dev).
trace:
	dune exec bin/rgleak.exe -- estimate -n 2000 --trace --trace-json trace.json

metrics:
	dune exec bin/rgleak.exe -- estimate -n 2000 --metrics-json metrics.json
	@cat metrics.json

# Asserts disabled instrumentation (span, histogram and fault probes)
# costs < 1% on the exact hot loop, then re-checks the written
# rgleak-overhead/3 document through the gate's reader.
overhead:
	dune exec bench/main.exe -- --run overhead --fast
	dune exec tools/bench_gate.exe -- --overhead BENCH_overhead.json

# Fleet-telemetry demo: a few runs appending to a throwaway ledger,
# then the aggregated service-level report (QPS, per-tier latency
# quantiles, cache hit rate, exit classes).
report-demo: build
	@rm -f /tmp/rgleak_report_demo.jsonl
	$(RGLEAK) estimate -n 1000 --ledger /tmp/rgleak_report_demo.jsonl
	$(RGLEAK) estimate -n 2000 --ledger /tmp/rgleak_report_demo.jsonl
	$(RGLEAK) report /tmp/rgleak_report_demo.jsonl

# Collapsed stacks for flamegraph.pl or speedscope.
flamegraph: build
	$(RGLEAK) estimate -n 2000 --trace-folded rgleak.folded
	@echo "wrote rgleak.folded; render with: flamegraph.pl rgleak.folded > flame.svg"

examples:
	@for e in quickstart early_planning late_signoff signal_probability \
	          correlation_models yield_analysis hierarchical_floorplan \
	          temperature_study sleep_vector_search full_flow; do \
	  echo "== examples/$$e"; dune exec examples/$$e.exe; echo; done

clean:
	dune clean
