PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint verify smoke chaos-smoke exec-smoke cache-smoke ingest-smoke ivm-smoke ivm-test storage-smoke storage-test recovery-smoke recovery-test adaptive-smoke adaptive-test e2e-smoke perf-regress coverage bench

test:
	$(PYTHON) -m pytest -x -q

# Correctness lint (config in pyproject.toml).  Falls back to a syntax
# gate when ruff is not installed, so verify works in minimal containers.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	elif $(PYTHON) -c "import ruff" >/dev/null 2>&1; then \
		$(PYTHON) -m ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; running syntax gate (compileall)"; \
		$(PYTHON) -m compileall -q src tests benchmarks; \
	fi

smoke:
	$(PYTHON) benchmarks/bench_fig1_pipeline.py --quick

chaos-smoke:
	$(PYTHON) benchmarks/bench_chaos_availability.py --quick

# Native columnar scan vs the document-transpose scan, both through the
# one engine (writes BENCH_exec.json).
exec-smoke:
	$(PYTHON) benchmarks/bench_exec_vectorized.py --quick

cache-smoke:
	$(PYTHON) benchmarks/bench_cache.py --quick

ingest-smoke:
	$(PYTHON) benchmarks/bench_ingest.py --quick

ivm-smoke:
	$(PYTHON) benchmarks/bench_ivm.py --quick

# Native columnar page format (docs/STORAGE.md): stored-bytes reduction
# smoke (writes BENCH_storage.json).
storage-smoke:
	$(PYTHON) benchmarks/bench_ablation_storage.py --quick

# The storage-marked tests on their own (encoding round-trip properties
# and columnar-scan identity).
storage-test:
	$(PYTHON) -m pytest -m storage -q

# The ivm-marked tests on their own (the differential IVM harness and
# the continuous-query unit tier).
ivm-test:
	$(PYTHON) -m pytest -m ivm -q

# Point-in-time recovery smoke (docs/RECOVERY.md): kills a data node
# mid-ingest and asserts RPO=0 / finite RTO (writes BENCH_recovery.json).
recovery-smoke:
	$(PYTHON) benchmarks/bench_recovery.py --quick

# The recovery-marked tests on their own (replication units, restore
# fidelity properties, and the repair bugfix sweep).
recovery-test:
	$(PYTHON) -m pytest -m recovery -q

# Mid-query re-optimization (docs/ADAPTIVE.md): stale-stats gap
# closure, zero re-plans on fresh statistics, and the degraded-node
# escape (writes BENCH_adaptive.json).
adaptive-smoke:
	$(PYTHON) benchmarks/bench_adaptive.py --quick

# The adaptive-marked property tests on their own (compiled + adaptive
# execution ≡ the row oracle, including chaos penalties).
adaptive-test:
	$(PYTHON) -m pytest -m adaptive -q

# The end-to-end benchmark's own gate (benchmarks/e2e/README.md): the
# manifest/metric-name check, then one short round of every workload
# with its output checks (results go to the ignored benchmarks/e2e/out/).
e2e-smoke:
	$(PYTHON) benchmarks/e2e/run.py --check
	$(PYTHON) benchmarks/e2e/run.py --quick

# Re-runs the quick benchmarks into scratch files and fails on a >20%
# drop of any committed headline speedup (tools/perf_regress.py).
perf-regress:
	$(PYTHON) tools/perf_regress.py

# Line-coverage floor on the invalidation/IVM core (repro.cache,
# repro.query.materialized, repro.query.ivm, repro.query.continuous).
# Uses pytest-cov when installed; stdlib trace fallback otherwise.
coverage:
	$(PYTHON) tools/coverage_gate.py

# Tier-1 gate: lint, the full unit suite, an end-to-end pipeline smoke,
# a fast fault-injection/availability smoke, the columnar-scan
# speedup smoke (writes BENCH_exec.json), the cache-hierarchy speedup
# smoke (writes BENCH_cache.json), the batched-ingest speedup smoke
# (writes BENCH_ingest.json), the ivm-marked differential tests, the
# incremental-maintenance smoke (writes BENCH_ivm.json), the columnar
# stored-bytes smoke (writes BENCH_storage.json), and the
# point-in-time recovery smoke asserting
# RPO=0 under a mid-ingest crash (writes BENCH_recovery.json), the
# adaptive-marked equivalence properties, the re-optimization smoke
# (writes BENCH_adaptive.json), the end-to-end benchmark's check +
# quick round, and the perf-regression gate over the committed
# headline speedups.
verify: lint test smoke chaos-smoke exec-smoke cache-smoke ingest-smoke ivm-test ivm-smoke storage-smoke recovery-smoke adaptive-test adaptive-smoke e2e-smoke perf-regress

bench:
	$(PYTHON) -m pytest benchmarks -q
