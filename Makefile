# Developer entry points.  `make check` is the tier-1 gate: lint + tests.

export PYTHONPATH := src

.PHONY: test lint check chaos chaos-smoke bench-smoke bench-broker bench-obs bench-federation soak-smoke failover-smoke rbbench-smoke bench-pairs gc-census slo

test:  ## tier-1 test suite
	python -m pytest -q tests

lint:  ## ruff style gate (config in pyproject.toml); skips when ruff is absent
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks examples; \
	elif python -c "import ruff" >/dev/null 2>&1; then \
		python -m ruff check src tests benchmarks examples; \
	else \
		echo "lint: ruff not installed — skipping (pip install ruff to enable)"; \
	fi

check: lint test

chaos:  ## robustness capstone: mixed workload under a seeded fault schedule
	python -m repro chaos --seed 1 --verbose

chaos-smoke:  ## broker-crash recovery gate: completion + determinism digest
	python benchmarks/chaos_smoke.py

bench-smoke:  ## kernel perf gate vs the pinned BENCH_kernel.json baseline
	python benchmarks/bench_smoke.py

bench-broker:  ## broker control-plane gate vs the pinned BENCH_broker.json
	python benchmarks/bench_broker.py

bench-obs:  ## observability-cost gate (exact counts) vs the pinned BENCH_obs.json
	python benchmarks/bench_obs.py

soak-smoke:  ## service-mode soak gate vs the pinned BENCH_soak.json
	python benchmarks/bench_soak.py

failover-smoke:  ## warm-standby failover gate vs the pinned BENCH_failover.json
	python benchmarks/bench_failover.py

bench-federation:  ## federated control-plane gate vs the pinned BENCH_federation.json
	python benchmarks/bench_federation.py

rbbench-smoke:  ## self-test of the rbbench harness (outside tier-1 testpaths), about a minute
	python -m pytest -q benchmarks/rbbench

bench-pairs:  ## W=<workload> BASE=<rev> [N=10]: paired rbbench runs of BASE and this checkout, claim-rule verdict per metric; FACTS=1 [SEED=n]: one traced run per side, the exact facts that differ
	python benchmarks/pairs.py --workload $(W) --base $(BASE) $(if $(FACTS),--facts $(if $(SEED),--seed $(SEED)),--pairs $(or $(N),10))

gc-census:  ## [M=1024]: collector activity and the generation-0 census of the churn cell at M machines
	python benchmarks/gc_census.py --machines $(or $(M),1024)

slo:  ## churn workload under a health monitor; fails on any violated SLO
	python -m repro slo
