# Developer entry points.  `make check` is the tier-1 gate: lint + tests.

export PYTHONPATH := src

.PHONY: test lint check chaos gates rbbench-smoke bench-pairs slo loc

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

gates:  ## [G=name]: every exact-fact gate (or one) against BENCH_gates.json, one verdict line each; chaos, soak, failover and federation run under the invariant oracle; `python benchmarks/gates.py NAME --update` re-pins
	python benchmarks/gates.py $(G)

rbbench-smoke:  ## self-test of the rbbench harness (outside tier-1 testpaths), about a minute
	python -m pytest -q benchmarks/rbbench

bench-pairs:  ## W=<workload> BASE=<rev> [N=10]: paired rbbench runs of BASE and this checkout, claim-rule verdict per metric; FACTS=1 [SEED=n]: one traced run per side, the exact facts that differ, exit 1 on unequal sim_digest; CENSUS=1 [SEED=n]: the host's cyclic collector, per side: on the churn cell ([M=machines], W=churn-1024), or what one repetition of any other workload leaves it, by type
	python benchmarks/pairs.py --workload $(W) --base $(BASE) $(if $(FACTS),--facts $(if $(SEED),--seed $(SEED)),$(if $(CENSUS),--census $(if $(SEED),--seed $(SEED)) $(if $(M),--machines $(M)),--pairs $(or $(N),10)))

slo:  ## churn workload under a health monitor and the invariant oracle; fails on a violation or a missed SLO
	python -m repro slo

# The subsystem-mention regexes of tests/broker/test_seams.py (which checks
# that they are these).
STANDBY_WORDS := standby|\bship|replica|promot
SHARD_WORDS := shard|federat|borrow|loan|migrating

loc:  ## *.py line counts of src/, of benchmarks/ outside rbbench/, and of benchmarks/rbbench/; src/ lines naming the standby outside replica.py and the federation outside federation.py; kB of DESIGN.md, CHANGES.md and README.md
	@echo "src                   $$(find src -name '*.py' -exec cat {} + | wc -l)"
	@echo "benchmarks - rbbench  $$(find benchmarks -path benchmarks/rbbench -prune -o -name '*.py' -exec cat {} + | wc -l)"
	@echo "benchmarks/rbbench    $$(find benchmarks/rbbench -name '*.py' -exec cat {} + | wc -l)"
	@echo "standby mentions      $$(find src -name '*.py' ! -name replica.py -exec grep -ciHE '$(STANDBY_WORDS)' {} + | awk -F: '{n += $$NF} END {print n}') lines outside broker/replica.py"
	@echo "shard mentions        $$(find src -name '*.py' ! -name federation.py -exec grep -ciHE '$(SHARD_WORDS)' {} + | awk -F: '{n += $$NF} END {print n}') lines outside broker/federation.py"
	@for doc in DESIGN.md CHANGES.md README.md; do \
		wc -c < $$doc | awk -v doc=$$doc '{printf "%-21s %.1f kB\n", doc, $$1 / 1000}'; \
	done
