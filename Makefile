PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test fuzz bench experiments fleet fleet-faults fleet-large fleet-stream fleet-xxl chaos report bench-full help

# Examples per `make fuzz` run (tier-1 runs a small derandomized profile).
FUZZ_EXAMPLES ?= 3000

help:
	@echo "make test        - run the tier-1 test suite"
	@echo "make fuzz        - generated differential tests: fast vs reference"
	@echo "                   fleet loop, screened vs per-position tree split"
	@echo "                   search (FUZZ_EXAMPLES random runs each, default 3000)"
	@echo "make bench       - quick perf tier: simulator fast-path benchmark"
	@echo "                   (equivalence + speedup gates), updates"
	@echo "                   BENCH_simulator.json"
	@echo "make experiments - quick perf tier: experiment-layer sweep engine,"
	@echo "                   updates BENCH_experiments.json"
	@echo "make fleet       - fleet-scheduling benchmark (policy makespans +"
	@echo "                   determinism/compression gates), updates BENCH_fleet.json"
	@echo "make fleet-large - large-trace fleet benchmark (1,000-job round-"
	@echo "                   compression speedup gate + 5,000-job smoke)"
	@echo "make fleet-faults- fault-injection benchmark (canonical fault plan:"
	@echo "                   equivalence + monotonicity gates)"
	@echo "make fleet-stream- open-loop streaming benchmark (overload/admission"
	@echo "                   gates + the 1,000,000-job compressed smoke)"
	@echo "make fleet-xxl   - thousand-machine benchmark (100k jobs / 1,000 machines:"
	@echo "                   determinism + wall-time trend gates)"
	@echo "make chaos       - resilience suite: checkpoint-overhead, kill-and-"
	@echo "                   resume and cache-rot gates, updates the"
	@echo "                   resilience section of BENCH_fleet.json"
	@echo "make report      - fleet smoke benchmark recorded into .run_store, then"
	@echo "                   regenerate the BENCH_fleet.json section from the store"
	@echo "                   and fail on drift"
	@echo "make bench-full  - every benchmark (paper tables/figures reproduction)"

test:
	$(PYTHON) -m pytest -x -q

fuzz:
	REPRO_FUZZ_EXAMPLES=$(FUZZ_EXAMPLES) $(PYTHON) -m pytest -q tests/test_fleet_fuzz.py tests/test_mlkit_split.py

bench:
	$(PYTHON) -m benchmarks

experiments:
	$(PYTHON) -m benchmarks --suite experiments

fleet:
	$(PYTHON) -m benchmarks --suite fleet

fleet-faults:
	$(PYTHON) -m benchmarks.fleet_bench --suite faults

fleet-large:
	$(PYTHON) -m benchmarks.fleet_bench --suite large
	$(PYTHON) -m benchmarks.fleet_bench --suite xl

fleet-stream:
	$(PYTHON) -m benchmarks.fleet_bench --suite stream

fleet-xxl:
	$(PYTHON) -m benchmarks.fleet_bench --suite xxl

chaos:
	$(PYTHON) -m benchmarks.fleet_bench --suite resilience

report:
	REPRO_STORE_DIR=.run_store $(PYTHON) -m benchmarks.fleet_bench --suite smoke
	REPRO_STORE_DIR=.run_store $(PYTHON) -m repro report bench fleet-smoke --check
	REPRO_STORE_DIR=.run_store $(PYTHON) -m repro report list

bench-full:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q
