PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test fuzz bench experiments fleet fleet-faults fleet-large fleet-stream fleet-xxl chaos report bench-full help

# Examples per `make fuzz` run (tier-1 runs a small derandomized profile).
FUZZ_EXAMPLES ?= 3000

help:
	@echo "make test        - run the tier-1 test suite"
	@echo "make fuzz        - generated differential tests: fast vs reference"
	@echo "                   fleet loop, streamed vs materialised arrivals,"
	@echo "                   resumed vs uninterrupted fleet run, numpy vs"
	@echo "                   Python segment sums, grouped vs per-machine"
	@echo "                   placement on states and state sequences, screened"
	@echo "                   vs per-position tree split search, memoised vs"
	@echo "                   reference Strategy-3 ranking, run-record encoding"
	@echo "                   vs the full type walk, incremental vs reference"
	@echo "                   step simulator (FUZZ_EXAMPLES random runs each,"
	@echo "                   default 3000)"
	@echo "make bench       - quick perf tier: simulator fast-path benchmark"
	@echo "                   (equivalence + speedup gates)"
	@echo "make experiments - quick perf tier: experiment-layer sweep engine"
	@echo "                   (identical reports + warm speedup gates)"
	@echo "make fleet       - fleet-scheduling benchmark (policy makespans +"
	@echo "                   determinism/compression/warm-time gates)"
	@echo "make fleet-large - large-trace fleet benchmark (1,000-job round-"
	@echo "                   compression speedup gate)"
	@echo "make fleet-faults- fault-injection benchmark (canonical fault plan:"
	@echo "                   equivalence + monotonicity gates)"
	@echo "make fleet-stream- open-loop streaming benchmark (overload/admission"
	@echo "                   gates + the 1,000,000-job compressed smoke)"
	@echo "make fleet-xxl   - thousand-machine benchmark (100k jobs / 1,000 machines:"
	@echo "                   determinism + cold wall-time gates)"
	@echo "make chaos       - resilience suite: checkpoint-overhead, kill-and-"
	@echo "                   resume and cache-rot gates"
	@echo "make report      - fleet smoke benchmark recorded into .run_store (fails"
	@echo "                   unless every stored run replays to its live digest),"
	@echo "                   then verify and list the store"
	@echo "make bench-full  - every benchmark (paper tables/figures reproduction)"

test:
	$(PYTHON) -m pytest -x -q

fuzz:
	REPRO_FUZZ_EXAMPLES=$(FUZZ_EXAMPLES) $(PYTHON) -m pytest -q tests/test_fleet_fuzz.py tests/test_fleet_accumulate.py tests/test_fleet_placement.py tests/test_mlkit_split.py tests/test_hill_climbing_predict.py tests/test_store_jsonify.py tests/test_execsim_fastpath.py

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

fleet-stream:
	$(PYTHON) -m benchmarks.fleet_bench --suite stream

fleet-xxl:
	$(PYTHON) -m benchmarks.fleet_bench --suite xxl

chaos:
	$(PYTHON) -m benchmarks.fleet_bench --suite resilience

report:
	REPRO_STORE_DIR=.run_store $(PYTHON) -m benchmarks.fleet_bench --suite smoke
	REPRO_STORE_DIR=.run_store $(PYTHON) -m repro report verify
	REPRO_STORE_DIR=.run_store $(PYTHON) -m repro report list

bench-full:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q
