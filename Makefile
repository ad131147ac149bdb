# Convenience targets for the DSN 2021 reproduction.

PYTHON ?= python

.PHONY: install test bench bench-swfi bench-rtl bench-artifacts \
	bench-adaptive bench-faultmodels bench-trajectory db examples clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-swfi:
	$(PYTHON) -m pytest benchmarks/bench_swfi_parallel.py \
		--benchmark-only -q

bench-rtl:
	$(PYTHON) -m pytest benchmarks/bench_rtl_parallel.py \
		--benchmark-only -q

bench-artifacts:
	$(PYTHON) -m pytest benchmarks/bench_artifacts.py \
		--benchmark-only -q

bench-adaptive:
	$(PYTHON) -m pytest benchmarks/bench_adaptive.py \
		--benchmark-only -q

bench-faultmodels:
	$(PYTHON) -m pytest benchmarks/bench_fault_models.py \
		--benchmark-only -q

# perfbench on all four workloads, appended to BENCH_trajectory.jsonl
bench-trajectory:
	$(PYTHON) benchmarks/trajectory.py

db:
	$(PYTHON) -m repro build-db

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/rtl_campaign.py --faults 300
	$(PYTHON) examples/hpc_pvf.py --injections 200
	$(PYTHON) examples/cnn_reliability.py --injections 60
	$(PYTHON) examples/custom_kernel_asm.py

clean:
	rm -rf .pytest_cache .hypothesis .benchmarks benchmarks/output
	find . -name __pycache__ -type d -exec rm -rf {} +
