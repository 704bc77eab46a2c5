# Development convenience targets.
#
#   make install    editable install (falls back to setup.py develop on
#                   environments without PEP 660 support)
#   make test       full unit/property/integration suite
#   make bench      regenerate every paper table & figure
#   make bench-engine  engine dispatch/cache/dynamic-timeline gates
#   make bench-peel    vectorized vs scalar peel executor speedup gate
#   make bench-batch   batched maintenance vs per-op speedup gate
#   make bench-service  query-service closed-loop load generator
#   make bench-replication  read-scaling of 1 vs 2 replica processes
#   make bench-external  out-of-core decomposition under a capped RSS budget
#   make figures    alias for bench (outputs land in benchmarks/results/)
#   make examples   run all runnable examples
#   make artifacts  test + bench with logs captured at the repo root
#
# Every pytest/bench target exports PYTHONPATH=src so the targets work
# without an editable install (CI and fresh clones).

PYTHON ?= python3
export PYTHONPATH := src

.PHONY: install test bench bench-engine bench-peel bench-batch bench-service bench-replication bench-external figures examples artifacts clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-engine:
	$(PYTHON) -m pytest benchmarks/bench_engine_overhead.py -q

bench-peel:
	$(PYTHON) benchmarks/bench_peel.py

bench-batch:
	$(PYTHON) benchmarks/bench_batch_update.py

bench-service:
	$(PYTHON) benchmarks/bench_service.py

bench-replication:
	$(PYTHON) benchmarks/bench_replication.py

bench-external:
	$(PYTHON) benchmarks/bench_scaling.py

figures: bench

examples:
	@for script in examples/*.py; do \
		echo "=== $$script ==="; \
		$(PYTHON) $$script || exit 1; \
	done

artifacts:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
