# Convenience targets for the DX100 reproduction.

PYTHON ?= python
JOBS ?=
# `python -m repro` targets need the package importable without an install.
RUN_REPRO = PYTHONPATH=src $(PYTHON) -m repro
SWEEP_JOBS = $(if $(JOBS),--jobs $(JOBS),)

.PHONY: install test audit sweep sweep-quick \
        golden-check golden-update memtech remote-smoke timeline \
        trace-smoke bench bench-quick figures examples clean

install:
	pip install -e . || $(PYTHON) setup.py develop

test:
	PYTHONPATH=src $(PYTHON) -m pytest tests/
	$(RUN_REPRO) run IS PR --quick --audit

# Replay the quick benchmark suite under every configuration with the
# JEDEC command-stream auditor attached; fails on any timing violation.
audit:
	$(RUN_REPRO) run --all --quick --audit --configs baseline dmp dx100

# Parallel, content-addressed-cached benchmark x configuration grid
# (run record in results/sweep.json).  JOBS=N to pin workers.
GRID = run --all --configs baseline dmp dx100 --json results/sweep.json
sweep:
	$(RUN_REPRO) $(GRID) $(SWEEP_JOBS)

sweep-quick:
	$(RUN_REPRO) $(GRID) --quick $(SWEEP_JOBS)

# Golden harness: re-run every pinned suite (quick, memtech, tenancy)
# and diff it bitwise against tests/golden/, or rewrite the files after an
# intentional model change.  JOBS=N sizes the quick suite's worker pool.
GOLDEN_JOBS = $(if $(JOBS),REPRO_JOBS=$(JOBS),)
golden-check:
	$(GOLDEN_JOBS) $(RUN_REPRO) golden check

golden-update:
	$(GOLDEN_JOBS) $(RUN_REPRO) golden update

# Regenerate the memory-technology comparison table + latency sweep
# (results/memory_technology.{txt,json}): local DDR4/DDR5 vs the modeled
# CXL far-memory link, with the monotone speedup-vs-latency assertions.
memtech:
	PYTHONPATH=src $(PYTHON) -m pytest \
		benchmarks/test_memory_technology.py --benchmark-only

# The CI far-memory smoke: a tiny cxl run end to end through the CLI
# (`make golden-check` replays the memory-technology grid).
remote-smoke:
	$(RUN_REPRO) run IS --quick --dram cxl --configs baseline dx100

# Observability: ASCII timeline of one run (TIMELINE_ARGS to customize,
# e.g. TIMELINE_ARGS="PR --mode baseline --sample-every 500").
TIMELINE_ARGS ?= IS --quick
timeline:
	$(RUN_REPRO) timeline $(TIMELINE_ARGS)

# The CI trace smoke check: record Chrome traces for two quick benchmarks
# under two configurations; `timeline --trace` fails unless each file is
# Perfetto-loadable.
trace-smoke:
	for b in IS PR; do for m in baseline dx100; do \
		$(RUN_REPRO) timeline $$b --quick --mode $$m \
			--trace results/trace-$$b-$$m.json > /dev/null || exit 1; \
	done; done

# Figure benches consume the same sweep executor via benchmarks/mainsweep.py,
# so they inherit the worker pool and the run cache (REPRO_JOBS,
# REPRO_NO_CACHE, REPRO_CACHE_DIR); they alone write BENCH_mainsweep.json.
bench:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-quick:
	REPRO_QUICK=1 PYTHONPATH=src $(PYTHON) -m pytest benchmarks/ --benchmark-only

figures: bench
	@echo "figure tables written to results/"

examples:
	$(PYTHON) examples/quickstart.py
	$(PYTHON) examples/graph_analytics.py
	$(PYTHON) examples/database_join.py
	$(PYTHON) examples/compiler_demo.py
	$(PYTHON) examples/mesh_gradient.py

clean:
	rm -rf results .pytest_cache .benchmarks BENCH_mainsweep.json
	find . -name __pycache__ -type d -exec rm -rf {} +
