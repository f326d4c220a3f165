# Convenience targets for the DX100 reproduction.

PYTHON ?= python
JOBS ?=
# `python -m repro` targets need the package importable without an install.
RUN_REPRO = PYTHONPATH=src $(PYTHON) -m repro
SWEEP_JOBS = $(if $(JOBS),--jobs $(JOBS),)

.PHONY: install test audit sweep sweep-quick campaign campaign-smoke \
        golden-check golden-update memtech remote-smoke profile timeline \
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
# (results/sweep.json + BENCH_mainsweep.json).  JOBS=N to pin workers.
sweep:
	$(RUN_REPRO) sweep $(SWEEP_JOBS)

sweep-quick:
	$(RUN_REPRO) sweep --quick $(SWEEP_JOBS)

# Resumable multi-worker campaign from a declarative spec (state persists
# in results/.campaigns/<id>; re-run the same target to resume).  E.g.
# make campaign SPEC='benchmarks=IS,CG dram=ddr4,ddr5' WORKERS=4
SPEC ?=
WORKERS ?= 1
campaign:
	$(RUN_REPRO) campaign '$(SPEC)' --workers $(WORKERS)

# The CI fabric smoke: a tiny 2-worker campaign with one injected task
# failure — the retry must succeed and the manifest must end fully done.
campaign-smoke:
	rm -rf results/.campaigns/smoke
	REPRO_FABRIC_INJECT_FAIL="IS.quick.dx100:1" $(RUN_REPRO) campaign \
		'benchmarks=IS,CG scale=quick' --id smoke --workers 2 \
		--no-cache --no-bench
	grep -q "retried tasks that eventually succeeded: 1" \
		results/.campaigns/smoke/summary.md
	test -z "$$(find results/.campaigns/smoke/queue \
		results/.campaigns/smoke/failed -type f 2>/dev/null)"

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

# Where does the wall-clock go?  cProfile hotspots + per-component
# attribution + stage timers for one run (PROFILE_ARGS to customize, e.g.
# PROFILE_ARGS="PR --mode dx100 --json results/profile.json").
PROFILE_ARGS ?= IS --quick
profile:
	$(RUN_REPRO) profile $(PROFILE_ARGS)

# Observability: ASCII timeline of one run (TIMELINE_ARGS to customize,
# e.g. TIMELINE_ARGS="PR --mode baseline --sample-every 500").
TIMELINE_ARGS ?= IS --quick
timeline:
	$(RUN_REPRO) timeline $(TIMELINE_ARGS)

# The CI trace smoke check: record Chrome traces for two quick benchmarks
# and validate that every file is Perfetto-loadable.
trace-smoke:
	$(RUN_REPRO) run IS PR --quick --configs baseline dx100 \
		--trace results/trace.json --sample-every 1000
	PYTHONPATH=src $(PYTHON) -m repro.obs.validate results/trace-*.json

# Figure benches consume the same sweep executor via benchmarks/mainsweep.py,
# so they inherit the worker pool and the run cache (REPRO_JOBS,
# REPRO_NO_CACHE, REPRO_CACHE_DIR).
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
