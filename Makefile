# Developer entry points for the PointAcc reproduction.
#
#   make test         - the tier-1 suite (everything under tests/ + benchmarks/)
#   make test-fast    - tests/ only, skipping the full-scale benchmark harness
#   make bench        - regenerate every paper table/figure at full scale and
#                       rewrite benchmarks/_results/ (the golden files; the
#                       only target that sets REPRO_BENCH_ARCHIVE=1)
#   make bench-smoke  - fast benchmark smoke at reduced scale (prints tables,
#                       never overwrites the goldens - see benchmarks/conftest.py)
#   make engine-bench - the engine throughput comparison from the CLI
#   make bench-cluster- cluster throughput + persistence smoke at reduced scale
#   make bench-stream - streaming throughput (warm stream vs cold per-frame)
#                       at reduced scale
#   make bench-fleet  - fleet throughput (shared fleet vs separate sessions,
#                       bit-identity; the benchmark pins its own scale)
#   make bench-workers- worker-process scaling (fleet at workers={0,2,4};
#                       skips below 4 cores; the benchmark pins its own scale)
#   make bench-compare BASE=a.json CAND=b.json
#                     - diff two bench-* --json payloads; exits 1 on a >10%
#                       throughput regression (scripts/bench_compare.py)

PYTHON      ?= python
PYTHONPATH  := src
SMOKE_SCALE ?= 0.1

export PYTHONPATH

.PHONY: test test-fast bench bench-smoke engine-bench bench-cluster bench-stream bench-fleet bench-workers bench-compare

test:
	$(PYTHON) -m pytest -x -q

test-fast:
	$(PYTHON) -m pytest tests -x -q

bench:
	REPRO_BENCH_ARCHIVE=1 $(PYTHON) -m pytest benchmarks -q

bench-smoke:
	REPRO_BENCH_SCALE=$(SMOKE_SCALE) $(PYTHON) -m pytest \
		benchmarks/test_engine_throughput.py \
		benchmarks/test_tab03_asic.py \
		benchmarks/test_abl_topk.py \
		benchmarks/test_abl_dram_timing.py \
		-q

engine-bench:
	$(PYTHON) -m repro bench-engine

bench-cluster:
	REPRO_BENCH_SCALE=$(SMOKE_SCALE) $(PYTHON) -m pytest \
		benchmarks/test_cluster_throughput.py -q

bench-stream:
	REPRO_BENCH_SCALE=$(SMOKE_SCALE) $(PYTHON) -m pytest \
		benchmarks/test_stream_throughput.py -q

bench-fleet:
	$(PYTHON) -m pytest benchmarks/test_fleet_throughput.py -q

bench-workers:
	$(PYTHON) -m pytest benchmarks/test_worker_scaling.py -q -rs

bench-compare:
	$(PYTHON) scripts/bench_compare.py $(BASE) $(CAND)
