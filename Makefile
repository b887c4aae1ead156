.PHONY: all build test check check-faults check-portfolio check-shard check-resume bench bench-smoke examples doc clean fmt

# Every generated bench snapshot — recorded smoke baselines and the
# transient *-check.json the drift gates produce — lives here, out of
# the repo root. The committed BENCH_*.json full-size runs stay at the
# top level; they are reference data, not build products.
SNAPSHOTS := bench/snapshots

all: build

$(SNAPSHOTS):
	mkdir -p $(SNAPSHOTS)

build:
	dune build @all

test:
	dune runtest --force

# What CI runs: full build, the whole test suite (property counts scale
# with FRONTIER_QCHECK_COUNT), and a parallel-layer smoke run.
check:
	dune build @all
	dune runtest --force
	dune exec bench/main.exe -- e1 par -j 2

# Fault matrix (mirrored by the CI fault-matrix job): replay the
# property suite under three deterministic fault schedules
# (FRONTIER_FAULTS seeds task exceptions, worker deaths, and simulated
# deadline/memory trips), then drive the CLI's degraded mode — a
# non-terminating chase under --timeout must print a partial result and
# exit 2 — at -j1 and -j4.
check-faults: build
	for seed in 1 7 42; do \
	  echo "== FRONTIER_FAULTS=$$seed =="; \
	  FRONTIER_FAULTS=$$seed FRONTIER_QCHECK_COUNT=25 \
	    dune exec test/test_properties.exe || exit 1; \
	done
	for j in 1 4; do \
	  echo "== degraded-mode chase, -j $$j =="; \
	  dune exec bin/frontier_cli.exe -- chase \
	    -t 'E(x,y) -> exists z. E(y,z)' -d 'E(a,b)' \
	    --depth 1000000 --max-atoms 100000000 --timeout 0.3 -j $$j; \
	  test $$? -eq 2 || exit 1; \
	done

# Sharded-scheduler gate (mirrored by the CI shard job): the pool unit
# suite (shard slicing, steal paths, dead-worker rescue, and the
# rewriting engines ignoring a pool), the differential property suite
# (kernel clients vs the naive references, the chase at -j1..-j4), a
# pool-driven smoke of the default-pool plumbing at -j1, -j4 and
# -j$(NPROC), and finally the shard experiment itself — explicit -j1 vs
# -j4 pools over the chase, the pool's one client, which exits nonzero
# if the stages differ. Correctness is enforced by that nonzero exit.
# The drift step compares the snapshot with
# bench/snapshots/bench-smoke-shard.json, which is gitignored: on a
# checkout without one (every CI run), tools/bench_drift.py seeds it
# from this run and exits 0, so the step compares only on a machine that
# already ran `make bench-smoke` or an earlier check-shard, and even
# there the smoke's chase row totals ~0.01 s, under the tool's 0.02 s
# floor, so the step passes unconditionally. The committed
# BENCH_shard.json is an older full-size run; the smoke check writes
# bench-shard-check.json instead so it never clobbers it.
NPROC := $(shell nproc 2>/dev/null || echo 2)
SHARD_DRIFT_TOL ?= 0.25
check-shard: build | $(SNAPSHOTS)
	dune exec test/test_pool.exe
	FRONTIER_QCHECK_COUNT=25 dune exec test/test_properties.exe
	for j in 1 4 $(NPROC); do \
	  echo "== pool-driven smoke, -j $$j =="; \
	  FRONTIER_BENCH_SMOKE=1 \
	    dune exec bench/main.exe -- par -j $$j || exit 1; \
	done
	FRONTIER_BENCH_SMOKE=1 \
	  FRONTIER_BENCH_JSON=$(SNAPSHOTS)/bench-shard-check.json \
	  dune exec bench/main.exe -- shard
	python3 tools/bench_drift.py $(SNAPSHOTS)/bench-smoke-shard.json \
	  $(SNAPSHOTS)/bench-shard-check.json \
	  --tolerance $(SHARD_DRIFT_TOL)

# Portfolio gate (mirrored by the CI portfolio job): the checker /
# selector / minimizer / repro unit suites, the zoo classification
# cross-check in the paper suite, then a differential fuzz smoke —
# 200 samples at each of three seeds plus a 500-sample campaign at
# seed 42, all via the multi-seed sweep tool. Any disagreement is
# delta-debugged to a .repro under _fuzz/ (CI uploads them).
check-portfolio: build
	dune exec test/test_portfolio.exe
	dune exec test/test_paper.exe
	dune exec tools/fuzz_campaign.exe -- --count 200 --dir _fuzz 1 7 42
	dune exec tools/fuzz_campaign.exe -- --count 500 --dir _fuzz 42

# Durability gate (mirrored by the CI resume job): the checkpoint unit
# and in-process resume-differential suite, then real SIGKILL
# crash/resume trials — each trial forks a child running with
# checkpointing on, kills it at a seeded saturation round, resumes
# through the supervisor in the parent, and compares against an
# uninterrupted reference (chase: bit-identical stages; rewriting
# engines: UCQ-equivalent). Chase and rewrite trials are cheap; the
# marked trials replay phi_R^5 end to end, so their count stays small.
# Passing trials clean up after themselves; failing trials leave their
# snapshot directories under _crash/ for post-mortem (CI uploads them).
check-resume: build
	dune exec test/test_checkpoint.exe
	dune exec tools/crash_harness.exe -- --dir _crash --workload chase --trials 5 1 7 42
	dune exec tools/crash_harness.exe -- --dir _crash --workload rewrite --trials 5 1 7 42
	dune exec tools/crash_harness.exe -- --dir _crash --workload marked --trials 1 1 7 42

bench:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# The shard experiment on a reduced workload: records the JSON snapshot
# (timings and the pass flag) that `make check-shard`'s drift step reads
# as its baseline.
bench-smoke: | $(SNAPSHOTS)
	FRONTIER_BENCH_SMOKE=1 \
		FRONTIER_BENCH_JSON=$(SNAPSHOTS)/bench-smoke-shard.json \
		dune exec bench/main.exe -- shard

examples:
	dune exec examples/quickstart.exe
	dune exec examples/genealogy.exe
	dune exec examples/sticky_colors.exe
	dune exec examples/chase_zoo.exe
	dune exec examples/university.exe
	dune exec examples/frontier_grid.exe

doc:
	dune build @doc

clean:
	dune clean

fmt:
	dune fmt || true
