.PHONY: all build test check check-faults check-kernel check-portfolio check-shard check-arena check-eval check-resume bench bench-smoke examples doc clean fmt

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

# Saturation-kernel gate: the kernel unit tests, then the differential
# property suite (kernel-based chase/rewriting vs the naive references,
# -j1..-j4, fault seeds).
check-kernel: build
	dune exec test/test_guard.exe
	FRONTIER_QCHECK_COUNT=50 dune exec test/test_properties.exe

# Sharded-scheduler gate (mirrored by the CI shard job): the pool unit
# suite (shard slicing, steal paths, dead-worker rescue, the [exists]
# early exit), the differential property suite (kernel clients vs the
# naive references at -j1..-j4), a pool-driven smoke of the default-pool
# plumbing at -j1, -j4 and -j$(NPROC), and finally the shard experiment
# itself — explicit -j1 vs -j4 pools over every saturation client, which
# exits nonzero if any workload misses its cross-scheduling contract.
# Its snapshot is gated against the recorded baseline by the drift
# checker (at a loose tolerance: the shard smoke totals ~0.2s, so
# scheduler noise swamps the kernel gate's 5% — correctness is enforced
# by the experiment's own nonzero exit, drift is a coarse tripwire).
# The committed BENCH_shard.json is the full-size run; the smoke check
# writes bench-shard-check.json instead so it never clobbers it.
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

# Flat-arena gate: the arena unit suite (interning, span decoding,
# posting intersections), then the differential properties (the
# register machine and the chase against the naive references).
check-arena: build
	dune exec test/test_arena.exe
	FRONTIER_QCHECK_COUNT=25 dune exec test/test_properties.exe

# Plan-layer gate: the eval unit suite (plan compilation, answers
# against the Cq reference, the fallback plan, guard salvage, the
# containment probe), the eval differential properties (leapfrog =
# naive enumerator = Cq.answers on random and seeded instances;
# rewrite-then-evaluate = chase-then-query across the zoo at -j1/-j4),
# then a CLI smoke of `frontier answer` on a generated grid.
check-eval: build
	dune exec test/test_eval.exe
	FRONTIER_QCHECK_COUNT=25 dune exec test/test_properties.exe -- test eval
	dune exec bin/frontier_cli.exe -- answer \
	  -t 'E(x,y) -> exists z. E(y,z)' -q '(x,y) :- E(x,z), E(z,y)' \
	  --gen grid --gen-size 60 --compare --stats

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

# The shard experiment on reduced workloads: records the JSON snapshot
# (counters + timings) that `make check-shard` gates against.
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
