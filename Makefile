# Convenience targets for the Accelerated Ring reproduction.

PYTHON ?= python

.PHONY: install test test-fast lint bench bench-full bench-guard perf-smoke perf-ab vs-sweep campaign-smoke churn-smoke multiring-smoke obs-smoke wire-fuzz-smoke examples figures census clean

install:
	$(PYTHON) -m pip install -e . || $(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/ -q

test-fast:
	$(PYTHON) -m pytest tests/ -q -x --ignore=tests/test_properties.py \
		--ignore=tests/test_properties_model.py \
		--ignore=tests/test_packing_properties.py

# Repo-specific static analysis (repro.analysis): determinism,
# sans-IO boundary, __slots__ completeness and wire-drift lints over
# src/repro.  Fails on any finding and writes the JSON report CI uploads
# as an artifact.  This is what CI runs.
lint:
	$(PYTHON) -m repro.cli lint src/repro \
		--json bench_results/fresh/lint_report.json

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only -q

bench-full:
	REPRO_BENCH_FULL=1 $(PYTHON) -m pytest benchmarks/ --benchmark-only -q

# Regression guard: regenerate the kernel, codec and observability
# records into a scratch directory and compare against the committed
# baselines in bench_results/; any guarded metric more than 20% below
# its baseline fails.  This is what CI runs.
bench-guard:
	rm -rf bench_results/fresh
	REPRO_BENCH_RESULTS=bench_results/fresh \
		$(PYTHON) -m pytest benchmarks/test_kernel_events_per_sec.py \
		benchmarks/test_codec_throughput.py \
		benchmarks/test_obs_overhead.py \
		benchmarks/test_multiring_scaling.py -q
	$(PYTHON) -m repro.cli churn --sweep \
		--out bench_results/fresh/churn_convergence.json
	$(PYTHON) -m repro.bench.guard --baseline bench_results \
		--fresh bench_results/fresh

# The repo's benchmark (BENCHMARK.json, perf/README.md), shortened:
# all four workloads — UDP ring saturated and paced, the 10G simulation,
# the in-process Spread cluster — through both passes with their
# correctness checks, then the benchmark's own test suite (not part of
# tier-1).  Results land in perf/out/.  This is what CI runs.
perf-smoke:
	$(PYTHON) perf/run.py --smoke
	$(PYTHON) -m pytest perf/tests -q

# Parent against change on one BENCHMARK.json workload: REF is exported
# to a temporary directory and perf/run.py runs in alternating order in
# both trees, PAIRS times at the benchmark's run length; prints each
# end-to-end metric's medians, quartiles, pairs won and the verdict
# (scripts/perf_ab.py).  2 x PAIRS runs of ~40 s: not part of CI.
W ?= udp_sat
PAIRS ?= 10
REF ?= HEAD~1
perf-ab:
	$(PYTHON) scripts/perf_ab.py --workload $(W) --pairs $(PAIRS) --ref $(REF)

# The broad net for membership safety (scripts/vs_sweep.py): the
# membership fuzzer's run_schedule over 24,000 seeded fault schedules
# (seeds 0-5999 x four ring shapes), one process per CPU; prints the
# count and every failing schedule, exits 1 on any.  About 6 min on two
# CPUs: not part of tier-1 or CI.
vs-sweep:
	$(PYTHON) scripts/vs_sweep.py

# Small seeded fault-injection campaign: crashes, partitions, token
# drops and loss swaps against accelerated and original-Ring configs;
# exits non-zero (leaving repro files beside the summary in the
# git-ignored bench_results/fresh/campaigns/) on any EVS violation.
# Then the checker self-test: one scenario whose first log is corrupted
# must exit 1 and leave a shrunk repro per window in its own directory
# (so campaigns/ holds only real failures).  This is what CI runs.
SELFTEST_DIR = bench_results/fresh/campaign-selftest
campaign-smoke:
	$(PYTHON) -m repro.cli campaign --seed 1 --scenarios 4 --quiet
	@ls bench_results/fresh/campaigns/
	rm -rf $(SELFTEST_DIR)
	$(PYTHON) -m repro.cli campaign --seed 1 --scenarios 1 --quiet \
		--selftest-violation --out-dir $(SELFTEST_DIR); test $$? -eq 1
	test -f $(SELFTEST_DIR)/repro_seed1_s0_aw0.json
	test -f $(SELFTEST_DIR)/repro_seed1_s0_aw2.json

# Gossip-membership churn smoke: the detector unit/fuzz suites, the
# simulated churn-campaign smoke test, and one EVS-checked 50-node
# endurance scenario (sustained crash/restart churn plus a flapping
# node) via the CLI.  Exits non-zero on any EVS violation or
# convergence failure.  This is what CI runs.
churn-smoke:
	$(PYTHON) -m pytest tests/test_gossip.py tests/test_churn_campaign.py -q
	$(PYTHON) -m repro.cli churn --nodes 50 --seed 1

# Multi-ring sharding smoke: the merge/partition/checker unit and
# property suites plus the packet-level M=2 sim test, then an M={1,2}
# scaling sweep via the CLI, which runs the per-ring EVS oracles and
# the cross-ring merge checker on every point and exits non-zero on
# any ordering violation.  The scaling record lands in
# bench_results/fresh/ so CI can upload it.  This is what CI runs.
multiring-smoke:
	$(PYTHON) -m pytest tests/test_multiring_partition.py \
		tests/test_multiring_merge.py tests/test_multiring_wire.py \
		tests/test_multiring_sim.py -q
	$(PYTHON) -m repro.cli multiring --ms 1,2 \
		--out bench_results/fresh/multiring_smoke.json
	$(PYTHON) -m repro.cli report --multiring

# Observability smoke: the obs unit/property suites, then the full
# artifact loop — a seeded traced run writes the reference trace and
# metrics snapshot into a scratch directory, and both CLI renderers
# must exit 0 over them.  This is what CI runs.
obs-smoke:
	$(PYTHON) -m pytest tests/test_obs_registry.py tests/test_obs_trace.py \
		tests/test_metrics_conservation.py tests/test_metrics_golden.py \
		tests/test_net_monitors.py -q
	rm -rf bench_results/fresh/obs
	$(PYTHON) -m repro.cli obs-sample --out-dir bench_results/fresh/obs
	$(PYTHON) -m repro.cli trace-analyze \
		bench_results/fresh/obs/sim_sample.rtrace
	$(PYTHON) -m repro.cli report bench_results/fresh/obs/metrics_sample.json

# Bounded fuzz pass over the wire codec: the hypothesis property suites
# at a raised example budget, plus the live-daemon malformed-datagram
# spray.  On failure hypothesis leaves shrunk repros in .hypothesis/,
# which CI uploads as an artifact.  This is what CI runs.
wire-fuzz-smoke:
	REPRO_WIRE_EXAMPLES=200 $(PYTHON) -m pytest tests/test_wire_fuzz.py \
		tests/test_wire_roundtrip.py tests/test_wire_codec.py -q

figures:
	$(PYTHON) -m repro.cli all

# Call census (scripts/call_census.py): tier-1, the examples, CLI smokes,
# perf/run.py --smoke and the benchmarks (quick, each run once) under a
# profile hook in every interpreter, then the functions under src/repro
# none of them entered and those only tier-1 entered, with line spans.
# Every Python call pays the hook, so this takes several times tier-1's
# time: not part of CI.
census:
	$(PYTHON) scripts/call_census.py

# The seven end-user scripts; any exception fails the target, and five
# also assert their own results.  They drive the Spread-like layer
# (group_chat, replicated_kv_store), the driver over UDP (real_sockets),
# membership and the simulator.  About 10 s; they write nothing tracked.
# This is what CI runs.
examples:
	for script in examples/*.py; do \
		echo "== $$script =="; \
		$(PYTHON) $$script || exit 1; \
	done

# Removes only git-ignored scratch: the committed figures, capture
# samples and bench-guard baselines under bench_results/ stay.
clean:
	rm -rf bench_results/fresh perf/out .pytest_cache .benchmarks
	find . -name __pycache__ -type d -exec rm -rf {} +
