# Developer/CI entry points. `make verify` is the gate CI runs and the
# tier-1 bar every PR must hold.

CARGO ?= cargo

.PHONY: verify fmt fmt-check clippy lint build test test-crates test-transcript study-smoke scenario-smoke timeline-smoke obs-smoke wire-smoke bench-e2e-smoke doc bench bench-study bench-timeline golden

verify: fmt-check clippy lint doc build test test-crates test-transcript study-smoke scenario-smoke timeline-smoke obs-smoke wire-smoke bench-e2e-smoke

fmt:
	$(CARGO) fmt --all

fmt-check:
	$(CARGO) fmt --all -- --check

clippy:
	$(CARGO) clippy --workspace --all-targets -- -D warnings

# Workspace determinism/robustness contracts (entropy ban, unordered
# iteration, seed-label uniqueness, panic budget). Exits nonzero on any
# unallowed finding; the machine-readable report lands in target/.
lint:
	$(CARGO) run --release -p pm-lint -- --json target/lint.json

# API docs must build warning-free: broken intra-doc links and doc
# drift (e.g. module docs describing a removed scheme) fail the gate.
doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc --no-deps --workspace

build:
	$(CARGO) build --release

# Tier-1 bar: the root package's unit + integration tests.
test:
	$(CARGO) test -q

# Member-crate unit tests (torsim streams, shard accumulators, runner,
# crypto proptests, …) — the root package run above does not cover
# these.
test-crates:
	$(CARGO) test -q --workspace --exclude tor-measure

# Transcript-equality suites rerun under varied harness --test-threads
# counts: the batched-mix and per-link-delivery contracts are about
# scheduling, so one lucky interleaving in the default run must not be
# the only evidence. (The suites also run once each in the targets
# above; these reruns pin them under serial and oversubscribed
# schedules.)
test-transcript:
	$(CARGO) test -q -p psc --test mix_equivalence -- --test-threads=1
	$(CARGO) test -q -p psc --test mix_equivalence -- --test-threads=8
	$(CARGO) test -q --test psc_end_to_end -- round_transcript per_link --test-threads=1
	$(CARGO) test -q --test psc_end_to_end -- round_transcript per_link --test-threads=4

# End-to-end smoke of the longitudinal campaign engine: the full
# 17-day calendar (daily IP rounds, the confirmation repeat, the 96h
# churn round, PrivCount traffic, PSC countries, and the two-day
# exit-domain and onion-service windows) at small scale through the
# real PSC/PrivCount pipelines, exporting both output formats. Guards
# the `campaign` binary and the study crate's wiring the way `test`
# guards the libraries.
study-smoke:
	$(CARGO) run --release -p pm-study --bin campaign -- --list
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 17 --scale 2e-4 --seed 2018 --json target/study_smoke.json --csv \
		> target/study_smoke.csv
	test -s target/study_smoke.json && test -s target/study_smoke.csv
	grep -q '"id": "domains"' target/study_smoke.json
	grep -q '"id": "onions"' target/study_smoke.json

# Adversarial scenario smoke: a small campaign under each attack of
# the scenario suite must complete (no panic), and the machine-readable
# report must carry the matching anomaly records — an abort or a
# degradation per attacked round. The full attack × round-kind matrix
# lives in tests/scenario_matrix.rs; this guards the binary's --attack
# wiring and the JSON channel end to end.
scenario-smoke:
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 7 --scale 2e-4 --seed 2018 --attack byzantine-shares \
		--json target/scenario_byz.json > /dev/null
	grep -q '"kind": "aborted"' target/scenario_byz.json
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 7 --scale 2e-4 --seed 2018 --attack skewed-shares \
		--json target/scenario_skew.json > /dev/null
	grep -q '"kind": "degraded"' target/scenario_skew.json
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 7 --scale 2e-4 --seed 2018 --attack keeper-death \
		--json target/scenario_death.json > /dev/null
	grep -q '"kind": "aborted"' target/scenario_death.json

# Observability smoke: the full 17-day calendar with the wall-clock
# profiling plane live, exporting a chrome://tracing trace. trace-check
# re-parses the file with the workspace's own validator and fails
# unless it is well-formed, spans >= 5 distinct categories, and covers
# the mixnet hot loop, the worker pool, and the timeline cursor by
# name. Guards the --trace wiring end to end; the planes-separation
# contract itself (profiling never changes a report byte) lives in
# tests/obs_planes.rs under `test`.
obs-smoke:
	$(CARGO) run --release -p pm-study --bin campaign -- \
		--days 17 --scale 2e-4 --seed 2018 -q \
		--trace target/obs_trace.json > /dev/null
	$(CARGO) run --release -p pm-obs --bin trace-check -- \
		target/obs_trace.json --min-cats 5 \
		mix.batch job.run timeline.checkpoint_restore

# Wire-fabric smoke: one PSC round whose every protocol frame crosses
# a real loopback TCP socket, pinned byte-for-byte (RawCount and
# per-link transcript digests) against the in-process board by the
# wire_round_matches_in_process test; then the experiments binary
# end-to-end over the wire backend with latency/bandwidth shaping, as
# a deployment would run it. Guards the --fabric wiring and the
# socket path the way study-smoke guards the campaign engine.
wire-smoke:
	$(CARGO) test -q --release --test psc_end_to_end wire_round
	$(CARGO) test -q --release --test fabric_parity
	$(CARGO) run --release -p torstudy --bin experiments -- \
		--scale 2e-4 --seed 2018 --only F4 --fabric wire:1,100000 -q \
		--json target/wire_smoke.json > /dev/null
	$(CARGO) run --release -p torstudy --bin experiments -- \
		--scale 2e-4 --seed 2018 --only F4 -q \
		--json target/wire_smoke_ref.json > /dev/null
	cmp target/wire_smoke.json target/wire_smoke_ref.json

# Year-scale consensus-diff smoke: sweep 365 days through the diff
# cursor, then pin 3 sampled days bit-for-bit against the from-scratch
# replay oracle. Guards the snapshot fast path the way the proptests
# guard it per-config, but at the paper-shaped network size.
timeline-smoke:
	$(CARGO) test -q --release -p torsim --test timeline_smoke

# End-to-end benchmark harness smoke: e2e-bench is its own package
# (own workspace and lock file, path dependencies on the workspace
# crates), so nothing above builds it. Its tests compile the harness
# against the current public API and run every workload tiny, so an API
# change cannot break the benchmark while the rest of the gate stays
# green.
bench-e2e-smoke:
	$(CARGO) test --offline --manifest-path e2e-bench/Cargo.toml

# Sharded-pipeline benchmarks; writes BENCH_pipeline.json at the repo root.
bench:
	$(CARGO) bench -p pm-bench --bench pipeline

# Campaign sweep (calendar days × ingestion shards, sequential vs
# parallel rounds); writes BENCH_study.json at the repo root.
bench-study:
	$(CARGO) bench -p pm-bench --bench campaign

# Snapshot-cost sweep at days {30, 90, 365} × {replay, diff}; writes
# BENCH_timeline.json at the repo root.
bench-timeline:
	$(CARGO) bench -p pm-bench --bench timeline

# Regenerate the committed golden report snapshots after an intentional
# output change: the T1/F1/T2 registry reports and the 17-day seed-19
# campaign, honest and under each attack of the scenario suite.
golden:
	UPDATE_GOLDEN=1 $(CARGO) test --release --test golden_reports \
		--test campaign_study --test scenario_matrix
