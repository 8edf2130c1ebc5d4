GO ?= go

.PHONY: build test race vet bench-smoke serve-smoke replica-smoke evolve-smoke stream-smoke

build:
	$(GO) build ./...

test:
	$(GO) test ./...

race:
	$(GO) test -race -short ./internal/... .

vet:
	$(GO) vet ./...

# serve-smoke drives the real moed binary end to end: JSON + NDJSON
# decisions, chaos-tenant quarantine with a healthy bystander, metrics
# exposition, SIGTERM graceful drain (exit 0 inside the window), and a
# restart that resumes tenant decision counters from the drained
# checkpoints.
serve-smoke:
	bash scripts/serve_smoke.sh

# replica-smoke runs the two-process hot-standby failover against the real
# moed binary: primary replicating to a standby, identified client traffic,
# SIGKILL of the primary, `moed -promote`, exact recovered counters, a
# deduplicated retry, and fencing of the restarted stale primary.
replica-smoke:
	bash scripts/replica_smoke.sh

# stream-smoke drives the wire streaming transport across two real moed
# processes: 10k decisions over 8 pipelined sessions with checkpoint-sync
# and journal group commit on, a SIGTERM that must drain clean (exit 0),
# and a restart that must resume every tenant's decision counter exactly.
stream-smoke:
	bash scripts/stream_smoke.sh

# evolve-smoke exercises the full expert lifecycle (birth, probation,
# admission, retirement, replay determinism, frozen-pool byte-identity)
# plus the drifting-machine study itself (TestEvolveStudyLivingBeatsFrozen),
# which fails unless the living pool beats the frozen pool on hmean speedup
# after drift.
evolve-smoke:
	$(GO) test ./internal/core/ -run 'TestEvolution|TestGoldenTrace|TestHealthiest|TestRestore' -count=1
	$(GO) test . -run 'TestRuntimeRestartEvolvingPool|TestRuntimeResumePoolMismatchTyped' -count=1
	$(GO) test ./internal/experiments/ -run TestEvolveStudyLivingBeatsFrozen -count=1

# bench-smoke is the CI guard: cheap fixed-iteration runs of the sim
# stepping-loop, batch decision, single-shot decision (the same dispatcher
# as a batch, so mostly the fast path; with a telemetry sink every decision
# walks the full ladder), wire codec, streaming-session (the whole
# serving pipeline, frame in to answer out) and least-squares accumulator
# (a full history ring streamed and solved, as every expert birth does)
# microbenchmarks that fail if any steady-state loop ever allocates again. Timing is not asserted (CI
# machines are too noisy); the allocs/op == 0 invariant is. BenchmarkTrainSetup
# (offline training end to end: Train, BuildExperts and FitGatingPrior, seed 7,
# one worker, event stepping) is reported in bench-train.txt; it allocates by
# design, so it stays out of the allocation guard.
bench-smoke:
	$(GO) test ./internal/sim -run=NONE -bench 'StepLoop' -benchmem -benchtime=100x -count=2 | tee bench-smoke.txt
	$(GO) test . -run=NONE -bench 'DecideBatchSteady|^BenchmarkDecide$$|DecideInstrumented' -benchmem -benchtime=100x -count=2 | tee -a bench-smoke.txt
	$(GO) test ./internal/wire -run=NONE -bench 'WireRoundTrip' -benchmem -benchtime=100x -count=2 | tee -a bench-smoke.txt
	$(GO) test ./internal/serve -run=NONE -bench 'StreamSession' -benchmem -benchtime=100x -count=2 | tee -a bench-smoke.txt
	$(GO) test ./internal/regress -run=NONE -bench 'AccumulatorStream' -benchmem -benchtime=100x -count=2 | tee -a bench-smoke.txt
	@if grep -E '[1-9][0-9]* allocs/op' bench-smoke.txt; then \
		echo 'bench-smoke: a steady-state hot loop allocates'; exit 1; \
	fi
	@grep -c ' 0 allocs/op' bench-smoke.txt > /dev/null
	$(GO) test . -run=NONE -bench 'TrainSetup' -benchmem -benchtime=5x -count=2 | tee bench-train.txt
