# Development gates for the kernelcv workspace. Everything runs offline
# against the vendored path dependencies (see vendor/), so no registry
# access is needed.

CARGO ?= cargo
FLAGS ?= --offline

.PHONY: verify build test test-metrics doc clippy perf-gate multi-smoke bench-report scaling streaming serve clean

## The full PR gate: build, tests with metrics off AND on, docs, lints,
## the counter-based performance gate (including the streaming replay
## gates 17-19 and the sharded-serving gates 20-22), and the d = 2
## multivariate smoke.
verify: build test test-metrics doc clippy perf-gate multi-smoke
	@echo "verify: all gates green"

build:
	$(CARGO) build $(FLAGS) --workspace --release

test:
	$(CARGO) test $(FLAGS) --workspace -q

## The observability layer changes what compiles; test both feature states.
## Counters are scoped per `kcv_obs::Recorder`, so the metrics suite runs
## deliberately multi-threaded.
test-metrics:
	$(CARGO) test $(FLAGS) --workspace --features metrics -q -- --test-threads=8

doc:
	RUSTDOCFLAGS="-D warnings" $(CARGO) doc $(FLAGS) --workspace --no-deps

clippy:
	$(CARGO) clippy $(FLAGS) --workspace --all-targets -- -D warnings
	$(CARGO) clippy $(FLAGS) --workspace --all-targets --features metrics -- -D warnings

## Counter-based perf gate: asserts from one results/BENCH_report.json read
## that the prefix-moment sweep's sort comparisons stay O(n log n) (one
## global argsort, >= 100x below the sorted sweep's), that it answers every
## (obs, bandwidth) cell within the n·k·ceil(log2 n) window-query ceiling
## with zero kernel evals and selects the sorted sweep's bandwidth bit for
## bit, that the windowed GPU program holds its
## memory contract — peak device bytes ≤ 16·n·(deg+2) (no n² term) and
## simulated memory transactions ≤ n·k·(2·ceil(log2 n) + 24·(deg+1)), i.e.
## O(k·log n) per observation — and that the bagged selector holds its
## n-independence contract: work ≤ bags·bag_size·k window queries with
## zero kernel evals (no n term), measured peak host-heap bytes ≤
## workers × one bag's documented footprint bound — the multivariate
## fast-sum-updating contract: the d = 2 multi-fast strategy
## evaluates the kernel zero times, keeps its window queries within
## grid_points·n·d·ceil(log2 n), and beats the naive product-kernel full
## grid by ≥ 10× wall time at the identical bandwidth vector — and
## the streaming-engine contract: the sliding-window replay's report
## object is present, its re-selections evaluate the kernel zero times
## and spend exactly k·Σ_r |window at re-selection r| window queries
## (one per cell, recomputed from arrivals, window and cadence), and the
## replay beats per-arrival recompute-from-scratch by ≥ 10× wall time at
## the bit-identical final bandwidth — and (gates 20-22) the sharded
## serving contract: the report's serving object is present, the service
## coalesces bursts and evaluates the kernel zero times service-wide,
## and beats a global lock around one stream map by ≥ 4× wall time with
## per-stream final bandwidths bit-identical (schema v9 writes every
## bandwidth field in round-trip form, so every identity gate compares bits)
## (see crates/bench/src/bin/perf_gate.rs).
perf-gate:
	$(CARGO) run $(FLAGS) --release -p kcv-bench --features metrics \
		--bin perf_gate -- --n 2000 --k 100

## d = 2 smoke of the beyond-the-paper "Multi fast" program: the fast
## full-grid selector must reproduce the naive full-grid oracle's optimum
## end to end through the bench program surface.
multi-smoke:
	$(CARGO) run $(FLAGS) --release -p kcv-bench --bin multi_smoke

## The past-the-paper scaling study (EXPERIMENTS.md SCALE): bagged CV at
## n = 10^5..10^7 vs the full-data prefix reference, with the binary's own
## acceptance checks as the gate. Writes results/scaling.csv and a
## BENCH_report.json with the scaling rows (CI uploads both).
## Full run (full-data reference up to 10^6) takes ~30 s in release.
scaling:
	$(CARGO) run $(FLAGS) --release -p kcv-bench --bin scaling

## The streaming replay study (EXPERIMENTS.md STREAM): 10^5 paper-DGP
## arrivals through the sliding-window engine (W = 10^4) at a
## sweep of re-selection cadences, against the sampled-and-extrapolated
## per-arrival recompute baseline. The binary's own checks (>= 10x at
## every cadence >= 64, bit-identical final bandwidth) gate the run;
## writes results/streaming.csv (CI uploads it). Takes ~60 s in release.
streaming:
	$(CARGO) run $(FLAGS) --release -p kcv-bench --bin streaming

## The sharded serving study (EXPERIMENTS.md SERVE): 256 concurrent
## paper-DGP streams x 10^4 arrivals each through the 8-shard
## kcv-serve front-end vs one global lock around a stream map. The
## binary's own checks gate the run (>= 4x throughput, per-stream final
## bandwidths bit-identical to sequential replay, lossless delivery,
## zero kernel evals with bursts coalesced); writes results/serve.csv
## (CI uploads it). Takes ~45 s in release.
serve:
	$(CARGO) run $(FLAGS) --release -p kcv-bench --features metrics --bin serve

## Regenerate results/BENCH_report.json with live counters (small n).
bench-report:
	$(CARGO) run $(FLAGS) --release -p kcv-bench --features metrics \
		--bin experiments -- --max-n 500 --table2-max-n 200 --reps 1 --nmulti 1

clean:
	$(CARGO) clean
