//! Counter-based performance gate over `results/BENCH_report.json`.
//!
//! Collects a fresh per-strategy report at a small fixed `(n, k)` point,
//! writes it to the report path, then re-reads the file ONCE and asserts
//! every engine's complexity contract from the JSON itself, as a single
//! named gate table. Numbers 2 and 4 belonged to the retired merge-sweep
//! engine and stay unused so the other numbers keep their meaning:
//!
//! 1. `prefix` sort comparisons stay `O(n log n)` — hard ceiling
//!    `3 · n · ceil(log2 n)` (one global argsort; a per-observation sort
//!    would be `Θ(n² log n)` and blow straight through it);
//! 3. at `n ≥ 2,000` the sorted sweep spends at least 100× more sort
//!    comparisons than the prefix sweep;
//! 5. `prefix` answers every (obs, bandwidth) cell with binary-search window
//!    queries — counted once per cell, so the count is bounded by
//!    `n · k · ceil(log2 n)` (a per-neighbour scan has no business here);
//! 6. `prefix` and `prefix-par` evaluate the kernel **zero** times — every
//!    score comes from prefix-sum differencing, never a neighbour visit;
//! 7. `prefix` actually ran its window machinery (queries > 0);
//! 8. `prefix` and `prefix-par` select the same bandwidth as the sorted
//!    sweep, bit for bit (the report writes bandwidths in round-trip
//!    form);
//! 9. `gpu-windowed` device-memory peak stays `O(n)` — hard ceiling
//!    `16 · n · (deg + 2)` bytes (64n at the default quadratic kernel).
//!    The classic pipeline's two `n×n` matrices sit at `8n²` and blow
//!    through this ceiling by the hundreds at gate scale, so any regression
//!    that sneaks a dense matrix back into the windowed program fails loud;
//! 10. `gpu-windowed` simulated memory transactions stay
//!     `O(k · log n)` per observation — ceiling
//!     `n · k · (2·ceil(log2 n) + 24·(deg + 1))`: two binary searches plus a
//!     constant number of prefix-table touches per cell. A per-neighbour
//!     scan (the classic running-sum loop) is `Θ(n)` per cell and fails.
//! 11. `bagged` total work stays ≤ `B ×` one bag's bound — window queries
//!     at most `bags · bag_size · k` and **zero** kernel evals (prefix
//!     engine), with `bags`/`bag_size` read from the report itself. The
//!     ceiling has no `n` term at fixed `(B, r)`: a bagged run that
//!     quietly sweeps the full sample per bag fails by orders of
//!     magnitude;
//! 12. `bagged` measured host-heap peak stays ≤ `workers ×` one bag's
//!     documented footprint bound (`kcv_core::select::bagged::
//!     bag_footprint_bound_bytes`) — each rayon worker holds at most one
//!     bag's subsample and tables at a time, so keeping every bag's data
//!     alive at once (or materialising anything `O(n)` per bag) fails.
//! 13. the report's schema version is exactly [`REPORT_VERSION`] — the
//!     multivariate gates below read the v5 `multi` object, so a stale
//!     writer must fail here, not half-pass on missing fields;
//! 14. `multi-fast` evaluates the kernel **zero** times while its
//!     dimension sweeps actually ran (`dim_sweeps > 0`) — every product
//!     weight comes from prefix-moment differencing over the per-dimension
//!     Fenwick/prefix tables, never a neighbour visit;
//! 15. `multi-fast` window queries stay within
//!     `grid_points · n · d · ceil(log2 n)` — the d-per-cell binary-search
//!     budget; a per-neighbour product scan is `Θ(n)` per cell and fails;
//! 16. at `n ≥ 2,000` `multi-fast` beats `multi-naive` by ≥ 10× wall time
//!     while selecting the bit-identical bandwidth **vector** (the
//!     round-trip serialised `bandwidths` arrays compare equal);
//! 17. the schema-v6 top-level `streaming` object is present — the two
//!     replay gates below read it, so a writer that stops measuring the
//!     streaming engine must fail here, not pass by absence;
//! 18. the streaming replay never evaluates the kernel and does exactly
//!     the prefix sweep's work at every re-selection: `reselects` equals
//!     the cadence firings plus the forced final pass, and
//!     `window_queries == k · Σ_r |window at re-selection r|`, recomputed
//!     from the report's `arrivals`, `window` and `cadence` — one query per
//!     `(observation, bandwidth)` cell, not one more or less;
//! 19. the streaming replay beats the per-arrival recompute-from-scratch
//!     policy by ≥ 10× wall time while selecting the identical bandwidth
//!     on the final window (the round-trip serialised values compare
//!     equal, so the bits do);
//! 20. the schema-v7 top-level `serving` object is present — the two
//!     service gates below read it, so a writer that stops measuring the
//!     sharded service must fail here, not pass by absence;
//! 21. the sharded service answers every stream from the streaming
//!     engine — **zero** kernel evaluations service-wide — while its
//!     workers actually drained requests and coalesced bursts
//!     (`requests_served > 0`, `coalesced_arrivals > 0`): a service that
//!     quietly re-selects per arrival (nothing to coalesce) or recomputes
//!     profiles from scratch (kernel evals) fails;
//! 22. at `n ≥ 2,000` the sharded service beats the single-global-lock
//!     baseline by ≥ 4× wall time on the identical per-stream traffic
//!     while the round-trip serialised per-stream `final_bandwidths`
//!     arrays compare equal, i.e. bit-identical — the conflated
//!     re-selections must cost throughput nothing in selection quality.
//!
//! Exits non-zero if any gate fails, printing each gate's verdict and then
//! naming the failures, so `make verify` and CI fail if a regression
//! reintroduces per-observation sorting or per-neighbour scanning. Requires
//! a `--features metrics` build (the gate refuses to pass on a report with
//! counters disabled).
//!
//! Usage: `cargo run -p kcv-bench --features metrics --bin perf_gate --
//! [--n N] [--k K] [--out results/BENCH_report.json]`

use kcv_bench::json::{array_field, f64_field, strategy_slice, u64_field};
use kcv_bench::report::{collect_report, ReportConfig, REPORT_VERSION};
use kcv_bench::table::{arg_parse, arg_value};
use kcv_core::select::bagged::bag_footprint_bound_bytes;
use std::path::Path;
use std::process::ExitCode;

/// One gate's verdict: `ok == None` means skipped (with the reason in
/// `detail`), otherwise pass/fail plus the numbers behind it.
struct Gate {
    name: &'static str,
    ok: Option<bool>,
    detail: String,
}

impl Gate {
    fn pass_if(name: &'static str, ok: bool, detail: String) -> Gate {
        Gate { name, ok: Some(ok), detail }
    }

    fn skip(name: &'static str, detail: String) -> Gate {
        Gate { name, ok: None, detail }
    }
}

/// Evaluates every gate against a report JSON string measured at `(n, k)`.
/// Pure over its inputs so the table is unit-testable without a metrics
/// build or a filesystem.
fn evaluate_gates(json: &str, n: usize, k: usize) -> Vec<Gate> {
    let mut gates = Vec::new();
    if !json.contains("\"metrics_enabled\":true") {
        gates.push(Gate::pass_if(
            "metrics enabled in report",
            false,
            "counters disabled; run with `cargo run -p kcv-bench --features metrics \
             --bin perf_gate`"
                .into(),
        ));
        return gates;
    }

    let (sorted, prefix, prefix_par, windowed, bagged, multi_naive, multi_fast) =
        match (
            strategy_slice(json, "sorted"),
            strategy_slice(json, "prefix"),
            strategy_slice(json, "prefix-par"),
            strategy_slice(json, "gpu-windowed"),
            strategy_slice(json, "bagged"),
            strategy_slice(json, "multi-naive"),
            strategy_slice(json, "multi-fast"),
        ) {
            (Some(s), Some(p), Some(pp), Some(w), Some(b), Some(mn), Some(mf)) => {
                (s, p, pp, w, b, mn, mf)
            }
            _ => {
                gates.push(Gate::pass_if(
                    "report lists sorted/prefix/prefix-par/gpu-windowed/bagged/\
                     multi-naive/multi-fast strategies",
                    false,
                    "at least one strategy entry is missing from the report".into(),
                ));
                return gates;
            }
        };
    gates.push(Gate::pass_if(
        "report schema version matches the gate's",
        u64_field(json, "version") == Some(u64::from(REPORT_VERSION)),
        format!("{:?} == Some({REPORT_VERSION})", u64_field(json, "version")),
    ));
    let field = |slice: &str, key: &str| u64_field(slice, key).unwrap_or(0);
    let log2n = (n as f64).log2().ceil() as u64;

    // --- one global argsort --------------------------------------------
    let cmp_ceiling = 3 * n as u64 * log2n;
    let prefix_cmps = field(prefix, "sort_comparisons");
    gates.push(Gate::pass_if(
        "prefix sort comparisons stay O(n log n)",
        prefix_cmps <= cmp_ceiling,
        format!("{prefix_cmps} <= {cmp_ceiling}"),
    ));

    let sorted_cmps = field(sorted, "sort_comparisons");
    if n >= 2_000 {
        gates.push(Gate::pass_if(
            "sorted sweep sorts >= 100x more than prefix",
            sorted_cmps >= 100 * prefix_cmps.max(1),
            format!("{sorted_cmps} >= 100 * {prefix_cmps}"),
        ));
    } else {
        gates.push(Gate::skip(
            "sorted sweep sorts >= 100x more than prefix",
            format!("ratio asserted only at n >= 2,000 (n = {n})"),
        ));
    }

    // --- prefix-moment contract ----------------------------------------
    let query_ceiling = (n * k) as u64 * log2n;
    let prefix_queries = field(prefix, "window_queries");
    gates.push(Gate::pass_if(
        "prefix window queries stay within n*k*ceil(log2 n)",
        prefix_queries <= query_ceiling,
        format!("{prefix_queries} <= {query_ceiling}"),
    ));

    let (pe, ppe) = (field(prefix, "kernel_evals"), field(prefix_par, "kernel_evals"));
    gates.push(Gate::pass_if(
        "prefix sweeps never evaluate the kernel",
        pe == 0 && ppe == 0,
        format!("prefix {pe} == 0, prefix-par {ppe} == 0"),
    ));

    gates.push(Gate::pass_if(
        "prefix window machinery actually ran",
        prefix_queries > 0,
        format!("{prefix_queries} > 0"),
    ));

    // Round-trip serialised, so the parsed values carry every bit.
    let bits = |slice: &str| f64_field(slice, "bandwidth").map(f64::to_bits);
    let sb = bits(sorted);
    gates.push(Gate::pass_if(
        "prefix strategies select the sorted sweep's bandwidth",
        sb.is_some() && bits(prefix) == sb && bits(prefix_par) == sb,
        format!(
            "prefix {:?}, prefix-par {:?} == sorted {:?}",
            f64_field(prefix, "bandwidth"),
            f64_field(prefix_par, "bandwidth"),
            f64_field(sorted, "bandwidth")
        ),
    ));

    // --- windowed GPU memory contract (this PR) ------------------------
    // The default config runs the quadratic Epanechnikov kernel, so
    // deg = 2: peak ceiling 16·n·(deg+2) = 64n bytes, and the per-cell
    // traffic budget is 2·ceil(log2 n) probe reads + 24·(deg+1) table /
    // assembly transactions. Both ceilings deliberately carry NO n² term:
    // the classic pipeline's 8n² residual matrices cannot hide under them.
    let deg = 2u64;
    let peak_ceiling = 16 * n as u64 * (deg + 2);
    let windowed_peak = field(windowed, "device_bytes_peak");
    gates.push(Gate::pass_if(
        "windowed peak device bytes stay O(n), no n^2 term",
        windowed_peak > 0 && windowed_peak <= peak_ceiling,
        format!("0 < {windowed_peak} <= 16*n*(deg+2) = {peak_ceiling}"),
    ));

    let txn_ceiling = (n * k) as u64 * (2 * log2n + 24 * (deg + 1));
    let windowed_txns = field(windowed, "mem_transactions");
    gates.push(Gate::pass_if(
        "windowed mem transactions stay O(k log n) per observation",
        windowed_txns > 0 && windowed_txns <= txn_ceiling,
        format!("0 < {windowed_txns} <= n*k*(2*ceil(log2 n) + 24*(deg+1)) = {txn_ceiling}"),
    ));

    // --- bagged contracts (this PR) ------------------------------------
    // Both ceilings are functions of (bags, bag_size, k, workers) read
    // from the report itself — deliberately independent of n, which is
    // the bagged selector's entire value proposition.
    let bags = field(bagged, "bags");
    let bag_size = field(bagged, "bag_size");
    let work_ceiling = bags * bag_size * k as u64;
    let bagged_queries = field(bagged, "window_queries");
    let bagged_evals = field(bagged, "kernel_evals");
    gates.push(Gate::pass_if(
        "bagged work stays within B x one bag's bound, no n term",
        bags > 0
            && bag_size > 0
            && bagged_evals == 0
            && bagged_queries > 0
            && bagged_queries <= work_ceiling,
        format!(
            "0 < {bagged_queries} <= B*r*k = {work_ceiling}, kernel_evals {bagged_evals} == 0"
        ),
    ));

    let workers = field(bagged, "workers");
    let bagged_peak = field(bagged, "host_bytes_peak");
    let mem_ceiling = workers * bag_footprint_bound_bytes(bag_size as usize, k);
    gates.push(Gate::pass_if(
        "bagged peak memory stays within workers x one bag's footprint",
        workers > 0 && bagged_peak > 0 && bagged_peak <= mem_ceiling,
        format!("0 < {bagged_peak} <= workers({workers}) * bag_bound = {mem_ceiling}"),
    ));

    // --- multivariate fast-sum-updating contracts (this PR) -------------
    // The d = 2 full-grid selector: every product weight must come from
    // the dimension-recursive prefix-moment tables, never a kernel call.
    let mf_evals = field(multi_fast, "kernel_evals");
    let mf_sweeps = field(multi_fast, "dim_sweeps");
    gates.push(Gate::pass_if(
        "multi-fast never evaluates the kernel",
        mf_evals == 0 && mf_sweeps > 0,
        format!("kernel_evals {mf_evals} == 0, dim_sweeps {mf_sweeps} > 0"),
    ));

    let dims = field(multi_fast, "dims");
    let grid_points = field(multi_fast, "grid_points");
    let mf_queries = field(multi_fast, "window_queries");
    let mf_ceiling = grid_points * n as u64 * dims * log2n;
    gates.push(Gate::pass_if(
        "multi-fast window queries stay within g*n*d*ceil(log2 n)",
        dims > 0 && grid_points > 0 && mf_queries > 0 && mf_queries <= mf_ceiling,
        format!(
            "0 < {mf_queries} <= g({grid_points})*n*d({dims})*ceil(log2 n) = {mf_ceiling}"
        ),
    ));

    let nv_bw = array_field(multi_naive, "bandwidths");
    let mf_bw = array_field(multi_fast, "bandwidths");
    if n >= 2_000 {
        let ratio = match (
            f64_field(multi_naive, "wall_seconds"),
            f64_field(multi_fast, "wall_seconds"),
        ) {
            (Some(nw), Some(fw)) if fw > 0.0 => nw / fw,
            _ => 0.0,
        };
        gates.push(Gate::pass_if(
            "multi-fast beats multi-naive >= 10x on the identical optimum",
            ratio >= 10.0 && nv_bw.is_some() && nv_bw == mf_bw,
            format!("wall ratio {ratio:.1} >= 10, bandwidths {nv_bw:?} == {mf_bw:?}"),
        ));
    } else {
        gates.push(Gate::skip(
            "multi-fast beats multi-naive >= 10x on the identical optimum",
            format!("ratio asserted only at n >= 2,000 (n = {n})"),
        ));
    }

    // --- streaming-engine contracts --------------------------------------
    // The replay measurements live in the schema-v6 top-level `streaming`
    // object. Since v7 it is no longer the report's final entry — the
    // `serving` object follows it and shares field names (`window`,
    // `cadence`, `reselects`, `kernel_evals`, `wall_seconds`), so the
    // slice must stop at the `serving` key, not the end of the document.
    let streaming = match json.find("\"streaming\":{") {
        Some(i) => {
            let end = json[i..].find("\"serving\":").map_or(json.len(), |j| i + j);
            &json[i..end]
        }
        None => {
            gates.push(Gate::pass_if(
                "report carries the schema-v6 streaming object",
                false,
                "no streaming object in the report".into(),
            ));
            return gates;
        }
    };
    gates.push(Gate::pass_if(
        "report carries the schema-v6 streaming object",
        true,
        "streaming replay measured".into(),
    ));

    let st = |key: &str| u64_field(streaming, key).unwrap_or(0);
    let st_evals = st("kernel_evals");
    let reselects = st("reselects");
    let queries = st("window_queries");
    let (want_reselects, window_sum) =
        replay_reselections(st("arrivals"), st("window"), st("cadence"));
    let want_queries = k as u64 * window_sum;
    gates.push(Gate::pass_if(
        "streaming replay: zero kernel evals, exactly k*sum(window) queries",
        st_evals == 0
            && want_queries > 0
            && reselects == want_reselects
            && queries == want_queries,
        format!(
            "kernel_evals {st_evals} == 0, reselects {reselects} == {want_reselects}, \
             window_queries {queries} == k*sum_r |window_r| = {want_queries}"
        ),
    ));

    let st_wall = f64_field(streaming, "wall_seconds").unwrap_or(f64::NAN);
    let st_recompute = f64_field(streaming, "recompute_wall_seconds").unwrap_or(f64::NAN);
    let st_ratio = st_recompute / st_wall;
    let fb = f64_field(streaming, "final_bandwidth");
    let rb = f64_field(streaming, "recompute_bandwidth");
    gates.push(Gate::pass_if(
        "streaming replay beats per-arrival recompute >= 10x, identical bandwidth",
        st_ratio >= 10.0 && fb.is_some() && fb == rb,
        format!("wall ratio {st_ratio:.1} >= 10, final {fb:?} == recompute {rb:?}"),
    ));

    // --- sharded serving contracts (this PR) -----------------------------
    // The service measurements live in the schema-v7 top-level `serving`
    // object, the report's final entry.
    let serving = match json.find("\"serving\":{") {
        Some(i) => &json[i..],
        None => {
            gates.push(Gate::pass_if(
                "report carries the schema-v7 serving object",
                false,
                "no serving object in the report".into(),
            ));
            return gates;
        }
    };
    gates.push(Gate::pass_if(
        "report carries the schema-v7 serving object",
        true,
        "sharded service measured".into(),
    ));

    let sv = |key: &str| u64_field(serving, key).unwrap_or(0);
    let sv_evals = sv("kernel_evals");
    let sv_served = sv("requests_served");
    let sv_coalesced = sv("coalesced_arrivals");
    gates.push(Gate::pass_if(
        "serving: zero kernel evals service-wide, bursts coalesced",
        sv_evals == 0 && sv_served > 0 && sv_coalesced > 0,
        format!(
            "kernel_evals {sv_evals} == 0, requests_served {sv_served} > 0, \
             coalesced_arrivals {sv_coalesced} > 0"
        ),
    ));

    let sv_bw = array_field(serving, "final_bandwidths");
    let lk_bw = array_field(serving, "lock_final_bandwidths");
    if n >= 2_000 {
        let sv_ratio = match (
            f64_field(serving, "lock_wall_seconds"),
            f64_field(serving, "wall_seconds"),
        ) {
            (Some(lw), Some(sw)) if sw > 0.0 => lw / sw,
            _ => 0.0,
        };
        gates.push(Gate::pass_if(
            "sharded service beats the global lock >= 4x at identical bandwidths",
            sv_ratio >= 4.0 && sv_bw.is_some() && sv_bw == lk_bw,
            format!("wall ratio {sv_ratio:.1} >= 4, bandwidths {sv_bw:?} == {lk_bw:?}"),
        ));
    } else {
        gates.push(Gate::skip(
            "sharded service beats the global lock >= 4x at identical bandwidths",
            format!("ratio asserted only at n >= 2,000 (n = {n})"),
        ));
    }

    gates
}

/// The streaming replay's re-selections, recomputed from its settings:
/// one per cadence firing (every `cadence`-th arrival, once the window
/// holds the two observations a fit needs) plus the forced final pass.
/// Returns `(count, Σ_r |window at re-selection r|)`; a malformed report
/// (zero cadence or window) yields `(0, 0)`.
fn replay_reselections(arrivals: u64, window: u64, cadence: u64) -> (u64, u64) {
    if cadence == 0 || window < 2 || arrivals < 2 {
        return (0, 0);
    }
    let held = |t: u64| t.min(window);
    let (mut count, mut sum) = (1, held(arrivals));
    for t in (cadence..=arrivals).step_by(cadence as usize) {
        if held(t) >= 2 {
            count += 1;
            sum += held(t);
        }
    }
    (count, sum)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let n = arg_parse(&args, "--n", 2_000usize);
    let k = arg_parse(&args, "--k", 100usize);
    let out = arg_value(&args, "--out").unwrap_or_else(|| "results/BENCH_report.json".into());

    eprintln!("perf gate: collecting BENCH report at n = {n}, k = {k}…");
    let report = match collect_report(ReportConfig { n, k, seed: 42 }) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perf gate: report collection failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let path = Path::new(&out);
    if let Some(dir) = path.parent() {
        if std::fs::create_dir_all(dir).is_err() {
            eprintln!("perf gate: cannot create {}", dir.display());
            return ExitCode::FAILURE;
        }
    }
    if std::fs::write(path, report.to_json()).is_err() {
        eprintln!("perf gate: cannot write {}", path.display());
        return ExitCode::FAILURE;
    }
    // Assert from the file, not the in-memory report: the gate's contract is
    // over what downstream tooling will actually read. One read serves every
    // gate.
    let json = match std::fs::read_to_string(path) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("perf gate: cannot read back {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    };

    let gates = evaluate_gates(&json, n, k);
    let width = gates.iter().map(|g| g.name.len()).max().unwrap_or(0);
    for g in &gates {
        let verdict = match g.ok {
            Some(true) => "PASS",
            Some(false) => "FAIL",
            None => "skip",
        };
        println!("perf gate: {verdict} — {:width$} ({})", g.name, g.detail);
    }
    let failures: Vec<&Gate> = gates.iter().filter(|g| g.ok == Some(false)).collect();
    if failures.is_empty() {
        println!("perf gate: all invariants hold (n = {n}, k = {k}, report: {})", path.display());
        ExitCode::SUCCESS
    } else {
        println!("perf gate: {} invariant(s) violated:", failures.len());
        for g in &failures {
            println!("perf gate:   - {} ({})", g.name, g.detail);
        }
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "{\"version\":9,\"metrics_enabled\":true,\"strategies\":[\
        {\"name\":\"sorted\",\"bandwidth\":0.125,\"obs\":{\"counters\":{\
        \"kernel_evals\":90,\"sort_comparisons\":400000}}},\
        {\"name\":\"prefix\",\"bandwidth\":0.125,\"obs\":{\"counters\":{\
        \"kernel_evals\":0,\"sort_comparisons\":35,\"window_queries\":200000}}},\
        {\"name\":\"prefix-par\",\"bandwidth\":0.125,\"obs\":{\"counters\":{\
        \"kernel_evals\":0,\"sort_comparisons\":35,\"window_queries\":200000}}},\
        {\"name\":\"gpu-windowed\",\"bandwidth\":0.125,\
        \"device_bytes_peak\":58048,\"obs\":{\"counters\":{\
        \"window_queries\":200000,\"mem_transactions\":5600000}}},\
        {\"name\":\"bagged\",\"bandwidth\":0.12,\
        \"bagged\":{\"bags\":10,\"bag_size\":500,\"combiner\":\"mean\",\
        \"workers\":8,\"host_bytes_peak\":900000},\"obs\":{\"counters\":{\
        \"kernel_evals\":0,\"window_queries\":500000,\"bags_run\":10}}},\
        {\"name\":\"multi-naive\",\"bandwidth\":0.125,\
        \"wall_seconds\":1.500000000,\"multi\":{\"dims\":2,\"grid_points\":100,\
        \"bandwidths\":[0.125,0.25]},\"obs\":{\"counters\":{\
        \"kernel_evals\":790000000,\"window_queries\":0}}},\
        {\"name\":\"multi-fast\",\"bandwidth\":0.125,\
        \"wall_seconds\":0.050000000,\"multi\":{\"dims\":2,\"grid_points\":100,\
        \"bandwidths\":[0.125,0.25]},\"obs\":{\"counters\":{\
        \"kernel_evals\":0,\"dim_sweeps\":200,\"window_queries\":400000}}}],\
        \"streaming\":{\"arrivals\":2000,\"window\":500,\"cadence\":64,\
        \"inserts\":2000,\"removes\":1500,\"reselects\":32,\
        \"window_queries\":1429200,\"kernel_evals\":0,\
        \"final_bandwidth\":0.052341,\"recompute_bandwidth\":0.052341,\
        \"wall_seconds\":0.011000000,\"recompute_wall_seconds\":0.420000000},\
        \"serving\":{\"streams\":8,\"arrivals_per_stream\":2000,\"shards\":4,\
        \"window\":256,\"cadence\":50,\"requests_served\":16008,\
        \"coalesced_arrivals\":15200,\"queue_high_water\":812,\
        \"shed_requests\":0,\"reselects\":24,\"lock_reselects\":328,\
        \"kernel_evals\":0,\"wall_seconds\":0.081000000,\
        \"lock_wall_seconds\":0.840000000,\
        \"final_bandwidths\":[0.052,0.30000000000000004],\
        \"lock_final_bandwidths\":[0.052,0.30000000000000004]}}";

    #[test]
    fn strategy_slice_isolates_one_entry() {
        let sorted = strategy_slice(SAMPLE, "sorted").unwrap();
        assert!(sorted.contains("\"sort_comparisons\":400000"));
        assert!(!sorted.contains("\"sort_comparisons\":35"));
        let prefix = strategy_slice(SAMPLE, "prefix").unwrap();
        assert_eq!(u64_field(prefix, "sort_comparisons"), Some(35));
        assert!(strategy_slice(SAMPLE, "gpu-sim").is_none());
    }

    #[test]
    fn strategy_slice_distinguishes_prefix_from_prefix_par() {
        // The needle carries the closing quote, so "prefix" cannot match the
        // "prefix-par" entry; emission order makes the plain entry first.
        let prefix = strategy_slice(SAMPLE, "prefix").unwrap();
        assert!(prefix.contains("\"window_queries\":200000"));
        assert!(!prefix.contains("prefix-par"));
        assert!(strategy_slice(SAMPLE, "prefix-par").is_some());
    }

    #[test]
    fn field_parsers_read_numbers() {
        let sorted = strategy_slice(SAMPLE, "sorted").unwrap();
        assert_eq!(u64_field(sorted, "kernel_evals"), Some(90));
        assert_eq!(f64_field(sorted, "bandwidth"), Some(0.125));
        assert_eq!(u64_field(sorted, "missing"), None);
    }

    #[test]
    fn all_gates_pass_on_a_conforming_report() {
        // n = 2,000, k = 100: ceil(log2 2000) = 11, so the window-query
        // ceiling is 2,200,000, the comparison ceiling 66,000, the windowed
        // peak ceiling 128,000 bytes and the transaction ceiling 18,800,000.
        // Bagged (B = 10, r = 500): work ceiling 500,000 queries; memory
        // ceiling 8 × (256·500 + 64·100 + 65,536) = 1,599,488 bytes.
        // Multi-fast (g = 100, d = 2): query ceiling 100·2,000·2·11 =
        // 4,400,000; wall ratio 1.5/0.05 = 30×. Streaming (W = 500,
        // cadence 64): 31 firings over windows 64·(1..7) then 24 × 500,
        // plus the final 500 — 32 re-selections, 100·14,292 = 1,429,200
        // queries; wall ratio 0.42/0.011 = 38×. Serving: wall ratio
        // 0.84/0.081 = 10.4×, identical bandwidth arrays.
        let gates = evaluate_gates(SAMPLE, 2_000, 100);
        assert_eq!(gates.len(), 20);
        assert!(gates.iter().all(|g| g.ok == Some(true)), "{:?}", fails(&gates));
    }

    #[test]
    fn ratio_gate_skips_below_two_thousand() {
        let gates = evaluate_gates(SAMPLE, 1_000, 100);
        let ratio = gates
            .iter()
            .find(|g| g.name.contains("100x"))
            .unwrap();
        assert_eq!(ratio.ok, None);
        assert!(gates.iter().filter(|g| g.ok == Some(false)).count() == 0, "{:?}", fails(&gates));
    }

    #[test]
    fn kernel_eval_gate_catches_a_scanning_prefix() {
        let bad = SAMPLE.replace(
            "{\"name\":\"prefix\",\"bandwidth\":0.125,\"obs\":{\"counters\":{\
             \"kernel_evals\":0",
            "{\"name\":\"prefix\",\"bandwidth\":0.125,\"obs\":{\"counters\":{\
             \"kernel_evals\":7",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["prefix sweeps never evaluate the kernel"]);
    }

    #[test]
    fn window_query_gate_catches_a_per_probe_count() {
        // A count above n·k·ceil(log2 n) means queries are being charged per
        // binary-search probe (or per neighbour), not per cell.
        let bad = SAMPLE.replace("\"window_queries\":200000", "\"window_queries\":2200001");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert!(fails(&gates)
            .contains(&"prefix window queries stay within n*k*ceil(log2 n)"));
    }

    #[test]
    fn bandwidth_gate_catches_a_prefix_disagreement() {
        let bad = SAMPLE.replacen(
            "{\"name\":\"prefix\",\"bandwidth\":0.125",
            "{\"name\":\"prefix\",\"bandwidth\":0.25",
            1,
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["prefix strategies select the sorted sweep's bandwidth"]);
    }

    #[test]
    fn bandwidth_gate_catches_a_one_ulp_prefix_disagreement() {
        // One ulp above 0.125: identical at 12 decimals, different bits.
        for name in ["prefix", "prefix-par"] {
            let bad = SAMPLE.replacen(
                &format!("{{\"name\":\"{name}\",\"bandwidth\":0.125,"),
                &format!("{{\"name\":\"{name}\",\"bandwidth\":0.12500000000000003,"),
                1,
            );
            let gates = evaluate_gates(&bad, 2_000, 100);
            assert_eq!(
                fails(&gates),
                vec!["prefix strategies select the sorted sweep's bandwidth"],
                "{name}"
            );
        }
    }

    #[test]
    fn windowed_peak_gate_catches_a_dense_matrix_allocation() {
        // 8n² bytes at n = 2,000 is 32 MB — a windowed program that quietly
        // reallocated the classic n×n residual matrices lands here, five
        // hundred times over the 64n = 128,000-byte ceiling.
        let bad = SAMPLE.replace("\"device_bytes_peak\":58048", "\"device_bytes_peak\":32000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["windowed peak device bytes stay O(n), no n^2 term"]);
    }

    #[test]
    fn windowed_traffic_gate_catches_a_per_neighbour_scan() {
        // A per-neighbour running-sum loop reads Θ(n) cells per (obs, h)
        // pair: n·k·n = 4·10⁸ transactions at gate scale, far above the
        // n·k·(2·ceil(log2 n) + 72) = 18,800,000 ceiling.
        let bad = SAMPLE.replace("\"mem_transactions\":5600000", "\"mem_transactions\":400000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["windowed mem transactions stay O(k log n) per observation"]
        );
    }

    #[test]
    fn windowed_gates_refuse_zero_counts() {
        // A report produced without actually running the windowed program
        // (peak 0, no traffic) must not pass by vacuity.
        let bad = SAMPLE
            .replace("\"device_bytes_peak\":58048", "\"device_bytes_peak\":0")
            .replace("\"mem_transactions\":5600000", "\"mem_transactions\":0");
        let gates = evaluate_gates(&bad, 2_000, 100);
        let failed = fails(&gates);
        assert!(failed.contains(&"windowed peak device bytes stay O(n), no n^2 term"));
        assert!(failed.contains(&"windowed mem transactions stay O(k log n) per observation"));
    }

    #[test]
    fn bagged_work_gate_catches_a_full_sample_sweep() {
        // A bagged run that sweeps all n observations per bag does
        // B·n·k = 10·2,000·100 = 2,000,000 queries, four times the
        // B·r·k = 500,000 ceiling.
        let bad = SAMPLE.replace("\"window_queries\":500000", "\"window_queries\":2000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["bagged work stays within B x one bag's bound, no n term"]);
    }

    #[test]
    fn bagged_work_gate_catches_a_kernel_evaluating_engine() {
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"window_queries\":500000",
            "\"kernel_evals\":7,\"window_queries\":500000",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["bagged work stays within B x one bag's bound, no n term"]);
    }

    #[test]
    fn bagged_memory_gate_catches_all_bags_held_alive() {
        // Keeping all 10 bags' data live (or anything O(n)-sized) blows
        // through the 8-worker × 199,936-byte = 1,599,488 ceiling.
        let bad = SAMPLE.replace("\"host_bytes_peak\":900000", "\"host_bytes_peak\":100000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["bagged peak memory stays within workers x one bag's footprint"]
        );
    }

    #[test]
    fn bagged_gates_refuse_zero_counts() {
        // A report whose bagged entry never ran (no queries, no peak) must
        // not pass by vacuity.
        let bad = SAMPLE
            .replace("\"window_queries\":500000", "\"window_queries\":0")
            .replace("\"host_bytes_peak\":900000", "\"host_bytes_peak\":0");
        let gates = evaluate_gates(&bad, 2_000, 100);
        let failed = fails(&gates);
        assert!(failed.contains(&"bagged work stays within B x one bag's bound, no n term"));
        assert!(failed.contains(&"bagged peak memory stays within workers x one bag's footprint"));
    }

    #[test]
    fn version_gate_catches_a_stale_writer() {
        let bad = SAMPLE.replace("\"version\":9", "\"version\":8");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["report schema version matches the gate's"]);
    }

    #[test]
    fn multi_kernel_eval_gate_catches_a_product_evaluating_engine() {
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"dim_sweeps\":200",
            "\"kernel_evals\":7,\"dim_sweeps\":200",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["multi-fast never evaluates the kernel"]);
    }

    #[test]
    fn multi_window_gate_catches_a_per_neighbour_product_scan() {
        // One over the g·n·d·ceil(log2 n) = 100·2,000·2·11 = 4,400,000
        // ceiling: queries charged per neighbour, not per cell.
        let bad = SAMPLE.replace("\"window_queries\":400000", "\"window_queries\":4400001");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["multi-fast window queries stay within g*n*d*ceil(log2 n)"]
        );
    }

    #[test]
    fn multi_speedup_gate_catches_a_slow_fast_path() {
        // Ratio 1.5/1.0 = 1.5× is far under the required 10×.
        let bad =
            SAMPLE.replace("\"wall_seconds\":0.050000000", "\"wall_seconds\":1.000000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["multi-fast beats multi-naive >= 10x on the identical optimum"]
        );
    }

    #[test]
    fn multi_speedup_gate_catches_a_bandwidth_vector_mismatch() {
        // First occurrence is multi-naive's vector: any componentwise
        // drift between the serialised arrays must fail, even when the
        // scalar dimension-1 `bandwidth` fields still agree.
        let bad = SAMPLE.replacen("[0.125,0.25]", "[0.125,0.26]", 1);
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["multi-fast beats multi-naive >= 10x on the identical optimum"]
        );
    }

    #[test]
    fn multi_speedup_gate_catches_a_one_ulp_vector_component() {
        // One ulp above 0.25 in multi-naive's second component: identical
        // at 12 decimals, different bits.
        let bad = SAMPLE.replacen("[0.125,0.25]", "[0.125,0.25000000000000006]", 1);
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["multi-fast beats multi-naive >= 10x on the identical optimum"]
        );
    }

    #[test]
    fn multi_speedup_gate_skips_below_two_thousand() {
        let gates = evaluate_gates(SAMPLE, 1_000, 100);
        let gate = gates.iter().find(|g| g.name.contains(">= 10x")).unwrap();
        assert_eq!(gate.ok, None);
    }

    #[test]
    fn multi_gates_refuse_zero_counts() {
        // A report whose multi-fast entry never ran (no sweeps, no
        // queries) must not pass by vacuity.
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"dim_sweeps\":200,\"window_queries\":400000",
            "\"kernel_evals\":0,\"dim_sweeps\":0,\"window_queries\":0",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        let failed = fails(&gates);
        assert!(failed.contains(&"multi-fast never evaluates the kernel"));
        assert!(failed.contains(&"multi-fast window queries stay within g*n*d*ceil(log2 n)"));
    }

    #[test]
    fn sort_gates_catch_a_per_observation_sort_in_prefix() {
        // A prefix sweep that sorted per observation would count
        // Θ(n² log n) comparisons: far over 3·n·ceil(log2 n) = 66,000 and
        // within 100× of the sorted sweep's 400,000.
        let bad = SAMPLE.replacen("\"sort_comparisons\":35", "\"sort_comparisons\":9999999", 1);
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec![
                "prefix sort comparisons stay O(n log n)",
                "sorted sweep sorts >= 100x more than prefix"
            ]
        );
    }

    #[test]
    fn streaming_gate_catches_a_missing_object() {
        // A writer that stops measuring the replay (pre-v6 tail) must fail
        // gate 17 explicitly, not let gates 18–19 pass by absence.
        let end = SAMPLE.find(",\"streaming\":{").unwrap();
        let bad = format!("{}}}", &SAMPLE[..end]);
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["report carries the schema-v6 streaming object"]);
    }

    #[test]
    fn streaming_work_gate_catches_a_kernel_evaluating_replay() {
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"final_bandwidth\"",
            "\"kernel_evals\":7,\"final_bandwidth\"",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["streaming replay: zero kernel evals, exactly k*sum(window) queries"]
        );
    }

    #[test]
    fn streaming_work_gate_catches_an_off_by_one_query_count() {
        // The count is exact: one cell too many or too few (a skipped or
        // doubled observation somewhere in 32 re-selections) fails.
        for wrong in ["1429199", "1429201"] {
            let bad = SAMPLE.replace(
                "\"window_queries\":1429200",
                &format!("\"window_queries\":{wrong}"),
            );
            let gates = evaluate_gates(&bad, 2_000, 100);
            assert_eq!(
                fails(&gates),
                vec!["streaming replay: zero kernel evals, exactly k*sum(window) queries"],
                "{wrong}"
            );
        }
    }

    #[test]
    fn streaming_work_gate_catches_a_wrong_reselect_count() {
        let bad = SAMPLE.replace("\"reselects\":32", "\"reselects\":31");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["streaming replay: zero kernel evals, exactly k*sum(window) queries"]
        );
    }

    #[test]
    fn replay_reselections_counts_firings_and_window_sizes() {
        // Gate scale: 31 firings + the final pass; 64·(1+…+7) + 24·500 + 500.
        assert_eq!(replay_reselections(2_000, 500, 64), (32, 14_292));
        // Cadence 1 cannot fire on a lone observation.
        assert_eq!(replay_reselections(3, 10, 1), (3, 2 + 3 + 3));
        // Window never fills: only the forced final pass at n = 60.
        assert_eq!(replay_reselections(60, 60, 64), (1, 60));
        assert_eq!(replay_reselections(2_000, 500, 0), (0, 0));
    }

    #[test]
    fn streaming_speedup_gate_catches_a_slow_replay() {
        // Ratio 0.42/0.2 = 2.1× is far under the required 10×.
        let bad =
            SAMPLE.replace("\"wall_seconds\":0.011000000", "\"wall_seconds\":0.200000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["streaming replay beats per-arrival recompute >= 10x, identical bandwidth"]
        );
    }

    #[test]
    fn streaming_speedup_gate_catches_a_bandwidth_divergence() {
        // One ulp apart: invisible at 12 decimals, caught in round-trip form.
        let bad = SAMPLE.replace(
            "\"recompute_bandwidth\":0.052341",
            "\"recompute_bandwidth\":0.052341000000000006",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["streaming replay beats per-arrival recompute >= 10x, identical bandwidth"]
        );
    }

    #[test]
    fn serving_gate_catches_a_missing_object() {
        // A writer that stops measuring the sharded service (v6 tail) must
        // fail gate 20 explicitly, not let gates 21–22 pass by absence.
        let end = SAMPLE.find(",\"serving\":{").unwrap();
        let bad = format!("{}}}", &SAMPLE[..end]);
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(fails(&gates), vec!["report carries the schema-v7 serving object"]);
    }

    #[test]
    fn serving_gate_catches_a_kernel_evaluating_service() {
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"wall_seconds\":0.081000000",
            "\"kernel_evals\":7,\"wall_seconds\":0.081000000",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["serving: zero kernel evals service-wide, bursts coalesced"]
        );
    }

    #[test]
    fn serving_gate_refuses_an_uncoalesced_run() {
        // A worker that re-selects per arrival never merges a burst:
        // coalesced_arrivals == 0 must not pass by vacuity.
        let bad =
            SAMPLE.replace("\"coalesced_arrivals\":15200", "\"coalesced_arrivals\":0");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["serving: zero kernel evals service-wide, bursts coalesced"]
        );
    }

    #[test]
    fn serving_speedup_gate_catches_a_slow_service() {
        // Ratio 0.84/0.5 = 1.7× is far under the required 4×.
        let bad =
            SAMPLE.replace("\"wall_seconds\":0.081000000", "\"wall_seconds\":0.500000000");
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["sharded service beats the global lock >= 4x at identical bandwidths"]
        );
    }

    #[test]
    fn serving_speedup_gate_catches_a_bandwidth_divergence() {
        // Conflation must not change any stream's final selection: one
        // component one ulp off in the baseline's array fails the identity.
        let bad = SAMPLE.replace(
            "\"lock_final_bandwidths\":[0.052,0.30000000000000004]",
            "\"lock_final_bandwidths\":[0.052,0.3]",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        assert_eq!(
            fails(&gates),
            vec!["sharded service beats the global lock >= 4x at identical bandwidths"]
        );
    }

    #[test]
    fn serving_speedup_gate_skips_below_two_thousand() {
        let gates = evaluate_gates(SAMPLE, 1_000, 100);
        let gate = gates.iter().find(|g| g.name.contains(">= 4x")).unwrap();
        assert_eq!(gate.ok, None);
        assert_eq!(fails(&gates), Vec::<&str>::new());
    }

    #[test]
    fn streaming_slice_stops_at_the_serving_boundary() {
        // The two objects share field names; corrupting serving's
        // `kernel_evals` must trip the serving gate, never the streaming
        // one (which would prove the streaming slice leaked across).
        let bad = SAMPLE.replace(
            "\"kernel_evals\":0,\"wall_seconds\":0.081000000",
            "\"kernel_evals\":9,\"wall_seconds\":0.081000000",
        );
        let gates = evaluate_gates(&bad, 2_000, 100);
        let failed = fails(&gates);
        assert!(!failed
            .contains(&"streaming replay: zero kernel evals, exactly k*sum(window) queries"));
        assert!(failed.contains(&"serving: zero kernel evals service-wide, bursts coalesced"));
    }

    #[test]
    fn disabled_metrics_fail_the_gate() {
        let off = SAMPLE.replace("\"metrics_enabled\":true", "\"metrics_enabled\":false");
        let gates = evaluate_gates(&off, 2_000, 100);
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].ok, Some(false));
    }

    #[test]
    fn missing_strategy_entries_fail_the_gate() {
        let truncated = SAMPLE.replace("{\"name\":\"prefix-par\"", "{\"name\":\"other\"");
        let gates = evaluate_gates(&truncated, 2_000, 100);
        assert_eq!(gates.len(), 1);
        assert_eq!(gates[0].ok, Some(false));
    }

    fn fails(gates: &[Gate]) -> Vec<&'static str> {
        gates.iter().filter(|g| g.ok == Some(false)).map(|g| g.name).collect()
    }
}
