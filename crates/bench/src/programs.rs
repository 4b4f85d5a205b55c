//! The four programs of the paper's §IV-C evaluation, behind one interface.

use kcv_core::cv::SlidingWindowSelector;
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::Epanechnikov;
use kcv_core::select::{BaggedSelector, BandwidthSelector, GridSpec};
use kcv_core::util::SplitMix64;
use kcv_gpu::{select_bandwidth_gpu, select_bandwidth_gpu_windowed, GpuConfig};
use kcv_np::{npregbw, NpRegBwOptions};
use std::time::Instant;

/// The paper's four evaluated programs, plus this reproduction's
/// beyond-the-paper variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Program {
    /// Program 1 — "Racine & Hayfield": the np-style numerical-optimisation
    /// selector, sequential.
    RacineHayfield,
    /// Program 2 — "Multicore R": the same selector with the objective
    /// evaluated across cores.
    MulticoreR,
    /// Program 3 — "Sequential C": the sorted-sweep grid search, one core.
    SequentialC,
    /// Beyond the paper — "Prefix C": the prefix-moment grid search (window
    /// queries over global moment prefix sums, no per-neighbour scan), one
    /// core.
    PrefixC,
    /// Program 4 — "CUDA on GPU": the sorted-sweep grid search on the
    /// simulated Tesla S10.
    CudaGpu,
    /// Beyond the paper — "Windowed GPU": the prefix-moment grid search on
    /// the simulated device, `O(n·(deg+2) + k)` device bytes instead of the
    /// classic program's `O(n²)` matrices.
    WindowedGpu,
    /// Beyond the paper — "Bagged": Barreiro-Ures-style subsampled bagging
    /// (`B = 25` bags of `r = min(n, 2000)`, prefix engine, mean combiner,
    /// rescaled by `(r/n)^{1/5}`), the only program whose cost does not
    /// grow with `n` once `n > r`.
    Bagged,
    /// Beyond the paper — "Multi fast": the `d = 2` full-grid selector on
    /// the dimension-recursive fast-sum-updating engine
    /// (`kcv_core::multi::fast`) over the [`multi_dataset`] bivariate
    /// sample. Zero kernel evaluations on the hot path; the naive product
    /// oracle for the same grid is the `multi-naive` BENCH-report strategy.
    /// Kept out of [`Program::all`] so the §IV-C "seven programs" framing
    /// (which is univariate) stays intact.
    MultiFast,
    /// Beyond the paper — "Streaming": the sample replayed as an arrival
    /// stream through the sliding-window engine
    /// (`kcv_core::cv::SlidingWindowSelector`): window `max(n/4, 64)`,
    /// re-selection every 64 arrivals over a `k`-point log grid, zero
    /// kernel evaluations on the hot path. The reported selection is the
    /// final window's, so on `n ≤ 4·64` samples (window = whole stream)
    /// it matches the prefix program on the same grid exactly. Kept out
    /// of [`Program::all`] for the same reason as `MultiFast`: the §IV-C
    /// framing is batch.
    Streaming,
}

impl Program {
    /// Every program, in the paper's order (with the prefix-moment sweep
    /// slotted after the sequential sorted sweep it improves on).
    pub fn all() -> [Program; 7] {
        [
            Program::RacineHayfield,
            Program::MulticoreR,
            Program::SequentialC,
            Program::PrefixC,
            Program::CudaGpu,
            Program::WindowedGpu,
            Program::Bagged,
        ]
    }

    /// The display name (the paper's, where the program is the paper's).
    pub fn label(&self) -> &'static str {
        match self {
            Program::RacineHayfield => "Racine & Hayfield",
            Program::MulticoreR => "Multicore R",
            Program::SequentialC => "Sequential C",
            Program::PrefixC => "Prefix C",
            Program::CudaGpu => "CUDA on GPU",
            Program::WindowedGpu => "Windowed GPU",
            Program::Bagged => "Bagged",
            Program::MultiFast => "Multi fast",
            Program::Streaming => "Streaming",
        }
    }
}

/// Derives the deterministic `d = 2` dataset every multivariate benchmark
/// runs on: the paper DGP's `(x, y)` joined by a SplitMix64 second
/// regressor `x2 ~ U[0, 1)` (fixed seed, independent of the sample's own
/// seed) carrying its own quadratic signal, `y2 = y + 2·x2²`. The "Multi
/// fast" program and the BENCH report's `multi-naive`/`multi-fast`
/// strategies all call this, so their measurements cover the identical
/// sample.
pub fn multi_dataset(x: &[f64], y: &[f64]) -> (Vec<Vec<f64>>, Vec<f64>) {
    let mut rng = SplitMix64::new(77);
    let x2: Vec<f64> = (0..x.len()).map(|_| rng.next_f64()).collect();
    let y2: Vec<f64> = y.iter().zip(&x2).map(|(&v, &b)| v + 2.0 * b * b).collect();
    (vec![x.to_vec(), x2], y2)
}

/// Per-dimension grid side for a `k`-point univariate budget: the largest
/// square grid of at most `k` points, floored at 2 per dimension (so even
/// tiny budgets still search a genuine 2-D lattice).
pub fn multi_grid_side(k: usize) -> usize {
    ((k as f64).sqrt().floor() as usize).max(2)
}

/// Resolves one `side`-point paper-default bandwidth grid per column.
pub fn multi_grids(columns: &[Vec<f64>], side: usize) -> Result<Vec<Vec<f64>>, String> {
    columns
        .iter()
        .map(|col| {
            BandwidthGrid::paper_default(col, side)
                .map(|g| g.values().to_vec())
                .map_err(|e| e.to_string())
        })
        .collect()
}

/// One timed run of one program.
#[derive(Debug, Clone)]
pub struct ProgramResult {
    /// The bandwidth the program selected.
    pub bandwidth: f64,
    /// The CV score it reports at that bandwidth.
    pub score: f64,
    /// Host wall-clock seconds.
    pub wall_seconds: f64,
    /// Simulated device seconds (GPU program only): what the cost model says
    /// the run takes on the 240-core Tesla — the number comparable to the
    /// paper's Table I "CUDA on GPU" column when the host has few cores.
    pub simulated_seconds: Option<f64>,
    /// Objective evaluations (numerical programs) or grid size (grid
    /// searches).
    pub evaluations: usize,
}

/// Runs `program` once on `(x, y)` with a `k`-point paper-default grid
/// (grid programs) or `nmulti` restarts (numerical programs).
pub fn run_program(
    program: Program,
    x: &[f64],
    y: &[f64],
    k: usize,
    nmulti: usize,
) -> Result<ProgramResult, String> {
    let start = Instant::now();
    match program {
        Program::RacineHayfield | Program::MulticoreR => {
            let options = NpRegBwOptions {
                nmulti,
                parallel: program == Program::MulticoreR,
                ..Default::default()
            };
            let bw = npregbw(x, y, options).map_err(|e| e.to_string())?;
            Ok(ProgramResult {
                bandwidth: bw.bw,
                score: bw.fval,
                wall_seconds: start.elapsed().as_secs_f64(),
                simulated_seconds: None,
                evaluations: bw.evaluations,
            })
        }
        Program::SequentialC | Program::PrefixC => {
            let grid = BandwidthGrid::paper_default(x, k).map_err(|e| e.to_string())?;
            let profile = if program == Program::PrefixC {
                kcv_core::cv::cv_profile_prefix(x, y, &grid, &Epanechnikov)
            } else {
                kcv_core::cv::cv_profile_sorted(x, y, &grid, &Epanechnikov)
            }
            .map_err(|e| e.to_string())?;
            let opt = profile.argmin().map_err(|e| e.to_string())?;
            Ok(ProgramResult {
                bandwidth: opt.bandwidth,
                score: opt.score,
                wall_seconds: start.elapsed().as_secs_f64(),
                simulated_seconds: None,
                evaluations: k,
            })
        }
        Program::CudaGpu => {
            let grid = BandwidthGrid::paper_default(x, k).map_err(|e| e.to_string())?;
            let run = select_bandwidth_gpu(x, y, &grid, &GpuConfig::default())
                .map_err(|e| e.to_string())?;
            Ok(ProgramResult {
                bandwidth: run.bandwidth,
                score: run.score,
                wall_seconds: start.elapsed().as_secs_f64(),
                simulated_seconds: Some(run.report.total_simulated_seconds),
                evaluations: k,
            })
        }
        Program::WindowedGpu => {
            let grid = BandwidthGrid::paper_default(x, k).map_err(|e| e.to_string())?;
            let run = select_bandwidth_gpu_windowed(x, y, &grid, &GpuConfig::default())
                .map_err(|e| e.to_string())?;
            Ok(ProgramResult {
                bandwidth: run.bandwidth,
                score: run.score,
                wall_seconds: start.elapsed().as_secs_f64(),
                simulated_seconds: Some(run.report.total_simulated_seconds),
                evaluations: k,
            })
        }
        Program::Bagged => {
            // r caps at 2,000 (the ISSUE's scaling-study setting); below
            // that the bags are the full sample and bagging degenerates to
            // B redundant prefix selections, so small-n comparisons against
            // the other programs stay meaningful.
            let bag_size = x.len().min(2_000);
            let selector =
                BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(k), 25, bag_size)
                    .with_seed(42);
            let sel = selector.select(x, y).map_err(|e| e.to_string())?;
            Ok(ProgramResult {
                bandwidth: sel.bandwidth,
                score: sel.score,
                wall_seconds: start.elapsed().as_secs_f64(),
                simulated_seconds: None,
                evaluations: sel.evaluations,
            })
        }
        Program::Streaming => {
            let n = x.len();
            let window = (n / 4).max(64).min(n);
            let (lo, hi) = x
                .iter()
                .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
            let domain = hi - lo;
            // Log-spaced grid, matching the scaling study's full-data runs:
            // a linear paper-default grid would clamp the optimum at its
            // `domain/k` floor once the window grows large.
            let grid = BandwidthGrid::log(domain * 1e-3, domain * 0.3, k)
                .map_err(|e| e.to_string())?;
            let mut sel = SlidingWindowSelector::new(Epanechnikov, grid, window, 64)
                .map_err(|e| e.to_string())?;
            for (&xi, &yi) in x.iter().zip(y) {
                sel.push(xi, yi).map_err(|e| e.to_string())?;
            }
            let opt = sel.reselect_now().map_err(|e| e.to_string())?;
            Ok(ProgramResult {
                bandwidth: opt.bandwidth,
                score: opt.score,
                wall_seconds: start.elapsed().as_secs_f64(),
                simulated_seconds: None,
                evaluations: k,
            })
        }
        Program::MultiFast => {
            // The scalar `bandwidth` column reports dimension 1's choice so
            // the sweep tables stay rectangular; the full per-dimension
            // vector lives in the BENCH report's `multi` object.
            let (columns, y2) = multi_dataset(x, y);
            let side = multi_grid_side(k);
            let grids = multi_grids(&columns, side)?;
            let sel = kcv_core::multi::select_full_grid(&columns, &y2, &Epanechnikov, &grids)
                .map_err(|e| e.to_string())?;
            Ok(ProgramResult {
                bandwidth: sel.bandwidths[0],
                score: sel.score,
                wall_seconds: start.elapsed().as_secs_f64(),
                simulated_seconds: None,
                evaluations: side * side,
            })
        }
    }
}

/// Runs `program` `reps` times and returns the result with the median wall
/// time (the paper runs each configuration five times).
pub fn run_program_median(
    program: Program,
    x: &[f64],
    y: &[f64],
    k: usize,
    nmulti: usize,
    reps: usize,
) -> Result<ProgramResult, String> {
    let mut runs: Vec<ProgramResult> = (0..reps.max(1))
        .map(|_| run_program(program, x, y, k, nmulti))
        .collect::<Result<_, _>>()?;
    runs.sort_by(|a, b| a.wall_seconds.total_cmp(&b.wall_seconds));
    Ok(runs.swap_remove(runs.len() / 2))
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcv_data::{Dgp, PaperDgp};

    #[test]
    fn all_programs_agree_on_the_optimum_region() {
        let s = PaperDgp.sample(150, 7);
        let mut bandwidths = Vec::new();
        for p in Program::all() {
            let r = run_program(p, &s.x, &s.y, 50, 3).unwrap();
            assert!(r.bandwidth > 0.0 && r.bandwidth <= 1.0, "{}: {}", p.label(), r.bandwidth);
            bandwidths.push(r.bandwidth);
        }
        // §IV-C: the programs should produce "optimal bandwidths in similar
        // ranges" on the same data.
        let (lo, hi) = bandwidths
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &b| (lo.min(b), hi.max(b)));
        assert!(hi - lo < 0.12, "programs disagree: {bandwidths:?}");
    }

    #[test]
    fn prefix_and_sequential_c_select_identically() {
        let s = PaperDgp.sample(250, 10);
        let seq = run_program(Program::SequentialC, &s.x, &s.y, 40, 1).unwrap();
        let prefix = run_program(Program::PrefixC, &s.x, &s.y, 40, 1).unwrap();
        assert_eq!(seq.bandwidth, prefix.bandwidth);
        assert!((seq.score - prefix.score).abs() < 1e-9);
    }

    #[test]
    fn grid_programs_agree_exactly() {
        let s = PaperDgp.sample(200, 8);
        let seq = run_program(Program::SequentialC, &s.x, &s.y, 50, 1).unwrap();
        let gpu = run_program(Program::CudaGpu, &s.x, &s.y, 50, 1).unwrap();
        // f32 vs f64 may flip near-equal minima by at most one grid step.
        let step = 1.0 / 50.0;
        assert!((seq.bandwidth - gpu.bandwidth).abs() < step + 1e-9);
        assert!(gpu.simulated_seconds.unwrap() > 0.0);
    }

    #[test]
    fn windowed_gpu_matches_the_classic_gpu_program() {
        let s = PaperDgp.sample(200, 8);
        let gpu = run_program(Program::CudaGpu, &s.x, &s.y, 50, 1).unwrap();
        let win = run_program(Program::WindowedGpu, &s.x, &s.y, 50, 1).unwrap();
        // Both run in f32 but accumulate differently (running sums vs
        // compensated prefix windows): near-equal minima may flip by at most
        // one grid step.
        let step = 1.0 / 50.0;
        assert!((gpu.bandwidth - win.bandwidth).abs() < step + 1e-9);
        assert!(win.simulated_seconds.unwrap() > 0.0);
    }

    #[test]
    fn bagged_program_degenerates_to_prefix_below_the_bag_cap() {
        // n < 2,000: every bag is the full sample and the rescale factor is
        // 1, so the Bagged program agrees with Prefix C up to the one
        // rounding step of averaging 25 identical values (sum/25 is not a
        // power-of-two division; bit identity is only guaranteed at B = 1,
        // which the core proptest pins).
        let s = PaperDgp.sample(250, 10);
        let prefix = run_program(Program::PrefixC, &s.x, &s.y, 40, 1).unwrap();
        let bagged = run_program(Program::Bagged, &s.x, &s.y, 40, 1).unwrap();
        assert!((bagged.bandwidth - prefix.bandwidth).abs() <= 1e-12 * prefix.bandwidth);
        assert!((bagged.score - prefix.score).abs() <= 1e-12 * prefix.score.abs());
        assert_eq!(bagged.evaluations, 25 * 40);
    }

    #[test]
    fn multi_fast_program_matches_the_naive_full_grid() {
        let s = PaperDgp.sample(150, 7);
        let r = run_program(Program::MultiFast, &s.x, &s.y, 25, 1).unwrap();
        // k = 25 → a 5×5 lattice.
        assert_eq!(r.evaluations, 25);
        let (columns, y2) = multi_dataset(&s.x, &s.y);
        let grids = multi_grids(&columns, multi_grid_side(25)).unwrap();
        let naive =
            kcv_core::multi::select_full_grid_naive(&columns, &y2, &Epanechnikov, &grids)
                .unwrap();
        assert_eq!(r.bandwidth, naive.bandwidths[0]);
        assert!((r.score - naive.score).abs() <= 1e-9 * naive.score.abs());
    }

    #[test]
    fn streaming_program_matches_a_fresh_prefix_profile_on_its_window() {
        // n = 200 ≤ 4·64: the sliding window covers the whole stream, so
        // the streaming replay must select exactly what a fresh prefix
        // profile selects on the same log grid.
        let s = PaperDgp.sample(200, 11);
        let r = run_program(Program::Streaming, &s.x, &s.y, 20, 1).unwrap();
        assert_eq!(r.evaluations, 20);
        let (lo, hi) = s
            .x
            .iter()
            .fold((f64::MAX, f64::MIN), |(l, h), &v| (l.min(v), h.max(v)));
        let domain = hi - lo;
        let grid = BandwidthGrid::log(domain * 1e-3, domain * 0.3, 20).unwrap();
        let profile =
            kcv_core::cv::cv_profile_prefix(&s.x, &s.y, &grid, &Epanechnikov).unwrap();
        let opt = profile.argmin().unwrap();
        assert_eq!(r.bandwidth.to_bits(), opt.bandwidth.to_bits());
    }

    #[test]
    fn multi_dataset_is_deterministic_and_aligned() {
        let s = PaperDgp.sample(64, 3);
        let (c1, y1) = multi_dataset(&s.x, &s.y);
        let (c2, y2) = multi_dataset(&s.x, &s.y);
        assert_eq!(c1, c2);
        assert_eq!(y1, y2);
        assert_eq!(c1.len(), 2);
        assert_eq!(c1[0], s.x);
        assert_eq!(c1[1].len(), s.x.len());
        assert!(c1[1].iter().all(|&v| (0.0..1.0).contains(&v)));
        assert_eq!(multi_grid_side(100), 10);
        assert_eq!(multi_grid_side(1), 2);
    }

    #[test]
    fn median_runner_returns_a_valid_run() {
        let s = PaperDgp.sample(80, 9);
        let r = run_program_median(Program::SequentialC, &s.x, &s.y, 10, 1, 3).unwrap();
        assert!(r.wall_seconds >= 0.0);
        assert_eq!(r.evaluations, 10);
    }
}
