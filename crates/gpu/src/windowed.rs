//! The windowed GPU program — the prefix-moment strategy ported to the
//! device, breaking the paper's n ≈ 20 000 memory wall.
//!
//! The paper's program (see [`crate::select_bandwidth_gpu`]) materialises two `n×n` f32
//! matrices so that each thread can sort its own distance row; on the 4 GB
//! Tesla S10 that refuses past n ≈ 23 000 (§IV-A/§V). But the CPU-side
//! prefix-moment strategy (`kcv_core::cv::cv_profile_prefix`, PR 4) already
//! proved no per-observation state is needed: with the sample globally
//! argsorted, every windowed power sum expands binomially into differences
//! of **global** prefix-moment tables, and each `(observation, bandwidth)`
//! cell costs two binary searches plus an `O(deg²)` recombination.
//!
//! This module runs exactly that plan on the simulated device. The device
//! holds only
//!
//! * the sorted `x` and co-sorted `y` (`2n` f32),
//! * the two prefix-moment tables `P_m`/`Q_m` for `m = 0..=deg`
//!   (`2·(deg+1)·(n+1)` entries at 8 bytes each — see *Precision* below),
//! * `⌈n/tpb⌉·k` block-partial slots and the `k` scores,
//!
//! i.e. `O(n·(deg+2) + k)` bytes and **no n×n or n×k matrix anywhere** —
//! at the paper's k = 50 an n = 100 000 problem needs ~5.6 MB where the
//! classic layout would demand ~80 GB. One thread per observation answers
//! its `k` cells with [`kcv_gpu_sim::device_support_window`] bisections
//! (monotonically narrowing across the ascending bandwidth sweep) and the
//! binomial assembly; block-level shared-memory accumulation plus the
//! standard Harris reductions produce the score profile and the argmin on
//! device.
//!
//! ## Precision
//!
//! The paper's device is single-precision, but a naive f32 prefix table
//! would be useless at n = 100 000: `P_0[t]` reaches 10⁵, so a window
//! difference `P_0[b] − P_0[a]` of a few units would carry ~1e-2 relative
//! error — catastrophic cancellation. The tables are therefore built on the
//! **host in f64** with Neumaier compensation (over midrange-centred
//! coordinates, like the CPU strategy) and stored on the device as
//! **compensated f32 pairs** `(hi, lo)` with `hi + lo ≈ v` — the classic
//! double-f32 ("float-float") technique of the era. The device computes
//! window differences as `(hi_b − hi_a) + (lo_b − lo_a)`, whose error
//! scales with the *difference* magnitude (~1 ulp of f32), not the prefix
//! magnitude; the rest of the per-cell assembly runs in plain f32.
//! [`crate::GpuConfig::windowed_f64`] switches the tables to true f64
//! storage and f64 assembly — the same 8 bytes per entry, so the memory
//! footprint (and the perf gate on it) is identical.
//!
//! The pair scheme has a degree limit: the per-cell assembly multiplies the
//! `j`-th window moment by `h^{−j}`, amplifying its ~2⁻²⁴ residual error by
//! up to `h_min^{−deg}`. Through degree 4 (quartic) the amplified error
//! stays a few percent of the score at the paper-default grids; at degree
//! 5+ (e.g. triweight's degree 6, `h^{−6} ≈ 3·10⁷` at the smallest
//! bandwidths) it reaches O(1) and the profile is unreliable — use the f64
//! table mode for those kernels (`tests/windowed_agreement.rs` pins both
//! regimes).

use crate::config::GpuConfig;
use crate::error::{GpuError, Result};
use crate::gpu_kernel_type::{GpuKernel, MAX_DEVICE_DEGREE};
use kcv_core::error::validate_sample;
use kcv_core::grid::BandwidthGrid;
use kcv_core::sort::{apply_permutation, argsort};
use kcv_core::util::pascal;
use kcv_gpu_sim::{
    device_support_window, launch_independent_map, min_payload_reduction, sum_reduction,
    ConstantMemory, LaunchConfig, LaunchReport, MemoryPool, ThreadCounters,
};
use std::time::Instant;

/// Cost and traffic accounting for one windowed-pipeline run. Field-for-
/// field comparable with [`crate::PipelineReport`].
#[derive(Debug, Clone)]
pub struct WindowedReport {
    /// Sample size.
    pub n: usize,
    /// Grid size.
    pub k: usize,
    /// Device-kernel polynomial degree.
    pub deg: usize,
    /// Peak device memory allocated (bytes).
    pub device_bytes_peak: usize,
    /// Host→device bytes transferred.
    pub h2d_bytes: u64,
    /// Device→host bytes transferred.
    pub d2h_bytes: u64,
    /// Simulated transfer time (bytes / device transfer bandwidth).
    pub transfer_seconds: f64,
    /// Main (windowed) kernel launch report.
    pub main_kernel: LaunchReport,
    /// Aggregate operation counts over the `k` summation reductions and the
    /// final minimum reduction.
    pub reduction_totals: ThreadCounters,
    /// Simulated seconds spent in the reductions.
    pub reduction_seconds: f64,
    /// Total simulated device seconds (kernel + reductions + transfers).
    pub total_simulated_seconds: f64,
    /// Wall-clock seconds the simulation took on the host.
    pub host_seconds: f64,
}

/// Result of the windowed GPU bandwidth selection.
#[derive(Debug, Clone)]
pub struct WindowedRun {
    /// The selected (CV-minimal) bandwidth.
    pub bandwidth: f64,
    /// The cross-validation score at the optimum.
    pub score: f64,
    /// The f32 grid the device searched.
    pub bandwidths: Vec<f32>,
    /// The f32 CV score per grid bandwidth (`Σ residual² / n`).
    pub scores: Vec<f32>,
    /// Cost accounting.
    pub report: WindowedReport,
}

/// The host-built global tables the windowed device program uploads:
/// sorted/centred sample and f64 master prefix moments. Shared with the
/// multi-device sharded path.
pub(crate) struct WindowedTables {
    /// `x` sorted ascending, as f32 (the device's support predicate runs on
    /// these).
    pub xs32: Vec<f32>,
    /// `y` co-sorted, as f32.
    pub ys32: Vec<f32>,
    /// Midrange of the sorted sample (f64; the device uses it as f32 or f64
    /// per the precision mode).
    pub center: f64,
    /// `(deg+1) × (n+1)` Neumaier-compensated prefix sums of `xc^m`, f64
    /// master copy (stride `n+1`).
    pub px: Vec<f64>,
    /// Same layout, `y`-weighted.
    pub py: Vec<f64>,
    /// `(deg+1)²` Pascal triangle, `binom[j·(deg+1)+m] = C(j,m)`.
    pub binom: Vec<f64>,
}

impl WindowedTables {
    /// Argsorts `(x, y)` and builds the compensated f64 prefix-moment
    /// tables up to moment `deg`, mirroring the CPU strategy's build.
    pub(crate) fn build(x: &[f64], y: &[f64], deg: usize) -> Self {
        let perm = argsort(x);
        let xs = apply_permutation(x, &perm);
        let ys = apply_permutation(y, &perm);
        let n = xs.len();
        let center = 0.5 * (xs[0] + xs[n - 1]);

        let stride = n + 1;
        let mut px = vec![0.0f64; (deg + 1) * stride];
        let mut py = vec![0.0f64; (deg + 1) * stride];
        // Neumaier-compensated running sums, one (value, compensation) pair
        // per moment.
        let mut sx = vec![(0.0f64, 0.0f64); deg + 1];
        let mut sy = vec![(0.0f64, 0.0f64); deg + 1];
        fn neumaier_add(acc: &mut (f64, f64), v: f64) {
            let t = acc.0 + v;
            acc.1 += if acc.0.abs() >= v.abs() { (acc.0 - t) + v } else { (v - t) + acc.0 };
            acc.0 = t;
        }
        for t in 0..n {
            let v = xs[t] - center;
            let yv = ys[t];
            let mut pw = 1.0f64;
            for m in 0..=deg {
                neumaier_add(&mut sx[m], pw);
                neumaier_add(&mut sy[m], yv * pw);
                px[m * stride + t + 1] = sx[m].0 + sx[m].1;
                py[m * stride + t + 1] = sy[m].0 + sy[m].1;
                pw *= v;
            }
        }

        Self {
            xs32: xs.iter().map(|&v| v as f32).collect(),
            ys32: ys.iter().map(|&v| v as f32).collect(),
            center,
            px,
            py,
            binom: pascal(deg),
        }
    }

    /// Splits an f64 master table into the device's compensated f32 pair
    /// representation: `hi = f32(v)`, `lo = f32(v − hi)`.
    pub(crate) fn split_pair(table: &[f64]) -> (Vec<f32>, Vec<f32>) {
        let mut hi = Vec::with_capacity(table.len());
        let mut lo = Vec::with_capacity(table.len());
        for &v in table {
            let h = v as f32;
            hi.push(h);
            lo.push((v - h as f64) as f32);
        }
        (hi, lo)
    }
}

/// Read-only device views of the uploaded prefix tables, in either
/// precision mode. Both represent each entry in 8 device bytes.
pub(crate) enum TableView<'a> {
    /// Compensated f32 pairs (default, period-authentic).
    PairF32 {
        /// High f32 words of `P_m`.
        px_hi: &'a [f32],
        /// Low (compensation) words of `P_m`.
        px_lo: &'a [f32],
        /// High words of `Q_m`.
        py_hi: &'a [f32],
        /// Low words of `Q_m`.
        py_lo: &'a [f32],
    },
    /// True f64 tables ([`GpuConfig::windowed_f64`]).
    F64 {
        /// `P_m` table.
        px: &'a [f64],
        /// `Q_m` table.
        py: &'a [f64],
    },
}

/// The windowed main kernel: one thread per observation (sorted position
/// `si`), answering all `k` of its cells.
///
/// Per bandwidth (ascending, monotonically narrowing bisection bounds):
/// resolve the support window, difference the prefix tables at its two
/// boundaries for every moment and both tables, binomially recombine into
/// the windowed power sums `S_j`/`SY_j` (self observation excluded by
/// splitting the window at `si`), assemble `N/D` exactly like every other
/// strategy, and accumulate the squared residual into the block's shared
/// partial row. Writes the thread's residuals into `resid` (its register
/// file in the model; the launch driver folds blocks into the device
/// partial buffer, whose coalesced flush is charged to each block leader).
#[allow(clippy::too_many_arguments)]
pub(crate) fn windowed_kernel(
    si: usize,
    xs: &[f32],
    ys: &[f32],
    view: &TableView<'_>,
    center: f64,
    binom: &[f64],
    bandwidths: &[f32],
    coeffs: &[f32],
    radius: f32,
    deg: usize,
    n: usize,
    resid: &mut [f32],
    c: &mut ThreadCounters,
) -> u64 {
    debug_assert!(deg <= MAX_DEVICE_DEGREE);
    let stride = n + 1;
    let bw = deg + 1;
    let xi = xs[si];
    let yi = ys[si];
    c.global_read(2);

    // Powers of −xc_i, in the working precision.
    let xci = match view {
        TableView::PairF32 { .. } => (xi - center as f32) as f64,
        TableView::F64 { .. } => xi as f64 - center,
    };
    let mut npow = [0.0f64; MAX_DEVICE_DEGREE + 1];
    npow[0] = 1.0;
    for m in 1..=deg {
        npow[m] = match view {
            TableView::PairF32 { .. } => (npow[m - 1] as f32 * -xci as f32) as f64,
            TableView::F64 { .. } => npow[m - 1] * -xci,
        };
    }
    c.flop(deg as u64);

    // Windowed moments of one side `[a, b)` by prefix differencing +
    // binomial recombination, in the view's precision. Charges the table
    // reads (divergent: neighbouring threads straddle different windows)
    // and the assembly flops.
    let side = |a: usize, b: usize, w: &mut [f64], wy: &mut [f64], c: &mut ThreadCounters| {
        let mut dp = [0.0f64; MAX_DEVICE_DEGREE + 1];
        let mut dq = [0.0f64; MAX_DEVICE_DEGREE + 1];
        for m in 0..=deg {
            match view {
                TableView::PairF32 { px_hi, px_lo, py_hi, py_lo } => {
                    // Difference of compensated pairs in f32: the error
                    // tracks the window magnitude, not the prefix magnitude.
                    dp[m] = ((px_hi[m * stride + b] - px_hi[m * stride + a])
                        + (px_lo[m * stride + b] - px_lo[m * stride + a]))
                        as f64;
                    dq[m] = ((py_hi[m * stride + b] - py_hi[m * stride + a])
                        + (py_lo[m * stride + b] - py_lo[m * stride + a]))
                        as f64;
                }
                TableView::F64 { px, py } => {
                    dp[m] = px[m * stride + b] - px[m * stride + a];
                    dq[m] = py[m * stride + b] - py[m * stride + a];
                }
            }
        }
        // 8 words per moment either way: 4 boundary entries × (hi + lo), or
        // 4 f64 entries at 2 words each.
        c.global_read(8 * (deg as u64 + 1));
        c.flop(6 * (deg as u64 + 1));
        for j in 0..=deg {
            let row = &binom[j * bw..j * bw + j + 1];
            let (mut s, mut sy) = (0.0f64, 0.0f64);
            for (m, &cf) in row.iter().enumerate() {
                match view {
                    TableView::PairF32 { .. } => {
                        let coeff = (cf as f32) * (npow[j - m] as f32);
                        s = (s as f32 + coeff * dp[m] as f32) as f64;
                        sy = (sy as f32 + coeff * dq[m] as f32) as f64;
                    }
                    TableView::F64 { .. } => {
                        let coeff = cf * npow[j - m];
                        s += coeff * dp[m];
                        sy += coeff * dq[m];
                    }
                }
            }
            w[j] = s;
            wy[j] = sy;
            c.flop(5 * (j as u64 + 1));
        }
    };

    let mut probes_total = 0u64;
    let (mut lo, mut hi) = (si, si + 1);
    let mut wl = [0.0f64; MAX_DEVICE_DEGREE + 1];
    let mut wyl = [0.0f64; MAX_DEVICE_DEGREE + 1];
    let mut wr = [0.0f64; MAX_DEVICE_DEGREE + 1];
    let mut wyr = [0.0f64; MAX_DEVICE_DEGREE + 1];
    for (m, &h) in bandwidths.iter().enumerate() {
        c.constant_read(1);
        let inv_h = 1.0 / h;
        c.flop(1);
        let probes;
        (lo, hi, probes) = device_support_window(xs, xi, inv_h, radius, lo, hi, c);
        probes_total += probes as u64;

        // Self-exclusion by construction: the window splits at si.
        side(lo, si, &mut wl, &mut wyl, c);
        side(si + 1, hi, &mut wr, &mut wyr, c);

        // d = x_i − x_l on the left, x_l − x_i on the right:
        // S_j = W_j^right + (−1)^j·W_j^left, then the standard
        // N/D = Σ_j c_j·h^{-j}·{SY_j, S_j} assembly.
        let (num, den) = match view {
            TableView::PairF32 { .. } => {
                let inv = inv_h;
                let (mut hp, mut num, mut den, mut sign) = (1.0f32, 0.0f32, 0.0f32, 1.0f32);
                for (j, &cf) in coeffs.iter().enumerate() {
                    let s_j = wr[j] as f32 + sign * wl[j] as f32;
                    let sy_j = wyr[j] as f32 + sign * wyl[j] as f32;
                    num += cf * hp * sy_j;
                    den += cf * hp * s_j;
                    hp *= inv;
                    sign = -sign;
                }
                (num, den)
            }
            TableView::F64 { .. } => {
                let inv = inv_h as f64;
                let (mut hp, mut num, mut den, mut sign) = (1.0f64, 0.0f64, 0.0f64, 1.0f64);
                for (j, &cf) in coeffs.iter().enumerate() {
                    let s_j = wr[j] + sign * wl[j];
                    let sy_j = wyr[j] + sign * wyl[j];
                    num += cf as f64 * hp * sy_j;
                    den += cf as f64 * hp * s_j;
                    hp *= inv;
                    sign = -sign;
                }
                (num as f32, den as f32)
            }
        };
        c.flop(7 * (deg as u64 + 1));
        c.branch(1);
        resid[m] = if den > 0.0 {
            let r = yi - num / den;
            c.flop(3);
            r * r
        } else {
            // M(X_i) = 0 at this h: the observation contributes nothing.
            0.0
        };
        // Accumulate into the block's shared partial row.
        c.shared_access(1);
    }
    c.sync();
    probes_total
}

/// Runs the windowed (O(n)-memory) GPU program on the simulated device:
/// selects the CV-optimal Epanechnikov bandwidth for `(x, y)` over `grid`.
pub fn select_bandwidth_gpu_windowed(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    config: &GpuConfig,
) -> Result<WindowedRun> {
    select_bandwidth_gpu_windowed_kernel(x, y, grid, config, &GpuKernel::epanechnikov())
}

/// [`select_bandwidth_gpu_windowed`] with an explicit device kernel.
pub fn select_bandwidth_gpu_windowed_kernel(
    x: &[f64],
    y: &[f64],
    grid: &BandwidthGrid,
    config: &GpuConfig,
    kernel: &GpuKernel,
) -> Result<WindowedRun> {
    kernel.validate()?;
    let n = validate_sample(x, y, 2)?;
    let k = grid.len();
    let max_k = config.spec.max_constant_f32();
    if k > max_k {
        return Err(GpuError::TooManyBandwidths { requested: k, max: max_k });
    }
    let wall_start = Instant::now();
    let deg = kernel.degree();
    let tpb = config.threads_per_block.min(config.spec.max_threads_per_block);
    let reduction_threads = config.reduction_threads.min(config.spec.max_threads_per_block);
    let num_blocks = n.div_ceil(tpb);

    let tables = WindowedTables::build(x, y, deg);
    let h32: Vec<f32> = grid.values().iter().map(|&v| v as f32).collect();

    // Device allocation: vectors, the two prefix-moment tables (8 bytes per
    // entry in either precision mode), the block-partial matrix
    // (bandwidth-major so per-bandwidth reductions read consecutive
    // addresses), and the score array. No n×n, no n×k.
    let pool = MemoryPool::for_device(&config.spec);
    let mut xs_dev = pool.alloc::<f32>(n)?;
    let mut ys_dev = pool.alloc::<f32>(n)?;
    xs_dev.copy_from_host(&tables.xs32)?;
    ys_dev.copy_from_host(&tables.ys32)?;
    let stride = n + 1;
    let table_len = (deg + 1) * stride;

    // Both precision modes keep the tables in dedicated device buffers; the
    // pair mode splits each f64 master entry into (hi, lo) f32 words.
    enum TableBuffers {
        Pair {
            px_hi: kcv_gpu_sim::DeviceBuffer<f32>,
            px_lo: kcv_gpu_sim::DeviceBuffer<f32>,
            py_hi: kcv_gpu_sim::DeviceBuffer<f32>,
            py_lo: kcv_gpu_sim::DeviceBuffer<f32>,
        },
        F64 {
            px: kcv_gpu_sim::DeviceBuffer<f64>,
            py: kcv_gpu_sim::DeviceBuffer<f64>,
        },
    }
    let table_buffers = if config.windowed_f64 {
        let mut px = pool.alloc::<f64>(table_len)?;
        let mut py = pool.alloc::<f64>(table_len)?;
        px.copy_from_host(&tables.px)?;
        py.copy_from_host(&tables.py)?;
        TableBuffers::F64 { px, py }
    } else {
        let (hx, lx) = WindowedTables::split_pair(&tables.px);
        let (hy, ly) = WindowedTables::split_pair(&tables.py);
        let mut px_hi = pool.alloc::<f32>(table_len)?;
        let mut px_lo = pool.alloc::<f32>(table_len)?;
        let mut py_hi = pool.alloc::<f32>(table_len)?;
        let mut py_lo = pool.alloc::<f32>(table_len)?;
        px_hi.copy_from_host(&hx)?;
        px_lo.copy_from_host(&lx)?;
        py_hi.copy_from_host(&hy)?;
        py_lo.copy_from_host(&ly)?;
        TableBuffers::Pair { px_hi, px_lo, py_hi, py_lo }
    };
    let mut partials_dev = pool.alloc::<f32>(num_blocks * k)?;
    let mut scores_dev = pool.alloc::<f32>(k)?;
    let bandwidths = ConstantMemory::new(&config.spec, &h32)?;

    // Main kernel: one thread per observation; residual rows come back as
    // per-thread register values for the block accumulation below.
    let mut resid_scratch = vec![0.0f32; n * k];
    let main_report = {
        let xs_view = xs_dev.as_slice();
        let ys_view = ys_dev.as_slice();
        let view = match &table_buffers {
            TableBuffers::Pair { px_hi, px_lo, py_hi, py_lo } => TableView::PairF32 {
                px_hi: px_hi.as_slice(),
                px_lo: px_lo.as_slice(),
                py_hi: py_hi.as_slice(),
                py_lo: py_lo.as_slice(),
            },
            TableBuffers::F64 { px, py } => {
                TableView::F64 { px: px.as_slice(), py: py.as_slice() }
            }
        };
        let bw_view = bandwidths.as_slice();
        let workspaces: Vec<&mut [f32]> = resid_scratch.chunks_mut(k).collect();
        let coeffs = kernel.coeffs.as_slice();
        let radius = kernel.radius;
        let center = tables.center;
        let binom = tables.binom.as_slice();
        let (probes, report) = launch_independent_map(
            &config.spec,
            &config.cost,
            LaunchConfig::new(n, tpb),
            workspaces,
            |tid, resid, c| {
                let probes = windowed_kernel(
                    tid, xs_view, ys_view, &view, center, binom, bw_view, coeffs, radius, deg,
                    n, resid, c,
                );
                // Each block's leader flushes the block's accumulated
                // partial row to the device partial matrix — k consecutive
                // bandwidth-major slots per block, a coalesced store.
                if tid % tpb == 0 {
                    c.global_coalesced(k as u64);
                }
                probes
            },
        )?;
        kcv_obs::add(kcv_obs::Counter::WindowQueries, (n * k) as u64);
        kcv_obs::add(kcv_obs::Counter::BinarySearchProbes, probes.iter().sum());
        report
    };

    // Fold each block's thread rows into its bandwidth-major partial slot
    // (the shared-memory accumulation charged per-cell in the kernel).
    {
        let partials = partials_dev.as_mut_slice();
        for (b, block) in resid_scratch.chunks(tpb * k).enumerate() {
            for row in block.chunks(k) {
                for (m, &v) in row.iter().enumerate() {
                    partials[m * num_blocks + b] += v;
                }
            }
        }
    }

    // k summation reductions over the contiguous per-bandwidth partial
    // rows, then the min reduction — identical tail to the classic program.
    let mut reduction_totals = ThreadCounters::default();
    let mut reduction_cycles = 0.0;
    {
        let partials = partials_dev.as_slice();
        let scores_out = scores_dev.as_mut_slice();
        for m in 0..k {
            let row = &partials[m * num_blocks..(m + 1) * num_blocks];
            let (sum, report) =
                sum_reduction(&config.spec, &config.cost, reduction_threads, row)?;
            scores_out[m] = sum / n as f32;
            reduction_totals.absorb(&report.totals);
            reduction_cycles += report.simulated_cycles;
        }
    }
    let ((min_score, best_h), min_report) = min_payload_reduction(
        &config.spec,
        &config.cost,
        reduction_threads,
        scores_dev.as_slice(),
        bandwidths.as_slice(),
    )?;
    reduction_totals.absorb(&min_report.totals);
    reduction_cycles += min_report.simulated_cycles;

    let mut scores_host = vec![0.0f32; k];
    scores_dev.copy_to_host(&mut scores_host)?;

    let transfer_seconds =
        (pool.h2d_bytes() + pool.d2h_bytes()) as f64 / config.spec.transfer_bytes_per_sec;
    let reduction_seconds = reduction_cycles / config.spec.clock_hz;
    let total_simulated_seconds =
        main_report.simulated_seconds + reduction_seconds + transfer_seconds;

    let report = WindowedReport {
        n,
        k,
        deg,
        device_bytes_peak: pool.peak(),
        h2d_bytes: pool.h2d_bytes(),
        d2h_bytes: pool.d2h_bytes(),
        transfer_seconds,
        main_kernel: main_report,
        reduction_totals,
        reduction_seconds,
        total_simulated_seconds,
        host_seconds: wall_start.elapsed().as_secs_f64(),
    };

    Ok(WindowedRun {
        bandwidth: best_h as f64,
        score: min_score as f64,
        bandwidths: h32,
        scores: scores_host,
        report,
    })
}

/// Device memory the windowed pipeline needs for a given configuration, in
/// bytes: `2n` f32 for the sorted sample, `2·(deg+1)·(n+1)` table entries
/// at 8 bytes each (f32 pair or f64 — identical), the `⌈n/tpb⌉·k` block
/// partials, and the `k` scores. `O(n·(deg+2) + k)` — **no n² term**, so
/// the paper's 4 GB wall moves out past n = 10⁸.
pub fn required_device_bytes_windowed(
    n: usize,
    k: usize,
    deg: usize,
    threads_per_block: usize,
) -> usize {
    let f = std::mem::size_of::<f32>();
    let num_blocks = n.div_ceil(threads_per_block.max(1));
    2 * n * f + 2 * (deg + 1) * (n + 1) * 2 * f + num_blocks * k * f + k * f
}

#[cfg(test)]
mod tests {
    use super::*;
    use kcv_core::cv::cv_profile_prefix;
    use kcv_core::kernels::Epanechnikov;

    fn paper_data(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let x: Vec<f64> = (0..n).map(|_| next()).collect();
        let y: Vec<f64> = x.iter().map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * next()).collect();
        (x, y)
    }

    #[test]
    fn windowed_matches_prefix_cpu_reference() {
        let (x, y) = paper_data(300, 1);
        let grid = BandwidthGrid::paper_default(&x, 40).unwrap();
        let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let cpu = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
        for m in 0..grid.len() {
            let gpu_s = run.scores[m] as f64;
            let cpu_s = cpu.scores[m];
            assert!(
                (gpu_s - cpu_s).abs() <= 2e-3 * cpu_s.abs().max(1e-6),
                "h={}: gpu {gpu_s} vs cpu {cpu_s}",
                grid.values()[m]
            );
        }
        let cpu_opt = cpu.argmin().unwrap().bandwidth;
        assert!(
            (run.bandwidth - cpu_opt).abs() <= grid.step() + 1e-9,
            "gpu {} vs cpu {cpu_opt}",
            run.bandwidth
        );
    }

    #[test]
    fn windowed_matches_classic_pipeline_argmin() {
        let (x, y) = paper_data(257, 5);
        let grid = BandwidthGrid::paper_default(&x, 30).unwrap();
        let classic =
            crate::pipeline::select_bandwidth_gpu(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let windowed =
            select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        // Two f32 programs with different rounding histories: the argmin
        // must agree up to a near-tie flip one grid step away.
        assert!(
            (windowed.bandwidth - classic.bandwidth).abs() <= grid.step() + 1e-9,
            "windowed {} vs classic {}",
            windowed.bandwidth,
            classic.bandwidth
        );
    }

    #[test]
    fn f64_table_mode_same_bytes_tighter_scores() {
        let (x, y) = paper_data(400, 9);
        let grid = BandwidthGrid::paper_default(&x, 25).unwrap();
        let pair = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let wide = select_bandwidth_gpu_windowed(
            &x,
            &y,
            &grid,
            &GpuConfig::default().with_windowed_f64(true),
        )
        .unwrap();
        assert_eq!(pair.report.device_bytes_peak, wide.report.device_bytes_peak);
        assert!(
            (pair.bandwidth - wide.bandwidth).abs() <= grid.step() + 1e-9,
            "pair {} vs f64 {}",
            pair.bandwidth,
            wide.bandwidth
        );
        // The f64 tables remove every accumulation error; what remains vs
        // the f64 CPU reference is the f32 quantisation of the inputs
        // themselves (x, y, h stored as f32 on the device), so ~1e-4
        // relative — far tighter than the classic pipeline's 1e-3 contract.
        let cpu = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
        for m in 0..grid.len() {
            let err_wide = (wide.scores[m] as f64 - cpu.scores[m]).abs();
            assert!(
                err_wide <= 1e-4 * cpu.scores[m].abs().max(1e-9),
                "f64 mode h index {m}: {} vs {}",
                wide.scores[m],
                cpu.scores[m]
            );
        }
    }

    #[test]
    fn windowed_peak_memory_is_linear_in_n() {
        let (x, y) = paper_data(2_000, 3);
        let grid = BandwidthGrid::paper_default(&x, 50).unwrap();
        let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let expected = required_device_bytes_windowed(2_000, 50, 2, 512);
        assert_eq!(run.report.device_bytes_peak, expected);
        // Far below both the classic requirement and any n² footprint.
        assert!(run.report.device_bytes_peak < 2_000 * 2_000);
        assert!(
            run.report.device_bytes_peak < crate::pipeline::required_device_bytes(2_000, 50) / 50
        );
    }

    #[test]
    fn windowed_runs_past_the_classic_wall_on_a_small_device() {
        // 1 MB device: the classic pipeline refuses at n = 400 (the two n²
        // matrices alone need 1.28 MB); the windowed one sails through at
        // n = 4 000 on the very same spec.
        let mut config = GpuConfig::default();
        config.spec.global_mem_bytes = 1 << 20;
        let (x, y) = paper_data(400, 3);
        let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
        assert!(crate::pipeline::select_bandwidth_gpu(&x, &y, &grid, &config).is_err());
        let (x, y) = paper_data(4_000, 3);
        let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
        let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &config).unwrap();
        assert!(run.report.device_bytes_peak < 1 << 20);
        let cpu = cv_profile_prefix(&x, &y, &grid, &Epanechnikov).unwrap();
        let cpu_opt = cpu.argmin().unwrap().bandwidth;
        assert!(
            (run.bandwidth - cpu_opt).abs() <= grid.step() + 1e-9,
            "windowed {} vs cpu {cpu_opt}",
            run.bandwidth
        );
    }

    #[test]
    fn windowed_traffic_is_per_cell_logarithmic() {
        let (x, y) = paper_data(1_000, 7);
        let grid = BandwidthGrid::paper_default(&x, 20).unwrap();
        let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let t = &run.report.main_kernel.totals;
        let cells = 1_000u64 * 20;
        // Per cell: ≤ 2·⌈log₂ n⌉ probes + 16(deg+1) table words; plus the
        // per-thread xi/yi reads. No O(window) term anywhere.
        let ceiling = cells * (2 * 10 + 16 * 3) + 2 * 1_000;
        assert!(
            t.global_reads <= ceiling,
            "global reads {} exceed per-cell ceiling {ceiling}",
            t.global_reads
        );
        // And the whole program touched global memory fewer times than the
        // classic pipeline's two n×n matrix fills alone (2n² stores).
        assert!(t.global_reads + t.global_writes + t.global_coalesced < 2 * 1_000 * 1_000);
    }

    #[test]
    fn windowed_rejects_oversized_grids_and_degenerate_input() {
        let (x, y) = paper_data(10, 2);
        let grid = BandwidthGrid::linear(0.001, 1.0, 2049).unwrap();
        let err = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap_err();
        assert_eq!(err, GpuError::TooManyBandwidths { requested: 2049, max: 2048 });
        let grid = BandwidthGrid::from_values(vec![0.5]).unwrap();
        assert!(
            select_bandwidth_gpu_windowed(&[1.0], &[1.0], &grid, &GpuConfig::default()).is_err()
        );
    }

    #[test]
    fn report_accounts_windowed_traffic() {
        let (x, y) = paper_data(80, 4);
        let grid = BandwidthGrid::paper_default(&x, 10).unwrap();
        let run = select_bandwidth_gpu_windowed(&x, &y, &grid, &GpuConfig::default()).unwrap();
        let r = &run.report;
        assert_eq!((r.n, r.k, r.deg), (80, 10, 2));
        // H2D: xs, ys (n f32 each) + the four pair tables ((deg+1)·(n+1)
        // f32 each).
        let table_words = 3 * 81u64;
        assert_eq!(r.h2d_bytes, (2 * 80 + 4 * table_words as usize) as u64 * 4);
        // D2H: the k scores.
        assert_eq!(r.d2h_bytes, 10 * 4);
        assert!(r.transfer_seconds > 0.0);
        assert!(r.total_simulated_seconds > 0.0);
        assert!(r.main_kernel.totals.flops > 0);
        assert!(r.reduction_totals.syncs > 0);
    }
}
