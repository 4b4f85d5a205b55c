//! Fast sum updating for **multivariate** product-kernel CV — the
//! dimension-recursive counterpart of the univariate prefix-moment sweep.
//!
//! The naive multivariate grid search ([`super::select_full_grid_naive`])
//! scores every `(bandwidth vector, observation)` CV cell with an `O(n)`
//! product-kernel scan, so a `d`-dimensional grid of `g` points costs
//! `O(g·n²·d)` kernel evaluations. For product **polynomial** kernels that
//! scan is redundant, exactly as in the univariate case: the leave-one-out
//! numerator and denominator at observation `i`,
//!
//! ```text
//! Σ_{l≠i, l∈box(i,h)} Π_j K((x_ji − x_jl)/h_j) · {1, y_l} ,
//! ```
//!
//! expand multi-binomially into sums of the **raw mixed moments**
//! `x_1l^{m_1}·x_2l^{m_2}·…` (and their `y`-weighted twins) over the
//! support box — Langrené & Warin's fast-sum-updating recursion carried
//! across dimensions. The engine therefore never evaluates a kernel on its
//! d ≤ 2 hot path; it resolves support boxes with the same monotone
//! `Δ·(1/h) ≤ r` predicate the univariate strategies use and assembles
//! each cell from precomputed moment tables.
//!
//! ## Dispatch by dimension
//!
//! * **d = 1** delegates to the univariate prefix-moment core
//!   (`cv::prefix`), sorting the requested bandwidth list ascending first —
//!   so a one-column selection is *bit-identical* to
//!   [`crate::cv::cv_profile_prefix`] over the same grid.
//! * **d = 2** is the hot path: sweep observations in dimension-1 sorted
//!   order, maintaining **two Fenwick trees over dimension-2 ranks** — `L`
//!   holds the window points left of the sweep position, `R` those right
//!   of it (the query point sits in neither, which is positional
//!   leave-one-out self-exclusion, no subtraction drift). The dimension-1
//!   window slides monotonically (two-pointer, ≤ `4n` tree updates per
//!   grid point); each cell then costs two binary searches on the sorted
//!   dimension-2 axis plus six `O(log n)` prefix queries over
//!   `(deg+1)²`-moment node blocks and an `O(deg⁴)` two-axis binomial
//!   assembly. Per grid point: `O(n·(log n·(deg+1)² + deg⁴))`, versus the
//!   naive `O(n²·d)` — and **zero kernel evaluations**.
//! * **d ≥ 3** carries the partial product sums through a dimension-1
//!   windowed scan: the monotone window bounds the neighbour loop, and
//!   each in-box neighbour contributes its Horner-evaluated product weight
//!   directly. This is honest per-neighbour work (`O(g·n·w̄·d)` with `w̄`
//!   the mean window width, counted as `kernel_evals`); only the d ≤ 2
//!   paths hold the zero-eval contract. Extending the moment-tree
//!   recursion to d ≥ 3 (a Fenwick tree of Fenwick trees) is the
//!   documented follow-on.
//!
//! ## Exactness
//!
//! Box *membership* uses the bit-identical predicate discipline of the
//! univariate sweeps, evaluated on the original (uncentred) coordinates.
//! Empty boxes are detected **exactly**: the `(0,0)` moment of every point
//! is `1.0`, Fenwick adds/removes of `±1.0` are exact integer arithmetic
//! in f64, so a zero count is a true zero and the cell is excluded just as
//! the naive scan excludes it. Scores carry the usual moment-differencing
//! rounding (trees are re-zeroed for every grid point, so drift never
//! accumulates across cells); agreement with the naive oracle is pinned at
//! the same degree-scaled tolerances as the univariate prefix strategy.
//! One caveat sharpens in d ≥ 2: when a cell's every in-box neighbour sits
//! at the support edge, the product weight vanishes like `δ^{deg·d}` and
//! the LOO ratio amplifies the assembled `num`/`den` roundoff without
//! bound — the documented tolerance therefore applies to cells with
//! non-negligible denominator mass (the agreement suite's mass guard).
//!
//! ## Observability
//!
//! The whole engine runs under a `cv.multi` phase (opened once on the
//! calling thread); grid points are scored in parallel with rayon inside
//! the caller's `kcv-obs` scope. `window_queries` counts `d` per
//! `(observation, grid point)` cell and the `dim_sweeps` counter counts
//! one sweep per `(grid point, dimension)` pair.

use crate::error::{validate_bandwidth, Error, Result};
use crate::kernels::{horner, PolynomialKernel};
use crate::sort::{apply_permutation, argsort};
use crate::util::pascal;
use rayon::prelude::*;

/// Scores every bandwidth vector in `h_vectors` with the fast-sum-updating
/// engine: returns `(scores, included)` aligned with the input order,
/// where `scores[g]` is `CV_lc(h⃗_g)` and `included[g]` counts the
/// observations with a defined leave-one-out fit at that bandwidth vector.
///
/// Produces the same profile the naive
/// [`super::MultiNadarayaWatson::cv_score_included`] oracle computes, at
/// `O(n·(log n·(deg+1)² + deg⁴))` per grid point for d ≤ 2 instead of
/// `O(n²·d)` — see the module docs for the per-dimension dispatch and the
/// documented score tolerances.
pub fn cv_scores_fast<K: PolynomialKernel + ?Sized>(
    columns: &[Vec<f64>],
    y: &[f64],
    kernel: &K,
    h_vectors: &[Vec<f64>],
) -> Result<(Vec<f64>, Vec<usize>)> {
    let d = columns.len();
    if d == 0 {
        return Err(Error::DimensionMismatch { expected: 1, found: 0 });
    }
    let n = y.len();
    if n < 2 {
        return Err(Error::SampleTooSmall { n, required: 2 });
    }
    for col in columns {
        if col.len() != n {
            return Err(Error::LengthMismatch { x_len: col.len(), y_len: n });
        }
        if let Some(i) = col.iter().position(|v| !v.is_finite()) {
            return Err(Error::NonFiniteData { which: "x", index: i });
        }
    }
    if let Some(i) = y.iter().position(|v| !v.is_finite()) {
        return Err(Error::NonFiniteData { which: "y", index: i });
    }
    for hs in h_vectors {
        if hs.len() != d {
            return Err(Error::DimensionMismatch { expected: d, found: hs.len() });
        }
        for &h in hs {
            validate_bandwidth(h)?;
        }
    }
    if h_vectors.is_empty() {
        return Ok((Vec::new(), Vec::new()));
    }

    let _phase = kcv_obs::phase("cv.multi");
    kcv_obs::add(kcv_obs::Counter::DimSweeps, (h_vectors.len() * d) as u64);
    match d {
        1 => scores_d1(&columns[0], y, kernel, h_vectors),
        2 => Ok(scores_d2(columns, y, kernel, h_vectors)),
        _ => Ok(scores_dn(columns, y, kernel, h_vectors)),
    }
}

/// d = 1: sort the bandwidth list ascending (the univariate core narrows
/// support windows monotonically) and delegate to the shared prefix-moment
/// routine, then unpermute. A caller passing an already-ascending grid
/// runs the exact instruction sequence of `cv_profile_prefix`.
fn scores_d1<K: PolynomialKernel + ?Sized>(
    x: &[f64],
    y: &[f64],
    kernel: &K,
    h_vectors: &[Vec<f64>],
) -> Result<(Vec<f64>, Vec<usize>)> {
    let g = h_vectors.len();
    let mut order: Vec<usize> = (0..g).collect();
    order.sort_by(|&a, &b| h_vectors[a][0].total_cmp(&h_vectors[b][0]));
    let hs_sorted: Vec<f64> = order.iter().map(|&i| h_vectors[i][0]).collect();
    let (scores_sorted, included_sorted) =
        crate::cv::prefix::prefix_scores_for_bandwidths(x, y, &hs_sorted, kernel)?;
    let mut scores = vec![0.0; g];
    let mut included = vec![0usize; g];
    for (rank, &orig) in order.iter().enumerate() {
        scores[orig] = scores_sorted[rank];
        included[orig] = included_sorted[rank];
    }
    Ok((scores, included))
}

/// Shared dimension-1 sweep frame: the sample reordered by the first
/// regressor, plus every other column and `y` carried along in that order.
struct SweepFrame {
    /// First regressor, sorted ascending (original values — support
    /// predicates run on these).
    xs1: Vec<f64>,
    /// Remaining columns (original values), each in dimension-1 sorted
    /// order: `cols[j][p]` is regressor `j+1` of the observation at sorted
    /// position `p`.
    cols: Vec<Vec<f64>>,
    /// Responses in dimension-1 sorted order.
    yv: Vec<f64>,
}

impl SweepFrame {
    fn build(columns: &[Vec<f64>], y: &[f64]) -> Self {
        let perm = argsort(&columns[0]);
        SweepFrame {
            xs1: apply_permutation(&columns[0], &perm),
            cols: columns[1..].iter().map(|c| apply_permutation(c, &perm)).collect(),
            yv: apply_permutation(y, &perm),
        }
    }
}

/// Advances the dimension-1 support window `[lo, hi)` of sorted position
/// `p` for fixed `inv_h1` — both ends are monotone non-decreasing in `p`,
/// so the amortised cost over a full sweep is `O(n)`.
#[inline]
fn slide_window(
    xs1: &[f64],
    p: usize,
    inv_h1: f64,
    radius: f64,
    lo: &mut usize,
    hi: &mut usize,
) {
    let xi = xs1[p];
    while (xi - xs1[*lo]) * inv_h1 > radius {
        *lo += 1;
    }
    while *hi < xs1.len() && (xs1[*hi] - xi) * inv_h1 <= radius {
        *hi += 1;
    }
}

/// The d = 2 moment tables, built once and shared read-only by every grid
/// point: the sweep frame, the second axis sorted for window searches, the
/// dimension-2 rank of every sweep position, and per-point mixed-moment
/// blocks over midrange-centred coordinates. Memory: `2n·(deg+1)²` f64 for
/// the blocks plus `O(n)` index arrays.
struct Tables2 {
    frame: SweepFrame,
    /// Second regressor sorted ascending (original values).
    xs2: Vec<f64>,
    /// Dimension-2 rank of the observation at dimension-1 sorted position
    /// `p` — a permutation of `0..n` even under duplicate coordinates.
    rank2: Vec<usize>,
    /// Midrange-centred sweep coordinates (conditioning only; membership
    /// always uses the original values).
    x1c: Vec<f64>,
    x2c: Vec<f64>,
    /// Per-point moment blocks, `2·bsz` per point: entries
    /// `[m1·(deg+1)+m2]` hold `x1c^{m1}·x2c^{m2}`, entries
    /// `[bsz + m1·(deg+1)+m2]` the `y`-weighted twin.
    blocks: Vec<f64>,
    /// Flattened Pascal triangle `C(j, m)`.
    binom: Vec<f64>,
    deg: usize,
    /// `(deg+1)²` — moments per half-block.
    bsz: usize,
    n: usize,
}

impl Tables2 {
    fn build(columns: &[Vec<f64>], y: &[f64], deg: usize) -> Self {
        let n = y.len();
        let frame = SweepFrame::build(columns, y);
        let perm2 = argsort(&columns[1]);
        let xs2 = apply_permutation(&columns[1], &perm2);
        let mut rank_of_orig = vec![0usize; n];
        for (r, &orig) in perm2.iter().enumerate() {
            rank_of_orig[orig] = r;
        }
        let perm1 = argsort(&columns[0]);
        let rank2: Vec<usize> = perm1.iter().map(|&orig| rank_of_orig[orig]).collect();

        let c1 = 0.5 * (frame.xs1[0] + frame.xs1[n - 1]);
        let c2 = 0.5 * (xs2[0] + xs2[n - 1]);
        let x1c: Vec<f64> = frame.xs1.iter().map(|&v| v - c1).collect();
        let x2c: Vec<f64> = frame.cols[0].iter().map(|&v| v - c2).collect();

        let bsz = (deg + 1) * (deg + 1);
        let mut blocks = vec![0.0; n * 2 * bsz];
        for p in 0..n {
            let block = &mut blocks[p * 2 * bsz..(p + 1) * 2 * bsz];
            let yp = frame.yv[p];
            let mut p1 = 1.0;
            for m1 in 0..=deg {
                let mut v = p1;
                for m2 in 0..=deg {
                    block[m1 * (deg + 1) + m2] = v;
                    block[bsz + m1 * (deg + 1) + m2] = yp * v;
                    v *= x2c[p];
                }
                p1 *= x1c[p];
            }
        }
        Tables2 { frame, xs2, rank2, x1c, x2c, blocks, binom: pascal(deg), deg, bsz, n }
    }

    /// Binary-searches the dimension-2 support window `[a2, b2)` of value
    /// `x2i` on the sorted second axis — the same `Δ·(1/h) ≤ r` predicate
    /// as everywhere else, `O(log n)` (dimension-2 windows are not
    /// monotone along the dimension-1 sweep, so no narrowing here).
    #[inline]
    fn window2(&self, x2i: f64, inv_h2: f64, radius: f64) -> (usize, usize) {
        let n = self.n;
        let (mut a, mut b) = (0usize, n);
        while a < b {
            let mid = (a + b) / 2;
            if (x2i - self.xs2[mid]) * inv_h2 <= radius {
                b = mid;
            } else {
                a = mid + 1;
            }
        }
        let lo = a;
        let (mut a, mut b) = (lo, n);
        while a < b {
            let mid = (a + b) / 2;
            if (self.xs2[mid] - x2i) * inv_h2 <= radius {
                a = mid + 1;
            } else {
                b = mid;
            }
        }
        (lo, a)
    }
}

/// One grid point's sweep state for d = 2: two Fenwick trees over
/// dimension-2 ranks whose nodes store `2·bsz`-moment blocks, re-zeroed
/// for every grid point, plus the query/assembly scratch.
struct Sweep2 {
    /// Fenwick nodes (1-based), `(n+1)·2·bsz` each: `fen_l` indexes the
    /// window points at sweep positions `< p`, `fen_r` those `> p`.
    fen_l: Vec<f64>,
    fen_r: Vec<f64>,
    /// Prefix-query accumulators at the three split ranks `a2 ≤ r2 ≤ b2`,
    /// per tree: `[L(a2), L(r2), L(b2), R(a2), R(r2), R(b2)]`.
    pref: [Vec<f64>; 6],
    /// Assembled signed moment sums `S[j1][j2]` and `SY[j1][j2]`.
    s: Vec<f64>,
    sy: Vec<f64>,
    /// Powers of `−x1c[p]` / `−x2c[p]` for the binomial shift.
    npow1: Vec<f64>,
    npow2: Vec<f64>,
}

impl Sweep2 {
    fn new(n: usize, deg: usize) -> Self {
        let bsz2 = 2 * (deg + 1) * (deg + 1);
        Sweep2 {
            fen_l: vec![0.0; (n + 1) * bsz2],
            fen_r: vec![0.0; (n + 1) * bsz2],
            pref: std::array::from_fn(|_| vec![0.0; bsz2]),
            s: vec![0.0; (deg + 1) * (deg + 1)],
            sy: vec![0.0; (deg + 1) * (deg + 1)],
            npow1: vec![0.0; deg + 1],
            npow2: vec![0.0; deg + 1],
        }
    }
}

/// Adds (`sign = 1.0`) or removes (`sign = −1.0`) the moment block of the
/// point at dimension-2 rank `rank` into a Fenwick tree. `O(log n)` node
/// touches of `2·bsz` fused multiply-adds each.
#[inline]
fn fenwick_update(tree: &mut [f64], n: usize, bsz2: usize, rank: usize, sign: f64, block: &[f64]) {
    let mut i = rank + 1;
    while i <= n {
        let node = &mut tree[i * bsz2..(i + 1) * bsz2];
        for (slot, &v) in node.iter_mut().zip(block) {
            *slot += sign * v;
        }
        i += i & i.wrapping_neg();
    }
}

/// Accumulates the tree's prefix sum over ranks `< t` into `acc`
/// (overwritten). `O(log n)` node touches.
#[inline]
fn fenwick_prefix(tree: &[f64], bsz2: usize, t: usize, acc: &mut [f64]) {
    acc.fill(0.0);
    let mut i = t;
    while i > 0 {
        let node = &tree[i * bsz2..(i + 1) * bsz2];
        for (slot, &v) in acc.iter_mut().zip(node) {
            *slot += v;
        }
        i &= i - 1;
    }
}

/// d = 2 hot path: per grid point, one monotone dimension-1 sweep with the
/// two-Fenwick-tree window structure; grid points run in parallel.
fn scores_d2<K: PolynomialKernel + ?Sized>(
    columns: &[Vec<f64>],
    y: &[f64],
    kernel: &K,
    h_vectors: &[Vec<f64>],
) -> (Vec<f64>, Vec<usize>) {
    let coeffs = kernel.coeffs();
    let radius = kernel.radius();
    let deg = coeffs.len() - 1;
    let n = y.len();
    let tables = Tables2::build(columns, y, deg);
    let tables = &tables;

    let scope = kcv_obs::scope();
    let cells: Vec<Vec<(usize, f64, usize)>> = (0..h_vectors.len())
        .into_par_iter()
        .fold(
            || (Vec::new(), Sweep2::new(n, deg)),
            |(mut out, mut sweep), gi| {
                let _in_scope = scope.enter();
                let (score, inc) =
                    score_grid_point_d2(tables, coeffs, radius, &h_vectors[gi], &mut sweep);
                out.push((gi, score, inc));
                (out, sweep)
            },
        )
        .map(|(out, _)| out)
        .collect();

    let mut scores = vec![0.0; h_vectors.len()];
    let mut included = vec![0usize; h_vectors.len()];
    for (gi, score, inc) in cells.into_iter().flatten() {
        scores[gi] = score;
        included[gi] = inc;
    }
    (scores, included)
}

/// Scores one d = 2 bandwidth vector: `O(n·(log n·(deg+1)² + deg⁴))`.
fn score_grid_point_d2(
    t: &Tables2,
    coeffs: &[f64],
    radius: f64,
    hs: &[f64],
    sweep: &mut Sweep2,
) -> (f64, usize) {
    let (n, deg, bsz) = (t.n, t.deg, t.bsz);
    let bsz2 = 2 * bsz;
    let bw = deg + 1;
    let (inv_h1, inv_h2) = (1.0 / hs[0], 1.0 / hs[1]);
    let xs1 = &t.frame.xs1;
    let block_of = |p: usize| &t.blocks[p * bsz2..(p + 1) * bsz2];

    // Fresh trees per grid point: rounding drift is bounded per sweep and
    // the exact-integer count slot starts from a true zero.
    sweep.fen_l.fill(0.0);
    sweep.fen_r.fill(0.0);

    // Initial window at p = 0; R starts with every other in-window point.
    let (mut lo, mut hi) = (0usize, 1usize);
    slide_window(xs1, 0, inv_h1, radius, &mut lo, &mut hi);
    for q in 1..hi {
        fenwick_update(&mut sweep.fen_r, n, bsz2, t.rank2[q], 1.0, block_of(q));
    }

    let mut queries = kcv_obs::LocalCounter::new(kcv_obs::Counter::WindowQueries);
    let mut skipped = kcv_obs::LocalCounter::new(kcv_obs::Counter::LooTermsSkipped);
    let mut sq_sum = 0.0;
    let mut included = 0usize;
    for p in 0..n {
        if p > 0 {
            // Window transition p−1 → p: the old query point joins L, the
            // new one leaves R, and each end of the window slides forward.
            let (lo_prev, hi_prev) = (lo, hi);
            slide_window(xs1, p, inv_h1, radius, &mut lo, &mut hi);
            fenwick_update(&mut sweep.fen_l, n, bsz2, t.rank2[p - 1], 1.0, block_of(p - 1));
            for q in lo_prev..lo {
                fenwick_update(&mut sweep.fen_l, n, bsz2, t.rank2[q], -1.0, block_of(q));
            }
            if hi_prev > p {
                fenwick_update(&mut sweep.fen_r, n, bsz2, t.rank2[p], -1.0, block_of(p));
            }
            for q in hi_prev.max(p + 1)..hi {
                fenwick_update(&mut sweep.fen_r, n, bsz2, t.rank2[q], 1.0, block_of(q));
            }
        }
        queries.incr(2);
        skipped.incr((n - (hi - lo)) as u64);

        // Dimension-2 window and the own-rank class split (tie points have
        // a zero centred difference, so their side cannot matter).
        let (a2, b2) = t.window2(t.frame.cols[0][p], inv_h2, radius);
        let r2 = t.rank2[p];
        debug_assert!(a2 <= r2 && r2 < b2, "own rank must sit inside its window");
        for (slot, tree) in [&sweep.fen_l, &sweep.fen_r].into_iter().enumerate() {
            fenwick_prefix(tree, bsz2, a2, &mut sweep.pref[3 * slot]);
            fenwick_prefix(tree, bsz2, r2, &mut sweep.pref[3 * slot + 1]);
            fenwick_prefix(tree, bsz2, b2, &mut sweep.pref[3 * slot + 2]);
        }

        // Exact empty-box check on the (0,0) count slot: every in-box
        // point contributed exactly ±1.0, so this is integer arithmetic.
        let count = (sweep.pref[2][0] - sweep.pref[0][0]) + (sweep.pref[5][0] - sweep.pref[3][0]);
        if count <= 0.0 {
            continue;
        }

        // Binomial shift powers for this observation.
        sweep.npow1[0] = 1.0;
        sweep.npow2[0] = 1.0;
        for m in 1..=deg {
            sweep.npow1[m] = sweep.npow1[m - 1] * -t.x1c[p];
            sweep.npow2[m] = sweep.npow2[m - 1] * -t.x2c[p];
        }

        // Assemble the four class moment sums into the signed totals
        // S[j1][j2] = Σ_box |x1−x1i|^{j1}·|x2−x2i|^{j2} expressed through
        // per-class sign flips (−1)^{j1}/(−1)^{j2} on the L / dim2-left
        // classes, and SY likewise for the y-weighted moments.
        sweep.s.fill(0.0);
        sweep.sy.fill(0.0);
        for (class, (ia, ib)) in [(0, 1), (1, 2), (3, 4), (4, 5)].into_iter().enumerate() {
            // class: 0 = (L, dim2-left), 1 = (L, dim2-right),
            //        2 = (R, dim2-left), 3 = (R, dim2-right).
            let s1_neg = class < 2;
            let s2_neg = class % 2 == 0;
            let pa = &sweep.pref[ia];
            let pb = &sweep.pref[ib];
            for j1 in 0..=deg {
                let sign1 = if s1_neg && j1 % 2 == 1 { -1.0 } else { 1.0 };
                for j2 in 0..=deg {
                    let sign2 = if s2_neg && j2 % 2 == 1 { -1.0 } else { 1.0 };
                    let sign = sign1 * sign2;
                    let mut w = 0.0;
                    let mut wy = 0.0;
                    for m1 in 0..=j1 {
                        let c1 = t.binom[j1 * bw + m1] * sweep.npow1[j1 - m1];
                        for m2 in 0..=j2 {
                            let c = c1 * t.binom[j2 * bw + m2] * sweep.npow2[j2 - m2];
                            let idx = m1 * bw + m2;
                            let d_m = pb[idx] - pa[idx];
                            let d_y = pb[bsz + idx] - pa[bsz + idx];
                            w += c * d_m;
                            wy += c * d_y;
                        }
                    }
                    sweep.s[j1 * bw + j2] += sign * w;
                    sweep.sy[j1 * bw + j2] += sign * wy;
                }
            }
        }

        // N/D = Σ_{j1,j2} c_{j1}·c_{j2}·h1^{−j1}·h2^{−j2}·{SY, S}[j1][j2].
        let mut num = 0.0;
        let mut den = 0.0;
        let mut hp1 = 1.0;
        for (j1, &c1) in coeffs.iter().enumerate() {
            let mut hp2 = 1.0;
            for (j2, &c2) in coeffs.iter().enumerate() {
                let cf = c1 * c2 * hp1 * hp2;
                num += cf * sweep.sy[j1 * bw + j2];
                den += cf * sweep.s[j1 * bw + j2];
                hp2 *= inv_h2;
            }
            hp1 *= inv_h1;
        }
        if den > 0.0 {
            let resid = t.frame.yv[p] - num / den;
            sq_sum += resid * resid;
            included += 1;
        }
    }
    (sq_sum / n as f64, included)
}

/// d ≥ 3 fallback: dimension-1 windowed scan carrying the partial product
/// weights — no `Kernel::eval` dispatch, but genuine per-neighbour work
/// (counted as `kernel_evals`, one per polynomial factor evaluated).
fn scores_dn<K: PolynomialKernel + ?Sized>(
    columns: &[Vec<f64>],
    y: &[f64],
    kernel: &K,
    h_vectors: &[Vec<f64>],
) -> (Vec<f64>, Vec<usize>) {
    let coeffs = kernel.coeffs();
    let radius = kernel.radius();
    let d = columns.len();
    let n = y.len();
    let frame = SweepFrame::build(columns, y);
    let frame = &frame;

    let scope = kcv_obs::scope();
    let results: Vec<(f64, usize)> = (0..h_vectors.len())
        .into_par_iter()
        .map(|gi| {
            let _in_scope = scope.enter();
            let hs = &h_vectors[gi];
            let inv_h: Vec<f64> = hs.iter().map(|&h| 1.0 / h).collect();
            let mut queries = kcv_obs::LocalCounter::new(kcv_obs::Counter::WindowQueries);
            let mut skipped = kcv_obs::LocalCounter::new(kcv_obs::Counter::LooTermsSkipped);
            let mut evals = kcv_obs::LocalCounter::new(kcv_obs::Counter::KernelEvals);
            let (mut lo, mut hi) = (0usize, 1usize);
            let mut sq_sum = 0.0;
            let mut included = 0usize;
            for p in 0..n {
                slide_window(&frame.xs1, p, inv_h[0], radius, &mut lo, &mut hi);
                queries.incr(d as u64);
                skipped.incr((n - (hi - lo)) as u64);
                let mut num = 0.0;
                let mut den = 0.0;
                for q in lo..hi {
                    if q == p {
                        continue;
                    }
                    let u1 = (frame.xs1[p] - frame.xs1[q]).abs() * inv_h[0];
                    let mut w = horner(coeffs, u1);
                    evals.incr(1);
                    for (j, col) in frame.cols.iter().enumerate() {
                        let u = (col[p] - col[q]).abs() * inv_h[j + 1];
                        if u > radius {
                            w = 0.0;
                            break;
                        }
                        w *= horner(coeffs, u);
                        evals.incr(1);
                        if w == 0.0 {
                            break;
                        }
                    }
                    num += frame.yv[q] * w;
                    den += w;
                }
                if den > 0.0 {
                    let resid = frame.yv[p] - num / den;
                    sq_sum += resid * resid;
                    included += 1;
                }
            }
            (sq_sum / n as f64, included)
        })
        .collect();

    results.into_iter().unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Epanechnikov;
    use crate::multi::MultiNadarayaWatson;
    use crate::util::{approx_eq, SplitMix64};

    fn dgp(n: usize, d: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let cols: Vec<Vec<f64>> =
            (0..d).map(|_| (0..n).map(|_| rng.next_f64()).collect()).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| {
                cols.iter().enumerate().map(|(j, c)| (j + 1) as f64 * c[i]).sum::<f64>()
                    + 0.1 * rng.next_f64()
            })
            .collect();
        (cols, y)
    }

    fn naive_oracle(
        cols: &[Vec<f64>],
        y: &[f64],
        h_vectors: &[Vec<f64>],
    ) -> (Vec<f64>, Vec<usize>) {
        h_vectors
            .iter()
            .map(|hs| {
                MultiNadarayaWatson::new(cols, y, Epanechnikov, hs.clone())
                    .unwrap()
                    .cv_score_included()
            })
            .unzip()
    }

    #[test]
    fn d2_agrees_with_the_naive_oracle() {
        let (cols, y) = dgp(120, 2, 1);
        let h_vectors: Vec<Vec<f64>> = (1..=5)
            .flat_map(|i| (1..=5).map(move |j| vec![i as f64 * 0.08, j as f64 * 0.08]))
            .collect();
        let (fast_s, fast_i) = cv_scores_fast(&cols, &y, &Epanechnikov, &h_vectors).unwrap();
        let (naive_s, naive_i) = naive_oracle(&cols, &y, &h_vectors);
        assert_eq!(fast_i, naive_i);
        for g in 0..h_vectors.len() {
            assert!(
                approx_eq(fast_s[g], naive_s[g], 1e-8, 1e-10),
                "grid point {g}: {} vs {}",
                fast_s[g],
                naive_s[g]
            );
        }
    }

    #[test]
    fn d2_handles_tiny_bandwidths_with_empty_boxes() {
        let (cols, y) = dgp(40, 2, 2);
        let h_vectors = vec![vec![1e-6, 1e-6], vec![0.3, 1e-6], vec![0.3, 0.3]];
        let (fast_s, fast_i) = cv_scores_fast(&cols, &y, &Epanechnikov, &h_vectors).unwrap();
        let (naive_s, naive_i) = naive_oracle(&cols, &y, &h_vectors);
        assert_eq!(fast_i, naive_i);
        assert_eq!(fast_i[0], 0);
        assert_eq!(fast_s[0], 0.0);
        assert!(approx_eq(fast_s[2], naive_s[2], 1e-8, 1e-10));
    }

    #[test]
    fn d3_scan_agrees_with_the_naive_oracle() {
        let (cols, y) = dgp(60, 3, 3);
        let h_vectors = vec![vec![0.2, 0.3, 0.4], vec![0.5, 0.5, 0.5], vec![0.15, 0.4, 0.25]];
        let (fast_s, fast_i) = cv_scores_fast(&cols, &y, &Epanechnikov, &h_vectors).unwrap();
        let (naive_s, naive_i) = naive_oracle(&cols, &y, &h_vectors);
        assert_eq!(fast_i, naive_i);
        for g in 0..h_vectors.len() {
            assert!(approx_eq(fast_s[g], naive_s[g], 1e-10, 1e-12));
        }
    }

    #[test]
    fn validation_mirrors_the_naive_estimator() {
        let (cols, y) = dgp(30, 2, 4);
        assert!(cv_scores_fast(&[], &y, &Epanechnikov, &[vec![]]).is_err());
        assert!(cv_scores_fast(&cols, &y, &Epanechnikov, &[vec![0.1]]).is_err());
        assert!(cv_scores_fast(&cols, &y, &Epanechnikov, &[vec![0.1, -0.1]]).is_err());
        assert!(cv_scores_fast(&cols, &y[..10], &Epanechnikov, &[vec![0.1, 0.1]]).is_err());
        let (s, i) = cv_scores_fast(&cols, &y, &Epanechnikov, &[]).unwrap();
        assert!(s.is_empty() && i.is_empty());
    }
}
