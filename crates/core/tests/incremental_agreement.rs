//! Window-replay tests for the streaming engine.
//!
//! The contract under test (DESIGN.md, "incremental" row): at every cadence
//! firing `t`, `SlidingWindowSelector` returns exactly the optimum a fresh
//! `cv_profile_prefix` run over the trailing window `x[t−w..t]` selects —
//! grid index, bandwidth bits, **score bits** and included count — and
//! between firings it returns nothing. Every polynomial kernel is replayed
//! through three regimes:
//!
//! * continuous keys on `[0, 1)`, occasionally repeating a recent key;
//! * duplicate-heavy streams whose keys sit on a small lattice;
//! * exact boundary-tie lattices where `|x_i − x_l| == h·r` holds exactly
//!   at many cells.
//!
//! Window sizes and cadences are drawn so the stream wraps the window
//! several times; dedicated tests pin long wrap-around replays and a
//! non-finite arrival rejected mid-stream.

use kcv_core::cv::{cv_profile_prefix, CvOptimum, SlidingWindowSelector};
use kcv_core::error::{Error, Result};
use kcv_core::grid::BandwidthGrid;
use kcv_core::kernels::{polynomial_kernels, PolynomialKernel};
use kcv_core::util::SplitMix64;
use proptest::prelude::*;

/// How a stream draws its observations.
enum Draw {
    /// Continuous keys on `[0, 1)` (about one in seven repeats an earlier
    /// key), paper-DGP responses.
    Continuous,
    /// Keys confined to the lattice `{0, 1/m, …, (m−1)/m}`, paper-DGP
    /// responses: every key collides constantly.
    DuplicatePool(usize),
    /// Power-of-two lattice keys `{j/16}` with exact-binary responses
    /// `{k/8}`: `|x_i − x_l| == h·r` holds exactly at many cells.
    ExactLattice,
}

/// A seeded stream of `n` arrivals.
fn stream(seed: u64, n: usize, draw: &Draw) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SplitMix64::new(seed);
    let mut x: Vec<f64> = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let r = rng.next_f64();
        let (xi, yi) = match draw {
            Draw::Continuous => {
                let xi = if r > 0.85 && !x.is_empty() {
                    x[(rng.next_f64() * x.len() as f64) as usize % x.len()]
                } else {
                    rng.next_f64()
                };
                (xi, 0.5 * xi + 10.0 * xi * xi + 0.5 * rng.next_f64())
            }
            Draw::DuplicatePool(m) => {
                let j = (r * *m as f64) as usize % m;
                let xi = j as f64 / *m as f64;
                (xi, 0.5 * xi + 10.0 * xi * xi + 0.5 * rng.next_f64())
            }
            Draw::ExactLattice => {
                let j = (r * 17.0) as usize % 17;
                let k = (rng.next_f64() * 16.0) as usize % 16;
                (j as f64 / 16.0, k as f64 / 8.0)
            }
        };
        x.push(xi);
        y.push(yi);
    }
    (x, y)
}

/// Exact equality of two optima, floats compared by bits.
fn same_bits(a: &CvOptimum, b: &CvOptimum) -> bool {
    a.index == b.index
        && a.bandwidth.to_bits() == b.bandwidth.to_bits()
        && a.score.to_bits() == b.score.to_bits()
        && a.included == b.included
}

/// Pushes every arrival through a fresh window of `capacity` observations
/// re-selecting every `cadence` arrivals. Non-finite arrivals must be
/// rejected without touching the window; at every accepted arrival the
/// push's answer must equal the oracle: `None` off-cadence, and at a
/// firing the raw argmin of a fresh prefix profile over the trailing
/// `min(t, capacity)` accepted arrivals, bit for bit (or the same error).
/// Returns the number of firings checked.
fn replay_and_check(
    kernel: &dyn PolynomialKernel,
    grid: &BandwidthGrid,
    x: &[f64],
    y: &[f64],
    capacity: usize,
    cadence: usize,
) -> std::result::Result<usize, TestCaseError> {
    let mut win = SlidingWindowSelector::new(kernel, grid.clone(), capacity, cadence).unwrap();
    let (mut ax, mut ay) = (Vec::new(), Vec::new());
    let mut last: Option<CvOptimum> = None;
    let mut firings = 0;
    for (&xi, &yi) in x.iter().zip(y) {
        let got = win.push(xi, yi);
        if !(xi.is_finite() && yi.is_finite()) {
            prop_assert!(
                matches!(got, Err(Error::NonFiniteData { .. })),
                "non-finite arrival not rejected: {:?}",
                got
            );
            prop_assert_eq!(win.len(), capacity.min(ax.len()));
            continue;
        }
        ax.push(xi);
        ay.push(yi);
        let t = ax.len();
        let w = t.min(capacity);
        prop_assert_eq!(win.len(), w);
        // Cadence 1 cannot fire on the first arrival: a lone observation
        // has no leave-one-out fit.
        if t % cadence != 0 || w < 2 {
            prop_assert!(matches!(got, Ok(None)), "arrival {} fired off-cadence", t);
            continue;
        }
        firings += 1;
        let want: Result<CvOptimum> =
            cv_profile_prefix(&ax[t - w..t], &ay[t - w..t], grid, kernel).and_then(|p| p.argmin());
        match (got, want) {
            (Ok(Some(a)), Ok(b)) => {
                prop_assert!(
                    same_bits(&a, &b),
                    "{}: arrival {} (window {}): {:?} vs fresh {:?}",
                    kernel.name(),
                    t,
                    w,
                    a,
                    b
                );
                last = Some(a);
            }
            (Err(a), Err(b)) => prop_assert_eq!(a, b),
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "{}: arrival {t}: window {a:?} vs fresh {b:?}",
                    kernel.name()
                )))
            }
        }
        prop_assert_eq!(win.current(), last);
    }
    Ok(firings)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Continuous keys, every polynomial kernel.
    #[test]
    fn continuous_streams_agree(
        seed in 0u64..10_000,
        capacity in 8usize..40,
        cadence in 1usize..12,
        laps in 1usize..4,
    ) {
        let grid = BandwidthGrid::log(0.05, 1.0, 12).unwrap();
        let (x, y) = stream(seed, capacity * laps + cadence, &Draw::Continuous);
        for kernel in polynomial_kernels() {
            replay_and_check(&*kernel, &grid, &x, &y, capacity, cadence)?;
        }
    }

    /// Duplicate-saturated streams: keys confined to a small lattice.
    #[test]
    fn duplicate_heavy_streams_agree(
        seed in 0u64..10_000,
        capacity in 8usize..40,
        cadence in 1usize..12,
        pool in 5usize..14,
    ) {
        let grid = BandwidthGrid::log(0.08, 1.0, 10).unwrap();
        let (x, y) = stream(seed, 3 * capacity, &Draw::DuplicatePool(pool));
        for kernel in polynomial_kernels() {
            replay_and_check(&*kernel, &grid, &x, &y, capacity, cadence)?;
        }
    }

    /// Boundary-tie lattices: `x ∈ {j/16}`, `h ∈ {1/8, 1/4, 1/2}`, so
    /// `|x_i − x_l| == h·r` holds exactly at many cells.
    #[test]
    fn boundary_tie_lattices_agree(
        seed in 0u64..10_000,
        capacity in 4usize..30,
        cadence in 1usize..8,
    ) {
        let grid = BandwidthGrid::from_values(vec![0.125, 0.25, 0.5]).unwrap();
        let (x, y) = stream(seed, 3 * capacity, &Draw::ExactLattice);
        for kernel in polynomial_kernels() {
            replay_and_check(&*kernel, &grid, &x, &y, capacity, cadence)?;
        }
    }
}

/// A long replay wraps the window's ring buffer many times at a cadence
/// coprime to the capacity, so firings see every head position.
#[test]
fn wrap_around_replays_agree_at_every_firing() {
    let grid = BandwidthGrid::log(0.02, 1.0, 16).unwrap();
    let (x, y) = stream(7, 1_200, &Draw::Continuous);
    for kernel in polynomial_kernels() {
        let firings = replay_and_check(&*kernel, &grid, &x, &y, 96, 37).unwrap();
        assert_eq!(firings, 1_200 / 37, "{}", kernel.name());
    }
}

/// A non-finite arrival mid-stream — once while the window fills, once
/// after it wraps — is rejected without evicting, without ticking the
/// cadence clock, and without changing any later answer.
#[test]
fn rejected_arrivals_leave_later_firings_unchanged() {
    let grid = BandwidthGrid::log(0.02, 1.0, 16).unwrap();
    let (mut x, mut y) = stream(11, 400, &Draw::Continuous);
    x.insert(50, f64::NAN);
    y.insert(50, 1.0);
    x.insert(250, 0.5);
    y.insert(250, f64::INFINITY);
    for kernel in polynomial_kernels() {
        let firings = replay_and_check(&*kernel, &grid, &x, &y, 120, 25).unwrap();
        assert_eq!(firings, 400 / 25, "{}", kernel.name());
    }
}
