//! The streaming engine: a sliding window that re-selects through the
//! prefix sweep.
//!
//! [`SlidingWindowSelector`] holds the last `W` arrivals in arrival order
//! (two `VecDeque<f64>` of capacity `W`, oldest evicted first) and, every
//! `cadence` arrivals, scores the whole bandwidth grid over the window with
//! [`super::prefix::cv_profile_prefix`] — one argsort, one compensated
//! prefix-moment pass and one window query per `(observation, bandwidth)`
//! cell, zero kernel evaluations:
//!
//! * a push is `O(1)`: validate, evict the oldest if full, append;
//! * a re-selection is `O(W log W + W·k·(log W + deg²))`, the prefix
//!   sweep's cost on `W` observations — exactly `W·k` `window_queries`.
//!
//! This is Langrené & Warin's fast sum updating in its 1-d form — a sort
//! plus cumulative sums — applied where the stream needs an answer. No
//! moment state is kept live between re-selections: nothing queries it
//! there, and the `O(W·deg)` table build each re-selection pays is
//! dominated by the `O(W·k)` sweep that follows it.
//!
//! ## Agreement with the fresh prefix sweep
//!
//! A re-selection *is* a fresh prefix run on the window's contents in
//! arrival order, so its [`CvProfile`](super::CvProfile) — scores
//! included, midrange centring recomputed each time — is bit-identical to
//! `cv_profile_prefix(&x[t−w..t], &y[t−w..t], …)` at arrival `t`, and the
//! cached optimum is that profile's raw [`argmin`](super::CvProfile::argmin)
//! (`crates/core/tests/incremental_agreement.rs` replays streams and pins
//! this at every cadence firing).

use std::collections::VecDeque;

use super::prefix::cv_profile_prefix;
use super::CvOptimum;
use crate::error::{Error, Result};
use crate::grid::BandwidthGrid;
use crate::kernels::PolynomialKernel;

/// A fixed-capacity sliding window over a stream of observations,
/// re-selecting the bandwidth every `cadence` arrivals through the prefix
/// sweep (see the module docs).
///
/// [`push`](Self::push) evicts the oldest observation once the window is
/// full, appends the arrival, and — when the cadence fires and at least two
/// observations are held — scores the grid over the window, caching the
/// optimum for [`current`](Self::current). The amortised per-arrival cost
/// is `O(1 + (W log W + k·(log W + deg²)·W)/cadence)`.
#[derive(Debug, Clone)]
pub struct SlidingWindowSelector<K> {
    kernel: K,
    grid: BandwidthGrid,
    /// Window regressors, oldest first.
    xs: VecDeque<f64>,
    /// Window responses, parallel to `xs`.
    ys: VecDeque<f64>,
    capacity: usize,
    cadence: usize,
    since_reselect: usize,
    last: Option<CvOptimum>,
}

impl<K: PolynomialKernel> SlidingWindowSelector<K> {
    /// Creates an empty window of `capacity` observations re-selecting
    /// every `cadence` arrivals over `grid`.
    ///
    /// # Errors
    /// [`Error::InvalidParameter`] if `capacity < 2` (a window must be able
    /// to hold the two observations cross-validation needs) or
    /// `cadence == 0` (the cadence counts arrivals between re-selections,
    /// so zero would demand a re-selection before any arrival exists).
    pub fn new(kernel: K, grid: BandwidthGrid, capacity: usize, cadence: usize) -> Result<Self> {
        if capacity < 2 {
            return Err(Error::InvalidParameter {
                name: "capacity",
                requirement: "at least 2 (cross-validation needs two observations)",
            });
        }
        if cadence == 0 {
            return Err(Error::InvalidParameter {
                name: "cadence",
                requirement: "positive (arrivals between re-selections)",
            });
        }
        Ok(Self {
            kernel,
            grid,
            xs: VecDeque::with_capacity(capacity),
            ys: VecDeque::with_capacity(capacity),
            capacity,
            cadence,
            since_reselect: 0,
            last: None,
        })
    }

    /// Observations currently in the window.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// True when the window holds no observations.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// The window capacity `W` fixed at construction.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// The re-selection cadence fixed at construction.
    pub fn cadence(&self) -> usize {
        self.cadence
    }

    /// Arrivals applied since the last re-selection (the cadence clock).
    pub fn since_reselect(&self) -> usize {
        self.since_reselect
    }

    /// The optimum from the most recent re-selection, if any has run.
    pub fn current(&self) -> Option<CvOptimum> {
        self.last
    }

    /// Pushes one arrival: evict-oldest if at capacity, append, and
    /// re-select when the cadence fires. Returns the fresh optimum on
    /// re-selection turns, `None` otherwise.
    ///
    /// The arrival is validated **before** the oldest observation is
    /// evicted, so a failed `push` (non-finite `x`/`y`,
    /// [`Error::NonFiniteData`]) leaves the window exactly as it was — the
    /// stream may discard the bad arrival and keep going, and the next
    /// cadence re-selection scores the intact surviving window.
    pub fn push(&mut self, x: f64, y: f64) -> Result<Option<CvOptimum>> {
        if self.push_deferred(x, y)? {
            return self.reselect_now().map(Some);
        }
        Ok(None)
    }

    /// [`push`](Self::push) without the re-selection: applies the arrival
    /// (same validation, eviction, and cadence clock) and returns whether
    /// the cadence is now due — i.e. whether `push` would have re-selected
    /// on this arrival. Callers that batch arrivals (the `kcv-serve`
    /// shards) apply a burst through this method and then run one
    /// [`reselect_now`](Self::reselect_now) for the whole burst; calling
    /// `reselect_now` exactly when this returns `true` reproduces `push`'s
    /// behaviour operation-for-operation.
    pub fn push_deferred(&mut self, x: f64, y: f64) -> Result<bool> {
        if !x.is_finite() {
            return Err(Error::NonFiniteData { which: "x", index: 0 });
        }
        if !y.is_finite() {
            return Err(Error::NonFiniteData { which: "y", index: 0 });
        }
        let _update = kcv_obs::phase("cv.update");
        if self.xs.len() == self.capacity {
            self.xs.pop_front();
            self.ys.pop_front();
        }
        self.xs.push_back(x);
        self.ys.push_back(y);
        self.since_reselect += 1;
        Ok(self.since_reselect >= self.cadence && self.xs.len() >= 2)
    }

    /// Forces a re-selection immediately (also resets the cadence clock):
    /// a fresh prefix profile over the window, then its raw argmin.
    ///
    /// # Errors
    /// [`Error::SampleTooSmall`] with fewer than two observations held;
    /// [`Error::NoValidBandwidth`] if every bandwidth excludes every
    /// observation.
    pub fn reselect_now(&mut self) -> Result<CvOptimum> {
        self.since_reselect = 0;
        let _reselect = kcv_obs::phase("cv.reselect");
        let profile = cv_profile_prefix(
            self.xs.make_contiguous(),
            self.ys.make_contiguous(),
            &self.grid,
            &self.kernel,
        )?;
        kcv_obs::add(kcv_obs::Counter::Reselects, 1);
        let opt = profile.argmin()?;
        self.last = Some(opt);
        Ok(opt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::Epanechnikov;
    use crate::util::SplitMix64;

    fn paper_dgp(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
        let mut rng = SplitMix64::new(seed);
        let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
        let y: Vec<f64> = x
            .iter()
            .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
            .collect();
        (x, y)
    }

    #[test]
    fn zero_capacity_or_cadence_is_rejected_at_construction() {
        let grid = BandwidthGrid::log(0.01, 0.5, 5).unwrap();
        for cap in [0usize, 1] {
            assert!(matches!(
                SlidingWindowSelector::new(Epanechnikov, grid.clone(), cap, 10),
                Err(Error::InvalidParameter { name: "capacity", .. })
            ));
        }
        assert!(matches!(
            SlidingWindowSelector::new(Epanechnikov, grid.clone(), 10, 0),
            Err(Error::InvalidParameter { name: "cadence", .. })
        ));
        assert!(SlidingWindowSelector::new(Epanechnikov, grid, 2, 1).is_ok());
    }

    #[test]
    fn reselect_needs_two_observations() {
        let grid = BandwidthGrid::from_values(vec![0.5]).unwrap();
        let mut win = SlidingWindowSelector::new(Epanechnikov, grid, 4, 1).unwrap();
        assert!(matches!(
            win.reselect_now(),
            Err(Error::SampleTooSmall { n: 0, required: 2 })
        ));
        // One held observation: the cadence is due but cannot fire.
        assert_eq!(win.push(0.5, 1.0).unwrap(), None);
        assert_eq!(win.since_reselect(), 1);
        assert!(win.push(0.75, 2.0).unwrap().is_some());
        assert_eq!(win.since_reselect(), 0);
    }

    #[test]
    fn failed_push_leaves_the_window_untouched() {
        // A non-finite arrival must error cleanly *without* evicting the
        // oldest observation or advancing the cadence clock.
        let (x, y) = paper_dgp(120, 38);
        let grid = BandwidthGrid::log(0.01, 0.5, 20).unwrap();
        let mut win = SlidingWindowSelector::new(Epanechnikov, grid, 100, 40).unwrap();
        for (&xi, &yi) in x.iter().zip(&y) {
            win.push(xi, yi).unwrap();
        }
        assert_eq!(win.len(), 100);
        let clock = win.since_reselect();
        assert!(matches!(
            win.push(f64::NAN, 1.0),
            Err(Error::NonFiniteData { which: "x", .. })
        ));
        assert!(matches!(
            win.push(0.5, f64::INFINITY),
            Err(Error::NonFiniteData { which: "y", .. })
        ));
        assert_eq!(win.len(), 100, "failed pushes must not evict");
        assert_eq!(win.since_reselect(), clock, "failed pushes must not tick the cadence");
        assert!(win.xs.iter().eq(&x[20..]) && win.ys.iter().eq(&y[20..]));
    }

    #[test]
    fn push_deferred_with_due_reselects_reproduces_push() {
        let (x, y) = paper_dgp(300, 39);
        let grid = BandwidthGrid::log(0.01, 0.5, 15).unwrap();
        let mut a = SlidingWindowSelector::new(Epanechnikov, grid.clone(), 80, 30).unwrap();
        let mut b = SlidingWindowSelector::new(Epanechnikov, grid, 80, 30).unwrap();
        for (&xi, &yi) in x.iter().zip(&y) {
            let via_push = a.push(xi, yi).unwrap();
            let due = b.push_deferred(xi, yi).unwrap();
            let via_deferred = if due { Some(b.reselect_now().unwrap()) } else { None };
            assert_eq!(via_push, via_deferred);
        }
        assert_eq!(a.current(), b.current());
    }

    #[cfg(feature = "metrics")]
    #[test]
    fn reselect_spends_zero_kernel_evals_and_one_query_per_cell() {
        let (x, y) = paper_dgp(300, 37);
        let grid = BandwidthGrid::log(0.01, 0.5, 25).unwrap();
        let run = kcv_obs::Recorder::new();
        {
            let _scope = run.install();
            let mut win = SlidingWindowSelector::new(Epanechnikov, grid, 256, 100).unwrap();
            for (&xi, &yi) in x.iter().zip(&y) {
                win.push(xi, yi).unwrap();
            }
        }
        let snap = run.snapshot();
        assert_eq!(snap.counter("kernel_evals"), 0);
        // Firings at arrivals 100, 200 and 300 over windows of 100, 200
        // and 256 observations.
        assert_eq!(snap.counter("reselects"), 3);
        assert_eq!(snap.counter("window_queries"), (100 + 200 + 256) * 25);
    }
}
