//! Small internal utilities: a dependency-free PRNG and float helpers.

/// A SplitMix64 pseudo-random number generator.
///
/// Used internally (e.g. for multistart optimiser initial values and
/// quicksort pivot scrambling) so that `kcv-core` stays free of a `rand`
/// dependency while remaining deterministic for a given seed.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Creates a generator from a seed.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Returns the next 64 pseudo-random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Returns a float uniformly distributed in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        // 53 high-quality bits → [0,1).
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Returns a float uniformly distributed in `[lo, hi)`.
    pub fn next_range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Returns an index uniformly distributed in `0..n` (`n > 0`).
    pub fn next_index(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }
}

/// Neumaier's improved Kahan–Babuška compensated summation.
///
/// Keeps a running compensation term alongside the primary sum so that the
/// accumulated rounding error stays `O(ε)` independent of the number of
/// addends, where plain summation drifts by `O(n·ε)`. Unlike classic Kahan
/// summation it also survives the case where the incoming term is larger
/// than the running sum (the branch picks which operand's low-order bits
/// were lost), so it is safe for sign-alternating and wildly-scaled inputs
/// — exactly what the prefix-moment tables of [`crate::cv::prefix`] feed it.
///
/// ```
/// use kcv_core::util::NeumaierSum;
///
/// let mut s = NeumaierSum::default();
/// for v in [1.0, 1e100, 1.0, -1e100] {
///     s.add(v);
/// }
/// // Plain (and Kahan) summation returns 0.0 here; Neumaier recovers 2.0.
/// assert_eq!(s.value(), 2.0);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NeumaierSum {
    sum: f64,
    comp: f64,
}

impl NeumaierSum {
    /// Creates an empty sum.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `v` with compensation.
    #[inline]
    pub fn add(&mut self, v: f64) {
        let t = self.sum + v;
        if self.sum.abs() >= v.abs() {
            self.comp += (self.sum - t) + v;
        } else {
            self.comp += (v - t) + self.sum;
        }
        self.sum = t;
    }

    /// The compensated total.
    #[inline]
    pub fn value(&self) -> f64 {
        self.sum + self.comp
    }

    /// Clears the sum back to zero.
    #[inline]
    pub fn reset(&mut self) {
        self.sum = 0.0;
        self.comp = 0.0;
    }
}

/// Pascal's triangle flattened to `(max_m+1) × (max_m+1)`:
/// `binom[j·(max_m+1) + m] = C(j, m)` for `m ≤ j`, zero above the
/// diagonal. The binomial table every prefix-moment engine (1-D prefix
/// sweep, d = 2 fast sum updating, windowed GPU) recombines window
/// moments with.
///
/// ```
/// let b = kcv_core::util::pascal(3);
/// assert_eq!(&b[12..16], &[1.0, 3.0, 3.0, 1.0]);
/// ```
pub fn pascal(max_m: usize) -> Vec<f64> {
    let bw = max_m + 1;
    let mut binom = vec![0.0; bw * bw];
    for j in 0..=max_m {
        binom[j * bw] = 1.0;
        for m in 1..=j {
            binom[j * bw + m] =
                binom[(j - 1) * bw + m - 1] + if m < j { binom[(j - 1) * bw + m] } else { 0.0 };
        }
    }
    binom
}

/// Returns the min and max of a slice, ignoring nothing (inputs are assumed
/// finite; validate first). Returns `None` for an empty slice.
pub fn min_max(xs: &[f64]) -> Option<(f64, f64)> {
    let first = *xs.first()?;
    let mut lo = first;
    let mut hi = first;
    for &v in &xs[1..] {
        if v < lo {
            lo = v;
        }
        if v > hi {
            hi = v;
        }
    }
    Some((lo, hi))
}

/// Mean of a slice (0.0 for empty input).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Unbiased sample variance (0.0 for fewer than two observations).
pub fn variance(xs: &[f64]) -> f64 {
    let n = xs.len();
    if n < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|&v| (v - m) * (v - m)).sum::<f64>() / (n - 1) as f64
}

/// Sample standard deviation.
pub fn std_dev(xs: &[f64]) -> f64 {
    variance(xs).sqrt()
}

/// Interquartile range computed by linear interpolation (type-7 quantiles,
/// matching R's default).
pub fn interquartile_range(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.total_cmp(b));
    quantile_sorted(&sorted, 0.75) - quantile_sorted(&sorted, 0.25)
}

/// Type-7 quantile of an already-sorted slice.
pub fn quantile_sorted(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    debug_assert!((0.0..=1.0).contains(&p));
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = p * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] + frac * (sorted[hi] - sorted[lo])
}

/// True when `a` and `b` agree to within `rel` relative tolerance or `abs`
/// absolute tolerance.
pub fn approx_eq(a: f64, b: f64, rel: f64, abs: f64) -> bool {
    let diff = (a - b).abs();
    diff <= abs || diff <= rel * a.abs().max(b.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn splitmix_is_deterministic() {
        let mut a = SplitMix64::new(42);
        let mut b = SplitMix64::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn splitmix_f64_in_unit_interval() {
        let mut rng = SplitMix64::new(7);
        for _ in 0..10_000 {
            let v = rng.next_f64();
            assert!((0.0..1.0).contains(&v), "{v} out of [0,1)");
        }
    }

    #[test]
    fn splitmix_range_respects_bounds() {
        let mut rng = SplitMix64::new(3);
        for _ in 0..1000 {
            let v = rng.next_range(-2.0, 5.0);
            assert!((-2.0..5.0).contains(&v));
        }
    }

    #[test]
    fn splitmix_f64_roughly_uniform() {
        let mut rng = SplitMix64::new(99);
        let n = 100_000;
        let mean: f64 = (0..n).map(|_| rng.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean} far from 0.5");
    }

    #[test]
    fn min_max_and_moments() {
        let xs = [3.0, 1.0, 4.0, 1.5, 9.0];
        assert_eq!(min_max(&xs), Some((1.0, 9.0)));
        assert!(min_max(&[]).is_none());
        assert!((mean(&[1.0, 2.0, 3.0]) - 2.0).abs() < 1e-15);
        assert!((variance(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-15);
        assert!((std_dev(&[1.0, 2.0, 3.0]) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn quantiles_match_r_type7() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        // R: quantile(1:4, .25) = 1.75, quantile(1:4, .75) = 3.25
        assert!((quantile_sorted(&sorted, 0.25) - 1.75).abs() < 1e-12);
        assert!((quantile_sorted(&sorted, 0.75) - 3.25).abs() < 1e-12);
        assert!((interquartile_range(&[4.0, 1.0, 3.0, 2.0]) - 1.5).abs() < 1e-12);
    }

    #[test]
    fn neumaier_recovers_catastrophic_cancellation() {
        // The canonical case where both plain and Kahan summation lose the
        // small terms entirely.
        let mut s = NeumaierSum::new();
        for v in [1.0, 1e100, 1.0, -1e100] {
            s.add(v);
        }
        assert_eq!(s.value(), 2.0);
    }

    #[test]
    fn neumaier_beats_plain_summation_on_long_runs() {
        // 0.1 is inexact in binary; a long plain sum drifts, the
        // compensated sum stays within one ulp of the correctly rounded
        // total.
        let n = 1_000_000u64;
        let mut plain = 0.0f64;
        let mut comp = NeumaierSum::new();
        for _ in 0..n {
            plain += 0.1;
            comp.add(0.1);
        }
        let exact = n as f64 * 0.1;
        assert!((comp.value() - exact).abs() <= (plain - exact).abs());
        assert!((comp.value() - exact).abs() < 1e-9);
    }

    #[test]
    fn neumaier_reset_and_default_are_zero() {
        let mut s = NeumaierSum::default();
        assert_eq!(s.value(), 0.0);
        s.add(3.5);
        assert_eq!(s.value(), 3.5);
        s.reset();
        assert_eq!(s.value(), 0.0);
    }

    #[test]
    fn neumaier_matches_plain_sum_on_exact_inputs() {
        // Power-of-two lattice values sum exactly; compensation must not
        // perturb an already-exact result.
        let mut s = NeumaierSum::new();
        for v in [0.25, 0.5, -0.125, 2.0] {
            s.add(v);
        }
        assert_eq!(s.value(), 0.25 + 0.5 - 0.125 + 2.0);
    }

    #[test]
    fn approx_eq_behaviour() {
        assert!(approx_eq(1.0, 1.0 + 1e-13, 1e-10, 0.0));
        assert!(!approx_eq(1.0, 1.1, 1e-10, 1e-12));
        assert!(approx_eq(0.0, 1e-14, 0.0, 1e-12));
    }
}
