//! Statistical acceptance tests for the bagged selector (ISSUE 7).
//!
//! The headline test reproduces the Barreiro-Ures et al. setup on the paper
//! DGP at n = 50,000: bagging with B = 25 bags of r = 2,000 (prefix engine)
//! must land within the documented tolerance of the full-data prefix
//! selection. The tolerance (15% relative) reflects two error sources the
//! module docs derive: subsample noise of the C_h estimate (shrinks like
//! 1/√B) and the finite-sample error of the (r/n)^{1/5} rescaling law,
//! which is exact only in the AMISE limit. Measured gaps are 1.3% (seed 42,
//! mean combiner) and 4.9% (seed 43, median), so 15% is a stable bound, not
//! a tuned one.
//!
//! The proptest pins the degenerate corner: r = n, B = 1 must be
//! *bit-identical* to the underlying strategy (full sample in original
//! order, rescale factor exactly 1.0, mean of one element exact).

use kcv_core::prelude::*;
// Explicit import: both preludes glob-export a `Strategy` (the grid-search
// enum here, the generation trait in proptest); the named import wins.
use kcv_core::select::Strategy;
use proptest::prelude::*;

/// Paper DGP: X ~ U(0,1), Y = 0.5X + 10X² + u, u ~ U(0, 0.5).
fn paper_dgp(n: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = kcv_core::util::SplitMix64::new(seed);
    let x: Vec<f64> = (0..n).map(|_| rng.next_f64()).collect();
    let y: Vec<f64> = x
        .iter()
        .map(|&v| 0.5 * v + 10.0 * v * v + 0.5 * rng.next_f64())
        .collect();
    (x, y)
}

#[test]
fn bagged_tracks_the_full_data_prefix_answer_at_fifty_thousand() {
    let n = 50_000;
    let k = 100;
    let (x, y) = paper_dgp(n, 42);

    let full = SortedGridSearch::prefix(Epanechnikov, GridSpec::PaperDefault(k))
        .select(&x, &y)
        .unwrap();
    let bagged = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(k), 25, 2_000)
        .with_seed(42)
        .select_bagged(&x, &y)
        .unwrap();

    assert_eq!(bagged.bags.len(), 25);
    assert_eq!(bagged.rescale, (2_000f64 / 50_000f64).powf(0.2));

    let rel = (bagged.bandwidth - full.bandwidth).abs() / full.bandwidth;
    assert!(
        rel < 0.15,
        "bagged h = {} vs full-data h = {} (relative gap {:.3} exceeds the \
         documented 15% tolerance)",
        bagged.bandwidth,
        full.bandwidth,
        rel
    );
}

#[test]
fn median_combiner_tracks_the_full_data_answer_too() {
    let n = 50_000;
    let k = 100;
    let (x, y) = paper_dgp(n, 43);

    let full = SortedGridSearch::prefix(Epanechnikov, GridSpec::PaperDefault(k))
        .select(&x, &y)
        .unwrap();
    let bagged = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(k), 25, 2_000)
        .with_combiner(BagCombiner::Median)
        .with_seed(43)
        .select(&x, &y)
        .unwrap();

    let rel = (bagged.bandwidth - full.bandwidth).abs() / full.bandwidth;
    assert!(
        rel < 0.15,
        "median-combined bagged h = {} vs full-data h = {} (relative gap {rel:.3})",
        bagged.bandwidth,
        full.bandwidth
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Bagging with r = n and B = 1 is bit-identical to the underlying
    /// strategy, for every engine the grid search offers.
    #[test]
    fn prop_full_size_single_bag_is_the_underlying_strategy(
        seed in 0u64..1_000,
        n in 20usize..200,
        k in 5usize..40,
    ) {
        let (x, y) = paper_dgp(n, seed);
        for strategy in [Strategy::SortedSweep, Strategy::PrefixMoments] {
            let direct = SortedGridSearch::new(Epanechnikov, GridSpec::PaperDefault(k))
                .with_strategy(strategy)
                .select(&x, &y)
                .unwrap();
            let bagged = BaggedSelector::new(Epanechnikov, GridSpec::PaperDefault(k), 1, n)
                .with_strategy(strategy)
                .with_seed(seed)
                .select(&x, &y)
                .unwrap();
            prop_assert_eq!(bagged.bandwidth, direct.bandwidth);
            prop_assert_eq!(bagged.score, direct.score);
            prop_assert_eq!(bagged.evaluations, direct.evaluations);
        }
    }
}
