//! Convenience re-exports of the most commonly used items.

pub use crate::ci::{confidence_band, ConfidenceBand};
pub use crate::cv::{
    cv_profile_naive, cv_profile_naive_par, cv_profile_prefix, cv_profile_prefix_par,
    cv_profile_sorted, cv_profile_sorted_par, CvOptimum, CvProfile, SlidingWindowSelector,
};
pub use crate::density::{Kde, LscvSelector};
pub use crate::error::{Error, Result};
pub use crate::estimate::{
    BinnedNadarayaWatson, FittedCurve, KnnRegression, LocalLinear, NadarayaWatson,
    RegressionEstimator,
};
pub use crate::grid::BandwidthGrid;
pub use crate::kernels::{
    Cosine, Epanechnikov, Gaussian, Kernel, PolynomialKernel, Quartic, Triangular, Triweight,
    Uniform,
};
pub use crate::select::{
    select_bandwidth, BagCombiner, BagEngine, BaggedSelection, BaggedSelector, BagOutcome,
    BandwidthSelector, GridSpec, NaiveGridSearch, NumericCvSelector, NumericMethod,
    RuleOfThumbSelector, Selection, SortedGridSearch, Strategy, ZoomGridSearch,
};
