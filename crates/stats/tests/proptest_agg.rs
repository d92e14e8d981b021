//! Property-based tests on the aggregation helpers.

use proptest::prelude::*;
use smt_stats::mean;

proptest! {
    #[test]
    fn mean_within_min_max(xs in prop::collection::vec(-1e6..1e6f64, 1..100)) {
        let m = mean(&xs);
        let lo = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(m >= lo - 1e-9 && m <= hi + 1e-9);
    }
}
