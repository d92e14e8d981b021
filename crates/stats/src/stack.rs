//! Share arithmetic for stacked breakdowns (CPI / slot-loss stacks).
//!
//! A slot-accounting stack is a vector of category counts that sums to a
//! known budget (cycles × stage width). Rendering one as a table needs the
//! same two operations everywhere: each category's share of the stack, and
//! a percentage formatted to a fixed precision. Centralizing them keeps
//! every explain table on identical rounding rules.

/// Fraction of `total` each count represents; all zeros when the stack is
/// empty (no slots observed is rendered as 0%, not NaN).
pub fn shares(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    if total == 0 {
        return vec![0.0; counts.len()];
    }
    counts.iter().map(|&c| c as f64 / total as f64).collect()
}

/// Render a share as a fixed-width percentage cell, e.g. `12.3%`.
pub fn percent_cell(share: f64) -> String {
    format!("{:.1}%", 100.0 * share)
}

/// Index of the largest count (ties go to the earliest category); `None`
/// for an all-zero stack.
pub fn dominant(counts: &[u64]) -> Option<usize> {
    let (idx, &max) = counts
        .iter()
        .enumerate()
        .max_by_key(|&(i, &c)| (c, std::cmp::Reverse(i)))?;
    (max > 0).then_some(idx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shares_sum_to_one() {
        let s = shares(&[1, 3, 4]);
        assert!((s.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert_eq!(s[2], 0.5);
    }

    #[test]
    fn empty_stack_has_zero_shares() {
        assert_eq!(shares(&[0, 0]), vec![0.0, 0.0]);
    }

    #[test]
    fn percent_cell_has_one_decimal() {
        assert_eq!(percent_cell(0.125), "12.5%");
    }

    #[test]
    fn dominant_prefers_earliest_on_ties() {
        assert_eq!(dominant(&[0, 5, 5, 1]), Some(1));
        assert_eq!(dominant(&[0, 0]), None);
        assert_eq!(dominant(&[]), None);
    }
}
