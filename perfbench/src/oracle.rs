//! Answer checks. Every comparison is exact (bits or grid indices) except
//! the GPU programs', whose single-precision sweep may land one grid step
//! from the double-precision reference — the `memory_limit` study's rule.

/// One operation's answer: the selected bandwidth(s), `None` when the call
/// returned an error (counted as a failed operation, never compared).
pub type Answer = Option<Vec<f64>>;

/// `got` must be bit-for-bit `want`.
pub fn same_bits(what: &str, got: f64, want: f64) -> Result<(), String> {
    if got.to_bits() == want.to_bits() {
        Ok(())
    } else {
        Err(format!("{what}: got {got:?}, oracle {want:?}"))
    }
}

/// Every component of `got` must be bit-for-bit the same as `want`'s.
pub fn same_vec_bits(what: &str, got: &[f64], want: &[f64]) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!(
            "{what}: {} values, oracle has {}",
            got.len(),
            want.len()
        ));
    }
    got.iter()
        .zip(want)
        .try_for_each(|(&g, &w)| same_bits(what, g, w))
}

/// `got` may differ from `want` by at most one grid step (plus the f32
/// rounding of a grid value, far below one step).
pub fn within_one_step(what: &str, got: f64, want: f64, step: f64) -> Result<(), String> {
    if (got - want).abs() <= step * (1.0 + 1e-6) {
        Ok(())
    } else {
        Err(format!(
            "{what}: got {got:?}, oracle {want:?}, more than one step {step:?} apart"
        ))
    }
}

/// A stream optimum must match the oracle's grid index and bandwidth bits.
pub fn same_optimum(what: &str, got: (usize, f64), want: (usize, f64)) -> Result<(), String> {
    if got.0 != want.0 {
        return Err(format!("{what}: grid index {}, oracle {}", got.0, want.0));
    }
    same_bits(what, got.1, want.1)
}

/// Holds the first cycle's answers; every later cycle must repeat them bit
/// for bit, since each cycle replays the same inputs.
#[derive(Default)]
pub struct Repeat {
    first: Option<Vec<Answer>>,
    mismatch: Option<String>,
}

impl Repeat {
    /// Records one cycle's answers.
    pub fn record(&mut self, answers: Vec<Answer>) {
        let Some(first) = &self.first else {
            self.first = Some(answers);
            return;
        };
        if self.mismatch.is_some() {
            return;
        }
        for (i, (a, b)) in first.iter().zip(&answers).enumerate() {
            let same = match (a, b) {
                (Some(a), Some(b)) => same_vec_bits("", a, b).is_ok(),
                (None, None) => true,
                _ => false,
            };
            if !same {
                self.mismatch = Some(format!(
                    "answer {i} changed between cycles: {a:?} then {b:?}"
                ));
                return;
            }
        }
    }

    /// The first cycle's answers, or the reason they cannot be trusted.
    pub fn answers(&self) -> Result<&[Answer], String> {
        if let Some(m) = &self.mismatch {
            return Err(m.clone());
        }
        self.first
            .as_deref()
            .ok_or_else(|| "no cycle ran".to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn next_ulp(v: f64) -> f64 {
        f64::from_bits(v.to_bits() + 1)
    }

    #[test]
    fn bit_comparison_rejects_one_ulp() {
        let h = 0.123_456_789;
        assert!(same_bits("h", h, h).is_ok());
        assert!(same_bits("h", next_ulp(h), h).is_err());
        assert!(same_bits("h", h, next_ulp(h)).is_err());
    }

    #[test]
    fn vector_comparison_rejects_one_ulp_in_any_component() {
        let want = [0.05, 0.2];
        assert!(same_vec_bits("hs", &want, &want).is_ok());
        assert!(same_vec_bits("hs", &[next_ulp(0.05), 0.2], &want).is_err());
        assert!(same_vec_bits("hs", &[0.05, next_ulp(0.2)], &want).is_err());
        assert!(same_vec_bits("hs", &[0.05], &want).is_err());
    }

    #[test]
    fn optimum_comparison_rejects_one_index_or_one_ulp() {
        let want = (7, 0.031);
        assert!(same_optimum("s", want, want).is_ok());
        assert!(same_optimum("s", (8, 0.031), want).is_err());
        assert!(same_optimum("s", (6, 0.031), want).is_err());
        assert!(same_optimum("s", (7, next_ulp(0.031)), want).is_err());
    }

    #[test]
    fn grid_step_tolerance_rejects_one_index_past_it() {
        let grid: Vec<f64> = (1..=100).map(|i| f64::from(i) * 0.01).collect();
        let step = 0.01;
        let want = grid[40];
        // An f32 device answer one index away is inside the rule...
        assert!(within_one_step("gpu", f64::from(grid[41] as f32), want, step).is_ok());
        assert!(within_one_step("gpu", f64::from(grid[39] as f32), want, step).is_ok());
        // ...one index further is not.
        assert!(within_one_step("gpu", grid[42], want, step).is_err());
        assert!(within_one_step("gpu", grid[38], want, step).is_err());
    }

    #[test]
    fn repeat_flags_a_changed_or_failed_answer() {
        let mut r = Repeat::default();
        r.record(vec![Some(vec![0.5]), None]);
        r.record(vec![Some(vec![0.5]), None]);
        assert!(r.answers().is_ok());
        r.record(vec![Some(vec![next_ulp(0.5)]), None]);
        assert!(r.answers().is_err());

        let mut r = Repeat::default();
        r.record(vec![Some(vec![0.5])]);
        r.record(vec![None]);
        assert!(r.answers().is_err());
        assert!(Repeat::default().answers().is_err());
    }
}
