//! Solve results.

use crate::VarId;

/// Outcome classification of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SolveStatus {
    /// An optimal solution was found and proven.
    Optimal,
    /// The feasible region is empty.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

/// The result of solving a [`Model`](crate::Model).
///
/// When [`status`](Solution::status) is not [`SolveStatus::Optimal`] the
/// variable values are meaningless and [`Solution::objective`] panics.
#[derive(Debug, Clone)]
pub struct Solution {
    status: SolveStatus,
    values: Vec<f64>,
    objective: Option<f64>,
}

impl Solution {
    pub(crate) fn optimal(values: Vec<f64>, objective: f64) -> Self {
        Self {
            status: SolveStatus::Optimal,
            values,
            objective: Some(objective),
        }
    }

    pub(crate) fn infeasible() -> Self {
        Self {
            status: SolveStatus::Infeasible,
            values: Vec::new(),
            objective: None,
        }
    }

    pub(crate) fn unbounded() -> Self {
        Self {
            status: SolveStatus::Unbounded,
            values: Vec::new(),
            objective: None,
        }
    }

    /// The outcome classification.
    pub fn status(&self) -> SolveStatus {
        self.status
    }

    /// True if an optimum was found.
    pub fn is_optimal(&self) -> bool {
        self.status == SolveStatus::Optimal
    }

    /// The optimal objective value.
    ///
    /// # Panics
    ///
    /// Panics if the solve did not end with [`SolveStatus::Optimal`].
    pub fn objective(&self) -> f64 {
        self.objective
            .expect("objective only defined for optimal solutions")
    }

    /// The value of a variable in the optimum.
    ///
    /// # Panics
    ///
    /// Panics if the solve was not optimal or the id is out of range.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.0]
    }

    /// The value of a binary/integer variable rounded to the nearest `i64`.
    ///
    /// # Panics
    ///
    /// Panics if the solve was not optimal or the id is out of range.
    pub fn int_value(&self, var: VarId) -> i64 {
        self.values[var.0].round() as i64
    }

    /// The dense assignment (index = variable insertion order).
    pub fn values(&self) -> &[f64] {
        &self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_accessors() {
        let s = Solution::optimal(vec![1.0, 0.25], 4.5);
        assert!(s.is_optimal());
        assert_eq!(s.objective(), 4.5);
        assert_eq!(s.value(VarId(1)), 0.25);
        assert_eq!(s.int_value(VarId(0)), 1);
    }

    #[test]
    #[should_panic(expected = "optimal")]
    fn objective_panics_when_infeasible() {
        let s = Solution::infeasible();
        let _ = s.objective();
    }

    #[test]
    fn status_flags() {
        assert_eq!(Solution::unbounded().status(), SolveStatus::Unbounded);
        assert_eq!(Solution::infeasible().status(), SolveStatus::Infeasible);
        assert!(!Solution::infeasible().is_optimal());
    }
}
