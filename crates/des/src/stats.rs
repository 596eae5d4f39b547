//! Run-statistics collectors: sample [`Tally`]s (Welford mean/variance).

/// Welford's online mean/variance over observed samples.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Tally {
    /// Creates an empty tally.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Records one sample.
    pub fn record(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 with fewer than 2 samples).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest sample (`+inf` if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (`-inf` if empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_mean_and_variance() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert!((t.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4; sample variance = 32/7.
        assert!((t.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 9.0);
        assert_eq!(t.count(), 8);
    }

    #[test]
    fn empty_tally_is_safe() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
    }
}
