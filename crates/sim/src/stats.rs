//! Statistics collectors: tallies and time-weighted averages.
//!
//! These mirror CSIM's `table`/`qtable` reporting facilities; facilities use
//! them for utilizations, queue lengths and waiting times.

/// Streaming mean/variance/min/max over observations (Welford's algorithm).
#[derive(Debug, Clone, Default)]
pub struct Tally {
    count: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    sum: f64,
}

impl Tally {
    /// Empty tally.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one observation.
    pub fn record(&mut self, x: f64) {
        self.count += 1;
        self.sum += x;
        if self.count == 1 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        let delta = x - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Mean, or 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Population variance, or 0.0 for fewer than two observations.
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / self.count as f64
        }
    }

    /// Standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Minimum, or 0.0 when empty.
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Maximum, or 0.0 when empty.
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }
}

/// Time-weighted average of a piecewise-constant signal (queue length,
/// busy servers, …).
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    value: f64,
    last_change: f64,
    integral: f64,
    start: f64,
    max: f64,
}

impl Default for TimeWeighted {
    fn default() -> Self {
        Self::new(0.0, 0.0)
    }
}

impl TimeWeighted {
    /// Start tracking `initial` at time `start`.
    pub fn new(initial: f64, start: f64) -> Self {
        Self {
            value: initial,
            last_change: start,
            integral: 0.0,
            start,
            max: initial,
        }
    }

    /// Record that the signal changed to `value` at time `now`.
    ///
    /// # Panics
    /// Panics if `now` precedes the previous change (time must be
    /// monotone — the kernel guarantees it).
    pub fn set(&mut self, value: f64, now: f64) {
        assert!(now >= self.last_change, "TimeWeighted: time went backwards");
        self.integral += self.value * (now - self.last_change);
        self.value = value;
        self.last_change = now;
        self.max = self.max.max(value);
    }

    /// Add `delta` to the current value at time `now`.
    pub fn add(&mut self, delta: f64, now: f64) {
        let v = self.value + delta;
        self.set(v, now);
    }

    /// Current value.
    pub fn current(&self) -> f64 {
        self.value
    }

    /// Maximum value observed.
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Time-weighted mean over `[start, now]`.
    pub fn mean(&self, now: f64) -> f64 {
        let span = now - self.start;
        if span <= 0.0 {
            return self.value;
        }
        (self.integral + self.value * (now - self.last_change)) / span
    }

    /// Integral of the signal over `[start, now]`.
    pub fn integral(&self, now: f64) -> f64 {
        self.integral + self.value * (now - self.last_change)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tally_moments() {
        let mut t = Tally::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            t.record(x);
        }
        assert_eq!(t.count(), 8);
        assert_eq!(t.mean(), 5.0);
        assert_eq!(t.variance(), 4.0);
        assert_eq!(t.std_dev(), 2.0);
        assert_eq!(t.min(), 2.0);
        assert_eq!(t.max(), 9.0);
        assert_eq!(t.sum(), 40.0);
    }

    #[test]
    fn tally_empty() {
        let t = Tally::new();
        assert_eq!(t.mean(), 0.0);
        assert_eq!(t.variance(), 0.0);
    }

    #[test]
    fn time_weighted_mean() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.set(2.0, 1.0); // 0 for [0,1)
        tw.set(4.0, 3.0); // 2 for [1,3)
                          // 4 for [3,5]
        assert_eq!(tw.mean(5.0), (0.0 + 4.0 + 8.0) / 5.0);
        assert_eq!(tw.integral(5.0), 12.0);
        assert_eq!(tw.max(), 4.0);
        assert_eq!(tw.current(), 4.0);
    }

    #[test]
    fn time_weighted_add() {
        let mut tw = TimeWeighted::new(1.0, 0.0);
        tw.add(1.0, 2.0);
        tw.add(-2.0, 4.0);
        assert_eq!(tw.current(), 0.0);
        assert_eq!(tw.mean(4.0), (1.0 * 2.0 + 2.0 * 2.0) / 4.0);
    }

    #[test]
    #[should_panic(expected = "time went backwards")]
    fn time_weighted_monotonicity() {
        let mut tw = TimeWeighted::new(0.0, 0.0);
        tw.set(1.0, 5.0);
        tw.set(2.0, 4.0);
    }
}
