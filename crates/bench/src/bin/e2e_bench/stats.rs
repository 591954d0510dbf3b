//! Estimators. Every timing the benchmark reports is a median over
//! repeated cycles or passes, carried with its sample count; tails are
//! the highest percentile the sample supports. There is no best-of-N and
//! no single-shot timing anywhere in the benchmark.

use std::time::{Duration, Instant};

/// Samples beyond a percentile needed before it is reported.
const TAIL_SUPPORT: usize = 10;

/// Timing samples of one quantity, in one unit.
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<f64>);

impl Samples {
    pub fn new() -> Self {
        Self(Vec::new())
    }

    pub fn push(&mut self, v: f64) {
        self.0.push(v);
    }

    pub fn n(&self) -> usize {
        self.0.len()
    }

    pub fn values(&self) -> &[f64] {
        &self.0
    }

    pub fn median(&self) -> f64 {
        median(&self.0)
    }

    /// Nearest-rank percentile `p` in `0..=100`.
    pub fn percentile(&self, p: f64) -> f64 {
        percentile(&self.0, p)
    }

    /// The samples after the first, which was the warm-up.
    pub fn after_warm_up(&self) -> Samples {
        Samples(self.0.get(1..).unwrap_or_default().to_vec())
    }
}

impl FromIterator<f64> for Samples {
    fn from_iter<I: IntoIterator<Item = f64>>(values: I) -> Self {
        Self(values.into_iter().collect())
    }
}

fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle samples when `n` is even. NaN when
/// empty, so a phase that produced no sample can never read as a time.
pub fn median(xs: &[f64]) -> f64 {
    let v = sorted(xs);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Quartiles by the method of Python's `statistics.quantiles(xs, n=4)`
/// (exclusive), which is what the benchmark's acceptance spread uses.
pub fn quartiles(xs: &[f64]) -> Option<[f64; 3]> {
    let v = sorted(xs);
    let n = v.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..4usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile distance as a share of the median.
pub fn spread(xs: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(xs)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

/// Nearest-rank percentile `p` in `0..=100`. NaN when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let v = sorted(xs);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest percentile of the ladder that still has at least ten
/// samples beyond it, or `None` when even p50 does not. Per-mille
/// integers keep the boundary cases (n = 200, 1000) exact.
pub fn supported_tail(n: usize) -> Option<f64> {
    [999usize, 990, 950, 900, 750, 500]
        .into_iter()
        .find(|&pm| n >= samples_for_tail_pm(pm))
        .map(|pm| pm as f64 / 10.0)
}

fn samples_for_tail_pm(per_mille: usize) -> usize {
    (TAIL_SUPPORT * 1000).div_ceil(1000 - per_mille)
}

/// Samples needed for p95 to have ten samples beyond it.
pub const SAMPLES_FOR_P95: usize = 200;
/// Samples needed for p99 to have ten samples beyond it.
pub const SAMPLES_FOR_P99: usize = 1_000;

/// Times one call, in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed().as_secs_f64())
}

/// Paces one phase over the rounds of a run. Phases take turns, round
/// after round, so a disturbance of a few seconds lands on a few
/// repetitions of every phase instead of on every repetition of one.
/// The budget scales passes and cycles, never rows.
#[derive(Debug)]
pub struct Pace {
    budget: Duration,
    /// Repetitions the phase makes whatever its budget.
    min: usize,
    spent: Duration,
    done: usize,
}

impl Pace {
    pub fn new(budget: Duration, min: usize) -> Pace {
        Pace {
            budget,
            min,
            spent: Duration::ZERO,
            done: 0,
        }
    }

    /// The number of the repetition the phase is due in its turn of
    /// `round` (of `rounds`), or `None` once it has spent that many
    /// rounds' share of its budget. The first turn makes at least one
    /// repetition, the last one makes up the minimum.
    pub fn due(&self, round: usize, rounds: usize) -> Option<usize> {
        let share = self.budget.mul_f64((round + 1) as f64 / rounds as f64);
        let last = round + 1 == rounds;
        (self.spent < share || self.done == 0 || (last && self.done < self.min))
            .then_some(self.done)
    }

    /// Books a repetition that took `elapsed`, checks included.
    pub fn record(&mut self, elapsed: Duration) {
        self.spent += elapsed;
        self.done += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(
            quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]),
            Some([1.5, 4.0, 12.0])
        );
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&xs), Some(1.0));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 95.0), 95.0);
        assert_eq!(percentile(&xs, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
        assert_eq!(samples_for_tail_pm(950), SAMPLES_FOR_P95);
        assert_eq!(samples_for_tail_pm(990), SAMPLES_FOR_P99);
    }

    #[test]
    fn pace_spreads_a_budget_over_rounds_and_honours_the_minimum() {
        let turn = |pace: &mut Pace, round, rounds, cost: Duration| {
            let mut repetitions = Vec::new();
            while let Some(i) = pace.due(round, rounds) {
                repetitions.push(i);
                pace.record(cost);
            }
            repetitions
        };
        let mut pace = Pace::new(Duration::from_millis(40), 3);
        let cost = Duration::from_millis(2);
        assert_eq!(turn(&mut pace, 0, 4, cost), [0, 1, 2, 3, 4]);
        assert_eq!(turn(&mut pace, 1, 4, cost), [5, 6, 7, 8, 9]);
        // An expensive repetition eats into the following turns.
        assert_eq!(turn(&mut pace, 2, 4, Duration::from_millis(25)), [10]);
        assert_eq!(turn(&mut pace, 3, 4, cost), Vec::<usize>::new());

        let mut pace = Pace::new(Duration::ZERO, 3);
        assert_eq!(turn(&mut pace, 0, 2, cost), [0], "once whatever the budget");
        assert_eq!(turn(&mut pace, 1, 2, cost), [1, 2], "up to the minimum");
    }
}
