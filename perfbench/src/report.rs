//! What a workload hands back to `main`, and the end-to-end statistics
//! every workload derives the same way.

use crate::stats::{median, overhead_pct, percentile};
use aabft_matrix::Matrix;
use std::collections::BTreeMap;
use std::time::Instant;

/// Length of the windows throughput is measured over.
pub const WINDOW_S: f64 = 1.0;

/// The window `t` falls in, counting from `start`.
pub fn window(start: Instant, t: Instant) -> u64 {
    (t.saturating_duration_since(start).as_secs_f64() / WINDOW_S) as u64
}

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Measured {
    /// Operations issued in the timed window.
    pub attempted: u64,
    /// Operations whose output failed its check.
    pub failed: u64,
    /// Run-level checks that are not tied to one operation (exact counts
    /// repeating, phase spans adding up) and whether they held.
    pub checks: Vec<(&'static str, bool)>,
    /// Metric values by name (end-to-end and per-layer alike).
    pub values: Vec<(&'static str, f64)>,
    /// Run facts printed next to the result (thread budget, sample counts).
    pub info: Vec<(&'static str, String)>,
}

/// Timings of one group of operations: the whole run, or the traced or
/// untraced half of a `--trace 1` run.
#[derive(Debug, Default)]
pub struct Timings {
    /// Latency of each protected operation, ms.
    pub latency_ms: Vec<f64>,
    /// Time of each plain counterpart, ms.
    pub plain_ms: Vec<f64>,
    /// Protected minus plain, per pair, ms.
    pub tax_ms: Vec<f64>,
    /// Per one-second window of the run: work units completed
    /// (multiplies, requests or fault trials) and the seconds they took.
    pub windows: BTreeMap<u64, (f64, f64)>,
}

impl Timings {
    /// Records one protected/plain pair.
    pub fn pair(&mut self, protected_ms: f64, plain_ms: f64) {
        self.plain_ms.push(plain_ms);
        self.tax_ms.push(protected_ms - plain_ms);
    }

    /// Counts `ops` work units done in `seconds` during window `window`.
    pub fn count(&mut self, window: u64, ops: f64, seconds: f64) {
        let w = self.windows.entry(window).or_default();
        w.0 += ops;
        w.1 += seconds;
    }

    /// Throughput as the median over windows of each window's rate: a
    /// stall of a few seconds moves it no more than it moves the p50.
    fn throughput(&self) -> f64 {
        let rates: Vec<f64> = self
            .windows
            .values()
            .filter(|w| w.1 > 0.0)
            .map(|&(ops, s)| ops / s)
            .collect();
        median(&rates)
    }

    /// The end-to-end metrics this group gives (all but `setup_s`).
    pub fn end_to_end(&self) -> [(&'static str, f64); 5] {
        [
            ("latency_ms_p50", median(&self.latency_ms)),
            ("latency_ms_p90", percentile(&self.latency_ms, 0.9)),
            ("throughput_ops_s", self.throughput()),
            ("tax_ms_p50", median(&self.tax_ms)),
            ("plain_ms_p50", median(&self.plain_ms)),
        ]
    }

    /// The tracing overhead on each end-to-end metric, in percent of the
    /// untraced value.
    pub fn overhead_vs(&self, untraced: &Timings) -> Vec<(&'static str, f64)> {
        let names = [
            "trace_overhead_latency_p50_pct",
            "trace_overhead_latency_p90_pct",
            "trace_overhead_throughput_pct",
            "trace_overhead_tax_pct",
            "trace_overhead_plain_pct",
        ];
        names
            .into_iter()
            .zip(self.end_to_end().iter().zip(untraced.end_to_end()))
            .map(|(name, (&(_, t), (_, u)))| (name, overhead_pct(t, u)))
            .collect()
    }
}

/// Runs both sides of a protected/plain pair, protected first when
/// `protected_first`, so neither side always inherits the other's caches.
pub fn paired<P, F>(
    protected_first: bool,
    protected: impl FnOnce() -> P,
    plain: impl FnOnce() -> F,
) -> (P, F) {
    if protected_first {
        let p = protected();
        (p, plain())
    } else {
        let f = plain();
        (protected(), f)
    }
}

/// Bitwise equality of two matrices (shape and every element's bits).
pub fn bit_identical(a: &Matrix<f64>, b: &Matrix<f64>) -> bool {
    a.shape() == b.shape()
        && a.as_slice()
            .iter()
            .zip(b.as_slice())
            .all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A seeded U[-1, 1] square matrix.
pub fn uniform(n: usize, rng: &mut rand::rngs::StdRng) -> Matrix<f64> {
    aabft_matrix::gen::uniform(n, n, -1.0, 1.0, rng)
}

/// Splits a workload seed into independent per-purpose seeds
/// (SplitMix64 finaliser).
pub fn derive_seed(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Runs `setup` `reps` times and returns the last result with the median
/// wall time in seconds: `setup_s`, the untimed prefix (inputs, host
/// references, construction, warm-up). Each discarded instance goes to
/// `teardown`, untimed, before the next set-up starts, so every set-up
/// starts alike and none leaves work running behind the measurement.
pub fn repeated_setup<T>(
    reps: usize,
    mut setup: impl FnMut() -> T,
    mut teardown: impl FnMut(T),
) -> (T, f64) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        if let Some(previous) = last.take() {
            teardown(previous);
        }
        let t = std::time::Instant::now();
        last = Some(setup());
        times.push(t.elapsed().as_secs_f64());
    }
    (last.expect("at least one set-up"), median(&times))
}
