//! The harness's own statistics: raw samples, exact nearest-rank
//! quantiles, and a calibrated timer for sub-microsecond ledger calls.
//!
//! Every timing keeps its raw samples; quantiles are computed exactly
//! from them (no histogram buckets). A tail quantile is only named as
//! such when at least [`TAIL_SUPPORT`] samples lie beyond it —
//! otherwise [`Samples::tail`] falls back to the highest percentile
//! the sample supports and says which one it used.

use std::hint::black_box;
use std::time::Instant;

/// Samples that must lie strictly beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// Exact nearest-rank quantile of `sorted` (ascending): the smallest
/// value such that at least `q * n` samples are `<=` it. `q` is
/// clamped to `[0, 1]`; `q = 0` gives the minimum. `None` when empty.
pub fn nearest_rank(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let n = sorted.len();
    let q = q.clamp(0.0, 1.0);
    // Ceil with a tolerance so 0.99 * 1000 lands on rank 990, not 991
    // through floating-point noise.
    let rank = ((q * n as f64) - 1e-9).ceil().max(1.0) as usize;
    Some(sorted[rank.min(n) - 1])
}

/// Number of samples strictly above the nearest-rank `q` position
/// (the rank itself is not "beyond").
pub fn beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        return 0;
    }
    let rank = ((q.clamp(0.0, 1.0) * n as f64) - 1e-9).ceil().max(1.0) as usize;
    n - rank.min(n)
}

/// A raw sample set.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    values: Vec<f64>,
    sorted: bool,
}

/// A tail quantile together with the percentile that was actually
/// used to compute it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The quantile value.
    pub value: f64,
    /// The quantile level used, in `(0, 1]`.
    pub q: f64,
    /// True when the requested level had enough support.
    pub exact_level: bool,
}

impl Tail {
    /// `p99`, or e.g. `p97.3` when the sample was too small for p99.
    pub fn label(&self) -> String {
        let pct = self.q * 100.0;
        if (pct - pct.round()).abs() < 1e-9 {
            format!("p{}", pct.round() as u64)
        } else {
            format!("p{pct:.1}")
        }
    }
}

impl Samples {
    /// Empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
        self.sorted = false;
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Samples) {
        self.values.extend_from_slice(&other.values);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    fn sort(&mut self) {
        if !self.sorted {
            self.values.sort_by(f64::total_cmp);
            self.sorted = true;
        }
    }

    /// Exact nearest-rank quantile.
    pub fn quantile(&mut self, q: f64) -> Option<f64> {
        self.sort();
        nearest_rank(&self.values, q)
    }

    /// Median.
    pub fn median(&mut self) -> Option<f64> {
        self.quantile(0.5)
    }

    /// The `q` tail quantile if at least [`TAIL_SUPPORT`] samples lie
    /// beyond it; otherwise the highest level that has that support
    /// (rank `n - TAIL_SUPPORT`). `None` when even the median lacks
    /// support, i.e. fewer than `2 * TAIL_SUPPORT` samples.
    pub fn tail(&mut self, q: f64) -> Option<Tail> {
        let n = self.len();
        if n < 2 * TAIL_SUPPORT {
            return None;
        }
        if beyond(n, q) >= TAIL_SUPPORT {
            return Some(Tail {
                value: self.quantile(q)?,
                q,
                exact_level: true,
            });
        }
        let level = (n - TAIL_SUPPORT) as f64 / n as f64;
        Some(Tail {
            value: self.quantile(level)?,
            q: level,
            exact_level: false,
        })
    }
}

/// Cost of one `Instant::now()` pair, measured once per process: the
/// median of many back-to-back pairs, in ns. Ledger samples subtract
/// it (divided by the calls per sample).
pub fn calibrate_timer_ns() -> f64 {
    let mut s = Samples::new();
    for _ in 0..20_000 {
        let a = Instant::now();
        let b = black_box(Instant::now());
        s.push(b.duration_since(a).as_nanos() as f64);
    }
    s.median().unwrap_or(0.0)
}

/// Time `samples` batches of `k` calls each; `op(i)` is call number
/// `i` (global across batches). Returns per-call ns samples with the
/// timer cost `timer_ns` subtracted (floored at zero).
pub fn time_batched(samples: usize, k: usize, timer_ns: f64, mut op: impl FnMut(usize)) -> Samples {
    let mut out = Samples::new();
    let mut i = 0usize;
    for _ in 0..samples {
        let t = Instant::now();
        for _ in 0..k {
            op(i);
            i += 1;
        }
        let ns = t.elapsed().as_nanos() as f64;
        out.push(((ns - timer_ns) / k as f64).max(0.0));
    }
    out
}
