//! The benchmark's own arithmetic: percentiles, histogram shares and the
//! layer ladder's self-time subtraction.

use motor_obs::HistSnapshot;

/// Samples a tail percentile needs strictly beyond it before it is
/// reported.
pub const MIN_BEYOND: u64 = 10;

/// Sub-bucket bits of [`Durations`]: values below `2^SUB_BITS` ns are
/// exact, larger ones fall in buckets `2^-(SUB_BITS-1)` of their size wide.
const SUB_BITS: u32 = 10;
/// Largest recorded duration: about 68 s.
const MAX_EXP: u32 = 36;
const HALF: usize = 1 << (SUB_BITS - 1);
const BUCKETS: usize = (1 << SUB_BITS) + (MAX_EXP - SUB_BITS + 1) as usize * HALF;

/// Durations in a fixed-size log-linear histogram (0.2% resolution), so a
/// run's memory does not grow with the number of ops it times.
#[derive(Debug, Clone, PartialEq)]
pub struct Durations {
    counts: Vec<u64>,
    n: u64,
    sum_ns: u128,
}

impl Default for Durations {
    fn default() -> Durations {
        Durations {
            counts: vec![0; BUCKETS],
            n: 0,
            sum_ns: 0,
        }
    }
}

fn bucket_of(ns: u64) -> usize {
    let ns = ns.min((1u64 << (MAX_EXP + 1)) - 1);
    if ns < 1 << SUB_BITS {
        return ns as usize;
    }
    let e = 63 - ns.leading_zeros();
    let sub = (ns >> (e - (SUB_BITS - 1))) as usize & (HALF - 1);
    (1 << SUB_BITS) + (e - SUB_BITS) as usize * HALF + sub
}

/// `[low, high)` of bucket `b`, in ns.
fn bounds_of(b: usize) -> (f64, f64) {
    if b < 1 << SUB_BITS {
        return (b as f64, b as f64 + 1.0);
    }
    let k = b - (1 << SUB_BITS);
    let e = (k / HALF) as u32 + SUB_BITS;
    let width = (1u64 << (e - (SUB_BITS - 1))) as f64;
    let low = (1u64 << e) as f64 + (k % HALF) as f64 * width;
    (low, low + width)
}

impl Durations {
    pub fn record_ns(&mut self, ns: u64) {
        self.counts[bucket_of(ns)] += 1;
        self.n += 1;
        self.sum_ns += ns as u128;
    }

    pub fn merge(&mut self, other: &Durations) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
        self.sum_ns += other.sum_ns;
    }

    pub fn count(&self) -> u64 {
        self.n
    }

    pub fn sum_ns(&self) -> u128 {
        self.sum_ns
    }

    /// The nearest-rank `p` quantile in µs, placed inside its bucket by
    /// rank so that the estimate moves smoothly with the data.
    pub fn quantile_us(&self, p: f64) -> f64 {
        assert!(self.n > 0, "quantile of no samples");
        let target = ((p * self.n as f64).ceil() as u64).clamp(1, self.n);
        let mut before = 0;
        for (b, &c) in self.counts.iter().enumerate() {
            if c > 0 && before + c >= target {
                let (low, high) = bounds_of(b);
                let frac = ((target - before) as f64 - 0.5) / c as f64;
                return (low + (high - low) * frac) / 1e3;
            }
            before += c;
        }
        unreachable!("target rank within the count")
    }
}

/// Samples that lie strictly beyond the nearest-rank `p` quantile.
pub fn beyond(n: u64, p: f64) -> u64 {
    n - ((p * n as f64).ceil() as u64).clamp(1, n.max(1))
}

/// A timing summary: median, and p99 only when at least [`MIN_BEYOND`]
/// samples lie beyond it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: u64,
    pub p50: f64,
    pub p99: Option<f64>,
}

pub fn summarize(d: &Durations) -> Option<Summary> {
    if d.n == 0 {
        return None;
    }
    let p99 = (beyond(d.n, 0.99) >= MIN_BEYOND).then(|| d.quantile_us(0.99));
    Some(Summary {
        n: d.n,
        p50: d.quantile_us(0.5),
        p99,
    })
}

/// Median of `values` (any order); mean of the middle two for even counts.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    let m = s.len() / 2;
    if s.len() % 2 == 1 {
        s[m]
    } else {
        (s[m - 1] + s[m]) / 2.0
    }
}

/// Share of a log2 histogram's samples above `threshold` (a power of
/// two). Bucket `k` holds values in `(2^(k-1), 2^k]`, so every value in
/// bucket `k` exceeds `threshold` exactly when `2^(k-1) >= threshold`.
pub fn share_above(h: &HistSnapshot, threshold: u64) -> f64 {
    assert!(
        threshold.is_power_of_two(),
        "threshold must be a power of two"
    );
    let first = threshold.trailing_zeros() as usize + 1;
    let total = h.count();
    if total == 0 {
        return 0.0;
    }
    let above: u64 = h.buckets.iter().skip(first).sum();
    above as f64 / total as f64
}

/// Self time of each ladder rung: its p50 minus the p50 of the rung below;
/// the bottom rung's self time is its own p50. Negative results are kept:
/// they are findings, not noise to clamp away.
pub fn ladder_self(p50s: &[(&'static str, f64)]) -> Vec<(&'static str, f64)> {
    let mut below = 0.0;
    p50s.iter()
        .map(|&(name, p50)| {
            let own = p50 - below;
            below = p50;
            (name, own)
        })
        .collect()
}

/// `num / den`, or 0 when nothing was counted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use motor_obs::HIST_BUCKETS;

    fn durations(values_ns: impl IntoIterator<Item = u64>) -> Durations {
        let mut d = Durations::default();
        for v in values_ns {
            d.record_ns(v);
        }
        d
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 999 samples leave 9 beyond the p99 rank; 1000 leave 10.
        let s = summarize(&durations(1..=999)).unwrap();
        assert_eq!(s.n, 999);
        assert_eq!(s.p99, None);
        let s = summarize(&durations(1..=1000)).unwrap();
        assert_eq!(s.p99, Some(0.9905));
        assert_eq!(s.p50, 0.5005);
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(summarize(&Durations::default()), None);
    }

    #[test]
    fn quantiles_hold_their_resolution_across_the_range() {
        for v in [1_500u64, 5_000, 87_000, 1_600_000, 3_000_000_000] {
            let d = durations([v]);
            let got = d.quantile_us(0.5) * 1e3;
            assert!((got - v as f64).abs() / (v as f64) < 2e-3, "{v} read {got}");
        }
        let mut a = durations([10, 20]);
        a.merge(&durations([30]));
        assert_eq!(a.count(), 3);
        assert_eq!(a.sum_ns(), 60);
        assert_eq!(a.quantile_us(0.5), 0.0205);
    }

    #[test]
    fn buckets_tile_the_range() {
        let mut prev_high = 0.0;
        for b in 0..BUCKETS {
            let (low, high) = bounds_of(b);
            assert_eq!(low, prev_high, "bucket {b}");
            assert_eq!(bucket_of(low as u64), b);
            prev_high = high;
        }
    }

    #[test]
    fn share_above_counts_whole_buckets_past_the_threshold() {
        let mut buckets = [0u64; HIST_BUCKETS];
        buckets[16] = 6; // (2^15, 2^16]: not above 2^16
        buckets[17] = 3; // (2^16, 2^17]: above
        buckets[20] = 1;
        let h = HistSnapshot { buckets };
        assert!((share_above(&h, 1 << 16) - 0.4).abs() < 1e-12);
        assert_eq!(share_above(&h, 1 << 21), 0.0);
        let empty = HistSnapshot {
            buckets: [0; HIST_BUCKETS],
        };
        assert_eq!(share_above(&empty, 1 << 16), 0.0);
    }

    #[test]
    fn ladder_self_time_subtracts_the_rung_below_and_keeps_negatives() {
        let got = ladder_self(&[("pal", 2.0), ("mpc", 4.5), ("core", 4.25), ("api", 5.0)]);
        assert_eq!(
            got,
            vec![("pal", 2.0), ("mpc", 2.5), ("core", -0.25), ("api", 0.75)]
        );
    }
}
