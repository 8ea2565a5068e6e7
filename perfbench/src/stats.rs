//! Summary statistics for benchmark samples.
//!
//! Three kinds of aggregate are used and never mixed:
//!
//! * [`fastest`] folds the repetitions of one measured piece of work
//!   (one value per repetition, e.g. one `run_s` per simulation of an
//!   instance). The work is identical on every repetition, so only the
//!   host can slow one down: on a shared host, other tenants' load
//!   comes and goes over seconds, and the fastest repetition repeats
//!   from run to run where the median does not;
//! * [`median`] folds repeated set-ups;
//! * [`Percentile`] reads a per-call latency distribution by nearest
//!   rank, and only when at least [`MIN_TAIL`] samples lie beyond the
//!   rank. No percentile is ever taken over means of segments.

/// Samples that must lie strictly beyond a percentile's rank before
/// the percentile is reported.
pub const MIN_TAIL: usize = 10;

/// A nearest-rank percentile with the sample count it was read from.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Percentile {
    /// The percentile's value, `None` when too few samples lie beyond
    /// its rank.
    pub value: Option<f64>,
    /// Samples in the distribution.
    pub samples: usize,
}

impl Percentile {
    /// The value, or 0 when the percentile could not be reported.
    #[must_use]
    pub fn or_zero(self) -> f64 {
        self.value.unwrap_or(0.0)
    }
}

/// A fixed-size log-linear histogram of non-negative integer samples
/// (nanoseconds, queue depths). Values below 2048 are kept exactly,
/// larger ones to 11 significant bits (within 0.1%), so memory use
/// does not grow with the number of samples and percentiles read by
/// nearest rank are exact to that resolution.
#[derive(Clone, Debug)]
pub struct Hist {
    counts: Vec<u64>,
    n: usize,
}

/// Significant bits [`Hist`] keeps; values below `SUB` are exact.
const SUB_BITS: u32 = 11;
const SUB: u64 = 1 << SUB_BITS;

impl Default for Hist {
    fn default() -> Self {
        Hist {
            counts: vec![0; (SUB + (64 - u64::from(SUB_BITS)) * SUB / 2) as usize],
            n: 0,
        }
    }
}

impl Hist {
    fn bucket(v: u64) -> usize {
        if v < SUB {
            return v as usize;
        }
        // v has `bits` significant bits; keep the top SUB_BITS of them.
        let bits = 64 - v.leading_zeros();
        let shift = bits - SUB_BITS;
        let top = v >> shift; // in [SUB/2, SUB)
        (SUB + u64::from(shift - 1) * (SUB / 2) + (top - SUB / 2)) as usize
    }

    fn value(bucket: usize) -> u64 {
        let b = bucket as u64;
        if b < SUB {
            return b;
        }
        let shift = (b - SUB) / (SUB / 2) + 1;
        let top = (b - SUB) % (SUB / 2) + SUB / 2;
        top << shift
    }

    /// Adds one sample.
    pub fn record(&mut self, v: u64) {
        self.counts[Self::bucket(v)] += 1;
        self.n += 1;
    }

    /// Forgets every sample, keeping the buckets' memory.
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.n = 0;
    }

    /// Samples recorded.
    #[must_use]
    pub fn len(&self) -> usize {
        self.n
    }

    /// True when nothing was recorded.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Adds every sample of `other`.
    pub fn merge(&mut self, other: &Hist) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.n += other.n;
    }

    /// Nearest-rank percentile `p` (0 < p ≤ 100): the smallest sample
    /// such that at least `p`% of all samples are at or below it.
    #[must_use]
    pub fn percentile(&self, p: f64) -> Percentile {
        let n = self.n;
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        let value = (rank >= 1 && n - rank >= MIN_TAIL).then(|| {
            let mut seen = 0;
            let bucket = self
                .counts
                .iter()
                .position(|&c| {
                    seen += c as usize;
                    seen >= rank
                })
                .unwrap_or(0);
            Self::value(bucket) as f64
        });
        Percentile { value, samples: n }
    }
}

/// Median of repetition values (mean of the middle two for an even
/// count, 0 for none).
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Least of the repetition values (0 for none).
#[must_use]
pub fn fastest(values: &[f64]) -> f64 {
    values.iter().copied().reduce(f64::min).unwrap_or(0.0)
}

/// `num / den`, or 0 when the denominator is 0.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a offset basis (the harness's delivery digest uses the same).
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
pub(crate) const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Streams formatted text into an FNV-1a digest, so a large `Debug`
/// dump is compared without being held in memory.
struct Fnv(u64);

impl std::fmt::Write for Fnv {
    fn write_str(&mut self, s: &str) -> std::fmt::Result {
        for b in s.bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
        Ok(())
    }
}

/// FNV-1a digest of a value's `Debug` dump: the equality witness for
/// table registries and outcome vectors.
#[must_use]
pub fn debug_digest<T: std::fmt::Debug + ?Sized>(value: &T) -> u64 {
    use std::fmt::Write as _;
    let mut h = Fnv(FNV_OFFSET);
    // Writing into `Fnv` cannot fail.
    let _ = write!(h, "{value:?}");
    h.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_needs_ten_samples_beyond() {
        let mut h = Hist::default();
        for v in 1..=100 {
            h.record(v);
        }
        assert_eq!(h.percentile(50.0).value, Some(50.0));
        assert_eq!(h.percentile(90.0).value, Some(90.0));
        // p99 of 100 samples has only one sample beyond it.
        assert_eq!(h.percentile(99.0).value, None);
        assert_eq!(h.percentile(99.0).samples, 100);
        for v in 101..=1000 {
            h.record(v);
        }
        assert_eq!(h.percentile(99.0).value, Some(990.0));
        assert_eq!(Hist::default().percentile(50.0).value, None);
    }

    #[test]
    fn large_values_keep_eleven_significant_bits() {
        for v in [2048u64, 2049, 4095, 123_456, 9_876_543_210, u64::MAX >> 1] {
            let back = Hist::value(Hist::bucket(v));
            assert!(
                back <= v && (v - back) as f64 <= v as f64 / 1024.0,
                "{v} -> {back}"
            );
        }
        let mut h = Hist::default();
        for v in 0..20 {
            h.record(1_000_000 + v);
        }
        let mut other = Hist::default();
        other.record(5_000_000);
        h.merge(&other);
        assert_eq!(h.len(), 21);
        assert_eq!(h.percentile(50.0).value, Some(999_936.0));
    }

    #[test]
    fn median_of_repetitions() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(fastest(&[3.0, 1.0, 2.0]), 1.0);
        assert_eq!(fastest(&[]), 0.0);
    }
}
