//! Latency summaries and medians.

use crate::ops::Rng;

/// A latency distribution reported as a median and the highest
/// percentile that still has at least ten samples beyond it (p99 when
/// there are at least 1000 samples).
#[derive(Clone, Copy, Debug, Default)]
pub struct Summary {
    pub count: usize,
    pub p50_us: f64,
    pub tail_us: f64,
    /// The percentile `tail_us` stands for, e.g. 99.0.
    pub tail_pct: f64,
}

/// Samples required beyond the reported tail percentile.
const TAIL_SAMPLES: usize = 10;

/// Nearest-rank quantile of sorted data.
pub fn nearest_rank(sorted: &[u64], q: f64) -> u64 {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// Summarize nanosecond samples (sorts them in place).
pub fn summarize(ns: &mut [u64]) -> Summary {
    if ns.is_empty() {
        return Summary::default();
    }
    ns.sort_unstable();
    let n = ns.len();
    let tail_q = if n >= 100 * TAIL_SAMPLES {
        0.99
    } else {
        (1.0 - TAIL_SAMPLES as f64 / n as f64).max(0.5)
    };
    Summary {
        count: n,
        p50_us: nearest_rank(ns, 0.5) as f64 / 1e3,
        tail_us: nearest_rank(ns, tail_q) as f64 / 1e3,
        tail_pct: tail_q * 100.0,
    }
}

/// Latency samples in memory fixed in advance: a uniform reservoir of at
/// most [`RESERVOIR`] values, written once when created, so that the
/// benchmark's own footprint (part of `rss_peak_mb`) does not grow with
/// the number of operations a run completes.
pub struct Samples {
    kept: Vec<u64>,
    len: usize,
    seen: u64,
    rng: Rng,
}

const RESERVOIR: usize = 1 << 17;

impl Samples {
    pub fn new(seed: u64) -> Samples {
        Samples {
            kept: vec![u64::MAX; RESERVOIR],
            len: 0,
            seen: 0,
            rng: Rng::new(seed),
        }
    }

    pub fn push(&mut self, ns: u64) {
        self.seen += 1;
        if self.len < RESERVOIR {
            self.kept[self.len] = ns;
            self.len += 1;
        } else {
            let j = self.rng.below(self.seen) as usize;
            if j < RESERVOIR {
                self.kept[j] = ns;
            }
        }
    }

    /// Summary of the kept samples; `count` is every sample pushed.
    pub fn summary(&mut self) -> Summary {
        let mut s = summarize(&mut self.kept[..self.len]);
        s.count = self.seen as usize;
        s
    }
}

/// Per-verb samples of traced and untraced operations, `[traced][verb]`.
pub fn verb_samples() -> [[Samples; 3]; 2] {
    std::array::from_fn(|t| std::array::from_fn(|v| Samples::new((t * 3 + v) as u64)))
}

/// Median of a non-empty list (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        return 0.0;
    }
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fast 64-bit hash of a word stream, used to compare long answers with
/// their references without storing them.
pub fn hash_words(words: impl IntoIterator<Item = u64>) -> u64 {
    words.into_iter().fold(0x243f_6a88_85a3_08d3u64, |h, w| {
        (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
    })
}

/// [`hash_words`] over a byte string, eight bytes per word.
pub fn hash_bytes(bytes: &[u8]) -> u64 {
    let chunks = bytes.chunks(8).map(|c| {
        let mut w = [0u8; 8];
        w[..c.len()].copy_from_slice(c);
        u64::from_le_bytes(w)
    });
    hash_words(std::iter::once(bytes.len() as u64).chain(chunks))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_falls_back_when_samples_are_few() {
        let mut many: Vec<u64> = (1..=2000).map(|i| i * 1000).collect();
        let s = summarize(&mut many);
        assert_eq!(s.tail_pct, 99.0);
        assert_eq!(s.tail_us, 1980.0);
        assert_eq!(s.p50_us, 1000.0);
        let mut few: Vec<u64> = (1..=200).map(|i| i * 1000).collect();
        let s = summarize(&mut few);
        assert_eq!(s.tail_pct, 95.0);
        assert_eq!(s.tail_us, 190.0);
    }

    #[test]
    fn median_and_hash() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_ne!(hash_bytes(b"OK 0.5"), hash_bytes(b"OK 0.25"));
        assert_eq!(hash_bytes(b"OK 1 2 3 4 5"), hash_bytes(b"OK 1 2 3 4 5"));
    }
}
