//! Order statistics, the tail-percentile rule and the seeded generator.

/// Median of `v` (mean of the two middle values for an even count);
/// 0 for an empty slice.
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// `num / den`, or 0 when `den` is not positive (a layer the workload
/// did not reach).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Percentiles the tail rule may report, in tenths of a percent,
/// highest first.
const TAIL_LADDER: [usize; 6] = [999, 990, 950, 900, 750, 500];

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// A tail latency: the percentile reported, its value and how many
/// samples it rests on.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// Percentile reported (one of 99.9, 99, 95, 90, 75, 50).
    pub pct: f64,
    /// Nearest-rank value at that percentile.
    pub value: f64,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
    /// Samples in total.
    pub samples: usize,
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its nearest rank. With fewer than 20 samples no rung
/// qualifies and the median is reported, with its (short) count.
pub fn tail(v: &[f64]) -> Tail {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    let at = |tenths: usize| {
        // Nearest rank: the smallest rank covering the percentile.
        let rank = (tenths * n).div_ceil(1000).clamp(1, n.max(1));
        Tail {
            pct: tenths as f64 / 10.0,
            value: s.get(rank - 1).copied().unwrap_or(0.0),
            beyond: n.saturating_sub(rank),
            samples: n,
        }
    };
    TAIL_LADDER
        .iter()
        .map(|&p| at(p))
        .find(|t| t.beyond >= TAIL_MIN_BEYOND)
        .unwrap_or_else(|| at(500))
}

/// SplitMix64: the benchmark's only source of randomness, so a seed
/// fixes every generated input.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed` mixed with a stream label, so independent
    /// draws (per circuit, per client) do not share a sequence.
    pub fn new(seed: u64, stream: &str) -> Self {
        let mut h = seed ^ 0x9E37_79B9_7F4A_7C15;
        for b in stream.bytes() {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3);
        }
        SplitMix(h)
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index below `n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&v);
        assert_eq!(
            (t.pct, t.value, t.beyond, t.samples),
            (99.0, 990.0, 10, 1000)
        );

        // 999 samples: p99 has rank 990 and only 9 beyond, so p95 it is.
        let t = tail(&v[..999]);
        assert_eq!((t.pct, t.value, t.beyond), (95.0, 950.0, 49));

        // 100 samples: p95 leaves 5 beyond; p90 leaves exactly 10.
        let t = tail(&v[..100]);
        assert_eq!((t.pct, t.value, t.beyond), (90.0, 90.0, 10));

        // 10000 samples reach p99.9.
        let v: Vec<f64> = (1..=10_000).map(f64::from).collect();
        assert_eq!(tail(&v).pct, 99.9);
    }

    #[test]
    fn tail_is_order_independent_and_falls_back_to_median() {
        let mut v: Vec<f64> = (1..=200).map(f64::from).collect();
        v.reverse();
        assert_eq!(tail(&v).value, 190.0);
        let t = tail(&[5.0, 1.0, 3.0]);
        assert_eq!((t.pct, t.value, t.beyond, t.samples), (50.0, 3.0, 1, 3));
    }

    #[test]
    fn splitmix_streams_repeat_and_differ() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let b: Vec<u64> = (0..4)
            .map({
                let mut r = SplitMix::new(7, "x");
                move |_| r.next_u64()
            })
            .collect();
        let mut other = SplitMix::new(7, "y");
        assert_eq!(a, b);
        assert_ne!(a[0], other.next_u64());
    }
}
