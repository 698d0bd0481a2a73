//! Order statistics, seed derivation and output digests.
//!
//! Percentiles use the nearest-rank rule. A tail percentile is reported
//! only when at least five samples lie beyond it, so p90 needs 50 samples.
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method), so `compare` reads spreads exactly as the
//! repeatability check computes them.

/// Nearest-rank percentile `p` (0–100] of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Fewest samples for a p90: five lie beyond it.
pub const P90_MIN_SAMPLES: usize = 50;

/// The p90 of an ascending slice, or `None` when fewer than five samples
/// would lie beyond it.
pub fn p90(sorted: &[f64]) -> Option<f64> {
    if sorted.len() < P90_MIN_SAMPLES {
        return None;
    }
    percentile(sorted, 90.0)
}

/// Median of an ascending slice (mean of the middle two for even lengths).
pub fn median(sorted: &[f64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartile of an ascending slice, by the exclusive method
/// of Python's `statistics.quantiles`. One sample gives `(x, x)`.
pub fn quartiles(sorted: &[f64]) -> Option<(f64, f64)> {
    let ld = sorted.len();
    match ld {
        0 => None,
        1 => Some((sorted[0], sorted[0])),
        _ => {
            let m = ld + 1;
            let q = |i: usize| {
                let j = (i * m / 4).clamp(1, ld - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
            };
            Some((q(1), q(3)))
        }
    }
}

/// Sorts a copy of `values` ascending.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// An independent 64-bit draw for `(seed, stream, index)`: the stateless
/// generator behind every benchmark input.
pub fn draw(seed: u64, stream: u64, index: u64) -> u64 {
    crowdkit_sim::exec::derive_seed(seed, stream, index)
}

/// FNV-1a over everything a job produced: labels, posterior bits, rows,
/// spend. Equal digests mean equal outputs, bit for bit.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds raw bytes in.
    pub fn bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
        self
    }

    /// Folds an integer in.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.bytes(&v.to_le_bytes())
    }

    /// Folds a float's exact bit pattern in.
    pub fn f64(&mut self, v: f64) -> &mut Self {
        self.u64(v.to_bits())
    }

    /// Folds a length-prefixed string in.
    pub fn str(&mut self, s: &str) -> &mut Self {
        self.u64(s.len() as u64).bytes(s.as_bytes())
    }

    /// The digest value.
    pub fn value(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p90_is_omitted_below_fifty_samples() {
        let forty_nine = sorted(&(1..=49).map(f64::from).collect::<Vec<_>>());
        assert_eq!(p90(&forty_nine), None);
        let fifty = sorted(&(1..=50).map(f64::from).collect::<Vec<_>>());
        // Nearest rank: the 45th of 50 samples, with five beyond it.
        assert_eq!(p90(&fifty), Some(45.0));
        let hundred = sorted(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(p90(&hundred), Some(90.0));
        assert_eq!(percentile(&hundred, 50.0), Some(50.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[1.0, 2.0, 3.0]), Some((1.0, 3.0)));
        assert_eq!(quartiles(&[3.0]), Some((3.0, 3.0)));
        assert_eq!(median(&ten), Some(5.5));
    }

    #[test]
    fn digest_separates_values_and_boundaries() {
        let a = Digest::default().str("ab").str("c").value();
        let b = Digest::default().str("a").str("bc").value();
        assert_ne!(a, b);
        assert_ne!(
            Digest::default().f64(0.0).value(),
            Digest::default().f64(-0.0).value()
        );
    }
}
