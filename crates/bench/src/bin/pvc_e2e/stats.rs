//! The benchmark's arithmetic: the one percentile rule, the quartile spread the
//! repeatability check uses, and the FNV digest of the generated inputs.

/// Fewest samples that must lie beyond a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `q ∈ (0, 1)` of an **ascending** sample.
///
/// Refuses (`None`) when fewer than [`MIN_SAMPLES_BEYOND`] samples lie beyond
/// the reported value: a p90 of 50 samples is the 45th of 50 and five slow
/// operations decide it, so it is not reported at all.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    (n >= rank + MIN_SAMPLES_BEYOND).then(|| sorted[rank - 1])
}

/// Sort a sample ascending (latencies are finite by construction).
pub fn sorted(mut values: Vec<f64>) -> Vec<f64> {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
    values
}

/// Plain median (mean of the two middle values for an even count). Used for
/// values that are not latencies of operations: set-up repetitions and the
/// per-run values the repeat mode compares.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values.to_vec());
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The three quartile cut points, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does (the "exclusive" method), because
/// that is what the acceptance procedure applies to the ten runs.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let v = sorted(values.to_vec());
    let ld = v.len();
    assert!(ld >= 2, "quartiles need at least two values");
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    out
}

/// Inter-quartile distance as a share of the median.
pub fn relative_spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    (q3 - q1) / q2
}

/// FNV-1a, 64 bit: the digest over everything the seed generated.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank_and_refuses_thin_tails() {
        let sample: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&sample, 0.50), Some(50.0));
        assert_eq!(percentile(&sample, 0.90), Some(90.0));
        // p99 of 100 samples has one sample beyond it.
        assert_eq!(percentile(&sample, 0.99), None);
        // Exactly ten beyond is the boundary: rank 90 of 100 passes, of 99 fails.
        assert_eq!(percentile(&sample[..99], 0.90), None);
        assert_eq!(percentile(&sample[..20], 0.50), Some(10.0));
        assert_eq!(percentile(&sample[..19], 0.50), None);
        assert_eq!(percentile(&[], 0.5), None);
        let big: Vec<f64> = (1..=1100).map(f64::from).collect();
        assert_eq!(percentile(&big, 0.99), Some(1089.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1, 4, 1, 5], n=4)
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), [1.0, 3.0, 4.5]);
        assert!((relative_spread(&ten) - 1.0).abs() < 1e-12);
        assert_eq!(median(&ten), 5.5);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        let mut h = Fnv::default();
        h.bytes(b"a");
        assert_eq!(h.0, 0xaf63_dc4c_8601_ec8c);
        let mut h = Fnv::default();
        h.bytes(b"foobar");
        assert_eq!(h.0, 0x8594_4171_f739_67e8);
    }
}
