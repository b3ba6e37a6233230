//! Summary statistics of aggregate-value distributions: expectation, variance,
//! quantiles and cumulative probabilities.
//!
//! The paper argues (following Ré & Suciu) that expected values alone can be
//! misleading for skewed distributions; the engine therefore returns *entire*
//! distributions, and this module derives summaries from them when the user wants
//! them. It is an extension beyond the paper's minimum.

use crate::dist::Dist;
use pvc_algebra::MonoidValue;

/// Summary statistics of a distribution over (finite) monoid values.
#[derive(Debug, Clone, PartialEq)]
pub struct Moments {
    /// Probability-weighted mean of the finite values.
    pub mean: f64,
    /// Probability-weighted variance of the finite values.
    pub variance: f64,
    /// Total probability mass on finite values (the rest sits on ±∞, e.g. the
    /// neutral element of MIN/MAX for an empty group).
    pub finite_mass: f64,
}

/// Compute mean / variance of the finite part of a monoid-value distribution.
///
/// Returns `None` if no finite value has positive probability.
pub fn moments(dist: &Dist<MonoidValue>) -> Option<Moments> {
    let mut mass = 0.0;
    let mut mean = 0.0;
    for (v, p) in dist.iter() {
        if let Some(x) = v.finite() {
            mass += p;
            mean += p * x as f64;
        }
    }
    if mass <= 0.0 {
        return None;
    }
    mean /= mass;
    let mut variance = 0.0;
    for (v, p) in dist.iter() {
        if let Some(x) = v.finite() {
            let d = x as f64 - mean;
            variance += (p / mass) * d * d;
        }
    }
    Some(Moments {
        mean,
        variance,
        finite_mass: mass,
    })
}

/// The expected value of the finite part (convenience wrapper around [`moments`]).
pub fn expectation(dist: &Dist<MonoidValue>) -> Option<f64> {
    moments(dist).map(|m| m.mean)
}

/// Cumulative probability `P[value ≤ threshold]` (`+0.0` when no value is).
pub fn cdf(dist: &Dist<MonoidValue>, threshold: MonoidValue) -> f64 {
    dist.iter()
        .filter(|(v, _)| **v <= threshold)
        .fold(0.0, |sum, (_, p)| sum + p)
}

/// The smallest value `v` in the support with `P[X ≤ v] ≥ q` (a `q`-quantile).
///
/// Returns `None` for an empty distribution or `q` larger than the total mass.
pub fn quantile(dist: &Dist<MonoidValue>, q: f64) -> Option<MonoidValue> {
    let mut acc = 0.0;
    for (v, p) in dist.iter() {
        acc += p;
        if acc + 1e-12 >= q {
            return Some(*v);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::MonoidValue::{Fin, PosInf};

    #[test]
    fn mean_and_variance_of_fair_die_pair() {
        let d = Dist::from_pairs((1..=6).map(|v| (Fin(v), 1.0 / 6.0)));
        let m = moments(&d).unwrap();
        assert!((m.mean - 3.5).abs() < 1e-9);
        assert!((m.variance - 35.0 / 12.0).abs() < 1e-9);
        assert!((m.finite_mass - 1.0).abs() < 1e-9);
    }

    #[test]
    fn infinite_mass_is_excluded() {
        // A MIN aggregate over a possibly-empty group: 30% chance the group is empty.
        let d = Dist::from_pairs([(Fin(10), 0.7), (PosInf, 0.3)]);
        let m = moments(&d).unwrap();
        assert!((m.mean - 10.0).abs() < 1e-9);
        assert!((m.finite_mass - 0.7).abs() < 1e-9);
        assert_eq!(expectation(&d), Some(10.0));
    }

    #[test]
    fn all_infinite_returns_none() {
        let d = Dist::from_pairs([(PosInf, 1.0)]);
        assert!(moments(&d).is_none());
        assert!(expectation(&d).is_none());
    }

    #[test]
    fn cdf_and_quantiles() {
        let d = Dist::from_pairs([(Fin(1), 0.25), (Fin(2), 0.25), (Fin(10), 0.5)]);
        assert!((cdf(&d, Fin(2)) - 0.5).abs() < 1e-12);
        assert!((cdf(&d, Fin(0)) - 0.0).abs() < 1e-12);
        assert!((cdf(&d, PosInf) - 1.0).abs() < 1e-12);
        assert_eq!(quantile(&d, 0.5), Some(Fin(2)));
        assert_eq!(quantile(&d, 0.9), Some(Fin(10)));
        assert_eq!(quantile(&Dist::empty(), 0.5), None);
    }
}
