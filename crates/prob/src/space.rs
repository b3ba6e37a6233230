//! The probability space induced by a finite set of independent random variables
//! (§2.1, Definition 1 of the paper), and exhaustive enumeration of its samples.
//!
//! The sample space `Ω = {ν : X → S}` has one sample per total valuation of the
//! variables; its probability mass function is the product of per-variable
//! probabilities. Enumerating `Ω` is exponential in `|X|` and is used only as the
//! ground-truth baseline against which the decomposition-tree computation is verified.

use crate::dist::Dist;
use std::collections::BTreeMap;

/// A probability space induced by named independent random variables, each with a
/// sparse discrete distribution over values of type `V`.
#[derive(Debug, Clone, Default)]
pub struct ProbabilitySpace<K: Ord + Clone, V: Ord + Clone> {
    vars: BTreeMap<K, Dist<V>>,
}

/// One sample `ν ∈ Ω`: a total valuation of the variables together with its
/// probability mass `Pr(ν)`.
#[derive(Debug, Clone)]
pub struct World<K: Ord + Clone, V: Ord + Clone> {
    /// The valuation `ν : X → S`.
    pub valuation: BTreeMap<K, V>,
    /// The probability mass `Pr(ν) = Π_x P_x[ν(x)]`.
    pub probability: f64,
}

impl<K: Ord + Clone, V: Ord + Clone> ProbabilitySpace<K, V> {
    /// An empty space (no variables; exactly one world with probability 1).
    pub fn new() -> Self {
        ProbabilitySpace {
            vars: BTreeMap::new(),
        }
    }

    /// Add (or replace) a variable with its distribution.
    pub fn insert(&mut self, var: K, dist: Dist<V>) {
        self.vars.insert(var, dist);
    }

    /// The number of variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// The distribution of a variable, if present.
    pub fn dist(&self, var: &K) -> Option<&Dist<V>> {
        self.vars.get(var)
    }

    /// Iterate over the variables and their distributions.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &Dist<V>)> {
        self.vars.iter()
    }

    /// The number of possible worlds `|Ω|` (product of support sizes).
    pub fn num_worlds(&self) -> u128 {
        self.vars
            .values()
            .map(|d| d.support_size() as u128)
            .product()
    }

    /// Exhaustively enumerate all possible worlds with their probabilities.
    ///
    /// Exponential in the number of variables; intended for ground-truth checks on
    /// small instances only.
    pub fn worlds(&self) -> Vec<World<K, V>> {
        let mut worlds = vec![World {
            valuation: BTreeMap::new(),
            probability: 1.0,
        }];
        for (var, dist) in &self.vars {
            let mut next = Vec::with_capacity(worlds.len() * dist.support_size());
            for world in &worlds {
                for (value, p) in dist.iter() {
                    let mut valuation = world.valuation.clone();
                    valuation.insert(var.clone(), value.clone());
                    next.push(World {
                        valuation,
                        probability: world.probability * p,
                    });
                }
            }
            worlds = next;
        }
        worlds
    }

    /// The exact distribution of an arbitrary function of the variables, computed by
    /// enumeration over all worlds. This is the brute-force counterpart of the
    /// decomposition-tree computation and serves as the correctness oracle.
    ///
    /// Each outcome's worlds are summed before the [`PROB_EPS`](crate::PROB_EPS)
    /// cut, so worlds too unlikely to be kept on their own still count.
    pub fn distribution_of<T: Ord + Clone>(&self, f: impl Fn(&BTreeMap<K, V>) -> T) -> Dist<T> {
        Dist::coalesced(
            self.worlds()
                .into_iter()
                .map(|w| (f(&w.valuation), w.probability))
                .collect(),
        )
    }

    /// The probability of an event (a predicate on valuations), by enumeration.
    pub fn probability_of(&self, event: impl Fn(&BTreeMap<K, V>) -> bool) -> f64 {
        self.worlds()
            .into_iter()
            .filter(|w| event(&w.valuation))
            .fold(0.0, |sum, w| sum + w.probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn coin(p: f64) -> Dist<bool> {
        Dist::two_point(true, p, false, 1.0 - p)
    }

    #[test]
    fn empty_space_has_one_world() {
        let space: ProbabilitySpace<&str, bool> = ProbabilitySpace::new();
        let worlds = space.worlds();
        assert_eq!(worlds.len(), 1);
        assert_eq!(worlds[0].probability, 1.0);
        assert_eq!(space.num_worlds(), 1);
    }

    #[test]
    fn world_count_and_mass() {
        let mut space = ProbabilitySpace::new();
        space.insert("x", coin(0.5));
        space.insert("y", coin(0.3));
        space.insert("z", Dist::from_pairs([(true, 0.2), (false, 0.8)]));
        assert_eq!(space.num_worlds(), 8);
        let worlds = space.worlds();
        assert_eq!(worlds.len(), 8);
        let total: f64 = worlds.iter().map(|w| w.probability).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn world_mass_is_product_of_marginals() {
        // Example 4 of the paper: the world probability is the product of the
        // per-variable probabilities of the chosen values.
        let mut space = ProbabilitySpace::new();
        space.insert("x1", coin(0.1));
        space.insert("x2", coin(0.2));
        let worlds = space.worlds();
        let w = worlds
            .iter()
            .find(|w| !w.valuation["x1"] && w.valuation["x2"])
            .unwrap();
        assert!((w.probability - 0.9 * 0.2).abs() < 1e-12);
    }

    #[test]
    fn distribution_of_disjunction_matches_convolution() {
        let mut space = ProbabilitySpace::new();
        space.insert("x", coin(0.3));
        space.insert("y", coin(0.7));
        let or = space.distribution_of(|v| v["x"] || v["y"]);
        assert!((or.prob(&true) - (1.0 - 0.7 * 0.3)).abs() < 1e-12);
        let direct = coin(0.3).convolve(&coin(0.7), |a, b| *a || *b);
        assert!(or.approx_eq(&direct, 1e-12));
    }

    #[test]
    fn worlds_below_the_pruning_threshold_count_toward_their_outcome() {
        // Twelve variables at 0.05: each world with seven or more present
        // variables weighs less than PROB_EPS, but together they carry ≈ 4.9e-7.
        let mut space = ProbabilitySpace::new();
        for i in 0..12 {
            space.insert(i, coin(0.05));
        }
        let any = space.distribution_of(|v| v.values().any(|present| *present));
        assert!((any.prob(&true) - (1.0 - 0.95f64.powi(12))).abs() < 1e-12);
        assert!((any.total_mass() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn probability_of_event() {
        let mut space = ProbabilitySpace::new();
        space.insert("x", Dist::from_pairs([(1u32, 0.5), (2, 0.5)]));
        space.insert("y", Dist::from_pairs([(1u32, 0.25), (2, 0.75)]));
        let p = space.probability_of(|v| v["x"] + v["y"] == 3);
        assert!((p - (0.5 * 0.75 + 0.5 * 0.25)).abs() < 1e-12);
    }

    #[test]
    fn non_boolean_domains() {
        let mut space = ProbabilitySpace::new();
        space.insert("n", Dist::from_pairs([(0u64, 0.2), (1, 0.3), (7, 0.5)]));
        let d = space.distribution_of(|v| v["n"] * 2);
        assert!((d.prob(&14) - 0.5).abs() < 1e-12);
        assert_eq!(d.support_size(), 3);
    }
}
