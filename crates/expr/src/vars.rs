//! Random variables and variable sets.
//!
//! Every expression in a pvc-table is built over a finite set `X` of independent
//! random variables (§2.1 of the paper). The [`VarTable`] registers each variable's
//! human-readable name and its discrete probability distribution; expressions refer to
//! variables by the lightweight id [`Var`].

use pvc_algebra::{SemiringKind, SemiringValue};
use pvc_prob::{make, Dist, SemiringDist};
use std::collections::BTreeSet;
use std::fmt;

/// A random-variable identifier (index into a [`VarTable`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Var(pub u32);

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// The registry of random variables: names and probability distributions.
///
/// The table induces the probability space `Ω` of Definition 1: variables are
/// independent and each world draws one value per variable.
#[derive(Debug, Clone, Default)]
pub struct VarTable {
    names: Vec<String>,
    dists: Vec<SemiringDist>,
}

impl VarTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a fresh variable with an arbitrary distribution over semiring values.
    pub fn fresh(&mut self, name: impl Into<String>, dist: SemiringDist) -> Var {
        let id = self.names.len() as u32;
        self.names.push(name.into());
        self.dists.push(dist);
        Var(id)
    }

    /// Register a Boolean tuple-presence variable with `P[⊤] = p`.
    pub fn boolean(&mut self, name: impl Into<String>, p: f64) -> Var {
        self.fresh(name, make::bernoulli(p))
    }

    /// Register a natural-number-valued variable from `(value, probability)` pairs.
    pub fn natural(&mut self, name: impl Into<String>, pairs: &[(u64, f64)]) -> Var {
        self.fresh(
            name,
            Dist::from_pairs(pairs.iter().map(|(v, p)| (SemiringValue::Nat(*v), *p))),
        )
    }

    /// The number of registered variables.
    pub fn len(&self) -> usize {
        self.names.len()
    }

    /// True if no variables are registered.
    pub fn is_empty(&self) -> bool {
        self.names.is_empty()
    }

    /// The name of a variable.
    pub fn name(&self, var: Var) -> &str {
        &self.names[var.0 as usize]
    }

    /// The probability distribution of a variable.
    pub fn dist(&self, var: Var) -> &SemiringDist {
        &self.dists[var.0 as usize]
    }

    /// The probability that a Boolean variable is `⊤` (convenience accessor).
    pub fn prob_true(&self, var: Var) -> f64 {
        self.dist(var).prob(&SemiringValue::Bool(true))
    }

    /// The semiring the variable's values are drawn from, determined by inspecting its
    /// distribution. Mixed-kind distributions are rejected at registration time by all
    /// constructors in this module, so the first support value decides.
    pub fn kind(&self, var: Var) -> SemiringKind {
        self.dist(var)
            .support()
            .next()
            .map(|v| v.kind())
            .unwrap_or(SemiringKind::Bool)
    }

    /// Iterate over all variables.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        (0..self.names.len() as u32).map(Var)
    }

    /// Replace the distribution of an existing variable.
    pub fn set_dist(&mut self, var: Var, dist: SemiringDist) {
        self.dists[var.0 as usize] = dist;
    }

    /// Reduce every variable to a Boolean presence variable: `P[⊥] = P_x[0_S]`,
    /// `P[⊤] = 1 − P[⊥]`. This is the reduction used by Proposition 2 of the paper for
    /// MIN/MAX aggregation over `N`-valued variables.
    pub fn booleanized(&self) -> VarTable {
        let mut out = VarTable::new();
        for v in self.iter() {
            let p_zero: f64 = self
                .dist(v)
                .iter()
                .filter(|(val, _)| val.is_zero())
                .map(|(_, p)| p)
                .sum();
            out.boolean(self.name(v).to_string(), 1.0 - p_zero);
        }
        out
    }

    /// A stable 64-bit fingerprint of the registered variables: names,
    /// distribution supports and exact probability bits (FNV-1a over a canonical
    /// byte rendering). Two tables built by the same deterministic loading code
    /// fingerprint identically across processes; any change to a name, value or
    /// probability changes the fingerprint.
    ///
    /// The engine's compile-artifact snapshots (`pvc-core::persist`) embed this
    /// value so that a snapshot recorded against one probability space is refused
    /// when loaded against another.
    pub fn fingerprint(&self) -> u64 {
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        let mut eat = |bytes: &[u8]| {
            for b in bytes {
                h ^= *b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&(self.names.len() as u64).to_le_bytes());
        for (name, dist) in self.names.iter().zip(&self.dists) {
            eat(&(name.len() as u64).to_le_bytes());
            eat(name.as_bytes());
            eat(&(dist.support_size() as u64).to_le_bytes());
            for (value, p) in dist.iter() {
                match value {
                    SemiringValue::Bool(b) => {
                        eat(&[0, *b as u8]);
                    }
                    SemiringValue::Nat(n) => {
                        eat(&[1]);
                        eat(&n.to_le_bytes());
                    }
                }
                eat(&p.to_bits().to_le_bytes());
            }
        }
        h
    }
}

/// A set of variables, kept sorted and deduplicated.
///
/// Independence of two expressions is (syntactic) disjointness of their variable sets
/// (§5 of the paper), so this type is on the hot path of the compiler.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VarSet(Vec<Var>);

impl VarSet {
    /// The empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// A singleton set.
    pub fn singleton(v: Var) -> Self {
        VarSet(vec![v])
    }

    /// Build from an iterator (sorted, deduplicated).
    pub fn from_iter_of(vars: impl IntoIterator<Item = Var>) -> Self {
        let mut v: Vec<Var> = vars.into_iter().collect();
        v.sort_unstable();
        v.dedup();
        VarSet(v)
    }

    /// Number of variables in the set.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// True if the set is empty.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Membership test (binary search).
    pub fn contains(&self, v: Var) -> bool {
        self.0.binary_search(&v).is_ok()
    }

    /// Insert a variable.
    pub fn insert(&mut self, v: Var) {
        if let Err(pos) = self.0.binary_search(&v) {
            self.0.insert(pos, v);
        }
    }

    /// Set union: a linear two-pointer merge of the two sorted vectors.
    pub fn union(&self, other: &VarSet) -> VarSet {
        let (a, b) = (&self.0, &other.0);
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            match a[i].cmp(&b[j]) {
                std::cmp::Ordering::Less => {
                    out.push(a[i]);
                    i += 1;
                }
                std::cmp::Ordering::Greater => {
                    out.push(b[j]);
                    j += 1;
                }
                std::cmp::Ordering::Equal => {
                    out.push(a[i]);
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        VarSet(out)
    }

    /// Set intersection.
    pub fn intersection(&self, other: &VarSet) -> VarSet {
        VarSet(
            self.0
                .iter()
                .filter(|v| other.contains(**v))
                .copied()
                .collect(),
        )
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &VarSet) -> VarSet {
        VarSet(
            self.0
                .iter()
                .filter(|v| !other.contains(**v))
                .copied()
                .collect(),
        )
    }

    /// True if the two sets share no variable — the syntactic independence test.
    pub fn is_disjoint(&self, other: &VarSet) -> bool {
        sorted_disjoint(&self.0, &other.0)
    }

    /// Iterate over the variables in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = Var> + '_ {
        self.0.iter().copied()
    }

    /// The variables as a slice.
    pub fn as_slice(&self) -> &[Var] {
        &self.0
    }
}

/// [`VarSet::is_disjoint`] on two ascending, duplicate-free slices — the form the
/// interner's flat var-set pool hands out (see [`crate::Interner::var_set`]).
pub fn sorted_disjoint(a: &[Var], b: &[Var]) -> bool {
    // Merge-style scan over the two sorted slices.
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => return false,
        }
    }
    true
}

impl FromIterator<Var> for VarSet {
    fn from_iter<I: IntoIterator<Item = Var>>(iter: I) -> Self {
        VarSet::from_iter_of(iter)
    }
}

impl From<BTreeSet<Var>> for VarSet {
    fn from(set: BTreeSet<Var>) -> Self {
        VarSet(set.into_iter().collect())
    }
}

impl fmt::Display for VarSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, v) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{v}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn var_table_registration() {
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.4);
        let y = vt.natural("y", &[(0, 0.5), (2, 0.5)]);
        assert_eq!(vt.len(), 2);
        assert_eq!(vt.name(x), "x");
        assert_eq!(vt.name(y), "y");
        assert_eq!(vt.kind(x), SemiringKind::Bool);
        assert_eq!(vt.kind(y), SemiringKind::Nat);
        assert!((vt.prob_true(x) - 0.4).abs() < 1e-12);
    }

    #[test]
    fn booleanization_reduces_to_presence() {
        // Prop. 2: P[⊥] = P_x[0], P[⊤] = 1 − P[⊥].
        let mut vt = VarTable::new();
        let y = vt.natural("y", &[(0, 0.25), (1, 0.5), (3, 0.25)]);
        let reduced = vt.booleanized();
        assert_eq!(reduced.kind(y), SemiringKind::Bool);
        assert!((reduced.prob_true(y) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn varset_basic_ops() {
        let a = VarSet::from_iter_of([Var(3), Var(1), Var(3)]);
        assert_eq!(a.len(), 2);
        assert!(a.contains(Var(1)));
        assert!(!a.contains(Var(2)));
        let b = VarSet::from_iter_of([Var(2), Var(3)]);
        assert_eq!(a.union(&b).len(), 3);
        assert_eq!(a.intersection(&b).len(), 1);
        assert_eq!(a.difference(&b).as_slice(), &[Var(1)]);
        assert!(!a.is_disjoint(&b));
        let c = VarSet::from_iter_of([Var(10)]);
        assert!(a.is_disjoint(&c));
        assert!(VarSet::new().is_disjoint(&a));
    }

    #[test]
    fn union_equals_sort_and_dedup_of_both() {
        let cases: [(&[u32], &[u32]); 6] = [
            (&[], &[]),
            (&[], &[4, 9]),
            (&[1, 3, 5], &[2, 4, 6]),
            (&[1, 2, 3], &[1, 2, 3]),
            (&[7, 8], &[1, 8, 20, 21]),
            (&[0, 5, 6, 30], &[5]),
        ];
        for (a, b) in cases {
            let sa = VarSet::from_iter_of(a.iter().map(|i| Var(*i)));
            let sb = VarSet::from_iter_of(b.iter().map(|i| Var(*i)));
            let expected = VarSet::from_iter_of(sa.iter().chain(sb.iter()));
            assert_eq!(sa.union(&sb), expected, "{a:?} ∪ {b:?}");
            assert_eq!(sb.union(&sa), expected, "{b:?} ∪ {a:?}");
        }
    }

    #[test]
    fn varset_insert_keeps_order() {
        let mut s = VarSet::new();
        s.insert(Var(5));
        s.insert(Var(1));
        s.insert(Var(5));
        assert_eq!(s.as_slice(), &[Var(1), Var(5)]);
        assert_eq!(s.to_string(), "{v1, v5}");
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let build = |p: f64| {
            let mut vt = VarTable::new();
            vt.boolean("x", p);
            vt.natural("y", &[(0, 0.5), (2, 0.5)]);
            vt
        };
        assert_eq!(build(0.4).fingerprint(), build(0.4).fingerprint());
        assert_ne!(build(0.4).fingerprint(), build(0.5).fingerprint());
        let mut renamed = VarTable::new();
        renamed.boolean("z", 0.4);
        renamed.natural("y", &[(0, 0.5), (2, 0.5)]);
        assert_ne!(build(0.4).fingerprint(), renamed.fingerprint());
        assert_ne!(VarTable::new().fingerprint(), build(0.4).fingerprint());
    }

    #[test]
    fn set_dist_replaces() {
        let mut vt = VarTable::new();
        let x = vt.boolean("x", 0.5);
        vt.set_dist(x, make::bernoulli(0.9));
        assert!((vt.prob_true(x) - 0.9).abs() < 1e-12);
    }
}
