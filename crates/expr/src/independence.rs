//! Syntactic independence analysis: partitioning the summands of an expression into
//! groups that share no variables (§5 of the paper).
//!
//! Two expressions are (syntactically) independent if their variable sets are
//! disjoint; independent expressions denote independent random variables, which is
//! what justifies the convolution rules at ⊕/⊙/⊗ nodes of a decomposition tree. The
//! compiler's first rule splits a sum by the connected components of the *variable
//! co-occurrence graph* over its summands. [`Partitioner`] computes that partition,
//! and it is the only thing here that does: the compiler splits with it — also
//! for the roots the artifact store compiles — and [`all_independent`] counts
//! its components. The component order — smallest
//! member first, members ascending — is the order the compiler chains them in,
//! so it is part of every compiled bit.
//!
//! A node's own operands often need no union–find at all: the interner records
//! at intern time whether they are pairwise variable-disjoint
//! ([`Interner::children_disjoint`](crate::Interner::children_disjoint)). For
//! such items the partition is every item alone, in index order, and
//! [`Partitioner::split`] returns exactly that without reading a variable: the
//! shortcut is one code path with one order, like the partitioner itself.
//!
//! Most lists that do need the union–find turn out to be one component, and
//! often one item proves it: if some item mentions every variable of the list
//! and no item mentions none, every item shares a variable with that one. The
//! partitioner first marks each variable's first item, counting the distinct
//! variables and the widest set as it goes; when the widest set is as long as
//! the union, that **connectivity certificate** answers "one component, members
//! in order" — what the union–find would return — and the union pass is
//! skipped. Of the lists the compiler's rule 2 hands over, it settles ≈ 90 % of
//! the SUM / COUNT ones and a third to two thirds of the MIN / MAX ones. The
//! compiler reads the certificate off the occurrence tally it makes for its
//! `⊔` variable anyway, and passes [`Hint::Connected`] to
//! [`Partitioner::split`], so a certified term list skips the marking pass as
//! well; the union–find stays the only code that unions.

use crate::vars::{Var, VarSet};

/// A classic union–find (disjoint-set) structure over `0..n`.
#[derive(Debug, Clone)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// Create `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
            rank: vec![0; n],
        }
    }

    /// Find the representative of `i`, with path compression.
    pub fn find(&mut self, i: usize) -> usize {
        if self.parent[i] != i {
            let root = self.find(self.parent[i]);
            self.parent[i] = root;
        }
        self.parent[i]
    }

    /// Union the sets containing `a` and `b`.
    pub fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb,
            std::cmp::Ordering::Greater => self.parent[rb] = ra,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra;
                self.rank[ra] += 1;
            }
        }
    }
}

/// A partition of `0..n` into components, in a fixed component order: the
/// members of all components end to end, and where each component starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Components {
    members: Vec<usize>,
    /// `starts[k]..starts[k + 1]` is component `k`'s range in `members`.
    starts: Vec<usize>,
}

impl Default for Components {
    /// The partition of the empty set.
    fn default() -> Self {
        Components {
            members: Vec::new(),
            starts: vec![0],
        }
    }
}

impl Components {
    /// Number of components.
    pub fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// True for the partition of the empty set.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The components in order, each as its ascending member list.
    pub fn iter(&self) -> impl Iterator<Item = &[usize]> + '_ {
        self.starts
            .windows(2)
            .map(|range| &self.members[range[0]..range[1]])
    }

    /// The members of all components end to end, in component order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Where each component ends in [`members`](Self::members), in order (so
    /// the last entry is `n`).
    pub fn ends(&self) -> &[usize] {
        &self.starts[1..]
    }
}

/// True if the variable sets are pairwise disjoint (i.e. every index is its own
/// component).
pub fn all_independent(sets: &[VarSet]) -> bool {
    let partition = Partitioner::default()
        .components(sets.len(), |i| sets[i].as_slice())
        .len();
    partition == sets.len()
}

/// Reusable state of [`Partitioner::components`]. The compiler partitions a
/// term list at every recursion level of a hard compilation, tens of items over
/// a handful of variables each time, so nothing here is allocated per call and
/// nothing is sized by the number of variables that *exist*.
#[derive(Debug, Default)]
pub struct Partitioner {
    /// Union–find forest over the items of the current call; a root is the
    /// smallest member of its set.
    parent: Vec<u32>,
    /// Indexed by `Var` id: the first item seen mentioning the variable. Grown to
    /// the largest id a call touches; entries touched by a call are reset before
    /// it returns.
    first_seen: Vec<u32>,
    /// Per item, the number of its component.
    labels: Vec<u32>,
    partition: Components,
}

const UNSEEN: u32 = u32::MAX;

/// What a caller of [`Partitioner::split`] knows of its items' partition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Hint {
    /// Nothing: the partitioner works it out.
    Unknown,
    /// The items are pairwise variable-disjoint.
    Disjoint,
    /// The items are one component: none is variable-free, and one mentions
    /// every variable of the list.
    Connected,
}

impl Hint {
    /// [`Disjoint`](Hint::Disjoint) if an interner's disjointness bit is set,
    /// else [`Unknown`](Hint::Unknown).
    pub fn disjoint_if(bit: bool) -> Self {
        if bit {
            Hint::Disjoint
        } else {
            Hint::Unknown
        }
    }
}

impl Partitioner {
    /// Partition the items `0..n`, item `i` mentioning the variables `set_of(i)`
    /// (distinct, as in a [`VarSet`] or an interner's var-set), into connected
    /// components of the variable co-occurrence graph: items `i` and `j` are
    /// connected if they share a variable (possibly transitively). Components
    /// come in ascending order of their smallest member, members ascending. The
    /// sets are borrowed, so callers whose sets live in another structure (an
    /// interner's precomputed var-sets) need not copy them.
    ///
    /// Each variable links its occurrences to the first item that mentioned it,
    /// so a call costs `O(N α(N))` for `N = Σ|set_of(i)|` rather than a
    /// comparison of all pairs of sets; a list the connectivity certificate
    /// (module documentation) settles costs one marking pass.
    pub fn components<'a>(&mut self, n: usize, set_of: impl Fn(usize) -> &'a [Var]) -> &Components {
        debug_assert!(self.first_seen.iter().all(|&s| s == UNSEEN));
        // Marking: each variable's first item, and what the certificate reads.
        let (mut distinct, mut widest, mut widest_len, mut variable_free) = (0, 0, 0, false);
        for i in 0..n {
            let set = set_of(i);
            if set.len() > widest_len {
                (widest, widest_len) = (i, set.len());
            }
            variable_free |= set.is_empty();
            for v in set {
                let slot = v.0 as usize;
                if slot >= self.first_seen.len() {
                    self.first_seen.resize(slot + 1, UNSEEN);
                }
                if self.first_seen[slot] == UNSEEN {
                    self.first_seen[slot] = i as u32;
                    distinct += 1;
                }
            }
        }
        if n > 0 && !variable_free && widest_len == distinct {
            // The widest set holds every variable, so every item meets it, and
            // unmarking it unmarks them all.
            for v in set_of(widest) {
                self.first_seen[v.0 as usize] = UNSEEN;
            }
            let Components { members, starts } = &mut self.partition;
            members.clear();
            members.extend(0..n);
            starts.clear();
            starts.extend([0, n]);
            return &self.partition;
        }
        self.parent.clear();
        self.parent.extend(0..n as u32);
        for i in 0..n {
            for v in set_of(i) {
                match self.first_seen[v.0 as usize] {
                    j if j == i as u32 => {}
                    j => self.union(i as u32, j),
                }
            }
        }
        for i in 0..n {
            for v in set_of(i) {
                self.first_seen[v.0 as usize] = UNSEEN;
            }
        }
        // Roots are smallest members, so they are met in component order.
        self.labels.clear();
        let mut count = 0;
        for i in 0..n {
            let root = self.find(i as u32) as usize;
            if root == i {
                self.labels.push(count);
                count += 1;
            } else {
                let label = self.labels[root];
                self.labels.push(label);
            }
        }
        // A counting sort by label: `starts[k + 1]` counts component `k`'s
        // members; summed, `starts[k]` is `k`'s start, which moves to its end
        // as `k` fills; one shift puts the starts back.
        let Components { members, starts } = &mut self.partition;
        starts.clear();
        starts.resize(count as usize + 1, 0);
        for &label in &self.labels {
            starts[label as usize + 1] += 1;
        }
        for k in 1..starts.len() {
            starts[k] += starts[k - 1];
        }
        members.clear();
        members.resize(n, 0);
        for (i, &label) in self.labels.iter().enumerate() {
            let at = &mut starts[label as usize];
            members[*at] = i;
            *at += 1;
        }
        starts.copy_within(..count as usize, 1);
        starts[0] = 0;
        &self.partition
    }

    /// [`components`](Self::components), for items whose partition the caller
    /// may know already ([`Hint`]). Known-disjoint items — an interned node's
    /// [`children_disjoint`](crate::Interner::children_disjoint) or
    /// [`terms_disjoint`](crate::Interner::terms_disjoint) bit — are every item
    /// alone, in index order; known-connected items — the connectivity
    /// certificate, read off a tally the caller made anyway — are one
    /// component, members in order. Either is exactly what `components` returns
    /// for them, without a variable read. Every split of a node's own items
    /// comes through here.
    pub fn split<'a>(
        &mut self,
        n: usize,
        hint: Hint,
        set_of: impl Fn(usize) -> &'a [Var],
    ) -> &Components {
        if hint == Hint::Unknown {
            return self.components(n, set_of);
        }
        let Components { members, starts } = &mut self.partition;
        members.clear();
        members.extend(0..n);
        starts.clear();
        match hint {
            Hint::Connected if n > 0 => starts.extend([0, n]),
            _ => starts.extend(0..=n),
        }
        &self.partition
    }

    /// Length of the variable-indexed table: one more than the largest variable
    /// id any call has touched.
    pub fn var_table_len(&self) -> usize {
        self.first_seen.len()
    }

    fn find(&mut self, mut i: u32) -> u32 {
        while self.parent[i as usize] != i {
            let up = self.parent[i as usize];
            self.parent[i as usize] = self.parent[up as usize];
            i = up;
        }
        i
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        let (low, high) = (ra.min(rb), ra.max(rb));
        self.parent[high as usize] = low;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vs(ids: &[u32]) -> VarSet {
        ids.iter().map(|i| Var(*i)).collect()
    }

    fn components(sets: &[VarSet]) -> Vec<Vec<usize>> {
        Partitioner::default()
            .components(sets.len(), |i| sets[i].as_slice())
            .iter()
            .map(<[usize]>::to_vec)
            .collect()
    }

    /// The oracle: the closure of pairwise overlap, computed the slow way —
    /// grow each component from its smallest unplaced member by scanning every
    /// set against every member until nothing joins. Components in order of
    /// their smallest member, members ascending.
    fn connected_components(sets: &[VarSet]) -> Vec<Vec<usize>> {
        let overlap = |a: &VarSet, b: &VarSet| a.iter().any(|v| b.contains(v));
        let mut placed = vec![false; sets.len()];
        let mut out = Vec::new();
        for seed in 0..sets.len() {
            if placed[seed] {
                continue;
            }
            placed[seed] = true;
            let mut component = vec![seed];
            let mut grew = true;
            while grew {
                grew = false;
                for j in 0..sets.len() {
                    if !placed[j] && component.iter().any(|&i| overlap(&sets[i], &sets[j])) {
                        placed[j] = true;
                        component.push(j);
                        grew = true;
                    }
                }
            }
            component.sort_unstable();
            out.push(component);
        }
        out
    }

    /// Seeds of the randomised sweeps: one fixed, plus `PVC_ORACLE_SEED` when
    /// set.
    fn seeds(fixed: u64) -> Vec<u64> {
        let mut seeds = vec![fixed];
        if let Ok(extra) = std::env::var("PVC_ORACLE_SEED") {
            seeds.push(extra.parse().expect("PVC_ORACLE_SEED must be a u64"));
        }
        seeds
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(1));
        assert_eq!(uf.find(3), uf.find(4));
        assert_ne!(uf.find(0), uf.find(2));
        assert_ne!(uf.find(0), uf.find(3));
    }

    #[test]
    fn components_of_disjoint_sets() {
        let sets = vec![vs(&[1, 2]), vs(&[3]), vs(&[4, 5])];
        let comps = components(&sets);
        assert_eq!(comps.len(), 3);
        assert!(all_independent(&sets));
    }

    #[test]
    fn components_of_chained_sets() {
        // {1,2}, {2,3}, {3,4} are all one component; {9} is separate.
        let sets = vec![vs(&[1, 2]), vs(&[2, 3]), vs(&[3, 4]), vs(&[9])];
        let comps = components(&sets);
        assert_eq!(comps, vec![vec![0, 1, 2], vec![3]]);
        assert!(!all_independent(&sets));
    }

    #[test]
    fn paper_query_annotation_splits_per_supplier() {
        // x1y11 + x1y12 + x2y21 + x2y22 + x3y33 + x3y34 (Example 14): three components,
        // one per supplier variable x1, x2, x3.
        let sets = vec![
            vs(&[1, 11]),
            vs(&[1, 12]),
            vs(&[2, 21]),
            vs(&[2, 22]),
            vs(&[3, 33]),
            vs(&[3, 34]),
        ];
        let comps = components(&sets);
        assert_eq!(comps, vec![vec![0, 1], vec![2, 3], vec![4, 5]]);
    }

    #[test]
    fn empty_sets_are_isolated() {
        let sets = vec![vs(&[]), vs(&[1]), vs(&[])];
        let comps = components(&sets);
        assert_eq!(comps.len(), 3);
        assert!(all_independent(&sets));
    }

    #[test]
    fn no_items() {
        let mut partitioner = Partitioner::default();
        let partition = partitioner.components(0, |_| &[]);
        assert!(partition.is_empty());
        assert_eq!(partition.ends(), &[] as &[usize]);
        assert!(all_independent(&[]));
    }

    #[test]
    fn labels_agree_with_connected_components() {
        // One partitioner across every case, as the compiler keeps its own.
        let mut partitioner = Partitioner::default();
        let cases: Vec<Vec<VarSet>> = vec![
            vec![],
            vec![vs(&[1, 2]), vs(&[3]), vs(&[4, 5])],
            vec![vs(&[1, 2]), vs(&[2, 3]), vs(&[3, 4]), vs(&[9])],
            vec![
                vs(&[]),
                vs(&[1]),
                vs(&[]),
                vs(&[1, 7]),
                vs(&[8]),
                vs(&[7, 8]),
            ],
            vec![vs(&[5]), vs(&[4]), vs(&[3]), vs(&[3, 5]), vs(&[4, 5])],
            // Around the connectivity certificate: `{1, 2}` mentions every
            // variable, yet the empty set stays alone; a hub that does connect
            // everything, wherever it stands; a widest set that misses a
            // variable, which proves nothing.
            vec![vs(&[1, 2]), vs(&[]), vs(&[2])],
            vec![vs(&[3]), vs(&[1]), vs(&[1, 2, 3]), vs(&[2]), vs(&[1])],
            vec![vs(&[1, 2]), vs(&[1]), vs(&[3])],
        ];
        for sets in cases {
            let partition = partitioner.components(sets.len(), |i| sets[i].as_slice());
            let got: Vec<Vec<usize>> = partition.iter().map(<[usize]>::to_vec).collect();
            assert_eq!(got, connected_components(&sets), "{sets:?}");
            let flat: Vec<usize> = got.concat();
            assert_eq!(partition.members(), flat.as_slice(), "{sets:?}");
        }
        // The variable-indexed table grew to the largest id touched, no further.
        assert_eq!(partitioner.var_table_len(), 10);
    }

    #[test]
    fn components_are_ordered_by_smallest_member() {
        // Items 0 and 3 share a variable and 1 and 2 stand alone: `{0, 3}`
        // comes first. The compiler chains components in this order, so it is
        // part of every compiled bit.
        let shape = [vs(&[7]), vs(&[8]), vs(&[9]), vs(&[7])];
        assert_eq!(components(&shape), vec![vec![0, 3], vec![1], vec![2]]);
        let sets = [vs(&[1]), vs(&[2]), vs(&[1, 3]), vs(&[4])];
        let mut partitioner = Partitioner::default();
        let partition = partitioner.components(sets.len(), |i| sets[i].as_slice());
        assert_eq!(partition.members(), &[0, 2, 1, 3]);
        assert_eq!(partition.ends(), &[2, 3, 4]);
    }

    #[test]
    fn components_equal_the_pairwise_overlap_closure_on_random_families() {
        // Families of 1–40 sets over a pool small enough that variables are
        // shared (chains, stars, isolated and empty sets all occur), through
        // one partitioner.
        let mut partitioner = Partitioner::default();
        for seed in seeds(0xC0FFEE) {
            let mut rng = pvc_prob::SeededRng::seed_from_u64(seed);
            let mut merged = 0;
            for case in 0..1_000 {
                let n = rng.gen_range(1usize..41);
                let pool = rng.gen_range(1u32..(3 * n as u32 + 2));
                let sets: Vec<VarSet> = (0..n)
                    .map(|_| {
                        let size = rng.gen_range(0usize..4);
                        (0..size).map(|_| Var(rng.gen_range(0..pool))).collect()
                    })
                    .collect();
                let expected = connected_components(&sets);
                let partition = partitioner.components(n, |i| sets[i].as_slice());
                let got: Vec<Vec<usize>> = partition.iter().map(<[usize]>::to_vec).collect();
                assert_eq!(got, expected, "seed {seed} case {case}: {sets:?}");
                assert_eq!(all_independent(&sets), expected.len() == n);
                merged += usize::from(expected.len() < n);
            }
            assert!(merged > 500, "only {merged} families shared a variable");
        }
    }

    #[test]
    fn the_connectivity_certificate_equals_the_pairwise_overlap_closure() {
        // Lists the compiler splits: often one item (a hub) mentions every
        // variable of the list, and then the certificate answers. Around the hub
        // go variable-free items (which must stay components of their own),
        // copies of earlier sets, and a hub that misses one variable, so lists
        // on both sides of the certificate's line occur. Through `split`, as the
        // compiler calls it, on one partitioner.
        let mut partitioner = Partitioner::default();
        for seed in seeds(0xCE27) {
            let mut rng = pvc_prob::SeededRng::seed_from_u64(seed);
            let (mut certified, mut split_up) = (0, 0);
            for case in 0..2_000 {
                let n = rng.gen_range(1usize..25);
                let pool = rng.gen_range(1u32..12);
                // Variable-free items in a third of the lists.
                let empty_share = if rng.gen_range(0u32..3) == 0 { 6 } else { 0 };
                let mut sets: Vec<VarSet> = Vec::with_capacity(n);
                for i in 0..n {
                    let set = match rng.gen_range(0u32..8) {
                        0 if rng.gen_range(0u32..8) < empty_share => VarSet::new(),
                        1 if i > 0 => sets[rng.gen_range(0..i)].clone(),
                        _ => {
                            let size = rng.gen_range(1usize..4);
                            (0..size).map(|_| Var(rng.gen_range(0..pool))).collect()
                        }
                    };
                    sets.push(set);
                }
                if rng.gen_range(0u32..4) != 0 {
                    let all: VarSet = sets.iter().flat_map(|s| s.iter()).collect();
                    let skip = rng.gen_range(0u32..3) == 0;
                    let hub: VarSet = all.iter().skip(usize::from(skip)).collect();
                    sets.insert(rng.gen_range(0..=n), hub);
                }
                let all: VarSet = sets.iter().flat_map(|s| s.iter()).collect();
                let certificate =
                    sets.iter().all(|s| !s.is_empty()) && sets.iter().any(|s| s.len() == all.len());
                let expected = connected_components(&sets);
                let partition =
                    partitioner.split(sets.len(), Hint::Unknown, |i| sets[i].as_slice());
                let got: Vec<Vec<usize>> = partition.iter().map(<[usize]>::to_vec).collect();
                assert_eq!(got, expected, "seed {seed} case {case}: {sets:?}");
                if certificate {
                    assert_eq!(got.len(), 1, "seed {seed} case {case}: {sets:?}");
                    certified += 1;
                } else {
                    split_up += usize::from(got.len() > 1);
                }
            }
            assert!(certified > 500, "only {certified} lists were certified");
            assert!(split_up > 300, "only {split_up} lists split");
        }
    }
}
