//! Syntactic independence analysis: partitioning the summands of an expression into
//! groups that share no variables (§5 of the paper).
//!
//! Two expressions are (syntactically) independent if their variable sets are
//! disjoint; independent expressions denote independent random variables, which is
//! what justifies the convolution rules at ⊕/⊙/⊗ nodes of a decomposition tree. The
//! compiler's first rule splits a sum by the connected components of the *variable
//! co-occurrence graph* over its summands, implemented here with a union–find.

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

    /// Group the elements `0..n` by representative: components in ascending
    /// order of their representative, members ascending. A counting sort into
    /// two flat vectors — no vector per component, so a partition into `n`
    /// singletons costs what a partition into one set does.
    pub fn components(&mut self) -> Components {
        let n = self.parent.len();
        let roots: Vec<usize> = (0..n).map(|i| self.find(i)).collect();
        // `slot[r]`: where the next member of root `r` goes in `members`.
        let mut slot = vec![0usize; n + 1];
        for &root in &roots {
            slot[root + 1] += 1;
        }
        let mut starts = Vec::new();
        for root in 0..n {
            if slot[root + 1] > 0 {
                starts.push(slot[root]);
            }
            slot[root + 1] += slot[root];
        }
        starts.push(n);
        let mut members = vec![0usize; n];
        for (i, &root) in roots.iter().enumerate() {
            members[slot[root]] = i;
            slot[root] += 1;
        }
        Components { members, starts }
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
}

/// Partition the indices `0..n`, index `i` standing for the variable set
/// `set_of(i)`, into connected components of the variable co-occurrence graph:
/// indices `i` and `j` are connected if their sets share a variable (possibly
/// transitively). The sets are borrowed, so callers whose sets live in another
/// structure (the interner's precomputed var-sets) need not clone them into a
/// slice first.
///
/// Runs in `O(N log N)` for `N = Σ|set_of(i)|` — each variable links its
/// occurrences together — rather than comparing all pairs of sets. Components are
/// ordered by their union–find representative (see [`UnionFind::components`]);
/// members are ascending.
pub fn connected_components_by<'a>(n: usize, set_of: impl Fn(usize) -> &'a [Var]) -> Components {
    // Every `(variable, set index)` occurrence, in set order; sorted and cut down
    // to the first pair per variable it doubles as the variable → first-seeing-set
    // map, in one flat allocation.
    let mut occurrences: Vec<(Var, usize)> = Vec::new();
    for i in 0..n {
        occurrences.extend(set_of(i).iter().map(|&v| (v, i)));
    }
    let mut first_seen = occurrences.clone();
    first_seen.sort_unstable();
    first_seen.dedup_by_key(|(v, _)| *v);
    let mut uf = UnionFind::new(n);
    for &(v, i) in &occurrences {
        let at = first_seen
            .binary_search_by_key(&v, |&(w, _)| w)
            .expect("every occurrence's variable was collected");
        let j = first_seen[at].1;
        if j != i {
            uf.union(i, j);
        }
    }
    uf.components()
}

/// Reusable state of [`UnionByRank::components`]: the partition
/// [`connected_components_by`] returns — the same union sequence, the same
/// union-by-rank representatives, so the same component order — without its
/// sort, its binary searches or its allocations. The artifact store plans the
/// independent split of every aggregate and sum it evaluates with one of these,
/// kept beside its interner.
///
/// The order is load-bearing: the store folds component distributions in it,
/// and a floating-point fold in another order changes bits. So components come
/// in ascending order of their representative, not of their smallest member
/// (as [`ComponentLabels`] numbers them): if items 0 and 3 share a variable and
/// 1 and 2 stand alone, the order is `{1}, {2}, {0, 3}`.
#[derive(Debug, Default)]
pub struct UnionByRank {
    /// Union–find forest over the items of the current call.
    parent: Vec<u32>,
    rank: Vec<u8>,
    /// Indexed by `Var` id: the first item seen mentioning the variable (so the
    /// smallest, as the sorted occurrence list of [`connected_components_by`]
    /// finds it). Grown to the largest id a call touches; entries touched by a
    /// call are reset before it returns.
    first_seen: Vec<u32>,
    /// Counting-sort cursors: where the next member of each root goes.
    slot: Vec<usize>,
    partition: Components,
}

impl UnionByRank {
    /// Partition the items `0..n`, item `i` mentioning the variables
    /// `set_of(i)`, exactly as [`connected_components_by`] does: components
    /// ordered by their union–find representative, members ascending.
    pub fn components<'a>(&mut self, n: usize, set_of: impl Fn(usize) -> &'a [Var]) -> &Components {
        debug_assert!(self.first_seen.iter().all(|&s| s == UNSEEN));
        self.parent.clear();
        self.parent.extend(0..n as u32);
        self.rank.clear();
        self.rank.resize(n, 0);
        // Occurrences in set order, each united with its variable's first
        // item: the union sequence of `connected_components_by`.
        for i in 0..n {
            for v in set_of(i) {
                let slot = v.0 as usize;
                if slot >= self.first_seen.len() {
                    self.first_seen.resize(slot + 1, UNSEEN);
                }
                match self.first_seen[slot] {
                    UNSEEN => self.first_seen[slot] = i as u32,
                    j if j as usize != i => self.union(i as u32, j),
                    _ => {}
                }
            }
        }
        for i in 0..n {
            for v in set_of(i) {
                self.first_seen[v.0 as usize] = UNSEEN;
            }
        }
        // Group by representative, as `UnionFind::components` does.
        for i in 0..n as u32 {
            let root = self.find(i);
            self.parent[i as usize] = root;
        }
        self.slot.clear();
        self.slot.resize(n + 1, 0);
        for &root in &self.parent {
            self.slot[root as usize + 1] += 1;
        }
        let Components { members, starts } = &mut self.partition;
        starts.clear();
        for root in 0..n {
            if self.slot[root + 1] > 0 {
                starts.push(self.slot[root]);
            }
            self.slot[root + 1] += self.slot[root];
        }
        starts.push(n);
        members.clear();
        members.resize(n, 0);
        for (i, &root) in self.parent.iter().enumerate() {
            members[self.slot[root as usize]] = i;
            self.slot[root as usize] += 1;
        }
        &self.partition
    }

    fn find(&mut self, mut i: u32) -> u32 {
        while self.parent[i as usize] != i {
            let up = self.parent[i as usize];
            self.parent[i as usize] = self.parent[up as usize];
            i = up;
        }
        i
    }

    /// [`UnionFind::union`]: on equal ranks `a`'s representative wins.
    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return;
        }
        let (ra, rb) = (ra as usize, rb as usize);
        match self.rank[ra].cmp(&self.rank[rb]) {
            std::cmp::Ordering::Less => self.parent[ra] = rb as u32,
            std::cmp::Ordering::Greater => self.parent[rb] = ra as u32,
            std::cmp::Ordering::Equal => {
                self.parent[rb] = ra as u32;
                self.rank[ra] += 1;
            }
        }
    }
}

/// True if the variable sets are pairwise disjoint (i.e. every index is its own
/// component).
pub fn all_independent(sets: &[VarSet]) -> bool {
    connected_components_by(sets.len(), |i| sets[i].as_slice()).len() == sets.len()
}

/// Reusable state of [`ComponentLabels::label`]: the compiler partitions a term
/// list at every recursion level of a hard compilation, tens of items over a
/// handful of variables each time, so nothing here is allocated per call and
/// nothing is sized by the number of variables that *exist*.
#[derive(Debug, Default)]
pub struct ComponentLabels {
    /// Union–find forest over the items of the current call; a root is the
    /// smallest member of its set.
    parent: Vec<u32>,
    /// Indexed by `Var` id: the first item seen mentioning the variable. Grown to
    /// the largest id a call touches; entries touched by a call are reset before
    /// it returns.
    first_seen: Vec<u32>,
    labels: Vec<u32>,
}

const UNSEEN: u32 = u32::MAX;

impl ComponentLabels {
    /// Partition the items `0..n`, item `i` mentioning the variables `set_of(i)`,
    /// into connected components of the variable co-occurrence graph (as
    /// [`connected_components_by`]). Returns the number of components and, per item,
    /// the number of its component; components are numbered by their smallest
    /// member.
    pub fn label<'a>(&mut self, n: usize, set_of: impl Fn(usize) -> &'a [Var]) -> (usize, &[u32]) {
        debug_assert!(self.first_seen.iter().all(|&s| s == UNSEEN));
        self.parent.clear();
        self.parent.extend(0..n as u32);
        for i in 0..n {
            for v in set_of(i) {
                let slot = v.0 as usize;
                if slot >= self.first_seen.len() {
                    self.first_seen.resize(slot + 1, UNSEEN);
                }
                match self.first_seen[slot] {
                    UNSEEN => self.first_seen[slot] = i as u32,
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
        (count as usize, &self.labels)
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

    fn connected_components(sets: &[VarSet]) -> Vec<Vec<usize>> {
        connected_components_by(sets.len(), |i| sets[i].as_slice())
            .iter()
            .map(<[usize]>::to_vec)
            .collect()
    }

    #[test]
    fn union_find_basics() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 1);
        uf.union(3, 4);
        assert_eq!(uf.find(0), uf.find(1));
        assert_ne!(uf.find(0), uf.find(2));
        let components = uf.components();
        assert_eq!(components.len(), 3);
        assert!(!components.is_empty());
        assert!(UnionFind::new(0).components().is_empty());
    }

    #[test]
    fn components_of_disjoint_sets() {
        let sets = vec![vs(&[1, 2]), vs(&[3]), vs(&[4, 5])];
        let comps = connected_components(&sets);
        assert_eq!(comps.len(), 3);
        assert!(all_independent(&sets));
    }

    #[test]
    fn components_of_chained_sets() {
        // {1,2}, {2,3}, {3,4} are all one component; {9} is separate.
        let sets = vec![vs(&[1, 2]), vs(&[2, 3]), vs(&[3, 4]), vs(&[9])];
        let comps = connected_components(&sets);
        assert_eq!(comps.len(), 2);
        let big = comps.iter().find(|c| c.len() == 3).unwrap();
        assert_eq!(*big, vec![0, 1, 2]);
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
        let comps = connected_components(&sets);
        assert_eq!(comps.len(), 3);
        for c in comps {
            assert_eq!(c.len(), 2);
        }
    }

    #[test]
    fn empty_sets_are_isolated() {
        let sets = vec![vs(&[]), vs(&[1]), vs(&[])];
        let comps = connected_components(&sets);
        assert_eq!(comps.len(), 3);
    }

    #[test]
    fn labels_agree_with_connected_components() {
        let mut scratch = ComponentLabels::default();
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
        ];
        for sets in cases {
            let (count, labels) = scratch.label(sets.len(), |i| sets[i].as_slice());
            let labels = labels.to_vec();
            // Components numbered by smallest member, members ascending.
            let mut by_label: Vec<Vec<usize>> = vec![Vec::new(); count];
            for (i, &l) in labels.iter().enumerate() {
                by_label[l as usize].push(i);
            }
            assert!(by_label.windows(2).all(|w| w[0][0] < w[1][0]), "{sets:?}");
            let mut expected = connected_components(&sets);
            expected.sort();
            assert_eq!(by_label, expected, "{sets:?}");
        }
        // The variable-indexed table grew to the largest id touched, no further.
        assert_eq!(scratch.var_table_len(), 10);
    }

    #[test]
    fn no_items() {
        let comps = connected_components(&[]);
        assert!(comps.is_empty());
    }

    /// The partition as it was built before [`Components`]: one vector per
    /// element, the empty ones dropped — the order the cache layer's fold (and
    /// with it every cached bit) was pinned to.
    fn components_by_per_root_vectors(sets: &[VarSet]) -> Vec<Vec<usize>> {
        let n = sets.len();
        let mut first_seen: std::collections::BTreeMap<Var, usize> = Default::default();
        let mut uf = UnionFind::new(n);
        for (i, set) in sets.iter().enumerate() {
            for &v in set.as_slice() {
                let j = *first_seen.entry(v).or_insert(i);
                if j != i {
                    uf.union(i, j);
                }
            }
        }
        let mut by_root: Vec<Vec<usize>> = vec![Vec::new(); n];
        for i in 0..n {
            let root = uf.find(i);
            by_root[root].push(i);
        }
        by_root.retain(|group| !group.is_empty());
        by_root
    }

    #[test]
    fn flat_components_keep_the_per_root_vector_order_on_random_families() {
        // Families of 1–40 sets over a pool small enough that variables are
        // shared (chains, stars, isolated and empty sets all occur).
        let mut seeds = vec![0xC0FFEE_u64];
        if let Some(extra) = std::env::var("PVC_ORACLE_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            seeds.push(extra);
        }
        for seed in seeds {
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
                let expected = components_by_per_root_vectors(&sets);
                assert_eq!(
                    connected_components(&sets),
                    expected,
                    "seed {seed} case {case}: {sets:?}"
                );
                merged += usize::from(expected.len() < n);
            }
            assert!(merged > 500, "only {merged} families shared a variable");
        }
    }

    #[test]
    fn union_by_rank_keeps_the_order_of_connected_components_by() {
        // One planner across every family, as the artifact store keeps it.
        let mut planner = UnionByRank::default();
        let mut check = |sets: &[VarSet]| {
            let planned = planner.components(sets.len(), |i| sets[i].as_slice());
            let expected = connected_components_by(sets.len(), |i| sets[i].as_slice());
            assert_eq!(*planned, expected, "{sets:?}");
        };
        // Items 0 and 3 share a variable: representative 3, so `{0, 3}` comes
        // last — smallest-member order would put it first.
        let shape = [vs(&[7]), vs(&[8]), vs(&[9]), vs(&[7])];
        check(&shape);
        assert_eq!(
            connected_components(&shape),
            vec![vec![1], vec![2], vec![0, 3]]
        );
        check(&[]);
        check(&[vs(&[]), vs(&[1]), vs(&[])]);
        let mut seeds = vec![0x0DE5_u64];
        if let Some(extra) = std::env::var("PVC_ORACLE_SEED")
            .ok()
            .and_then(|s| s.parse().ok())
        {
            seeds.push(extra);
        }
        for seed in seeds {
            let mut rng = pvc_prob::SeededRng::seed_from_u64(seed);
            for _ in 0..1_000 {
                let n = rng.gen_range(1usize..60);
                let pool = rng.gen_range(1u32..(3 * n as u32 + 2));
                let sets: Vec<VarSet> = (0..n)
                    .map(|_| {
                        let size = rng.gen_range(0usize..5);
                        (0..size).map(|_| Var(rng.gen_range(0..pool))).collect()
                    })
                    .collect();
                check(&sets);
            }
        }
    }

    #[test]
    fn components_are_ordered_by_representative() {
        // The cache layer folds component distributions in this order, so it is
        // part of the bit-identity contract: union by rank makes the *later* of
        // two equal-rank sets the representative, so {0, 2} (representative 2)
        // comes after the singleton {1}.
        let sets = vec![vs(&[1]), vs(&[2]), vs(&[1, 3]), vs(&[4])];
        let comps = connected_components(&sets);
        assert_eq!(comps, vec![vec![1], vec![0, 2], vec![3]]);
    }
}
