//! The canonical compilation cache: bounded memoisation of d-tree compilation
//! artifacts (semiring distributions / confidences and aggregate monoid
//! distributions), keyed by the **canonical ids** of the hash-consed expression
//! arena ([`pvc_expr::intern`]).
//!
//! Two pieces live here:
//!
//! * [`CompilationCache`] — an LRU store with configurable entry- and byte-bounds
//!   ([`CacheConfig`]) and hit/miss/eviction/cross-scope counters
//!   ([`CacheCounters`]). Keys are [`ExprId`] / [`AggExprId`], which are canonical
//!   under commutative operand reordering, so structurally-equal provenance compiled
//!   under *different renderings* shares one entry.
//! * [`SharedArtifacts`] — the **thread-safe, `Arc`-shareable** pairing of an
//!   [`Interner`] and a [`CompilationCache`] behind mutexes, and the cache-aware
//!   evaluation driver: it consults the cache at every independent sub-d-tree
//!   (the compiler's rule 2 split, and rule 5 for a conditional `[s θ c]`
//!   against a constant — see `plan_semiring`), so a large annotation whose
//!   independent components recur elsewhere reuses their distributions without
//!   recompiling, and newly computed sub-distributions are inserted on the way
//!   out. The split is the compiler's own: the store plans with the
//!   compiler's [`Partitioner`] through the same [`Partitioner::split`] call —
//!   which takes the interner's disjointness bit and, when it is set (a group
//!   of tuple-independent rows), returns the operands in order with no
//!   union–find — folds the components in its order, and
//!   folds semiring values with the arena's own `⊕` / `⊙` / `[θ]` arms
//!   (SUM / COUNT aggregates through the [`AdditiveFold`] the arena's `⊕`
//!   uses), so its answer is the compiled circuit's, bit for bit.
//!   It is **lock-granular**: locks are held only around intern / lookup /
//!   insert operations, never across a d-tree compilation, so parallel tuple
//!   workers share artifacts without serialising their compilations. One
//!   `Arc<SharedArtifacts>` can also back several engines (multi-tenant
//!   serving over one database).
//!
//! What is memoised: every independent component with **two or more variables or
//! a non-variable coefficient**. A component that is a single bare variable `x`
//! (or one aggregate term `x ⊗ m`) is a *leaf component*: its distribution is
//! `P_x` (or `P_x` mapped through the scalar action), which the [`VarTable`]
//! already holds — reading it is cheaper than the intern → lookup → compile →
//! insert round trip a cache entry costs, so leaves are evaluated
//! inline and leave no trace in the interner, the cache or the counters. The
//! enclosing expression's own entry still carries every leaf's variable in its
//! var-set, so [`SharedArtifacts::evict_touching`] is unaffected.
//!
//! What is not memoised: the compiled circuit. The paper compiles an
//! expression into a d-tree and evaluates it once for its distribution (§5); a
//! circuit is worth keeping only to evaluate it again under another
//! interpretation, and every reader of this store asks for the distribution it
//! already keeps under the same id. So a component with no further split is
//! compiled in lent scratch, its arena is evaluated where it was emitted, and
//! nothing but the distribution is inserted — an evicted distribution is
//! recomputed by compiling again.
//!
//! Caching distributions (rather than bare confidences) is what makes sub-d-tree
//! composition possible: independent sums/products combine cached distributions by
//! convolution (Eqs. 4–7 of the paper) in time `O(|p_1|·|p_2|)`.
//!
//! The store's own id-keyed tables (the LRU slab index, `settled`'s visited
//! set) hash with the interner's [`IdHasher`]: their keys are ids this program
//! issued, so SipHash's protection buys nothing there.
//!
//! Correctness contract: cached artifacts are functions of (expression structure,
//! variable distributions, ambient semiring). Callers must clear the cache whenever
//! variable distributions change, and must bypass it when compilation is made
//! observably fallible (node budgets) — the engine in `pvc-db` does both.

use crate::arena::{Interp, Val};
use crate::compile::{BudgetExceeded, CompileOptions, CompileScratch, Compiler};
use crate::node::DTreeError;
use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringKind, SemiringValue};
use pvc_expr::independence::{Hint, Partitioner};
use pvc_expr::intern::{AggExprId, ExprId, IdHasher, ImportMemo, InternedExpr, Interner};
use pvc_expr::vars::sorted_disjoint;
use pvc_expr::{SemimoduleExpr, SemiringExpr, Var, VarSet, VarTable};
use pvc_prob::{AdditiveFold, ChainVal, MonoidDist, SemiringDist};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::{Mutex, MutexGuard};

/// Size bounds for the [`CompilationCache`]. **Each of the two distribution
/// maps** (semiring, aggregate) enforces both bounds independently — the
/// worst-case total footprint is therefore `2 × max_bytes` / `2 × max_entries`;
/// size a memory budget accordingly. The least-recently-used entry of a map is
/// evicted first, and at least one entry is always retained per map, so a single
/// oversized artifact cannot render the cache useless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Maximum number of entries per artifact map.
    pub max_entries: usize,
    /// Maximum approximate payload bytes per artifact map.
    pub max_bytes: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            max_entries: 1 << 16,
            max_bytes: 64 << 20,
        }
    }
}

/// Monotonic counters describing cache behaviour since the last clear.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that had to compute the artifact.
    pub misses: u64,
    /// Hits whose entry was inserted under a *different scope* (the engine scopes
    /// lookups by query, so these are cross-query reuses).
    pub cross_scope_hits: u64,
    /// Entries evicted by the LRU bounds.
    pub evictions: u64,
    /// Circuits compiled through the store: one per component with no further
    /// independent split whose distribution had to be computed. (No arena is
    /// kept, so every such component is a miss; the name predates that.)
    pub arena_misses: u64,
}

/// A doubly-linked LRU map from `u32` canonical ids to artifacts.
///
/// Implemented over a slab (`Vec<Option<Entry>>` + free list) so that promotion and
/// eviction are O(1) and no external crate is needed.
#[derive(Debug)]
struct Lru<V> {
    /// Slot of each key: keys are interner ids, hashed with the interner's
    /// [`IdHasher`].
    map: HashMap<u32, usize, BuildHasherDefault<IdHasher>>,
    slots: Vec<Option<LruEntry<V>>>,
    free: Vec<usize>,
    head: usize, // most recently used; NONE when empty
    tail: usize, // least recently used; NONE when empty
    bytes: usize,
}

#[derive(Debug)]
struct LruEntry<V> {
    key: u32,
    value: V,
    bytes: usize,
    scope: u64,
    prev: usize,
    next: usize,
}

const NONE: usize = usize::MAX;

impl<V> Lru<V> {
    fn new() -> Self {
        Lru {
            map: HashMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NONE,
            tail: NONE,
            bytes: 0,
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn bytes(&self) -> usize {
        self.bytes
    }

    fn clear(&mut self) {
        self.map.clear();
        self.slots.clear();
        self.free.clear();
        self.head = NONE;
        self.tail = NONE;
        self.bytes = 0;
    }

    fn unlink(&mut self, slot: usize) {
        let (prev, next) = {
            let e = self.slots[slot].as_ref().expect("linked slot");
            (e.prev, e.next)
        };
        if prev != NONE {
            self.slots[prev].as_mut().expect("linked slot").next = next;
        } else {
            self.head = next;
        }
        if next != NONE {
            self.slots[next].as_mut().expect("linked slot").prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, slot: usize) {
        {
            let e = self.slots[slot].as_mut().expect("slot");
            e.prev = NONE;
            e.next = self.head;
        }
        if self.head != NONE {
            self.slots[self.head].as_mut().expect("head slot").prev = slot;
        }
        self.head = slot;
        if self.tail == NONE {
            self.tail = slot;
        }
    }

    /// Look up and promote to most-recently-used. Returns the value and the scope
    /// the entry was inserted under.
    fn get(&mut self, key: u32) -> Option<(&V, u64)> {
        let slot = *self.map.get(&key)?;
        self.unlink(slot);
        self.push_front(slot);
        let e = self.slots[slot].as_ref().expect("slot");
        Some((&e.value, e.scope))
    }

    /// Every entry as `(key, scope, value)`, least-recently-used first — the
    /// order the snapshot codec replays inserts in, so restoring reproduces the
    /// recency order. Does not promote.
    fn entries_oldest_first(&self) -> Vec<(u32, u64, &V)> {
        let mut out = Vec::with_capacity(self.map.len());
        let mut cur = self.tail;
        while cur != NONE {
            let e = self.slots[cur].as_ref().expect("linked slot");
            out.push((e.key, e.scope, &e.value));
            cur = e.prev;
        }
        out
    }

    /// Remove one entry by key, leaving the recency order of the others intact.
    /// Returns true if the key was present.
    fn remove(&mut self, key: u32) -> bool {
        let Some(slot) = self.map.remove(&key) else {
            return false;
        };
        self.unlink(slot);
        let e = self.slots[slot].take().expect("mapped slot");
        self.bytes -= e.bytes;
        self.free.push(slot);
        true
    }

    /// Insert or replace; evicts least-recently-used entries beyond the bounds.
    /// Returns the number of evictions performed.
    fn insert(
        &mut self,
        key: u32,
        value: V,
        bytes: usize,
        scope: u64,
        config: &CacheConfig,
    ) -> u64 {
        if let Some(&slot) = self.map.get(&key) {
            self.unlink(slot);
            let e = self.slots[slot].as_mut().expect("slot");
            self.bytes = self.bytes - e.bytes + bytes;
            e.value = value;
            e.bytes = bytes;
            e.scope = scope;
            self.push_front(slot);
        } else {
            let slot = match self.free.pop() {
                Some(s) => {
                    self.slots[s] = Some(LruEntry {
                        key,
                        value,
                        bytes,
                        scope,
                        prev: NONE,
                        next: NONE,
                    });
                    s
                }
                None => {
                    self.slots.push(Some(LruEntry {
                        key,
                        value,
                        bytes,
                        scope,
                        prev: NONE,
                        next: NONE,
                    }));
                    self.slots.len() - 1
                }
            };
            self.map.insert(key, slot);
            self.bytes += bytes;
            self.push_front(slot);
        }
        let mut evictions = 0;
        while self.len() > 1 && (self.len() > config.max_entries || self.bytes > config.max_bytes) {
            let victim = self.tail;
            self.unlink(victim);
            let e = self.slots[victim].take().expect("tail slot");
            self.map.remove(&e.key);
            self.bytes -= e.bytes;
            self.free.push(victim);
            evictions += 1;
        }
        evictions
    }
}

/// Approximate payload size of a distribution: support entries times the size of a
/// `(value, f64)` pair plus per-entry B-tree overhead.
fn dist_bytes<T: Ord + Clone>(d: &pvc_prob::Dist<T>) -> usize {
    64 + d.support_size() * (std::mem::size_of::<T>() + std::mem::size_of::<f64>() + 32)
}

/// The bounded memo store for compilation artifacts. See the [module
/// documentation](self).
#[derive(Debug)]
pub struct CompilationCache {
    config: CacheConfig,
    semiring: Lru<SemiringDist>,
    aggregate: Lru<MonoidDist>,
    counters: CacheCounters,
}

impl Default for CompilationCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl CompilationCache {
    /// An empty cache with the given bounds.
    pub fn new(config: CacheConfig) -> Self {
        CompilationCache {
            config,
            semiring: Lru::new(),
            aggregate: Lru::new(),
            counters: CacheCounters::default(),
        }
    }

    /// The configured bounds.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// Counters since the last [`clear`](Self::clear).
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Number of cached semiring distributions.
    pub fn semiring_entries(&self) -> usize {
        self.semiring.len()
    }

    /// Number of cached aggregate distributions.
    pub fn aggregate_entries(&self) -> usize {
        self.aggregate.len()
    }

    /// Approximate payload bytes across both distribution maps.
    pub fn bytes(&self) -> usize {
        self.semiring.bytes() + self.aggregate.bytes()
    }

    /// Drop every entry and reset the counters (used when the underlying variable
    /// distributions change).
    pub fn clear(&mut self) {
        self.semiring.clear();
        self.aggregate.clear();
        self.counters = CacheCounters::default();
    }

    /// Export every cached distribution with its key and insertion scope, each
    /// map in least-recently-used-first order — the save half of the snapshot
    /// codec in [`crate::persist`]. Read-only: no promotions, no counter changes.
    pub(crate) fn export(&self) -> CacheExport<'_> {
        CacheExport {
            semiring: self.semiring.entries_oldest_first(),
            aggregate: self.aggregate.entries_oldest_first(),
        }
    }

    /// Count one circuit compiled through the store (see
    /// [`CacheCounters::arena_misses`]).
    fn record_compilation(&mut self) {
        self.counters.arena_misses += 1;
        crate::obs::core_metrics().cache_arena_miss.inc();
    }

    /// Cached distribution of a semiring expression, promoting the entry. `scope`
    /// identifies the caller's query; a hit against an entry from another scope is
    /// counted as a cross-scope (cross-query) hit.
    pub fn get_semiring(&mut self, id: ExprId, scope: u64) -> Option<SemiringDist> {
        self.map_semiring(id, scope, SemiringDist::clone)
    }

    /// As [`get_semiring`](Self::get_semiring), but reduces the cached distribution
    /// under the borrow — no clone. This is the warm path for callers that only
    /// need a scalar (e.g. the tuple confidence).
    pub fn map_semiring<R>(
        &mut self,
        id: ExprId,
        scope: u64,
        f: impl FnOnce(&SemiringDist) -> R,
    ) -> Option<R> {
        match self.semiring.get(id.0) {
            Some((d, entry_scope)) => {
                let r = f(d);
                self.counters.hits += 1;
                crate::obs::core_metrics().cache_semiring_hit.inc();
                if entry_scope != scope {
                    self.counters.cross_scope_hits += 1;
                }
                Some(r)
            }
            None => {
                self.counters.misses += 1;
                crate::obs::core_metrics().cache_semiring_miss.inc();
                None
            }
        }
    }

    /// Insert the distribution of a semiring expression.
    pub fn insert_semiring(&mut self, id: ExprId, scope: u64, dist: &SemiringDist) {
        let bytes = dist_bytes(dist);
        let evicted = self
            .semiring
            .insert(id.0, dist.clone(), bytes, scope, &self.config);
        self.counters.evictions += evicted;
        crate::obs::core_metrics().cache_eviction.add(evicted);
    }

    /// Cached distribution of a semimodule (aggregate) expression.
    pub fn get_aggregate(&mut self, id: AggExprId, scope: u64) -> Option<MonoidDist> {
        match self.aggregate.get(id.0) {
            Some((d, entry_scope)) => {
                let d = d.clone();
                self.counters.hits += 1;
                crate::obs::core_metrics().cache_aggregate_hit.inc();
                if entry_scope != scope {
                    self.counters.cross_scope_hits += 1;
                }
                Some(d)
            }
            None => {
                self.counters.misses += 1;
                crate::obs::core_metrics().cache_aggregate_miss.inc();
                None
            }
        }
    }

    /// Insert the distribution of a semimodule expression.
    pub fn insert_aggregate(&mut self, id: AggExprId, scope: u64, dist: &MonoidDist) {
        let bytes = dist_bytes(dist);
        let evicted = self
            .aggregate
            .insert(id.0, dist.clone(), bytes, scope, &self.config);
        self.counters.evictions += evicted;
        crate::obs::core_metrics().cache_eviction.add(evicted);
    }
}

/// The borrowed artifact listing produced by [`CompilationCache::export`]:
/// every map's entries as `(key, scope, value)` in least-recently-used-first
/// order.
#[derive(Debug)]
pub(crate) struct CacheExport<'a> {
    pub(crate) semiring: Vec<(u32, u64, &'a SemiringDist)>,
    pub(crate) aggregate: Vec<(u32, u64, &'a MonoidDist)>,
}

/// Errors raised by the cache-aware evaluator: either compilation exceeded its node
/// budget or a malformed d-tree was evaluated.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EvalError {
    /// The d-tree node budget of [`CompileOptions`] was exceeded.
    Budget(BudgetExceeded),
    /// Distribution extraction failed on a malformed tree.
    Tree(DTreeError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Budget(e) => write!(f, "{e}"),
            EvalError::Tree(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<BudgetExceeded> for EvalError {
    fn from(e: BudgetExceeded) -> Self {
        EvalError::Budget(e)
    }
}

impl From<DTreeError> for EvalError {
    fn from(e: DTreeError) -> Self {
        EvalError::Tree(e)
    }
}

/// One operand of the independence fold over an aggregate's components.
enum FoldPart<'a> {
    /// A leaf component `x ⊗ m`: `P_x` (read off the variable table) mapped
    /// through the scalar action — what the arena's
    /// `Tensor(VarLeaf(x), MConst(m))` yields, since a convolution with the
    /// point distribution on `m` multiplies every probability by 1.0 and
    /// coalesces in the same order.
    Leaf(&'a SemiringDist, MonoidValue),
    /// A memoised component's distribution.
    Memo(MonoidDist),
}

/// Fold the distributions of pairwise-independent aggregate components into
/// one. For the additive operators (SUM, COUNT) the fold runs through one
/// [`AdditiveFold`]: the accumulator stays in offset-indexed dense form across
/// the *whole* fold instead of round-tripping to sorted-vector form after every
/// component, a leaf's cells go in without a distribution being built for
/// them, every step reuses the accumulator's buffers, and the result
/// materialises exactly once at the end (that final hand-off is the natural
/// end of the chain, not a demotion — same convention as the arena's root
/// hand-off). Bit-identical to the stepwise sparse fold below the FFT
/// crossover; ε-close above it.
fn fold_components<'a, E>(
    op: AggOp,
    parts: impl Iterator<Item = Result<FoldPart<'a>, E>>,
) -> Result<MonoidDist, E> {
    if matches!(op, AggOp::Sum | AggOp::Count) {
        let mut fold = AdditiveFold::new();
        for part in parts {
            match part? {
                FoldPart::Leaf(px, m) => {
                    fold.push_cells(px.iter().map(|(s, p)| (op.scalar_action(s, &m), p)))
                }
                FoldPart::Memo(d) => fold.push(ChainVal::Sparse(d)),
            }
        }
        return Ok(fold.take().expect("at least one component").into_dist());
    }
    let mut acc: Option<MonoidDist> = None;
    for part in parts {
        let d = match part? {
            FoldPart::Leaf(px, m) => px.map(|s| op.scalar_action(s, &m)),
            FoldPart::Memo(d) => d,
        };
        acc = Some(match acc {
            None => d,
            Some(a) => a.convolve(&d, |x, y| op.combine(x, y)),
        });
    }
    Ok(acc.expect("at least one component"))
}

/// The total mass of non-`0_S` outcomes — the tuple-confidence reading of a
/// semiring distribution; `+0.0` when every outcome is `0_S`.
pub fn confidence_of(dist: &SemiringDist) -> f64 {
    dist.iter()
        .filter(|(v, _)| !v.is_zero())
        .fold(0.0, |sum, (_, p)| sum + p)
}

/// A thread-safe compile-artifact store: one [`Interner`] and one
/// [`CompilationCache`] behind mutexes, shareable across worker threads and across
/// engines via `Arc<SharedArtifacts>`.
///
/// The evaluation entry points ([`evaluate_semiring`](Self::evaluate_semiring),
/// [`evaluate_aggregate`](Self::evaluate_aggregate)) split on independence and
/// memoise every non-leaf component (see the [module documentation](self)),
/// taking each lock only
/// around the individual intern / lookup / insert steps. The expensive part — d-tree
/// compilation of a component with no further independent split, and the
/// evaluation of the arena it emits — runs with **no lock held**, so concurrent
/// workers only contend for microseconds at the cache boundary.
///
/// Concurrency semantics: two workers may race to compute the *same* canonical id;
/// both compute the identical distribution (evaluation is a pure function of the
/// interned structure, the variable table and the semiring), and the second insert
/// overwrites the first with an equal value. Results are therefore independent of
/// scheduling; only the hit/miss counters can differ between runs.
///
/// Lock ordering: evaluation paths hold at most one of the mutexes at a time;
/// only [`clear`](Self::clear) takes two (interner before cache, to reset them
/// atomically), so no lock cycle — and no deadlock — is possible.
#[derive(Debug, Default)]
pub struct SharedArtifacts {
    interner: Mutex<Interning>,
    cache: Mutex<CompilationCache>,
    /// The compile-local tables of finished compilations, waiting for the next
    /// miss: a compilation takes one (or starts a new one) and gives it back, so
    /// there are as many as compilations have run at once. They hold no
    /// artifacts, only room — each as much as the largest compilation it served
    /// needed — so [`clear`](Self::clear) and [`compact`](Self::compact), where
    /// the store gives memory back, free them too.
    scratch: Mutex<Vec<CompileScratch>>,
    /// Completed compaction generations (see [`compact`](Self::compact)).
    generation: std::sync::atomic::AtomicU64,
}

/// What one [`SharedArtifacts::compact`] pass retired and retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CompactionStats {
    /// Interned nodes (semiring + semimodule) before the pass.
    pub interned_before: usize,
    /// Interned nodes after re-interning only the live cache entries.
    pub interned_after: usize,
    /// Approximate cache payload bytes before the pass.
    pub bytes_before: usize,
    /// Approximate cache payload bytes after the pass.
    pub bytes_after: usize,
    /// Cached distributions carried over into the new generation.
    pub entries_kept: usize,
    /// The generation number this pass completed (1 after the first pass).
    pub generation: u64,
}

/// What one [`SharedArtifacts::evict_touching`] pass removed and retained.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EvictionStats {
    /// Cached distributions whose variable set intersected the touched set and
    /// were therefore dropped.
    pub evicted: usize,
    /// Cache entries retained verbatim (variable set disjoint from the touched
    /// set).
    pub kept: usize,
}

impl SharedArtifacts {
    /// An empty store with the given cache bounds.
    pub fn new(config: CacheConfig) -> Self {
        SharedArtifacts {
            interner: Mutex::default(),
            cache: Mutex::new(CompilationCache::new(config)),
            scratch: Mutex::default(),
            generation: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// Run `f` on a compiler working in lent scratch (see the `scratch` field).
    /// The lock is held to take the scratch and to give it back, not in between.
    fn with_compiler<R>(
        &self,
        vars: &VarTable,
        kind: SemiringKind,
        options: &CompileOptions,
        f: impl FnOnce(&mut Compiler<'_>) -> R,
    ) -> R {
        let lent = self.scratch().pop();
        let scratch = lent.unwrap_or_else(|| CompileScratch::new(kind));
        let mut compiler = Compiler::with_scratch(vars, kind, options.clone(), scratch);
        let result = f(&mut compiler);
        self.scratch().push(compiler.into_scratch());
        result
    }

    fn scratch(&self) -> MutexGuard<'_, Vec<CompileScratch>> {
        self.scratch.lock().expect("compile-scratch mutex poisoned")
    }

    fn interner(&self) -> MutexGuard<'_, Interning> {
        self.interner.lock().expect("interner mutex poisoned")
    }

    fn cache(&self) -> MutexGuard<'_, CompilationCache> {
        self.cache.lock().expect("artifact-cache mutex poisoned")
    }

    /// Drop every artifact and reset the arena and counters (used when the
    /// underlying variable distributions change). Affects every sharer of the
    /// `Arc`.
    ///
    /// Arena and cache are swapped under **both** guards: a fresh arena recycles
    /// low ids, so a concurrent worker interning between the two resets could
    /// otherwise match a stale cache entry keyed by a recycled id and read a
    /// different expression's distribution. This is the one place both locks are
    /// held at once (always interner before cache); every other path takes at
    /// most one at a time, so no cycle — and no deadlock — is possible.
    pub fn clear(&self) {
        self.scratch().clear();
        let mut interning = self.interner();
        let mut cache = self.cache();
        *interning = Interning::default();
        cache.clear();
    }

    /// Completed [`compact`](Self::compact) generations.
    pub fn generation(&self) -> u64 {
        self.generation.load(std::sync::atomic::Ordering::Relaxed)
    }

    /// Retire the current arena generation: re-intern **only the expressions
    /// still referenced by cache entries** into a fresh [`Interner`] and rebuild
    /// the cache maps under the remapped ids (preserving LRU recency order,
    /// insertion scopes and the behaviour counters).
    ///
    /// The hash-consed arena only ever grows — every expression any query ever
    /// interned stays resident even after its cached artifacts were LRU-evicted.
    /// For a long-lived serving process that is an unbounded leak; compacting
    /// between request batches bounds the arena by what the (already bounded)
    /// cache still references.
    ///
    /// Concurrency contract: like [`clear`](Self::clear), this swaps the arena
    /// under both locks (interner before cache, the one sanctioned lock order),
    /// so the store is never observable half-compacted. Callers must ensure no
    /// evaluation is **in flight across the swap** — an id interned before the
    /// pass must not be evaluated after it (ids are remapped). The `pvc-serve`
    /// scheduler compacts strictly between batches, when no worker holds an id.
    pub fn compact(&self) -> CompactionStats {
        self.scratch().clear();
        let mut interning = self.interner();
        let interner = &interning.interner;
        let mut cache = self.cache();
        let stats_before = (interner.len() + interner.agg_len(), cache.bytes());
        let mut fresh_interner = Interner::new();
        let mut fresh_cache = CompilationCache::new(cache.config);
        fresh_cache.counters = cache.counters;
        let config = cache.config;
        let mut entries_kept = 0usize;
        // Re-insert oldest-first so the new maps reproduce the recency order —
        // the same replay discipline the snapshot codec uses. One memo across all
        // entries: what several of them share is copied once.
        let mut memo = ImportMemo::default();
        for (key, scope, dist) in cache.semiring.entries_oldest_first() {
            let id = fresh_interner.import(interner, ExprId(key), &mut memo);
            fresh_cache
                .semiring
                .insert(id.0, dist.clone(), dist_bytes(dist), scope, &config);
            entries_kept += 1;
        }
        for (key, scope, dist) in cache.aggregate.entries_oldest_first() {
            let id = fresh_interner.import_agg(interner, AggExprId(key), &mut memo);
            fresh_cache
                .aggregate
                .insert(id.0, dist.clone(), dist_bytes(dist), scope, &config);
            entries_kept += 1;
        }
        *interning = Interning {
            interner: fresh_interner,
            ..Interning::default()
        };
        *cache = fresh_cache;
        let generation = self
            .generation
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        CompactionStats {
            interned_before: stats_before.0,
            interned_after: interning.interner.len() + interning.interner.agg_len(),
            bytes_before: stats_before.1,
            bytes_after: cache.bytes(),
            entries_kept,
            generation,
        }
    }

    /// Selectively drop every cache entry whose expression mentions one of the
    /// `touched` variables, keeping all disjoint entries verbatim — the delta
    /// invalidation primitive behind `Engine::apply_delta` in `pvc-db`.
    ///
    /// Soundness rests on the cache contract: artifacts are pure functions of
    /// (expression structure, variable distributions, semiring). A delta that
    /// changes the distributions of exactly the `touched` variables leaves every
    /// disjoint entry's inputs — and hence its distribution — unchanged, so those
    /// entries stay valid without recomputation. The membership test uses the
    /// var-sets the interner precomputed at intern time; no tree is re-walked.
    ///
    /// The interner itself is left alone (it is append-only; dead nodes are
    /// reclaimed by the next [`compact`](Self::compact)). Both locks are held for
    /// the duration (interner before cache, the sanctioned order), so concurrent
    /// workers never observe a half-evicted store. Behaviour counters are not
    /// reset; these evictions are reported through the returned
    /// [`EvictionStats`], not through [`CacheCounters::evictions`] (which counts
    /// capacity evictions only).
    pub fn evict_touching(&self, touched: &VarSet) -> EvictionStats {
        let interning = self.interner();
        let interner = &interning.interner;
        let mut cache = self.cache();
        let mut evicted = 0usize;
        if !touched.is_empty() {
            let keys: Vec<u32> = cache
                .semiring
                .entries_oldest_first()
                .into_iter()
                .map(|(k, _, _)| k)
                .collect();
            for k in keys {
                if !sorted_disjoint(interner.var_set(ExprId(k)), touched.as_slice())
                    && cache.semiring.remove(k)
                {
                    evicted += 1;
                }
            }
            let keys: Vec<u32> = cache
                .aggregate
                .entries_oldest_first()
                .into_iter()
                .map(|(k, _, _)| k)
                .collect();
            for k in keys {
                if !sorted_disjoint(interner.agg_var_set(AggExprId(k)), touched.as_slice())
                    && cache.aggregate.remove(k)
                {
                    evicted += 1;
                }
            }
            crate::obs::core_metrics()
                .cache_eviction
                .add(evicted as u64);
        }
        let kept = cache.semiring.len() + cache.aggregate.len();
        EvictionStats { evicted, kept }
    }

    /// Intern a semiring expression into its canonical id.
    pub fn intern(&self, expr: &SemiringExpr) -> ExprId {
        self.interner().interner.intern(expr)
    }

    /// Intern a semimodule expression into its canonical id.
    pub fn intern_semimodule(&self, expr: &SemimoduleExpr) -> AggExprId {
        self.interner().interner.intern_semimodule(expr)
    }

    /// Reduce the cached distribution of `id` under the lock (no clone), promoting
    /// the entry. `None` on a miss.
    pub fn map_semiring<R>(
        &self,
        id: ExprId,
        scope: u64,
        f: impl FnOnce(&SemiringDist) -> R,
    ) -> Option<R> {
        self.cache().map_semiring(id, scope, f)
    }

    /// Insert the distribution of a semiring expression.
    pub fn insert_semiring(&self, id: ExprId, scope: u64, dist: &SemiringDist) {
        self.cache().insert_semiring(id, scope, dist);
    }

    /// Cached distribution of a semimodule expression, if present.
    pub fn get_aggregate(&self, id: AggExprId, scope: u64) -> Option<MonoidDist> {
        self.cache().get_aggregate(id, scope)
    }

    /// Insert the distribution of a semimodule expression.
    pub fn insert_aggregate(&self, id: AggExprId, scope: u64, dist: &MonoidDist) {
        self.cache().insert_aggregate(id, scope, dist);
    }

    /// Get-or-compute the distribution of an interned semiring expression,
    /// memoising every independent sub-d-tree along the way.
    pub fn evaluate_semiring(
        &self,
        id: ExprId,
        vars: &VarTable,
        kind: SemiringKind,
        options: &CompileOptions,
        scope: u64,
    ) -> Result<SemiringDist, EvalError> {
        let span = crate::obs::span("subtree");
        if let Some(d) = self.cache().get_semiring(id, scope) {
            if let Some(s) = &span {
                s.attr("cache", "hit".into());
            }
            return Ok(d);
        }
        if let Some(s) = &span {
            s.attr("cache", "miss".into());
        }
        self.fill_semiring(id, vars, kind, options, scope)
    }

    /// Compute the distribution of `id` (assuming the caller already observed a
    /// cache miss) and insert it — no second lookup, so the miss is counted once.
    pub fn fill_semiring(
        &self,
        id: ExprId,
        vars: &VarTable,
        kind: SemiringKind,
        options: &CompileOptions,
        scope: u64,
    ) -> Result<SemiringDist, EvalError> {
        let dist = self.compute_semiring(id, vars, kind, options, scope)?;
        self.insert_semiring(id, scope, &dist);
        Ok(dist)
    }

    /// Get-or-compute the distribution of an interned semimodule expression.
    pub fn evaluate_aggregate(
        &self,
        id: AggExprId,
        vars: &VarTable,
        kind: SemiringKind,
        options: &CompileOptions,
        scope: u64,
    ) -> Result<MonoidDist, EvalError> {
        let span = crate::obs::span("subtree");
        if let Some(d) = self.get_aggregate(id, scope) {
            if let Some(s) = &span {
                s.attr("cache", "hit".into());
            }
            return Ok(d);
        }
        if let Some(s) = &span {
            s.attr("cache", "miss".into());
        }
        self.fill_aggregate(id, vars, kind, options, scope)
    }

    /// As [`fill_semiring`](Self::fill_semiring), for semimodule expressions.
    pub fn fill_aggregate(
        &self,
        id: AggExprId,
        vars: &VarTable,
        kind: SemiringKind,
        options: &CompileOptions,
        scope: u64,
    ) -> Result<MonoidDist, EvalError> {
        let dist = self.compute_aggregate(id, vars, kind, options, scope)?;
        self.insert_aggregate(id, scope, &dist);
        Ok(dist)
    }

    fn compute_semiring(
        &self,
        id: ExprId,
        vars: &VarTable,
        kind: SemiringKind,
        options: &CompileOptions,
        scope: u64,
    ) -> Result<SemiringDist, EvalError> {
        // Plan an independent split under the interner lock (interning the
        // non-leaf group ids); the evaluations below run unlocked.
        let plan = match options.independence {
            true => plan_semiring(&mut self.interner(), id),
            false => None,
        };
        if let Some(SemiringPlan {
            is_add,
            components,
            compare,
        }) = plan
        {
            // The arena's own arms, over the values it would carry: the
            // chain `Compiler::compile_components` emits, evaluated in place.
            let cells = kind == SemiringKind::Bool;
            let _span = compare.is_some().then(|| fold_span(&components));
            let mut pairs = Vec::new();
            let mut acc: Option<Val> = None;
            for component in components {
                let part = match component {
                    Component::Leaf { var, .. } => Val::leaf(vars.dist(var), cells),
                    Component::Memo(gid) => Val::semiring(
                        self.evaluate_semiring(gid, vars, kind, options, scope)?,
                        cells,
                    ),
                };
                acc = Some(match acc {
                    None => part,
                    Some(left) => crate::arena::combine_semiring(is_add, left, part, &mut pairs)?,
                });
            }
            let side = acc.expect("at least two components");
            let result = match compare {
                None => side,
                Some(Comparison {
                    theta,
                    constant,
                    constant_left,
                }) => {
                    let constant = Val::constant(constant, cells);
                    let (left, right) = match constant_left {
                        true => (constant, side),
                        false => (side, constant),
                    };
                    crate::arena::compare(theta, left, right, kind, cells, &mut pairs)?
                }
            };
            return Ok(result.into_semiring("root")?);
        }
        // No further split: copy the expression's DAG into lent compile scratch
        // under the interner lock, compile it with no lock held, and evaluate
        // the emitted arena where it lies.
        let span = crate::obs::span("compile");
        self.cache().record_compilation();
        self.with_compiler(vars, kind, options, |compiler| {
            let root = compiler.load_semiring(&self.interner().interner, id);
            let arena = compiler.emit_loaded_semiring(root)?;
            if let Some(s) = &span {
                s.attr("nodes", arena.len().to_string());
            }
            drop(span);
            let span = crate::obs::span("evaluate");
            let (dist, interp) = arena.semiring_distribution_by(vars, kind)?;
            if let Some(s) = &span {
                s.attr("interp", interp.as_str().into());
            }
            Ok(dist)
        })
    }

    fn compute_aggregate(
        &self,
        id: AggExprId,
        vars: &VarTable,
        kind: SemiringKind,
        options: &CompileOptions,
        scope: u64,
    ) -> Result<MonoidDist, EvalError> {
        let split = if options.independence {
            let mut interning = self.interner();
            let node = interning.interner.agg_node(id);
            let (op, terms) = (node.op, node.terms.to_vec());
            let disjoint = interning.interner.terms_disjoint(id);
            independent_components(
                &mut interning,
                &terms,
                disjoint,
                |(coeff, _)| coeff,
                |interner, group| interner.intern_agg(op, group),
            )
            .map(|parts| (op, terms, parts))
        } else {
            None
        };
        if let Some((op, terms, parts)) = split {
            let _span = fold_span(&parts);
            return fold_components(
                op,
                parts.into_iter().map(|part| match part {
                    Component::Leaf { var, index } => {
                        Ok(FoldPart::Leaf(vars.dist(var), terms[index].1))
                    }
                    Component::Memo(gid) => self
                        .evaluate_aggregate(gid, vars, kind, options, scope)
                        .map(FoldPart::Memo),
                }),
            );
        }
        let span = crate::obs::span("compile");
        self.cache().record_compilation();
        self.with_compiler(vars, kind, options, |compiler| {
            let root = compiler.load_semimodule(&self.interner().interner, id);
            let arena = compiler.emit_loaded_semimodule(root)?;
            if let Some(s) = &span {
                s.attr("nodes", arena.len().to_string());
            }
            drop(span);
            let span = crate::obs::span("evaluate");
            if let Some(s) = &span {
                s.attr("interp", Interp::Dist.as_str().into());
            }
            Ok(arena.monoid_distribution(vars, kind)?)
        })
    }

    /// Counters since the last clear.
    pub fn counters(&self) -> CacheCounters {
        self.cache().counters()
    }

    /// The configured bounds.
    pub fn config(&self) -> CacheConfig {
        self.cache().config()
    }

    /// Number of cached semiring distributions.
    pub fn semiring_entries(&self) -> usize {
        self.cache().semiring_entries()
    }

    /// Number of cached aggregate distributions.
    pub fn aggregate_entries(&self) -> usize {
        self.cache().aggregate_entries()
    }

    /// Approximate payload bytes across both distribution maps.
    pub fn bytes(&self) -> usize {
        self.cache().bytes()
    }

    /// Distinct interned nodes (semiring + semimodule) in the arena.
    pub fn interned_nodes(&self) -> usize {
        let interning = self.interner();
        interning.interner.len() + interning.interner.agg_len()
    }

    /// Serialise the whole store into snapshot bytes (see [`crate::persist`]),
    /// returning the bytes together with the exact content counts of the
    /// snapshot. `fingerprint` identifies the database the artifacts were
    /// computed under and `table_fingerprints` is its per-table refinement
    /// (stored so loaders can pinpoint which tables diverged); `extra` is an
    /// opaque caller section stored verbatim (the engine persists its step-I
    /// rewrite cache there). Both locks are held for the duration (interner
    /// before cache, the same order as [`clear`](Self::clear)), so the
    /// snapshot — and the returned counts — are a consistent point-in-time view
    /// even while other sharers keep inserting.
    pub fn snapshot_bytes(
        &self,
        fingerprint: u64,
        table_fingerprints: &[(String, u64)],
        extra: Option<&[u8]>,
    ) -> (Vec<u8>, crate::persist::RestoreStats) {
        let interning = self.interner();
        let interner = &interning.interner;
        let cache = self.cache();
        let counts = crate::persist::RestoreStats {
            interned_exprs: interner.len(),
            interned_aggs: interner.agg_len(),
            distributions: cache.semiring_entries() + cache.aggregate_entries(),
        };
        (
            crate::persist::encode_snapshot(
                interner,
                &cache,
                fingerprint,
                table_fingerprints,
                extra,
            ),
            counts,
        )
    }

    /// Replay a decoded snapshot into this (possibly warm) store: interned
    /// nodes are merged with id remapping, cache entries are inserted under the
    /// remapped ids honouring this store's LRU bounds. Both locks are held for
    /// the duration, so concurrent workers never observe a half-restored store.
    ///
    /// `expected_fingerprint` must be the digest of the database this store
    /// serves (the same value the saver passed to
    /// [`snapshot_bytes`](Self::snapshot_bytes)); a snapshot recorded against a
    /// different database is refused — cached artifacts are functions of the
    /// probability space they were computed under, and a warm cache serving
    /// another database's numbers would be silently wrong.
    pub fn restore_snapshot(
        &self,
        snapshot: &crate::persist::Snapshot,
        expected_fingerprint: u64,
    ) -> Result<crate::persist::RestoreStats, crate::persist::PersistError> {
        snapshot.verify_fingerprint(expected_fingerprint)?;
        let mut interning = self.interner();
        let mut cache = self.cache();
        snapshot.restore_into(&mut interning.interner, &mut cache)
    }

    /// A fresh store rebuilt from a decoded snapshot, using the **snapshot's**
    /// cache bounds — the warm-restart constructor
    /// (`Engine::with_artifacts_from` in `pvc-db` builds on this; use it
    /// directly to restore one shared store for several multi-tenant engines).
    /// Refuses a snapshot whose fingerprint does not match
    /// `expected_fingerprint` (see [`restore_snapshot`](Self::restore_snapshot)).
    pub fn from_snapshot(
        snapshot: &crate::persist::Snapshot,
        expected_fingerprint: u64,
    ) -> Result<(Self, crate::persist::RestoreStats), crate::persist::PersistError> {
        let store = SharedArtifacts::new(snapshot.config());
        let stats = store.restore_snapshot(snapshot, expected_fingerprint)?;
        Ok((store, stats))
    }
}

/// One independent component of a sum, product or aggregate, as planned under the
/// interner lock.
enum Component<I> {
    /// A single bare variable `x` — item `index` of the split node is `x` itself,
    /// or the aggregate term `x ⊗ m`: read off the [`VarTable`], never interned
    /// or cached.
    Leaf { var: Var, index: usize },
    /// Anything else, memoised under its canonical id.
    Memo(I),
}

/// What the store's interner lock guards: the interner, and the independence
/// planner's tables, which read its var-sets and are used only under that
/// lock. The tables hold room, not artifacts — a variable-indexed table as
/// long as the largest variable id planned — and are freed with the interner
/// by [`SharedArtifacts::clear`] and [`SharedArtifacts::compact`].
#[derive(Debug, Default)]
struct Interning {
    interner: Interner,
    planner: Partitioner,
}

/// The `fold [components, leaves]` span around folding planned components.
fn fold_span<I>(components: &[Component<I>]) -> Option<crate::obs::SpanGuard> {
    let span = crate::obs::span("fold");
    if let Some(s) = &span {
        let leaves = components
            .iter()
            .filter(|part| matches!(part, Component::Leaf { .. }))
            .count();
        s.attr("components", components.len().to_string());
        s.attr("leaves", leaves.to_string());
    }
    span
}

/// How the store answers a semiring expression without compiling it whole:
/// fold `components` with `⊕` (or `⊙`), then apply `compare`, if any.
struct SemiringPlan {
    is_add: bool,
    components: Vec<Component<ExprId>>,
    compare: Option<Comparison>,
}

/// The `[· θ c]` around a folded side: `c` stands on the left if
/// `constant_left`.
struct Comparison {
    theta: CmpOp,
    constant: SemiringValue,
    constant_left: bool,
}

/// Plan `id` for the store's own fold; `None` sends it to the compiler whole.
///
/// * A sum or product with two or more independent components folds them
///   (rule 2 and the independent-product split).
/// * A comparison `[s θ c]` with the constant `c` on either side, whose side
///   `s` is such a sum or product, folds `s`'s components and applies `θ`
///   once — the paper's rule 5 followed by rule 2, e.g. a group confidence
///   `[Σ Φ_t ≠ 0]` over independent rows becomes one pass over its leaves.
///
/// Either fold is **the compiled circuit, evaluated in place**: the planner
/// is the compiler's partitioner, so the components come in the order of the
/// left-deep chain `Compiler::compile_components` emits; leaves enter as the
/// arena's `VarLeaf` pushes them; a non-leaf component is a connected group
/// the compiler compiles alone (its cached distribution is that
/// compilation's); and the arena's own `⊕` / `⊙` / `[θ]` arms combine them.
/// Where the compiler's `simplify` would first rewrite the side, the split it
/// sees is another one, so a comparison folds only a side `simplify` leaves
/// as it is (see [`settled`]). The side's own distribution is not cached, so
/// no cached bits depend on which route reached an id first.
///
/// A comparison of aggregates (`CmpMM`) keeps the compiler: the arena's
/// threshold walk computes `P[α θ c]` without `α`'s full distribution and
/// sums in another order.
fn plan_semiring(interning: &mut Interning, id: ExprId) -> Option<SemiringPlan> {
    let interner = &interning.interner;
    let (side, compare) = match interner.node(id) {
        InternedExpr::Add(_) | InternedExpr::Mul(_) => (id, None),
        InternedExpr::CmpSS(theta, lhs, rhs) => {
            let (side, constant, constant_left) =
                match (interner.as_const(lhs), interner.as_const(rhs)) {
                    (None, Some(c)) => (lhs, c, false),
                    (Some(c), None) => (rhs, c, true),
                    _ => return None,
                };
            let compare = Comparison {
                theta,
                constant,
                constant_left,
            };
            (side, Some(compare))
        }
        _ => return None,
    };
    let (is_add, children) = match interner.node(side) {
        InternedExpr::Add(children) => (true, children.to_vec()),
        InternedExpr::Mul(children) => (false, children.to_vec()),
        _ => return None,
    };
    if compare.is_some() && !settled(interner, side) {
        return None;
    }
    let disjoint = interner.children_disjoint(side);
    let components = independent_components(
        interning,
        &children,
        disjoint,
        |c| c,
        |interner, group| match is_add {
            true => interner.intern_add(group),
            false => interner.intern_mul(group),
        },
    )?;
    Some(SemiringPlan {
        is_add,
        components,
        compare,
    })
}

/// True if the compiler's `simplify` leaves the DAG below `root` as it is:
/// no sum or product that is empty, has a constant operand, or has an operand
/// of its own operator (which `simplify` folds or splices), no comparison of
/// two constants, and no comparison of aggregates (whose term normalisation
/// this does not replay). On such a DAG the compiler splits exactly the
/// children the store's planner sees.
fn settled(interner: &Interner, root: ExprId) -> bool {
    let mut seen = HashSet::<_, BuildHasherDefault<IdHasher>>::default();
    let mut stack = vec![root];
    while let Some(id) = stack.pop() {
        let (is_add, children) = match interner.node(id) {
            InternedExpr::Var(_) | InternedExpr::Const(_) => continue,
            InternedExpr::CmpMM(..) => return false,
            InternedExpr::CmpSS(_, lhs, rhs) => {
                if interner.as_const(lhs).is_some() && interner.as_const(rhs).is_some() {
                    return false;
                }
                stack.extend([lhs, rhs].into_iter().filter(|s| seen.insert(*s)));
                continue;
            }
            InternedExpr::Add(children) => (true, children),
            InternedExpr::Mul(children) => (false, children),
        };
        if children.is_empty() {
            return false;
        }
        for &child in children {
            match interner.node(child) {
                InternedExpr::Var(_) => {}
                InternedExpr::Const(_) => return false,
                InternedExpr::Add(_) if is_add => return false,
                InternedExpr::Mul(_) if !is_add => return false,
                _ if seen.insert(child) => stack.push(child),
                _ => {}
            }
        }
    }
    true
}

/// Split `items` — the children of a sum or product, or the terms of an
/// aggregate, `coeff` naming the semiring expression an item's variables come
/// from — into groups of pairwise variable-disjoint items (connected components
/// of the co-occurrence graph), interning every non-leaf group with
/// `intern_group`; `None` when everything is one component. `disjoint` is the
/// node's interner bit ([`Interner::children_disjoint`] /
/// [`Interner::terms_disjoint`]): set, the split is the items in order with no
/// union–find.
///
/// Components come in the order of the compiler's split (the one
/// [`Partitioner`], through the same [`Partitioner::split`] call: smallest
/// member first, members ascending), which every cached bit of a fold depends
/// on.
fn independent_components<T: Copy, I>(
    interning: &mut Interning,
    items: &[T],
    disjoint: bool,
    coeff: impl Fn(T) -> ExprId,
    mut intern_group: impl FnMut(&mut Interner, &[T]) -> I,
) -> Option<Vec<Component<I>>> {
    let Interning { interner, planner } = interning;
    let components = planner.split(items.len(), Hint::disjoint_if(disjoint), |i| {
        interner.var_set(coeff(items[i]))
    });
    if components.len() <= 1 {
        return None;
    }
    Some(
        components
            .iter()
            .map(|idxs| {
                if let [index] = *idxs {
                    if let InternedExpr::Var(var) = interner.node(coeff(items[index])) {
                        return Component::Leaf { var, index };
                    }
                }
                let group: Vec<T> = idxs.iter().map(|&i| items[i]).collect();
                Component::Memo(intern_group(interner, &group))
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::{AggOp, MonoidValue::Fin, SemiringValue};
    use pvc_expr::{oracle, SemimoduleExpr, SemiringExpr, Var};

    fn v(x: Var) -> SemiringExpr {
        SemiringExpr::Var(x)
    }

    fn setup() -> (VarTable, Vec<Var>) {
        let mut vt = VarTable::new();
        let vars = (0..6)
            .map(|i| vt.boolean(format!("x{i}"), 0.3 + 0.1 * i as f64))
            .collect();
        (vt, vars)
    }

    fn sem(shared: &SharedArtifacts, id: ExprId, vt: &VarTable, scope: u64) -> SemiringDist {
        shared
            .evaluate_semiring(
                id,
                vt,
                SemiringKind::Bool,
                &CompileOptions::default(),
                scope,
            )
            .unwrap()
    }

    fn agg(
        shared: &SharedArtifacts,
        id: AggExprId,
        vt: &VarTable,
        kind: SemiringKind,
        scope: u64,
    ) -> MonoidDist {
        shared
            .evaluate_aggregate(id, vt, kind, &CompileOptions::default(), scope)
            .unwrap()
    }

    #[test]
    fn cached_distribution_matches_oracle_and_hits_on_repeat() {
        let (vt, xs) = setup();
        let expr = v(xs[0]) * (v(xs[1]) + v(xs[2])) + v(xs[3]) * v(xs[4]);
        let shared = SharedArtifacts::default();
        let id = shared.intern(&expr);
        let dist = sem(&shared, id, &vt, 1);
        let oracle_dist = oracle::semiring_dist_by_enumeration(&expr, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
        let misses_after_first = shared.counters().misses;
        // Sub-d-tree memoisation happened: the independent halves are cached
        // beside the whole.
        assert!(shared.semiring_entries() >= 3);
        // Second evaluation under another scope: pure hit, counted as cross-scope.
        let again = sem(&shared, id, &vt, 2);
        assert_eq!(again, dist);
        assert_eq!(shared.counters().misses, misses_after_first);
        assert!(shared.counters().hits >= 1);
        assert!(shared.counters().cross_scope_hits >= 1);
    }

    #[test]
    fn independent_components_are_memoised_individually() {
        let (vt, xs) = setup();
        // a·b + c·d : two independent summand groups.
        let left = v(xs[0]) * v(xs[1]);
        let right = v(xs[2]) * v(xs[3]);
        let whole = left.clone() + right.clone();
        let shared = SharedArtifacts::default();
        let whole_id = shared.intern(&whole);
        sem(&shared, whole_id, &vt, 1);
        // The groups were cached on the way: evaluating just `a·b` now hits.
        let hits_before = shared.counters().hits;
        let left_id = shared.intern(&left);
        let d = sem(&shared, left_id, &vt, 1);
        let oracle_dist = oracle::semiring_dist_by_enumeration(&left, &vt, SemiringKind::Bool);
        assert!(d.approx_eq(&oracle_dist, 1e-9));
        assert!(shared.counters().hits > hits_before);
    }

    #[test]
    fn aggregate_distribution_matches_oracle() {
        let (vt, xs) = setup();
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Min,
            vec![
                (v(xs[0]), Fin(10)),
                (v(xs[1]), Fin(20)),
                (v(xs[0]) * v(xs[2]), Fin(5)),
            ],
        );
        let shared = SharedArtifacts::default();
        let id = shared.intern_semimodule(&alpha);
        let dist = agg(&shared, id, &vt, SemiringKind::Bool, 7);
        let oracle_dist = oracle::semimodule_dist_by_enumeration(&alpha, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&oracle_dist, 1e-9));
        assert!(shared.aggregate_entries() >= 1);
    }

    #[test]
    fn lru_evicts_beyond_entry_bound() {
        let (vt, xs) = setup();
        let shared = SharedArtifacts::new(CacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX,
        });
        for &x in xs.iter().take(5) {
            let expr = v(x) + SemiringExpr::Const(SemiringValue::Bool(false));
            let id = shared.intern(&(v(x) * expr.clone() + expr));
            sem(&shared, id, &vt, 1);
        }
        assert!(shared.semiring_entries() <= 2);
        assert!(shared.counters().evictions > 0);
    }

    #[test]
    fn lru_promotion_protects_recent_entries() {
        let mut lru: Lru<u32> = Lru::new();
        let config = CacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX,
        };
        lru.insert(1, 10, 1, 0, &config);
        lru.insert(2, 20, 1, 0, &config);
        // Touch 1 so that 2 becomes the LRU victim.
        assert_eq!(lru.get(1).map(|(v, _)| *v), Some(10));
        lru.insert(3, 30, 1, 0, &config);
        assert_eq!(lru.len(), 2);
        assert!(lru.get(2).is_none());
        assert_eq!(lru.get(1).map(|(v, _)| *v), Some(10));
        assert_eq!(lru.get(3).map(|(v, _)| *v), Some(30));
    }

    #[test]
    fn lru_remove_preserves_order_and_bytes() {
        let mut lru: Lru<u32> = Lru::new();
        let config = CacheConfig {
            max_entries: usize::MAX,
            max_bytes: usize::MAX,
        };
        lru.insert(1, 10, 5, 0, &config);
        lru.insert(2, 20, 7, 0, &config);
        lru.insert(3, 30, 11, 0, &config);
        assert!(lru.remove(2));
        assert!(!lru.remove(2), "double remove is a no-op");
        assert_eq!(lru.len(), 2);
        assert_eq!(lru.bytes(), 16);
        assert!(lru.get(2).is_none());
        // The survivors keep their values and relative recency (1 is the LRU).
        let keys: Vec<u32> = lru
            .entries_oldest_first()
            .into_iter()
            .map(|(k, _, _)| k)
            .collect();
        assert_eq!(keys, vec![1, 3]);
        // A removed slot is recycled by the next insert.
        lru.insert(4, 40, 1, 0, &config);
        assert_eq!(lru.get(4).map(|(v, _)| *v), Some(40));
        assert_eq!(lru.get(1).map(|(v, _)| *v), Some(10));
    }

    #[test]
    fn evict_touching_keeps_disjoint_entries() {
        let (vt, xs) = setup();
        let shared = SharedArtifacts::default();
        // Two var-disjoint expressions plus an aggregate over the first pair.
        let left = v(xs[0]) * v(xs[1]);
        let right = v(xs[2]) + v(xs[3]);
        let alpha =
            SemimoduleExpr::from_terms(AggOp::Min, vec![(v(xs[2]), Fin(1)), (v(xs[3]), Fin(2))]);
        let lid = shared.intern(&left);
        let rid = shared.intern(&right);
        let aid = shared.intern_semimodule(&alpha);
        shared
            .evaluate_semiring(lid, &vt, SemiringKind::Bool, &CompileOptions::default(), 1)
            .unwrap();
        shared
            .evaluate_semiring(rid, &vt, SemiringKind::Bool, &CompileOptions::default(), 1)
            .unwrap();
        shared
            .evaluate_aggregate(aid, &vt, SemiringKind::Bool, &CompileOptions::default(), 1)
            .unwrap();
        let entries_before = shared.semiring_entries() + shared.aggregate_entries();
        // An empty touched set keeps everything.
        let noop = shared.evict_touching(&VarSet::new());
        assert_eq!(noop.evicted, 0);
        assert_eq!(
            shared.semiring_entries() + shared.aggregate_entries(),
            entries_before
        );
        // Touching x0 drops exactly the entries mentioning x0.
        let stats = shared.evict_touching(&VarSet::singleton(xs[0]));
        assert!(stats.evicted >= 1, "{stats:?}");
        assert!(stats.kept >= 2, "{stats:?}");
        let hits_before = shared.counters().hits;
        // `right` and the aggregate survive: pure hits, no recomputation.
        let d = shared
            .evaluate_semiring(rid, &vt, SemiringKind::Bool, &CompileOptions::default(), 2)
            .unwrap();
        let expected = oracle::semiring_dist_by_enumeration(&right, &vt, SemiringKind::Bool);
        assert!(d.approx_eq(&expected, 1e-9));
        shared
            .evaluate_aggregate(aid, &vt, SemiringKind::Bool, &CompileOptions::default(), 2)
            .unwrap();
        assert!(shared.counters().hits > hits_before);
        // `left` was evicted: recomputing it under a changed distribution for x0
        // yields the new correct value (the stale artifact is gone).
        let mut vt2 = vt.clone();
        vt2.set_dist(xs[0], pvc_prob::make::bernoulli(0.95));
        let d = shared
            .evaluate_semiring(lid, &vt2, SemiringKind::Bool, &CompileOptions::default(), 2)
            .unwrap();
        let expected = oracle::semiring_dist_by_enumeration(&left, &vt2, SemiringKind::Bool);
        assert!(d.approx_eq(&expected, 1e-9));
    }

    fn bits<T: Ord + Copy>(d: &pvc_prob::Dist<T>) -> Vec<(T, u64)> {
        d.iter().map(|(v, p)| (*v, p.to_bits())).collect()
    }

    /// The distribution of `alpha` through plain compilation of its canonical
    /// rendering: compile → evaluate, no cache, no inline leaves.
    fn compiled(alpha: &SemimoduleExpr, vt: &VarTable, kind: SemiringKind) -> MonoidDist {
        Compiler::new(vt, kind)
            .emit_semimodule(alpha)
            .unwrap()
            .monoid_distribution(vt, kind)
            .unwrap()
    }

    #[test]
    fn leaf_components_are_evaluated_inline_and_match_compilation_bit_for_bit() {
        for kind in [SemiringKind::Bool, SemiringKind::Nat] {
            let mut vt = VarTable::new();
            let xs: Vec<Var> = (0..9)
                .map(|i| {
                    let step = 0.05 * i as f64;
                    match kind {
                        SemiringKind::Bool => vt.boolean(format!("x{i}"), 0.15 + step),
                        SemiringKind::Nat => vt.natural(
                            format!("n{i}"),
                            &[(0, 0.1 + step), (1, 0.3), (3, 0.6 - step)],
                        ),
                    }
                })
                .collect();
            for op in [AggOp::Count, AggOp::Sum, AggOp::Min, AggOp::Max] {
                // Repeated values, and the monoid's identity (±∞ for MIN/MAX).
                let values = [3, 3, 7, 1, 7, 12, 1, 5].map(Fin);
                let alpha = SemimoduleExpr::from_terms(
                    op,
                    xs.iter()
                        .zip(values.into_iter().chain([op.identity()]))
                        .map(|(x, m)| (v(*x), m))
                        .collect(),
                );
                let shared = SharedArtifacts::default();
                let id = shared.intern_semimodule(&alpha);
                let interned = shared.interned_nodes();
                let dist = agg(&shared, id, &vt, kind, 1);
                assert_eq!(
                    bits(&dist),
                    bits(&compiled(&alpha, &vt, kind)),
                    "{op:?}/{kind:?}"
                );
                // Nothing but the aggregate's own entry: no per-component
                // entry, no singleton aggregate interned, and one miss (the
                // aggregate itself) with nothing compiled at all.
                assert_eq!(shared.aggregate_entries(), 1);
                assert_eq!(shared.semiring_entries(), 0);
                assert_eq!(shared.interned_nodes(), interned);
                let counters = shared.counters();
                assert_eq!(
                    counters,
                    CacheCounters {
                        misses: 1,
                        ..CacheCounters::default()
                    }
                );
                // The entry serves the next query whole.
                assert_eq!(bits(&agg(&shared, id, &vt, kind, 2)), bits(&dist));
                assert_eq!(shared.counters().hits, 1);
            }
        }
    }

    #[test]
    fn leaf_summands_and_factors_read_the_variable_table() {
        let (vt, xs) = setup();
        let shared = SharedArtifacts::default();
        for expr in [
            SemiringExpr::sum(xs.iter().map(|x| v(*x)).collect()),
            SemiringExpr::product(xs.iter().map(|x| v(*x)).collect()),
        ] {
            let id = shared.intern(&expr);
            let interned = shared.interned_nodes();
            let dist = sem(&shared, id, &vt, 1);
            let reference = Compiler::new(&vt, SemiringKind::Bool)
                .emit_semiring(&expr)
                .unwrap()
                .semiring_distribution(&vt, SemiringKind::Bool)
                .unwrap();
            assert!(dist.approx_eq(&reference, 1e-12));
            assert_eq!(shared.interned_nodes(), interned);
        }
        assert_eq!(shared.semiring_entries(), 2);
        assert_eq!(shared.counters().misses, 2);
        assert_eq!(shared.counters().arena_misses, 0, "nothing compiled");
    }

    #[test]
    fn mixed_aggregate_memoises_only_its_non_leaf_component() {
        let (vt, xs) = setup();
        let shared = SharedArtifacts::default();
        // x2·x3 ⊗ 5 and x3 ⊗ 7 share x3: one two-variable component among leaves.
        let entangled = [(v(xs[2]) * v(xs[3]), Fin(5)), (v(xs[3]), Fin(7))];
        let alpha = SemimoduleExpr::from_terms(
            AggOp::Sum,
            [(v(xs[0]), Fin(2)), (v(xs[1]), Fin(3))]
                .into_iter()
                .chain(entangled.clone())
                .collect(),
        );
        let id = shared.intern_semimodule(&alpha);
        let dist = agg(&shared, id, &vt, SemiringKind::Bool, 1);
        assert_eq!(
            bits(&dist),
            bits(&compiled(&alpha, &vt, SemiringKind::Bool))
        );
        let expected = oracle::semimodule_dist_by_enumeration(&alpha, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&expected, 1e-9));
        // Two distributions stored, the whole and the component; one circuit
        // compiled, for the component.
        assert_eq!(shared.aggregate_entries(), 2);
        assert_eq!(shared.counters().misses, 2);
        assert_eq!(shared.counters().arena_misses, 1);
        // Another query over the same component and a different leaf: the
        // component's distribution is a hit, nothing is compiled.
        let beta = SemimoduleExpr::from_terms(
            AggOp::Sum,
            [(v(xs[4]), Fin(1))].into_iter().chain(entangled).collect(),
        );
        let bid = shared.intern_semimodule(&beta);
        let dist = agg(&shared, bid, &vt, SemiringKind::Bool, 2);
        let expected = oracle::semimodule_dist_by_enumeration(&beta, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&expected, 1e-9));
        let counters = shared.counters();
        assert_eq!((counters.hits, counters.cross_scope_hits), (1, 1));
        assert_eq!(counters.arena_misses, 1);
        assert_eq!(shared.aggregate_entries(), 3);
    }

    #[test]
    fn an_evicted_distribution_compiles_again_to_the_same_bits() {
        // The one schedule under which a map of circuits beside the
        // distributions could have served: B's distribution is the LRU victim
        // while its circuit, never promoted by a distribution hit, would have
        // outlived it. With no such map, asking for B again compiles it once
        // more — to the same bits.
        let (vt, xs) = setup();
        let shared = SharedArtifacts::new(CacheConfig {
            max_entries: 2,
            max_bytes: usize::MAX,
        });
        // Summands sharing a variable: one component, one circuit each.
        let [a, b, c] =
            [0, 1, 2].map(|i| shared.intern(&(v(xs[i]) * v(xs[i + 1]) + v(xs[i]) * v(xs[i + 2]))));
        sem(&shared, a, &vt, 1);
        let cold_b = sem(&shared, b, &vt, 1);
        sem(&shared, a, &vt, 1);
        sem(&shared, c, &vt, 1);
        let before = shared.counters();
        assert_eq!((before.hits, before.evictions), (1, 1), "{before:?}");
        assert_eq!(before.arena_misses, 3);
        let warm_b = sem(&shared, b, &vt, 1);
        assert_eq!(bits(&warm_b), bits(&cold_b));
        assert_eq!(shared.counters().arena_misses, before.arena_misses + 1);
    }

    #[test]
    fn touching_a_leaf_variable_evicts_the_enclosing_aggregate() {
        let (vt, xs) = setup();
        let shared = SharedArtifacts::default();
        let count = |vars: &[Var]| {
            SemimoduleExpr::from_terms(AggOp::Count, vars.iter().map(|x| (v(*x), Fin(1))).collect())
        };
        let (left, right) = (count(&xs[..3]), count(&xs[3..]));
        let lid = shared.intern_semimodule(&left);
        let rid = shared.intern_semimodule(&right);
        agg(&shared, lid, &vt, SemiringKind::Bool, 1);
        agg(&shared, rid, &vt, SemiringKind::Bool, 1);
        // The leaves left no entries of their own, yet the aggregate over x1 is
        // found through its var-set and dropped; the other one survives.
        let stats = shared.evict_touching(&VarSet::singleton(xs[1]));
        assert_eq!(
            stats,
            EvictionStats {
                evicted: 1,
                kept: 1
            }
        );
        let mut updated = vt.clone();
        updated.set_dist(xs[1], pvc_prob::make::bernoulli(0.95));
        let warm = agg(&shared, lid, &updated, SemiringKind::Bool, 2);
        assert_eq!(
            bits(&warm),
            bits(&compiled(&left, &updated, SemiringKind::Bool))
        );
        assert_eq!(
            shared.counters().misses,
            3,
            "the evicted aggregate recomputes"
        );
        agg(&shared, rid, &updated, SemiringKind::Bool, 2);
        assert_eq!(
            shared.counters().hits,
            1,
            "the untouched aggregate is a hit"
        );
    }

    #[test]
    fn byte_bound_evicts() {
        let (vt, xs) = setup();
        // A bound small enough that only one distribution fits.
        let shared = SharedArtifacts::new(CacheConfig {
            max_entries: usize::MAX,
            max_bytes: 100,
        });
        for i in 0..3 {
            let id = shared.intern(&(v(xs[i]) + v(xs[i + 1])));
            sem(&shared, id, &vt, 1);
        }
        assert!(shared.counters().evictions > 0);
        assert!(shared.bytes() > 0);
    }

    #[test]
    fn shared_artifacts_are_consistent_under_concurrency() {
        // Many workers evaluating an overlapping family of expressions must agree
        // with the oracle on every value; racing inserts only ever write equal
        // distributions.
        let (vt, xs) = setup();
        let exprs: Vec<SemiringExpr> = (0..12)
            .map(|i| {
                let a = v(xs[i % 6]);
                let b = v(xs[(i + 1) % 6]);
                let c = v(xs[(i + 2) % 6]);
                a * (b + c)
            })
            .collect();
        let shared = SharedArtifacts::default();
        let ids: Vec<ExprId> = exprs.iter().map(|e| shared.intern(e)).collect();
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let shared = &shared;
                let ids = &ids;
                let exprs = &exprs;
                let vt = &vt;
                scope.spawn(move || {
                    for (i, id) in ids.iter().enumerate() {
                        let d = shared
                            .evaluate_semiring(
                                *id,
                                vt,
                                SemiringKind::Bool,
                                &CompileOptions::default(),
                                worker,
                            )
                            .unwrap();
                        let expected =
                            oracle::semiring_dist_by_enumeration(&exprs[i], vt, SemiringKind::Bool);
                        assert!(d.approx_eq(&expected, 1e-9));
                    }
                });
            }
        });
        let counters = shared.counters();
        assert!(counters.hits + counters.misses >= 48);
        assert!(shared.interned_nodes() > 0);
        shared.clear();
        assert_eq!(shared.semiring_entries(), 0);
        assert_eq!(shared.interned_nodes(), 0);
    }

    #[test]
    fn compaction_drops_dead_interner_nodes_and_preserves_results() {
        let (vt, xs) = setup();
        let shared = SharedArtifacts::new(CacheConfig {
            max_entries: 4,
            max_bytes: usize::MAX,
        });
        // A churny workload: many distinct expressions, most of whose cache
        // entries the tiny LRU bound evicts — but whose interned nodes stay.
        let mut exprs = Vec::new();
        for i in 0..6 {
            for j in 0..6 {
                if i != j {
                    exprs.push(v(xs[i]) * (v(xs[j]) + v(xs[(j + 1) % 6])));
                }
            }
        }
        for e in &exprs {
            let id = shared.intern(e);
            shared
                .evaluate_semiring(id, &vt, SemiringKind::Bool, &CompileOptions::default(), 1)
                .unwrap();
        }
        let nodes_before = shared.interned_nodes();
        let counters_before = shared.counters();
        // One compilation at a time: every miss worked in the same lent tables,
        // which the compaction frees with the dead nodes.
        assert_eq!(shared.scratch().len(), 1);
        let stats = shared.compact();
        assert!(shared.scratch().is_empty());
        assert_eq!(stats.generation, 1);
        assert_eq!(shared.generation(), 1);
        assert!(
            stats.interned_after < stats.interned_before,
            "compaction should retire dead nodes: {stats:?}"
        );
        assert_eq!(stats.interned_before, nodes_before);
        // Counters survive the generation swap.
        assert_eq!(shared.counters(), counters_before);
        // Retained entries still serve — and still match the oracle — after the
        // id remap (a fresh intern of the same expression maps onto the new id).
        let mut warm_hits = 0;
        for e in &exprs {
            let id = shared.intern(e);
            let d = shared
                .evaluate_semiring(id, &vt, SemiringKind::Bool, &CompileOptions::default(), 2)
                .unwrap();
            let expected = oracle::semiring_dist_by_enumeration(e, &vt, SemiringKind::Bool);
            assert!(d.approx_eq(&expected, 1e-9));
            warm_hits += 1;
        }
        assert!(warm_hits > 0);
        // Repeated compaction under a steady live set converges: the arena stays
        // bounded instead of growing with history.
        let after_first = shared.compact().interned_after;
        let after_second = shared.compact().interned_after;
        assert!(after_second <= after_first);
        assert_eq!(shared.generation(), 3);
        // `clear` gives the lent tables back as well.
        let shared_var = shared.intern(&(v(xs[0]) * v(xs[1]) + v(xs[0]) * v(xs[2]) + v(xs[3])));
        shared
            .evaluate_semiring(
                shared_var,
                &vt,
                SemiringKind::Bool,
                &CompileOptions::default(),
                3,
            )
            .unwrap();
        assert_eq!(shared.scratch().len(), 1);
        shared.clear();
        assert!(shared.scratch().is_empty());
    }

    /// Every sum, product and aggregate of the store's interner carries the
    /// disjointness bit its items' partition gives.
    fn assert_bits_are_the_partition(store: &SharedArtifacts, what: &str) {
        let interning = store.interner();
        let it = &interning.interner;
        let mut partitioner = Partitioner::default();
        for (i, node) in it.nodes().enumerate() {
            if let InternedExpr::Add(items) | InternedExpr::Mul(items) = node {
                let parts = partitioner.components(items.len(), |k| it.var_set(items[k]));
                let bit = it.children_disjoint(ExprId(i as u32));
                assert_eq!(bit, parts.len() == items.len(), "{what}: {node:?}");
            }
        }
        for (j, node) in it.agg_nodes().enumerate() {
            let terms = node.terms;
            let parts = partitioner.components(terms.len(), |k| it.var_set(terms[k].0));
            let bit = it.terms_disjoint(AggExprId(j as u32));
            assert_eq!(bit, parts.len() == terms.len(), "{what}: {node:?}");
        }
    }

    #[test]
    fn snapshot_replay_and_compaction_keep_the_disjointness_bit() {
        let (vt, xs) = setup();
        let x = |i: usize| v(xs[i]);
        let top = || SemiringExpr::Const(SemiringValue::Bool(true));
        let sums = [
            x(0) + x(1) + x(2),
            x(0) * x(1) + x(2) * x(3) + x(4),
            x(0) * x(1) + x(1) * x(2) + x(5),
            (x(0) + x(1)) * (x(2) + x(3)),
            (x(0) + x(1)) * (x(1) + x(3)),
            SemiringExpr::Add(vec![x(0), top(), x(3)]),
            SemiringExpr::Add(vec![x(2), x(2), x(4)]),
        ];
        let aggs = [
            SemimoduleExpr::from_terms(AggOp::Count, (0..6).map(|i| (x(i), Fin(1))).collect()),
            SemimoduleExpr::from_terms(
                AggOp::Sum,
                vec![(x(0), Fin(2)), (x(0), Fin(3)), (x(1) * x(2), Fin(4))],
            ),
            SemimoduleExpr::from_terms(AggOp::Max, vec![(x(3) * x(4), Fin(1)), (x(5), Fin(7))]),
        ];
        let shared = SharedArtifacts::default();
        let options = CompileOptions::default();
        let mut bits = Vec::new();
        for e in &sums {
            let id = shared.intern(e);
            shared
                .evaluate_semiring(id, &vt, SemiringKind::Bool, &options, 1)
                .unwrap();
            bits.push(shared.interner().interner.children_disjoint(id));
        }
        for alpha in &aggs {
            let id = shared.intern_semimodule(alpha);
            shared
                .evaluate_aggregate(id, &vt, SemiringKind::Bool, &options, 1)
                .unwrap();
            bits.push(shared.interner().interner.terms_disjoint(id));
        }
        assert!(bits.contains(&true) && bits.contains(&false), "{bits:?}");
        assert_bits_are_the_partition(&shared, "interned");
        let (bytes, _) = shared.snapshot_bytes(7, &[], None);
        let snapshot = crate::persist::decode_snapshot(&bytes).unwrap();
        let (restored, _) = SharedArtifacts::from_snapshot(&snapshot, 7).unwrap();
        shared.compact();
        for (store, what) in [(&restored, "restored"), (&shared, "compacted")] {
            assert_bits_are_the_partition(store, what);
            let again: Vec<bool> = sums
                .iter()
                .map(|e| {
                    let id = store.intern(e);
                    store.interner().interner.children_disjoint(id)
                })
                .chain(aggs.iter().map(|alpha| {
                    let id = store.intern_semimodule(alpha);
                    store.interner().interner.terms_disjoint(id)
                }))
                .collect();
            assert_eq!(again, bits, "{what}");
        }
    }

    #[test]
    fn clear_resets_everything() {
        let mut interner = Interner::new();
        let mut cache = CompilationCache::default();
        let id = interner.intern(&(v(Var(0)) + v(Var(1))));
        cache.insert_semiring(id, 1, &pvc_prob::make::bernoulli(0.5));
        assert!(cache.get_semiring(id, 1).is_some());
        assert!(cache.semiring_entries() > 0);
        cache.clear();
        assert_eq!(cache.semiring_entries(), 0);
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.counters(), CacheCounters::default());
    }
}
