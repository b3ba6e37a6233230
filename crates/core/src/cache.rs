//! The artifact store: bounded memoisation of the **distributions** d-tree
//! compilation produces (semiring distributions and aggregate monoid
//! distributions), keyed by the **canonical ids** of the hash-consed
//! expression arena ([`pvc_expr::intern`]), which are canonical under
//! commutative operand reordering — structurally equal provenance under
//! different renderings shares one entry.
//!
//! [`SharedArtifacts`] is the store's one public face: an [`Interner`] and a
//! bounded LRU map per sort (`CompilationCache`: [`CacheConfig`] bounds,
//! [`CacheCounters`]) behind mutexes, shareable across worker threads and
//! engines as `Arc<SharedArtifacts>`, and the cache-aware evaluator. On a miss
//! it answers in one of two ways.
//!
//! * **The leaf-list fold.** A sum or product of two or more distinct bare
//!   variables (the interner's disjointness bit set), an aggregate whose terms
//!   are all `x ⊗ m` over distinct variables, or `[s θ c]` over such a sum or
//!   product with the constant `c` on either side, is folded here over the
//!   variable table: the group confidences `[Σ Φ_t ≠ 0]` and the SUM / COUNT
//!   aggregates over tuple-independent rows. The compiler would emit a
//!   left-deep chain over the variables in order (rule 2, under one `[θ]` node
//!   by rule 5); the fold takes the arena's own arms over the values its
//!   leaves would carry (`combine_semiring` / `compare`, and for aggregates the
//!   [`AdditiveFold`] of its SUM / COUNT `⊕`), so the answer is that circuit's,
//!   bit for bit, without building it.
//! * **Compilation.** Anything else is compiled whole by a plain compiler in
//!   scratch the store lends it (see [`crate::compile`]), and the arena it
//!   emits is evaluated where it lies. The compiler alone decides every split
//!   and never consults the store.
//!
//! Either way a miss inserts exactly one entry, the root's: no component of a
//! root is looked up or stored on its own. Looking components up across
//! queries served no hit on any benchmark workload (`docs/ARCHITECTURE.md`);
//! component caching belongs inside one compilation. An entry carries every
//! variable of its expression's var-set, so
//! [`SharedArtifacts::evict_touching`] finds it through any of them.
//!
//! What is not memoised is the compiled circuit. The paper compiles an
//! expression into a d-tree and evaluates it once for its distribution (§5),
//! and every reader of this store asks for the distribution it already keeps
//! under the same id, so an arena is evaluated where it was emitted and
//! nothing but distributions is inserted — an evicted distribution is
//! recomputed by compiling again.
//!
//! A miss under a node budget ([`CompileOptions::node_budget`]) is always
//! compiled, never folded, so the budget bounds every root as it bounds a plain
//! compilation; the fold gives the compiled chain's bits, so no answer moves.
//!
//! Correctness contract: cached artifacts are functions of (expression structure,
//! variable distributions, ambient semiring). Callers must clear the cache whenever
//! variable distributions change, and must not let an entry computed without a
//! node budget (or under another one) answer a budgeted lookup — the engine in
//! `pvc-db` does both, giving each budgeted execution a private store.

use crate::arena::Val;
use crate::compile::{BudgetExceeded, CompileOptions, CompileScratch, Compiler};
use crate::node::DTreeError;
use crate::obs::Counter;
use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringKind, SemiringValue};
use pvc_expr::intern::{AggExprId, ExprId, ImportMemo, InternedExpr, Interner};
use pvc_expr::vars::sorted_disjoint;
use pvc_expr::{SemimoduleExpr, SemiringExpr, Var, VarSet, VarTable};
use pvc_prob::{AdditiveFold, MonoidDist, SemiringDist};
use std::fmt;
use std::sync::{Mutex, MutexGuard};

mod lru;

pub(crate) use lru::Lru;
/// Size bounds for the store's distribution cache. **Each of the two distribution
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
    /// Compilations through the store: one per root it does not fold itself.
    /// (No arena is kept, so every compilation is a miss; the name predates
    /// that.)
    pub arena_misses: u64,
}

impl CacheCounters {
    /// Count one lookup under `scope` that found an entry inserted under
    /// `found` (`None`: a miss), on `hit` or `miss` too.
    fn count(&mut self, found: Option<u64>, scope: u64, hit: &Counter, miss: &Counter) {
        match found {
            Some(entry_scope) => {
                self.hits += 1;
                self.cross_scope_hits += u64::from(entry_scope != scope);
                hit.inc();
            }
            None => {
                self.misses += 1;
                miss.inc();
            }
        }
    }
}

/// Approximate payload size of a distribution: support entries times the size of a
/// `(value, f64)` pair plus per-entry B-tree overhead.
fn dist_bytes<T: Ord + Clone>(d: &pvc_prob::Dist<T>) -> usize {
    64 + d.support_size() * (std::mem::size_of::<T>() + std::mem::size_of::<f64>() + 32)
}

/// The bounded memo store behind [`SharedArtifacts`]: one LRU map per sort.
#[derive(Debug)]
pub(crate) struct CompilationCache {
    pub(crate) config: CacheConfig,
    /// Read by the snapshot codec in [`crate::persist`], least recently used
    /// first.
    pub(crate) semiring: Lru<SemiringDist>,
    pub(crate) aggregate: Lru<MonoidDist>,
    counters: CacheCounters,
}

impl Default for CompilationCache {
    fn default() -> Self {
        Self::new(CacheConfig::default())
    }
}

impl CompilationCache {
    /// An empty cache with the given bounds.
    pub(crate) fn new(config: CacheConfig) -> Self {
        CompilationCache {
            config,
            semiring: Lru::new(),
            aggregate: Lru::new(),
            counters: CacheCounters::default(),
        }
    }

    fn bytes(&self) -> usize {
        self.semiring.bytes() + self.aggregate.bytes()
    }

    /// Drop every entry and reset the counters.
    fn clear(&mut self) {
        *self = CompilationCache::new(self.config);
    }

    /// Reduce the cached distribution of a semiring expression under the
    /// borrow, promoting the entry. `scope` identifies the caller's query; a
    /// hit against an entry from another scope is counted as a cross-scope
    /// (cross-query) hit.
    fn map_semiring<R>(
        &mut self,
        id: ExprId,
        scope: u64,
        f: impl FnOnce(&SemiringDist) -> R,
    ) -> Option<R> {
        let found = self.semiring.get(id.0).map(|(d, entry)| (f(d), entry));
        let metrics = crate::obs::core_metrics();
        let [hit, miss] = [&metrics.cache_semiring_hit, &metrics.cache_semiring_miss];
        self.counters
            .count(found.as_ref().map(|f| f.1), scope, hit, miss);
        found.map(|(r, _)| r)
    }

    /// Insert the distribution of a semiring expression.
    pub(crate) fn insert_semiring(&mut self, id: ExprId, scope: u64, dist: SemiringDist) {
        let bytes = dist_bytes(&dist);
        let evicted = self.semiring.insert(id.0, dist, bytes, scope, &self.config);
        self.counters.evictions += evicted;
        crate::obs::core_metrics().cache_eviction.add(evicted);
    }

    /// Cached distribution of a semimodule (aggregate) expression.
    fn get_aggregate(&mut self, id: AggExprId, scope: u64) -> Option<MonoidDist> {
        let found = self
            .aggregate
            .get(id.0)
            .map(|(d, entry)| (d.clone(), entry));
        let metrics = crate::obs::core_metrics();
        let [hit, miss] = [&metrics.cache_aggregate_hit, &metrics.cache_aggregate_miss];
        self.counters
            .count(found.as_ref().map(|f| f.1), scope, hit, miss);
        found.map(|(d, _)| d)
    }

    /// Insert the distribution of a semimodule expression.
    pub(crate) fn insert_aggregate(&mut self, id: AggExprId, scope: u64, dist: MonoidDist) {
        let bytes = dist_bytes(&dist);
        let evicted = self
            .aggregate
            .insert(id.0, dist, bytes, scope, &self.config);
        self.counters.evictions += evicted;
        crate::obs::core_metrics().cache_eviction.add(evicted);
    }
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

/// The total mass of non-`0_S` outcomes — the tuple-confidence reading of a
/// semiring distribution; `+0.0` when every outcome is `0_S`.
pub fn confidence_of(dist: &SemiringDist) -> f64 {
    dist.iter()
        .filter(|(v, _)| !v.is_zero())
        .fold(0.0, |sum, (_, p)| sum + p)
}

/// A thread-safe compile-artifact store: one [`Interner`] and one bounded
/// distribution cache behind mutexes, shareable across worker threads and across
/// engines via `Arc<SharedArtifacts>`.
///
/// The evaluation entry points ([`evaluate_semiring`](Self::evaluate_semiring),
/// [`evaluate_aggregate`](Self::evaluate_aggregate)) fold a leaf list or
/// compile the root, and insert the root's distribution (see the [module
/// documentation](self)), taking each lock only around the individual
/// intern / lookup / insert steps. The expensive part — d-tree compilation
/// and the evaluation of the arena it emits — runs with **no lock held**, so
/// concurrent workers only contend for microseconds at the cache boundary.
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
    interner: Mutex<Interner>,
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

    /// Run `f` on a compiler working in lent scratch (see the `scratch`
    /// field). The lock is held to take the scratch and to give it back, not
    /// in between.
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

    fn interner(&self) -> MutexGuard<'_, Interner> {
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
        let mut interner = self.interner();
        let mut cache = self.cache();
        *interner = Interner::new();
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
        let mut interner = self.interner();
        let mut cache = self.cache();
        let stats_before = (interner.len() + interner.agg_len(), cache.bytes());
        // Re-insert oldest-first so the new maps reproduce the recency order —
        // the same replay discipline the snapshot codec uses. One memo across all
        // entries: what several of them share is copied once.
        let (mut fresh, mut memo) = (Interner::new(), ImportMemo::default());
        let config = cache.config;
        cache.semiring = cache.semiring.rekeyed(&config, |key| {
            fresh.import(&interner, ExprId(key), &mut memo).0
        });
        cache.aggregate = cache.aggregate.rekeyed(&config, |key| {
            fresh.import_agg(&interner, AggExprId(key), &mut memo).0
        });
        *interner = fresh;
        let generation = self
            .generation
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed)
            + 1;
        CompactionStats {
            interned_before: stats_before.0,
            interned_after: interner.len() + interner.agg_len(),
            bytes_before: stats_before.1,
            bytes_after: cache.bytes(),
            entries_kept: cache.semiring.len() + cache.aggregate.len(),
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
        let interner = self.interner();
        let mut cache = self.cache();
        let mut evicted = 0;
        if !touched.is_empty() {
            let touches = |vars: &[Var]| !sorted_disjoint(vars, touched.as_slice());
            evicted += cache
                .semiring
                .remove_if(|key| touches(interner.var_set(ExprId(key))));
            evicted += cache
                .aggregate
                .remove_if(|key| touches(interner.agg_var_set(AggExprId(key))));
            crate::obs::core_metrics()
                .cache_eviction
                .add(evicted as u64);
        }
        let kept = cache.semiring.len() + cache.aggregate.len();
        EvictionStats { evicted, kept }
    }

    /// Intern a semiring expression into its canonical id.
    pub fn intern(&self, expr: &SemiringExpr) -> ExprId {
        self.interner().intern(expr)
    }

    /// Intern a semimodule expression into its canonical id.
    pub fn intern_semimodule(&self, expr: &SemimoduleExpr) -> AggExprId {
        self.interner().intern_semimodule(expr)
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
        self.cache().insert_semiring(id, scope, dist.clone());
    }

    /// Cached distribution of a semimodule expression, if present.
    pub fn get_aggregate(&self, id: AggExprId, scope: u64) -> Option<MonoidDist> {
        self.cache().get_aggregate(id, scope)
    }

    /// Insert the distribution of a semimodule expression.
    pub fn insert_aggregate(&self, id: AggExprId, scope: u64, dist: &MonoidDist) {
        self.cache().insert_aggregate(id, scope, dist.clone());
    }

    /// Get-or-compute the distribution of an interned semiring expression.
    pub fn evaluate_semiring(
        &self,
        id: ExprId,
        vars: &VarTable,
        kind: SemiringKind,
        options: &CompileOptions,
        scope: u64,
    ) -> Result<SemiringDist, EvalError> {
        let cached = self.map_semiring(id, scope, SemiringDist::clone);
        cached.map_or_else(|| self.fill_semiring(id, vars, kind, options, scope), Ok)
    }

    /// Compute the distribution of `id` (assuming the caller already observed a
    /// cache miss) and insert it — no second lookup, so the miss is counted once.
    /// A leaf list is folded, anything else compiled; under a node budget every
    /// root is compiled, so the budget bounds the chain a fold would stand for.
    pub fn fill_semiring(
        &self,
        id: ExprId,
        vars: &VarTable,
        kind: SemiringKind,
        options: &CompileOptions,
        scope: u64,
    ) -> Result<SemiringDist, EvalError> {
        let leaves = folds(options).then(|| leaf_list(&self.interner(), id));
        let dist = match leaves.flatten() {
            Some(list) => fold_leaf_list(list, vars, kind)?,
            None => self
                .compile(Root::Semiring(id), vars, kind, options)?
                .into_semiring("root")?,
        };
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
        let cached = self.get_aggregate(id, scope);
        cached.map_or_else(|| self.fill_aggregate(id, vars, kind, options, scope), Ok)
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
        let leaves = folds(options).then(|| leaf_terms(&self.interner(), id));
        let dist = match leaves.flatten() {
            Some((op, leaves)) => fold_leaf_terms(op, &leaves, vars),
            None => self
                .compile(Root::Aggregate(id), vars, kind, options)?
                .into_monoid("root")?,
        };
        self.insert_aggregate(id, scope, &dist);
        Ok(dist)
    }

    /// Compile `root` whole with a lent compiler and evaluate the arena where
    /// it was emitted: the `subtree` span of one root the store compiles.
    fn compile(
        &self,
        root: Root,
        vars: &VarTable,
        kind: SemiringKind,
        options: &CompileOptions,
    ) -> Result<Val, EvalError> {
        let _subtree = crate::obs::span("subtree");
        let span = crate::obs::span("compile");
        self.cache().counters.arena_misses += 1;
        crate::obs::core_metrics().cache_arena_miss.inc();
        self.with_compiler(vars, kind, options, |compiler| {
            // The interner's lock is held for the load alone.
            let nodes = match root {
                Root::Semiring(id) => {
                    let loaded = compiler.load_semiring(&self.interner(), id);
                    compiler.emit_loaded_semiring(loaded)?.len()
                }
                Root::Aggregate(id) => {
                    let loaded = compiler.load_semimodule(&self.interner(), id);
                    compiler.emit_loaded_semimodule(loaded)?.len()
                }
            };
            if let Some(s) = &span {
                s.attr("nodes", nodes.to_string());
            }
            drop(span);
            let span = crate::obs::span("evaluate");
            let (value, interp) = compiler.evaluate_emitted()?;
            if let Some(s) = &span {
                s.attr("interp", interp.as_str().into());
            }
            Ok(value)
        })
    }

    /// Counters since the last clear.
    pub fn counters(&self) -> CacheCounters {
        self.cache().counters
    }

    /// The configured bounds.
    pub fn config(&self) -> CacheConfig {
        self.cache().config
    }

    /// Number of cached semiring distributions.
    pub fn semiring_entries(&self) -> usize {
        self.cache().semiring.len()
    }

    /// Number of cached aggregate distributions.
    pub fn aggregate_entries(&self) -> usize {
        self.cache().aggregate.len()
    }

    /// Approximate payload bytes across both distribution maps.
    pub fn bytes(&self) -> usize {
        self.cache().bytes()
    }

    /// Distinct interned nodes (semiring + semimodule) in the arena.
    pub fn interned_nodes(&self) -> usize {
        let interner = self.interner();
        interner.len() + interner.agg_len()
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
        let interner = self.interner();
        let cache = self.cache();
        let counts = crate::persist::RestoreStats {
            interned_exprs: interner.len(),
            interned_aggs: interner.agg_len(),
            distributions: cache.semiring.len() + cache.aggregate.len(),
        };
        (
            crate::persist::encode_snapshot(
                &interner,
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
        let mut interner = self.interner();
        let mut cache = self.cache();
        snapshot.restore_into(&mut interner, &mut cache)
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

/// Whether a miss under `options` may fold a leaf list: only with rule 2 on,
/// whose chain the fold reproduces, and without a node budget, which only the
/// compiler can enforce.
fn folds(options: &CompileOptions) -> bool {
    options.independence && options.node_budget.is_none()
}

/// A root the store compiles, of either sort.
#[derive(Clone, Copy)]
enum Root {
    Semiring(ExprId),
    Aggregate(AggExprId),
}

/// A semiring root the store folds itself (see the [module
/// documentation](self)): the sum (`is_add`) or product of `leaves`, compared
/// with a constant if `compare` says so — `(θ, c, c stands on the left)`.
struct LeafList {
    is_add: bool,
    leaves: Vec<Var>,
    compare: Option<(CmpOp, SemiringValue, bool)>,
}

/// `id` as a [`LeafList`], if it is one: a sum or product of two or more
/// distinct bare variables, or `[s θ c]` over one with the constant `c` on
/// either side. Such a root is what the compiler's `simplify` leaves as it is.
fn leaf_list(interner: &Interner, id: ExprId) -> Option<LeafList> {
    let (side, compare) = match interner.node(id) {
        InternedExpr::CmpSS(theta, lhs, rhs) => {
            match (interner.as_const(lhs), interner.as_const(rhs)) {
                (None, Some(c)) => (lhs, Some((theta, c, false))),
                (Some(c), None) => (rhs, Some((theta, c, true))),
                _ => return None,
            }
        }
        _ => (id, None),
    };
    let (is_add, children) = match interner.node(side) {
        InternedExpr::Add(children) => (true, children),
        InternedExpr::Mul(children) => (false, children),
        _ => return None,
    };
    if children.len() < 2 || !interner.children_disjoint(side) {
        return None;
    }
    let leaves = children
        .iter()
        .map(|&child| match interner.node(child) {
            InternedExpr::Var(var) => Some(var),
            _ => None,
        })
        .collect::<Option<_>>()?;
    Some(LeafList {
        is_add,
        leaves,
        compare,
    })
}

/// The distribution of a [`LeafList`]: the arena's own arms over the values
/// the compiled chain's `VarLeaf`s would carry.
fn fold_leaf_list(
    list: LeafList,
    vars: &VarTable,
    kind: SemiringKind,
) -> Result<SemiringDist, DTreeError> {
    let cells = kind == SemiringKind::Bool;
    let _span = list.compare.is_some().then(|| fold_span(list.leaves.len()));
    let mut pairs = Vec::new();
    let mut side = Val::leaf(vars.dist(list.leaves[0]), cells);
    for &var in &list.leaves[1..] {
        let leaf = Val::leaf(vars.dist(var), cells);
        side = crate::arena::combine_semiring(list.is_add, side, leaf, &mut pairs)?;
    }
    let result = match list.compare {
        None => side,
        Some((theta, constant, constant_left)) => {
            let constant = Val::constant(constant, cells);
            let (left, right) = match constant_left {
                true => (constant, side),
                false => (side, constant),
            };
            crate::arena::compare(theta, left, right, kind, cells, &mut pairs)?
        }
    };
    result.into_semiring("root")
}

/// The aggregate `id` as its operator and `(x, m)` leaves, if it is a leaf
/// list: two or more terms `x ⊗ m` over distinct bare variables.
fn leaf_terms(interner: &Interner, id: AggExprId) -> Option<(AggOp, Vec<(Var, MonoidValue)>)> {
    let node = interner.agg_node(id);
    if node.terms.len() < 2 || !interner.terms_disjoint(id) {
        return None;
    }
    let leaves = node
        .terms
        .iter()
        .map(|&(coeff, value)| match interner.node(coeff) {
            InternedExpr::Var(var) => Some((var, value)),
            _ => None,
        })
        .collect::<Option<_>>()?;
    Some((node.op, leaves))
}

/// The distribution of `Σ_op x ⊗ m` over the independent leaves: each leaf is
/// `P_x` mapped through the scalar action — what the arena's
/// `Tensor(VarLeaf(x), MConst(m))` yields, since a convolution with the point
/// distribution on `m` multiplies every probability by 1.0 and coalesces in
/// the same order. For SUM and COUNT the fold runs through one
/// [`AdditiveFold`]: the accumulator stays in offset-indexed dense form across
/// the whole fold, a leaf's cells go in without a distribution being built for
/// them, and the result materialises once at the end — the arena's `⊕` chain,
/// bit for bit. MIN and MAX convolve step by step.
fn fold_leaf_terms(op: AggOp, leaves: &[(Var, MonoidValue)], vars: &VarTable) -> MonoidDist {
    let _span = fold_span(leaves.len());
    let leaf = |&(var, m): &(Var, MonoidValue)| {
        vars.dist(var)
            .iter()
            .map(move |(s, p)| (op.scalar_action(s, &m), p))
    };
    if matches!(op, AggOp::Sum | AggOp::Count) {
        let mut fold = AdditiveFold::new();
        for term in leaves {
            fold.push_cells(leaf(term));
        }
        return fold.take().expect("two or more leaves").into_dist();
    }
    leaves
        .iter()
        .map(|&(var, m)| vars.dist(var).map(|s| op.scalar_action(s, &m)))
        .reduce(|acc, d| acc.convolve(&d, |x, y| op.combine(x, y)))
        .expect("two or more leaves")
}

/// The `fold [components, leaves]` span around a leaf-list fold.
fn fold_span(leaves: usize) -> Option<crate::obs::SpanGuard> {
    let span = crate::obs::span("fold");
    if let Some(s) = &span {
        s.attr("components", leaves.to_string());
        s.attr("leaves", leaves.to_string());
    }
    span
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
        // The compiled root leaves exactly one entry, its own: its
        // independent halves are not stored beside it.
        assert_eq!(shared.semiring_entries(), 1);
        assert_eq!(misses_after_first, 1);
        // Second evaluation under another scope: pure hit, counted as cross-scope.
        let again = sem(&shared, id, &vt, 2);
        assert_eq!(again, dist);
        assert_eq!(shared.counters().misses, misses_after_first);
        assert!(shared.counters().hits >= 1);
        assert!(shared.counters().cross_scope_hits >= 1);
    }

    #[test]
    fn a_root_sharing_a_component_gets_the_same_bits_on_a_warm_store() {
        let (vt, xs) = setup();
        // x0·(x1 + x2) is an independent component of both roots.
        let component = v(xs[0]) * (v(xs[1]) + v(xs[2]));
        let first = component.clone() + v(xs[3]) * v(xs[4]);
        let second = component + v(xs[5]);
        let warm = SharedArtifacts::default();
        let first_id = warm.intern(&first);
        sem(&warm, first_id, &vt, 1);
        let second_id = warm.intern(&second);
        let on_warm = sem(&warm, second_id, &vt, 2);
        let fresh = SharedArtifacts::default();
        let fresh_id = fresh.intern(&second);
        assert_eq!(bits(&on_warm), bits(&sem(&fresh, fresh_id, &vt, 1)));
        let expected = oracle::semiring_dist_by_enumeration(&second, &vt, SemiringKind::Bool);
        assert!(on_warm.approx_eq(&expected, 1e-9));
        // One entry per compiled root, and nothing of the first root serves
        // the second.
        let counters = warm.counters();
        assert_eq!((counters.hits, counters.misses), (0, 2));
        assert_eq!(counters.arena_misses, 2);
        assert_eq!(warm.semiring_entries(), 2);
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
        // The next insert is the most recent entry.
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
    fn a_mixed_aggregate_leaves_one_entry_and_a_warm_store_keeps_the_bits() {
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
        // One circuit compiled for the whole root, one entry: the root's.
        assert_eq!(shared.aggregate_entries(), 1);
        assert_eq!(shared.counters().misses, 1);
        assert_eq!(shared.counters().arena_misses, 1);
        // Another query over the same component and a different leaf gets the
        // bits a fresh store computes, and leaves its own single entry.
        let beta = SemimoduleExpr::from_terms(
            AggOp::Sum,
            [(v(xs[4]), Fin(1))].into_iter().chain(entangled).collect(),
        );
        let bid = shared.intern_semimodule(&beta);
        let dist = agg(&shared, bid, &vt, SemiringKind::Bool, 2);
        let fresh = SharedArtifacts::default();
        let fresh_id = fresh.intern_semimodule(&beta);
        let cold = agg(&fresh, fresh_id, &vt, SemiringKind::Bool, 1);
        assert_eq!(bits(&dist), bits(&cold));
        assert_eq!(bits(&dist), bits(&compiled(&beta, &vt, SemiringKind::Bool)));
        let expected = oracle::semimodule_dist_by_enumeration(&beta, &vt, SemiringKind::Bool);
        assert!(dist.approx_eq(&expected, 1e-9));
        let counters = shared.counters();
        assert_eq!((counters.hits, counters.misses), (0, 2));
        assert_eq!(counters.arena_misses, 2);
        assert_eq!(shared.aggregate_entries(), 2);
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
        let it = &*store.interner();
        let mut partitioner = pvc_expr::independence::Partitioner::default();
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
            bits.push(shared.interner().children_disjoint(id));
        }
        for alpha in &aggs {
            let id = shared.intern_semimodule(alpha);
            shared
                .evaluate_aggregate(id, &vt, SemiringKind::Bool, &options, 1)
                .unwrap();
            bits.push(shared.interner().terms_disjoint(id));
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
                    store.interner().children_disjoint(id)
                })
                .chain(aggs.iter().map(|alpha| {
                    let id = store.intern_semimodule(alpha);
                    store.interner().terms_disjoint(id)
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
        cache.insert_semiring(id, 1, pvc_prob::make::bernoulli(0.5));
        assert!(cache.map_semiring(id, 1, |_| ()).is_some());
        assert!(cache.semiring.len() > 0);
        cache.clear();
        assert_eq!(cache.semiring.len(), 0);
        assert_eq!(cache.bytes(), 0);
        assert_eq!(cache.counters, CacheCounters::default());
    }
}
