//! Persistent snapshots of compile artifacts: a versioned, length-prefixed,
//! checksummed **binary format** for the hash-consed expression arena
//! ([`Interner`]) and the bounded distribution cache of the artifact store
//! ([`SharedArtifacts`](crate::cache::SharedArtifacts)), so a
//! serving engine can come back **warm** after a process restart instead of
//! recompiling every d-tree from scratch.
//!
//! This is the knowledge-compilation payoff made durable: the distributions the
//! paper's d-trees compute are what every later query asks for, so they are
//! worth keeping across a restart. (The circuits themselves are not: the store
//! evaluates each one where it is emitted and keeps only its distribution — see
//! [`crate::cache`].) The snapshot stores:
//!
//! * every interned semiring / semimodule node (children before parents, the
//!   arena's natural replay order);
//! * every cached semiring and aggregate distribution with its insertion
//!   **scope tag** (so cross-query hit accounting survives the restart) in
//!   least-recently-used-first order (so replaying the entries reproduces the
//!   LRU recency order);
//! * the cache's [`CacheConfig`] bounds and an opaque caller-supplied *extra*
//!   section (the engine in `pvc-db` stores its step-I rewrite cache there).
//!
//! # Safety & versioning contract
//!
//! * The file starts with an 8-byte magic and a format version; a mismatched
//!   version is refused with [`PersistError::Version`] — **no** cross-version
//!   migration is attempted (see `docs/SNAPSHOT_FORMAT.md` for the policy).
//! * The whole file is covered by a trailing FNV-1a checksum; truncation or
//!   corruption is reported as a typed error, never a panic.
//! * A caller-provided 64-bit **fingerprint** (the engine uses a digest of the
//!   database: variable distributions, semiring, table contents) is embedded and
//!   must match on load ([`Snapshot::verify_fingerprint`]): cached artifacts are
//!   functions of the probability space they were computed under, so a snapshot
//!   is only valid against the *same* database.
//!
//! # Id remapping
//!
//! Interned ids are arena indices and therefore not stable across processes once
//! the target arena already holds other expressions. Restoring
//! ([`SharedArtifacts::restore_snapshot`](crate::cache::SharedArtifacts::restore_snapshot))
//! replays each snapshot node through [`Interner::intern_node`], building a
//! snapshot-id → live-id map, and rewrites every cache key through that map — so
//! snapshots **compose with a live arena**: restoring into a non-empty store
//! deduplicates shared structure and simply adds the missing artifacts.

pub mod storage;
pub mod wal;

use crate::cache::{CacheConfig, CompilationCache};
use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringValue};
use pvc_expr::intern::{AggExprId, AggTerm, ExprId, InternedExpr, Interner};
use pvc_expr::Var;
use pvc_prob::{Dist, MonoidDist, SemiringDist};
use std::fmt;

/// The 8-byte magic prefix of every snapshot file.
pub const MAGIC: [u8; 8] = *b"PVCSNAP\0";

/// The current snapshot format version. Bumped on **every** layout change; a
/// reader never attempts to migrate another version (the snapshot is a cache —
/// regenerating it is always safe).
///
/// Version history: v1 — initial layout; v2 — per-table fingerprint vector
/// inserted after the cache bounds (delta-aware warm restarts); v3 — the
/// engine's `extra` section gained a leading WAL high-water mark (crash-safe
/// durability), so v2 extras no longer parse; v4 — the two compiled-arena
/// sections are gone (the store no longer keeps arenas); v5 — same layout,
/// but the cached fold order is the compiler's, so a v4 file's folded
/// distributions are not the bits this build computes.
pub const FORMAT_VERSION: u32 = 5;

/// Errors of the snapshot codec. Every failure mode of loading — I/O, bad
/// magic, truncation, version or checksum mismatch, a snapshot recorded against
/// a different database — surfaces as a typed variant; nothing panics.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum PersistError {
    /// Reading or writing the snapshot file failed.
    Io(String),
    /// The bytes are not a snapshot, or are structurally malformed / truncated.
    Format(String),
    /// The snapshot was written by a different format version.
    Version {
        /// Version found in the file.
        found: u32,
        /// The only version this build reads.
        supported: u32,
    },
    /// The trailing checksum does not match the content (corruption/truncation).
    Checksum {
        /// Checksum recomputed from the content.
        expected: u64,
        /// Checksum stored in the file.
        found: u64,
    },
    /// The snapshot was recorded against a different database (variable
    /// distributions, semiring or table contents differ).
    Fingerprint {
        /// Fingerprint of the database the caller wants to serve.
        expected: u64,
        /// Fingerprint embedded in the snapshot.
        found: u64,
    },
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Io(detail) => write!(f, "snapshot I/O failed: {detail}"),
            PersistError::Format(detail) => write!(f, "malformed snapshot: {detail}"),
            PersistError::Version { found, supported } => write!(
                f,
                "snapshot format version {found} is not supported (this build reads \
                 version {supported}); regenerate the snapshot"
            ),
            PersistError::Checksum { expected, found } => write!(
                f,
                "snapshot checksum mismatch (stored {found:#018x}, computed {expected:#018x}): \
                 the file is corrupted or truncated"
            ),
            PersistError::Fingerprint { expected, found } => write!(
                f,
                "snapshot was recorded against a different database (snapshot fingerprint \
                 {found:#018x}, database fingerprint {expected:#018x})"
            ),
        }
    }
}

impl std::error::Error for PersistError {}

/// FNV-1a over a byte slice — the snapshot's integrity checksum, exported so
/// dependants (the engine's database fingerprint, tests patching snapshot
/// bytes) share one implementation instead of re-rolling the constants.
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

// ---------------------------------------------------------------------------
// Little-endian primitive writer / reader
// ---------------------------------------------------------------------------

/// Append-only little-endian byte writer used by every snapshot codec (also by
/// the engine's rewrite-cache codec in `pvc-db`).
///
/// A [counting](Self::counting) writer takes the same calls and keeps only
/// their length: what an encoding would cost, without building it.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
    /// `Some(n)` for a counting writer: `n` bytes written, none kept.
    counted: Option<usize>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// A writer that keeps no bytes, only their number ([`len`](Self::len)).
    pub fn counting() -> Self {
        Writer {
            buf: Vec::new(),
            counted: Some(0),
        }
    }

    /// The bytes written so far (none for a counting writer).
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.counted.unwrap_or(self.buf.len())
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn extend(&mut self, bytes: &[u8]) {
        match &mut self.counted {
            Some(n) => *n += bytes.len(),
            None => self.buf.extend_from_slice(bytes),
        }
    }

    /// Write one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.extend(&[v]);
    }

    /// Write a `u32` (little-endian).
    pub fn put_u32(&mut self, v: u32) {
        self.extend(&v.to_le_bytes());
    }

    /// Write a `u64` (little-endian).
    pub fn put_u64(&mut self, v: u64) {
        self.extend(&v.to_le_bytes());
    }

    /// Write an `i64` (little-endian two's complement).
    pub fn put_i64(&mut self, v: i64) {
        self.extend(&v.to_le_bytes());
    }

    /// Write an `f64` as its exact IEEE-754 bit pattern (bit-identical round
    /// trip — the basis of the "persisted results equal never-persisted
    /// results" guarantee).
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Write a length-prefixed byte string.
    pub fn put_bytes(&mut self, bytes: &[u8]) {
        self.put_u64(bytes.len() as u64);
        self.extend(bytes);
    }

    /// Write a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_bytes(s.as_bytes());
    }
}

/// Bounds-checked little-endian reader over a snapshot byte slice. Every read
/// returns [`PersistError::Format`] on truncation instead of panicking.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// A reader over the whole slice.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// True if every byte has been consumed.
    pub fn is_empty(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Format(format!(
                "unexpected end of snapshot: needed {n} bytes at offset {}, {} left",
                self.pos,
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Read one byte.
    pub fn take_u8(&mut self) -> Result<u8, PersistError> {
        Ok(self.take(1)?[0])
    }

    /// Read a `u32`.
    pub fn take_u32(&mut self) -> Result<u32, PersistError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Read a `u64`.
    pub fn take_u64(&mut self) -> Result<u64, PersistError> {
        let b = self.take(8)?;
        Ok(u64::from_le_bytes([
            b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7],
        ]))
    }

    /// Read an `i64`.
    pub fn take_i64(&mut self) -> Result<i64, PersistError> {
        Ok(self.take_u64()? as i64)
    }

    /// Read an `f64` from its bit pattern.
    pub fn take_f64(&mut self) -> Result<f64, PersistError> {
        Ok(f64::from_bits(self.take_u64()?))
    }

    /// Read a count that prefixes `min_element_bytes`-sized elements, rejecting
    /// counts the remaining bytes cannot possibly hold (an allocation guard
    /// against maliciously large length prefixes).
    pub fn take_count(&mut self, min_element_bytes: usize) -> Result<usize, PersistError> {
        let n = self.take_u64()?;
        let cap = (self.remaining() / min_element_bytes.max(1)) as u64;
        if n > cap {
            return Err(PersistError::Format(format!(
                "implausible element count {n} at offset {} ({} bytes left)",
                self.pos,
                self.remaining()
            )));
        }
        Ok(n as usize)
    }

    /// Read a length-prefixed byte string.
    pub fn take_bytes(&mut self) -> Result<&'a [u8], PersistError> {
        let n = self.take_count(1)?;
        self.take(n)
    }

    /// Read a length-prefixed UTF-8 string.
    pub fn take_str(&mut self) -> Result<&'a str, PersistError> {
        std::str::from_utf8(self.take_bytes()?)
            .map_err(|e| PersistError::Format(format!("invalid UTF-8 in snapshot string: {e}")))
    }
}

// ---------------------------------------------------------------------------
// Value codecs (shared with the engine's rewrite codec in pvc-db)
// ---------------------------------------------------------------------------

/// Encode a [`SemiringValue`].
pub fn put_semiring_value(w: &mut Writer, v: &SemiringValue) {
    match v {
        SemiringValue::Bool(b) => {
            w.put_u8(0);
            w.put_u8(*b as u8);
        }
        SemiringValue::Nat(n) => {
            w.put_u8(1);
            w.put_u64(*n);
        }
    }
}

/// Decode a [`SemiringValue`].
pub fn take_semiring_value(r: &mut Reader<'_>) -> Result<SemiringValue, PersistError> {
    match r.take_u8()? {
        0 => Ok(SemiringValue::Bool(r.take_u8()? != 0)),
        1 => Ok(SemiringValue::Nat(r.take_u64()?)),
        t => Err(PersistError::Format(format!("bad semiring-value tag {t}"))),
    }
}

/// Encode a [`MonoidValue`].
pub fn put_monoid_value(w: &mut Writer, v: &MonoidValue) {
    match v {
        MonoidValue::NegInf => w.put_u8(0),
        MonoidValue::Fin(n) => {
            w.put_u8(1);
            w.put_i64(*n);
        }
        MonoidValue::PosInf => w.put_u8(2),
    }
}

/// Decode a [`MonoidValue`].
pub fn take_monoid_value(r: &mut Reader<'_>) -> Result<MonoidValue, PersistError> {
    match r.take_u8()? {
        0 => Ok(MonoidValue::NegInf),
        1 => Ok(MonoidValue::Fin(r.take_i64()?)),
        2 => Ok(MonoidValue::PosInf),
        t => Err(PersistError::Format(format!("bad monoid-value tag {t}"))),
    }
}

/// Encode an [`AggOp`].
pub fn put_agg_op(w: &mut Writer, op: AggOp) {
    w.put_u8(match op {
        AggOp::Min => 0,
        AggOp::Max => 1,
        AggOp::Sum => 2,
        AggOp::Count => 3,
        AggOp::Prod => 4,
    });
}

/// Decode an [`AggOp`].
pub fn take_agg_op(r: &mut Reader<'_>) -> Result<AggOp, PersistError> {
    match r.take_u8()? {
        0 => Ok(AggOp::Min),
        1 => Ok(AggOp::Max),
        2 => Ok(AggOp::Sum),
        3 => Ok(AggOp::Count),
        4 => Ok(AggOp::Prod),
        t => Err(PersistError::Format(format!("bad aggregation-op tag {t}"))),
    }
}

/// Encode a [`CmpOp`].
pub fn put_cmp_op(w: &mut Writer, op: CmpOp) {
    w.put_u8(match op {
        CmpOp::Eq => 0,
        CmpOp::Ne => 1,
        CmpOp::Le => 2,
        CmpOp::Ge => 3,
        CmpOp::Lt => 4,
        CmpOp::Gt => 5,
    });
}

/// Decode a [`CmpOp`].
pub fn take_cmp_op(r: &mut Reader<'_>) -> Result<CmpOp, PersistError> {
    match r.take_u8()? {
        0 => Ok(CmpOp::Eq),
        1 => Ok(CmpOp::Ne),
        2 => Ok(CmpOp::Le),
        3 => Ok(CmpOp::Ge),
        4 => Ok(CmpOp::Lt),
        5 => Ok(CmpOp::Gt),
        t => Err(PersistError::Format(format!("bad comparison-op tag {t}"))),
    }
}

/// Encode a sparse distribution (support pairs in ascending value order, exact
/// probability bits).
fn put_dist<T: Ord + Clone>(w: &mut Writer, d: &Dist<T>, put_value: impl Fn(&mut Writer, &T)) {
    w.put_u64(d.support_size() as u64);
    for (v, p) in d.iter() {
        put_value(w, v);
        w.put_f64(p);
    }
}

/// Decode a sparse distribution. Rebuilt through [`Dist::from_pairs`], which
/// reproduces the stored entries exactly (they already satisfy the sorted /
/// unique / above-epsilon invariants) while staying panic-free on any input.
fn take_dist<T: Ord + Clone>(
    r: &mut Reader<'_>,
    take_value: impl Fn(&mut Reader<'_>) -> Result<T, PersistError>,
) -> Result<Dist<T>, PersistError> {
    let n = r.take_count(9)?;
    let mut pairs = Vec::with_capacity(n);
    for _ in 0..n {
        let v = take_value(r)?;
        let p = r.take_f64()?;
        pairs.push((v, p));
    }
    Ok(Dist::from_pairs(pairs))
}

// ---------------------------------------------------------------------------
// Interner section
// ---------------------------------------------------------------------------

const EXPR_VAR: u8 = 0;
const EXPR_CONST: u8 = 1;
const EXPR_ADD: u8 = 2;
const EXPR_MUL: u8 = 3;
const EXPR_CMP_SS: u8 = 4;
const EXPR_CMP_MM: u8 = 5;

fn put_interner(w: &mut Writer, interner: &Interner) {
    let nodes = interner.nodes();
    w.put_u64(nodes.len() as u64);
    for node in nodes {
        match node {
            InternedExpr::Var(v) => {
                w.put_u8(EXPR_VAR);
                w.put_u32(v.0);
            }
            InternedExpr::Const(c) => {
                w.put_u8(EXPR_CONST);
                put_semiring_value(w, &c);
            }
            InternedExpr::Add(children) => {
                w.put_u8(EXPR_ADD);
                w.put_u64(children.len() as u64);
                for c in children {
                    w.put_u32(c.0);
                }
            }
            InternedExpr::Mul(children) => {
                w.put_u8(EXPR_MUL);
                w.put_u64(children.len() as u64);
                for c in children {
                    w.put_u32(c.0);
                }
            }
            InternedExpr::CmpSS(op, a, b) => {
                w.put_u8(EXPR_CMP_SS);
                put_cmp_op(w, op);
                w.put_u32(a.0);
                w.put_u32(b.0);
            }
            InternedExpr::CmpMM(op, a, b) => {
                w.put_u8(EXPR_CMP_MM);
                put_cmp_op(w, op);
                w.put_u32(a.0);
                w.put_u32(b.0);
            }
        }
    }
    let aggs = interner.agg_nodes();
    w.put_u64(aggs.len() as u64);
    for agg in aggs {
        put_agg_op(w, agg.op);
        w.put_u64(agg.terms.len() as u64);
        for (coeff, value) in agg.terms {
            w.put_u32(coeff.0);
            put_monoid_value(w, value);
        }
    }
}

/// A snapshot node with snapshot-local child ids (remapped on restore).
#[derive(Debug)]
enum RawExpr {
    Var(u32),
    Const(SemiringValue),
    Add(Vec<u32>),
    Mul(Vec<u32>),
    CmpSS(CmpOp, u32, u32),
    CmpMM(CmpOp, u32, u32),
}

#[derive(Debug)]
struct RawAgg {
    op: AggOp,
    terms: Vec<(u32, MonoidValue)>,
    /// Largest coefficient expression id (`u32::MAX` meaning "no terms"); used to
    /// validate the replay-order invariant below.
    max_coeff: u32,
}

fn take_interner(r: &mut Reader<'_>) -> Result<(Vec<RawExpr>, Vec<RawAgg>), PersistError> {
    let n_exprs = r.take_count(2)?;
    let mut exprs = Vec::with_capacity(n_exprs);
    for i in 0..n_exprs {
        let child = |id: u32| -> Result<u32, PersistError> {
            if (id as usize) < i {
                Ok(id)
            } else {
                Err(PersistError::Format(format!(
                    "expression node {i} references child {id} (children must precede parents)"
                )))
            }
        };
        let node = match r.take_u8()? {
            EXPR_VAR => RawExpr::Var(r.take_u32()?),
            EXPR_CONST => RawExpr::Const(take_semiring_value(r)?),
            tag @ (EXPR_ADD | EXPR_MUL) => {
                let n = r.take_count(4)?;
                let mut children = Vec::with_capacity(n);
                for _ in 0..n {
                    children.push(child(r.take_u32()?)?);
                }
                if tag == EXPR_ADD {
                    RawExpr::Add(children)
                } else {
                    RawExpr::Mul(children)
                }
            }
            EXPR_CMP_SS => {
                let op = take_cmp_op(r)?;
                RawExpr::CmpSS(op, child(r.take_u32()?)?, child(r.take_u32()?)?)
            }
            EXPR_CMP_MM => {
                let op = take_cmp_op(r)?;
                RawExpr::CmpMM(op, r.take_u32()?, r.take_u32()?)
            }
            t => return Err(PersistError::Format(format!("bad expression tag {t}"))),
        };
        exprs.push(node);
    }
    let n_aggs = r.take_count(2)?;
    let mut aggs = Vec::with_capacity(n_aggs);
    for _ in 0..n_aggs {
        let op = take_agg_op(r)?;
        let n = r.take_count(5)?;
        let mut terms = Vec::with_capacity(n);
        let mut max_coeff = 0u32;
        for _ in 0..n {
            let coeff = r.take_u32()?;
            if coeff as usize >= n_exprs {
                return Err(PersistError::Format(format!(
                    "aggregate term references unknown expression {coeff}"
                )));
            }
            max_coeff = max_coeff.max(coeff);
            terms.push((coeff, take_monoid_value(r)?));
        }
        if terms.is_empty() {
            max_coeff = u32::MAX;
        }
        aggs.push(RawAgg {
            op,
            terms,
            max_coeff,
        });
    }
    // Validate the replay-order invariant: an expression node referencing an
    // aggregate node must come after every coefficient of that aggregate (true
    // for any interner-produced snapshot, since both arenas are append-only and
    // sub-expressions are interned before their parents).
    for (i, node) in exprs.iter().enumerate() {
        if let RawExpr::CmpMM(_, a, b) = node {
            for agg_id in [*a, *b] {
                let agg = aggs.get(agg_id as usize).ok_or_else(|| {
                    PersistError::Format(format!(
                        "expression node {i} references unknown aggregate {agg_id}"
                    ))
                })?;
                if agg.max_coeff != u32::MAX && agg.max_coeff as usize >= i {
                    return Err(PersistError::Format(format!(
                        "expression node {i} references aggregate {agg_id} whose coefficients \
                         are not yet defined"
                    )));
                }
            }
        }
    }
    Ok((exprs, aggs))
}

// ---------------------------------------------------------------------------
// Cache section
// ---------------------------------------------------------------------------

fn put_cache(w: &mut Writer, cache: &CompilationCache) {
    let semiring = cache.semiring.entries_oldest_first();
    w.put_u64(semiring.len() as u64);
    for (key, scope, dist) in &semiring {
        w.put_u32(*key);
        w.put_u64(*scope);
        put_dist(w, dist, put_semiring_value);
    }
    let aggregate = cache.aggregate.entries_oldest_first();
    w.put_u64(aggregate.len() as u64);
    for (key, scope, dist) in &aggregate {
        w.put_u32(*key);
        w.put_u64(*scope);
        put_dist(w, dist, put_monoid_value);
    }
}

#[derive(Debug)]
struct CacheEntries {
    semiring: Vec<(u32, u64, SemiringDist)>,
    aggregate: Vec<(u32, u64, MonoidDist)>,
}

fn take_cache(
    r: &mut Reader<'_>,
    n_exprs: usize,
    n_aggs: usize,
) -> Result<CacheEntries, PersistError> {
    let key = |id: u32, bound: usize, what: &str| -> Result<u32, PersistError> {
        if (id as usize) < bound {
            Ok(id)
        } else {
            Err(PersistError::Format(format!(
                "cache entry references unknown {what} {id}"
            )))
        }
    };
    let n = r.take_count(12)?;
    let mut semiring = Vec::with_capacity(n);
    for _ in 0..n {
        let k = key(r.take_u32()?, n_exprs, "expression")?;
        let scope = r.take_u64()?;
        semiring.push((k, scope, take_dist(r, take_semiring_value)?));
    }
    let n = r.take_count(12)?;
    let mut aggregate = Vec::with_capacity(n);
    for _ in 0..n {
        let k = key(r.take_u32()?, n_aggs, "aggregate")?;
        let scope = r.take_u64()?;
        aggregate.push((k, scope, take_dist(r, take_monoid_value)?));
    }
    Ok(CacheEntries {
        semiring,
        aggregate,
    })
}

// ---------------------------------------------------------------------------
// The snapshot frame
// ---------------------------------------------------------------------------

/// Serialise an interner + cache pair into a self-contained snapshot byte
/// vector (magic, version, fingerprint, cache bounds, per-table fingerprint
/// vector, artifact sections, an opaque `extra` section, trailing checksum).
///
/// `fingerprint` identifies the probability space / database the artifacts were
/// computed under; `table_fingerprints` is the per-table refinement of that
/// digest (name → 64-bit content fingerprint, returned verbatim by
/// [`Snapshot::table_fingerprints`]) that lets a loader pinpoint *which* tables
/// diverged instead of rejecting the whole snapshot; `extra` is an opaque
/// caller section (the engine's step-I rewrite cache) returned verbatim by
/// [`Snapshot::extra`] on load.
pub(crate) fn encode_snapshot(
    interner: &Interner,
    cache: &CompilationCache,
    fingerprint: u64,
    table_fingerprints: &[(String, u64)],
    extra: Option<&[u8]>,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.buf.extend_from_slice(&MAGIC);
    w.put_u32(FORMAT_VERSION);
    w.put_u64(fingerprint);
    let config = cache.config;
    w.put_u64(config.max_entries as u64);
    w.put_u64(config.max_bytes as u64);
    w.put_u64(table_fingerprints.len() as u64);
    for (name, fp) in table_fingerprints {
        w.put_str(name);
        w.put_u64(*fp);
    }
    put_interner(&mut w, interner);
    put_cache(&mut w, cache);
    match extra {
        Some(bytes) => {
            w.put_u8(1);
            w.put_bytes(bytes);
        }
        None => w.put_u8(0),
    }
    let checksum = fnv64(&w.buf);
    w.put_u64(checksum);
    w.into_bytes()
}

/// A decoded, validated snapshot, ready to be restored into a live interner +
/// cache pair (see the [module docs](self)).
#[derive(Debug)]
pub struct Snapshot {
    fingerprint: u64,
    config: CacheConfig,
    table_fingerprints: Vec<(String, u64)>,
    exprs: Vec<RawExpr>,
    aggs: Vec<RawAgg>,
    cache: CacheEntries,
    extra: Option<Vec<u8>>,
}

/// What a restore added to the target store.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RestoreStats {
    /// Interned semiring nodes replayed (counting nodes already present).
    pub interned_exprs: usize,
    /// Interned semimodule nodes replayed.
    pub interned_aggs: usize,
    /// Distributions (semiring + aggregate) inserted.
    pub distributions: usize,
}

/// Parse and validate snapshot bytes: magic, version, checksum, structural
/// sanity (child-before-parent ids, in-bounds cache keys). Returns a
/// [`Snapshot`] that can be fingerprint-checked and restored; the target store
/// is untouched until it is restored
/// ([`SharedArtifacts::restore_snapshot`](crate::cache::SharedArtifacts::restore_snapshot)).
pub fn decode_snapshot(bytes: &[u8]) -> Result<Snapshot, PersistError> {
    if bytes.len() < MAGIC.len() + 4 + 8 {
        return Err(PersistError::Format(format!(
            "{} bytes is too short for a snapshot",
            bytes.len()
        )));
    }
    if bytes[..MAGIC.len()] != MAGIC {
        return Err(PersistError::Format(
            "bad magic: not a pvc snapshot file".to_string(),
        ));
    }
    let mut r = Reader::new(bytes);
    r.take(MAGIC.len())?;
    let version = r.take_u32()?;
    if version != FORMAT_VERSION {
        return Err(PersistError::Version {
            found: version,
            supported: FORMAT_VERSION,
        });
    }
    let stored = u64::from_le_bytes(bytes[bytes.len() - 8..].try_into().expect("8 bytes"));
    let computed = fnv64(&bytes[..bytes.len() - 8]);
    if stored != computed {
        return Err(PersistError::Checksum {
            expected: computed,
            found: stored,
        });
    }
    // Re-scope the reader to exclude the trailing checksum.
    let mut r = Reader::new(&bytes[..bytes.len() - 8]);
    r.take(MAGIC.len() + 4)?;
    let fingerprint = r.take_u64()?;
    let config = CacheConfig {
        max_entries: usize::try_from(r.take_u64()?)
            .map_err(|_| PersistError::Format("cache entry bound overflows usize".into()))?,
        max_bytes: usize::try_from(r.take_u64()?)
            .map_err(|_| PersistError::Format("cache byte bound overflows usize".into()))?,
    };
    let n_tables = r.take_count(9)?;
    let mut table_fingerprints = Vec::with_capacity(n_tables);
    for _ in 0..n_tables {
        let name = r.take_str()?.to_string();
        let fp = r.take_u64()?;
        table_fingerprints.push((name, fp));
    }
    let (exprs, aggs) = take_interner(&mut r)?;
    let cache = take_cache(&mut r, exprs.len(), aggs.len())?;
    let extra = match r.take_u8()? {
        0 => None,
        1 => Some(r.take_bytes()?.to_vec()),
        t => return Err(PersistError::Format(format!("bad extra-section tag {t}"))),
    };
    if !r.is_empty() {
        return Err(PersistError::Format(format!(
            "{} trailing bytes after the extra section",
            r.remaining()
        )));
    }
    Ok(Snapshot {
        fingerprint,
        config,
        table_fingerprints,
        exprs,
        aggs,
        cache,
        extra,
    })
}

impl Snapshot {
    /// The fingerprint embedded at save time.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The cache bounds the snapshot was recorded under.
    pub fn config(&self) -> CacheConfig {
        self.config
    }

    /// The per-table fingerprint vector embedded at save time (empty for
    /// callers that only track the whole-database digest). Loaders compare it
    /// against the live database's vector to pinpoint which tables diverged —
    /// the delta-aware warm-restart path keeps artifacts of matching tables and
    /// evicts only the rest.
    pub fn table_fingerprints(&self) -> &[(String, u64)] {
        &self.table_fingerprints
    }

    /// The opaque caller section, if one was stored.
    pub fn extra(&self) -> Option<&[u8]> {
        self.extra.as_deref()
    }

    /// Refuse the snapshot unless it was recorded for `expected` (see
    /// [`PersistError::Fingerprint`]).
    pub fn verify_fingerprint(&self, expected: u64) -> Result<(), PersistError> {
        if self.fingerprint == expected {
            Ok(())
        } else {
            Err(PersistError::Fingerprint {
                expected,
                found: self.fingerprint,
            })
        }
    }

    /// Refuse the snapshot if any expression references a variable id
    /// `>= var_count` (the size of the variable table the caller is about to
    /// evaluate against). The checksum only protects against
    /// accidental corruption — a deliberately crafted file carries a valid
    /// checksum, and an out-of-range [`Var`] would otherwise become an
    /// index-out-of-bounds panic at evaluation time. Fingerprint-matched
    /// snapshots always pass (the fingerprint covers the variable table the
    /// artifacts were built over).
    pub fn verify_variables(&self, var_count: usize) -> Result<(), PersistError> {
        let check = |v: u32| -> Result<(), PersistError> {
            if (v as usize) < var_count {
                Ok(())
            } else {
                Err(PersistError::Format(format!(
                    "snapshot references variable {v}, but the database has only \
                     {var_count} variables"
                )))
            }
        };
        for raw in &self.exprs {
            if let RawExpr::Var(v) = raw {
                check(*v)?;
            }
        }
        Ok(())
    }

    /// Replay the snapshot into a live interner + cache: interned nodes are
    /// re-interned (deduplicating against whatever the arena already holds) and
    /// every cache entry is inserted under its **remapped** canonical id, in
    /// least-recently-used-first order, honouring the *target* cache's LRU
    /// bounds. Restoring into a freshly created pair reproduces the saved state
    /// exactly; restoring into a warm store merges.
    pub(crate) fn restore_into(
        &self,
        interner: &mut Interner,
        cache: &mut CompilationCache,
    ) -> Result<RestoreStats, PersistError> {
        let mut expr_map: Vec<Option<ExprId>> = vec![None; self.exprs.len()];
        let mut agg_map: Vec<Option<AggExprId>> = vec![None; self.aggs.len()];
        let mapped = |map: &[Option<ExprId>], id: u32| -> ExprId {
            map[id as usize].expect("validated child ordering")
        };
        for (i, raw) in self.exprs.iter().enumerate() {
            let remapped: Vec<ExprId>;
            let node = match raw {
                RawExpr::Var(v) => InternedExpr::Var(Var(*v)),
                RawExpr::Const(c) => InternedExpr::Const(*c),
                RawExpr::Add(children) => {
                    remapped = children.iter().map(|c| mapped(&expr_map, *c)).collect();
                    InternedExpr::Add(&remapped)
                }
                RawExpr::Mul(children) => {
                    remapped = children.iter().map(|c| mapped(&expr_map, *c)).collect();
                    InternedExpr::Mul(&remapped)
                }
                RawExpr::CmpSS(op, a, b) => {
                    InternedExpr::CmpSS(*op, mapped(&expr_map, *a), mapped(&expr_map, *b))
                }
                RawExpr::CmpMM(op, a, b) => {
                    // Decode-time validation guarantees the referenced aggregates'
                    // coefficients are all remapped already.
                    for agg_id in [*a, *b] {
                        if agg_map[agg_id as usize].is_none() {
                            agg_map[agg_id as usize] =
                                Some(remap_agg(&self.aggs[agg_id as usize], &expr_map, interner));
                        }
                    }
                    InternedExpr::CmpMM(
                        *op,
                        agg_map[*a as usize].expect("just remapped"),
                        agg_map[*b as usize].expect("just remapped"),
                    )
                }
            };
            expr_map[i] = Some(interner.intern_node(node));
        }
        for (j, raw) in self.aggs.iter().enumerate() {
            if agg_map[j].is_none() {
                agg_map[j] = Some(remap_agg(raw, &expr_map, interner));
            }
        }
        let mut stats = RestoreStats {
            interned_exprs: self.exprs.len(),
            interned_aggs: self.aggs.len(),
            ..RestoreStats::default()
        };
        for (key, scope, dist) in &self.cache.semiring {
            let id = expr_map[*key as usize].expect("all expressions remapped");
            cache.insert_semiring(id, *scope, dist.clone());
            stats.distributions += 1;
        }
        for (key, scope, dist) in &self.cache.aggregate {
            let id = agg_map[*key as usize].expect("all aggregates remapped");
            cache.insert_aggregate(id, *scope, dist.clone());
            stats.distributions += 1;
        }
        Ok(stats)
    }
}

fn remap_agg(raw: &RawAgg, expr_map: &[Option<ExprId>], interner: &mut Interner) -> AggExprId {
    let terms: Vec<AggTerm> = raw
        .terms
        .iter()
        .map(|(coeff, value)| {
            (
                expr_map[*coeff as usize].expect("validated coefficient ordering"),
                *value,
            )
        })
        .collect();
    interner.intern_agg(raw.op, &terms)
}

/// Write snapshot bytes to a file **atomically**: the bytes go to a sibling
/// temporary file (same directory, so the final step stays on one filesystem)
/// which is then `rename`d into place.
///
/// A crash — or a `kill -9` from a supervisor — mid-write therefore leaves
/// either the previous complete snapshot or, at worst, a stray `.tmp` sibling;
/// the snapshot path itself never holds a truncated file that would only fail
/// (checksum/length mismatch) at the next warm restart. This is what makes
/// *background* snapshotting (the `pvc-serve` snapshot thread) safe to run on
/// every interval without risking the warm-restart story.
pub fn write_snapshot_file(
    path: impl AsRef<std::path::Path>,
    bytes: &[u8],
) -> Result<(), PersistError> {
    write_snapshot_file_with(&storage::FsStorage, path.as_ref(), bytes)
}

/// [`write_snapshot_file`] through a pluggable [`storage::Storage`] — the
/// variant the serve runtime uses so fault-injection tests can interpose on
/// the write path.
pub fn write_snapshot_file_with(
    storage: &dyn storage::Storage,
    path: &std::path::Path,
    bytes: &[u8],
) -> Result<(), PersistError> {
    let started = std::time::Instant::now();
    storage.write_atomic(path, bytes).map_err(|e| {
        PersistError::Io(format!(
            "failed to publish snapshot {}: {e}",
            path.display()
        ))
    })?;
    let metrics = crate::obs::core_metrics();
    metrics.persist_save_bytes.record(bytes.len() as u64);
    metrics
        .persist_save_us
        .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
    Ok(())
}

/// Read snapshot bytes from a file.
pub fn read_snapshot_file(path: impl AsRef<std::path::Path>) -> Result<Vec<u8>, PersistError> {
    read_snapshot_file_with(&storage::FsStorage, path.as_ref())
}

/// [`read_snapshot_file`] through a pluggable [`storage::Storage`].
pub fn read_snapshot_file_with(
    storage: &dyn storage::Storage,
    path: &std::path::Path,
) -> Result<Vec<u8>, PersistError> {
    let started = std::time::Instant::now();
    let bytes = storage.read(path).map_err(|e| {
        PersistError::Io(format!("failed to read snapshot {}: {e}", path.display()))
    })?;
    let metrics = crate::obs::core_metrics();
    metrics.persist_restore_bytes.record(bytes.len() as u64);
    metrics
        .persist_restore_us
        .record(started.elapsed().as_micros().min(u64::MAX as u128) as u64);
    Ok(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::{CacheConfig, CompilationCache, SharedArtifacts};
    use crate::compile::CompileOptions;
    use pvc_algebra::{MonoidValue::Fin, SemiringKind};
    use pvc_expr::{SemimoduleExpr, SemiringExpr, VarTable};

    fn v(i: u32) -> SemiringExpr {
        SemiringExpr::Var(Var(i))
    }

    fn populated() -> (VarTable, SharedArtifacts) {
        let mut vt = VarTable::new();
        let xs: Vec<_> = (0..6)
            .map(|i| vt.boolean(format!("x{i}"), 0.25 + 0.1 * i as f64))
            .collect();
        let shared = SharedArtifacts::default();
        let options = CompileOptions::default();
        let exprs = [
            SemiringExpr::Var(xs[0]) * (SemiringExpr::Var(xs[1]) + SemiringExpr::Var(xs[2])),
            SemiringExpr::Var(xs[3]) * SemiringExpr::Var(xs[4])
                + SemiringExpr::Var(xs[0]) * SemiringExpr::Var(xs[5]),
            SemiringExpr::cmp_mm(
                pvc_algebra::CmpOp::Le,
                SemimoduleExpr::from_terms(
                    pvc_algebra::AggOp::Min,
                    vec![
                        (SemiringExpr::Var(xs[1]), Fin(10)),
                        (SemiringExpr::Var(xs[2]), Fin(20)),
                    ],
                ),
                SemimoduleExpr::constant(pvc_algebra::AggOp::Min, Fin(15)),
            ),
        ];
        for (scope, expr) in exprs.iter().enumerate() {
            let id = shared.intern(expr);
            shared
                .evaluate_semiring(id, &vt, SemiringKind::Bool, &options, scope as u64)
                .unwrap();
        }
        let alpha = SemimoduleExpr::from_terms(
            pvc_algebra::AggOp::Sum,
            vec![
                (SemiringExpr::Var(xs[0]), Fin(3)),
                (SemiringExpr::Var(xs[1]) * SemiringExpr::Var(xs[0]), Fin(5)),
            ],
        );
        let aid = shared.intern_semimodule(&alpha);
        shared
            .evaluate_aggregate(aid, &vt, SemiringKind::Bool, &options, 7)
            .unwrap();
        (vt, shared)
    }

    #[test]
    fn fuzz_snapshot_single_bit_flips_are_always_rejected() {
        // The trailing FNV checksum covers every byte before it, so *any*
        // single-bit flip — body, header or the checksum itself — must turn
        // into a typed error, never a silently-wrong snapshot. This pins the
        // corruption-detection guarantee `docs/DURABILITY.md` documents.
        let (_vt, shared) = populated();
        let tables = vec![("S".to_string(), 0x1111)];
        let (bytes, _) = shared.snapshot_bytes(0xfeed, &tables, Some(b"extra"));
        decode_snapshot(&bytes).expect("pristine snapshot must decode");
        let mut rng = pvc_prob::SeededRng::seed_from_u64(0xf1ee7);
        for trial in 0..300 {
            let bit = rng.gen_range(0..(bytes.len() as i64 * 8)) as usize;
            let mut corrupted = bytes.clone();
            corrupted[bit / 8] ^= 1 << (bit % 8);
            assert!(
                decode_snapshot(&corrupted).is_err(),
                "trial {trial}: flipped bit {bit} was accepted"
            );
        }
    }

    #[test]
    fn fuzz_snapshot_truncations_are_typed_errors() {
        let (_vt, shared) = populated();
        let (bytes, _) = shared.snapshot_bytes(1, &[], None);
        let mut rng = pvc_prob::SeededRng::seed_from_u64(0x7a11);
        // Sample truncation points (plus the edges) instead of all lengths:
        // decode cost is linear, the property is identical at each cut.
        let mut cuts: Vec<usize> = (0..64)
            .map(|_| rng.gen_range(0..(bytes.len() as i64)) as usize)
            .collect();
        cuts.extend([0, 1, bytes.len() - 1]);
        for cut in cuts {
            match decode_snapshot(&bytes[..cut]) {
                Err(
                    PersistError::Format(_)
                    | PersistError::Checksum { .. }
                    | PersistError::Version { .. },
                ) => {}
                Err(e) => panic!("cut {cut}: unexpected error kind {e}"),
                Ok(_) => panic!("cut {cut}: truncated snapshot decoded successfully"),
            }
        }
    }

    #[test]
    fn fuzz_reader_on_random_bytes_never_panics_or_over_reads() {
        let mut rng = pvc_prob::SeededRng::seed_from_u64(0x000d_ecaf);
        for _ in 0..300 {
            let len = rng.gen_range(0..96usize);
            let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
            let mut r = Reader::new(&data);
            for _ in 0..24 {
                let before = r.remaining();
                // Every take either succeeds consuming at most what is there,
                // or returns a typed error — never panics.
                let consumed_ok = match rng.gen_range(0..8usize) {
                    0 => r.take_u8().is_ok(),
                    1 => r.take_u32().is_ok(),
                    2 => r.take_u64().is_ok(),
                    3 => r.take_i64().is_ok(),
                    4 => r.take_f64().is_ok(),
                    5 => r.take_bytes().is_ok(),
                    6 => r.take_str().is_ok(),
                    _ => r.take_count(8).is_ok(),
                };
                assert!(r.remaining() <= before);
                if !consumed_ok && r.remaining() == 0 {
                    break;
                }
            }
        }
    }

    #[test]
    fn roundtrip_into_fresh_store_is_identity() {
        let (_vt, shared) = populated();
        let tables = vec![("S".to_string(), 0x1111), ("PS".to_string(), 0x2222)];
        let (bytes, counts) = shared.snapshot_bytes(0xfeed, &tables, Some(b"hello"));
        let snap = decode_snapshot(&bytes).unwrap();
        assert_eq!(snap.fingerprint(), 0xfeed);
        assert_eq!(snap.table_fingerprints(), &tables[..]);
        assert_eq!(snap.extra(), Some(&b"hello"[..]));
        assert!(matches!(
            SharedArtifacts::from_snapshot(&snap, 0xbeef),
            Err(PersistError::Fingerprint { .. })
        ));
        let (fresh, stats) = SharedArtifacts::from_snapshot(&snap, 0xfeed).unwrap();
        assert_eq!(stats.interned_exprs, counts.interned_exprs);
        assert_eq!(stats.interned_aggs, counts.interned_aggs);
        // A fresh replay assigns identical ids, so the second snapshot is
        // byte-identical (counters are not persisted).
        let (bytes2, _) = fresh.snapshot_bytes(0xfeed, &tables, Some(b"hello"));
        assert_eq!(bytes, bytes2);
        assert_eq!(fresh.semiring_entries(), shared.semiring_entries());
        assert_eq!(fresh.aggregate_entries(), shared.aggregate_entries());
    }

    #[test]
    fn restore_composes_with_a_live_interner() {
        let (vt, shared) = populated();
        let (bytes, _) = shared.snapshot_bytes(1, &[], None);
        // The live store already interned something unrelated, shifting ids.
        let live = SharedArtifacts::default();
        live.intern(&(v(40) + v(41) * v(42)));
        let offset = live.interned_nodes();
        let snap = decode_snapshot(&bytes).unwrap();
        live.restore_snapshot(&snap, 1).unwrap();
        assert!(live.interned_nodes() > offset);
        // A live re-intern of a snapshotted expression lands on a cache entry.
        let expr =
            SemiringExpr::Var(Var(0)) * (SemiringExpr::Var(Var(1)) + SemiringExpr::Var(Var(2)));
        let options = CompileOptions::default();
        let id = live.intern(&expr);
        let restored = live
            .evaluate_semiring(id, &vt, SemiringKind::Bool, &options, 99)
            .unwrap();
        assert_eq!(live.counters().hits, 1);
        assert_eq!(live.counters().misses, 0);
        // And the value equals the one the original store held.
        let oid = shared.intern(&expr);
        let reference = shared
            .evaluate_semiring(oid, &vt, SemiringKind::Bool, &options, 99)
            .unwrap();
        assert_eq!(restored, reference);
    }

    #[test]
    fn corrupted_snapshots_surface_typed_errors() {
        let (_vt, shared) = populated();
        let (bytes, _) = shared.snapshot_bytes(7, &[], None);
        // Not a snapshot at all.
        assert!(matches!(
            decode_snapshot(b"short"),
            Err(PersistError::Format(_))
        ));
        let mut bad_magic = bytes.clone();
        bad_magic[0] ^= 0xff;
        assert!(matches!(
            decode_snapshot(&bad_magic),
            Err(PersistError::Format(_))
        ));
        // Wrong version (checksum fixed up so the version gate fires first).
        let mut bad_version = bytes.clone();
        bad_version[8] = 99;
        let n = bad_version.len();
        let fixed = fnv64(&bad_version[..n - 8]);
        bad_version[n - 8..].copy_from_slice(&fixed.to_le_bytes());
        assert!(matches!(
            decode_snapshot(&bad_version),
            Err(PersistError::Version {
                found: 99,
                supported: FORMAT_VERSION
            })
        ));
        // Flipped payload byte: checksum mismatch.
        let mut corrupt = bytes.clone();
        let mid = corrupt.len() / 2;
        corrupt[mid] ^= 0x01;
        assert!(matches!(
            decode_snapshot(&corrupt),
            Err(PersistError::Checksum { .. })
        ));
        // Truncation: checksum (or framing) failure, never a panic.
        for cut in [bytes.len() - 1, bytes.len() / 2, 13] {
            assert!(decode_snapshot(&bytes[..cut]).is_err());
        }
    }

    #[test]
    fn a_v3_snapshot_is_refused_by_version() {
        // v3 carried two compiled-arena sections after the distributions; v4
        // has this layout, but its folded distributions were summed in another
        // component order. This build reads v5 only and says so with the typed
        // error (checksum fixed up so the version gate decides), which recovery
        // answers by starting cold and replaying the log.
        let (_vt, shared) = populated();
        for old in [3u32, 4] {
            let (mut bytes, _) = shared.snapshot_bytes(7, &[], None);
            bytes[MAGIC.len()..MAGIC.len() + 4].copy_from_slice(&old.to_le_bytes());
            let n = bytes.len();
            let fixed = fnv64(&bytes[..n - 8]);
            bytes[n - 8..].copy_from_slice(&fixed.to_le_bytes());
            assert_eq!(
                decode_snapshot(&bytes).unwrap_err(),
                PersistError::Version {
                    found: old,
                    supported: 5
                }
            );
        }
    }

    #[test]
    fn out_of_range_variables_are_refused() {
        let (vt, shared) = populated();
        let (bytes, _) = shared.snapshot_bytes(7, &[], None);
        let snap = decode_snapshot(&bytes).unwrap();
        // The populated store uses 6 variables (ids 0..=5).
        snap.verify_variables(vt.len()).unwrap();
        assert!(matches!(
            snap.verify_variables(3),
            Err(PersistError::Format(ref m)) if m.contains("variable")
        ));
        assert!(snap.verify_variables(0).is_err());
    }

    #[test]
    fn restore_honours_target_lru_bounds() {
        let (_vt, shared) = populated();
        let (bytes, _) = shared.snapshot_bytes(7, &[], None);
        let snap = decode_snapshot(&bytes).unwrap();
        let bounded = SharedArtifacts::new(CacheConfig {
            max_entries: 1,
            max_bytes: usize::MAX,
        });
        bounded.restore_snapshot(&snap, 7).unwrap();
        assert!(bounded.semiring_entries() <= 1);
        assert!(bounded.counters().evictions > 0);
    }

    #[test]
    fn empty_store_roundtrips() {
        let interner = Interner::new();
        let cache = CompilationCache::default();
        let bytes = encode_snapshot(&interner, &cache, 0, &[], None);
        let snap = decode_snapshot(&bytes).unwrap();
        let mut interner2 = Interner::new();
        let mut cache2 = CompilationCache::default();
        let stats = snap.restore_into(&mut interner2, &mut cache2).unwrap();
        assert_eq!(stats, RestoreStats::default());
        assert!(interner2.is_empty());
    }
}
