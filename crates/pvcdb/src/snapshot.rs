//! The engine's half of the compile-artifact snapshot format: the **database
//! fingerprint** that gates loading, and the codec for the step-I **rewrite
//! cache** (the `⟦·⟧` result tables keyed by [`Query::structural_key`]), which
//! rides in the snapshot's opaque *extra* section.
//!
//! The artifact sections themselves (interned expressions, cached distributions
//! and compiled d-tree arenas) are handled by [`pvc_core::persist`]; this module
//! only adds what `pvc-core` cannot know about: relational tables. See
//! `docs/SNAPSHOT_FORMAT.md` for the full layout and the compatibility policy,
//! and [`Engine::save_artifacts`](crate::Engine::save_artifacts) /
//! [`Engine::with_artifacts_from`](crate::Engine::with_artifacts_from) for the
//! public API.
//!
//! [`Query::structural_key`]: crate::Query::structural_key

use crate::database::Database;
use crate::relation::PvcTable;
use crate::schema::{Column, Schema};
use crate::value::Value;
use pvc_core::persist::{
    put_agg_op, put_cmp_op, put_monoid_value, put_semiring_value, take_agg_op, take_cmp_op,
    take_monoid_value, take_semiring_value, PersistError, Reader, Writer,
};
use pvc_expr::{SemimoduleExpr, SemiringExpr, SmTerm, Var};
use std::collections::BTreeMap;
use std::sync::Arc;

// ---------------------------------------------------------------------------
// Expression trees (owned, not interned — the rewrite tables store real trees)
// ---------------------------------------------------------------------------

const EXPR_VAR: u8 = 0;
const EXPR_CONST: u8 = 1;
const EXPR_ADD: u8 = 2;
const EXPR_MUL: u8 = 3;
const EXPR_CMP_SS: u8 = 4;
const EXPR_CMP_MM: u8 = 5;

/// The deepest expression the decoders accept, in nesting levels: a variable
/// or a constant is one level, and each `+`, `·`, comparison and semimodule
/// adds one. Step I builds at most 7 for any query of the workspace's tests.
/// The decoders recurse once per level, and a debug build exhausts a 2 MB
/// thread's stack near 2 000 of them, so a deeper expression — which only
/// damaged or crafted bytes hold — is refused as malformed instead.
const MAX_EXPR_DEPTH: usize = 256;

fn put_semiring_expr(w: &mut Writer, expr: &SemiringExpr) {
    match expr {
        SemiringExpr::Var(v) => {
            w.put_u8(EXPR_VAR);
            w.put_u32(v.0);
        }
        SemiringExpr::Const(c) => {
            w.put_u8(EXPR_CONST);
            put_semiring_value(w, c);
        }
        SemiringExpr::Add(children) => {
            w.put_u8(EXPR_ADD);
            w.put_u64(children.len() as u64);
            for c in children {
                put_semiring_expr(w, c);
            }
        }
        SemiringExpr::Mul(children) => {
            w.put_u8(EXPR_MUL);
            w.put_u64(children.len() as u64);
            for c in children {
                put_semiring_expr(w, c);
            }
        }
        SemiringExpr::CmpSS(op, a, b) => {
            w.put_u8(EXPR_CMP_SS);
            put_cmp_op(w, *op);
            put_semiring_expr(w, a);
            put_semiring_expr(w, b);
        }
        SemiringExpr::CmpMM(op, a, b) => {
            w.put_u8(EXPR_CMP_MM);
            put_cmp_op(w, *op);
            put_semimodule_expr(w, a);
            put_semimodule_expr(w, b);
        }
    }
}

/// Decode an expression at nesting level `depth` (1 at the root).
fn take_semiring_expr(r: &mut Reader<'_>, depth: usize) -> Result<SemiringExpr, PersistError> {
    if depth > MAX_EXPR_DEPTH {
        return Err(PersistError::Format(format!(
            "expression nested deeper than {MAX_EXPR_DEPTH} levels"
        )));
    }
    Ok(match r.take_u8()? {
        EXPR_VAR => SemiringExpr::Var(Var(r.take_u32()?)),
        EXPR_CONST => SemiringExpr::Const(take_semiring_value(r)?),
        tag @ (EXPR_ADD | EXPR_MUL) => {
            let n = r.take_count(1)?;
            let mut children = Vec::with_capacity(n);
            for _ in 0..n {
                children.push(take_semiring_expr(r, depth + 1)?);
            }
            if tag == EXPR_ADD {
                SemiringExpr::Add(children)
            } else {
                SemiringExpr::Mul(children)
            }
        }
        EXPR_CMP_SS => {
            let op = take_cmp_op(r)?;
            let a = take_semiring_expr(r, depth + 1)?;
            let b = take_semiring_expr(r, depth + 1)?;
            SemiringExpr::CmpSS(op, Box::new(a), Box::new(b))
        }
        EXPR_CMP_MM => {
            let op = take_cmp_op(r)?;
            let a = take_semimodule_expr(r, depth + 1)?;
            let b = take_semimodule_expr(r, depth + 1)?;
            SemiringExpr::CmpMM(op, Box::new(a), Box::new(b))
        }
        t => {
            return Err(PersistError::Format(format!(
                "bad rewrite-expression tag {t}"
            )))
        }
    })
}

fn put_semimodule_expr(w: &mut Writer, expr: &SemimoduleExpr) {
    put_agg_op(w, expr.op);
    w.put_u64(expr.terms.len() as u64);
    for term in &expr.terms {
        put_semiring_expr(w, &term.coeff);
        put_monoid_value(w, &term.value);
    }
}

/// Decode a semimodule expression at nesting level `depth` (see
/// [`take_semiring_expr`]).
fn take_semimodule_expr(r: &mut Reader<'_>, depth: usize) -> Result<SemimoduleExpr, PersistError> {
    let op = take_agg_op(r)?;
    let n = r.take_count(2)?;
    let mut terms = Vec::with_capacity(n);
    for _ in 0..n {
        let coeff = take_semiring_expr(r, depth + 1)?;
        let value = take_monoid_value(r)?;
        terms.push(SmTerm::new(coeff, value));
    }
    Ok(SemimoduleExpr { op, terms })
}

// ---------------------------------------------------------------------------
// Tables
// ---------------------------------------------------------------------------

pub(crate) fn put_value(w: &mut Writer, value: &Value) {
    match value {
        Value::Str(s) => {
            w.put_u8(0);
            w.put_str(s);
        }
        Value::Int(i) => {
            w.put_u8(1);
            w.put_i64(*i);
        }
        Value::Agg(e) => {
            w.put_u8(2);
            put_semimodule_expr(w, e);
        }
    }
}

pub(crate) fn take_value(r: &mut Reader<'_>) -> Result<Value, PersistError> {
    Ok(match r.take_u8()? {
        0 => Value::Str(r.take_str()?.to_string()),
        1 => Value::Int(r.take_i64()?),
        2 => Value::Agg(take_semimodule_expr(r, 1)?),
        t => return Err(PersistError::Format(format!("bad cell-value tag {t}"))),
    })
}

fn put_table(w: &mut Writer, table: &PvcTable) {
    w.put_str(&table.name);
    let columns = table.schema.columns();
    w.put_u64(columns.len() as u64);
    for column in columns {
        w.put_str(&column.name);
        w.put_u8(column.is_aggregation as u8);
    }
    w.put_u64(table.tuples.len() as u64);
    for tuple in &table.tuples {
        for value in &tuple.values {
            put_value(w, value);
        }
        put_semiring_expr(w, &tuple.annotation);
    }
}

fn take_table(r: &mut Reader<'_>) -> Result<PvcTable, PersistError> {
    let name = r.take_str()?.to_string();
    let n_columns = r.take_count(2)?;
    let mut columns = Vec::with_capacity(n_columns);
    for _ in 0..n_columns {
        let column_name = r.take_str()?.to_string();
        columns.push(match r.take_u8()? {
            0 => Column::data(column_name),
            1 => Column::aggregation(column_name),
            t => return Err(PersistError::Format(format!("bad column tag {t}"))),
        });
    }
    let schema = Schema::from_columns(columns);
    let mut table = PvcTable::new(name, schema);
    let n_tuples = r.take_count(1)?;
    for _ in 0..n_tuples {
        let mut values = Vec::with_capacity(table.schema.arity());
        for _ in 0..table.schema.arity() {
            values.push(take_value(r)?);
        }
        let annotation = take_semiring_expr(r, 1)?;
        table
            .tuples
            .push(crate::relation::Tuple::new(values, annotation));
    }
    Ok(table)
}

// ---------------------------------------------------------------------------
// The rewrite-cache section (the snapshot's `extra` payload)
// ---------------------------------------------------------------------------

/// The serialized size of one rewrite table — the byte measure the bounded
/// rewrite cache charges per entry (exact for what a snapshot would write, and
/// a close proxy for in-memory footprint). Counted by the same calls that
/// would write it, with nothing written.
pub(crate) fn table_bytes(table: &PvcTable) -> usize {
    let mut w = Writer::counting();
    put_table(&mut w, table);
    w.len()
}

/// A step-I rewrite cache in snapshot form: structural key → (result table,
/// the base tables its rewriting read).
pub(crate) type RewriteMap = BTreeMap<Vec<u8>, (Arc<PvcTable>, Vec<String>)>;

/// Encode the step-I rewrite cache. The base-table list is what lets a
/// delta-aware loader keep rewrites whose inputs did not change and drop only
/// the rest.
pub(crate) fn encode_rewrites(rewrites: &RewriteMap) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(rewrites.len() as u64);
    for (key, (table, base_tables)) in rewrites {
        w.put_bytes(key);
        w.put_u64(base_tables.len() as u64);
        for base in base_tables {
            w.put_str(base);
        }
        put_table(&mut w, table);
    }
    w.into_bytes()
}

/// Decode a rewrite cache written by [`encode_rewrites`], refusing tables that
/// reference variables `>= var_count` (the checksum only protects against
/// accidents; an out-of-range variable would panic at evaluation time).
pub(crate) fn decode_rewrites(bytes: &[u8], var_count: usize) -> Result<RewriteMap, PersistError> {
    let mut r = Reader::new(bytes);
    let n = r.take_count(2)?;
    let mut out = BTreeMap::new();
    for _ in 0..n {
        let key = r.take_bytes()?.to_vec();
        let n_bases = r.take_count(8)?;
        let mut base_tables = Vec::with_capacity(n_bases);
        for _ in 0..n_bases {
            base_tables.push(r.take_str()?.to_string());
        }
        let table = take_table(&mut r)?;
        verify_table_variables(&table, var_count)?;
        out.insert(key, (Arc::new(table), base_tables));
    }
    if !r.is_empty() {
        return Err(PersistError::Format(format!(
            "{} trailing bytes after the rewrite section",
            r.remaining()
        )));
    }
    Ok(out)
}

/// Encode the engine's applied-delta **journal**: every delta applied since
/// the base database, with its WAL sequence number. Snapshots embed it so a
/// restart handed the *base* database (the normal crash-recovery setup —
/// tenant data is rebuilt by deterministic loading code, not persisted) can
/// re-derive the exact snapshotted state before fingerprint verification,
/// which is what makes WAL rotation after a snapshot safe: the snapshot, not
/// the truncated log, now carries those acknowledged deltas.
pub(crate) fn encode_journal(journal: &[(u64, crate::engine::Delta)]) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(journal.len() as u64);
    for (seq, delta) in journal {
        w.put_u64(*seq);
        w.put_bytes(&crate::wal::encode_delta(delta));
    }
    w.into_bytes()
}

/// Decode a journal written by [`encode_journal`].
pub(crate) fn decode_journal(
    bytes: &[u8],
) -> Result<Vec<(u64, crate::engine::Delta)>, PersistError> {
    let mut r = Reader::new(bytes);
    let count = r.take_u64()? as usize;
    let mut out = Vec::with_capacity(count.min(1024));
    for _ in 0..count {
        let seq = r.take_u64()?;
        let payload = r.take_bytes()?;
        out.push((seq, crate::wal::decode_delta(payload)?));
    }
    if !r.is_empty() {
        return Err(PersistError::Format(format!(
            "{} trailing bytes after the delta journal",
            r.remaining()
        )));
    }
    Ok(out)
}

/// Encode the engine's snapshot **extra section** (format v3): the WAL
/// sequence high-water mark — the last delta sequence number the snapshotted
/// state already contains, so replay-on-startup skips everything at or below
/// it — then the applied-delta journal (see [`encode_journal`]), then the
/// step-I rewrite cache.
pub(crate) fn encode_extra(
    wal_high_water: u64,
    journal: &[(u64, crate::engine::Delta)],
    rewrites: &RewriteMap,
) -> Vec<u8> {
    let mut w = Writer::new();
    w.put_u64(wal_high_water);
    w.put_bytes(&encode_journal(journal));
    w.put_bytes(&encode_rewrites(rewrites));
    w.into_bytes()
}

/// Decode an extra section written by [`encode_extra`]: the WAL high-water
/// mark, the raw journal bytes (pass them to [`decode_journal`]) and the raw
/// rewrite bytes (pass them to [`decode_rewrites`]).
pub(crate) fn decode_extra(extra: &[u8]) -> Result<(u64, &[u8], &[u8]), PersistError> {
    let mut r = Reader::new(extra);
    let hwm = r.take_u64()?;
    let journal = r.take_bytes()?;
    let rewrites = r.take_bytes()?;
    if !r.is_empty() {
        return Err(PersistError::Format(format!(
            "{} trailing bytes after the extra section",
            r.remaining()
        )));
    }
    Ok((hwm, journal, rewrites))
}

/// Refuse a restored rewrite table whose annotations or aggregate values
/// mention a variable the target database does not have.
fn verify_table_variables(table: &PvcTable, var_count: usize) -> Result<(), PersistError> {
    let check = |vars: pvc_expr::VarSet| -> Result<(), PersistError> {
        match vars.as_slice().last() {
            Some(v) if (v.0 as usize) >= var_count => Err(PersistError::Format(format!(
                "restored rewrite table references variable {v}, but the database has only \
                 {var_count} variables"
            ))),
            _ => Ok(()),
        }
    };
    for tuple in &table.tuples {
        check(tuple.annotation.vars())?;
        for value in &tuple.values {
            if let Value::Agg(agg) = value {
                for term in &agg.terms {
                    check(term.vars())?;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Database fingerprints (whole-database, per-table, per-partition)
// ---------------------------------------------------------------------------

/// Row-count granularity of partition fingerprints: a table's content is
/// digested as fixed-size row chunks whose digests are folded into the table's
/// fingerprint. Nothing caches a chunk's digest, so every
/// [`table_fingerprint`] call hashes every chunk again; the chunking only fixes
/// the fingerprint's value, which a saved snapshot's stays comparable to.
pub(crate) const PARTITION_ROWS: usize = 1024;

/// The set of variables a table's annotations and aggregate cell values
/// mention — the lineage footprint a delta to this table can possibly touch.
pub(crate) fn table_var_set(table: &PvcTable) -> pvc_expr::VarSet {
    let mut vars = pvc_expr::VarSet::new();
    for tuple in &table.tuples {
        vars = vars.union(&tuple.annotation.vars());
        for value in &tuple.values {
            if let Value::Agg(agg) = value {
                for term in &agg.terms {
                    vars = vars.union(&term.vars());
                }
            }
        }
    }
    vars
}

/// Digest of one fixed-size row partition: the tuples' values and annotations,
/// byte-exact.
fn partition_fingerprint(rows: &[crate::relation::Tuple]) -> u64 {
    let mut w = Writer::new();
    for tuple in rows {
        for value in &tuple.values {
            put_value(&mut w, value);
        }
        put_semiring_expr(&mut w, &tuple.annotation);
    }
    pvc_core::persist::fnv64(&w.into_bytes())
}

/// A stable 64-bit digest of everything artifacts over **one table** depend
/// on: its name and schema, its content (folded from [`PARTITION_ROWS`]-sized
/// partition digests) and the exact distribution bits of every variable the
/// table mentions. A `set_probability` on a referenced variable, an insert and
/// a delete all change the fingerprint; mutations of *other* tables (including
/// fresh variables they register) do not — the property the delta-aware
/// snapshot loader relies on to keep per-table artifacts selectively.
pub(crate) fn table_fingerprint(db: &Database, table: &PvcTable) -> u64 {
    let mut w = Writer::new();
    w.put_str(&table.name);
    let columns = table.schema.columns();
    w.put_u64(columns.len() as u64);
    for column in columns {
        w.put_str(&column.name);
        w.put_u8(column.is_aggregation as u8);
    }
    w.put_u64(table.tuples.len() as u64);
    for chunk in table.tuples.chunks(PARTITION_ROWS.max(1)) {
        w.put_u64(partition_fingerprint(chunk));
    }
    let vars = table_var_set(table);
    w.put_u64(vars.len() as u64);
    for v in vars.iter() {
        w.put_u32(v.0);
        if (v.0 as usize) < db.vars.len() {
            w.put_str(db.vars.name(v));
            let dist = db.vars.dist(v);
            w.put_u64(dist.support_size() as u64);
            for (value, p) in dist.iter() {
                put_semiring_value(&mut w, value);
                w.put_f64(p);
            }
        }
    }
    pvc_core::persist::fnv64(&w.into_bytes())
}

/// The per-table fingerprint vector of a database, in table-name order — the
/// refinement persisted in snapshots so a loader can pinpoint which tables
/// diverged.
pub(crate) fn database_table_fingerprints(db: &Database) -> Vec<(String, u64)> {
    db.table_names()
        .into_iter()
        .map(|name| {
            let table = db.table(name).expect("listed table exists");
            (name.to_string(), table_fingerprint(db, table))
        })
        .collect()
}

/// A stable 64-bit digest of everything the cached artifacts depend on,
/// composed from the annotation semiring and the per-table fingerprints (which
/// cover table contents and the distributions of every referenced variable).
/// A database rebuilt by the same deterministic loading code fingerprints
/// identically across processes; any content or probability change refuses (or,
/// with a partial per-table match, selectively invalidates) the snapshot.
pub(crate) fn database_fingerprint(db: &Database) -> u64 {
    let mut w = Writer::new();
    w.put_u8(match db.kind {
        pvc_algebra::SemiringKind::Bool => 0,
        pvc_algebra::SemiringKind::Nat => 1,
    });
    let tables = database_table_fingerprints(db);
    w.put_u64(tables.len() as u64);
    for (name, fp) in &tables {
        w.put_str(name);
        w.put_u64(*fp);
    }
    pvc_core::persist::fnv64(&w.into_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::{AggOp, CmpOp, MonoidValue, SemiringValue};
    use pvc_expr::VarTable;
    use pvc_prob::SeededRng;

    fn sample_table() -> PvcTable {
        let mut vars = VarTable::new();
        let mut table = PvcTable::new(
            "result",
            Schema::from_columns(vec![Column::data("shop"), Column::aggregation("total")]),
        );
        let x = vars.boolean("x", 0.5);
        let y = vars.boolean("y", 0.25);
        let agg = SemimoduleExpr::from_terms(
            AggOp::Sum,
            vec![
                (SemiringExpr::Var(x), MonoidValue::Fin(10)),
                (SemiringExpr::Var(y), MonoidValue::Fin(-3)),
            ],
        );
        let annotation = SemiringExpr::cmp_mm(
            CmpOp::Le,
            agg.clone(),
            SemimoduleExpr::constant(AggOp::Sum, MonoidValue::Fin(5)),
        ) * (SemiringExpr::Var(x)
            + SemiringExpr::Const(SemiringValue::Bool(false)));
        table
            .try_push(vec!["M&S".into(), agg.into()], annotation)
            .unwrap();
        // A group annotation `[x + y ≠ 0]` reaches the last expression tag.
        let present = SemiringExpr::cmp_ss(
            CmpOp::Ne,
            SemiringExpr::Var(x) + SemiringExpr::Var(y),
            SemiringExpr::Const(SemiringValue::Bool(false)),
        );
        let empty = SemimoduleExpr::from_terms(AggOp::Sum, Vec::new());
        table
            .try_push(vec!["Gap".into(), empty.into()], present)
            .unwrap();
        table
    }

    /// A rewrite cache of the sample table and an empty one.
    fn sample_rewrites() -> RewriteMap {
        let mut rewrites = BTreeMap::new();
        rewrites.insert(
            vec![1u8, 2, 3],
            (Arc::new(sample_table()), vec!["S".to_string()]),
        );
        rewrites.insert(
            vec![9u8],
            (
                Arc::new(PvcTable::new("empty", Schema::new(["a"]))),
                Vec::new(),
            ),
        );
        rewrites
    }

    /// A journal of one delta of each kind; the insert carries every cell tag.
    fn sample_journal() -> Vec<(u64, crate::engine::Delta)> {
        let agg = sample_table().tuples[0].values[1].clone();
        let values = vec!["M&S".into(), Value::Int(-4), agg];
        let delta = crate::engine::Delta::new()
            .insert("S", values, 0.25)
            .delete("S", 3)
            .set_probability("S", 1, 0.75);
        vec![(7, delta), (9, crate::engine::Delta::new())]
    }

    /// A decoder under fuzzing, its output dropped.
    type Decode = fn(&[u8]) -> Result<(), PersistError>;

    /// The engine's two codecs the fuzzers drive, each with a sample encoding
    /// and its decoder.
    fn codecs() -> [(&'static str, Vec<u8>, Decode); 2] {
        [
            ("rewrites", encode_rewrites(&sample_rewrites()), |bytes| {
                decode_rewrites(bytes, 2).map(drop)
            }),
            ("journal", encode_journal(&sample_journal()), |bytes| {
                decode_journal(bytes).map(drop)
            }),
        ]
    }

    /// Seeds of the random-bytes fuzzer: one fixed, plus `PVC_ORACLE_SEED`
    /// when it is set.
    fn fuzz_seeds() -> Vec<u64> {
        let mut seeds = vec![0x5eed_c0de];
        if let Ok(extra) = std::env::var("PVC_ORACLE_SEED") {
            seeds.push(extra.parse().expect("PVC_ORACLE_SEED must be a u64"));
        }
        seeds
    }

    #[test]
    fn fuzz_every_single_bit_flip_decodes_or_is_refused() {
        // The sections carry no checksum of their own (the snapshot's covers
        // them), so a flip in a value may decode to another value; whatever it
        // hits, the decoder answers or refuses, and never panics.
        for (name, bytes, decode) in codecs() {
            decode(&bytes).unwrap_or_else(|e| panic!("{name}: pristine bytes refused: {e}"));
            let mut refused = 0;
            for bit in 0..bytes.len() * 8 {
                let mut flipped = bytes.clone();
                flipped[bit / 8] ^= 1 << (bit % 8);
                refused += usize::from(decode(&flipped).is_err());
            }
            assert!(refused > 0, "{name}: no flip was refused");
        }
    }

    #[test]
    fn fuzz_every_truncation_is_refused() {
        for (name, bytes, decode) in codecs() {
            for cut in 0..bytes.len() {
                assert!(
                    matches!(decode(&bytes[..cut]), Err(PersistError::Format(_))),
                    "{name}: the first {cut} of {} bytes decoded",
                    bytes.len()
                );
            }
        }
    }

    #[test]
    fn fuzz_random_bytes_are_refused_without_panicking() {
        // Noise on its own, a valid prefix followed by noise, and valid bytes
        // with a few overwritten: every input decodes or is refused, none
        // panics, and noise on its own is always refused.
        for seed in fuzz_seeds() {
            let mut rng = SeededRng::seed_from_u64(seed);
            for (name, bytes, decode) in codecs() {
                for trial in 0..300 {
                    let len = rng.gen_range(0..512usize);
                    let noise: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    let refused = decode(&noise).is_err();
                    assert!(refused, "{name} seed {seed} trial {trial}: noise decoded");
                    let mut spliced = bytes[..rng.gen_range(0..bytes.len())].to_vec();
                    spliced.extend_from_slice(&noise[..len.min(64)]);
                    let _ = decode(&spliced);
                    let mut overwritten = bytes.clone();
                    for _ in 0..rng.gen_range(1..4usize) {
                        let at = rng.gen_range(0..bytes.len());
                        overwritten[at] = rng.next_u64() as u8;
                    }
                    let _ = decode(&overwritten);
                }
            }
        }
    }

    /// A rewrite section of one single-tuple table whose annotation is
    /// `levels` nested one-child sums over `x0`, and a journal of one insert
    /// whose aggregate cell has it as a coefficient (`levels + 1` deep), both
    /// written byte by byte: the encoder would recurse as deep as the decoder.
    fn nested(levels: usize) -> (Vec<u8>, Vec<u8>) {
        let expr = |w: &mut Writer| {
            for _ in 1..levels {
                w.put_u8(EXPR_ADD);
                w.put_u64(1);
            }
            w.put_u8(EXPR_VAR);
            w.put_u32(0);
        };
        let mut rewrites = Writer::new();
        rewrites.put_u64(1);
        rewrites.put_bytes(b"key");
        rewrites.put_u64(0);
        rewrites.put_str("result");
        rewrites.put_u64(0);
        rewrites.put_u64(1);
        expr(&mut rewrites);
        let mut delta = Writer::new();
        delta.put_u64(1);
        delta.put_str("S");
        delta.put_u8(0); // an insert
        delta.put_f64(0.5);
        delta.put_u64(1);
        delta.put_u8(2); // an aggregate cell
        put_agg_op(&mut delta, AggOp::Sum);
        delta.put_u64(1);
        expr(&mut delta);
        put_monoid_value(&mut delta, &MonoidValue::Fin(1));
        let mut journal = Writer::new();
        journal.put_u64(1);
        journal.put_u64(1);
        journal.put_bytes(&delta.into_bytes());
        (rewrites.into_bytes(), journal.into_bytes())
    }

    #[test]
    fn expressions_nested_past_the_bound_are_refused_on_a_small_stack() {
        // Decoded level by level without a bound, 10 000 levels (about 90 KB)
        // overflow a 2 MB thread's stack and abort the process, also in a
        // release build; the bound turns them into a typed error.
        let decoded = std::thread::Builder::new()
            .stack_size(2 << 20)
            .spawn(|| {
                let mut results = Vec::new();
                for levels in [MAX_EXPR_DEPTH - 1, MAX_EXPR_DEPTH, 10_000] {
                    let (rewrites, journal) = nested(levels);
                    if levels == 10_000 {
                        assert!((80_000..100_000).contains(&rewrites.len()));
                    }
                    let rewrites = decode_rewrites(&rewrites, 1).map(drop);
                    results.push((levels, rewrites, decode_journal(&journal).map(drop)));
                }
                results
            })
            .unwrap()
            .join()
            .unwrap();
        for (levels, rewrites, journal) in decoded {
            // The journal's coefficient sits one level below its aggregate.
            assert_eq!(rewrites.is_ok(), levels <= MAX_EXPR_DEPTH, "{levels}");
            assert_eq!(journal.is_ok(), levels < MAX_EXPR_DEPTH, "{levels}");
            for refused in [rewrites, journal].into_iter().filter_map(Result::err) {
                let PersistError::Format(message) = refused else {
                    panic!("{levels} levels: {refused}");
                };
                assert!(message.contains("deeper"), "{levels} levels: {message}");
            }
        }
    }

    #[test]
    fn rewrites_roundtrip_exactly() {
        let rewrites = sample_rewrites();
        let bytes = encode_rewrites(&rewrites);
        let back = decode_rewrites(&bytes, 2).unwrap();
        assert_eq!(back.len(), 2);
        for (key, (table, bases)) in &rewrites {
            assert_eq!(back[key].0.as_ref(), table.as_ref());
            assert_eq!(&back[key].1, bases);
        }
        // Truncation surfaces as a typed error, not a panic.
        assert!(decode_rewrites(&bytes[..bytes.len() - 3], 2).is_err());
        assert!(decode_rewrites(&[0xff; 4], 2).is_err());
        // Out-of-range variables are refused, not deferred to a panic later.
        let err = decode_rewrites(&bytes, 1).unwrap_err();
        assert!(matches!(err, PersistError::Format(ref m) if m.contains("variable")));
    }

    #[test]
    fn table_bytes_counts_what_put_table_writes() {
        use crate::exec::tests::{figure1_db, paper_q1};
        use crate::query::{AggSpec, Predicate};
        let db = figure1_db();
        let grouped = paper_q1().group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")]);
        let q2 = grouped
            .clone()
            .select(Predicate::AggCmpConst("P".into(), CmpOp::Le, 50))
            .project(["shop"]);
        let mut tables: Vec<PvcTable> = [paper_q1(), grouped, q2]
            .iter()
            .map(|query| crate::exec::rewrite_planned(&db, query).unwrap())
            .collect();
        tables.push(sample_table());
        tables.push(PvcTable::new("empty", Schema::new(["a"])));
        for table in &tables {
            let mut w = Writer::new();
            put_table(&mut w, table);
            let written = w.into_bytes().len();
            assert!(written > 0);
            assert_eq!(table_bytes(table), written, "{}", table.name);
        }
    }

    #[test]
    fn fingerprint_tracks_content() {
        let build = |p: f64, price: i64| {
            let mut db = Database::new();
            db.create_table("S", Schema::new(["sid", "price"]));
            let (s, vars) = db.table_and_vars_mut("S").unwrap();
            s.push_independent(vec![1i64.into(), price.into()], p, vars);
            db
        };
        assert_eq!(
            database_fingerprint(&build(0.5, 10)),
            database_fingerprint(&build(0.5, 10))
        );
        // A probability change and a data change both change the fingerprint.
        assert_ne!(
            database_fingerprint(&build(0.5, 10)),
            database_fingerprint(&build(0.6, 10))
        );
        assert_ne!(
            database_fingerprint(&build(0.5, 10)),
            database_fingerprint(&build(0.5, 11))
        );
    }

    #[test]
    fn table_fingerprints_are_independent_per_table() {
        // Two tables; mutating one leaves the other's fingerprint untouched even
        // though the variable table grows.
        let build = |s_rows: usize, ps_rows: usize, s_p: f64| {
            let mut db = Database::new();
            db.create_table("S", Schema::new(["sid"]));
            db.create_table("PS", Schema::new(["pid"]));
            {
                let (s, vars) = db.table_and_vars_mut("S").unwrap();
                for i in 0..s_rows {
                    s.push_independent(vec![(i as i64).into()], s_p, vars);
                }
            }
            {
                let (ps, vars) = db.table_and_vars_mut("PS").unwrap();
                for i in 0..ps_rows {
                    ps.push_independent(vec![(i as i64).into()], 0.5, vars);
                }
            }
            db
        };
        let base = build(2, 2, 0.3);
        let fp = |db: &Database, name: &str| table_fingerprint(db, db.table(name).unwrap());

        // Insert into S (in place, as a delta would — the fresh variable is
        // appended at the end): S's fingerprint changes, PS's does not.
        let mut more_s = base.clone();
        {
            let (s, vars) = more_s.table_and_vars_mut("S").unwrap();
            s.push_independent(vec![99i64.into()], 0.3, vars);
        }
        assert_ne!(fp(&base, "S"), fp(&more_s, "S"));
        assert_eq!(fp(&base, "PS"), fp(&more_s, "PS"));

        // Probability change in S: same story.
        let mut hotter_s = base.clone();
        let x = match &hotter_s.table("S").unwrap().tuples[0].annotation {
            SemiringExpr::Var(v) => *v,
            other => panic!("unexpected annotation {other:?}"),
        };
        hotter_s.vars.set_dist(x, pvc_prob::make::bernoulli(0.9));
        assert_ne!(fp(&base, "S"), fp(&hotter_s, "S"));
        assert_eq!(fp(&base, "PS"), fp(&hotter_s, "PS"));

        // The whole-database digest changes whenever any table's does.
        assert_ne!(database_fingerprint(&base), database_fingerprint(&more_s));
        assert_ne!(database_fingerprint(&base), database_fingerprint(&hotter_s));

        // The published vector refines the digest: one mismatched entry.
        let v_base = database_table_fingerprints(&base);
        let v_more = database_table_fingerprints(&more_s);
        assert_eq!(v_base.len(), 2);
        let diffs = v_base.iter().zip(&v_more).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn set_probability_via_vars_changes_referencing_table_only() {
        let mut db = Database::new();
        db.create_table("S", Schema::new(["sid"]));
        db.create_table("PS", Schema::new(["pid"]));
        let x = {
            let (s, vars) = db.table_and_vars_mut("S").unwrap();
            s.push_independent(vec![1i64.into()], 0.4, vars);
            match &s.tuples[0].annotation {
                SemiringExpr::Var(v) => *v,
                other => panic!("unexpected annotation {other:?}"),
            }
        };
        {
            let (ps, vars) = db.table_and_vars_mut("PS").unwrap();
            ps.push_independent(vec![7i64.into()], 0.6, vars);
        }
        let s_before = table_fingerprint(&db, db.table("S").unwrap());
        let ps_before = table_fingerprint(&db, db.table("PS").unwrap());
        db.vars.set_dist(x, pvc_prob::make::bernoulli(0.8));
        assert_ne!(s_before, table_fingerprint(&db, db.table("S").unwrap()));
        assert_eq!(ps_before, table_fingerprint(&db, db.table("PS").unwrap()));
    }

    #[test]
    fn partitions_digest_large_tables_chunkwise() {
        let build = |rows: usize, flip_last: bool| {
            let mut db = Database::new();
            db.create_table("big", Schema::new(["k"]));
            let (t, vars) = db.table_and_vars_mut("big").unwrap();
            for i in 0..rows {
                let key = if flip_last && i == rows - 1 {
                    -1
                } else {
                    i as i64
                };
                t.push_independent(vec![key.into()], 0.5, vars);
            }
            db
        };
        let rows = PARTITION_ROWS + 7;
        let a = build(rows, false);
        let b = build(rows, true);
        let fp = |db: &Database| table_fingerprint(db, db.table("big").unwrap());
        assert_eq!(fp(&a), fp(&build(rows, false)));
        assert_ne!(
            fp(&a),
            fp(&b),
            "a one-row change in the tail partition must show"
        );
    }
}
