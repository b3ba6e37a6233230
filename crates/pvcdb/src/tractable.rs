//! Syntactic tractability analysis: the query classes `Q_ind` and `Q_hie` of §6 of the
//! paper, built around the *hierarchical* property of non-repeating
//! select–project–join queries.
//!
//! For a query `π_{A̅} σ_φ (Q_1 × … × Q_n)` and an attribute `A`, let `A*` be the set
//! of attributes transitively equated with `A` by `φ` and `at(A*)` the set of relation
//! occurrences containing an attribute from `A*`. The query is **hierarchical** if for
//! every two attributes `A`, `B` that are neither in the head `A̅` nor equated with a
//! constant, `at(A*)` and `at(B*)` are disjoint or one contains the other.
//!
//! Hierarchical non-repeating queries over tuple-independent tables are tractable
//! (their provenance is read-once); the classes of Definition 8/9 extend this to
//! aggregation. The analysis below conservatively classifies a query: `General` only
//! means that tractability could not be established syntactically, not that the
//! instance is hard — the compiler still often succeeds quickly.

use crate::database::Database;
use crate::query::{Predicate, Query};
use pvc_expr::independence::UnionFind;
use std::collections::{BTreeMap, BTreeSet};

/// The tractability class assigned to a query by the syntactic analysis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// The query produces pairwise independent result tuples (Definition 8).
    Qind,
    /// The query is in the tractable class `Q_hie` (Definition 9).
    Qhie,
    /// Tractability could not be established syntactically.
    General,
}

/// A flattened select–project–join block: the leaves (base relations), the equality
/// atoms of the selection, the constant bindings, and the head attributes.
#[derive(Debug, Clone, Default)]
pub struct SpjBlock {
    /// Relation occurrences: `(occurrence index, table name, columns)`.
    pub relations: Vec<(String, Vec<String>)>,
    /// Column-to-column equalities from selections / joins.
    pub equalities: Vec<(String, String)>,
    /// Columns equated with a constant.
    pub constant_columns: BTreeSet<String>,
    /// The head (projection) attributes. `None` means "project everything".
    pub head: Option<Vec<String>>,
}

impl SpjBlock {
    /// Which relation occurrence (by index) owns each column.
    fn column_owner(&self) -> BTreeMap<String, usize> {
        let mut owner = BTreeMap::new();
        for (idx, (_, cols)) in self.relations.iter().enumerate() {
            for c in cols {
                owner.insert(c.clone(), idx);
            }
        }
        owner
    }

    /// The attribute equivalence classes induced by the equality atoms, as a map from
    /// column name to class representative.
    fn equivalence_classes(&self) -> BTreeMap<String, usize> {
        let mut columns: Vec<String> = self.column_owner().keys().cloned().collect();
        columns.sort();
        let index: BTreeMap<&str, usize> = columns
            .iter()
            .enumerate()
            .map(|(i, c)| (c.as_str(), i))
            .collect();
        let mut uf = UnionFind::new(columns.len());
        for (a, b) in &self.equalities {
            if let (Some(&ia), Some(&ib)) = (index.get(a.as_str()), index.get(b.as_str())) {
                uf.union(ia, ib);
            }
        }
        columns
            .iter()
            .map(|c| (c.clone(), uf.find(index[c.as_str()])))
            .collect()
    }

    /// Check the hierarchical property.
    pub fn is_hierarchical(&self) -> bool {
        let owner = self.column_owner();
        let classes = self.equivalence_classes();
        let head: BTreeSet<&String> = self.head.iter().flatten().collect();

        // Head attributes and constant-bound attributes are exempt, and so is every
        // attribute in their equivalence class reachable through the head/constant —
        // per the definition we exempt classes containing a head or constant column.
        let mut exempt_classes: BTreeSet<usize> = BTreeSet::new();
        for (col, class) in &classes {
            if head.contains(col) || self.constant_columns.contains(col) {
                exempt_classes.insert(*class);
            }
        }

        // at(A*): the set of relation occurrences containing an attribute of the class.
        let mut at: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for (col, class) in &classes {
            if exempt_classes.contains(class) {
                continue;
            }
            if let Some(rel) = owner.get(col) {
                at.entry(*class).or_default().insert(*rel);
            }
        }

        let sets: Vec<&BTreeSet<usize>> = at.values().collect();
        for i in 0..sets.len() {
            for j in (i + 1)..sets.len() {
                let (a, b) = (sets[i], sets[j]);
                let disjoint = a.is_disjoint(b);
                let nested = a.is_subset(b) || b.is_subset(a);
                if !disjoint && !nested {
                    return false;
                }
            }
        }
        true
    }

    /// True if every head attribute is a *root* attribute: its equivalence class has
    /// an attribute in every relation occurrence.
    pub fn head_attributes_are_roots(&self) -> bool {
        let owner = self.column_owner();
        let classes = self.equivalence_classes();
        let n = self.relations.len();
        let Some(head) = &self.head else {
            return true;
        };
        // at over all classes, including head classes.
        let mut at: BTreeMap<usize, BTreeSet<usize>> = BTreeMap::new();
        for (col, class) in &classes {
            if let Some(rel) = owner.get(col) {
                at.entry(*class).or_default().insert(*rel);
            }
        }
        head.iter().all(|col| {
            classes
                .get(col)
                .and_then(|class| at.get(class))
                .map(|rels| rels.len() == n)
                .unwrap_or(false)
        })
    }
}

/// Flatten a query into an [`SpjBlock`] if it is a select–project–join (with renames)
/// over base tables. Returns `None` for queries containing union or aggregation.
pub fn flatten_spj(query: &Query, db: &Database) -> Option<SpjBlock> {
    let mut block = SpjBlock::default();
    collect_spj(query, db, &mut block, &mut Vec::new())?;
    Some(block)
}

fn collect_spj(
    query: &Query,
    db: &Database,
    block: &mut SpjBlock,
    renames: &mut Vec<(String, String)>,
) -> Option<()> {
    match query {
        Query::Table(name) => {
            let table = db.table(name)?;
            let mut cols: Vec<String> = table
                .schema
                .names()
                .into_iter()
                .map(str::to_string)
                .collect();
            // Apply any renames collected on the way down.
            for (old, new) in renames.iter() {
                for c in cols.iter_mut() {
                    if c == old {
                        *c = new.clone();
                    }
                }
            }
            block.relations.push((name.clone(), cols));
            Some(())
        }
        Query::Rename(mapping, input) => {
            let mut inner_renames = renames.clone();
            inner_renames.extend(mapping.iter().cloned());
            collect_spj(input, db, block, &mut inner_renames)
        }
        Query::Product(a, b) => {
            collect_spj(a, db, block, renames)?;
            collect_spj(b, db, block, renames)
        }
        Query::Select(pred, input) => {
            collect_predicate(pred, block)?;
            collect_spj(input, db, block, renames)
        }
        Query::Project(cols, input) => {
            // Only the outermost projection defines the head.
            if block.head.is_none() {
                block.head = Some(cols.clone());
            }
            collect_spj(input, db, block, renames)
        }
        Query::Union(..) | Query::GroupAgg { .. } => None,
    }
}

fn collect_predicate(pred: &Predicate, block: &mut SpjBlock) -> Option<()> {
    match pred {
        Predicate::ColEqCol(a, b) => {
            block.equalities.push((a.clone(), b.clone()));
            Some(())
        }
        Predicate::ColCmpConst(a, _, _) => {
            block.constant_columns.insert(a.clone());
            Some(())
        }
        Predicate::And(ps) => {
            for p in ps {
                collect_predicate(p, block)?;
            }
            Some(())
        }
        // Predicates over aggregation attributes cannot occur inside an SPJ block.
        Predicate::AggCmpConst(..) | Predicate::AggCmpAgg(..) | Predicate::AggCmpCol(..) => None,
    }
}

/// Classify a query into `Q_ind` / `Q_hie` / `General` (Definitions 8 and 9).
pub fn classify(query: &Query, db: &Database) -> QueryClass {
    if !query.is_non_repeating() {
        return QueryClass::General;
    }
    // Base case: a tuple-independent base relation is in Q_ind.
    if let Query::Table(name) = query {
        if db.is_table_tuple_independent(name) {
            return QueryClass::Qind;
        }
        return QueryClass::General;
    }
    // Hierarchical SPJ over base tables (Definition 9.2 / 8.2b).
    if let Some(block) = flatten_spj(query, db) {
        if block.is_hierarchical() {
            return if block.head_attributes_are_roots() {
                QueryClass::Qind
            } else {
                QueryClass::Qhie
            };
        }
        return QueryClass::General;
    }
    // Aggregation over a hierarchical SPJ block, optionally followed by projection on
    // the group-by attributes and selections on the aggregate (Definitions 8.2a, 9.1).
    match query {
        Query::Project(cols, inner) => {
            // π over a query whose result columns include aggregation attributes is
            // still tractable if the inner query is; the projection only sums
            // annotations of independent tuples.
            let class = classify(inner, db);
            if class == QueryClass::General {
                return QueryClass::General;
            }
            let _ = cols;
            class
        }
        Query::Select(pred, inner) => {
            // Selections comparing an aggregate with a constant keep the class
            // (Definition 8.2a); comparisons between two aggregates require both to be
            // over independent inputs (8.2c) — approximated by requiring Qind.
            let class = classify(inner, db);
            match pred {
                Predicate::AggCmpConst(..)
                | Predicate::ColCmpConst(..)
                | Predicate::ColEqCol(..) => class,
                Predicate::AggCmpAgg(..) | Predicate::AggCmpCol(..) => {
                    if class == QueryClass::Qind {
                        QueryClass::Qind
                    } else {
                        QueryClass::General
                    }
                }
                Predicate::And(_) => class,
            }
        }
        Query::GroupAgg {
            group_by, input, ..
        } => {
            // $_{A̅; γ←AGG(C)}[σ_ψ(Q1 × … × Qn)] with the underlying π_{A̅}σ_ψ(…)
            // hierarchical is in Q_hie (Definition 9.1).
            let mut probe = (**input).clone();
            probe = Query::Project(group_by.clone(), Box::new(probe));
            if let Some(block) = flatten_spj(&probe, db) {
                if block.is_hierarchical() {
                    if group_by.is_empty() {
                        // Aggregation without grouping over a hierarchical block
                        // (the Ré–Suciu HAVING-style queries) yields a single tuple.
                        return QueryClass::Qind;
                    }
                    return QueryClass::Qhie;
                }
                return QueryClass::General;
            }
            // Aggregation over a Q_ind sub-query (Definition 8.2a).
            match classify(input, db) {
                QueryClass::Qind => QueryClass::Qind,
                _ => QueryClass::General,
            }
        }
        Query::Union(a, b) => {
            // A union of independent tractable queries over disjoint relations stays
            // tractable; conservatively require both operands to be classified.
            let (ca, cb) = (classify(a, db), classify(b, db));
            if ca != QueryClass::General && cb != QueryClass::General {
                QueryClass::Qhie
            } else {
                QueryClass::General
            }
        }
        _ => QueryClass::General,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::AggSpec;
    use crate::schema::Schema;
    use pvc_algebra::AggOp;

    fn db_rst() -> Database {
        let mut db = Database::new();
        db.create_table("R", Schema::new(["r_x"]));
        db.create_table("S", Schema::new(["s_x", "s_y"]));
        db.create_table("T", Schema::new(["t_y"]));
        for name in ["R", "S", "T"] {
            let (t, vars) = db.table_and_vars_mut(name).unwrap();
            let arity = t.schema.arity();
            t.push_independent(vec![1i64.into(); arity], 0.5, vars);
        }
        db
    }

    #[test]
    fn hierarchical_two_way_join() {
        // π_∅ σ_{r_x = s_x}(R × S) is hierarchical.
        let db = db_rst();
        let q = Query::table("R")
            .join(Query::table("S"), &[("r_x", "s_x")])
            .project(Vec::<String>::new());
        let block = flatten_spj(&q, &db).unwrap();
        assert!(block.is_hierarchical());
        // An empty head is vacuously made of root attributes (Definition 8.2b), so the
        // Boolean hierarchical query lands in Q_ind (⊂ Q_hie).
        assert_eq!(classify(&q, &db), QueryClass::Qind);
    }

    #[test]
    fn non_hierarchical_rst_pattern() {
        // π_∅ σ_{r_x = s_x ∧ s_y = t_y}(R × S × T): the classic non-hierarchical
        // (hard) pattern — at(x*) = {R,S} and at(y*) = {S,T} overlap without nesting.
        let db = db_rst();
        let q = Query::table("R")
            .product(Query::table("S"))
            .product(Query::table("T"))
            .select(Predicate::And(vec![
                Predicate::eq_col("r_x", "s_x"),
                Predicate::eq_col("s_y", "t_y"),
            ]))
            .project(Vec::<String>::new());
        let block = flatten_spj(&q, &db).unwrap();
        assert!(!block.is_hierarchical());
        assert_eq!(classify(&q, &db), QueryClass::General);
    }

    #[test]
    fn head_variables_make_queries_independent() {
        // π_{s_x} σ_{r_x = s_x}(R × S): the head attribute is a root attribute, so the
        // result tuples are independent.
        let db = db_rst();
        let q = Query::table("R")
            .join(Query::table("S"), &[("r_x", "s_x")])
            .project(["s_x"]);
        assert_eq!(classify(&q, &db), QueryClass::Qind);
    }

    #[test]
    fn base_tables_and_repeats() {
        let db = db_rst();
        assert_eq!(classify(&Query::table("R"), &db), QueryClass::Qind);
        let repeated = Query::table("R").product(Query::table("R").rename(&[("r_x", "r_x2")]));
        assert_eq!(classify(&repeated, &db), QueryClass::General);
    }

    #[test]
    fn aggregation_over_hierarchical_join_is_qhie() {
        // Example 14: $_{∅; α←SUM(price)}(σ_{shop='M&S'}(S) ⋈ PS).
        let db = crate::exec::tests::figure1_db();
        let q = Query::table("S")
            .select(Predicate::eq_const("shop", "M&S"))
            .join(Query::table("PS"), &[("sid", "ps_sid")])
            .group_agg(
                Vec::<String>::new(),
                vec![AggSpec::new(AggOp::Sum, "price", "alpha")],
            );
        assert_eq!(classify(&q, &db), QueryClass::Qind);
        // Grouped variant is Q_hie.
        let q = Query::table("S")
            .join(Query::table("PS"), &[("sid", "ps_sid")])
            .group_agg(["shop"], vec![AggSpec::new(AggOp::Max, "price", "P")]);
        assert_eq!(classify(&q, &db), QueryClass::Qhie);
    }

    #[test]
    fn selection_on_aggregate_keeps_class() {
        let db = crate::exec::tests::figure1_db();
        let q = Query::table("PS")
            .group_agg(["ps_sid"], vec![AggSpec::new(AggOp::Min, "price", "m")])
            .select(Predicate::AggCmpConst(
                "m".into(),
                pvc_algebra::CmpOp::Le,
                20,
            ));
        assert_ne!(classify(&q, &db), QueryClass::General);
    }

    #[test]
    fn constants_are_exempt_from_hierarchy() {
        // σ_{s_y = 3 ∧ r_x = s_x}(R × S) projected to ∅: y is bound to a constant and
        // does not break the hierarchy.
        let db = db_rst();
        let q = Query::table("R")
            .product(Query::table("S"))
            .select(Predicate::And(vec![
                Predicate::eq_col("r_x", "s_x"),
                Predicate::eq_const("s_y", 3i64),
            ]))
            .project(Vec::<String>::new());
        let block = flatten_spj(&q, &db).unwrap();
        assert!(block.is_hierarchical());
    }
}
