//! pvc-tables: relations whose tuples carry a semiring annotation and may hold
//! semimodule expressions as values (§3, Definition 6 of the paper).

use crate::schema::Schema;
use crate::value::Value;
use pvc_expr::{SemiringExpr, VarTable};
use std::fmt;

/// One tuple of a pvc-table: the cell values plus the annotation `Φ`.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuple {
    /// Cell values, aligned with the table's schema.
    pub values: Vec<Value>,
    /// The annotation — a semiring expression over the database's random variables.
    pub annotation: SemiringExpr,
}

impl Tuple {
    /// Create a tuple.
    pub fn new(values: Vec<Value>, annotation: SemiringExpr) -> Self {
        Tuple { values, annotation }
    }
}

/// A pvc-table: a schema plus annotated tuples.
#[derive(Debug, Clone, PartialEq)]
pub struct PvcTable {
    /// Table name (used by queries to reference base relations).
    pub name: String,
    /// The schema (the annotation column is implicit).
    pub schema: Schema,
    /// The annotated tuples.
    pub tuples: Vec<Tuple>,
}

impl PvcTable {
    /// An empty table with the given name and schema.
    pub fn new(name: impl Into<String>, schema: Schema) -> Self {
        PvcTable {
            name: name.into(),
            schema,
            tuples: Vec::new(),
        }
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True if the table has no tuples.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Append a tuple with an explicit annotation, reporting an arity mismatch
    /// against the schema instead of panicking.
    pub fn try_push(&mut self, values: Vec<Value>, annotation: SemiringExpr) -> Result<(), String> {
        if values.len() != self.schema.arity() {
            return Err(format!(
                "tuple arity {} does not match schema {} of table {}",
                values.len(),
                self.schema,
                self.name
            ));
        }
        self.tuples.push(Tuple::new(values, annotation));
        Ok(())
    }

    /// Append a tuple annotated with a *fresh* Boolean random variable with
    /// probability `p` — the tuple-independent table construction used throughout the
    /// paper's experiments. Returns the created variable's expression.
    pub fn push_independent(
        &mut self,
        values: Vec<Value>,
        p: f64,
        vars: &mut VarTable,
    ) -> SemiringExpr {
        let label = format!("{}#{}", self.name, self.tuples.len());
        let var = vars.boolean(label, p);
        let annotation = SemiringExpr::Var(var);
        if let Err(message) = self.try_push(values, annotation.clone()) {
            panic!("{message}");
        }
        annotation
    }

    /// Append a deterministic tuple (annotation `1_S` in the Boolean semiring).
    pub fn push_certain(&mut self, values: Vec<Value>) {
        let annotation = SemiringExpr::Const(pvc_algebra::SemiringValue::Bool(true));
        if let Err(message) = self.try_push(values, annotation) {
            panic!("{message}");
        }
    }

    /// The value of a named column in a given tuple, or `None` if the row is out of
    /// range or the column does not exist.
    pub fn try_value(&self, row: usize, column: &str) -> Option<&Value> {
        let idx = self.schema.index_of(column)?;
        self.tuples.get(row).map(|t| &t.values[idx])
    }

    /// Iterate over the tuples.
    pub fn iter(&self) -> impl Iterator<Item = &Tuple> {
        self.tuples.iter()
    }

    /// True if every tuple value is a constant (no semimodule expressions) and every
    /// annotation is a single, distinct variable — the *tuple-independent* property
    /// required by the tractability results of §6.
    ///
    /// Variables in strictly increasing order — what [`push_independent`] produces —
    /// are distinct without being remembered; any other order is checked by sorting.
    ///
    /// [`push_independent`]: Self::push_independent
    pub fn is_tuple_independent(&self) -> bool {
        let variable = |t: &Tuple| match &t.annotation {
            SemiringExpr::Var(v) if t.values.iter().all(Value::is_constant) => Some(*v),
            _ => None,
        };
        let mut increasing = true;
        let mut previous = None;
        for tuple in &self.tuples {
            let Some(var) = variable(tuple) else {
                return false;
            };
            increasing &= previous < Some(var);
            previous = Some(var);
        }
        if increasing {
            return true;
        }
        let mut vars: Vec<_> = self.tuples.iter().filter_map(variable).collect();
        vars.sort_unstable();
        vars.windows(2).all(|pair| pair[0] != pair[1])
    }

    /// Render the table as an aligned text grid (annotation column included), for
    /// examples and debugging.
    pub fn render(&self) -> String {
        let mut header: Vec<String> = self
            .schema
            .columns()
            .iter()
            .map(|c| c.name.clone())
            .collect();
        header.push("Φ".to_string());
        let mut rows: Vec<Vec<String>> = vec![header];
        for t in &self.tuples {
            let mut row: Vec<String> = t.values.iter().map(|v| v.to_string()).collect();
            row.push(t.annotation.to_string());
            rows.push(row);
        }
        let widths: Vec<usize> = (0..rows[0].len())
            .map(|i| rows.iter().map(|r| r[i].chars().count()).max().unwrap_or(0))
            .collect();
        let mut out = String::new();
        for (ri, row) in rows.iter().enumerate() {
            for (value, width) in row.iter().zip(&widths) {
                out.push_str(value);
                out.push_str(&" ".repeat(width - value.chars().count() + 2));
            }
            out.push('\n');
            if ri == 0 {
                out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * widths.len()));
                out.push('\n');
            }
        }
        out
    }
}

impl fmt::Display for PvcTable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} {}", self.name, self.schema)?;
        write!(f, "{}", self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pvc_algebra::SemiringValue;

    #[test]
    fn push_and_lookup() {
        let mut vars = VarTable::new();
        let mut t = PvcTable::new("S", Schema::new(["sid", "shop"]));
        t.push_independent(vec![1i64.into(), "M&S".into()], 0.5, &mut vars);
        t.push_independent(vec![2i64.into(), "Gap".into()], 0.7, &mut vars);
        assert_eq!(t.len(), 2);
        assert_eq!(t.try_value(0, "shop").and_then(Value::as_str), Some("M&S"));
        assert_eq!(t.try_value(1, "sid").and_then(Value::as_int), Some(2));
        assert_eq!(t.try_value(2, "sid"), None);
        assert_eq!(t.try_value(0, "nope"), None);
        assert!(t.is_tuple_independent());
        assert_eq!(vars.len(), 2);
    }

    #[test]
    fn certain_tuples_are_not_tuple_independent() {
        let mut t = PvcTable::new("R", Schema::new(["a"]));
        t.push_certain(vec![1i64.into()]);
        assert!(!t.is_tuple_independent());
    }

    #[test]
    fn repeated_variable_breaks_tuple_independence() {
        let mut vars = VarTable::new();
        let x = vars.boolean("x", 0.5);
        let mut t = PvcTable::new("R", Schema::new(["a"]));
        t.try_push(vec![1i64.into()], SemiringExpr::Var(x)).unwrap();
        t.try_push(vec![2i64.into()], SemiringExpr::Var(x)).unwrap();
        assert!(!t.is_tuple_independent());
    }

    #[test]
    fn variables_out_of_order_are_still_tuple_independent() {
        let mut vars = VarTable::new();
        let [x, y, z] = ["x", "y", "z"].map(|name| vars.boolean(name, 0.5));
        let mut t = PvcTable::new("R", Schema::new(["a"]));
        for (a, var) in [(1i64, y), (2, z), (3, x)] {
            t.try_push(vec![a.into()], SemiringExpr::Var(var)).unwrap();
        }
        assert!(t.is_tuple_independent());
    }

    #[test]
    fn a_repeat_found_only_after_sorting_breaks_tuple_independence() {
        let mut vars = VarTable::new();
        let [x, y, z] = ["x", "y", "z"].map(|name| vars.boolean(name, 0.5));
        let mut t = PvcTable::new("R", Schema::new(["a"]));
        // No two neighbours are equal; `y` repeats two rows apart.
        for (a, var) in [(1i64, y), (2, z), (3, y), (4, x)] {
            t.try_push(vec![a.into()], SemiringExpr::Var(var)).unwrap();
        }
        assert!(!t.is_tuple_independent());
        // A value that is not a constant still disqualifies a table whose
        // variables are out of order.
        let mut t = PvcTable::new("R", Schema::new(["a"]));
        t.try_push(vec![1i64.into()], SemiringExpr::Var(z)).unwrap();
        let agg = pvc_expr::SemimoduleExpr::zero(pvc_algebra::AggOp::Min);
        t.try_push(vec![agg.into()], SemiringExpr::Var(x)).unwrap();
        assert!(!t.is_tuple_independent());
    }

    #[test]
    fn try_push_reports_arity_mismatches() {
        let mut t = PvcTable::new("R", Schema::new(["a", "b"]));
        let err = t
            .try_push(
                vec![1i64.into()],
                SemiringExpr::Const(SemiringValue::Bool(true)),
            )
            .unwrap_err();
        assert!(err.contains("arity 1"), "unexpected message: {err}");
        assert!(t.is_empty());
    }

    #[test]
    fn render_contains_values_and_annotations() {
        let mut vars = VarTable::new();
        let mut t = PvcTable::new("S", Schema::new(["sid", "shop"]));
        t.push_independent(vec![1i64.into(), "M&S".into()], 0.5, &mut vars);
        let rendered = t.render();
        assert!(rendered.contains("shop"));
        assert!(rendered.contains("M&S"));
        assert!(rendered.contains("Φ"));
    }
}
