use crate::{Column, Dictionary};
use pc_predicate::{AttrType, Predicate, Schema, Value};

/// An in-memory columnar table.
///
/// Each categorical attribute owns a [`Dictionary`]; other attributes have
/// a `None` slot so dictionaries index by attribute position.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    dicts: Vec<Option<Dictionary>>,
}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Self {
        let columns = (0..schema.width())
            .map(|i| Column::empty(schema.attr_type(i)))
            .collect();
        let dicts = (0..schema.width())
            .map(|i| {
                if schema.attr_type(i) == AttrType::Cat {
                    Some(Dictionary::new())
                } else {
                    None
                }
            })
            .collect();
        Table {
            schema,
            columns,
            dicts,
        }
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.columns.first().map_or(0, Column::len)
    }

    /// True if the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Append a fully-typed row.
    ///
    /// # Panics
    /// Panics if the row width or any value type disagrees with the schema.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.schema.width(), "row width mismatch");
        for (col, v) in self.columns.iter_mut().zip(&row) {
            col.push(v);
        }
    }

    /// Intern a categorical label for attribute `attr`, returning its code.
    ///
    /// # Panics
    /// Panics if `attr` is not categorical.
    pub fn intern(&mut self, attr: usize, label: &str) -> u32 {
        self.dicts[attr]
            .as_mut()
            .unwrap_or_else(|| {
                panic!(
                    "attribute {} is not categorical",
                    self.schema.attr_name(attr)
                )
            })
            .intern(label)
    }

    /// The dictionary of a categorical attribute, if any.
    pub fn dictionary(&self, attr: usize) -> Option<&Dictionary> {
        self.dicts[attr].as_ref()
    }

    /// Direct access to a column.
    pub fn column(&self, attr: usize) -> &Column {
        &self.columns[attr]
    }

    /// The encoded (`f64`) value at `(row, attr)`.
    #[inline]
    pub fn encoded(&self, row: usize, attr: usize) -> f64 {
        self.columns[attr].encoded(row)
    }

    /// Write the encoded row into `buf` (must have schema width).
    pub fn encode_row_into(&self, row: usize, buf: &mut [f64]) {
        for (attr, slot) in buf.iter_mut().enumerate() {
            *slot = self.encoded(row, attr);
        }
    }

    /// The encoded row as a fresh vector.
    pub fn encoded_row(&self, row: usize) -> Vec<f64> {
        (0..self.schema.width())
            .map(|a| self.encoded(row, a))
            .collect()
    }

    /// The typed row.
    pub fn row(&self, row: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.value(row)).collect()
    }

    /// Materialize a subset of rows as a new table (dictionaries are
    /// shared by clone so codes remain stable).
    pub fn select(&self, rows: &[usize]) -> Table {
        Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.gather(rows)).collect(),
            dicts: self.dicts.clone(),
        }
    }

    /// Split rows into `(matching, rest)` tables by a predicate over
    /// encoded values. Used by missing-data injectors: `matching` becomes
    /// the missing partition `R?`, `rest` the certain partition `R*`.
    pub fn partition_by(&self, pred: &Predicate) -> (Table, Table) {
        let mut hit = Vec::new();
        let mut miss = Vec::new();
        let mut buf = vec![0.0; self.schema.width()];
        for r in 0..self.len() {
            self.encode_row_into(r, &mut buf);
            if pred.eval(&buf) {
                hit.push(r);
            } else {
                miss.push(r);
            }
        }
        (self.select(&hit), self.select(&miss))
    }

    /// Split by explicit row indices into `(selected, rest)`.
    pub fn split_rows(&self, rows: &[usize]) -> (Table, Table) {
        let mut mark = vec![false; self.len()];
        for &r in rows {
            mark[r] = true;
        }
        let rest: Vec<usize> = (0..self.len()).filter(|&r| !mark[r]).collect();
        (self.select(rows), self.select(&rest))
    }

    /// The GROUP-BY keys of attribute `attr`, ascending: every dictionary
    /// code of a categorical attribute, else the distinct encoded values
    /// the rows hold, NaN dropped (the CSV loader rejects NaN, other
    /// frontends may not).
    pub fn group_keys(&self, attr: usize) -> Vec<f64> {
        if let Some(dict) = self.dictionary(attr) {
            return (0..dict.len()).map(|c| c as f64).collect();
        }
        let mut keys: Vec<f64> = (0..self.len())
            .map(|r| self.encoded(r, attr))
            .filter(|v| !v.is_nan())
            .collect();
        keys.sort_by(f64::total_cmp);
        keys.dedup();
        keys
    }

    /// How a GROUP-BY key of attribute `attr` prints: its dictionary
    /// label, or the number itself.
    pub fn key_label(&self, attr: usize, key: f64) -> String {
        self.dictionary(attr)
            .and_then(|d| d.label(key as u32))
            .map_or_else(|| key.to_string(), str::to_string)
    }

    /// Min and max encoded value of an attribute over all rows, or `None`
    /// for an empty table.
    pub fn attr_range(&self, attr: usize) -> Option<(f64, f64)> {
        if self.is_empty() {
            return None;
        }
        let mut lo = f64::INFINITY;
        let mut hi = f64::NEG_INFINITY;
        for r in 0..self.len() {
            let v = self.encoded(r, attr);
            lo = lo.min(v);
            hi = hi.max(v);
        }
        Some((lo, hi))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pc_predicate::Atom;

    fn sales() -> Table {
        let schema = Schema::new(vec![
            ("utc", AttrType::Int),
            ("branch", AttrType::Cat),
            ("price", AttrType::Float),
        ]);
        let mut t = Table::new(schema);
        let chi = t.intern(1, "Chicago");
        let ny = t.intern(1, "New York");
        t.push_row(vec![Value::Int(1), Value::Cat(chi), Value::Float(3.02)]);
        t.push_row(vec![Value::Int(2), Value::Cat(ny), Value::Float(6.71)]);
        t.push_row(vec![Value::Int(3), Value::Cat(chi), Value::Float(18.99)]);
        t
    }

    #[test]
    fn build_and_read() {
        let t = sales();
        assert_eq!(t.len(), 3);
        assert_eq!(t.encoded(2, 2), 18.99);
        assert_eq!(t.row(1)[1], Value::Cat(1));
        assert_eq!(t.dictionary(1).unwrap().label(0), Some("Chicago"));
    }

    #[test]
    fn encode_row_matches_columns() {
        let t = sales();
        assert_eq!(t.encoded_row(0), vec![1.0, 0.0, 3.02]);
    }

    #[test]
    fn partition_by_predicate() {
        let t = sales();
        let chicago = Predicate::atom(Atom::eq(1, 0.0));
        let (hit, rest) = t.partition_by(&chicago);
        assert_eq!(hit.len(), 2);
        assert_eq!(rest.len(), 1);
        assert_eq!(rest.encoded(0, 2), 6.71);
    }

    #[test]
    fn split_rows_partitions() {
        let t = sales();
        let (a, b) = t.split_rows(&[0, 2]);
        assert_eq!(a.len(), 2);
        assert_eq!(b.len(), 1);
        assert_eq!(a.encoded(1, 0), 3.0);
    }

    #[test]
    fn attr_range() {
        let t = sales();
        assert_eq!(t.attr_range(2), Some((3.02, 18.99)));
        let empty = Table::new(t.schema().clone());
        assert_eq!(empty.attr_range(0), None);
    }

    #[test]
    fn group_keys_are_distinct_ascending_and_labelled() {
        let mut t = sales();
        t.push_row(vec![Value::Int(1), Value::Cat(0), Value::Float(6.71)]);
        t.push_row(vec![Value::Int(-4), Value::Cat(1), Value::Float(-0.5)]);
        // categorical: every dictionary code, in code order
        assert_eq!(t.group_keys(1), vec![0.0, 1.0]);
        assert_eq!(t.key_label(1, 1.0), "New York");
        // numeric: duplicates merged, ascending
        assert_eq!(t.group_keys(0), vec![-4.0, 1.0, 2.0, 3.0]);
        assert_eq!(t.group_keys(2), vec![-0.5, 3.02, 6.71, 18.99]);
        assert_eq!(t.key_label(2, 6.71), "6.71");
        // `push_row` refuses NaN; a column built another way drops it
        t.columns[2] = Column::Float(vec![f64::NAN, 2.5, f64::NAN, 1.0, 2.5]);
        assert_eq!(t.group_keys(2), vec![1.0, 2.5]);
        assert!(Table::new(t.schema().clone()).group_keys(0).is_empty());
    }

    #[test]
    #[should_panic(expected = "row width mismatch")]
    fn wrong_width_rejected() {
        let mut t = sales();
        t.push_row(vec![Value::Int(1)]);
    }

    #[test]
    #[should_panic(expected = "not categorical")]
    fn intern_on_numeric_attr_panics() {
        let mut t = sales();
        t.intern(0, "oops");
    }
}
