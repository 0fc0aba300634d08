//! A relational table: a schema plus columnar data, with the missing-value
//! accounting the OEBench statistics pipeline needs (§4.3 of the paper).

use crate::column::Column;
use crate::schema::{FieldKind, Schema};

/// A column-oriented relational table.
#[derive(Debug, Clone, PartialEq)]
pub struct Table {
    schema: Schema,
    columns: Vec<Column>,
    n_rows: usize,
}

/// Missing-value statistics over a table (or one window of it), matching the
/// three ratios documented in §4.3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissingStats {
    /// Ratio of data items (rows) with at least one missing cell.
    pub rows_with_missing: f64,
    /// Ratio of columns that contain at least one missing cell.
    pub missing_columns: f64,
    /// Ratio of empty cells over all cells.
    pub empty_cells: f64,
}

impl Table {
    /// Creates a table from a schema and matching columns.
    ///
    /// # Panics
    /// Panics when the column count or kinds disagree with the schema, or
    /// when columns have different lengths.
    pub fn new(schema: Schema, columns: Vec<Column>) -> Table {
        assert_eq!(
            schema.len(),
            columns.len(),
            "schema has {} fields but {} columns supplied",
            schema.len(),
            columns.len()
        );
        let n_rows = columns.first().map(Column::len).unwrap_or(0);
        for (i, col) in columns.iter().enumerate() {
            assert_eq!(
                col.len(),
                n_rows,
                "column {i} has {} rows, expected {n_rows}",
                col.len()
            );
            let kind_matches = matches!(
                (&schema.field(i).kind, col),
                (FieldKind::Numeric, Column::Numeric(_))
                    | (FieldKind::Categorical { .. }, Column::Categorical(_))
            );
            assert!(
                kind_matches,
                "column {i} ({}) does not match its schema kind",
                schema.field(i).name
            );
        }
        Table {
            schema,
            columns,
            n_rows,
        }
    }

    /// The table schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns.
    pub fn n_cols(&self) -> usize {
        self.columns.len()
    }

    /// Column at index `i`.
    pub fn column(&self, i: usize) -> &Column {
        &self.columns[i]
    }

    /// Mutable column at index `i`.
    pub fn column_mut(&mut self, i: usize) -> &mut Column {
        &mut self.columns[i]
    }

    /// Copies the rows in `range` into a new table.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Table {
        assert!(range.end <= self.n_rows, "slice out of bounds");
        let columns = self
            .columns
            .iter()
            .map(|c| c.slice(range.clone()))
            .collect();
        Table {
            schema: self.schema.clone(),
            columns,
            n_rows: range.len(),
        }
    }

    /// Reorders rows by the given permutation.
    ///
    /// # Panics
    /// Panics when `order` is not a permutation of `0..n_rows` in length.
    pub fn permute(&self, order: &[usize]) -> Table {
        assert_eq!(order.len(), self.n_rows, "permutation length mismatch");
        Table {
            schema: self.schema.clone(),
            columns: self.columns.iter().map(|c| c.permute(order)).collect(),
            n_rows: self.n_rows,
        }
    }

    /// True when the cell `(row, col)` is missing.
    pub fn is_missing(&self, row: usize, col: usize) -> bool {
        self.columns[col].is_missing(row)
    }

    /// Missing-value statistics over the whole table.
    pub fn missing_stats(&self) -> MissingStats {
        if self.n_rows == 0 || self.columns.is_empty() {
            return MissingStats {
                rows_with_missing: 0.0,
                missing_columns: 0.0,
                empty_cells: 0.0,
            };
        }
        let mut rows_with_missing = 0usize;
        for r in 0..self.n_rows {
            if self.columns.iter().any(|c| c.is_missing(r)) {
                rows_with_missing += 1;
            }
        }
        let missing_cols = self
            .columns
            .iter()
            .filter(|c| c.missing_count() > 0)
            .count();
        let empty: usize = self.columns.iter().map(Column::missing_count).sum();
        MissingStats {
            rows_with_missing: rows_with_missing as f64 / self.n_rows as f64,
            missing_columns: missing_cols as f64 / self.columns.len() as f64,
            empty_cells: empty as f64 / (self.n_rows * self.columns.len()) as f64,
        }
    }

    /// One row viewed as raw numeric values (categoricals as dictionary
    /// indices, missing as NaN). Useful for tree models and distance-based
    /// methods that work on the unencoded representation.
    pub fn numeric_row(&self, row: usize) -> Vec<f64> {
        self.columns.iter().map(|c| c.numeric_at(row)).collect()
    }

    /// A 64-bit content fingerprint over shape, schema field names/kinds
    /// and every cell. Two equal tables fingerprint identically; distinct
    /// contents collide only with hash probability. Used as a cache key
    /// component by the prepared-stream cache, where regenerating the
    /// preprocessing costs far more than one pass over the cells.
    pub fn fingerprint(&self) -> u64 {
        use std::hash::{Hash, Hasher};
        let mut h = std::collections::hash_map::DefaultHasher::new();
        self.n_rows.hash(&mut h);
        self.columns.len().hash(&mut h);
        for field in self.schema.fields() {
            field.name.hash(&mut h);
            match &field.kind {
                FieldKind::Numeric => 0u8.hash(&mut h),
                FieldKind::Categorical { labels } => {
                    1u8.hash(&mut h);
                    labels.hash(&mut h);
                }
            }
        }
        for col in &self.columns {
            col.hash_into(&mut h);
        }
        h.finish()
    }

    /// Appends all rows of `other` (same schema) to this table.
    ///
    /// # Panics
    /// Panics when schemas differ.
    pub fn append(&mut self, other: &Table) {
        assert_eq!(self.schema, other.schema, "append schema mismatch");
        for (dst, src) in self.columns.iter_mut().zip(&other.columns) {
            match (dst, src) {
                (Column::Numeric(d), Column::Numeric(s)) => d.extend_from_slice(s),
                (Column::Categorical(d), Column::Categorical(s)) => d.extend_from_slice(s),
                _ => unreachable!("schema equality guarantees matching kinds"),
            }
        }
        self.n_rows += other.n_rows;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::Field;

    fn sample() -> Table {
        let schema = Schema::new(vec![
            Field::numeric("x"),
            Field::categorical("c", &["a", "b"]),
        ]);
        Table::new(
            schema,
            vec![
                Column::Numeric(vec![1.0, f64::NAN, 3.0, 4.0]),
                Column::Categorical(vec![Some(0), Some(1), None, Some(0)]),
            ],
        )
    }

    #[test]
    fn construction_and_shape() {
        let t = sample();
        assert_eq!(t.n_rows(), 4);
        assert_eq!(t.n_cols(), 2);
    }

    #[test]
    fn missing_stats_counts_rows_cols_cells() {
        let t = sample();
        let s = t.missing_stats();
        assert_eq!(s.rows_with_missing, 0.5); // rows 1 and 2
        assert_eq!(s.missing_columns, 1.0); // both columns have a hole
        assert_eq!(s.empty_cells, 2.0 / 8.0);
    }

    #[test]
    fn slice_preserves_schema() {
        let t = sample();
        let s = t.slice(1..3);
        assert_eq!(s.n_rows(), 2);
        assert!(s.is_missing(0, 0));
        assert!(s.is_missing(1, 1));
    }

    #[test]
    fn permute_reorders_rows() {
        let t = sample();
        let p = t.permute(&[3, 2, 1, 0]);
        assert_eq!(p.numeric_row(0), vec![4.0, 0.0]);
        assert!(p.numeric_row(3)[0] == 1.0);
    }

    #[test]
    fn append_grows_rows() {
        let mut t = sample();
        let u = sample();
        t.append(&u);
        assert_eq!(t.n_rows(), 8);
        assert_eq!(t.numeric_row(4), t.numeric_row(0));
    }

    #[test]
    fn fingerprint_tracks_content() {
        let a = sample();
        let b = sample();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = sample();
        if let Column::Numeric(v) = c.column_mut(0) {
            v[0] = 99.0;
        }
        assert_ne!(a.fingerprint(), c.fingerprint());
        // NaN payloads don't leak into the fingerprint: tables that
        // compare equal (missing == missing) fingerprint equal.
        let mut d = sample();
        if let Column::Numeric(v) = d.column_mut(0) {
            v[1] = f64::from_bits(f64::NAN.to_bits() ^ 1);
        }
        assert_eq!(a, d);
        assert_eq!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    #[should_panic(expected = "does not match its schema kind")]
    fn kind_mismatch_panics() {
        let schema = Schema::new(vec![Field::numeric("x")]);
        let _ = Table::new(schema, vec![Column::Categorical(vec![Some(0)])]);
    }

    #[test]
    #[should_panic(expected = "rows, expected")]
    fn ragged_columns_panic() {
        let schema = Schema::new(vec![Field::numeric("x"), Field::numeric("y")]);
        let _ = Table::new(
            schema,
            vec![Column::Numeric(vec![1.0, 2.0]), Column::Numeric(vec![1.0])],
        );
    }

    #[test]
    fn numeric_row_maps_categories_to_indices() {
        let t = sample();
        assert_eq!(t.numeric_row(0), vec![1.0, 0.0]);
        assert!(t.numeric_row(1)[0].is_nan());
    }
}
