//! Minimal CSV reading/writing for tables.
//!
//! The pipeline is self-contained on synthetic streams, but users of the
//! library load their own relational streams from CSV, so the table type
//! round-trips through RFC-4180-style CSV (quoted fields, embedded commas
//! and quotes). Missing cells serialise as empty fields.

use crate::column::Column;
use crate::schema::{Field, FieldKind, Schema};
use crate::table::Table;
use std::collections::HashMap;

/// Errors produced by CSV parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsvError {
    /// A data row had a different number of fields than the header.
    RaggedRow {
        /// 1-based line number of the offending row.
        line: usize,
        /// Fields found.
        found: usize,
        /// Fields expected from the header.
        expected: usize,
    },
    /// The input had no header row.
    Empty,
    /// A quoted field was never closed.
    UnterminatedQuote {
        /// 1-based line where the field started.
        line: usize,
    },
}

impl std::fmt::Display for CsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CsvError::RaggedRow {
                line,
                found,
                expected,
            } => write!(f, "line {line}: found {found} fields, expected {expected}"),
            CsvError::Empty => write!(f, "empty CSV input"),
            CsvError::UnterminatedQuote { line } => {
                write!(f, "line {line}: unterminated quoted field")
            }
        }
    }
}

impl std::error::Error for CsvError {}

/// Parses CSV text into raw string records (header + rows), handling quoted
/// fields with embedded commas, quotes, and newlines.
pub fn parse_records(text: &str) -> Result<Vec<Vec<String>>, CsvError> {
    let mut records = Vec::new();
    let mut record: Vec<String> = Vec::new();
    let mut field = String::new();
    let mut in_quotes = false;
    let mut line = 1usize;
    let mut quote_start_line = 1usize;
    let mut chars = text.chars().peekable();
    let mut any = false;

    while let Some(c) = chars.next() {
        any = true;
        if in_quotes {
            match c {
                '"' => {
                    if chars.peek() == Some(&'"') {
                        chars.next();
                        field.push('"');
                    } else {
                        in_quotes = false;
                    }
                }
                '\n' => {
                    line += 1;
                    field.push(c);
                }
                _ => field.push(c),
            }
        } else {
            match c {
                '"' => {
                    in_quotes = true;
                    quote_start_line = line;
                }
                ',' => {
                    record.push(std::mem::take(&mut field));
                }
                '\r' => {}
                '\n' => {
                    line += 1;
                    record.push(std::mem::take(&mut field));
                    records.push(std::mem::take(&mut record));
                }
                _ => field.push(c),
            }
        }
    }
    if in_quotes {
        return Err(CsvError::UnterminatedQuote {
            line: quote_start_line,
        });
    }
    if !field.is_empty() || !record.is_empty() {
        record.push(field);
        records.push(record);
    }
    if !any || records.is_empty() {
        return Err(CsvError::Empty);
    }
    Ok(records)
}

/// Parses CSV text into a [`Table`], inferring column kinds: a column where
/// every non-empty cell parses as `f64` becomes numeric; anything else
/// becomes categorical with dictionary-encoded labels. Empty cells are
/// missing values.
pub fn read_table(text: &str) -> Result<Table, CsvError> {
    let records = parse_records(text)?;
    let header = records.first().ok_or(CsvError::Empty)?;
    let n_cols = header.len();
    for (i, rec) in records.iter().enumerate().skip(1) {
        if rec.len() != n_cols {
            return Err(CsvError::RaggedRow {
                line: i + 1,
                found: rec.len(),
                expected: n_cols,
            });
        }
    }
    let rows = &records[1..];

    let mut fields = Vec::with_capacity(n_cols);
    let mut columns = Vec::with_capacity(n_cols);
    for c in 0..n_cols {
        let numeric = rows
            .iter()
            .all(|r| r[c].is_empty() || r[c].trim().parse::<f64>().is_ok());
        if numeric {
            fields.push(Field::numeric(header[c].clone()));
            columns.push(Column::Numeric(
                rows.iter()
                    .map(|r| {
                        if r[c].is_empty() {
                            f64::NAN
                        } else {
                            // oeb-lint: allow(panic-in-library) -- every cell pre-scanned as parseable above
                            r[c].trim().parse().expect("checked numeric")
                        }
                    })
                    .collect(),
            ));
        } else {
            let mut dict: HashMap<&str, u32> = HashMap::new();
            let mut labels: Vec<String> = Vec::new();
            let mut cells = Vec::with_capacity(rows.len());
            for r in rows {
                if r[c].is_empty() {
                    cells.push(None);
                } else {
                    let idx = *dict.entry(r[c].as_str()).or_insert_with(|| {
                        labels.push(r[c].clone());
                        (labels.len() - 1) as u32
                    });
                    cells.push(Some(idx));
                }
            }
            fields.push(Field {
                name: header[c].clone(),
                kind: FieldKind::Categorical { labels },
            });
            columns.push(Column::Categorical(cells));
        }
    }
    Ok(Table::new(Schema::new(fields), columns))
}

/// Serialises a table to CSV text (header + rows), quoting fields that need
/// it. Missing cells serialise as empty fields.
pub fn write_table(table: &Table) -> String {
    let mut out = String::new();
    let names: Vec<String> = table
        .schema()
        .fields()
        .iter()
        .map(|f| quote(&f.name))
        .collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for r in 0..table.n_rows() {
        let mut cells = Vec::with_capacity(table.n_cols());
        for c in 0..table.n_cols() {
            let cell = match table.column(c) {
                Column::Numeric(v) => {
                    if v[r].is_nan() {
                        String::new()
                    } else {
                        format!("{}", v[r])
                    }
                }
                Column::Categorical(v) => match v[r] {
                    None => String::new(),
                    Some(idx) => match &table.schema().field(c).kind {
                        FieldKind::Categorical { labels } => quote(&labels[idx as usize]),
                        FieldKind::Numeric => unreachable!("schema/column kind match"),
                    },
                },
            };
            cells.push(cell);
        }
        out.push_str(&cells.join(","));
        out.push('\n');
    }
    out
}

fn quote(s: &str) -> String {
    if s.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_simple_csv() {
        let t = read_table("a,b\n1,x\n2,y\n3,x\n").unwrap();
        assert_eq!(t.n_rows(), 3);
        assert!(t.column(0).is_numeric());
        assert!(!t.column(1).is_numeric());
    }

    #[test]
    fn empty_cells_become_missing() {
        let t = read_table("a,b\n1,\n,y\n").unwrap();
        assert!(t.is_missing(0, 1));
        assert!(t.is_missing(1, 0));
        assert_eq!(t.missing_stats().empty_cells, 0.5);
    }

    #[test]
    fn quoted_fields_with_commas_and_quotes() {
        // An unquoted `\r` is dropped as line-ending noise, so a label
        // holding one only survives the round trip when written quoted.
        for text in [
            "name,v\n\"hello, world\",1\n\"say \"\"hi\"\"\",2\n",
            "name,v\n\"a\rb\",1\nc,2\n",
        ] {
            let t = read_table(text).unwrap();
            match t.column(0) {
                Column::Categorical(cells) => assert_eq!(cells.len(), 2),
                _ => panic!("expected categorical"),
            }
            let back = read_table(&write_table(&t)).unwrap();
            assert_eq!(back, t, "round trip of {text:?}");
        }
    }

    #[test]
    fn ragged_row_is_an_error() {
        let err = read_table("a,b\n1,2\n3\n").unwrap_err();
        assert!(matches!(err, CsvError::RaggedRow { line: 3, .. }));
    }

    #[test]
    fn empty_input_is_an_error() {
        assert_eq!(read_table("").unwrap_err(), CsvError::Empty);
    }

    #[test]
    fn unterminated_quote_is_an_error() {
        let err = read_table("a\n\"oops\n").unwrap_err();
        assert!(matches!(err, CsvError::UnterminatedQuote { .. }));
    }

    #[test]
    fn roundtrip_numeric_with_missing() {
        let t = read_table("x,y\n1.5,2\n,4\n3.25,\n").unwrap();
        let text = write_table(&t);
        let back = read_table(&text).unwrap();
        assert_eq!(back, t);
    }

    #[test]
    fn crlf_line_endings_accepted() {
        let t = read_table("a,b\r\n1,2\r\n3,4\r\n").unwrap();
        assert_eq!(t.n_rows(), 2);
    }
}
