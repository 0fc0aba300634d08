//! # oeb-tabular
//!
//! The relational data stream substrate of the OEBench reproduction:
//! schemas, columnar tables with explicit missing-value accounting,
//! window partitioning, dataset metadata, and CSV IO.
//!
//! A stream is a [`StreamDataset`]: an ordered [`Table`] (row order =
//! temporal order) plus a designated target column, learning [`Task`],
//! default window size and application [`Domain`] — exactly the metadata
//! the paper documents per dataset in its Tables 11 and 12.

pub mod column;
pub mod csv;
pub mod dataset;
pub mod mask;
pub mod schema;
pub mod table;
pub mod window;

pub use column::Column;
pub use csv::{read_table, write_table, CsvError};
pub use dataset::{Domain, StreamDataset};
pub use mask::FiniteMask;
pub use schema::{Field, FieldKind, Schema, Task};
pub use table::{MissingStats, Table};
pub use window::{scaled_window, window_ranges};
