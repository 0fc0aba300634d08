//! Sufficient statistics maintained under row deltas.
//!
//! A [`DeltaStat`] is a statistic kept up to date as rows enter
//! ([`absorb`]) and leave ([`retract`]), with [`snapshot`] deriving the
//! statistic from the maintained state instead of rescanning the rows.
//!
//! [`absorb`]: DeltaStat::absorb
//! [`retract`]: DeltaStat::retract
//! [`snapshot`]: DeltaStat::snapshot
//!
//! The implementor is `oeb_tree::hoeffding::LeafTotals`: the Hoeffding
//! tree's per-leaf class counts, with their running total, majority class
//! and present-class count. The tree absorbs one labelled sample at a
//! time and reads the snapshot when it decides whether to evaluate a
//! split. Its equivalence test asserts that the maintained snapshot is
//! bit-identical to a rescan of the counts, and the `delta-equivalence`
//! lint rule requires such a test for every implementor.

/// A statistic maintained under row insertion and exact retraction.
///
/// Implementations must be *order-insensitive up to the documented
/// exactness contract*: after any interleaving of `absorb`/`retract`
/// calls that leaves the same multiset of rows, `snapshot` returns the
/// same value (bit-identical for counting statistics; within a stated
/// epsilon for floating-moment statistics, where summation order is
/// the one reassociation allowed).
pub trait DeltaStat {
    /// The derived statistic.
    type Output;

    /// Accounts one entering row.
    fn absorb(&mut self, row: &[f64]);

    /// Removes one previously absorbed row.
    fn retract(&mut self, row: &[f64]);

    /// Derives the statistic from the maintained state.
    fn snapshot(&self) -> Self::Output;
}
