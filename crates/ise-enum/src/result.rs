//! The result of an enumeration run.

use crate::cut::Cut;
use crate::stats::EnumStats;

/// Cuts found by an enumeration algorithm together with its search statistics.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::{enumerate_cuts, Constraints};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let _x = b.node(Operation::Not, &[a]);
/// let result = enumerate_cuts(&b.build()?, &Constraints::new(2, 1)?)?;
/// assert_eq!(result.cuts.len(), result.stats.valid_cuts);
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct Enumeration {
    /// The distinct valid cuts, in the order they were discovered.
    pub cuts: Vec<Cut>,
    /// Search statistics for the run.
    pub stats: EnumStats,
}

impl Enumeration {
    /// Whether the run found no valid cut.
    pub fn is_empty(&self) -> bool {
        self.cuts.is_empty()
    }

    /// Number of valid cuts found.
    pub fn len(&self) -> usize {
        self.cuts.len()
    }
}
