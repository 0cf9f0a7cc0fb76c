//! Brute-force cut enumeration over all vertex subsets.
//!
//! This is the specification-level oracle used by the test suite: it enumerates every
//! subset of the non-forbidden vertices of a (small) basic block, keeps those that are
//! valid cuts and nothing else. Its cost is `Θ(2^k)` where `k` is the number of
//! non-forbidden vertices, so it is only usable on graphs of a couple of dozen
//! candidate vertices — which is exactly what the correctness tests need.

use crate::config::Constraints;
use crate::context::EnumContext;
use crate::engine::{self, EngineOptions};
use crate::result::Enumeration;

/// Maximum number of candidate (non-forbidden) vertices accepted by
/// [`exhaustive_cuts`]; beyond this the subset space is too large to enumerate.
pub const MAX_EXHAUSTIVE_CANDIDATES: usize = 26;

/// Enumerates every valid cut by checking all subsets of non-forbidden vertices.
///
/// When `require_io_condition` is `true`, validity includes the technical input
/// condition of §3 (the definition used by the polynomial algorithm); when `false` it
/// does not (the definition used by the exhaustive baseline of Pozzi et al.).
///
/// # Panics
///
/// Panics if the graph has more than [`MAX_EXHAUSTIVE_CANDIDATES`] non-forbidden
/// vertices — use the real enumerators for anything larger.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::{exhaustive_cuts, Constraints, EnumContext};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.node(Operation::Not, &[a]);
/// let y = b.node(Operation::Add, &[x, a]);
/// let ctx = EnumContext::new(b.build()?);
/// let all = exhaustive_cuts(&ctx, &Constraints::new(2, 1)?, true);
/// assert_eq!(all.cuts.len(), 2); // {x} and {x, y}; {y} alone violates the input condition
/// # Ok(())
/// # }
/// ```
pub fn exhaustive_cuts(
    ctx: &EnumContext,
    constraints: &Constraints,
    require_io_condition: bool,
) -> Enumeration {
    let options = EngineOptions::default();
    // Each subset is staged in the engine's body bit set (via the raw accessors) and
    // reported without de-duplication, since the subset walk visits every body once.
    engine::run("exhaustive", ctx, constraints, &options, None, |state| {
        let candidates = ctx.candidate_outputs();
        assert!(
            candidates.len() <= MAX_EXHAUSTIVE_CANDIDATES,
            "exhaustive enumeration over {} candidate vertices is infeasible",
            candidates.len()
        );
        for mask in 1u64..(1u64 << candidates.len()) {
            state.body_clear();
            for (bit, &node) in candidates.iter().enumerate() {
                if mask & (1 << bit) != 0 {
                    state.body_insert(node);
                }
            }
            state.report_current(require_io_condition);
        }
        state.body_clear();
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_graph::{DfgBuilder, NodeId, Operation};

    fn small() -> (EnumContext, [NodeId; 5]) {
        // a, c inputs; n = a + c; x = n << 1; y = n - c
        let mut b = DfgBuilder::new("small");
        let a = b.input("a");
        let c = b.input("c");
        let n = b.node(Operation::Add, &[a, c]);
        let x = b.node(Operation::Shl, &[n]);
        let y = b.node(Operation::Sub, &[n, c]);
        let ctx = EnumContext::new(b.build().unwrap());
        (ctx, [a, c, n, x, y])
    }

    #[test]
    fn enumerates_exactly_the_valid_cuts() {
        let (ctx, [_, _, n, x, y]) = small();
        let constraints = Constraints::new(2, 2).unwrap();
        let found = exhaustive_cuts(&ctx, &constraints, true);
        let bodies: Vec<Vec<NodeId>> = found.cuts.iter().map(|c| c.body().to_vec()).collect();
        // All seven non-empty subsets of {n, x, y} are convex; those needing more than
        // two inputs are rejected: {x} alone needs only n; {y} needs n and c; etc.
        assert!(bodies.contains(&vec![n]));
        assert!(bodies.contains(&vec![x]));
        assert!(bodies.contains(&vec![y]));
        assert!(bodies.contains(&vec![n, x]));
        assert!(bodies.contains(&vec![n, y]));
        assert!(bodies.contains(&vec![n, x, y]));
        // {x, y} has inputs {n, c} (2) and outputs {x, y} (2): valid.
        assert!(bodies.contains(&vec![x, y]));
        assert_eq!(found.cuts.len(), 7);
        assert_eq!(found.stats.valid_cuts, 7);
    }

    #[test]
    fn io_constraints_filter_cuts() {
        let (ctx, [_, _, n, x, y]) = small();
        let constraints = Constraints::new(2, 1).unwrap();
        let found = exhaustive_cuts(&ctx, &constraints, true);
        let bodies: Vec<Vec<NodeId>> = found.cuts.iter().map(|c| c.body().to_vec()).collect();
        // Both x and y are externally visible, so every multi-node cut has two outputs
        // and only the single-node cuts survive the one-write-port constraint.
        assert_eq!(bodies.len(), 3);
        assert!(bodies.contains(&vec![n]));
        assert!(bodies.contains(&vec![x]));
        assert!(bodies.contains(&vec![y]));
        assert!(!bodies.contains(&vec![n, x]), "n also feeds y, two outputs");
        assert!(found.stats.rejected_io > 0);
    }

    #[test]
    fn forbidden_nodes_never_appear() {
        let mut b = DfgBuilder::new("mem");
        let a = b.input("a");
        let ld = b.node(Operation::Load, &[a]);
        let x = b.node(Operation::Add, &[ld, a]);
        let ctx = EnumContext::new(b.build().unwrap());
        // Under the paper's technical input condition the only candidate {x} is
        // rejected: its input `ld` is reachable from the root only through the other
        // input `a` (this is exactly the class of cuts §3 excludes).
        let strict = exhaustive_cuts(&ctx, &Constraints::new(4, 4).unwrap(), true);
        assert!(strict.cuts.is_empty());
        // Without the technical condition, {x} is a valid cut and never contains the
        // forbidden load.
        let relaxed = exhaustive_cuts(&ctx, &Constraints::new(4, 4).unwrap(), false);
        assert!(relaxed.cuts.iter().all(|c| !c.contains(ld)));
        assert_eq!(relaxed.cuts.len(), 1);
        assert_eq!(relaxed.cuts[0].body().to_vec(), vec![x]);
    }

    #[test]
    #[should_panic(expected = "infeasible")]
    fn refuses_large_graphs() {
        let mut b = DfgBuilder::new("big");
        let a = b.input("a");
        let mut prev = a;
        for _ in 0..40 {
            prev = b.node(Operation::Add, &[prev]);
        }
        let ctx = EnumContext::new(b.build().unwrap());
        let _ = exhaustive_cuts(&ctx, &Constraints::new(2, 2).unwrap(), true);
    }
}
