//! Greedy selection of non-overlapping custom instructions from the enumerated cuts.
//!
//! Enumeration produces every candidate; an ISE flow then picks a small number of them
//! to implement. This module implements the standard greedy selector used by the
//! toolchain the paper plugs into (§7): repeatedly take the candidate with the highest
//! estimated saving whose vertices do not overlap an already selected candidate, until
//! the requested number of custom instructions is reached or no profitable candidate is
//! left.

use ise_graph::{DenseNodeSet, Dfg};

use crate::cut::Cut;
use crate::merit::{estimate_merit, Merit};

/// The outcome of a selection run: the chosen cuts, their individual merits and the
/// total estimated saving.
#[derive(Clone, Debug, Default)]
pub struct Selection {
    /// The chosen cuts, in selection (descending-merit) order.
    pub chosen: Vec<(Cut, Merit)>,
    /// Total cycles saved per execution of the basic block.
    pub total_saved_cycles: u32,
    /// Total software cycles of the whole basic block ([`block_software_cycles`]),
    /// for speedup estimates.
    pub block_software_cycles: u64,
}

impl Selection {
    /// Estimated speedup of the basic block with the chosen custom instructions
    /// ([`block_speedup`] of its software cycles and total saving).
    pub fn block_speedup(&self) -> f64 {
        block_speedup(self.block_software_cycles, self.total_saved_cycles.into())
    }
}

/// The cycles a block takes in software: [`Operation::software_cycles`] summed
/// over its vertices. Per-block and corpus-level selection both report it.
///
/// [`Operation::software_cycles`]: ise_graph::Operation::software_cycles
pub fn block_software_cycles(dfg: &Dfg) -> u64 {
    dfg.node_ids()
        .map(|v| u64::from(dfg.op(v).software_cycles()))
        .sum()
}

/// Estimated speedup of a block that takes `software_cycles` in software once
/// `saved_cycles` of them are saved: the software cycles over the cycles left. A
/// saving that leaves no cycle saturates at `software_cycles` (at least 1).
///
/// # Example
///
/// ```
/// use ise_enum::block_speedup;
///
/// assert_eq!(block_speedup(12, 4), 1.5);
/// assert_eq!(block_speedup(12, 12), 12.0);
/// ```
pub fn block_speedup(software_cycles: u64, saved_cycles: u64) -> f64 {
    match software_cycles.checked_sub(saved_cycles) {
        Some(after) if after > 0 => software_cycles as f64 / after as f64,
        _ => software_cycles.max(1) as f64,
    }
}

/// Greedily selects up to `max_instructions` non-overlapping cuts of `dfg` with the
/// highest estimated savings. Only the graph is read, so no `EnumContext` is needed.
///
/// Candidates whose estimated saving is zero are never selected. `ports_in`/`ports_out`
/// are the register-file ports available per cycle for operand transfer (see
/// [`estimate_merit`]).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::{enumerate_cuts, select_ises, Constraints};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.input("x");
/// let acc = b.input("acc");
/// let mul = b.node(Operation::Mul, &[a, x]);
/// let sum = b.node(Operation::Add, &[mul, acc]);
/// b.mark_output(sum);
/// let dfg = b.build()?;
///
/// let cuts = enumerate_cuts(&dfg, &Constraints::new(3, 1)?)?;
/// let selection = select_ises(&dfg, &cuts.cuts, 2, 1, 4);
/// assert!(selection.chosen.len() <= 4);
/// assert!(selection.block_speedup() >= 1.0);
/// # Ok(())
/// # }
/// ```
pub fn select_ises(
    dfg: &Dfg,
    candidates: &[Cut],
    ports_in: usize,
    ports_out: usize,
    max_instructions: usize,
) -> Selection {
    let mut scored: Vec<(usize, Merit)> = candidates
        .iter()
        .enumerate()
        .map(|(i, cut)| (i, estimate_merit(dfg, cut, ports_in, ports_out)))
        .filter(|(_, m)| m.saved_cycles > 0)
        .collect();
    // Highest saving first; break ties towards smaller cuts (cheaper hardware).
    scored.sort_by(|a, b| {
        b.1.saved_cycles
            .cmp(&a.1.saved_cycles)
            .then_with(|| candidates[a.0].len().cmp(&candidates[b.0].len()))
            .then_with(|| candidates[a.0].key().cmp(&candidates[b.0].key()))
    });

    // Sized like the cut bodies; with no candidates the loop below never runs.
    let mut used = DenseNodeSet::new(candidates.first().map_or(0, |c| c.body().capacity()));
    let mut selection = Selection {
        chosen: Vec::new(),
        total_saved_cycles: 0,
        block_software_cycles: block_software_cycles(dfg),
    };
    for (idx, merit) in scored {
        if selection.chosen.len() == max_instructions {
            break;
        }
        let cut = &candidates[idx];
        if !cut.body().is_disjoint(&used) {
            continue;
        }
        used.union_with(cut.body());
        selection.total_saved_cycles += merit.saved_cycles;
        selection.chosen.push((cut.clone(), merit));
    }
    selection
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Constraints;
    use crate::context::EnumContext;
    use crate::exhaustive::exhaustive_cuts;
    use ise_graph::{DfgBuilder, Operation};

    /// Two independent multiply-accumulate chains feeding a store each.
    fn two_macs() -> EnumContext {
        let mut b = DfgBuilder::new("two-macs");
        for i in 0..2 {
            let a = b.input(format!("a{i}"));
            let x = b.input(format!("x{i}"));
            let acc = b.input(format!("acc{i}"));
            let mul = b.node(Operation::Mul, &[a, x]);
            let sum = b.node(Operation::Add, &[mul, acc]);
            let _st = b.node(Operation::Store, &[sum]);
        }
        EnumContext::new(b.build().unwrap())
    }

    #[test]
    fn selects_non_overlapping_profitable_cuts() {
        let ctx = two_macs();
        let candidates = exhaustive_cuts(&ctx, &Constraints::new(3, 1).unwrap(), true);
        let selection = select_ises(ctx.dfg(), &candidates.cuts, 2, 1, 8);
        assert!(!selection.chosen.is_empty());
        // No two selected cuts share a vertex.
        for (i, (a, _)) in selection.chosen.iter().enumerate() {
            for (b, _) in &selection.chosen[i + 1..] {
                assert!(a.body().is_disjoint(b.body()));
            }
        }
        // Both MAC chains should be covered by profitable instructions.
        assert!(selection.chosen.len() >= 2);
        assert!(selection.total_saved_cycles >= 2);
        assert!(selection.block_speedup() > 1.0);
    }

    #[test]
    fn speedup_saturates_when_everything_is_saved() {
        assert_eq!(block_speedup(10, 10), 10.0);
        assert_eq!(
            block_speedup(10, 25),
            10.0,
            "an over-estimate saturates too"
        );
        assert_eq!(block_speedup(0, 0), 1.0);
        let selection = Selection {
            chosen: Vec::new(),
            total_saved_cycles: 7,
            block_software_cycles: 7,
        };
        assert_eq!(selection.block_speedup(), 7.0);
    }

    #[test]
    fn respects_the_instruction_budget() {
        let ctx = two_macs();
        let candidates = exhaustive_cuts(&ctx, &Constraints::new(3, 1).unwrap(), true);
        let selection = select_ises(ctx.dfg(), &candidates.cuts, 2, 1, 1);
        assert_eq!(selection.chosen.len(), 1);
    }

    #[test]
    fn empty_candidate_list_selects_nothing() {
        let ctx = two_macs();
        let selection = select_ises(ctx.dfg(), &[], 2, 1, 4);
        assert!(selection.chosen.is_empty());
        assert_eq!(selection.total_saved_cycles, 0);
        assert!(selection.block_software_cycles > 0);
        assert!((selection.block_speedup() - 1.0).abs() < 1e-9);
    }
}
