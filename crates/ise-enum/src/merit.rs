//! Latency-based merit (estimated speedup) of a cut when turned into a custom
//! instruction.
//!
//! The paper motivates subgraph enumeration with the speedups (up to 6x, §7) achieved by
//! the custom instructions that a selector picks out of the enumerated candidates. This
//! module provides the standard latency model used throughout the ISE literature (and by
//! refs. [4]/[15]): executing the cut in software costs the sum of its operations'
//! software latencies; executing it as a custom instruction costs the cut's critical
//! path measured in hardware delays (rounded up to whole cycles) plus the extra cycles
//! needed to transfer inputs and outputs beyond the register-file ports available in a
//! single instruction.

use ise_graph::{Dfg, NodeId};

use crate::cut::Cut;

/// Estimated cost/benefit of turning one cut into a custom instruction.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Merit {
    /// Cycles the cut costs when executed as ordinary software instructions.
    pub software_cycles: u32,
    /// Cycles the cut costs as a custom instruction (critical path + operand transfer).
    pub hardware_cycles: u32,
    /// Cycles saved per execution (`software_cycles - hardware_cycles`, clamped at 0).
    pub saved_cycles: u32,
}

impl Merit {
    /// The speedup factor of the isolated cut (software over hardware cycles).
    pub fn speedup(&self) -> f64 {
        if self.hardware_cycles == 0 {
            return 1.0;
        }
        f64::from(self.software_cycles) / f64::from(self.hardware_cycles)
    }
}

/// Estimates the merit of `cut`, a cut of `dfg`, under the fixed latency model of
/// [`Operation::software_cycles`](ise_graph::Operation::software_cycles) and
/// [`Operation::hardware_delay`](ise_graph::Operation::hardware_delay), assuming
/// `ports_in` register-file read ports and `ports_out` write ports per cycle (extra
/// operands cost one extra cycle per port group).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::{enumerate_cuts, estimate_merit, Constraints};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut b = DfgBuilder::new("mac");
/// let a = b.input("a");
/// let x = b.input("x");
/// let acc = b.input("acc");
/// let mul = b.node(Operation::Mul, &[a, x]);
/// let sum = b.node(Operation::Add, &[mul, acc]);
/// b.mark_output(sum);
/// let dfg = b.build()?;
/// let cuts = enumerate_cuts(&dfg, &Constraints::new(3, 1)?)?;
/// let best = cuts
///     .cuts
///     .iter()
///     .map(|c| estimate_merit(&dfg, c, 2, 1))
///     .max_by_key(|m| m.saved_cycles)
///     .expect("at least one candidate");
/// assert!(best.software_cycles >= best.hardware_cycles);
/// # Ok(())
/// # }
/// ```
pub fn estimate_merit(dfg: &Dfg, cut: &Cut, ports_in: usize, ports_out: usize) -> Merit {
    let software_cycles: u32 = cut.body().iter().map(|v| dfg.op(v).software_cycles()).sum();

    // Critical path through the cut in hardware-delay units.
    let mut delay = vec![0.0f64; dfg.len()];
    let mut critical = 0.0f64;
    for &v in dfg.topological_order() {
        if !cut.contains(v) {
            continue;
        }
        let own = dfg.op(v).hardware_delay();
        let arrival = dfg
            .preds(v)
            .iter()
            .filter(|p| cut.contains(**p))
            .map(|p| delay[p.index()])
            .fold(0.0f64, f64::max);
        delay[v.index()] = arrival + own;
        critical = critical.max(delay[v.index()]);
    }
    let datapath_cycles = critical.ceil() as u32;

    // Operand-transfer overhead: each group of `ports_in` inputs beyond the first group
    // costs an extra cycle, and similarly for outputs.
    let extra_in = extra_transfer_cycles(cut.inputs(), ports_in);
    let extra_out = extra_transfer_cycles(cut.outputs(), ports_out);
    let hardware_cycles = datapath_cycles.max(1) + extra_in + extra_out;

    Merit {
        software_cycles,
        hardware_cycles,
        saved_cycles: software_cycles.saturating_sub(hardware_cycles),
    }
}

fn extra_transfer_cycles(operands: &[NodeId], ports: usize) -> u32 {
    if ports == 0 {
        return operands.len() as u32;
    }
    let groups = operands.len().div_ceil(ports);
    groups.saturating_sub(1) as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Constraints;
    use crate::context::EnumContext;
    use crate::exhaustive::exhaustive_cuts;
    use ise_graph::{DenseNodeSet, DfgBuilder, Operation};

    fn mac_ctx() -> (EnumContext, [NodeId; 5]) {
        let mut b = DfgBuilder::new("mac");
        let a = b.input("a");
        let x = b.input("x");
        let acc = b.input("acc");
        let mul = b.node(Operation::Mul, &[a, x]);
        let sum = b.node(Operation::Add, &[mul, acc]);
        b.mark_output(sum);
        let ctx = EnumContext::new(b.build().unwrap());
        (ctx, [a, x, acc, mul, sum])
    }

    fn cut_of(ctx: &EnumContext, nodes: &[NodeId]) -> Cut {
        Cut::from_body(
            ctx,
            DenseNodeSet::from_nodes(ctx.rooted().num_nodes(), nodes.iter().copied()),
        )
    }

    #[test]
    fn mac_cut_saves_cycles() {
        let (ctx, [_, _, _, mul, sum]) = mac_ctx();
        let cut = cut_of(&ctx, &[mul, sum]);
        let merit = estimate_merit(ctx.dfg(), &cut, 2, 1);
        // Software: mul (3) + add (1) = 4 cycles; hardware: ceil(1.6 + 0.3) = 2 cycles
        // plus one extra cycle to read the third operand.
        assert_eq!(merit.software_cycles, 4);
        assert_eq!(merit.hardware_cycles, 3);
        assert_eq!(merit.saved_cycles, 1);
        assert!(merit.speedup() > 1.0);
    }

    #[test]
    fn single_alu_node_never_wins() {
        let (ctx, [_, _, _, _, sum]) = mac_ctx();
        let cut = cut_of(&ctx, &[sum]);
        let merit = estimate_merit(ctx.dfg(), &cut, 2, 1);
        assert_eq!(merit.software_cycles, 1);
        assert_eq!(merit.hardware_cycles, 1);
        assert_eq!(merit.saved_cycles, 0);
        assert!((merit.speedup() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wide_cuts_pay_transfer_overhead() {
        // Eight independent adds merged pairwise: many inputs, few levels.
        let mut b = DfgBuilder::new("wide");
        let inputs: Vec<NodeId> = (0..8).map(|i| b.input(format!("i{i}"))).collect();
        let l1: Vec<NodeId> = inputs
            .chunks(2)
            .map(|p| b.node(Operation::Add, p))
            .collect();
        let l2: Vec<NodeId> = l1.chunks(2).map(|p| b.node(Operation::Xor, p)).collect();
        let root = b.node(Operation::Or, &l2);
        b.mark_output(root);
        let ctx = EnumContext::new(b.build().unwrap());
        let everything: Vec<NodeId> = l1.iter().chain(&l2).chain([&root]).copied().collect();
        let cut = cut_of(&ctx, &everything);
        let merit2 = estimate_merit(ctx.dfg(), &cut, 2, 1);
        let merit8 = estimate_merit(ctx.dfg(), &cut, 8, 1);
        assert!(
            merit8.hardware_cycles < merit2.hardware_cycles,
            "more ports means fewer transfer cycles"
        );
        assert!(merit8.saved_cycles > 0);
    }

    #[test]
    fn merit_is_defined_for_every_enumerated_cut() {
        let (ctx, _) = mac_ctx();
        let all = exhaustive_cuts(&ctx, &Constraints::new(4, 2).unwrap(), true);
        for cut in &all.cuts {
            let merit = estimate_merit(ctx.dfg(), cut, 2, 1);
            assert!(merit.hardware_cycles >= 1);
            assert_eq!(
                merit.saved_cycles,
                merit.software_cycles.saturating_sub(merit.hardware_cycles)
            );
        }
    }

    #[test]
    fn zero_ports_degenerate_case() {
        let (ctx, [_, _, _, mul, sum]) = mac_ctx();
        let cut = cut_of(&ctx, &[mul, sum]);
        let merit = estimate_merit(ctx.dfg(), &cut, 0, 0);
        assert!(
            merit.hardware_cycles >= 4,
            "every operand transferred separately"
        );
    }
}
