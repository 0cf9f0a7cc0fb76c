//! Graphviz (DOT) export of data-flow graphs, with optional cut highlighting.

use std::fmt::Write as _;

use crate::bitset::DenseNodeSet;
use crate::graph::Dfg;
use crate::interface::CutLike;
use crate::node::NodeId;

/// Rendering options for [`DotOptions::render`].
///
/// The defaults reproduce the visual conventions of Figure 1 of the paper: cut members
/// are shaded, cut outputs get a double border, cut inputs are filled grey, and
/// forbidden nodes are drawn as boxes.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_graph::{DfgBuilder, DotOptions, Operation};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.node(Operation::Not, &[a]);
/// let dfg = b.build()?;
/// let dot = DotOptions::new().render(&dfg);
/// assert!(dot.starts_with("digraph"));
/// assert!(dot.contains("not"));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, Default)]
pub struct DotOptions {
    cut: Option<DenseNodeSet>,
    inputs: Option<DenseNodeSet>,
    outputs: Option<DenseNodeSet>,
}

impl DotOptions {
    /// Creates options with no highlighting.
    pub fn new() -> Self {
        Self::default()
    }

    /// Highlights the members of a cut (shaded background).
    #[must_use]
    pub fn with_cut(mut self, cut: DenseNodeSet) -> Self {
        self.cut = Some(cut);
        self
    }

    /// Highlights the inputs of a cut (grey fill, as in Figure 1 of the paper).
    #[must_use]
    pub fn with_inputs(mut self, inputs: DenseNodeSet) -> Self {
        self.inputs = Some(inputs);
        self
    }

    /// Highlights the outputs of a cut (double border, as in Figure 1 of the paper).
    #[must_use]
    pub fn with_outputs(mut self, outputs: DenseNodeSet) -> Self {
        self.outputs = Some(outputs);
        self
    }

    /// Highlights a whole cut at once: body shaded, inputs filled, outputs
    /// double-bordered. May be called repeatedly to overlay several cuts (for example
    /// every selected ISE of a block); the highlight sets accumulate.
    ///
    /// # Panics
    ///
    /// Panics if cuts from differently sized graphs are mixed.
    #[must_use]
    pub fn highlight(mut self, cut: &impl CutLike) -> Self {
        let capacity = cut.body_set().capacity();
        let union = |slot: &mut Option<DenseNodeSet>, add: &DenseNodeSet| match slot {
            Some(set) => set.union_with(add),
            None => *slot = Some(add.clone()),
        };
        union(&mut self.cut, cut.body_set());
        union(
            &mut self.inputs,
            &DenseNodeSet::from_nodes(capacity, cut.input_nodes().iter().copied()),
        );
        union(
            &mut self.outputs,
            &DenseNodeSet::from_nodes(capacity, cut.output_nodes().iter().copied()),
        );
        self
    }

    /// Renders `dfg` as a DOT digraph.
    pub fn render(&self, dfg: &Dfg) -> String {
        let mut out = String::new();
        let _ = writeln!(out, "digraph \"{}\" {{", escape(dfg.name()));
        let _ = writeln!(out, "  rankdir=TB;");
        let _ = writeln!(out, "  node [fontname=\"monospace\"];");
        for id in dfg.node_ids() {
            let _ = writeln!(out, "  {} [{}];", id, self.node_attrs(dfg, id));
        }
        for (from, to) in dfg.edges() {
            let _ = writeln!(out, "  {from} -> {to};");
        }
        let _ = writeln!(out, "}}");
        out
    }

    fn node_attrs(&self, dfg: &Dfg, id: NodeId) -> String {
        let node = dfg.node(id);
        let label = match node.name() {
            Some(name) => format!("{}\\n{}", node.op(), escape(name)),
            None => format!("{}\\n{}", node.op(), id),
        };
        let mut attrs = vec![format!("label=\"{label}\"")];
        if dfg.is_forbidden(id) {
            attrs.push("shape=box".to_string());
        } else {
            attrs.push("shape=ellipse".to_string());
        }
        let in_cut = self.cut.as_ref().is_some_and(|s| s.contains(id));
        let is_input = self.inputs.as_ref().is_some_and(|s| s.contains(id));
        let is_output = self.outputs.as_ref().is_some_and(|s| s.contains(id));
        if is_output {
            attrs.push("peripheries=2".to_string());
        }
        if is_input {
            attrs.push("style=filled".to_string());
            attrs.push("fillcolor=gray70".to_string());
        } else if in_cut {
            attrs.push("style=filled".to_string());
            attrs.push("fillcolor=lightyellow".to_string());
        }
        attrs.join(", ")
    }
}

fn escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::DfgBuilder;
    use crate::interface::tests::TestCut;
    use crate::op::Operation;

    fn sample() -> (Dfg, Vec<NodeId>) {
        let mut b = DfgBuilder::new("dot \"test\"");
        let a = b.input("a");
        let ld = b.node(Operation::Load, &[a]);
        let x = b.named_node(Operation::Add, &[ld, a], Some("x"));
        let dfg = b.build().unwrap();
        (dfg, vec![a, ld, x])
    }

    #[test]
    fn renders_all_nodes_and_edges() {
        let (dfg, nodes) = sample();
        let dot = DotOptions::new().render(&dfg);
        for id in &nodes {
            assert!(dot.contains(&format!("  {id} [")), "missing node {id}");
        }
        assert_eq!(dot.matches(" -> ").count(), dfg.edge_count());
        assert!(dot.contains("digraph \"dot \\\"test\\\"\""));
    }

    #[test]
    fn forbidden_nodes_are_boxes() {
        let (dfg, nodes) = sample();
        let dot = DotOptions::new().render(&dfg);
        let load_line = dot
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{} [", nodes[1])))
            .unwrap();
        assert!(load_line.contains("shape=box"));
    }

    #[test]
    fn highlighting_marks_cut_inputs_and_outputs() {
        let (dfg, nodes) = sample();
        let cut = DenseNodeSet::from_nodes(dfg.len(), [nodes[2]]);
        let inputs = DenseNodeSet::from_nodes(dfg.len(), [nodes[1], nodes[0]]);
        let outputs = DenseNodeSet::from_nodes(dfg.len(), [nodes[2]]);
        let dot = DotOptions::new()
            .with_cut(cut)
            .with_inputs(inputs)
            .with_outputs(outputs)
            .render(&dfg);
        let out_line = dot
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{} [", nodes[2])))
            .unwrap();
        assert!(out_line.contains("peripheries=2"));
        let in_line = dot
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{} [", nodes[1])))
            .unwrap();
        assert!(in_line.contains("gray70"));
    }

    #[test]
    fn highlight_overlays_whole_cuts_and_accumulates() {
        let (dfg, nodes) = sample();
        let first = TestCut::new(dfg.len(), &[nodes[2]], &[nodes[1]], &[nodes[2]]);
        let second = TestCut::new(dfg.len(), &[nodes[1]], &[nodes[0]], &[nodes[1]]);
        let dot = DotOptions::new()
            .highlight(&first)
            .highlight(&second)
            .render(&dfg);
        for id in [nodes[1], nodes[2]] {
            let line = dot
                .lines()
                .find(|l| l.trim_start().starts_with(&format!("{id} [")))
                .unwrap();
            assert!(line.contains("peripheries=2"), "{line}");
        }
        let input_line = dot
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{} [", nodes[0])))
            .unwrap();
        assert!(input_line.contains("gray70"), "{input_line}");
    }

    #[test]
    fn named_nodes_use_their_name_in_label() {
        let (dfg, nodes) = sample();
        let dot = DotOptions::new().render(&dfg);
        let line = dot
            .lines()
            .find(|l| l.trim_start().starts_with(&format!("{} [", nodes[2])))
            .unwrap();
        assert!(line.contains("add\\nx"));
    }
}
