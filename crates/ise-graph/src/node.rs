//! Node identifiers and node payloads.

use std::fmt;

use crate::op::Operation;

/// Identifier of a vertex inside a [`crate::Dfg`].
///
/// Node ids are dense indices assigned in insertion order by [`crate::DfgBuilder`]; they
/// double as indices into the per-node arrays kept by the graph, the reachability
/// matrices and the dominator engines, which is why the type is a thin `u32` newtype
/// rather than an opaque handle.
///
/// # Example
///
/// ```
/// use ise_graph::NodeId;
///
/// let id = NodeId::new(3);
/// assert_eq!(id.index(), 3);
/// assert_eq!(format!("{id}"), "n3");
/// ```
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NodeId(u32);

impl NodeId {
    /// Creates a node id from a raw dense index.
    #[inline]
    pub const fn new(index: u32) -> Self {
        NodeId(index)
    }

    /// Creates a node id from a `usize` index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in a `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index overflows u32"))
    }

    /// Returns the dense index of this node, usable to index per-node arrays.
    #[inline]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// A vertex of the data-flow graph: an operation plus an optional symbolic name.
///
/// The name is purely informational (it shows up in DOT dumps and error messages); the
/// enumeration algorithms only look at the [`Operation`] and the graph topology.
///
/// # Example
///
/// ```
/// use ise_graph::{Node, Operation};
///
/// let n = Node::new(Operation::Add).with_name("sum");
/// assert_eq!(n.op(), Operation::Add);
/// assert_eq!(n.name(), Some("sum"));
/// ```
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct Node {
    op: Operation,
    name: Option<String>,
}

impl Node {
    /// Creates a node carrying `op` and no name.
    pub fn new(op: Operation) -> Self {
        Node { op, name: None }
    }

    /// Returns the same node with a symbolic name attached.
    #[must_use]
    pub fn with_name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// The operation computed by this node.
    pub fn op(&self) -> Operation {
        self.op
    }

    /// The symbolic name of this node, if one was attached.
    pub fn name(&self) -> Option<&str> {
        self.name.as_deref()
    }
}

impl From<Operation> for Node {
    fn from(op: Operation) -> Self {
        Node::new(op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_roundtrip() {
        let id = NodeId::from_index(42);
        assert_eq!(id.index(), 42);
        assert_eq!(usize::from(id), 42);
        assert_eq!(NodeId::new(42), id);
    }

    #[test]
    fn node_id_ordering_follows_index() {
        assert!(NodeId::new(1) < NodeId::new(2));
        assert_eq!(NodeId::default(), NodeId::new(0));
    }

    #[test]
    fn node_display_is_compact() {
        assert_eq!(format!("{}", NodeId::new(7)), "n7");
        assert_eq!(format!("{:?}", NodeId::new(7)), "n7");
    }

    #[test]
    fn node_carries_operation_and_name() {
        let n = Node::new(Operation::Xor);
        assert_eq!(n.op(), Operation::Xor);
        assert_eq!(n.name(), None);
        let n = n.with_name("t1");
        assert_eq!(n.name(), Some("t1"));
    }

    #[test]
    fn node_from_operation() {
        let n: Node = Operation::Load.into();
        assert_eq!(n.op(), Operation::Load);
    }

    #[test]
    #[should_panic(expected = "overflows")]
    fn node_id_from_huge_index_panics() {
        let _ = NodeId::from_index(usize::MAX);
    }
}
