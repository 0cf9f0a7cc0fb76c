//! A dense, fixed-capacity bit set over node indices.
//!
//! §5.4 of the paper stresses that careful, cache-friendly data structures are what make
//! the enumeration practical; all per-node set operations in this workspace (cut bodies,
//! input/output sets, reachability rows, dominator seed sets) use this representation.

use std::fmt;

use crate::node::NodeId;

const WORD_BITS: usize = 64;

/// A dense bit set of node indices with a fixed capacity.
///
/// The capacity is set at construction time to the number of vertices of the graph the
/// set refers to (possibly including the artificial source and sink). All operations
/// except iteration are `O(capacity / 64)` or `O(1)`.
///
/// # Example
///
/// ```
/// use ise_graph::{DenseNodeSet, NodeId};
///
/// let mut s = DenseNodeSet::new(10);
/// s.insert(NodeId::new(3));
/// s.insert(NodeId::new(7));
/// assert!(s.contains(NodeId::new(3)));
/// assert_eq!(s.len(), 2);
/// let ids: Vec<_> = s.iter().collect();
/// assert_eq!(ids, vec![NodeId::new(3), NodeId::new(7)]);
/// ```
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct DenseNodeSet {
    words: Vec<u64>,
    capacity: usize,
}

impl DenseNodeSet {
    /// Creates an empty set able to hold node indices `0..capacity`.
    pub fn new(capacity: usize) -> Self {
        DenseNodeSet {
            words: vec![0; capacity.div_ceil(WORD_BITS)],
            capacity,
        }
    }

    /// Creates a set containing every index in `0..capacity`.
    pub fn full(capacity: usize) -> Self {
        let mut s = Self::new(capacity);
        for i in 0..capacity {
            s.insert(NodeId::from_index(i));
        }
        s
    }

    /// Creates a set with the given capacity containing the provided nodes.
    ///
    /// # Panics
    ///
    /// Panics if any node index is `>= capacity`.
    pub fn from_nodes(capacity: usize, nodes: impl IntoIterator<Item = NodeId>) -> Self {
        let mut s = Self::new(capacity);
        for n in nodes {
            s.insert(n);
        }
        s
    }

    /// The capacity (exclusive upper bound on node indices) of this set.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether the set contains no elements.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Number of elements in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether `node` is a member of the set.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= self.capacity()`.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        assert!(
            i < self.capacity,
            "node {node} out of set capacity {}",
            self.capacity
        );
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Inserts `node`; returns `true` if it was not already present.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= self.capacity()`.
    #[inline]
    pub fn insert(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(
            i < self.capacity,
            "node {node} out of set capacity {}",
            self.capacity
        );
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let fresh = *word & mask == 0;
        *word |= mask;
        fresh
    }

    /// Removes `node`; returns `true` if it was present.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= self.capacity()`.
    #[inline]
    pub fn remove(&mut self, node: NodeId) -> bool {
        let i = node.index();
        assert!(
            i < self.capacity,
            "node {node} out of set capacity {}",
            self.capacity
        );
        let word = &mut self.words[i / WORD_BITS];
        let mask = 1u64 << (i % WORD_BITS);
        let present = *word & mask != 0;
        *word &= !mask;
        present
    }

    /// Removes every element.
    pub fn clear(&mut self) {
        self.words.iter_mut().for_each(|w| *w = 0);
    }

    /// In-place union with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn union_with(&mut self, other: &DenseNodeSet) {
        assert_eq!(self.capacity, other.capacity, "capacity mismatch in union");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// In-place intersection with `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn intersect_with(&mut self, other: &DenseNodeSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in intersection"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= b;
        }
    }

    /// In-place difference (`self \ other`).
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn difference_with(&mut self, other: &DenseNodeSet) {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in difference"
        );
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Removes every member of `other` from `self`, returning how many elements were
    /// actually removed. Word-level `self \ other`, the counting twin of
    /// [`DenseNodeSet::difference_with`].
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn remove_all(&mut self, other: &DenseNodeSet) -> usize {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in remove_all"
        );
        let mut removed = 0;
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            removed += (*a & b).count_ones() as usize;
            *a &= !b;
        }
        removed
    }

    /// The raw 64-bit words backing the set, low indices first.
    ///
    /// Two sets of the same capacity are equal iff their words are equal, so the word
    /// slice doubles as a packed, allocation-free identity key (hashable one word at a
    /// time); the enumeration engine uses it to de-duplicate cut bodies.
    #[inline]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Whether `self` and `other` share no element.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn is_disjoint(&self, other: &DenseNodeSet) -> bool {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in is_disjoint"
        );
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// Whether every element of `self` is also in `other`.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    pub fn is_subset(&self, other: &DenseNodeSet) -> bool {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in is_subset"
        );
        self.words
            .iter()
            .zip(&other.words)
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterates over the members in increasing index order.
    pub fn iter(&self) -> Iter<'_> {
        Iter::new(&self.words)
    }

    /// Returns the members as a sorted vector of exactly their number, convenient for
    /// deterministic output.
    pub fn to_vec(&self) -> Vec<NodeId> {
        let mut nodes = Vec::with_capacity(self.len());
        nodes.extend(self.iter());
        nodes
    }
}

impl fmt::Debug for DenseNodeSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

impl FromIterator<NodeId> for DenseNodeSet {
    /// Builds a set whose capacity is one more than the largest inserted index.
    fn from_iter<T: IntoIterator<Item = NodeId>>(iter: T) -> Self {
        let nodes: Vec<NodeId> = iter.into_iter().collect();
        let capacity = nodes.iter().map(|n| n.index() + 1).max().unwrap_or(0);
        Self::from_nodes(capacity, nodes)
    }
}

impl Extend<NodeId> for DenseNodeSet {
    fn extend<T: IntoIterator<Item = NodeId>>(&mut self, iter: T) {
        for n in iter {
            self.insert(n);
        }
    }
}

impl<'a> IntoIterator for &'a DenseNodeSet {
    type Item = NodeId;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// A borrowed, read-only node set: one row of a flat bit matrix, such as the rows
/// of [`crate::Reachability`]. It has the same word layout as a [`DenseNodeSet`] of
/// the same capacity, so the two compare word by word.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_graph::{DfgBuilder, Operation, Reachability, RootedDfg};
///
/// let mut b = DfgBuilder::new("bb");
/// let a = b.input("a");
/// let x = b.node(Operation::Not, &[a]);
/// let y = b.node(Operation::Shl, &[x]);
/// let rooted = RootedDfg::new(b.build()?);
/// let reach = Reachability::compute(&rooted);
///
/// let row = reach.ancestors(y);
/// assert!(row.contains(x));
/// assert_eq!(row.iter().collect::<Vec<_>>(), vec![a, x, rooted.source()]);
/// let mut body = rooted.node_set();
/// body.insert(y);
/// assert!(row.is_disjoint(&body));
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct NodeRow<'a> {
    words: &'a [u64],
    capacity: usize,
}

impl<'a> NodeRow<'a> {
    /// Wraps `words` (low indices first) as a set of capacity `capacity`; `words` must
    /// hold exactly `capacity.div_ceil(64)` words with no bit set at or past
    /// `capacity`.
    ///
    /// # Panics
    ///
    /// Panics if the word count does not match the capacity.
    #[inline]
    pub(crate) fn new(words: &'a [u64], capacity: usize) -> Self {
        assert_eq!(
            words.len(),
            capacity.div_ceil(WORD_BITS),
            "row width does not match capacity {capacity}"
        );
        NodeRow { words, capacity }
    }

    /// The capacity (exclusive upper bound on node indices) of the row.
    #[inline]
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Whether `node` is a member of the row.
    ///
    /// # Panics
    ///
    /// Panics if `node.index() >= self.capacity()`.
    #[inline]
    pub fn contains(&self, node: NodeId) -> bool {
        let i = node.index();
        assert!(
            i < self.capacity,
            "node {node} out of set capacity {}",
            self.capacity
        );
        self.words[i / WORD_BITS] & (1u64 << (i % WORD_BITS)) != 0
    }

    /// Whether the row and `other` share no element.
    ///
    /// # Panics
    ///
    /// Panics if the capacities differ.
    #[inline]
    pub fn is_disjoint(&self, other: &DenseNodeSet) -> bool {
        assert_eq!(
            self.capacity, other.capacity,
            "capacity mismatch in is_disjoint"
        );
        self.words.iter().zip(&other.words).all(|(a, b)| a & b == 0)
    }

    /// The raw 64-bit words of the row, low indices first.
    #[inline]
    pub fn words(&self) -> &'a [u64] {
        self.words
    }

    /// Iterates over the members in increasing index order.
    #[inline]
    pub fn iter(&self) -> Iter<'a> {
        Iter::new(self.words)
    }
}

impl fmt::Debug for NodeRow<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.iter()).finish()
    }
}

/// Iterator over the members of a [`DenseNodeSet`] or a [`NodeRow`], produced by
/// their `iter` methods.
pub struct Iter<'a> {
    words: &'a [u64],
    word_index: usize,
    current: u64,
}

impl<'a> Iter<'a> {
    fn new(words: &'a [u64]) -> Self {
        Iter {
            words,
            word_index: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for Iter<'_> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros() as usize;
                self.current &= self.current - 1;
                return Some(NodeId::from_index(self.word_index * WORD_BITS + bit));
            }
            self.word_index += 1;
            if self.word_index >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_index];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn n(i: usize) -> NodeId {
        NodeId::from_index(i)
    }

    #[test]
    fn insert_contains_remove() {
        let mut s = DenseNodeSet::new(130);
        assert!(s.is_empty());
        assert!(s.insert(n(0)));
        assert!(s.insert(n(63)));
        assert!(s.insert(n(64)));
        assert!(s.insert(n(129)));
        assert!(!s.insert(n(129)));
        assert_eq!(s.len(), 4);
        assert!(s.contains(n(63)));
        assert!(!s.contains(n(62)));
        assert!(s.remove(n(63)));
        assert!(!s.remove(n(63)));
        assert_eq!(s.len(), 3);
    }

    #[test]
    fn set_algebra() {
        let a = DenseNodeSet::from_nodes(100, [n(1), n(2), n(3), n(70)]);
        let b = DenseNodeSet::from_nodes(100, [n(2), n(70), n(99)]);

        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u.to_vec(), vec![n(1), n(2), n(3), n(70), n(99)]);

        let mut i = a.clone();
        i.intersect_with(&b);
        assert_eq!(i.to_vec(), vec![n(2), n(70)]);

        let mut d = a.clone();
        d.difference_with(&b);
        assert_eq!(d.to_vec(), vec![n(1), n(3)]);

        assert!(i.is_subset(&a));
        assert!(i.is_subset(&b));
        assert!(!a.is_subset(&b));
        assert!(d.is_disjoint(&b));
        assert!(!a.is_disjoint(&b));
    }

    #[test]
    fn remove_all_counts_removed_members() {
        let mut a = DenseNodeSet::from_nodes(100, [n(1), n(2), n(3), n(70)]);
        let b = DenseNodeSet::from_nodes(100, [n(2), n(70), n(99)]);
        assert_eq!(a.remove_all(&b), 2);
        assert_eq!(a.to_vec(), vec![n(1), n(3)]);
        assert_eq!(a.remove_all(&b), 0);
    }

    #[test]
    fn words_expose_the_packed_representation() {
        let a = DenseNodeSet::from_nodes(130, [n(0), n(64), n(129)]);
        assert_eq!(a.words().len(), 3);
        assert_eq!(a.words()[0], 1);
        assert_eq!(a.words()[1], 1);
        assert_eq!(a.words()[2], 1 << 1);
        let b = DenseNodeSet::from_nodes(130, [n(0), n(64), n(129)]);
        assert_eq!(a.words(), b.words());
    }

    #[test]
    fn iteration_order_is_sorted() {
        let s = DenseNodeSet::from_nodes(200, [n(150), n(3), n(64), n(65)]);
        assert_eq!(s.to_vec(), vec![n(3), n(64), n(65), n(150)]);
    }

    #[test]
    fn full_and_clear() {
        let mut s = DenseNodeSet::full(70);
        assert_eq!(s.len(), 70);
        s.clear();
        assert!(s.is_empty());
        assert_eq!(s.capacity(), 70);
    }

    #[test]
    fn from_iterator_sizes_capacity() {
        let s: DenseNodeSet = [n(5), n(2)].into_iter().collect();
        assert_eq!(s.capacity(), 6);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn extend_adds_members() {
        let mut s = DenseNodeSet::new(10);
        s.extend([n(1), n(2)]);
        assert_eq!(s.len(), 2);
    }

    #[test]
    #[should_panic(expected = "out of set capacity")]
    fn out_of_capacity_panics() {
        let s = DenseNodeSet::new(4);
        let _ = s.contains(n(4));
    }

    #[test]
    #[should_panic(expected = "capacity mismatch")]
    fn capacity_mismatch_panics() {
        let mut a = DenseNodeSet::new(4);
        let b = DenseNodeSet::new(5);
        a.union_with(&b);
    }

    #[test]
    fn debug_lists_members() {
        let s = DenseNodeSet::from_nodes(8, [n(1), n(7)]);
        assert_eq!(format!("{s:?}"), "{n1, n7}");
    }
}
