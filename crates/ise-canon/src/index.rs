//! The pattern index: streaming cuts into canonical-form groups.
//!
//! Coding turns each cut into a [`CodedCut`] on one per-cut path: the cut's raw
//! encoding ([`RawEncoder`], from the cut's own `I(S)`/`O(S)`), the
//! [`InterfaceGraph`] view over those words, the canonical code, the ops summary
//! and the merit. [`canonicalize_cuts`] takes that path for every cut;
//! [`canonicalize_cuts_memo`] takes it only on a memo miss and otherwise copies
//! the memo's answer into the same [`CodedCut`] shape.

use std::collections::HashMap;
use std::sync::Arc;

use ise_enum::{estimate_merit, Cut};
use ise_graph::{Dfg, InterfaceGraph, LatencyModel, RawEncoder};

use crate::canon::CanonicalCode;
use crate::memo::{CanonMemo, Ports};

/// One occurrence of a pattern: which block and which cut (by index into that
/// block's enumeration order) realizes it.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Occurrence {
    /// Index of the block in the order blocks were added to the index.
    pub block: usize,
    /// Index of the cut within the block's cut list.
    pub cut: usize,
}

/// Merit settings shared by grouping and global selection: the register-file ports
/// assumed for operand transfer (see `ise_enum::estimate_merit`). Savings are costed
/// under the one [`LatencyModel`].
#[derive(Clone, Debug)]
pub struct GroupConfig {
    /// Register-file read ports available per cycle.
    pub ports_in: usize,
    /// Register-file write ports available per cycle.
    pub ports_out: usize,
}

impl GroupConfig {
    /// Creates a configuration with the given port counts.
    pub fn new(ports_in: usize, ports_out: usize) -> Self {
        GroupConfig {
            ports_in,
            ports_out,
        }
    }
}

impl Default for GroupConfig {
    /// The paper's standard constraints: four read ports, two write ports.
    fn default() -> Self {
        GroupConfig::new(4, 2)
    }
}

/// One cut reduced to its pattern facts: the canonical code plus everything the
/// index aggregates. Produced by [`canonicalize_cuts`], consumed by
/// [`PatternIndex::add_coded_block`] — the split exists so batch drivers can
/// canonicalize blocks on worker threads and merge sequentially (deterministically)
/// afterwards.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CodedCut {
    /// The canonical code of the cut's interface graph.
    pub code: CanonicalCode,
    /// Body size in vertices.
    pub size: usize,
    /// Number of input operands.
    pub inputs: usize,
    /// Number of outputs.
    pub outputs: usize,
    /// Sorted, counted operation summary (e.g. `add+mul*2`). Shared, not copied:
    /// every cut [`canonicalize_cuts_memo`] answers from one memo entry points at
    /// that entry's string.
    pub ops: Arc<str>,
    /// Estimated cycles saved per execution of one occurrence.
    pub saved_cycles: u32,
}

/// Canonicalizes every cut of one block, `dfg`, under `config`.
///
/// Coding reads only the block's graph, never an `EnumContext`. Pure per-block
/// work — safe to run on worker threads; feed the results to
/// [`PatternIndex::add_coded_block`] in block order for deterministic grouping.
pub fn canonicalize_cuts(dfg: &Dfg, cuts: &[Cut], config: &GroupConfig) -> Vec<CodedCut> {
    let mut encoder = RawEncoder::new(dfg);
    cuts.iter()
        .map(|cut| {
            let mut raw = Vec::new();
            encoder.encode(dfg, cut, &mut raw);
            code_graph(dfg, cut, config, &InterfaceGraph::from_encoding(cut, raw))
        })
        .collect()
}

/// [`canonicalize_cuts`] through a shared [`CanonMemo`]: identical output (pinned
/// by tests), but the backtracking labeler runs only for raw graphs the memo has
/// never seen.
///
/// Per cut, the hot path is: encode the cut's interface into one reused buffer
/// ([`RawEncoder`], no allocation after the first cut), look the encoding up in
/// the memo, and on a hit copy the cached code and merit and share the cached ops
/// summary (an `Arc` clone, no string allocation) — neither the
/// [`InterfaceGraph`] nor the merit estimator's block-sized scratch is ever built.
/// A miss builds the graph from the words already encoded and codes it as
/// [`canonicalize_cuts`] does. Merit is cached per exact `(ports_in, ports_out)`
/// pair, because the memo may be shared across port configurations.
///
/// Caching merit by raw encoding is sound because equal encodings mean
/// *identical* interface graphs: `estimate_merit` is a function of the graph's
/// internal wiring and interface counts, so the cached value is bit-identical to
/// a recomputation — determinism, not just accuracy.
pub fn canonicalize_cuts_memo(
    dfg: &Dfg,
    cuts: &[Cut],
    config: &GroupConfig,
    memo: &CanonMemo,
) -> Vec<CodedCut> {
    let mut encoder = RawEncoder::new(dfg);
    let mut raw: Vec<u32> = Vec::new();
    let ports: Ports = (config.ports_in, config.ports_out);
    cuts.iter()
        .map(|cut| {
            encoder.encode(dfg, cut, &mut raw);
            match memo.lookup(&raw, ports) {
                Some(hit) => {
                    let saved = hit.saved_cycles.unwrap_or_else(|| {
                        let saved = saved_cycles(dfg, cut, config);
                        memo.record_merit(&raw, ports, saved);
                        saved
                    });
                    coded_cut(cut, hit.code, hit.ops, saved)
                }
                None => {
                    let graph = InterfaceGraph::from_encoding(cut, raw.clone());
                    let coded = code_graph(dfg, cut, config, &graph);
                    memo.insert(&raw, &coded.code, &coded.ops, ports, coded.saved_cycles);
                    coded
                }
            }
        })
        .collect()
}

/// Codes one cut from its pattern graph: the labeler, the ops summary and the merit.
fn code_graph(dfg: &Dfg, cut: &Cut, config: &GroupConfig, graph: &InterfaceGraph) -> CodedCut {
    let (code, saved) = (CanonicalCode::of(graph), saved_cycles(dfg, cut, config));
    coded_cut(cut, code, graph.ops_summary().into(), saved)
}

/// The cycles one occurrence of `cut` saves under `config`.
fn saved_cycles(dfg: &Dfg, cut: &Cut, config: &GroupConfig) -> u32 {
    estimate_merit(
        dfg,
        cut,
        &LatencyModel::default(),
        config.ports_in,
        config.ports_out,
    )
    .saved_cycles
}

fn coded_cut(cut: &Cut, code: CanonicalCode, ops: Arc<str>, saved_cycles: u32) -> CodedCut {
    CodedCut {
        code,
        size: cut.len(),
        inputs: cut.inputs().len(),
        outputs: cut.outputs().len(),
        ops,
        saved_cycles,
    }
}

/// One canonical pattern: its structural facts plus every occurrence recorded so far.
///
/// `saved_cycles` is a property of the *pattern*, not the occurrence: the merit
/// estimate depends only on the operation multiset, the internal wiring and the
/// interface port counts, all of which are isomorphism invariants (asserted in this
/// module's tests).
#[derive(Clone, Debug)]
pub struct PatternEntry {
    /// The canonical code keying this pattern.
    pub code: CanonicalCode,
    /// Body size in vertices.
    pub size: usize,
    /// Number of input operands.
    pub inputs: usize,
    /// Number of outputs.
    pub outputs: usize,
    /// Sorted, counted operation summary (e.g. `add+mul*2`).
    pub ops: String,
    /// Estimated cycles saved per execution of one occurrence.
    pub saved_cycles: u32,
    /// Every occurrence, in (block, cut) streaming order.
    pub occurrences: Vec<Occurrence>,
    /// Profile-weighted occurrence count: the sum of the owning blocks' weights
    /// (1.0 per occurrence when no profile is attached).
    pub weighted_count: f64,
}

impl PatternEntry {
    /// Number of occurrences (static frequency).
    pub fn static_count(&self) -> usize {
        self.occurrences.len()
    }

    /// Number of distinct blocks the pattern occurs in.
    pub fn distinct_blocks(&self) -> usize {
        // Occurrences stream in block order, so counting block transitions suffices.
        let mut blocks = 0;
        let mut last = usize::MAX;
        for occ in &self.occurrences {
            if occ.block != last {
                blocks += 1;
                last = occ.block;
            }
        }
        blocks
    }

    /// The first occurrence seen — the representative shown in reports.
    pub fn example(&self) -> Occurrence {
        self.occurrences[0]
    }

    /// Upper bound on the unweighted corpus-wide saving: every occurrence realized.
    pub fn potential_saved_cycles(&self) -> u64 {
        self.static_count() as u64 * u64::from(self.saved_cycles)
    }

    /// Upper bound on the profile-weighted corpus-wide saving.
    pub fn weighted_potential(&self) -> f64 {
        self.weighted_count * f64::from(self.saved_cycles)
    }
}

/// Groups streamed cuts by canonical code, recording per-pattern occurrence lists
/// and aggregate frequencies.
///
/// Blocks are added in corpus order; entries are created in first-seen order, so the
/// whole index is a deterministic function of the block sequence — independent of
/// how many threads produced the per-block cut lists or codes.
///
/// # Example
///
/// ```
/// use ise_canon::{GroupConfig, PatternIndex};
/// use ise_enum::{enumerate_cuts, Constraints};
/// use ise_graph::{DfgBuilder, Operation};
///
/// // Two blocks, each containing the same a*b+c datapath.
/// let mut index = PatternIndex::new(GroupConfig::default());
/// for name in ["first", "second"] {
///     let mut b = DfgBuilder::new(name);
///     let a = b.input("a");
///     let x = b.input("x");
///     let acc = b.input("acc");
///     let m = b.node(Operation::Mul, &[a, x]);
///     let s = b.node(Operation::Add, &[m, acc]);
///     b.mark_output(s);
///     let dfg = b.build().unwrap();
///     let cuts = enumerate_cuts(&dfg, &Constraints::new(3, 1).unwrap()).unwrap();
///     index.add_block(&dfg, &cuts.cuts, 1.0);
/// }
/// let mac = index
///     .entries()
///     .iter()
///     .find(|e| e.size == 2 && e.ops == "add+mul")
///     .expect("the MAC pattern recurs");
/// assert_eq!(mac.static_count(), 2);
/// assert_eq!(mac.distinct_blocks(), 2);
/// ```
#[derive(Clone, Debug)]
pub struct PatternIndex {
    config: GroupConfig,
    map: HashMap<CanonicalCode, usize>,
    entries: Vec<PatternEntry>,
    block_weights: Vec<f64>,
    total_cuts: usize,
}

impl PatternIndex {
    /// Creates an empty index using `config` for merit estimates.
    pub fn new(config: GroupConfig) -> Self {
        PatternIndex {
            config,
            map: HashMap::new(),
            entries: Vec::new(),
            block_weights: Vec::new(),
            total_cuts: 0,
        }
    }

    /// Canonicalizes and records every cut of the next block; returns the block's
    /// index. `weight` is the block's profile weight (1.0 without a profile).
    pub fn add_block(&mut self, dfg: &Dfg, cuts: &[Cut], weight: f64) -> usize {
        let coded = canonicalize_cuts(dfg, cuts, &self.config);
        self.add_coded_block(coded, weight)
    }

    /// Records a block whose cuts were canonicalized elsewhere (possibly on another
    /// thread); returns the block's index. Blocks must be added in corpus order for
    /// the index to be deterministic.
    pub fn add_coded_block(&mut self, coded: Vec<CodedCut>, weight: f64) -> usize {
        let block = self.block_weights.len();
        self.block_weights.push(weight);
        for (cut_index, coded_cut) in coded.into_iter().enumerate() {
            self.total_cuts += 1;
            let entry_index = *self.map.entry(coded_cut.code.clone()).or_insert_with(|| {
                self.entries.push(PatternEntry {
                    code: coded_cut.code.clone(),
                    size: coded_cut.size,
                    inputs: coded_cut.inputs,
                    outputs: coded_cut.outputs,
                    ops: coded_cut.ops.to_string(),
                    saved_cycles: coded_cut.saved_cycles,
                    occurrences: Vec::new(),
                    weighted_count: 0.0,
                });
                self.entries.len() - 1
            });
            let entry = &mut self.entries[entry_index];
            debug_assert_eq!(
                entry.saved_cycles, coded_cut.saved_cycles,
                "merit must be an isomorphism invariant"
            );
            entry.occurrences.push(Occurrence {
                block,
                cut: cut_index,
            });
            entry.weighted_count += weight;
        }
        block
    }

    /// The patterns in first-seen order.
    pub fn entries(&self) -> &[PatternEntry] {
        &self.entries
    }

    /// Number of distinct patterns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether no cut has been recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Number of blocks added so far.
    pub fn num_blocks(&self) -> usize {
        self.block_weights.len()
    }

    /// Total number of cuts streamed into the index.
    pub fn total_cuts(&self) -> usize {
        self.total_cuts
    }

    /// The profile weight block `block` was added with.
    pub fn block_weight(&self, block: usize) -> f64 {
        self.block_weights[block]
    }

    /// Entry indices ranked by descending profile-weighted potential saving,
    /// first-seen order breaking ties — the deterministic report and selection order.
    pub fn ranked(&self) -> Vec<usize> {
        let mut order: Vec<usize> = (0..self.entries.len()).collect();
        order.sort_by(|&a, &b| {
            self.entries[b]
                .weighted_potential()
                .total_cmp(&self.entries[a].weighted_potential())
                .then_with(|| a.cmp(&b))
        });
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_enum::{enumerate_cuts, Constraints};
    use ise_graph::{DfgBuilder, Operation};

    /// A block holding `copies` MAC datapaths plus one unique xor-shift tail.
    fn mac_block(name: &str, copies: usize) -> (Dfg, Vec<Cut>) {
        let mut b = DfgBuilder::new(name);
        for i in 0..copies {
            let a = b.input(format!("a{i}"));
            let x = b.input(format!("x{i}"));
            let acc = b.input(format!("acc{i}"));
            let m = b.node(Operation::Mul, &[a, x]);
            let s = b.node(Operation::Add, &[m, acc]);
            b.mark_output(s);
        }
        let p = b.input("p");
        let q = b.node(Operation::Xor, &[p, p]);
        let r = b.node(Operation::Shl, &[q]);
        b.mark_output(r);
        let dfg = b.build().unwrap();
        let cuts = enumerate_cuts(&dfg, &Constraints::new(3, 1).unwrap()).unwrap();
        (dfg, cuts.cuts)
    }

    #[test]
    fn recurring_patterns_group_within_and_across_blocks() {
        let mut index = PatternIndex::new(GroupConfig::new(2, 1));
        let (dfg, cuts) = mac_block("two-macs", 2);
        index.add_block(&dfg, &cuts, 1.0);
        let (dfg, cuts) = mac_block("one-mac", 1);
        index.add_block(&dfg, &cuts, 3.0);

        let mac = index
            .entries()
            .iter()
            .find(|e| e.ops == "add+mul")
            .expect("MAC pattern present");
        assert_eq!(mac.static_count(), 3, "two in block 0, one in block 1");
        assert_eq!(mac.distinct_blocks(), 2);
        assert_eq!(mac.size, 2);
        assert_eq!(mac.inputs, 3);
        assert_eq!(mac.outputs, 1);
        assert!(mac.saved_cycles > 0);
        assert_eq!(mac.example().block, 0);
        assert!((mac.weighted_count - 5.0).abs() < 1e-9, "1 + 1 + 3");
        assert_eq!(
            mac.potential_saved_cycles(),
            3 * u64::from(mac.saved_cycles)
        );

        let xorshift = index
            .entries()
            .iter()
            .find(|e| e.ops == "shl+xor")
            .expect("tail pattern present");
        assert_eq!(
            xorshift.distinct_blocks(),
            2,
            "the tail recurs across blocks"
        );

        assert_eq!(index.num_blocks(), 2);
        assert!(index.total_cuts() >= index.len());
        assert!(!index.is_empty());
        assert!((index.block_weight(1) - 3.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_style_coded_merge_equals_direct_adds() {
        let blocks = [mac_block("a", 2), mac_block("b", 1), mac_block("c", 3)];
        let config = GroupConfig::new(2, 1);
        let mut direct = PatternIndex::new(config.clone());
        for (dfg, cuts) in &blocks {
            direct.add_block(dfg, cuts, 1.0);
        }
        // Canonicalize "on workers" (out of order), merge in block order.
        let mut coded: Vec<Vec<CodedCut>> = blocks
            .iter()
            .rev()
            .map(|(dfg, cuts)| canonicalize_cuts(dfg, cuts, &config))
            .collect();
        coded.reverse();
        let mut merged = PatternIndex::new(config);
        for block in coded {
            merged.add_coded_block(block, 1.0);
        }
        assert_eq!(direct.len(), merged.len());
        for (d, m) in direct.entries().iter().zip(merged.entries()) {
            assert_eq!(d.code, m.code);
            assert_eq!(d.occurrences, m.occurrences);
        }
    }

    #[test]
    fn ranking_is_by_weighted_potential_then_first_seen() {
        let mut index = PatternIndex::new(GroupConfig::new(2, 1));
        let (dfg, cuts) = mac_block("heavy", 3);
        index.add_block(&dfg, &cuts, 10.0);
        let ranked = index.ranked();
        assert_eq!(ranked.len(), index.len());
        let potentials: Vec<f64> = ranked
            .iter()
            .map(|&i| index.entries()[i].weighted_potential())
            .collect();
        for pair in potentials.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
    }
}
