//! Corpus-level ISE selection: one custom instruction credited with all of its
//! occurrences.
//!
//! The per-block greedy selector (`ise_enum::select_ises`) values a cut by its
//! saving in one block; a cut recurring in fifteen blocks is worth no more than one
//! that appears once. This module selects *patterns* instead: the merit of a pattern
//! is `occurrences × saved_cycles`, with overlap resolved per block (two placements
//! may not share a vertex), following the grouping flows of ISEGEN and ARISE.
//!
//! The algorithm is lazy greedy: patterns are ranked in a max-heap by an upper
//! bound on their marginal benefit (all occurrences realizable); the top pattern's
//! true marginal benefit against the current per-block used sets is computed, and
//! the pattern is committed when that true value still beats every other bound —
//! otherwise the bound is tightened, the pattern goes back into the heap, and the
//! next top is taken. Marginal benefits only shrink as
//! placements accumulate, so this matches eager greedy exactly while skipping most
//! recomputation. Ties break toward first-seen patterns, making the selection a
//! deterministic function of the index.

use std::cmp::{Ordering, Reverse};
use std::collections::{BTreeMap, BinaryHeap};

use ise_enum::Cut;
use ise_graph::DenseNodeSet;

use crate::index::{Occurrence, PatternIndex};

/// One selected pattern with its realized placements.
#[derive(Clone, Debug)]
pub struct GlobalChoice {
    /// Index of the pattern in [`PatternIndex::entries`].
    pub entry: usize,
    /// The occurrences actually placed (non-overlapping per block), in streaming
    /// order.
    pub placed: Vec<Occurrence>,
    /// Unweighted cycles saved per full-corpus execution: `placed × saved_cycles`.
    pub saved_cycles: u64,
    /// Profile-weighted saving: `Σ block_weight × saved_cycles` over placements.
    pub weighted_saved_cycles: f64,
}

/// The outcome of corpus-level selection.
#[derive(Clone, Debug, Default)]
pub struct GlobalSelection {
    /// Chosen patterns in selection order (descending marginal benefit).
    pub chosen: Vec<GlobalChoice>,
    /// Total unweighted cycles saved per full-corpus execution.
    pub total_saved_cycles: u64,
    /// Total profile-weighted saving.
    pub weighted_saved_cycles: f64,
    /// Cycles saved within each block, indexed like the corpus.
    pub per_block_saved_cycles: Vec<u64>,
}

/// Selects up to `max_patterns` patterns (0 = unlimited) by corpus-wide benefit.
///
/// `block_cuts[b]` must be the cut list of block `b` exactly as it was streamed into
/// `index` — occurrences are resolved through it for overlap checking.
///
/// Unlike per-block selection, a selected pattern is placed at *every*
/// non-overlapping occurrence: reusing an already implemented instruction at another
/// site costs no additional hardware, so only the number of distinct patterns is
/// budgeted.
///
/// # Panics
///
/// Panics if `block_cuts` does not match the number of blocks in the index.
///
/// # Example
///
/// ```
/// use ise_canon::{select_ises_global, GroupConfig, PatternIndex};
/// use ise_enum::{enumerate_cuts, Constraints};
/// use ise_graph::{DfgBuilder, Operation};
///
/// let mut index = PatternIndex::new(GroupConfig::default());
/// let mut all_cuts = Vec::new();
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
///     all_cuts.push(cuts.cuts);
/// }
/// let views: Vec<&[_]> = all_cuts.iter().map(Vec::as_slice).collect();
/// let selection = select_ises_global(&index, &views, 1);
/// assert_eq!(selection.chosen.len(), 1);
/// // The one chosen instruction is credited in both blocks.
/// assert_eq!(selection.chosen[0].placed.len(), 2);
/// ```
pub fn select_ises_global(
    index: &PatternIndex,
    block_cuts: &[&[Cut]],
    max_patterns: usize,
) -> GlobalSelection {
    assert_eq!(
        block_cuts.len(),
        index.num_blocks(),
        "block_cuts must cover every block of the index"
    );
    let entries = index.entries();
    // The live patterns, each once, keyed by its current bound: the top is the
    // highest bound, first-seen on ties. A pattern leaves when it is evaluated and
    // goes back with its tightened bound unless it is committed or worth nothing.
    let mut heap: BinaryHeap<Ranked> = entries
        .iter()
        .enumerate()
        .map(|(e, entry)| Ranked::new(entry.weighted_potential(), e))
        .filter(|r| r.bound > 0.0)
        .collect();
    let mut used: Vec<Option<DenseNodeSet>> = vec![None; block_cuts.len()];
    let mut selection = GlobalSelection {
        per_block_saved_cycles: vec![0; block_cuts.len()],
        ..GlobalSelection::default()
    };

    loop {
        if max_patterns > 0 && selection.chosen.len() == max_patterns {
            break;
        }
        let Some(top) = heap.pop() else { break };
        let e = top.entry();

        let (placed, overlay) = place(&entries[e].occurrences, block_cuts, &used);
        let weighted: f64 = placed
            .iter()
            .map(|occ| index.block_weight(occ.block()) * f64::from(entries[e].saved_cycles))
            .sum();
        // Marginal benefits only shrink, so `weighted` is the exact current value.
        // Commit only if it still ranks above every other bound (with no other
        // bound left, above 0). On a tie with another bound, eager greedy breaks
        // true-marginal ties toward the first-seen pattern, so a lower-index
        // runner-up is evaluated first: every deferral either tightens a bound
        // strictly or ends in a commit.
        let beaten = match heap.peek() {
            Some(runner_up) => Ranked::new(weighted, e) < *runner_up,
            None => weighted < 0.0,
        };
        if beaten {
            if weighted > 0.0 {
                heap.push(Ranked::new(weighted, e));
            }
            continue;
        }
        if placed.is_empty() || entries[e].saved_cycles == 0 {
            continue;
        }
        for (block, set) in overlay {
            used[block] = Some(set);
        }
        let saved = placed.len() as u64 * u64::from(entries[e].saved_cycles);
        for occ in &placed {
            selection.per_block_saved_cycles[occ.block()] += u64::from(entries[e].saved_cycles);
        }
        selection.total_saved_cycles += saved;
        selection.weighted_saved_cycles += weighted;
        selection.chosen.push(GlobalChoice {
            entry: e,
            placed,
            saved_cycles: saved,
            weighted_saved_cycles: weighted,
        });
    }
    selection
}

/// A heap key: a pattern's bound on its marginal benefit and its entry index,
/// ranked by bound and then by lowest index. `total_cmp` is the numeric order on
/// the heap's positive bounds and on the non-negative benefits compared to them.
#[derive(Clone, Copy, Debug)]
struct Ranked {
    bound: f64,
    entry: Reverse<usize>,
}

impl Ranked {
    fn new(bound: f64, entry: usize) -> Self {
        Ranked {
            bound,
            entry: Reverse(entry),
        }
    }

    fn entry(self) -> usize {
        self.entry.0
    }
}

impl Ord for Ranked {
    fn cmp(&self, other: &Self) -> Ordering {
        self.bound
            .total_cmp(&other.bound)
            .then(self.entry.cmp(&other.entry))
    }
}

impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Ranked {}

/// Greedily places `occurrences` (in streaming order) against the per-block used
/// sets, without mutating them: returns the placements plus the updated sets of the
/// touched blocks.
fn place(
    occurrences: &[Occurrence],
    block_cuts: &[&[Cut]],
    used: &[Option<DenseNodeSet>],
) -> (Vec<Occurrence>, BTreeMap<usize, DenseNodeSet>) {
    let mut placed = Vec::new();
    let mut overlay: BTreeMap<usize, DenseNodeSet> = BTreeMap::new();
    for &occ in occurrences {
        let body = block_cuts[occ.block()][occ.cut()].body();
        let set = overlay.entry(occ.block()).or_insert_with(|| {
            used[occ.block()]
                .clone()
                .unwrap_or_else(|| DenseNodeSet::new(body.capacity()))
        });
        if body.is_disjoint(set) {
            set.union_with(body);
            placed.push(occ);
        }
    }
    (placed, overlay)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::GroupConfig;
    use ise_enum::{enumerate_cuts, select_ises, Constraints};
    use ise_graph::Dfg;
    use ise_graph::{DfgBuilder, Operation};
    use rand::{Rng, SeedableRng};

    /// The selection as two linear scans over every entry per iteration found it:
    /// the oracle for the heap-ordered [`select_ises_global`].
    fn select_by_scan(
        index: &PatternIndex,
        block_cuts: &[&[Cut]],
        max_patterns: usize,
    ) -> Vec<(usize, Vec<Occurrence>, f64)> {
        let entries = index.entries();
        let mut bound: Vec<f64> = entries
            .iter()
            .map(crate::index::PatternEntry::weighted_potential)
            .collect();
        let mut alive: Vec<bool> = bound.iter().map(|&b| b > 0.0).collect();
        let mut used: Vec<Option<DenseNodeSet>> = vec![None; block_cuts.len()];
        let mut chosen = Vec::new();
        loop {
            if max_patterns > 0 && chosen.len() == max_patterns {
                break;
            }
            let mut best: Option<usize> = None;
            for e in 0..entries.len() {
                if alive[e] && bound[e] > 0.0 && best.is_none_or(|b| bound[e] > bound[b]) {
                    best = Some(e);
                }
            }
            let Some(e) = best else { break };
            let (placed, overlay) = place(&entries[e].occurrences, block_cuts, &used);
            let weighted: f64 = placed
                .iter()
                .map(|occ| index.block_weight(occ.block()) * f64::from(entries[e].saved_cycles))
                .sum();
            let runner_up = (0..entries.len())
                .filter(|&o| o != e && alive[o])
                .map(|o| bound[o])
                .fold(0.0f64, f64::max);
            if weighted < runner_up {
                bound[e] = weighted;
                alive[e] = weighted > 0.0;
                continue;
            }
            if weighted == runner_up {
                let lowest_contender =
                    (0..entries.len()).find(|&o| alive[o] && bound[o] >= weighted);
                if lowest_contender != Some(e) {
                    bound[e] = weighted;
                    continue;
                }
            }
            alive[e] = false;
            if placed.is_empty() || entries[e].saved_cycles == 0 {
                continue;
            }
            for (block, set) in overlay {
                used[block] = Some(set);
            }
            chosen.push((e, placed, weighted));
        }
        chosen
    }

    /// Asserts that the heap selection picks what the scan oracle picks.
    fn assert_matches_scan(index: &PatternIndex, views: &[&[Cut]], max_patterns: usize) {
        let heap = select_ises_global(index, views, max_patterns);
        let picks: Vec<(usize, Vec<Occurrence>, f64)> = heap
            .chosen
            .into_iter()
            .map(|c| (c.entry, c.placed, c.weighted_saved_cycles))
            .collect();
        assert_eq!(
            picks,
            select_by_scan(index, views, max_patterns),
            "max_patterns={max_patterns}"
        );
    }

    /// Random corpora with repeated blocks (tied bounds) and zero block weights
    /// (live patterns whose true benefit falls to 0).
    #[test]
    fn heap_selection_matches_the_scan_on_random_indices() {
        use ise_workloads::random_dag::{random_dag, RandomDagConfig};
        let mut rng = rand::rngs::StdRng::seed_from_u64(21);
        for round in 0..40 {
            let mut index = PatternIndex::new(GroupConfig::new(2, 1));
            let mut cut_lists = Vec::new();
            let graphs: Vec<Dfg> = (0..3)
                .map(|i| random_dag(&RandomDagConfig::new(10 + 4 * i), round * 7 + i as u64))
                .collect();
            for _ in 0..6 {
                let dfg = &graphs[rng.gen_range(0..graphs.len())];
                let cuts = enumerate_cuts(dfg, &Constraints::new(2, 1).unwrap())
                    .unwrap()
                    .cuts;
                let weight = [0.0, 1.0, 2.0, 0.5][rng.gen_range(0..4usize)];
                index.add_block(dfg, &cuts, weight);
                cut_lists.push(cuts);
            }
            let views: Vec<&[Cut]> = cut_lists.iter().map(Vec::as_slice).collect();
            for max_patterns in [0, 1, 3] {
                assert_matches_scan(&index, &views, max_patterns);
            }
        }
    }

    /// The committed corpus, enumerated on a budget, selects the same patterns.
    #[test]
    fn heap_selection_matches_the_scan_on_the_committed_corpus() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
        let blocks = ise_corpus::load_corpus_path(dir).expect("the committed corpus loads");
        let mut index = PatternIndex::new(GroupConfig::default());
        let mut cut_lists = Vec::new();
        for block in &blocks {
            let ctx = ise_enum::EnumContext::new(block.dfg.clone());
            let options = ise_enum::EngineOptions {
                max_search_nodes: Some(5_000),
            };
            let cuts = ise_enum::incremental_cuts(
                &ctx,
                &Constraints::new(4, 2).unwrap(),
                &ise_enum::PruningConfig::all(),
                &options,
                None,
            )
            .cuts;
            index.add_block(&block.dfg, &cuts, block.weight());
            cut_lists.push(cuts);
        }
        let views: Vec<&[Cut]> = cut_lists.iter().map(Vec::as_slice).collect();
        for max_patterns in [0, 5] {
            assert_matches_scan(&index, &views, max_patterns);
        }
    }

    /// `macs` MAC datapaths plus, optionally, one long unique shift chain.
    fn block(name: &str, macs: usize, with_chain: bool) -> (Dfg, Vec<Cut>) {
        let mut b = DfgBuilder::new(name);
        for i in 0..macs {
            let a = b.input(format!("a{i}"));
            let x = b.input(format!("x{i}"));
            let acc = b.input(format!("acc{i}"));
            let m = b.node(Operation::Mul, &[a, x]);
            let s = b.node(Operation::Add, &[m, acc]);
            b.mark_output(s);
        }
        if with_chain {
            let p = b.input("p");
            let mut v = b.node(Operation::Mul, &[p, p]);
            for _ in 0..4 {
                v = b.node(Operation::Mul, &[v, p]);
            }
            b.mark_output(v);
        }
        let dfg = b.build().unwrap();
        let cuts = enumerate_cuts(&dfg, &Constraints::new(3, 1).unwrap()).unwrap();
        (dfg, cuts.cuts)
    }

    fn build_corpus(specs: &[(&str, usize, bool)]) -> (PatternIndex, Vec<(Dfg, Vec<Cut>)>) {
        let mut index = PatternIndex::new(GroupConfig::new(2, 1));
        let blocks: Vec<(Dfg, Vec<Cut>)> = specs
            .iter()
            .map(|&(name, macs, chain)| block(name, macs, chain))
            .collect();
        for (dfg, cuts) in &blocks {
            index.add_block(dfg, cuts, 1.0);
        }
        (index, blocks)
    }

    #[test]
    fn recurrence_is_credited_across_blocks() {
        let (index, blocks) = build_corpus(&[("a", 2, false), ("b", 1, false), ("c", 3, false)]);
        let views: Vec<&[Cut]> = blocks.iter().map(|(_, c)| c.as_slice()).collect();
        let selection = select_ises_global(&index, &views, 0);
        assert!(!selection.chosen.is_empty());
        let top = &selection.chosen[0];
        let entry = &index.entries()[top.entry];
        // The six mul-rooted datapaths across three blocks are credited to one
        // instruction placed six times (under the default latency model the bare
        // mul and the full MAC tie on per-occurrence saving; first-seen wins).
        assert_eq!(top.placed.len(), 6);
        assert_eq!(top.saved_cycles, 6 * u64::from(entry.saved_cycles));
        let placed_blocks: Vec<usize> = top.placed.iter().map(|o| o.block()).collect();
        assert!(placed_blocks.contains(&0) && placed_blocks.contains(&2));
        assert_eq!(
            selection.per_block_saved_cycles.iter().sum::<u64>(),
            selection.total_saved_cycles
        );
        // Placements never overlap within a block.
        for choice in &selection.chosen {
            for (i, a) in choice.placed.iter().enumerate() {
                for b in &choice.placed[i + 1..] {
                    if a.block() == b.block() {
                        assert!(views[a.block()][a.cut()]
                            .body()
                            .is_disjoint(views[b.block()][b.cut()].body()));
                    }
                }
            }
        }
    }

    #[test]
    fn pattern_budget_is_respected_and_zero_means_unlimited() {
        let (index, blocks) = build_corpus(&[("a", 2, true), ("b", 1, true)]);
        let views: Vec<&[Cut]> = blocks.iter().map(|(_, c)| c.as_slice()).collect();
        let capped = select_ises_global(&index, &views, 1);
        assert_eq!(capped.chosen.len(), 1);
        let unlimited = select_ises_global(&index, &views, 0);
        assert!(unlimited.chosen.len() > 1);
        assert!(unlimited.total_saved_cycles >= capped.total_saved_cycles);
    }

    /// With an unlimited pattern budget, crediting recurrence must not lose to the
    /// per-block greedy baseline on the same constraints.
    #[test]
    fn unlimited_global_selection_dominates_per_block_greedy() {
        let (index, blocks) = build_corpus(&[
            ("a", 3, true),
            ("b", 1, false),
            ("c", 2, true),
            ("d", 5, false),
        ]);
        let views: Vec<&[Cut]> = blocks.iter().map(|(_, c)| c.as_slice()).collect();
        let global = select_ises_global(&index, &views, 0);
        let per_block_total: u64 = blocks
            .iter()
            .map(|(dfg, cuts)| u64::from(select_ises(dfg, cuts, 2, 1, 4).total_saved_cycles))
            .sum();
        assert!(
            global.total_saved_cycles >= per_block_total,
            "global {} < per-block {per_block_total}",
            global.total_saved_cycles
        );
    }

    #[test]
    fn empty_corpus_and_empty_blocks_select_nothing() {
        let index = PatternIndex::new(GroupConfig::default());
        let selection = select_ises_global(&index, &[], 0);
        assert!(selection.chosen.is_empty());
        assert_eq!(selection.total_saved_cycles, 0);
    }
}
