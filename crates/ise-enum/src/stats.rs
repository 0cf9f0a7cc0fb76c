//! Search statistics reported by the enumeration algorithms.

use std::fmt;
use std::ops::AddAssign;

/// Counters describing one enumeration run.
///
/// The counters are what the evaluation section of the paper reasons about informally
/// ("at least 70 % of the time is spent in [Lengauer–Tarjan]", effectiveness of the
/// pruning techniques): how many candidate (input, output) combinations were examined,
/// how many dominator-tree computations were needed, how many candidates each pruning
/// rejected, and how many distinct valid cuts were found.
///
/// **Under fan-out.** A fanned-out run (`crate::par`) merges per-task statistics.
/// Its cut count, search, candidate, dominator and pruning counters equal the serial
/// run's, but the rejection tallies (`rejected_forbidden`, `rejected_io`,
/// `rejected_disconnected`, `rejected_depth`, `rejected_duplicate`) count per task:
/// a body rejected in k tasks counts k times, and `rejected_duplicate` counts
/// repeats within a task plus cuts an earlier task already emitted.
///
/// # Example
///
/// ```
/// use ise_enum::EnumStats;
///
/// let mut total = EnumStats::default();
/// let mut partial = EnumStats::default();
/// partial.valid_cuts = 3;
/// total += partial;
/// assert_eq!(total.valid_cuts, 3);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub struct EnumStats {
    /// Distinct valid cuts reported.
    pub valid_cuts: usize,
    /// Candidate cuts that were fully materialized and checked.
    pub candidates_checked: usize,
    /// Candidate cuts rejected because they contained a forbidden vertex.
    pub rejected_forbidden: usize,
    /// Candidate cuts rejected because they had too many inputs or outputs.
    pub rejected_io: usize,
    /// Candidate cuts skipped because an identical body had already been examined
    /// (packed-key de-duplication before validation, so this counts repeats of *any*
    /// examined body, valid or not).
    pub rejected_duplicate: usize,
    /// Candidate cuts rejected by the connectedness requirement.
    pub rejected_disconnected: usize,
    /// Candidate cuts rejected by the depth limit.
    pub rejected_depth: usize,
    /// Dominator computations performed: one per `PICK-INPUTS` step of the incremental
    /// algorithm — a fresh pass over the output's ancestor cone, or a grown re-sweep of
    /// only the new seed vertex's descendants — and one per generalized-dominator
    /// enumeration in the basic algorithm.
    pub dominator_runs: usize,
    /// Output choices skipped by the output–output pruning.
    pub pruned_output_output: usize,
    /// Input candidates skipped by the output–input pruning.
    pub pruned_output_input: usize,
    /// Seed candidates skipped by the input–input pruning.
    pub pruned_input_input: usize,
    /// Seed candidates skipped by the dominator–input pruning.
    pub pruned_dominator_input: usize,
    /// Output choices skipped by the connectedness pruning.
    pub pruned_connectedness: usize,
    /// Candidate bodies abandoned early because a forbidden vertex entered them.
    pub pruned_build_s: usize,
    /// Recursion nodes visited (an upper bound on the explored search-space size).
    pub search_nodes: usize,
}

impl EnumStats {
    /// Creates zeroed statistics.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a rejected candidate under the counter matching its rejection reason.
    pub fn record_rejection(&mut self, rejection: crate::cut::CutRejection) {
        use crate::cut::CutRejection::*;
        match rejection {
            Empty | NotConvex | IoCondition(_) => {
                // Candidates that are structurally not cuts (or violate the technical
                // condition) are not counted as near-misses of a specific resource.
            }
            Forbidden(_) => self.rejected_forbidden += 1,
            TooManyInputs(_) | TooManyOutputs(_) => self.rejected_io += 1,
            Disconnected => self.rejected_disconnected += 1,
            TooDeep(_) => self.rejected_depth += 1,
        }
    }

    /// Total number of candidates rejected for any reason.
    pub fn rejected_total(&self) -> usize {
        self.rejected_forbidden
            + self.rejected_io
            + self.rejected_duplicate
            + self.rejected_disconnected
            + self.rejected_depth
    }

    /// Total number of search-space elements skipped by prunings.
    pub fn pruned_total(&self) -> usize {
        self.pruned_output_output
            + self.pruned_output_input
            + self.pruned_input_input
            + self.pruned_dominator_input
            + self.pruned_connectedness
            + self.pruned_build_s
    }
}

/// Load-balance summary of a task decomposition: how evenly the per-task
/// `search_nodes` counts spread over the tasks of one parallel run.
///
/// The headline number is [`skew_ratio`](Self::skew_ratio) = max / mean. A perfectly
/// balanced fan-out scores 1.0; a fan-out whose heaviest first-output subtree dwarfs
/// the rest scores close to the task count (one task owns nearly everything, so its
/// tail serializes the run).
/// The E7 scaling bench records this per row.
///
/// # Example
///
/// ```
/// use ise_enum::TaskLoadSummary;
///
/// let balanced = TaskLoadSummary::from_task_nodes(&[100, 100, 100, 100]);
/// assert_eq!(balanced.skew_ratio(), 1.0);
/// let skewed = TaskLoadSummary::from_task_nodes(&[970, 10, 10, 10]);
/// assert!(skewed.skew_ratio() > 3.8);
/// ```
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct TaskLoadSummary {
    /// Number of tasks summarized.
    pub tasks: usize,
    /// Search nodes of the heaviest task.
    pub max_nodes: usize,
    /// Search nodes summed over all tasks.
    pub total_nodes: usize,
}

impl TaskLoadSummary {
    /// Summarizes the per-task `search_nodes` counts of one decomposition (the
    /// `task_nodes` of a traced parallel run).
    pub fn from_task_nodes(task_nodes: &[usize]) -> Self {
        TaskLoadSummary {
            tasks: task_nodes.len(),
            max_nodes: task_nodes.iter().copied().max().unwrap_or(0),
            total_nodes: task_nodes.iter().sum(),
        }
    }

    /// Mean search nodes per task (0.0 for an empty decomposition).
    pub fn mean_nodes(&self) -> f64 {
        if self.tasks == 0 {
            0.0
        } else {
            self.total_nodes as f64 / self.tasks as f64
        }
    }

    /// Load skew: heaviest task over mean task (1.0 = perfectly balanced; the
    /// wall-clock floor of the decomposition is `max_nodes`, so lower is better).
    /// Returns 0.0 for an empty or all-zero decomposition.
    pub fn skew_ratio(&self) -> f64 {
        let mean = self.mean_nodes();
        if mean == 0.0 {
            0.0
        } else {
            self.max_nodes as f64 / mean
        }
    }
}

impl AddAssign for EnumStats {
    fn add_assign(&mut self, rhs: EnumStats) {
        self.valid_cuts += rhs.valid_cuts;
        self.candidates_checked += rhs.candidates_checked;
        self.rejected_forbidden += rhs.rejected_forbidden;
        self.rejected_io += rhs.rejected_io;
        self.rejected_duplicate += rhs.rejected_duplicate;
        self.rejected_disconnected += rhs.rejected_disconnected;
        self.rejected_depth += rhs.rejected_depth;
        self.dominator_runs += rhs.dominator_runs;
        self.pruned_output_output += rhs.pruned_output_output;
        self.pruned_output_input += rhs.pruned_output_input;
        self.pruned_input_input += rhs.pruned_input_input;
        self.pruned_dominator_input += rhs.pruned_dominator_input;
        self.pruned_connectedness += rhs.pruned_connectedness;
        self.pruned_build_s += rhs.pruned_build_s;
        self.search_nodes += rhs.search_nodes;
    }
}

impl fmt::Display for EnumStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} valid cuts ({} candidates checked, {} rejected, {} pruned, {} dominator runs, {} search nodes)",
            self.valid_cuts,
            self.candidates_checked,
            self.rejected_total(),
            self.pruned_total(),
            self.dominator_runs,
            self.search_nodes,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_sum_the_right_fields() {
        let mut s = EnumStats::new();
        s.rejected_forbidden = 1;
        s.rejected_io = 2;
        s.rejected_duplicate = 3;
        s.rejected_disconnected = 4;
        s.rejected_depth = 5;
        assert_eq!(s.rejected_total(), 15);
        s.pruned_output_output = 1;
        s.pruned_output_input = 2;
        s.pruned_input_input = 3;
        s.pruned_dominator_input = 4;
        s.pruned_connectedness = 5;
        s.pruned_build_s = 6;
        assert_eq!(s.pruned_total(), 21);
    }

    #[test]
    fn add_assign_accumulates() {
        let mut a = EnumStats::new();
        a.valid_cuts = 2;
        a.dominator_runs = 10;
        let mut b = EnumStats::new();
        b.valid_cuts = 3;
        b.dominator_runs = 5;
        b.search_nodes = 7;
        a += b;
        assert_eq!(a.valid_cuts, 5);
        assert_eq!(a.dominator_runs, 15);
        assert_eq!(a.search_nodes, 7);
    }

    #[test]
    fn display_is_informative() {
        let mut s = EnumStats::new();
        s.valid_cuts = 4;
        s.candidates_checked = 9;
        let text = s.to_string();
        assert!(text.contains("4 valid cuts"));
        assert!(text.contains("9 candidates"));
    }
}
