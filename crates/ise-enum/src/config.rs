//! Constraints and pruning configuration for cut enumeration.

use std::error::Error;
use std::fmt;

/// Microarchitectural constraints on a valid cut (§3 of the paper).
///
/// `max_inputs` (`Nin`) models the number of read ports of the register file available
/// to a custom instruction and bounds `|I(S)|`; `max_outputs` (`Nout`) models the write
/// ports and bounds `|O(S)|`. Optionally the search can be restricted to *connected*
/// cuts (Definition 4) and to cuts whose depth (longest path, in operations) does not
/// exceed a bound, as done by accelerator styles such as CCA (§5.3).
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// use ise_enum::Constraints;
///
/// let c = Constraints::new(4, 2)?.connected_only(true);
/// assert_eq!(c.max_inputs(), 4);
/// assert_eq!(c.max_outputs(), 2);
/// assert!(c.is_connected_only());
/// # Ok(())
/// # }
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Constraints {
    max_inputs: usize,
    max_outputs: usize,
    connected: bool,
    max_depth: Option<u32>,
}

impl Constraints {
    /// Creates a constraint set with `max_inputs` read ports and `max_outputs` write
    /// ports.
    ///
    /// # Errors
    ///
    /// Returns [`ConstraintError`] if either bound is zero (a cut always has at least
    /// one input and one output).
    pub fn new(max_inputs: usize, max_outputs: usize) -> Result<Self, ConstraintError> {
        if max_inputs == 0 {
            return Err(ConstraintError::ZeroInputs);
        }
        if max_outputs == 0 {
            return Err(ConstraintError::ZeroOutputs);
        }
        Ok(Constraints {
            max_inputs,
            max_outputs,
            connected: false,
            max_depth: None,
        })
    }

    /// The input-port constraint `Nin`.
    pub fn max_inputs(&self) -> usize {
        self.max_inputs
    }

    /// The output-port constraint `Nout`.
    pub fn max_outputs(&self) -> usize {
        self.max_outputs
    }

    /// Restricts (or lifts the restriction of) the search to connected cuts
    /// (Definition 4: any two outputs share an input).
    #[must_use]
    pub fn connected_only(mut self, connected: bool) -> Self {
        self.connected = connected;
        self
    }

    /// Whether only connected cuts are accepted.
    pub fn is_connected_only(&self) -> bool {
        self.connected
    }

    /// Restricts valid cuts to a maximum operation depth (longest internal path, in
    /// edges, from any input-fed node to any output), as done for depth-limited
    /// accelerators (§5.3).
    #[must_use]
    pub fn with_max_depth(mut self, depth: u32) -> Self {
        self.max_depth = Some(depth);
        self
    }

    /// The depth limit, if any.
    pub fn max_depth(&self) -> Option<u32> {
        self.max_depth
    }

    /// A stable serialization of every constraint field, for content-addressed cache
    /// keys (`ise serve` builds its keys from it). The format is load-bearing:
    /// changing it invalidates every persisted cache entry.
    ///
    /// # Example
    ///
    /// ```
    /// # fn main() -> Result<(), Box<dyn std::error::Error>> {
    /// use ise_enum::Constraints;
    ///
    /// let c = Constraints::new(4, 2)?;
    /// assert_eq!(c.cache_token(), "nin=4;nout=2;connected=false;depth=none");
    /// assert_ne!(c.cache_token(), c.clone().connected_only(true).cache_token());
    /// # Ok(())
    /// # }
    /// ```
    pub fn cache_token(&self) -> String {
        let depth = match self.max_depth {
            None => "none".to_string(),
            Some(d) => d.to_string(),
        };
        format!(
            "nin={};nout={};connected={};depth={depth}",
            self.max_inputs, self.max_outputs, self.connected
        )
    }
}

/// Error returned by [`Constraints::new`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConstraintError {
    /// `max_inputs` was zero.
    ZeroInputs,
    /// `max_outputs` was zero.
    ZeroOutputs,
}

impl fmt::Display for ConstraintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstraintError::ZeroInputs => write!(f, "input constraint must be at least 1"),
            ConstraintError::ZeroOutputs => write!(f, "output constraint must be at least 1"),
        }
    }
}

impl Error for ConstraintError {}

/// Individually switchable pruning techniques of §5.3.
///
/// All prunings are enabled by default; the ablation experiment (E4 in DESIGN.md)
/// toggles them one at a time. None of them changes which cuts are *reported valid*;
/// they only reduce the portion of the search space that is explored.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PruningConfig {
    /// Output–output pruning: never choose an output that is an ancestor of an
    /// already-chosen output (such cuts are discovered through internal outputs), and
    /// never pair outputs related by postdominance.
    pub output_output: bool,
    /// Connectedness-driven pruning of new outputs when the search is restricted to
    /// connected cuts.
    pub connectedness: bool,
    /// Abort building the cut body as soon as a forbidden vertex enters it.
    pub build_s: bool,
    /// Output–input pruning: discard candidate inputs whose every path to the current
    /// output crosses a forbidden vertex.
    pub output_input: bool,
    /// Input–input pruning: discard seed sets in which one input postdominates another.
    pub input_input: bool,
    /// Dominator–input pruning: discard seed candidates that are already dominated by
    /// the current seed (they could never satisfy the technical input condition of §3).
    /// This is a lossless reformulation of the paper's simplified dominator–input test;
    /// see DESIGN.md for the rationale.
    pub dominator_input: bool,
}

impl Default for PruningConfig {
    fn default() -> Self {
        PruningConfig::all()
    }
}

impl PruningConfig {
    /// All pruning techniques enabled (the paper's configuration).
    pub fn all() -> Self {
        PruningConfig {
            output_output: true,
            connectedness: true,
            build_s: true,
            output_input: true,
            input_input: true,
            dominator_input: true,
        }
    }

    /// Every pruning technique disabled; the algorithm still has polynomial complexity
    /// but explores many more candidates.
    pub fn none() -> Self {
        PruningConfig {
            output_output: false,
            connectedness: false,
            build_s: false,
            output_input: false,
            input_input: false,
            dominator_input: false,
        }
    }

    /// Returns `all()` with exactly one technique disabled, keyed by its name; used by
    /// the ablation harness. Valid names: `output_output`, `connectedness`, `build_s`,
    /// `output_input`, `input_input`, `dominator_input`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not one of the technique names above.
    pub fn all_except(name: &str) -> Self {
        let mut p = PruningConfig::all();
        match name {
            "output_output" => p.output_output = false,
            "connectedness" => p.connectedness = false,
            "build_s" => p.build_s = false,
            "output_input" => p.output_input = false,
            "input_input" => p.input_input = false,
            "dominator_input" => p.dominator_input = false,
            other => panic!("unknown pruning technique {other:?}"),
        }
        p
    }

    /// Names of every pruning technique, in a stable order.
    pub fn technique_names() -> &'static [&'static str] {
        &[
            "output_output",
            "connectedness",
            "build_s",
            "output_input",
            "input_input",
            "dominator_input",
        ]
    }

    /// A stable serialization of the enabled techniques, for content-addressed cache
    /// keys, under the same contract as [`Constraints::cache_token`]. Prunings
    /// never change which cuts are valid, but they do change the search statistics a
    /// budgeted run reports — so they belong in any key over reported results.
    ///
    /// # Example
    ///
    /// ```
    /// use ise_enum::PruningConfig;
    ///
    /// assert_eq!(PruningConfig::all().cache_token(), "prune=111111");
    /// assert_eq!(PruningConfig::none().cache_token(), "prune=000000");
    /// ```
    pub fn cache_token(&self) -> String {
        let bits = [
            self.output_output,
            self.connectedness,
            self.build_s,
            self.output_input,
            self.input_input,
            self.dominator_input,
        ];
        let mask: String = bits.iter().map(|&b| if b { '1' } else { '0' }).collect();
        format!("prune={mask}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constraints_round_trip() {
        let c = Constraints::new(4, 2).unwrap();
        assert_eq!(c.max_inputs(), 4);
        assert_eq!(c.max_outputs(), 2);
        assert!(!c.is_connected_only());
        assert_eq!(c.max_depth(), None);
        let c = c.connected_only(true).with_max_depth(3);
        assert!(c.is_connected_only());
        assert_eq!(c.max_depth(), Some(3));
    }

    #[test]
    fn zero_ports_are_rejected() {
        assert_eq!(
            Constraints::new(0, 2).unwrap_err(),
            ConstraintError::ZeroInputs
        );
        assert_eq!(
            Constraints::new(3, 0).unwrap_err(),
            ConstraintError::ZeroOutputs
        );
        assert!(ConstraintError::ZeroInputs.to_string().contains("input"));
    }

    #[test]
    fn pruning_defaults_enable_everything() {
        let p = PruningConfig::default();
        assert!(p.output_output && p.connectedness && p.build_s);
        assert!(p.output_input && p.input_input && p.dominator_input);
        let q = PruningConfig::none();
        assert!(!q.output_output && !q.input_input);
    }

    #[test]
    fn all_except_disables_exactly_one() {
        for &name in PruningConfig::technique_names() {
            let p = PruningConfig::all_except(name);
            let disabled = [
                p.output_output,
                p.connectedness,
                p.build_s,
                p.output_input,
                p.input_input,
                p.dominator_input,
            ]
            .iter()
            .filter(|&&b| !b)
            .count();
            assert_eq!(disabled, 1, "technique {name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown pruning technique")]
    fn all_except_rejects_unknown_names() {
        let _ = PruningConfig::all_except("turbo");
    }
}
