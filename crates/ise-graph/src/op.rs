//! Operations carried by data-flow-graph nodes and their latency model.
//!
//! The enumeration algorithm of the paper is agnostic of operation semantics: it only
//! needs to know which nodes are *forbidden* (not allowed inside a custom instruction,
//! typically memory accesses) and, for the downstream speedup model (§1/§7 of the
//! paper), how long each operation takes in software versus inside a custom functional
//! unit. This module provides a realistic embedded-RISC operation alphabet and a simple
//! latency model so that the workloads and the merit function operate on meaningful
//! numbers.

use std::fmt;

/// The operation computed by a DFG node.
///
/// The alphabet follows the mix found in embedded integer kernels (the MiBench suite the
/// paper evaluates on): ALU operations, shifts, multiplication/division, comparisons and
/// selects, memory accesses and the pseudo-operations used to model basic-block
/// boundaries (external inputs, constants).
///
/// # Example
///
/// ```
/// use ise_graph::{Operation, OperationClass};
///
/// assert_eq!(Operation::Load.class(), OperationClass::Memory);
/// assert!(Operation::Load.is_memory());
/// assert!(!Operation::Add.is_memory());
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[non_exhaustive]
pub enum Operation {
    /// Value produced outside the basic block (register or immediate live-in).
    Input,
    /// Compile-time constant.
    Const,
    /// Integer addition.
    Add,
    /// Integer subtraction.
    Sub,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Bitwise not / sign manipulation.
    Not,
    /// Logical shift left.
    Shl,
    /// Logical shift right.
    Shr,
    /// Arithmetic shift right.
    Sar,
    /// Integer multiplication.
    Mul,
    /// Integer division.
    Div,
    /// Remainder.
    Rem,
    /// Integer comparison producing a flag/boolean.
    Cmp,
    /// Conditional select (`cond ? a : b`).
    Select,
    /// Zero/sign extension, truncation and similar width changes.
    Extend,
    /// Memory load.
    Load,
    /// Memory store.
    Store,
    /// Function call or other opaque side-effecting operation.
    Call,
}

/// Coarse classification of [`Operation`]s, used by workload generators and the latency
/// model.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum OperationClass {
    /// Pseudo-operations that carry values into the block (inputs, constants).
    Source,
    /// Single-cycle arithmetic and logic.
    Alu,
    /// Shifts.
    Shift,
    /// Multi-cycle arithmetic (multiply, divide).
    MulDiv,
    /// Comparisons and selects.
    Predicate,
    /// Memory accesses.
    Memory,
    /// Opaque side-effecting operations.
    Opaque,
}

impl Operation {
    /// Returns the coarse class of this operation.
    pub fn class(self) -> OperationClass {
        use Operation::*;
        match self {
            Input | Const => OperationClass::Source,
            Add | Sub | And | Or | Xor | Not | Extend => OperationClass::Alu,
            Shl | Shr | Sar => OperationClass::Shift,
            Mul | Div | Rem => OperationClass::MulDiv,
            Cmp | Select => OperationClass::Predicate,
            Load | Store => OperationClass::Memory,
            Call => OperationClass::Opaque,
        }
    }

    /// Whether this operation accesses memory. Memory operations are forbidden inside
    /// custom instructions when the custom functional unit has no memory port (§3).
    pub fn is_memory(self) -> bool {
        self.class() == OperationClass::Memory
    }

    /// Whether this operation is a pseudo-source (external input or constant).
    pub fn is_source(self) -> bool {
        self.class() == OperationClass::Source
    }

    /// Whether this operation is usually disallowed inside a custom functional unit:
    /// memory accesses and opaque calls.
    pub fn is_default_forbidden(self) -> bool {
        matches!(
            self.class(),
            OperationClass::Memory | OperationClass::Opaque
        )
    }

    /// A short lower-case mnemonic, used in DOT dumps and debugging output.
    pub fn mnemonic(self) -> &'static str {
        use Operation::*;
        match self {
            Input => "in",
            Const => "const",
            Add => "add",
            Sub => "sub",
            And => "and",
            Or => "or",
            Xor => "xor",
            Not => "not",
            Shl => "shl",
            Shr => "shr",
            Sar => "sar",
            Mul => "mul",
            Div => "div",
            Rem => "rem",
            Cmp => "cmp",
            Select => "select",
            Extend => "ext",
            Load => "load",
            Store => "store",
            Call => "call",
        }
    }

    /// Parses a mnemonic (as produced by [`Operation::mnemonic`]) back into the
    /// operation, the inverse used by the textual DFG interchange format of
    /// `ise-corpus`.
    ///
    /// # Example
    ///
    /// ```
    /// use ise_graph::Operation;
    ///
    /// assert_eq!(Operation::from_mnemonic("add"), Some(Operation::Add));
    /// assert_eq!(Operation::from_mnemonic("load"), Some(Operation::Load));
    /// assert_eq!(Operation::from_mnemonic("frobnicate"), None);
    /// ```
    pub fn from_mnemonic(mnemonic: &str) -> Option<Operation> {
        use Operation::*;
        Some(match mnemonic {
            "in" => Input,
            "const" => Const,
            "add" => Add,
            "sub" => Sub,
            "and" => And,
            "or" => Or,
            "xor" => Xor,
            "not" => Not,
            "shl" => Shl,
            "shr" => Shr,
            "sar" => Sar,
            "mul" => Mul,
            "div" => Div,
            "rem" => Rem,
            "cmp" => Cmp,
            "select" => Select,
            "ext" => Extend,
            "load" => Load,
            "store" => Store,
            "call" => Call,
            _ => return None,
        })
    }

    /// All concrete operations, useful for workload generators.
    pub fn all() -> &'static [Operation] {
        use Operation::*;
        &[
            Input, Const, Add, Sub, And, Or, Xor, Not, Shl, Shr, Sar, Mul, Div, Rem, Cmp, Select,
            Extend, Load, Store, Call,
        ]
    }
}

impl fmt::Display for Operation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// Latency model used by the speedup estimation of custom instructions.
///
/// `software_cycles` is the number of processor cycles the operation takes when executed
/// on the base pipeline; `hardware_delay` is its normalized propagation delay when
/// implemented inside a custom functional unit (in fractions of a processor cycle), so
/// that the critical path of a cut measured in `hardware_delay` units, rounded up,
/// approximates the latency in cycles of the resulting custom instruction. The default
/// numbers follow the commonly used models in the ISE literature (single-cycle ALU,
/// multi-cycle multiply/divide, memory excluded from the datapath).
///
/// # Example
///
/// ```
/// use ise_graph::{LatencyModel, Operation};
///
/// let model = LatencyModel::default();
/// assert!(model.software_cycles(Operation::Mul) > model.software_cycles(Operation::Add));
/// assert!(model.hardware_delay(Operation::Add) < 1.0);
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct LatencyModel {
    alu_sw: u32,
    shift_sw: u32,
    muldiv_sw: u32,
    predicate_sw: u32,
    memory_sw: u32,
    opaque_sw: u32,
    alu_hw: f64,
    shift_hw: f64,
    muldiv_hw: f64,
    predicate_hw: f64,
}

impl Default for LatencyModel {
    fn default() -> Self {
        LatencyModel {
            alu_sw: 1,
            shift_sw: 1,
            muldiv_sw: 3,
            predicate_sw: 1,
            memory_sw: 2,
            opaque_sw: 4,
            alu_hw: 0.30,
            shift_hw: 0.20,
            muldiv_hw: 1.60,
            predicate_hw: 0.25,
        }
    }
}

impl LatencyModel {
    /// Creates the default latency model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Software latency of `op` in processor cycles on the base pipeline.
    pub fn software_cycles(&self, op: Operation) -> u32 {
        match op.class() {
            OperationClass::Source => 0,
            OperationClass::Alu => self.alu_sw,
            OperationClass::Shift => self.shift_sw,
            OperationClass::MulDiv => self.muldiv_sw,
            OperationClass::Predicate => self.predicate_sw,
            OperationClass::Memory => self.memory_sw,
            OperationClass::Opaque => self.opaque_sw,
        }
    }

    /// Normalized hardware propagation delay of `op` inside a custom functional unit,
    /// in fractions of a processor clock cycle.
    ///
    /// Memory and opaque operations cannot be implemented inside the functional unit;
    /// they are reported with an effectively infinite delay so that accidentally
    /// including them in a datapath estimate is visible.
    pub fn hardware_delay(&self, op: Operation) -> f64 {
        match op.class() {
            OperationClass::Source => 0.0,
            OperationClass::Alu => self.alu_hw,
            OperationClass::Shift => self.shift_hw,
            OperationClass::MulDiv => self.muldiv_hw,
            OperationClass::Predicate => self.predicate_hw,
            OperationClass::Memory | OperationClass::Opaque => f64::INFINITY,
        }
    }

    /// Overrides the software latency of multi-cycle arithmetic.
    #[must_use]
    pub fn with_muldiv_cycles(mut self, cycles: u32) -> Self {
        self.muldiv_sw = cycles;
        self
    }

    /// Overrides the software latency of memory operations.
    #[must_use]
    pub fn with_memory_cycles(mut self, cycles: u32) -> Self {
        self.memory_sw = cycles;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classes_are_consistent() {
        for &op in Operation::all() {
            match op {
                Operation::Load | Operation::Store => {
                    assert!(op.is_memory());
                    assert!(op.is_default_forbidden());
                }
                Operation::Call => {
                    assert!(!op.is_memory());
                    assert!(op.is_default_forbidden());
                }
                Operation::Input | Operation::Const => {
                    assert!(op.is_source());
                    assert!(!op.is_default_forbidden());
                }
                _ => {
                    assert!(!op.is_memory());
                    assert!(!op.is_default_forbidden());
                    assert!(!op.is_source());
                }
            }
        }
    }

    #[test]
    fn mnemonics_are_unique() {
        let mut seen = std::collections::HashSet::new();
        for &op in Operation::all() {
            assert!(seen.insert(op.mnemonic()), "duplicate mnemonic {}", op);
        }
    }

    #[test]
    fn mnemonics_round_trip() {
        for &op in Operation::all() {
            assert_eq!(Operation::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(Operation::from_mnemonic(""), None);
        assert_eq!(Operation::from_mnemonic("ADD"), None, "case sensitive");
    }

    #[test]
    fn display_matches_mnemonic() {
        assert_eq!(Operation::Select.to_string(), "select");
        assert_eq!(Operation::Sar.to_string(), "sar");
    }

    #[test]
    fn default_latency_model_is_sane() {
        let m = LatencyModel::default();
        for &op in Operation::all() {
            if op.is_source() {
                assert_eq!(m.software_cycles(op), 0);
            } else {
                assert!(m.software_cycles(op) >= 1);
            }
            if !op.is_default_forbidden() {
                assert!(m.hardware_delay(op).is_finite());
            }
        }
        assert!(m.hardware_delay(Operation::Load).is_infinite());
    }

    #[test]
    fn latency_model_overrides() {
        let m = LatencyModel::new()
            .with_muldiv_cycles(5)
            .with_memory_cycles(10);
        assert_eq!(m.software_cycles(Operation::Mul), 5);
        assert_eq!(m.software_cycles(Operation::Store), 10);
    }
}
