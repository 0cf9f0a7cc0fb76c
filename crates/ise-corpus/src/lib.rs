//! A line-oriented textual interchange format for data-flow-graph corpora.
//!
//! The enumeration engine of `ise-enum` consumes [`ise_graph::Dfg`]s; batch tools
//! (the `ise` CLI, importers from real compilers, regression suites) need those graphs
//! *serialized*. This crate defines the `.dfg` format — a deliberately simple,
//! diff-friendly, line-oriented text format — together with its [`parse_corpus`]
//! parser, [`write_corpus`] writer, filesystem [`load_corpus`] loader/validator,
//! and the [`standard_corpus`] generator that exports the `ise-workloads` families
//! into the committed `corpus/` directory.
//!
//! # Format
//!
//! A file holds one or more blocks. Lines end at `\n` (or `\r\n`), and words are
//! separated by any [`char::is_whitespace`] character. Blank lines are skipped and
//! lines whose first non-blank character is `#` are comments. Each block is:
//!
//! ```text
//! dfg <name>                # opens a block; <name> is a whitespace-free token
//! meta <key> <value...>     # optional per-block metadata (value runs to end of line)
//! node <id> <opcode> [@<name...>]   # ids must be dense and declared in order 0,1,2,...
//! edge <from> <to>          # data-flow direction (producer -> consumer)
//! output <id>               # marks <id> externally visible (member of Oext)
//! forbid <id>               # marks <id> forbidden inside cuts (member of F)
//! end                       # closes the block
//! ```
//!
//! Opcodes are the [`ise_graph::Operation`] mnemonics (`in`, `const`, `add`, `mul`,
//! `load`, ...). Memory and call operations are forbidden by definition and need no
//! `forbid` line; `forbid` exists for user-imposed restrictions. Every directive that
//! references a node id must appear after that node's `node` line, so errors carry
//! exact line numbers. A `meta` value or `@` name may not contain a `\r` (other
//! than trailing whitespace): the writer could not put it back on one line. See
//! `docs/GUIDE.md` for the full grammar and a worked example.
//!
//! # Example
//!
//! Round-trip a hand-written block:
//!
//! ```
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! use ise_corpus::{parse_corpus, write_corpus};
//!
//! let text = "\
//! dfg mac
//! meta source doctest
//! node 0 in @a
//! node 1 in @x
//! node 2 in @acc
//! node 3 mul
//! node 4 add
//! edge 0 3
//! edge 1 3
//! edge 3 4
//! edge 2 4
//! output 4
//! end
//! ";
//! let blocks = parse_corpus(text)?;
//! assert_eq!(blocks.len(), 1);
//! assert_eq!(blocks[0].dfg.name(), "mac");
//! assert_eq!(blocks[0].dfg.len(), 5);
//!
//! // Writing and re-parsing yields the same graph.
//! let again = parse_corpus(&write_corpus(&blocks))?;
//! assert!(ise_corpus::dfg_eq(&blocks[0].dfg, &again[0].dfg));
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod fs;
mod gen;
mod parse;
mod write;

pub use fs::{load_corpus, load_corpus_path, read_corpus, CorpusError, CorpusText};
pub use gen::standard_corpus;
pub use parse::{parse_corpus, ParseError, ParseErrorKind};
pub use write::{write_block, write_corpus, FORMAT_HEADER};

use ise_graph::Dfg;

/// One serialized basic block: the graph plus the `meta` lines of its `.dfg` source.
#[derive(Clone, Debug)]
pub struct CorpusBlock {
    /// The data-flow graph ([`Dfg::name`] doubles as the block's corpus name).
    pub dfg: Dfg,
    /// The `meta` key/value pairs, in file order (keys may repeat).
    pub meta: Vec<(String, String)>,
}

impl CorpusBlock {
    /// The block's profile weight: the value of the `weight` meta key (relative
    /// execution frequency from a profile), or `1.0` when absent or unparsable.
    /// Non-finite and non-positive values are treated as absent — a corrupt profile
    /// must not zero out or invert a block's contribution to grouping statistics.
    ///
    /// # Example
    ///
    /// ```
    /// let blocks = ise_corpus::parse_corpus(
    ///     "dfg hot\nmeta weight 12.5\nnode 0 in\nend\ndfg cold\nnode 0 in\nend\n",
    /// )
    /// .unwrap();
    /// assert_eq!(blocks[0].weight(), 12.5);
    /// assert_eq!(blocks[1].weight(), 1.0);
    /// ```
    pub fn weight(&self) -> f64 {
        self.meta
            .iter()
            .find(|(k, _)| k == "weight")
            .and_then(|(_, v)| v.trim().parse::<f64>().ok())
            .filter(|w| w.is_finite() && *w > 0.0)
            .unwrap_or(1.0)
    }

    /// The block's canonical serialization — the content-hash hook for result caches.
    ///
    /// Exactly [`write_block`] of this block: nodes in id order, operand-order edges,
    /// sorted outputs and explicit forbids. Because the writer is canonical
    /// (`write ∘ parse ∘ write = write`), two `.dfg` sources that differ only in
    /// comments, blank lines, directive spacing or trailing whitespace produce **the
    /// same bytes** — so a cache keyed on them (the `ise serve` daemon, DESIGN.md §7)
    /// hits across formatting-only variants, while any semantic change (an opcode, an
    /// edge, an output mark, a `meta` line) changes the bytes and misses.
    ///
    /// # Panics
    ///
    /// Panics when the block violates the serializability contract of
    /// [`write_block`] (names with embedded newlines etc.); blocks obtained from
    /// [`parse_corpus`] always serialize.
    ///
    /// # Example
    ///
    /// ```
    /// let noisy = "# a comment\ndfg t\n\nnode 0   in @a\nnode 1 not\nedge 0 1\nend\n";
    /// let clean = "dfg t\nnode 0 in @a\nnode 1 not\nedge 0 1\nend\n";
    /// let parse = |s| ise_corpus::parse_corpus(s).unwrap().remove(0);
    /// assert_eq!(parse(noisy).canonical_bytes(), parse(clean).canonical_bytes());
    /// ```
    pub fn canonical_bytes(&self) -> String {
        write_block(self)
    }
}

/// Structural equality of two graphs as the interchange format defines it: same name,
/// same operations and symbolic node names, same per-node operand producers (order
/// matters, it is the operand order), same external outputs and same forbidden set.
///
/// Derived data (successor order, topological order) is deliberately not compared:
/// it does not affect which cuts exist.
pub fn dfg_eq(a: &Dfg, b: &Dfg) -> bool {
    a.name() == b.name()
        && a.len() == b.len()
        && a.node_ids().all(|v| {
            a.op(v) == b.op(v) && a.node(v).name() == b.node(v).name() && a.preds(v) == b.preds(v)
        })
        && a.external_outputs() == b.external_outputs()
        && a.forbidden().words() == b.forbidden().words()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ise_graph::{DfgBuilder, Operation};

    #[test]
    fn dfg_eq_detects_differences() {
        let build = |op| {
            let mut b = DfgBuilder::new("x");
            let a = b.input("a");
            let _n = b.node(op, &[a]);
            b.build().unwrap()
        };
        let not = build(Operation::Not);
        assert!(dfg_eq(&not, &build(Operation::Not)));
        assert!(!dfg_eq(&not, &build(Operation::Shl)), "ops differ");

        let mut b = DfgBuilder::new("x");
        let a = b.input("b");
        let _n = b.node(Operation::Not, &[a]);
        assert!(!dfg_eq(&not, &b.build().unwrap()), "node names differ");
    }

    #[test]
    fn dfg_eq_is_operand_order_sensitive() {
        let build = |swap: bool| {
            let mut b = DfgBuilder::new("x");
            let p = b.input("p");
            let q = b.input("q");
            let operands = if swap { [q, p] } else { [p, q] };
            let _n = b.node(Operation::Sub, &operands);
            b.build().unwrap()
        };
        assert!(!dfg_eq(&build(false), &build(true)));
    }
}
