//! The `.dfg` parser.

use std::collections::HashSet;
use std::error::Error;
use std::fmt;

use ise_graph::{Dfg, GraphError, Node, NodeId, Operation};

use crate::CorpusBlock;

/// Error produced by [`parse_corpus`]: what went wrong and on which (1-based) line.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number of the offending line (for graph-level errors, the line of
    /// the block's `end`).
    pub line: usize,
    /// What went wrong.
    pub kind: ParseErrorKind,
}

/// The reason a `.dfg` input was rejected.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum ParseErrorKind {
    /// A directive other than `dfg`/`meta`/`node`/`edge`/`output`/`forbid`/`end`.
    UnknownDirective(String),
    /// A block directive appeared before any `dfg` line opened a block.
    OutsideBlock(String),
    /// A `dfg` line appeared while a block was still open.
    NestedBlock,
    /// A directive is missing a required argument.
    MissingArgument(&'static str),
    /// A directive has more arguments than it takes.
    TrailingInput(String),
    /// An argument that must be a node id did not parse as one.
    BadInteger(String),
    /// The opcode of a `node` line is not a known [`Operation`] mnemonic.
    UnknownOpcode(String),
    /// Node ids must be declared densely in order `0, 1, 2, ...`.
    NonSequentialNode {
        /// The id the parser expected next.
        expected: usize,
        /// The id the line declared.
        found: usize,
    },
    /// A directive referenced a node id that has not been declared yet.
    UndeclaredNode(usize),
    /// The input ended while a block was still open.
    UnterminatedBlock(String),
    /// Two blocks in the same input share a name.
    DuplicateBlockName(String),
    /// The collected directives do not form a valid graph.
    Graph {
        /// The name of the offending block.
        block: String,
        /// The underlying graph-construction error.
        source: GraphError,
    },
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: ", self.line)?;
        match &self.kind {
            ParseErrorKind::UnknownDirective(d) => write!(f, "unknown directive `{d}`"),
            ParseErrorKind::OutsideBlock(d) => {
                write!(f, "`{d}` outside a block (expected `dfg <name>` first)")
            }
            ParseErrorKind::NestedBlock => {
                write!(f, "`dfg` inside a block (missing `end`?)")
            }
            ParseErrorKind::MissingArgument(what) => write!(f, "missing {what}"),
            ParseErrorKind::TrailingInput(rest) => write!(f, "unexpected trailing input `{rest}`"),
            ParseErrorKind::BadInteger(tok) => write!(f, "`{tok}` is not a node id"),
            ParseErrorKind::UnknownOpcode(op) => write!(f, "unknown opcode `{op}`"),
            ParseErrorKind::NonSequentialNode { expected, found } => {
                write!(
                    f,
                    "node ids must be dense and in order: expected {expected}, found {found}"
                )
            }
            ParseErrorKind::UndeclaredNode(id) => {
                write!(f, "node {id} is referenced before its `node` line")
            }
            ParseErrorKind::UnterminatedBlock(name) => {
                write!(f, "block `{name}` is not closed by `end`")
            }
            ParseErrorKind::DuplicateBlockName(name) => {
                write!(f, "duplicate block name `{name}`")
            }
            ParseErrorKind::Graph { block, source } => {
                write!(f, "block `{block}` is not a valid DFG: {source}")
            }
        }
    }
}

impl Error for ParseError {}

/// One block being accumulated while its lines stream in.
struct OpenBlock {
    name: String,
    opened_at: usize,
    meta: Vec<(String, String)>,
    nodes: Vec<Node>,
    edges: Vec<(NodeId, NodeId)>,
    outputs: Vec<NodeId>,
    forbidden: Vec<NodeId>,
}

/// Parses one or more `.dfg` blocks out of `text`.
///
/// # Errors
///
/// Returns the first [`ParseError`] encountered; parsing is strict (unknown
/// directives, loose arguments and forward references are all rejected) so that
/// corpus drift fails loudly rather than silently changing a graph.
///
/// # Example
///
/// ```
/// use ise_corpus::{parse_corpus, ParseErrorKind};
///
/// let err = parse_corpus("dfg x\nnode 0 frob\nend\n").unwrap_err();
/// assert_eq!(err.line, 2);
/// assert_eq!(err.kind, ParseErrorKind::UnknownOpcode("frob".into()));
/// ```
pub fn parse_corpus(text: &str) -> Result<Vec<CorpusBlock>, ParseError> {
    let mut blocks: Vec<CorpusBlock> = Vec::new();
    // Names opened so far, as slices of `text`: a hash lookup per header keeps
    // inputs of many small blocks linear (a request body is outside input).
    let mut names: HashSet<&str> = HashSet::new();
    let mut open: Option<OpenBlock> = None;

    for (index, raw) in text.lines().enumerate() {
        let line = index + 1;
        let trimmed = raw.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let err = |kind| Err(ParseError { line, kind });
        let (directive, rest) = split_word(trimmed);

        if directive == "dfg" {
            if open.is_some() {
                return err(ParseErrorKind::NestedBlock);
            }
            let (name, rest) = split_word(rest);
            if name.is_empty() {
                return err(ParseErrorKind::MissingArgument("block name"));
            }
            if !rest.is_empty() {
                return err(ParseErrorKind::TrailingInput(rest.to_string()));
            }
            if !names.insert(name) {
                return err(ParseErrorKind::DuplicateBlockName(name.to_string()));
            }
            open = Some(OpenBlock {
                name: name.to_string(),
                opened_at: line,
                meta: Vec::new(),
                nodes: Vec::new(),
                edges: Vec::new(),
                outputs: Vec::new(),
                forbidden: Vec::new(),
            });
            continue;
        }

        let Some(block) = open.as_mut() else {
            return match directive {
                "meta" | "node" | "edge" | "output" | "forbid" | "end" => {
                    err(ParseErrorKind::OutsideBlock(directive.to_string()))
                }
                other => err(ParseErrorKind::UnknownDirective(other.to_string())),
            };
        };

        match directive {
            "meta" => {
                let (key, value) = split_word(rest);
                if key.is_empty() {
                    return err(ParseErrorKind::MissingArgument("meta key"));
                }
                block.meta.push((key.to_string(), value.to_string()));
            }
            "node" => {
                let (id_tok, rest) = split_word(rest);
                let id = parse_id(id_tok, line)?;
                if id != block.nodes.len() {
                    return err(ParseErrorKind::NonSequentialNode {
                        expected: block.nodes.len(),
                        found: id,
                    });
                }
                let (op_tok, rest) = split_word(rest);
                if op_tok.is_empty() {
                    return err(ParseErrorKind::MissingArgument("opcode"));
                }
                let Some(op) = Operation::from_mnemonic(op_tok) else {
                    return err(ParseErrorKind::UnknownOpcode(op_tok.to_string()));
                };
                let node = match rest.strip_prefix('@') {
                    // Trimmed, so that everything the parser accepts is re-writable
                    // (the writer rejects names with surrounding whitespace).
                    Some(name) => Node::new(op).with_name(name.trim()),
                    None if rest.is_empty() => Node::new(op),
                    None => return err(ParseErrorKind::TrailingInput(rest.to_string())),
                };
                block.nodes.push(node);
            }
            "edge" => {
                let (from_tok, rest) = split_word(rest);
                let (to_tok, rest) = split_word(rest);
                if !rest.is_empty() {
                    return err(ParseErrorKind::TrailingInput(rest.to_string()));
                }
                let from = declared(block, from_tok, line)?;
                let to = declared(block, to_tok, line)?;
                block.edges.push((from, to));
            }
            "output" | "forbid" => {
                let (id_tok, rest) = split_word(rest);
                if !rest.is_empty() {
                    return err(ParseErrorKind::TrailingInput(rest.to_string()));
                }
                let id = declared(block, id_tok, line)?;
                if directive == "output" {
                    block.outputs.push(id);
                } else {
                    block.forbidden.push(id);
                }
            }
            "end" => {
                if !rest.is_empty() {
                    return err(ParseErrorKind::TrailingInput(rest.to_string()));
                }
                let done = open.take().expect("a block is open in this branch");
                let dfg = Dfg::from_nodes(
                    done.name.clone(),
                    done.nodes,
                    done.edges,
                    done.outputs,
                    done.forbidden,
                )
                .map_err(|source| ParseError {
                    line,
                    kind: ParseErrorKind::Graph {
                        block: done.name,
                        source,
                    },
                })?;
                blocks.push(CorpusBlock {
                    dfg,
                    meta: done.meta,
                });
            }
            other => return err(ParseErrorKind::UnknownDirective(other.to_string())),
        }
    }

    if let Some(block) = open {
        return Err(ParseError {
            line: block.opened_at,
            kind: ParseErrorKind::UnterminatedBlock(block.name),
        });
    }
    Ok(blocks)
}

/// Splits the first whitespace-delimited word off `s`, returning `(word, rest)` with
/// the rest trimmed on the left.
fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim_start();
    match s.find(char::is_whitespace) {
        Some(at) => (&s[..at], s[at..].trim_start()),
        None => (s, ""),
    }
}

fn parse_id(token: &str, line: usize) -> Result<usize, ParseError> {
    if token.is_empty() {
        return Err(ParseError {
            line,
            kind: ParseErrorKind::MissingArgument("node id"),
        });
    }
    token.parse().map_err(|_| ParseError {
        line,
        kind: ParseErrorKind::BadInteger(token.to_string()),
    })
}

fn declared(block: &OpenBlock, token: &str, line: usize) -> Result<NodeId, ParseError> {
    let id = parse_id(token, line)?;
    if id >= block.nodes.len() {
        return Err(ParseError {
            line,
            kind: ParseErrorKind::UndeclaredNode(id),
        });
    }
    Ok(NodeId::from_index(id))
}
