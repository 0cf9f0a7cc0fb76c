//! The `.dfg` parser: one cursor walks the bytes of the input once, straight into
//! the arrays of each block's graph.

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
    /// A carriage return that does not end its line sits inside free text (a `meta`
    /// value or an `@` node name, named here). Lines end at `\n` or `\r\n` only, so
    /// such text could not be written back.
    CarriageReturn(&'static str),
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
            ParseErrorKind::CarriageReturn(what) => {
                write!(
                    f,
                    "a carriage return inside a {what} (lines end at `\\n` or `\\r\\n`)"
                )
            }
            ParseErrorKind::Graph { block, source } => {
                write!(f, "block `{block}` is not a valid DFG: {source}")
            }
        }
    }
}

impl Error for ParseError {}

/// Parses one or more `.dfg` blocks out of `text`.
///
/// One cursor walks the bytes once. It dispatches on each line's directive word,
/// reads node ids in place and collects a block's directives in buffers reused
/// across blocks, with its names as slices of `text`; a block's graph and strings
/// are allocated, at their exact sizes, when its `end` line closes it.
///
/// Words are separated by [`char::is_whitespace`], and lines end at `\n` (a `\r`
/// before it is trailing whitespace). A `\r` inside free text, a `meta` value or an
/// `@` node name, is rejected: no line could carry it back.
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
    Parser {
        text,
        line: 1,
        ..Parser::default()
    }
    .run()
}

/// The cursor over one input, and the directives of the open block.
#[derive(Default)]
struct Parser<'a> {
    text: &'a str,
    /// Byte offset of the cursor, always on a char boundary.
    pos: usize,
    /// 1-based line of the cursor.
    line: usize,
    /// The open block's name and the line of its `dfg` header.
    open: Option<(&'a str, usize)>,
    /// Names opened so far: a hash lookup per header keeps inputs of many small
    /// blocks linear (a request body is outside input).
    names: HashSet<&'a str>,
    meta: Vec<(&'a str, &'a str)>,
    nodes: Vec<(Operation, Option<&'a str>)>,
    edges: Vec<(NodeId, NodeId)>,
    outputs: Vec<NodeId>,
    forbidden: Vec<NodeId>,
    blocks: Vec<CorpusBlock>,
}

impl<'a> Parser<'a> {
    fn run(mut self) -> Result<Vec<CorpusBlock>, ParseError> {
        while self.pos < self.text.len() {
            self.skip_space();
            // Blank lines and comments hold no directive.
            if self.peek_char().is_some() && !self.at(b'#') {
                self.directive()?;
            }
            self.next_line();
        }
        if let Some((name, opened_at)) = self.open {
            return Err(ParseError {
                line: opened_at,
                kind: ParseErrorKind::UnterminatedBlock(name.to_string()),
            });
        }
        Ok(self.blocks)
    }

    /// Parses the directive at the cursor, leaving the cursor on its line.
    fn directive(&mut self) -> Result<(), ParseError> {
        let directive = self.word();
        if directive == "dfg" {
            return self.open_block();
        }
        if self.open.is_none() {
            return Err(self.error(match directive {
                "meta" | "node" | "edge" | "output" | "forbid" | "end" => {
                    ParseErrorKind::OutsideBlock(directive.to_string())
                }
                other => ParseErrorKind::UnknownDirective(other.to_string()),
            }));
        }
        match directive {
            "meta" => {
                let key = self.word();
                if key.is_empty() {
                    return Err(self.error(ParseErrorKind::MissingArgument("meta key")));
                }
                let value = self.free_text("meta value")?;
                self.meta.push((key, value));
            }
            "node" => self.node()?,
            "edge" => {
                let (from, to) = (self.word(), self.word());
                self.line_end()?;
                let edge = (self.declared(from)?, self.declared(to)?);
                self.edges.push(edge);
            }
            "output" | "forbid" => {
                let token = self.word();
                self.line_end()?;
                let id = self.declared(token)?;
                if directive == "output" {
                    self.outputs.push(id);
                } else {
                    self.forbidden.push(id);
                }
            }
            "end" => {
                self.line_end()?;
                self.close_block()?;
            }
            other => return Err(self.error(ParseErrorKind::UnknownDirective(other.to_string()))),
        }
        Ok(())
    }

    fn open_block(&mut self) -> Result<(), ParseError> {
        if self.open.is_some() {
            return Err(self.error(ParseErrorKind::NestedBlock));
        }
        let name = self.word();
        if name.is_empty() {
            return Err(self.error(ParseErrorKind::MissingArgument("block name")));
        }
        self.line_end()?;
        if !self.names.insert(name) {
            return Err(self.error(ParseErrorKind::DuplicateBlockName(name.to_string())));
        }
        self.open = Some((name, self.line));
        Ok(())
    }

    fn node(&mut self) -> Result<(), ParseError> {
        let token = self.word();
        let id = self.node_id(token)?;
        if id != self.nodes.len() {
            return Err(self.error(ParseErrorKind::NonSequentialNode {
                expected: self.nodes.len(),
                found: id,
            }));
        }
        let mnemonic = self.word();
        if mnemonic.is_empty() {
            return Err(self.error(ParseErrorKind::MissingArgument("opcode")));
        }
        let Some(op) = Operation::from_mnemonic(mnemonic) else {
            return Err(self.error(ParseErrorKind::UnknownOpcode(mnemonic.to_string())));
        };
        self.skip_space();
        let name = if self.at(b'@') {
            self.pos += 1;
            // Trimmed, so that everything the parser accepts is re-writable (the
            // writer rejects names with surrounding whitespace).
            Some(self.free_text("node name")?)
        } else {
            self.line_end()?;
            None
        };
        self.nodes.push((op, name));
        Ok(())
    }

    /// Builds the open block's graph at its `end` line and empties the buffers.
    fn close_block(&mut self) -> Result<(), ParseError> {
        let (name, _) = self.open.take().expect("a block is open at `end`");
        let nodes = self
            .nodes
            .iter()
            .map(|&(op, node_name)| match node_name {
                Some(node_name) => Node::new(op).with_name(node_name),
                None => Node::new(op),
            })
            .collect();
        let dfg = Dfg::from_nodes(
            name,
            nodes,
            &self.edges,
            self.outputs.iter().copied(),
            self.forbidden.iter().copied(),
        )
        .map_err(|source| {
            self.error(ParseErrorKind::Graph {
                block: name.to_string(),
                source,
            })
        })?;
        let meta = self
            .meta
            .iter()
            .map(|&(key, value)| (key.to_string(), value.to_string()))
            .collect();
        self.blocks.push(CorpusBlock { dfg, meta });
        self.meta.clear();
        self.nodes.clear();
        self.edges.clear();
        self.outputs.clear();
        self.forbidden.clear();
        Ok(())
    }

    fn error(&self, kind: ParseErrorKind) -> ParseError {
        ParseError {
            line: self.line,
            kind,
        }
    }

    fn at(&self, byte: u8) -> bool {
        self.text.as_bytes().get(self.pos) == Some(&byte)
    }

    /// The length of the char at the cursor and whether it is whitespace, or `None`
    /// at the end of the line or of the input.
    #[inline]
    fn peek_char(&self) -> Option<(usize, bool)> {
        match *self.text.as_bytes().get(self.pos)? {
            b'\n' => None,
            b' ' | b'\t'..=b'\r' => Some((1, true)),
            0..=0x7f => Some((1, false)),
            _ => Some(wide_char(&self.text[self.pos..])),
        }
    }

    fn skip_space(&mut self) {
        while let Some((len, true)) = self.peek_char() {
            self.pos += len;
        }
    }

    /// The next word of the line (empty at its end), skipping the space before it.
    fn word(&mut self) -> &'a str {
        self.skip_space();
        let start = self.pos;
        while let Some((len, false)) = self.peek_char() {
            self.pos += len;
        }
        &self.text[start..self.pos]
    }

    /// The rest of the line, trimmed; the cursor moves to the line's end.
    fn rest(&mut self) -> &'a str {
        self.skip_space();
        let start = self.pos;
        self.pos = self.text.as_bytes()[start..]
            .iter()
            .position(|&b| b == b'\n')
            .map_or(self.text.len(), |at| start + at);
        self.text[start..self.pos].trim_end()
    }

    /// The rest of the line as the free text `what`, which a `\r` may not split.
    fn free_text(&mut self, what: &'static str) -> Result<&'a str, ParseError> {
        let text = self.rest();
        if text.as_bytes().contains(&b'\r') {
            return Err(self.error(ParseErrorKind::CarriageReturn(what)));
        }
        Ok(text)
    }

    /// Rejects anything left on the line.
    fn line_end(&mut self) -> Result<(), ParseError> {
        match self.rest() {
            "" => Ok(()),
            rest => Err(self.error(ParseErrorKind::TrailingInput(rest.to_string()))),
        }
    }

    /// Moves the cursor past the end of its line.
    fn next_line(&mut self) {
        match self.text.as_bytes()[self.pos..]
            .iter()
            .position(|&b| b == b'\n')
        {
            Some(at) => {
                self.pos += at + 1;
                self.line += 1;
            }
            None => self.pos = self.text.len(),
        }
    }

    /// `token` as a node id: what `usize::from_str` accepts, digits with an optional
    /// leading `+`, read in place.
    fn node_id(&self, token: &str) -> Result<usize, ParseError> {
        if token.is_empty() {
            return Err(self.error(ParseErrorKind::MissingArgument("node id")));
        }
        let digits = token.strip_prefix('+').unwrap_or(token).as_bytes();
        let id = match digits {
            [] => None,
            _ => digits.iter().try_fold(0usize, |id, &b| {
                let digit = b.wrapping_sub(b'0');
                if digit < 10 {
                    id.checked_mul(10)?.checked_add(usize::from(digit))
                } else {
                    None
                }
            }),
        };
        id.ok_or_else(|| self.error(ParseErrorKind::BadInteger(token.to_string())))
    }

    /// `token` as the id of a node already declared in the open block.
    fn declared(&self, token: &str) -> Result<NodeId, ParseError> {
        let id = self.node_id(token)?;
        if id >= self.nodes.len() {
            return Err(self.error(ParseErrorKind::UndeclaredNode(id)));
        }
        Ok(NodeId::from_index(id))
    }
}

/// The length of the non-ASCII char that starts `rest` and whether it is whitespace.
#[cold]
fn wide_char(rest: &str) -> (usize, bool) {
    let c = rest.chars().next().expect("the cursor sits on a char");
    (c.len_utf8(), c.is_whitespace())
}
