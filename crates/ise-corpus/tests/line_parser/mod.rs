//! The `.dfg` line parser that `ise_corpus::parse_corpus` replaced, kept as a test
//! oracle: it splits the input with `str::lines`, trims each line and splits it into
//! words with `char::is_whitespace`. The one-pass parser must build the same blocks
//! or report the same `(line, kind)` error on every input, except where a lone `\r`
//! sits inside a `meta` value or an `@` node name: this parser accepts that text,
//! which the writer cannot serialize, and the one-pass parser rejects it.
//!
//! [`assert_agrees`] checks that claim on one input. Shared by `tests/format.rs` of
//! `ise-corpus` and, through `#[path]`, the workspace's `tests/parser_fuzz.rs`.

use std::collections::HashSet;

use ise_corpus::{dfg_eq, parse_corpus, CorpusBlock, ParseError, ParseErrorKind};
use ise_graph::{Dfg, Node, NodeId, Operation};

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

/// Parses one or more `.dfg` blocks out of `text`, one line at a time.
pub fn parse_corpus_by_lines(text: &str) -> Result<Vec<CorpusBlock>, ParseError> {
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
                    &done.edges,
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

/// `parse_corpus` and the line parser it replaced agree on `text`: the same blocks
/// (graphs, names and `meta`), or the same `(line, kind)` error. The one exception
/// is a lone `\r` inside a `meta` value or an `@` node name: the line parser
/// accepts that line, and `parse_corpus` rejects it.
pub fn assert_agrees(text: &str) {
    let new = parse_corpus(text);
    let old = parse_corpus_by_lines(text);
    match (&new, &old) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.len(), old.len(), "block counts differ on:\n{text}");
            for (a, b) in new.iter().zip(old) {
                assert!(
                    dfg_eq(&a.dfg, &b.dfg),
                    "{} differs on:\n{text}",
                    a.dfg.name()
                );
                assert_eq!(a.meta, b.meta, "{} meta differs on:\n{text}", a.dfg.name());
            }
        }
        (
            Err(ParseError {
                line,
                kind: ParseErrorKind::CarriageReturn(_),
            }),
            _,
        ) => {
            let rejected = text
                .split('\n')
                .nth(line - 1)
                .expect("the error names a line");
            assert!(
                rejected.trim_end().contains('\r'),
                "line {line} holds no lone carriage return: {rejected:?}"
            );
            if let Err(err) = &old {
                assert!(
                    err.line >= *line || matches!(err.kind, ParseErrorKind::UnterminatedBlock(_)),
                    "the line parser fails before line {line} ({err}) on:\n{text}"
                );
            }
        }
        (Err(new), Err(old)) => assert_eq!(new, old, "errors differ on:\n{text}"),
        _ => panic!("only one parser accepts:\n{text}\n{new:?}\n{old:?}"),
    }
}
