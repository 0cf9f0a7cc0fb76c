//! Format-level integration tests: the parse ∘ write = id property over generated
//! corpora, the malformed-input rejection table, and the agreement of the one-pass
//! parser with the line parser it replaced (`line_parser`, a test oracle).

mod line_parser;

use proptest::prelude::*;

use ise_corpus::{dfg_eq, parse_corpus, write_block, write_corpus, CorpusBlock, ParseErrorKind};
use ise_workloads::mibench_like::{generate_block, MiBenchLikeConfig};
use ise_workloads::random_dag::{random_dag, RandomDagConfig};
use ise_workloads::tree::{TreeDfgBuilder, TreeOrientation};

fn assert_round_trip(block: &CorpusBlock) -> Result<(), TestCaseError> {
    let text = write_block(block);
    let reparsed = match parse_corpus(&text) {
        Ok(blocks) => blocks,
        Err(e) => {
            return Err(TestCaseError::fail(format!(
                "{} does not re-parse: {e}\n{text}",
                block.dfg.name()
            )))
        }
    };
    prop_assert_eq!(reparsed.len(), 1);
    prop_assert!(
        dfg_eq(&block.dfg, &reparsed[0].dfg),
        "{} does not round-trip",
        block.dfg.name()
    );
    prop_assert_eq!(&block.meta, &reparsed[0].meta);
    // The writer is canonical: write ∘ parse ∘ write = write.
    prop_assert_eq!(write_block(&reparsed[0]), text);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// parse ∘ write is the identity on every workload family, across random sizes,
    /// seeds and memory densities.
    #[test]
    fn random_dags_round_trip(
        nodes in 1usize..120,
        seed in any::<u64>(),
        memory_pct in 0usize..50,
    ) {
        let cfg = RandomDagConfig::new(nodes).with_memory_ratio(memory_pct as f64 / 100.0);
        let block = CorpusBlock {
            dfg: random_dag(&cfg, seed),
            meta: vec![("family".into(), "random-dag".into()), ("seed".into(), seed.to_string())],
        };
        assert_round_trip(&block)?;
    }

    #[test]
    fn mibench_like_blocks_round_trip(size in 4usize..200, seed in any::<u64>()) {
        let block = CorpusBlock {
            dfg: generate_block(&MiBenchLikeConfig::new(size), seed)
                .expect("generator output is always valid"),
            meta: Vec::new(),
        };
        assert_round_trip(&block)?;
    }

    #[test]
    fn trees_round_trip(depth in 1u32..8, fan_in in any::<bool>()) {
        let orientation = if fan_in { TreeOrientation::FanIn } else { TreeOrientation::FanOut };
        let block = CorpusBlock {
            dfg: TreeDfgBuilder::new(depth).with_orientation(orientation).build(),
            meta: Vec::new(),
        };
        assert_round_trip(&block)?;
    }
}

#[test]
fn multi_block_corpora_round_trip() {
    let blocks: Vec<CorpusBlock> = (0..4)
        .map(|i| CorpusBlock {
            dfg: random_dag(&RandomDagConfig::new(10 + i), 1000 + i as u64),
            meta: vec![("index".into(), i.to_string())],
        })
        .collect();
    let text = write_corpus(&blocks);
    let reparsed = parse_corpus(&text).expect("corpus re-parses");
    assert_eq!(reparsed.len(), blocks.len());
    for (a, b) in blocks.iter().zip(&reparsed) {
        assert!(dfg_eq(&a.dfg, &b.dfg));
        assert_eq!(a.meta, b.meta);
    }
    assert_eq!(write_corpus(&reparsed), text, "writer is canonical");
}

/// The malformed-input rejection table: every class of bad input is rejected with the
/// right error kind on the right line.
#[test]
fn malformed_inputs_are_rejected_with_precise_errors() {
    use ParseErrorKind as K;
    let cases: &[(&str, &str, usize, K)] = &[
        (
            "directive outside a block",
            "node 0 add\n",
            1,
            K::OutsideBlock("node".into()),
        ),
        (
            "unknown directive outside a block",
            "vertex 0 add\n",
            1,
            K::UnknownDirective("vertex".into()),
        ),
        (
            "unknown directive inside a block",
            "dfg x\nvertex 0 add\nend\n",
            2,
            K::UnknownDirective("vertex".into()),
        ),
        ("nested block", "dfg x\ndfg y\n", 2, K::NestedBlock),
        (
            "missing block name",
            "dfg\n",
            1,
            K::MissingArgument("block name"),
        ),
        (
            "block name with trailing input",
            "dfg two words\n",
            1,
            K::TrailingInput("words".into()),
        ),
        (
            "missing opcode",
            "dfg x\nnode 0\nend\n",
            2,
            K::MissingArgument("opcode"),
        ),
        (
            "unknown opcode",
            "dfg x\nnode 0 frob\nend\n",
            2,
            K::UnknownOpcode("frob".into()),
        ),
        (
            "non-numeric node id",
            "dfg x\nnode zero add\nend\n",
            2,
            K::BadInteger("zero".into()),
        ),
        (
            "out-of-order node ids",
            "dfg x\nnode 1 add\nend\n",
            2,
            K::NonSequentialNode {
                expected: 0,
                found: 1,
            },
        ),
        (
            "duplicate node id",
            "dfg x\nnode 0 add\nnode 0 sub\nend\n",
            3,
            K::NonSequentialNode {
                expected: 1,
                found: 0,
            },
        ),
        (
            "node trailing garbage",
            "dfg x\nnode 0 add junk\nend\n",
            2,
            K::TrailingInput("junk".into()),
        ),
        (
            "edge to an undeclared node",
            "dfg x\nnode 0 in\nedge 0 7\nend\n",
            3,
            K::UndeclaredNode(7),
        ),
        (
            "edge with trailing garbage",
            "dfg x\nnode 0 in\nnode 1 not\nedge 0 1 2\nend\n",
            4,
            K::TrailingInput("2".into()),
        ),
        (
            "output referencing a forward node",
            "dfg x\noutput 0\nnode 0 in\nend\n",
            2,
            K::UndeclaredNode(0),
        ),
        (
            "forbid referencing an undeclared node",
            "dfg x\nnode 0 in\nforbid 3\nend\n",
            3,
            K::UndeclaredNode(3),
        ),
        (
            "missing meta key",
            "dfg x\nmeta\nend\n",
            2,
            K::MissingArgument("meta key"),
        ),
        (
            "unterminated block",
            "dfg x\nnode 0 in\n",
            1,
            K::UnterminatedBlock("x".into()),
        ),
        (
            "duplicate block names",
            "dfg x\nnode 0 in\nend\ndfg x\n",
            4,
            K::DuplicateBlockName("x".into()),
        ),
        (
            "end with trailing garbage",
            "dfg x\nnode 0 in\nend now\n",
            3,
            K::TrailingInput("now".into()),
        ),
        (
            "a lone carriage return inside a meta value",
            "dfg x\nmeta k a\rb\nnode 0 in\nnode 1 not\nedge 0 1\nend\n",
            2,
            K::CarriageReturn("meta value"),
        ),
        (
            "a lone carriage return inside a node name",
            "dfg x\nnode 0 in @a\rb\nend\n",
            2,
            K::CarriageReturn("node name"),
        ),
    ];
    for (what, text, line, kind) in cases {
        let err = parse_corpus(text).expect_err(what);
        assert_eq!(err.line, *line, "{what}: wrong line ({err})");
        assert_eq!(&err.kind, kind, "{what}: wrong kind ({err})");
        line_parser::assert_agrees(text);
    }

    // Graph-level failures surface as `Graph` at the `end` line: a self loop and an
    // `in` node with a predecessor.
    let err = parse_corpus("dfg x\nnode 0 add\nedge 0 0\nend\n").expect_err("self loop");
    assert_eq!(err.line, 4);
    assert!(
        matches!(&err.kind, K::Graph { block, .. } if block == "x"),
        "{err}"
    );
    let err = parse_corpus("dfg x\nnode 0 add\nnode 1 in\nedge 0 1\nend\n").expect_err("fed input");
    assert_eq!(err.line, 5);
    assert!(matches!(&err.kind, K::Graph { .. }), "{err}");

    // An empty block is an empty graph.
    let err = parse_corpus("dfg x\nend\n").expect_err("empty block");
    assert!(matches!(&err.kind, K::Graph { .. }), "{err}");
}

/// Comments, blank lines and indentation are tolerated everywhere.
#[test]
fn comments_and_whitespace_are_ignored() {
    let text = "\
# header comment

dfg spaced
  # indented comment
  meta family test
  node 0 in @a
  node 1 not

  edge 0 1
end
";
    let blocks = parse_corpus(text).expect("parses");
    assert_eq!(blocks.len(), 1);
    assert_eq!(blocks[0].dfg.len(), 2);
    assert_eq!(blocks[0].meta, vec![("family".into(), "test".into())]);
}

#[test]
fn the_one_pass_parser_agrees_with_the_line_parser_on_the_committed_corpus() {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    let mut files = 0;
    for entry in std::fs::read_dir(dir).expect("the committed corpus is readable") {
        let path = entry.expect("directory entry").path();
        if path.extension().is_some_and(|ext| ext == "dfg") {
            let text = std::fs::read_to_string(&path).expect("corpus file is readable");
            assert!(parse_corpus(&text).is_ok(), "{path:?}");
            line_parser::assert_agrees(&text);
            files += 1;
        }
    }
    assert!(files > 0);
}

#[test]
fn the_one_pass_parser_agrees_with_the_line_parser_on_2000_generated_blocks() {
    let blocks: Vec<CorpusBlock> = (0..2000u64)
        .map(|i| CorpusBlock {
            dfg: generate_block(&MiBenchLikeConfig::new(12 + (i % 21) as usize), i)
                .expect("generator output is always valid"),
            meta: vec![("seed".into(), i.to_string())],
        })
        .collect();
    let text = write_corpus(&blocks);
    assert_eq!(parse_corpus(&text).expect("parses").len(), 2000);
    line_parser::assert_agrees(&text);
}

/// Inputs at the edges of the lexical rules: whitespace of every kind between
/// words, line endings, and ids at the limits of `usize::from_str`.
#[test]
fn the_one_pass_parser_agrees_with_the_line_parser_on_lexical_edge_cases() {
    let cases = [
        "dfg x\r\nnode 0 in\r\nnode 1 not\r\nedge 0 1\r\nend\r\n",
        "dfg x\nnode 0 in\nend\r",
        "dfg x\nnode 0 in\nend",
        "\u{feff}dfg x\nnode 0 in\nend\n",
        "\u{a0}dfg\u{a0}x\u{2028}\nnode\u{3000}0\u{85}in\u{a0}@\u{a0}a b\u{a0}\nend\u{200a}\n",
        "dfg x\n\tnode\x0b0\x0cin\n  end  \n",
        "dfg x\nnode +0 in\nnode 0001 not\nedge +0 1\nend\n",
        "dfg x\nnode -0 in\nend\n",
        "dfg x\nnode + in\nend\n",
        "dfg x\nnode 18446744073709551616 in\nend\n",
        "dfg x\nnode 0 in\nedge 0 18446744073709551615\nend\n",
        "dfg x\nnode 0 in @\nnode 1 not @  \u{e9}t\u{e9} \nedge 0 1\nend\n",
        "dfg x\nnode 0 in@a\nend\n",
        "dfg x\nnode 0 in\rfoo\nend\n",
        "dfg x\nmeta k\rv\nnode 0 in @\ra\nend\n",
        "dfg x\nmeta k v\r\r\nnode 0 in @a \r\nend\n",
        "dfg x\nmeta\u{a0}k\u{a0}\u{a0}two  words\u{a0}\nnode 0 in\nend\n",
        "dfg x\nmeta k a\rb\nnode 0 frob\nend\n",
        "dfg x\nmeta k a\rb\n",
        "dfg x\nnode 0 in #not a comment\nend\n",
        "  # comment\n#\ndfg x\nnode 0 in\nend\n",
        "dfg x y\n",
        "dfg\u{a0}\n",
        "end\n",
        "meta\n",
        "frob\n",
        "dfg x\nedge\nend\n",
        "dfg x\nnode 0 in\nedge 0\nend\n",
        "dfg x\nnode 0 in\noutput\nend\n",
        "dfg x\nnode 0 in\nforbid 0 0\nend\n",
        "dfg x\nnode 0 in\nnode 1 in\nedge 0 1\nend\n",
        "dfg a\nnode 0 in\nend\ndfg b\nnode 0 in\nend\ndfg a\nend\n",
        "",
        "\n\n\n",
    ];
    for text in cases {
        line_parser::assert_agrees(text);
    }
}
