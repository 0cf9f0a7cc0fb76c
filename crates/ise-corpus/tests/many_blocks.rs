//! Corpora of many small blocks: block-name uniqueness is checked by hash lookup,
//! so inputs of tens of thousands of blocks parse in linear time and a late
//! duplicate is still reported at its exact line and file. A quadratic scan over
//! the blocks seen so far takes minutes on these inputs.

use std::fmt::Write as _;
use std::path::PathBuf;

use ise_corpus::{load_corpus_path, parse_corpus, CorpusError, ParseErrorKind};

/// Lines each [`tiny_block`] takes.
const BLOCK_LINES: usize = 3;

/// A one-vertex block: header, node and `end` on three lines.
fn tiny_block(out: &mut String, name: &str) {
    writeln!(out, "dfg {name}\nnode 0 in\nend").expect("writing to a String cannot fail");
}

fn tiny_blocks(names: impl IntoIterator<Item = String>) -> String {
    let mut text = String::new();
    for name in names {
        tiny_block(&mut text, &name);
    }
    text
}

#[test]
fn a_repeated_name_after_50000_blocks_is_rejected_at_its_line() {
    let mut text = tiny_blocks((0..49_999).map(|i| format!("b{i}")));
    let blocks = parse_corpus(&text).unwrap();
    assert_eq!(blocks.len(), 49_999);
    assert_eq!(blocks[49_998].dfg.name(), "b49998");

    tiny_block(&mut text, "b0");
    let err = parse_corpus(&text).unwrap_err();
    assert_eq!(err.kind, ParseErrorKind::DuplicateBlockName("b0".into()));
    assert_eq!(err.line, 49_999 * BLOCK_LINES + 1);
}

#[test]
fn a_cross_file_duplicate_in_the_last_of_8_files_names_both_files() {
    const FILES: usize = 8;
    const PER_FILE: usize = 2000;
    const CLASH_AT: usize = 1500;
    let dir = std::env::temp_dir().join(format!("ise-corpus-many-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let file = |f: usize| -> PathBuf { dir.join(format!("part-{f:02}.dfg")) };
    for f in 0..FILES {
        let names = (0..PER_FILE).map(|i| {
            if f == FILES - 1 && i == CLASH_AT {
                "p3-17".to_string() // first defined in part-03.dfg
            } else {
                format!("p{f}-{i}")
            }
        });
        std::fs::write(file(f), tiny_blocks(names)).unwrap();
    }

    let err = load_corpus_path(&dir).unwrap_err();
    match &err {
        CorpusError::DuplicateBlock {
            path,
            line,
            name,
            first_path,
        } => {
            assert_eq!(path, &file(FILES - 1));
            assert_eq!(*line, CLASH_AT * BLOCK_LINES + 1);
            assert_eq!(name, "p3-17");
            assert_eq!(first_path, &file(3));
        }
        other => panic!("expected DuplicateBlock, got {other}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}
