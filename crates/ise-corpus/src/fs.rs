//! Filesystem loading and validation of corpora.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};

use crate::parse::{parse_corpus, ParseError};
use crate::CorpusBlock;

/// Error loading a corpus from disk: an I/O failure or a parse failure, each tagged
/// with the offending path.
#[derive(Debug)]
#[non_exhaustive]
pub enum CorpusError {
    /// Reading the file or directory failed.
    Io {
        /// The path that could not be read.
        path: PathBuf,
        /// The underlying I/O error.
        source: std::io::Error,
    },
    /// A `.dfg` file did not parse.
    Parse {
        /// The file that was rejected.
        path: PathBuf,
        /// The underlying parse error (with its line number).
        source: ParseError,
    },
    /// The path exists but contains no `.dfg` blocks.
    Empty {
        /// The offending corpus path.
        path: PathBuf,
    },
    /// Two blocks in the corpus share a name (the parser rejects this within one
    /// file; this variant covers clashes *across* files of a directory). Without
    /// this check the last definition would silently win and corpus statistics
    /// would key two different graphs under one name.
    DuplicateBlock {
        /// The file containing the second occurrence.
        path: PathBuf,
        /// 1-based line of the duplicate `dfg <name>` header in `path`.
        line: usize,
        /// The clashing block name.
        name: String,
        /// The file that defined the name first.
        first_path: PathBuf,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CorpusError::Parse { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CorpusError::Empty { path } => {
                write!(f, "{}: no .dfg blocks found", path.display())
            }
            CorpusError::DuplicateBlock {
                path,
                line,
                name,
                first_path,
            } => {
                write!(
                    f,
                    "{}: line {line}: duplicate block name `{name}` (first defined in {})",
                    path.display(),
                    first_path.display()
                )
            }
        }
    }
}

impl Error for CorpusError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CorpusError::Io { source, .. } => Some(source),
            CorpusError::Parse { source, .. } => Some(source),
            CorpusError::Empty { .. } | CorpusError::DuplicateBlock { .. } => None,
        }
    }
}

/// Loads and validates a corpus from `path`.
///
/// `path` may be a single `.dfg` file (any extension is accepted for explicit file
/// paths) or a directory, in which case every `*.dfg` file directly inside it is
/// loaded in file-name order — so corpora enumerate deterministically on every
/// platform. Parsing doubles as validation: every block comes back as a fully checked
/// [`ise_graph::Dfg`].
///
/// # Errors
///
/// Returns [`CorpusError`] if `path` cannot be read, any file fails to parse, or no
/// block is found at all.
pub fn load_corpus_path(path: impl AsRef<Path>) -> Result<Vec<CorpusBlock>, CorpusError> {
    let path = path.as_ref();
    let io = |source| CorpusError::Io {
        path: path.to_path_buf(),
        source,
    };
    let mut files = Vec::new();
    if path.is_dir() {
        for entry in path.read_dir().map_err(io)? {
            let file = entry.map_err(io)?.path();
            if file.extension().is_some_and(|ext| ext == "dfg") {
                files.push(file);
            }
        }
        files.sort();
    } else {
        files.push(path.to_path_buf());
    }

    let mut blocks: Vec<CorpusBlock> = Vec::new();
    // Each block name, mapped to the index in `files` of the file defining it.
    let mut first_file: HashMap<String, usize> = HashMap::new();
    for (index, file) in files.iter().enumerate() {
        let text = std::fs::read_to_string(file).map_err(|source| CorpusError::Io {
            path: file.clone(),
            source,
        })?;
        let parsed = parse_corpus(&text).map_err(|source| CorpusError::Parse {
            path: file.clone(),
            source,
        })?;
        // The parser rejects duplicate names within one file; enforce the same
        // invariant across the files of a directory, so block names key the corpus.
        for block in parsed {
            let name = block.dfg.name();
            if let Some(&first) = first_file.get(name) {
                return Err(CorpusError::DuplicateBlock {
                    line: header_line(&text, name),
                    path: file.clone(),
                    name: name.to_string(),
                    first_path: files[first].clone(),
                });
            }
            first_file.insert(name.to_string(), index);
            blocks.push(block);
        }
    }
    if blocks.is_empty() {
        return Err(CorpusError::Empty {
            path: path.to_path_buf(),
        });
    }
    Ok(blocks)
}

/// The 1-based line of the `dfg <name>` header in `text`. `text` has already
/// parsed successfully, so the header exists and — names being unique within one
/// file — is unique: only `dfg` directives open blocks, and comments, `meta` values
/// and `@` node names all live on lines starting with other directives.
fn header_line(text: &str, name: &str) -> usize {
    for (index, raw) in text.lines().enumerate() {
        let trimmed = raw.trim();
        if let Some(rest) = trimmed.strip_prefix("dfg") {
            if rest.trim() == name {
                return index + 1;
            }
        }
    }
    unreachable!("a parsed block always has a `dfg {name}` header line")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unique_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ise-corpus-fs-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn loads_directories_in_name_order_and_single_files() {
        let dir = unique_dir("order");
        std::fs::write(dir.join("b.dfg"), "dfg bee\nnode 0 in\nend\n").unwrap();
        std::fs::write(dir.join("a.dfg"), "dfg ay\nnode 0 in\nend\n").unwrap();
        std::fs::write(dir.join("ignored.txt"), "not a corpus").unwrap();
        let blocks = load_corpus_path(&dir).unwrap();
        assert_eq!(blocks.len(), 2);
        assert_eq!(blocks[0].dfg.name(), "ay");
        assert_eq!(blocks[1].dfg.name(), "bee");

        let single = load_corpus_path(dir.join("b.dfg")).unwrap();
        assert_eq!(single.len(), 1);
        assert_eq!(single[0].dfg.name(), "bee");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reports_parse_errors_with_the_file_path() {
        let dir = unique_dir("err");
        std::fs::write(dir.join("bad.dfg"), "dfg x\nnode 0 frob\nend\n").unwrap();
        let err = load_corpus_path(&dir).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("bad.dfg"), "{text}");
        assert!(text.contains("line 2"), "{text}");
        assert!(matches!(err, CorpusError::Parse { .. }));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn duplicate_block_names_across_files_are_rejected() {
        let dir = unique_dir("dup");
        std::fs::write(dir.join("a.dfg"), "dfg same\nnode 0 in\nend\n").unwrap();
        std::fs::write(dir.join("b.dfg"), "dfg same\nnode 0 in\nend\n").unwrap();
        let err = load_corpus_path(&dir).unwrap_err();
        assert!(
            matches!(&err, CorpusError::DuplicateBlock { name, line, .. }
                if name == "same" && *line == 1),
            "{err}"
        );
        assert!(err.to_string().contains("b.dfg"), "{err}");
        assert!(err.to_string().contains("first defined in"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Regression (ISSUE 5 satellite): a duplicate buried mid-file must be reported
    /// with the exact line of its `dfg` header and the file of the first
    /// definition — never silently last-writer-wins.
    #[test]
    fn duplicate_errors_are_line_precise() {
        let dir = unique_dir("dup-line");
        std::fs::write(dir.join("a.dfg"), "dfg fst\nnode 0 in\nend\n").unwrap();
        std::fs::write(
            dir.join("b.dfg"),
            "# comment\ndfg other\nnode 0 in\nend\n\ndfg fst\nnode 0 in\nend\n",
        )
        .unwrap();
        let err = load_corpus_path(&dir).unwrap_err();
        match &err {
            CorpusError::DuplicateBlock {
                path,
                line,
                name,
                first_path,
            } => {
                assert!(path.ends_with("b.dfg"));
                assert_eq!(*line, 6, "line of the duplicate `dfg fst` header");
                assert_eq!(name, "fst");
                assert!(first_path.ends_with("a.dfg"));
            }
            other => panic!("expected DuplicateBlock, got {other}"),
        }
        assert!(err.to_string().contains("line 6"), "{err}");
        // No block of the clashing corpus leaks out: the load fails as a whole.
        assert!(err.source().is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_and_missing_paths_are_rejected() {
        let dir = unique_dir("empty");
        assert!(matches!(
            load_corpus_path(&dir),
            Err(CorpusError::Empty { .. })
        ));
        assert!(matches!(
            load_corpus_path(dir.join("nope.dfg")),
            Err(CorpusError::Io { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
