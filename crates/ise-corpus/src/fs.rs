//! Filesystem loading and validation of corpora.

use std::collections::HashMap;
use std::error::Error;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
/// This is [`load_corpus`] with one thread: it parses the files in order on the
/// calling thread and spawns none.
///
/// # Errors
///
/// Returns [`CorpusError`] if `path` cannot be read, any file fails to parse, two
/// files define the same block name, or no block is found at all.
pub fn load_corpus_path(path: impl AsRef<Path>) -> Result<Vec<CorpusBlock>, CorpusError> {
    load_corpus(path, 1)
}

/// Loads and validates a corpus from `path` like [`load_corpus_path`], parsing its
/// files on up to `threads` scoped workers.
///
/// The workers claim whole files through a shared cursor, and the parsed files are
/// then merged in file order, and block names are checked across files. So the
/// blocks, their order, and the error returned (the first one in file order, with
/// the same text) are exactly those of [`load_corpus_path`], for every `threads`.
/// With `threads <= 1`, or a single file, nothing is spawned.
///
/// # Errors
///
/// As [`load_corpus_path`].
pub fn load_corpus(
    path: impl AsRef<Path>,
    threads: usize,
) -> Result<Vec<CorpusBlock>, CorpusError> {
    let path = path.as_ref();
    let files = corpus_files(path)?;
    let workers = threads.min(files.len());
    if workers <= 1 {
        return merge_files(path, &files, &[], files.iter().map(|file| parse_file(file)));
    }
    let parsed: Vec<OnceLock<ParsedFile>> = files.iter().map(|_| OnceLock::new()).collect();
    let cursor = AtomicUsize::new(0);
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(file) = files.get(i) else {
                    break;
                };
                parsed[i]
                    .set(parse_file(file))
                    .expect("each file is parsed exactly once");
            });
        }
    });
    merge_files(
        path,
        &files,
        &[],
        parsed
            .into_iter()
            .map(|cell| cell.into_inner().expect("every file was parsed")),
    )
}

/// The files of a corpus read into memory but not yet parsed, as [`read_corpus`]
/// returns them.
///
/// [`CorpusText::parse`] turns them into exactly the blocks, or the error, that
/// [`load_corpus_path`] returns for the same bytes. [`CorpusText::same_bytes`]
/// tells whether two reads listed the same files with the same contents, so a
/// caller can keep a parse and reuse it only while the bytes are unchanged (the
/// `ise serve` source cache does).
#[derive(Debug)]
pub struct CorpusText {
    path: PathBuf,
    /// Every file of the corpus, in load order.
    files: Vec<PathBuf>,
    /// The contents of `files`, in order, up to the first file that could not be
    /// read.
    texts: Vec<String>,
    /// The error reading `files[texts.len()]`: reading stops at the first failure,
    /// as loading does.
    unread: Option<CorpusError>,
}

/// Lists and reads the corpus at `path` (a file, or a directory's `*.dfg` files in
/// name order, as [`load_corpus_path`] does) without parsing it.
///
/// A file that cannot be read ends the read; its error is returned by
/// [`CorpusText::parse`], after the errors of the files before it, so the error
/// order is that of [`load_corpus_path`].
///
/// # Errors
///
/// Returns [`CorpusError::Io`] if `path` is a directory that cannot be listed.
pub fn read_corpus(path: impl AsRef<Path>) -> Result<CorpusText, CorpusError> {
    let path = path.as_ref();
    let files = corpus_files(path)?;
    let mut texts = Vec::with_capacity(files.len());
    let mut unread = None;
    for file in &files {
        match read_file(file) {
            Ok(text) => texts.push(text),
            Err(error) => {
                unread = Some(error);
                break;
            }
        }
    }
    Ok(CorpusText {
        path: path.to_path_buf(),
        files,
        texts,
        unread,
    })
}

impl CorpusText {
    /// Whether both reads listed the same files and read every one of them to the
    /// same bytes.
    pub fn same_bytes(&self, other: &CorpusText) -> bool {
        self.unread.is_none()
            && other.unread.is_none()
            && self.files == other.files
            && self.texts == other.texts
    }

    /// Parses the text read: exactly the blocks, or the first error in file order,
    /// that [`load_corpus_path`] returns for these bytes. The text is handed back
    /// with the blocks, so a caller can keep both.
    ///
    /// # Errors
    ///
    /// As [`load_corpus_path`], including the error reading a file.
    pub fn parse(mut self) -> Result<(Vec<CorpusBlock>, CorpusText), CorpusError> {
        let unread = self.unread.take();
        let parsed = self
            .files
            .iter()
            .zip(&self.texts)
            .map(|(file, text)| parse_text(file, text))
            .chain(unread.map(Err));
        let blocks = merge_files(&self.path, &self.files, &self.texts, parsed)?;
        Ok((blocks, self))
    }
}

/// One file's blocks, or the error reading or parsing it.
type ParsedFile = Result<Vec<CorpusBlock>, CorpusError>;

/// The files of the corpus at `path`: the path itself, or a directory's `*.dfg`
/// files in name order.
fn corpus_files(path: &Path) -> Result<Vec<PathBuf>, CorpusError> {
    let io = |source| CorpusError::Io {
        path: path.to_path_buf(),
        source,
    };
    if !path.is_dir() {
        return Ok(vec![path.to_path_buf()]);
    }
    let mut files = Vec::new();
    for entry in path.read_dir().map_err(io)? {
        let file = entry.map_err(io)?.path();
        if file.extension().is_some_and(|ext| ext == "dfg") {
            files.push(file);
        }
    }
    files.sort();
    Ok(files)
}

/// Reads and parses one corpus file, tagging any error with its path.
fn parse_file(file: &Path) -> ParsedFile {
    parse_text(file, &read_file(file)?)
}

/// Reads one corpus file, tagging an error with its path.
fn read_file(file: &Path) -> Result<String, CorpusError> {
    std::fs::read_to_string(file).map_err(|source| CorpusError::Io {
        path: file.to_path_buf(),
        source,
    })
}

/// Parses the text of one corpus file, tagging an error with its path.
fn parse_text(file: &Path, text: &str) -> ParsedFile {
    parse_corpus(text).map_err(|source| CorpusError::Parse {
        path: file.to_path_buf(),
        source,
    })
}

/// Concatenates the parsed `files` in order, returning the first error in file
/// order: a file's own error, or a block name that an earlier file defined.
/// Stops reading a lazy `parsed` at the first file that failed.
///
/// The parser rejects duplicate names within one file; the same invariant holds
/// across the files of a directory, so block names key the corpus. That check runs
/// once, after the files parsed, with the names borrowed from their blocks: a
/// duplicate sits in a file before any file that failed, so it is the first error.
///
/// `texts` holds the bytes that were parsed, for the files a caller kept; a
/// duplicate's line is looked up there, and in a file read again only past them.
fn merge_files(
    path: &Path,
    files: &[PathBuf],
    texts: &[String],
    parsed: impl IntoIterator<Item = ParsedFile>,
) -> Result<Vec<CorpusBlock>, CorpusError> {
    let mut per_file: Vec<Vec<CorpusBlock>> = Vec::with_capacity(files.len());
    let mut failed = None;
    for file_blocks in parsed {
        match file_blocks {
            Ok(file_blocks) => per_file.push(file_blocks),
            Err(error) => {
                failed = Some(error);
                break;
            }
        }
    }
    let count = per_file.iter().map(Vec::len).sum();
    if per_file.len() > 1 {
        // Each block name, mapped to the index in `files` of the file defining it.
        let mut first_file: HashMap<&str, usize> = HashMap::with_capacity(count);
        for (index, file_blocks) in per_file.iter().enumerate() {
            for block in file_blocks {
                let name = block.dfg.name();
                if let Some(&first) = first_file.get(name) {
                    return Err(duplicate_block(
                        &files[index],
                        texts.get(index).map(String::as_str),
                        name,
                        &files[first],
                    ));
                }
                first_file.insert(name, index);
            }
        }
    }
    if let Some(error) = failed {
        return Err(error);
    }
    let mut blocks = Vec::with_capacity(count);
    for file_blocks in per_file {
        blocks.extend(file_blocks);
    }
    if blocks.is_empty() {
        return Err(CorpusError::Empty {
            path: path.to_path_buf(),
        });
    }
    Ok(blocks)
}

/// The error for block `name` of `file`, already defined in `first_path`. The
/// header's line is found in `text`, the bytes that were parsed; a caller that did
/// not keep them passes `None`, and `file` is read again on this error path.
fn duplicate_block(file: &Path, text: Option<&str>, name: &str, first_path: &Path) -> CorpusError {
    let line = match text {
        Some(text) => header_line(text, name),
        None => match read_file(file) {
            Ok(text) => header_line(&text, name),
            Err(error) => return error,
        },
    };
    CorpusError::DuplicateBlock {
        path: file.to_path_buf(),
        line,
        name: name.to_string(),
        first_path: first_path.to_path_buf(),
    }
}

/// The 1-based line of the `dfg <name>` header in `text`, or 0 if there is none
/// (the file changed after it was parsed). A parsed text has the header, and —
/// names being unique within one file — only one: only `dfg` directives open
/// blocks, and comments, `meta` values and `@` node names all live on lines
/// starting with other directives.
fn header_line(text: &str, name: &str) -> usize {
    text.lines()
        .position(|raw| {
            raw.trim()
                .strip_prefix("dfg")
                .is_some_and(|rest| rest.trim() == name)
        })
        .map_or(0, |index| index + 1)
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

    /// A duplicate read by `read_corpus` is reported at its line in the bytes that
    /// were read, even when the file changes before the parse.
    #[test]
    fn duplicate_lines_come_from_the_bytes_read() {
        let dir = unique_dir("dup-read");
        std::fs::write(dir.join("a.dfg"), "dfg same\nnode 0 in\nend\n").unwrap();
        std::fs::write(dir.join("b.dfg"), "\ndfg same\nnode 0 in\nend\n").unwrap();
        let text = read_corpus(&dir).unwrap();
        std::fs::write(
            dir.join("b.dfg"),
            "# one\n# two\n# three\n\ndfg same\nnode 0 in\nend\n",
        )
        .unwrap();
        let err = text.parse().unwrap_err();
        assert!(
            matches!(&err, CorpusError::DuplicateBlock { path, line, .. }
                if path.ends_with("b.dfg") && *line == 2),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// `load_corpus` at 1, 2 and 8 threads, and a parsed `read_corpus`, return
    /// what `load_corpus_path` does: the same blocks in the same order, or the same
    /// error variant and text.
    fn assert_thread_count_invariant(path: &Path) -> Result<Vec<CorpusBlock>, CorpusError> {
        let serial = load_corpus_path(path);
        let read = || read_corpus(path)?.parse().map(|(blocks, _)| blocks);
        for (threads, parallel) in [1, 2, 8]
            .into_iter()
            .map(|threads| (threads, load_corpus(path, threads)))
            .chain([(0, read())])
        {
            match (&serial, &parallel) {
                (Ok(expected), Ok(got)) => {
                    assert_eq!(expected.len(), got.len(), "threads={threads}");
                    for (a, b) in expected.iter().zip(got) {
                        assert!(crate::dfg_eq(&a.dfg, &b.dfg), "threads={threads}");
                        assert_eq!(a.meta, b.meta, "threads={threads}");
                    }
                }
                (Err(expected), Err(got)) => {
                    assert_eq!(
                        std::mem::discriminant(expected),
                        std::mem::discriminant(got),
                        "threads={threads}: {expected} vs {got}"
                    );
                    assert_eq!(expected.to_string(), got.to_string(), "threads={threads}");
                }
                _ => panic!("threads={threads}: {serial:?} vs {parallel:?}"),
            }
        }
        serial
    }

    #[test]
    fn parallel_loads_equal_the_serial_load() {
        let dir = unique_dir("par");
        // Many files, so every worker claims several, out of name order.
        for i in 0..12 {
            std::fs::write(
                dir.join(format!("f{i:02}.dfg")),
                format!("dfg b{i}\nmeta weight {i}\nnode 0 in\nnode 1 not\nedge 0 1\nend\ndfg c{i}\nnode 0 in\nend\n"),
            )
            .unwrap();
        }
        let blocks = assert_thread_count_invariant(&dir).unwrap();
        assert_eq!(blocks.len(), 24);
        assert_eq!(blocks[0].dfg.name(), "b0");
        assert_eq!(blocks[23].dfg.name(), "c11");

        // A single file, named directly.
        let single = assert_thread_count_invariant(&dir.join("f03.dfg")).unwrap();
        assert_eq!(single.len(), 2);

        // A duplicate across files, and a later file that fails to parse: the
        // duplicate comes first in file order, so it is the error.
        std::fs::write(dir.join("f05.dfg"), "dfg b1\nnode 0 in\nend\n").unwrap();
        std::fs::write(dir.join("f09.dfg"), "dfg x\nnode 0 frob\nend\n").unwrap();
        let err = assert_thread_count_invariant(&dir).unwrap_err();
        assert!(
            matches!(&err, CorpusError::DuplicateBlock { name, first_path, .. }
                if name == "b1" && first_path.ends_with("f01.dfg")),
            "{err}"
        );
        // With the duplicate gone, the later parse error is the first error.
        std::fs::write(dir.join("f05.dfg"), "dfg b5\nnode 0 in\nend\n").unwrap();
        let err = assert_thread_count_invariant(&dir).unwrap_err();
        assert!(matches!(err, CorpusError::Parse { .. }), "{err}");
        assert!(err.to_string().contains("f09.dfg"), "{err}");
        // A parse error before a duplicate wins the same way.
        std::fs::write(dir.join("f10.dfg"), "dfg b0\nnode 0 in\nend\n").unwrap();
        let err = assert_thread_count_invariant(&dir).unwrap_err();
        assert!(err.to_string().contains("f09.dfg"), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();

        // An empty directory, and a missing path.
        let empty = unique_dir("par-empty");
        let err = assert_thread_count_invariant(&empty).unwrap_err();
        assert!(matches!(err, CorpusError::Empty { .. }), "{err}");
        let err = assert_thread_count_invariant(&empty.join("nope")).unwrap_err();
        assert!(matches!(err, CorpusError::Io { .. }), "{err}");
        std::fs::remove_dir_all(&empty).unwrap();
    }

    #[test]
    fn read_text_compares_by_bytes_and_reports_its_read_error_in_file_order() {
        let dir = unique_dir("text");
        std::fs::write(dir.join("a.dfg"), "dfg ay\nnode 0 in\nend\n").unwrap();
        std::fs::write(dir.join("b.dfg"), "dfg bee\nnode 0 in\nend\n").unwrap();
        let (blocks, text) = read_corpus(&dir).unwrap().parse().unwrap();
        assert_eq!(blocks.len(), 2);
        assert!(text.same_bytes(&read_corpus(&dir).unwrap()));
        // The same length, other bytes.
        std::fs::write(
            dir.join("b.dfg"),
            "dfg bee\nnode 0 in\nend\n".replace("bee", "bed"),
        )
        .unwrap();
        assert!(!text.same_bytes(&read_corpus(&dir).unwrap()));
        // A file more, or a file less.
        std::fs::write(dir.join("b.dfg"), "dfg bee\nnode 0 in\nend\n").unwrap();
        std::fs::write(dir.join("c.dfg"), "dfg sea\nnode 0 in\nend\n").unwrap();
        assert!(!text.same_bytes(&read_corpus(&dir).unwrap()));
        std::fs::remove_file(dir.join("c.dfg")).unwrap();
        assert!(text.same_bytes(&read_corpus(&dir).unwrap()));
        std::fs::remove_file(dir.join("b.dfg")).unwrap();
        assert!(!text.same_bytes(&read_corpus(&dir).unwrap()));
        // A file that cannot be read (a directory named like a corpus file) comes
        // after a parse error in file order, so the parse error wins; alone, the
        // read error is the error, and such a read matches nothing.
        std::fs::create_dir(dir.join("c.dfg")).unwrap();
        let unreadable = read_corpus(&dir).unwrap();
        assert!(!unreadable.same_bytes(&unreadable));
        assert!(matches!(
            assert_thread_count_invariant(&dir),
            Err(CorpusError::Io { .. })
        ));
        std::fs::write(dir.join("b.dfg"), "dfg x\nnode 0 frob\nend\n").unwrap();
        assert!(matches!(
            assert_thread_count_invariant(&dir),
            Err(CorpusError::Parse { .. })
        ));
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
