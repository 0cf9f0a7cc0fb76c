//! Every `ise` writer to stdout goes through one emitter, so a reader that closes
//! the pipe early gets the in-band `cannot write -` error and exit status 1, never
//! a panic.

use std::process::{Command, Stdio};

/// The write end of a pipe whose read end is already closed: the stdin of an
/// `ise` run that exits at once without reading it. A write to it fails with
/// `EPIPE` from the first byte, so the check below cannot race the reader.
fn readerless_pipe() -> Stdio {
    let mut reader = Command::new(env!("CARGO_BIN_EXE_ise"))
        .arg("no-such-subcommand")
        .stdin(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn ise");
    let write_end = reader.stdin.take().expect("piped stdin");
    reader.wait().expect("reader exits");
    Stdio::from(write_end)
}

#[test]
fn stdout_writers_report_a_broken_pipe_in_band() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/../../corpus");
    for args in [
        &["help"][..],
        &["report", "--corpus", corpus],
        // The daemon announces its bound address on stdout before serving.
        &["serve", "--listen", "127.0.0.1:0"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_ise"))
            .args(args)
            .stdout(readerless_pipe())
            .stderr(Stdio::piped())
            .output()
            .expect("run ise");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.contains("ise: cannot write -: Broken pipe"),
            "{args:?}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
