//! Process-level harness for the concurrent `ise serve` daemon: the built `ise`
//! binary is spawned with `--listen 127.0.0.1:0` and exercised the way real
//! clients do — concurrent TCP connections replaying a mixed workload against a
//! serial ground truth, the HTTP/1.1 shim, SIGTERM under load, and the
//! connection-error accounting for clients that vanish mid-line. The in-process
//! concurrency tests (same invariants, no sockets) live in
//! `tests/serve_concurrent.rs` at the workspace root.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use ise_bench::json::Json;

/// A tiny multiply-accumulate block; `{n}` is replaced to mint distinct blocks.
const TINY: &str = "dfg tiny{n}\nnode 0 in @a\nnode 1 in @x\nnode 2 in @acc\n\
                    node 3 mul\nnode 4 add\nedge 0 3\nedge 1 3\nedge 3 4\nedge 2 4\n\
                    output 4\nend\n";

fn tiny_block(n: usize) -> String {
    TINY.replace("{n}", &n.to_string())
}

fn corpus_file(name: &str) -> String {
    format!("{}/../../corpus/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// One spawned `ise serve --listen 127.0.0.1:0` daemon.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn spawn(extra_args: &[&str]) -> Daemon {
        let mut child = Command::new(env!("CARGO_BIN_EXE_ise"))
            .arg("serve")
            .arg("--listen")
            .arg("127.0.0.1:0")
            .args(extra_args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn ise serve");
        let stdout = child.stdout.take().expect("daemon stdout");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("read the listening banner");
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {line}"))
            .to_string();
        Daemon { child, addr }
    }

    fn connect(&self) -> TcpStream {
        let stream = TcpStream::connect(&self.addr).expect("connect to daemon");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("set read timeout");
        stream.set_nodelay(true).expect("set nodelay");
        stream
    }

    /// Sends one JSON-protocol request over a fresh connection.
    fn roundtrip(&self, line: &str) -> String {
        let mut stream = self.connect();
        writeln!(stream, "{line}").expect("send request");
        let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        response.trim_end().to_string()
    }

    /// Requests shutdown and asserts the daemon exits with status 0, returning
    /// everything it wrote to stderr.
    fn shutdown(mut self) -> String {
        let bye = self.roundtrip("{\"op\":\"shutdown\"}");
        assert!(bye.contains("\"ok\":true"), "{bye}");
        let status = wait_with_timeout(&mut self.child, Duration::from_secs(30));
        assert!(status.success(), "daemon must exit 0, got {status:?}");
        let mut stderr = String::new();
        if let Some(mut pipe) = self.child.stderr.take() {
            let _ = pipe.read_to_string(&mut stderr);
        }
        stderr
    }
}

fn wait_with_timeout(child: &mut Child, timeout: Duration) -> std::process::ExitStatus {
    let deadline = Instant::now() + timeout;
    loop {
        if let Some(status) = child.try_wait().expect("poll daemon") {
            return status;
        }
        if Instant::now() > deadline {
            let _ = child.kill();
            panic!("daemon did not exit within {timeout:?}");
        }
        thread::sleep(Duration::from_millis(20));
    }
}

/// Feeds `input` to an `ise serve` daemon on stdin, asserts it exits 0 at the end
/// of its input, and returns what it wrote to stdout.
fn stdin_session(input: &[u8]) -> String {
    let mut child = Command::new(env!("CARGO_BIN_EXE_ise"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn ise serve");
    child
        .stdin
        .take()
        .expect("daemon stdin")
        .write_all(input)
        .expect("send the requests");
    let status = wait_with_timeout(&mut child, Duration::from_secs(30));
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .expect("daemon stdout")
        .read_to_string(&mut stdout)
        .expect("read the answers");
    assert!(
        status.success(),
        "daemon must exit 0, got {status:?}:\n{stdout}"
    );
    stdout
}

/// Builds one request line with an inline block.
fn request(op: &str, block: &str, flags: &str) -> String {
    format!(
        "{{\"op\":\"{op}\",\"block\":{},\"flags\":{{{flags}}}}}",
        Json::str(block).render()
    )
}

/// The deterministic part of a response (the Rust-side `ci/strip-volatile.sh`):
/// content key + payload for successes, the whole line for errors.
fn stripped(response: &str) -> String {
    let doc = Json::parse(response).expect("response is JSON");
    if doc.get("ok").and_then(Json::as_bool) != Some(true) {
        return response.to_string();
    }
    format!(
        "{}:{}",
        doc.get("key").and_then(Json::as_str).expect("key"),
        doc.get("result").expect("result").render()
    )
}

fn server_counter(stats_response: &str, field: &str) -> u64 {
    Json::parse(stats_response)
        .expect("stats is JSON")
        .get("result")
        .and_then(|r| r.get("server"))
        .and_then(|s| s.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("server counter {field} in {stats_response}"))
}

/// The mixed workload replayed by every client: inline cold/warm keys, a
/// corpus-file block, an op mix, and malformed lines.
fn workload() -> Vec<String> {
    let mut lines = Vec::new();
    for n in 0..3 {
        lines.push(request("enumerate", &tiny_block(n), "\"budget\":5000"));
    }
    lines.push(format!(
        "{{\"op\":\"enumerate\",\"block\":{},\"flags\":{{\"budget\":20000}}}}",
        Json::str(corpus_file("mibench-like-12-42.dfg")).render()
    ));
    lines.push(request("group", &tiny_block(0), "\"budget\":5000"));
    lines.push(request(
        "select",
        &tiny_block(1),
        "\"budget\":5000,\"max-instr\":2",
    ));
    // Duplicates (warm for whoever comes second).
    for n in 0..3 {
        lines.push(request("enumerate", &tiny_block(n), "\"budget\":5000"));
    }
    lines.push("definitely not json".to_string());
    lines.push("{\"op\":\"frobnicate\"}".to_string());
    lines
}

/// Deterministic Fisher-Yates driven by an LCG, seeded per client.
fn shuffled(lines: &[String], seed: u64) -> Vec<String> {
    let mut order: Vec<String> = lines.to_vec();
    let mut state = seed
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    for i in (1..order.len()).rev() {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let j = (state >> 33) as usize % (i + 1);
        order.swap(i, j);
    }
    order
}

/// 8 concurrent TCP clients, each on its own connection with its own shuffled
/// order, must produce stripped responses byte-identical to a single-client
/// serial replay on a fresh daemon — and the final server counters must balance.
#[test]
fn concurrent_tcp_clients_match_serial_replay() {
    let lines = workload();

    // Serial ground truth: a fresh daemon, one connection, in order.
    let serial = Daemon::spawn(&[]);
    let mut expected: Vec<(String, String)> = Vec::new();
    {
        let mut stream = serial.connect();
        let mut reader = BufReader::new(stream.try_clone().expect("clone"));
        for line in &lines {
            writeln!(stream, "{line}").expect("send");
            let mut response = String::new();
            reader.read_line(&mut response).expect("recv");
            expected.push((line.clone(), stripped(response.trim_end())));
        }
    }
    serial.shutdown();
    let truth: std::collections::HashMap<&str, &str> = expected
        .iter()
        .map(|(line, strip)| (line.as_str(), strip.as_str()))
        .collect();

    const CLIENTS: usize = 8;
    let daemon = Daemon::spawn(&[]);
    let mut handles = Vec::new();
    for client in 0..CLIENTS {
        let addr = daemon.addr.clone();
        let lines = shuffled(&lines, client as u64 + 1);
        handles.push(thread::spawn(move || {
            let mut stream = TcpStream::connect(&addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(30)))
                .expect("timeout");
            let mut reader = BufReader::new(stream.try_clone().expect("clone"));
            lines
                .into_iter()
                .map(|line| {
                    writeln!(stream, "{line}").expect("send");
                    let mut response = String::new();
                    reader.read_line(&mut response).expect("recv");
                    (line, stripped(response.trim_end()))
                })
                .collect::<Vec<(String, String)>>()
        }));
    }
    let mut answered = 0u64;
    for handle in handles {
        for (line, strip) in handle.join().expect("client thread") {
            answered += 1;
            assert_eq!(
                truth[line.as_str()],
                strip,
                "concurrent response diverged from serial replay for {line}"
            );
        }
    }
    assert_eq!(answered, (CLIENTS * lines.len()) as u64);

    let stats = daemon.roundtrip("{\"op\":\"stats\"}");
    let counter = |field: &str| server_counter(&stats, field);
    assert_eq!(counter("requests"), answered, "{stats}");
    assert_eq!(
        counter("hits") + counter("misses") + counter("errors"),
        counter("requests"),
        "{stats}"
    );
    assert_eq!(counter("errors"), (CLIENTS * 2) as u64, "{stats}");
    // 6 distinct evaluated keys (3 inline enumerates, 1 corpus-file enumerate,
    // 1 group, 1 select), nothing evicts: 6 computations total.
    assert_eq!(counter("misses"), 6, "{stats}");
    assert_eq!(counter("connection_errors"), 0, "{stats}");
    daemon.shutdown();
}

/// The HTTP/1.1 shim answers the identical envelope as the JSON protocol over
/// the same listener, shares the same cache, and keeps the connection alive
/// across requests.
#[test]
fn http_round_trip_matches_json_protocol() {
    let daemon = Daemon::spawn(&[]);

    // Warm the cache over the JSON protocol first.
    let line = request("enumerate", &tiny_block(7), "\"budget\":5000");
    let via_json = daemon.roundtrip(&line);
    assert!(via_json.contains("\"cached\":false"), "{via_json}");

    // Two POSTs and a GET on ONE keep-alive HTTP connection.
    let mut stream = daemon.connect();
    let body = format!(
        "{{\"block\":{},\"flags\":{{\"budget\":5000}}}}",
        Json::str(tiny_block(7)).render()
    );
    let mut http_responses = Vec::new();
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    for (method, path, body) in [
        ("POST", "/v1/enumerate", body.as_str()),
        ("GET", "/v1/stats", ""),
        ("POST", "/v1/frobnicate", "{}"),
    ] {
        write!(
            stream,
            "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .expect("send HTTP request");
        stream.flush().expect("flush");
        http_responses.push(read_http_response(&mut reader));
    }

    let (status, body) = &http_responses[0];
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"cached\":true"), "shared cache: {body}");
    assert_eq!(
        stripped(body),
        stripped(&via_json),
        "HTTP and JSON transports must answer byte-identical envelopes"
    );
    let (status, body) = &http_responses[1];
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert!(body.contains("\"op\":\"stats\""), "{body}");
    let (status, body) = &http_responses[2];
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    assert!(body.contains("\"ok\":false"), "{body}");

    daemon.shutdown();
}

/// SIGTERM while a slow request is in flight: the response still arrives
/// complete, and the daemon exits 0 on its own.
#[test]
fn sigterm_under_load_completes_inflight_and_exits_zero() {
    let mut daemon = Daemon::spawn(&["--compute-delay-ms", "700"]);

    let addr = daemon.addr.clone();
    let line = request("enumerate", &tiny_block(3), "\"budget\":5000");
    let client = thread::spawn(move || {
        let mut stream = TcpStream::connect(&addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        writeln!(stream, "{line}").expect("send");
        let mut reader = BufReader::new(stream);
        let mut response = String::new();
        reader.read_line(&mut response).expect("recv");
        response.trim_end().to_string()
    });

    // Let the request get into its (artificially slow) computation, then TERM.
    thread::sleep(Duration::from_millis(250));
    let term = Command::new("kill")
        .arg("-TERM")
        .arg(daemon.child.id().to_string())
        .status()
        .expect("send SIGTERM");
    assert!(term.success());

    let response = client.join().expect("client thread");
    assert!(
        response.starts_with("{\"ok\":true"),
        "the in-flight response must complete despite SIGTERM: {response}"
    );
    assert!(response.contains("\"cached\":false"), "{response}");
    let status = wait_with_timeout(&mut daemon.child, Duration::from_secs(30));
    assert!(
        status.success(),
        "graceful drain must exit 0, got {status:?}"
    );
}

/// Regression for the swallowed-connection-error bug: a client that disconnects
/// mid-line is logged to stderr and counted by the `connection_errors` stat —
/// and the daemon keeps serving.
#[test]
fn mid_line_disconnect_is_counted_and_logged() {
    let daemon = Daemon::spawn(&[]);

    {
        let mut stream = daemon.connect();
        // A partial request with no newline, then a hard disconnect.
        stream
            .write_all(b"{\"op\":\"stats\"")
            .expect("send partial line");
        stream.flush().expect("flush");
        thread::sleep(Duration::from_millis(150));
    } // drop closes the socket mid-line

    // The worker notices the mid-line EOF at its next read; poll until counted.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = daemon.roundtrip("{\"op\":\"stats\"}");
        if server_counter(&stats, "connection_errors") == 1 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "connection error never counted: {stats}"
        );
        thread::sleep(Duration::from_millis(50));
    }

    // Still serving normally afterwards.
    let ok = daemon.roundtrip(&request("enumerate", &tiny_block(5), "\"budget\":5000"));
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");

    let stderr = daemon.shutdown();
    assert!(
        stderr.contains("connection") && stderr.contains("mid-line"),
        "the dropped connection must be logged to stderr, got: {stderr:?}"
    );
}

/// Reads one HTTP response: the status line and the body.
fn read_http_response(reader: &mut impl BufRead) -> (String, String) {
    let mut status = String::new();
    reader.read_line(&mut status).expect("status line");
    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        reader.read_line(&mut header).expect("header line");
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse().expect("length");
            }
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body).expect("body");
    (
        status.trim_end().to_string(),
        String::from_utf8(body).expect("utf8 body"),
    )
}

/// The request cap of `ise serve` (8 MiB).
const MAX_REQUEST_BYTES: usize = 8 << 20;

/// Regression for the unchecked `Content-Length`: a huge claimed body is refused
/// with 413 before anything is allocated, and the daemon keeps serving.
#[test]
fn oversized_content_length_gets_413_and_the_daemon_keeps_serving() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = daemon.connect();
    stream
        .write_all(
            b"POST /v1/enumerate HTTP/1.1\r\nHost: localhost\r\n\
              Content-Length: 99999999999\r\n\r\n",
        )
        .expect("send headers");
    let (status, body) = read_http_response(&mut BufReader::new(stream));
    assert_eq!(status, "HTTP/1.1 413 Payload Too Large");
    assert!(body.starts_with("{\"ok\":false"), "{body}");
    assert!(body.contains("request limit"), "{body}");

    let stats = daemon.roundtrip("{\"op\":\"stats\"}");
    assert_eq!(server_counter(&stats, "errors"), 1, "{stats}");
    let ok = daemon.roundtrip(&request("enumerate", &tiny_block(8), "\"budget\":5000"));
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");
    daemon.shutdown();
}

/// A `Content-Length` that does not parse leaves the body boundary unknown: the
/// request gets 400 with the in-band envelope, counted under `errors`, the
/// connection closes, and a fresh connection is answered.
#[test]
fn malformed_content_length_gets_400_and_a_fresh_connection_is_answered() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = daemon.connect();
    stream
        .write_all(b"POST /v1/enumerate HTTP/1.1\r\nContent-Length: abc\r\n\r\n{}")
        .expect("send the request");
    let (status, body) = read_http_response(&mut BufReader::new(stream));
    assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
    assert!(body.starts_with("{\"ok\":false"), "{body}");
    assert!(body.contains("bad Content-Length `abc`"), "{body}");

    let stats = daemon.roundtrip("{\"op\":\"stats\"}");
    assert_eq!(server_counter(&stats, "errors"), 1, "{stats}");
    assert_eq!(server_counter(&stats, "connection_errors"), 0, "{stats}");
    daemon.shutdown();
}

/// Reads what a connection still sends until the daemon closes it; a read timeout
/// fails the test rather than hanging it on a connection left open.
fn rest_of_connection(mut reader: impl Read) -> Vec<u8> {
    let mut rest = Vec::new();
    // The bytes read before an error stay in `rest`; a reset after the close is
    // no second response.
    if let Err(error) = reader.read_to_end(&mut rest) {
        use std::io::ErrorKind::{TimedOut, WouldBlock};
        assert!(
            !matches!(error.kind(), WouldBlock | TimedOut),
            "the connection stayed open; received {:?}",
            String::from_utf8_lossy(&rest)
        );
    }
    rest
}

/// A chunked body has no `Content-Length` to delimit it, and reading its chunks
/// as further requests answered one request twice. The request gets exactly one
/// 501 with the in-band envelope, counted once under `errors`, the connection
/// closes, and a fresh connection is answered.
#[test]
fn a_chunked_request_gets_one_501_and_a_fresh_connection_is_answered() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = daemon.connect();
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("set a read timeout");
    let body = request("enumerate", &tiny_block(3), "\"budget\":5000");
    write!(
        stream,
        "POST /v1/enumerate HTTP/1.1\r\nHost: localhost\r\nTransfer-Encoding: chunked\r\n\r\n\
         {:x}\r\n{body}\r\n0\r\n\r\n",
        body.len()
    )
    .expect("send the request");
    let mut reader = BufReader::new(stream);
    let (status, body) = read_http_response(&mut reader);
    assert_eq!(status, "HTTP/1.1 501 Not Implemented", "{body}");
    assert!(body.starts_with("{\"ok\":false"), "{body}");
    assert!(body.contains("Transfer-Encoding"), "{body}");
    let rest = rest_of_connection(reader);
    assert!(
        rest.is_empty(),
        "one request, one response; then got {:?}",
        String::from_utf8_lossy(&rest)
    );

    let stats = daemon.roundtrip("{\"op\":\"stats\"}");
    assert_eq!(server_counter(&stats, "errors"), 1, "{stats}");
    assert_eq!(server_counter(&stats, "connection_errors"), 0, "{stats}");
    daemon.shutdown();
}

/// A response to `HEAD` has no content: the daemon sends the status line and
/// headers, nothing after them, says `Connection: close` and closes after its
/// one answer. That holds for the 405 and for a `HEAD` refused while its headers
/// are read.
#[test]
fn a_head_request_is_answered_once_and_the_connection_closed() {
    let daemon = Daemon::spawn(&[]);
    for (request, want) in [
        (
            "HEAD /v1/stats HTTP/1.1\r\nHost: localhost\r\n\r\n",
            "HTTP/1.1 405 Method Not Allowed",
        ),
        (
            "HEAD /v1/stats HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n",
            "HTTP/1.1 501 Not Implemented",
        ),
    ] {
        let mut stream = daemon.connect();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set a read timeout");
        stream
            .write_all(request.as_bytes())
            .expect("send the request");
        let mut reader = BufReader::new(stream);
        let mut status = String::new();
        reader.read_line(&mut status).expect("status line");
        assert_eq!(status.trim_end(), want);
        let rest = String::from_utf8(rest_of_connection(reader)).expect("utf8 response");
        assert!(rest.contains("Connection: close\r\n"), "{rest}");
        let body = rest
            .split_once("\r\n\r\n")
            .map(|(_, body)| body)
            .expect("the headers end with an empty line");
        assert_eq!(body, "", "nothing follows the headers of {want}");
        assert!(!rest.contains("Content-Length"), "{rest}");
    }
    daemon.shutdown();
}

/// Regression for unbounded line growth: a JSON-protocol line past the cap with no
/// newline is answered in-band, and the daemon keeps serving other clients.
#[test]
fn over_long_line_gets_an_in_band_error_and_the_daemon_keeps_serving() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = daemon.connect();
    // Exactly one byte past the cap, so nothing is left unread when the daemon
    // answers and closes.
    stream
        .write_all(&vec![b'x'; MAX_REQUEST_BYTES + 1])
        .expect("send the over-long line");
    let mut response = String::new();
    BufReader::new(stream)
        .read_line(&mut response)
        .expect("read the error response");
    assert!(response.starts_with("{\"ok\":false"), "{response}");
    assert!(response.contains("request limit"), "{response}");

    let ok = daemon.roundtrip(&request("enumerate", &tiny_block(9), "\"budget\":5000"));
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");
    let stats = daemon.roundtrip("{\"op\":\"stats\"}");
    assert_eq!(server_counter(&stats, "connection_errors"), 0, "{stats}");
    daemon.shutdown();
}

/// Regression for unbounded JSON nesting: a ~10 KB request holding 10 000 nested
/// arrays used to overflow a handler's stack and abort the whole daemon. Over TCP
/// and as an HTTP body it gets an in-band error, and a new connection is served.
#[test]
fn deeply_nested_request_gets_an_in_band_error_and_the_daemon_keeps_serving() {
    let daemon = Daemon::spawn(&[]);
    let deep = format!("{{\"op\":{}", "[".repeat(10_000));

    let response = daemon.roundtrip(&deep);
    assert!(response.starts_with("{\"ok\":false"), "{response}");
    assert!(response.contains("request is not JSON"), "{response}");
    assert!(response.contains("nested more than"), "{response}");

    let mut stream = daemon.connect();
    write!(
        stream,
        "POST /v1/enumerate HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\r\n{deep}",
        deep.len()
    )
    .expect("send HTTP request");
    let (status, body) = read_http_response(&mut BufReader::new(stream));
    assert_eq!(status, "HTTP/1.1 400 Bad Request");
    assert!(body.starts_with("{\"ok\":false"), "{body}");
    assert!(body.contains("nested more than"), "{body}");

    let ok = daemon.roundtrip(&request("enumerate", &tiny_block(10), "\"budget\":5000"));
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");
    daemon.shutdown();
}

/// Regression for a lone carriage return in free text: the parser used to accept
/// `meta k a\rb` and `@a\rb`, which the writer cannot serialize, so deriving the
/// request's key panicked and a stdin daemon exited 101. Both are now rejected in
/// band at their line; the daemon then answers `stats` and exits 0 at the end of
/// its input.
#[test]
fn lone_carriage_return_in_free_text_is_rejected_in_band_on_stdin() {
    let meta = "dfg x\nmeta k a\rb\nnode 0 in\nnode 1 not\nedge 0 1\nend\n";
    let name = "dfg y\nnode 0 in @a\rb\nnode 1 not\nedge 0 1\nend\n";
    let input = format!(
        "{}\n{}\n{{\"op\":\"stats\"}}\n",
        request("enumerate", meta, ""),
        request("enumerate", name, "")
    );
    let stdout = stdin_session(input.as_bytes());
    let answers: Vec<&str> = stdout.lines().collect();
    assert_eq!(answers.len(), 3, "{stdout}");
    for (answer, what) in answers.iter().zip(["meta value", "node name"]) {
        assert!(answer.starts_with("{\"ok\":false"), "{answer}");
        assert!(
            answer.contains(&format!("line 2: a carriage return inside a {what}")),
            "{answer}"
        );
    }
    assert!(answers[2].starts_with("{\"ok\":true"), "{}", answers[2]);
    assert_eq!(server_counter(answers[2], "errors"), 2, "{}", answers[2]);
}

/// The retired `split-threshold` request flag is answered in-band, and the daemon
/// answers the next request on the same connection.
#[test]
fn retired_split_threshold_flag_is_rejected_in_band_on_a_live_connection() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = daemon.connect();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let block = tiny_block(10);
    let mut send = |line: &str| {
        writeln!(stream, "{line}").expect("send request");
        let mut response = String::new();
        reader.read_line(&mut response).expect("read response");
        response
    };
    let rejected = send(&request(
        "enumerate",
        &block,
        "\"budget\":5000,\"split-threshold\":5",
    ));
    assert!(rejected.starts_with("{\"ok\":false"), "{rejected}");
    assert!(
        rejected.contains("unknown flag") && rejected.contains("split-threshold"),
        "{rejected}"
    );
    let ok = send(&request("enumerate", &block, "\"budget\":5000"));
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");
    daemon.shutdown();
}

/// Regression for parse-time CPU exhaustion: an inline request of ~40000 tiny
/// blocks (well under the request cap) whose last block repeats the first name is
/// rejected in-band with the line of the repeat, and the daemon then answers a
/// second client. Block-name checks are hash lookups, so the parse is linear; a
/// scan over the blocks seen so far would hold a worker for minutes.
#[test]
fn many_block_inline_request_with_a_late_duplicate_is_rejected_by_line() {
    const BLOCKS: usize = 40_000;
    let mut text = String::new();
    for i in 0..BLOCKS - 1 {
        text.push_str(&format!("dfg b{i}\nnode 0 in\nend\n"));
    }
    text.push_str("dfg b0\nnode 0 in\nend\n");
    let line = request("enumerate", &text, "\"budget\":5000");
    assert!(line.len() < MAX_REQUEST_BYTES, "{} bytes", line.len());

    let daemon = Daemon::spawn(&[]);
    let response = daemon.roundtrip(&line);
    assert!(response.starts_with("{\"ok\":false"), "{response}");
    let repeat_line = 3 * (BLOCKS - 1) + 1;
    assert!(
        response.contains(&format!("line {repeat_line}: duplicate block name `b0`")),
        "{response}"
    );

    let ok = daemon.roundtrip(&request("enumerate", &tiny_block(10), "\"budget\":5000"));
    assert!(ok.starts_with("{\"ok\":true"), "{ok}");
    daemon.shutdown();
}

/// A copy of committed corpus files in a fresh temporary directory, removed on
/// drop.
struct Workdir(std::path::PathBuf);

impl Workdir {
    fn with(tag: &str, files: &[&str]) -> Workdir {
        let dir = std::env::temp_dir().join(format!("ise-serve-edit-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create the work directory");
        for name in files {
            std::fs::copy(corpus_file(name), dir.join(name)).expect("copy a corpus file");
        }
        Workdir(dir)
    }

    fn path(&self, name: &str) -> String {
        self.0.join(name).to_string_lossy().into_owned()
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn cached(response: &str) -> Option<bool> {
    Json::parse(response)
        .expect("response is JSON")
        .get("cached")
        .and_then(Json::as_bool)
}

fn cache_field(stats_response: &str, cache: &str, field: &str) -> u64 {
    Json::parse(stats_response)
        .expect("stats is JSON")
        .get("result")
        .and_then(|r| r.get(cache))
        .and_then(|c| c.get(field))
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("{cache}.{field} in {stats_response}"))
}

/// A warm daemon answers edits of the files it already parsed exactly as a fresh
/// daemon does: a same-length opcode change, a comment, a deletion and its
/// restoration, a file added to and removed from a directory, and a file that
/// repeats a block name.
#[test]
fn edited_files_are_answered_exactly_by_a_warm_daemon() {
    let work = Workdir::with("edit", &["sad-step.dfg", "arx-round.dfg"]);
    let file = work.path("sad-step.dfg");
    let original = std::fs::read_to_string(&file).expect("read the copy");
    let ask = |block: &str| request("select", block, "\"budget\":20000,\"global\":true");
    let daemon = Daemon::spawn(&[]);

    let cold = daemon.roundtrip(&ask(&file));
    assert_eq!(cached(&cold), Some(false), "{cold}");
    let warm = daemon.roundtrip(&ask(&file));
    assert_eq!(
        (cached(&warm), stripped(&warm)),
        (Some(true), stripped(&cold))
    );

    // The same length, one opcode changed: a new key, computed afresh, as a
    // daemon that never saw the old bytes answers it.
    let edited = original.replacen("node 2 sub", "node 2 add", 1);
    assert_eq!(edited.len(), original.len());
    std::fs::write(&file, &edited).expect("rewrite the copy");
    let changed = daemon.roundtrip(&ask(&file));
    assert_eq!(cached(&changed), Some(false), "{changed}");
    assert_ne!(stripped(&changed), stripped(&cold));
    let fresh = Daemon::spawn(&[]);
    assert_eq!(stripped(&changed), stripped(&fresh.roundtrip(&ask(&file))));
    fresh.shutdown();

    // A comment: other bytes, the same canonical bytes, so the same key, warm.
    std::fs::write(&file, format!("# a comment\n{original}")).expect("rewrite the copy");
    let commented = daemon.roundtrip(&ask(&file));
    assert_eq!(
        (cached(&commented), stripped(&commented)),
        (Some(true), stripped(&cold))
    );

    // Deleted: the in-band error of a missing path; restored: warm again.
    std::fs::remove_file(&file).expect("delete the copy");
    let missing = daemon.roundtrip(&ask(&file));
    assert!(missing.starts_with("{\"ok\":false"), "{missing}");
    assert!(missing.contains("No such file or directory"), "{missing}");
    std::fs::write(&file, &original).expect("restore the copy");
    let restored = daemon.roundtrip(&ask(&file));
    assert_eq!(
        (cached(&restored), stripped(&restored)),
        (Some(true), stripped(&cold))
    );

    // The directory: one more file, then one less.
    let dir = work.path("");
    let both = daemon.roundtrip(&ask(&dir));
    assert_eq!(cached(&both), Some(false), "{both}");
    std::fs::remove_file(work.path("arx-round.dfg")).expect("remove a file");
    let one = daemon.roundtrip(&ask(&dir));
    assert_eq!(
        (cached(&one), stripped(&one)),
        (Some(true), stripped(&cold))
    );
    std::fs::copy(corpus_file("arx-round.dfg"), work.path("arx-round.dfg")).expect("re-add");
    let again = daemon.roundtrip(&ask(&dir));
    assert_eq!(
        (cached(&again), stripped(&again)),
        (Some(true), stripped(&both))
    );

    // A file repeating a block name is the batch loader's duplicate error.
    std::fs::write(work.path("zz.dfg"), &original).expect("write a duplicate");
    let duplicate = daemon.roundtrip(&ask(&dir));
    assert!(
        duplicate.contains("duplicate block name `sad-step` (first defined in"),
        "{duplicate}"
    );
    assert!(duplicate.contains("zz.dfg: line 2:"), "{duplicate}");

    let stats = daemon.roundtrip("{\"op\":\"stats\"}");
    assert_eq!(server_counter(&stats, "errors"), 2, "{stats}");
    daemon.shutdown();
}

/// `--cache-cap 0` turns the source cache off with the others, and a cap smaller
/// than the number of sources evicts without changing an answer.
#[test]
fn source_cache_obeys_the_cache_cap() {
    let work = Workdir::with(
        "cap",
        &["sad-step.dfg", "arx-round.dfg", "mibench-like-12-42.dfg"],
    );
    let asks: Vec<String> = ["sad-step.dfg", "arx-round.dfg", "mibench-like-12-42.dfg"]
        .iter()
        .map(|name| request("enumerate", &work.path(name), "\"budget\":20000"))
        .collect();
    let reference = Daemon::spawn(&[]);
    let expected: Vec<String> = asks
        .iter()
        .map(|ask| stripped(&reference.roundtrip(ask)))
        .collect();
    reference.shutdown();

    for (cap, evicting) in [("0", false), ("1", true)] {
        let daemon = Daemon::spawn(&["--cache-cap", cap]);
        for _ in 0..2 {
            for (ask, expected) in asks.iter().zip(&expected) {
                assert_eq!(&stripped(&daemon.roundtrip(ask)), expected, "cap {cap}");
            }
        }
        let stats = daemon.roundtrip("{\"op\":\"stats\"}");
        assert_eq!(cache_field(&stats, "sources", "hits"), 0, "{stats}");
        assert_eq!(cache_field(&stats, "sources", "misses"), 6, "{stats}");
        assert!(
            cache_field(&stats, "sources", "entries") <= cap.parse().unwrap(),
            "{stats}"
        );
        assert_eq!(
            cache_field(&stats, "sources", "evictions") > 0,
            evicting,
            "{stats}"
        );
        daemon.shutdown();
    }
}

/// An inline block and a file holding the same block share one response key.
#[test]
fn inline_and_file_sources_of_one_block_share_a_key() {
    let work = Workdir::with("inline", &["sad-step.dfg"]);
    let file = work.path("sad-step.dfg");
    let text = std::fs::read_to_string(&file).expect("read the copy");
    let daemon = Daemon::spawn(&[]);
    let inline = daemon.roundtrip(&request("group", &text, "\"budget\":20000"));
    let from_file = daemon.roundtrip(&request("group", &file, "\"budget\":20000"));
    assert_eq!(stripped(&inline), stripped(&from_file));
    assert_eq!(cached(&from_file), Some(true), "{from_file}");
    daemon.shutdown();
}

/// A truncated `--cache-dir` file, as a daemon killed mid-write or a full disk
/// can leave, is a miss: the daemon recomputes, answers `cached:false` with the
/// right payload and rewrites the file whole, and the next daemon over the same
/// directory answers from it.
#[test]
fn a_truncated_cache_file_is_recomputed_and_rewritten() {
    let work = Workdir::with("disk", &[]);
    let cache_dir = work.path("cache");
    let ask = request("enumerate", &tiny_block(0), "\"budget\":5000");
    let with_cache_dir = || Daemon::spawn(&["--cache-dir", &cache_dir]);

    let daemon = with_cache_dir();
    let cold = daemon.roundtrip(&ask);
    daemon.shutdown();
    assert_eq!(cached(&cold), Some(false), "{cold}");
    let key = Json::parse(&cold).expect("response is JSON");
    let key = key.get("key").and_then(Json::as_str).expect("key");
    let file = std::path::Path::new(&cache_dir).join(format!("{key}.json"));
    let whole = std::fs::read(&file).expect("the daemon wrote the payload file");
    std::fs::write(&file, &whole[..whole.len() / 2]).expect("truncate the file");

    let daemon = with_cache_dir();
    let recomputed = daemon.roundtrip(&ask);
    daemon.shutdown();
    assert_eq!(
        (cached(&recomputed), stripped(&recomputed)),
        (Some(false), stripped(&cold))
    );
    assert_eq!(std::fs::read(&file).ok(), Some(whole), "rewritten whole");

    let daemon = with_cache_dir();
    let warm = daemon.roundtrip(&ask);
    daemon.shutdown();
    assert_eq!(
        (cached(&warm), stripped(&warm)),
        (Some(true), stripped(&cold))
    );
}

/// A daemon killed between writing a payload's temporary file and renaming it
/// leaves `.<key>.<pid>.<n>.tmp` behind; the next daemon on the directory removes
/// it and keeps answering from the `<key>.json` payload files.
#[test]
fn a_stale_temporary_file_is_removed_and_payload_files_kept() {
    let work = Workdir::with("stale", &[]);
    let cache_dir = work.path("cache");
    let ask = request("enumerate", &tiny_block(1), "\"budget\":5000");
    let daemon = Daemon::spawn(&["--cache-dir", &cache_dir]);
    let cold = daemon.roundtrip(&ask);
    daemon.shutdown();
    let key = Json::parse(&cold).expect("response is JSON");
    let key = key.get("key").and_then(Json::as_str).expect("key");
    let dir = std::path::Path::new(&cache_dir);
    let payload = dir.join(format!("{key}.json"));
    let stale = dir.join(format!(".{key}.4194304.0.tmp"));
    std::fs::write(&stale, "half a write").expect("plant a temporary file");
    let whole = std::fs::read(&payload).expect("the daemon wrote the payload file");

    let daemon = Daemon::spawn(&["--cache-dir", &cache_dir]);
    assert!(!stale.exists(), "the stale temporary file is removed");
    assert_eq!(std::fs::read(&payload).ok(), Some(whole), "payload kept");
    let warm = daemon.roundtrip(&ask);
    daemon.shutdown();
    assert_eq!(
        (cached(&warm), stripped(&warm)),
        (Some(true), stripped(&cold))
    );
}

/// Reads one response line, or `None` if the connection ends first.
fn read_response(reader: &mut impl BufRead) -> Option<String> {
    let mut response = String::new();
    match reader.read_line(&mut response) {
        Ok(0) | Err(_) => None,
        Ok(_) => Some(response.trim_end().to_string()),
    }
}

/// Regression for requests split inside a UTF-8 character: the bytes up to and
/// including the first byte of `é`, a 300 ms pause, then the rest. A read that
/// timed out mid-character used to lose its bytes, so the rest failed as invalid
/// UTF-8 and the connection closed unanswered.
#[test]
fn a_request_split_inside_a_utf8_character_is_answered() {
    let block = "dfg accent\nmeta k café\nnode 0 in @a\nnode 1 in @b\nnode 2 add\n\
                 edge 0 2\nedge 1 2\noutput 2\nend\n";
    let line = request("enumerate", block, "\"budget\":5000") + "\n";
    let split = line.find('é').expect("the accented byte") + 1;
    let daemon = Daemon::spawn(&[]);
    let mut stream = daemon.connect();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    stream
        .write_all(&line.as_bytes()[..split])
        .expect("send the head");
    thread::sleep(Duration::from_millis(300));
    stream
        .write_all(&line.as_bytes()[split..])
        .expect("send the tail");
    let response = read_response(&mut reader).expect("the split request is answered");
    assert!(response.starts_with("{\"ok\":true"), "{response}");
    daemon.shutdown();
}

/// A JSON-protocol line holding a byte that is not UTF-8 gets an in-band error,
/// and the same connection answers the next request.
#[test]
fn invalid_utf8_over_tcp_is_answered_in_band_and_the_connection_kept() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = daemon.connect();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    stream
        .write_all(b"{\"op\":\"stats\",\"note\":\"\xff\"}\n")
        .expect("send the invalid line");
    let rejected = read_response(&mut reader).expect("the invalid line is answered");
    assert!(rejected.starts_with("{\"ok\":false"), "{rejected}");
    assert!(rejected.contains("not valid UTF-8"), "{rejected}");
    writeln!(stream, "{{\"op\":\"stats\"}}").expect("send stats");
    let stats = read_response(&mut reader).expect("stats is answered");
    assert_eq!(server_counter(&stats, "errors"), 1, "{stats}");
    assert_eq!(server_counter(&stats, "connection_errors"), 0, "{stats}");
    daemon.shutdown();
}

/// Over HTTP, a header or a body that is not UTF-8 gets 400 with the in-band
/// envelope, and the keep-alive connection answers the next request.
#[test]
fn invalid_utf8_over_http_gets_400_and_the_connection_kept() {
    let daemon = Daemon::spawn(&[]);
    let mut stream = daemon.connect();
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    // A node name's first letter replaced by a byte that is not UTF-8.
    let mut bad_body = request("enumerate", &tiny_block(11), "\"budget\":5000").into_bytes();
    let at = bad_body
        .windows(2)
        .position(|pair| pair == b"@a")
        .expect("a node name")
        + 1;
    bad_body[at] = 0xff;
    let bad_header = b"GET /v1/stats HTTP/1.1\r\nX-Note: caf\xe9\r\n\r\n".to_vec();
    let mut with_bad_body = format!(
        "POST /v1/enumerate HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        bad_body.len()
    )
    .into_bytes();
    with_bad_body.extend_from_slice(&bad_body);
    for request in [bad_header, with_bad_body] {
        stream
            .write_all(&request)
            .expect("send the invalid request");
        let (status, body) = read_http_response(&mut reader);
        assert_eq!(status, "HTTP/1.1 400 Bad Request", "{body}");
        assert!(body.starts_with("{\"ok\":false"), "{body}");
        assert!(body.contains("not valid UTF-8"), "{body}");
    }
    stream
        .write_all(b"GET /v1/stats HTTP/1.1\r\n\r\n")
        .expect("send stats");
    let (status, stats) = read_http_response(&mut reader);
    assert_eq!(status, "HTTP/1.1 200 OK");
    assert_eq!(server_counter(&stats, "errors"), 2, "{stats}");
    daemon.shutdown();
}

/// On stdin, a line that is not UTF-8 is answered in band and the requests after
/// it are still served; the reader used to stop at it and the daemon exited 0
/// with the rest of its input unanswered.
#[test]
fn invalid_utf8_on_stdin_is_answered_in_band_and_later_requests_served() {
    let stdout = stdin_session(b"{\"op\":\"stats\",\"note\":\"\xff\"}\n{\"op\":\"stats\"}\n");
    let answers: Vec<&str> = stdout.lines().collect();
    assert_eq!(answers.len(), 2, "{stdout}");
    assert!(answers[0].starts_with("{\"ok\":false"), "{}", answers[0]);
    assert!(answers[0].contains("not valid UTF-8"), "{}", answers[0]);
    assert_eq!(server_counter(answers[1], "errors"), 1, "{}", answers[1]);
}

/// On stdin, a line past the request cap is answered with the request-limit error
/// and the line after it is still served; the reader used to buffer any line
/// whole, so one line without a newline grew the daemon without bound.
#[test]
fn over_long_stdin_line_is_answered_in_band_and_later_requests_served() {
    let mut input = vec![b'x'; MAX_REQUEST_BYTES + 1];
    input.extend_from_slice(b"\n{\"op\":\"stats\"}\n");
    let stdout = stdin_session(&input);
    let answers: Vec<&str> = stdout.lines().collect();
    assert_eq!(answers.len(), 2, "{stdout}");
    assert!(answers[0].starts_with("{\"ok\":false"), "{}", answers[0]);
    assert!(answers[0].contains("request limit"), "{}", answers[0]);
    assert_eq!(server_counter(answers[1], "errors"), 1, "{}", answers[1]);
}

/// A new connection to an idle daemon is answered without waiting out an accept
/// poll: 20 sequential fresh-connection `stats` requests, each after a pseudo-random
/// 0–30 ms pause, have a median round trip under 10 ms. A 50 ms accept poll puts
/// the median near 25 ms.
#[test]
fn fresh_connections_to_an_idle_daemon_are_answered_at_once() {
    let daemon = Daemon::spawn(&[]);
    let mut seed = 0x2545_f491_4f6c_dd1d_u64;
    let mut round_trips: Vec<Duration> = (0..20)
        .map(|_| {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            thread::sleep(Duration::from_millis((seed >> 33) % 31));
            let start = Instant::now();
            let stats = daemon.roundtrip("{\"op\":\"stats\"}");
            assert!(stats.starts_with("{\"ok\":true"), "{stats}");
            start.elapsed()
        })
        .collect();
    round_trips.sort();
    let median = round_trips[round_trips.len() / 2];
    assert!(
        median < Duration::from_millis(10),
        "median fresh-connection round trip {median:?}: {round_trips:?}"
    );
    daemon.shutdown();
}

/// `--max-connections 1`: while client A holds the one slot, client B connects
/// (the kernel backlog holds it; nothing is refused) but gets no answer within
/// 300 ms; once A disconnects, B is answered.
#[test]
fn max_connections_holds_extra_clients_until_a_slot_frees() {
    let daemon = Daemon::spawn(&["--max-connections", "1"]);
    let mut a = daemon.connect();
    let mut a_reader = BufReader::new(a.try_clone().expect("clone stream"));
    writeln!(a, "{{\"op\":\"stats\"}}").expect("A sends");
    assert!(read_response(&mut a_reader).is_some(), "A is answered");

    let mut b = daemon.connect();
    writeln!(b, "{{\"op\":\"stats\"}}").expect("B sends");
    b.set_read_timeout(Some(Duration::from_millis(300)))
        .expect("set read timeout");
    let mut b_reader = BufReader::new(b.try_clone().expect("clone stream"));
    let mut early = String::new();
    let waited = b_reader.read_line(&mut early);
    assert!(
        waited.is_err() && early.is_empty(),
        "B must wait while A holds the slot, got {waited:?}: {early}"
    );

    drop((a, a_reader));
    b.set_read_timeout(Some(Duration::from_secs(30)))
        .expect("set read timeout");
    let answer = read_response(&mut b_reader).expect("B is answered once A leaves");
    assert!(answer.starts_with("{\"ok\":true"), "{answer}");
    drop((b, b_reader));
    let stderr = daemon.shutdown();
    assert!(!stderr.contains("connection"), "{stderr}");
}

/// A stop drains every connection: an idle keep-alive connection and one holding
/// half a request line end at once, neither counts as a connection error, and the
/// daemon exits 0.
#[test]
fn shutdown_drains_idle_and_half_sent_connections_cleanly() {
    let daemon = Daemon::spawn(&[]);
    let idle = daemon.connect();
    let mut half = daemon.connect();
    half.write_all(b"{\"op\":\"st").expect("send half a line");
    // Both connections are being served before the stop.
    let stats = daemon.roundtrip("{\"op\":\"stats\"}");
    assert!(stats.starts_with("{\"ok\":true"), "{stats}");
    let stderr = daemon.shutdown();
    assert!(!stderr.contains("connection"), "{stderr}");
    for mut stream in [idle, half] {
        let mut rest = Vec::new();
        stream.read_to_end(&mut rest).expect("EOF after the drain");
        assert!(rest.is_empty(), "{rest:?}");
    }
}
