//! Mutation fuzzing of the two input parsers: the `.dfg` corpus parser and the
//! `ise serve` request handler. Every committed `corpus/*.dfg` file and every line
//! of `ci/serve-requests.jsonl` is mutated by seeded byte flips, truncations and
//! insertions (a fixed xorshift stream, so every run checks the same mutants).
//!
//! * `parse_corpus` never panics, and every error names a line inside its input.
//!   It agrees with the line parser it replaced (`line_parser`, a test oracle
//!   shared with `ise-corpus`'s format tests), and every block it accepts
//!   serializes again through `canonical_bytes`.
//! * `ServerState::handle_line` never panics and answers every mutant in band:
//!   a JSON object whose `ok` is `true` (a normal answer) or `false` with an
//!   `error` string. One state answers every mutant, and afterwards answers the
//!   original requests exactly as a fresh state does.

use std::fs;
use std::panic::{catch_unwind, AssertUnwindSafe};

use ise_bench::json::Json;
use ise_cli::serve::ServerState;
use ise_corpus::parse_corpus;

#[path = "../crates/ise-corpus/tests/line_parser/mod.rs"]
mod line_parser;

/// Mutants drawn per `.dfg` file and per request line.
const DFG_MUTANTS: usize = 400;
const REQUEST_MUTANTS: usize = 400;

/// Fragments an insertion may splice in: directive words, separators (a lone
/// carriage return and a non-ASCII space among them), numbers at and past the
/// integer limits, JSON punctuation and a multi-byte character.
const FRAGMENTS: [&[u8]; 18] = [
    b"node ",
    b"edge ",
    b"end\n",
    b"dfg x\n",
    b"output ",
    b"meta k v\n",
    b"\n",
    b" ",
    b"\r",
    "\u{a0}".as_bytes(),
    b"-1",
    b"18446744073709551616",
    b"4294967296",
    b"\"",
    b"{",
    b"]",
    b"\\u0000",
    "\u{e9}".as_bytes(),
];

/// A xorshift64* stream: deterministic, dependency-free.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// One to three edits of `input`: flip a bit of a byte, cut the tail, or insert a
/// random byte or fragment.
fn mutate(input: &[u8], rng: &mut Rng) -> Vec<u8> {
    let mut bytes = input.to_vec();
    for _ in 0..1 + rng.below(3) {
        let at = rng.below(bytes.len() + 1);
        match rng.below(3) {
            0 if at < bytes.len() => bytes[at] ^= 1 << rng.below(8),
            1 => bytes.truncate(at),
            _ => {
                let insert: Vec<u8> = if rng.below(2) == 0 {
                    vec![rng.below(256) as u8]
                } else {
                    FRAGMENTS[rng.below(FRAGMENTS.len())].to_vec()
                };
                bytes.splice(at..at, insert);
            }
        }
    }
    bytes
}

#[test]
fn mutated_corpus_files_parse_or_fail_on_a_line_inside_the_input() {
    let mut paths: Vec<_> = fs::read_dir("corpus")
        .expect("the committed corpus is readable")
        .map(|entry| entry.expect("directory entry").path())
        .filter(|path| path.extension().is_some_and(|ext| ext == "dfg"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty());
    let mut rng = Rng(0x9e37_79b9_7f4a_7c15);
    let (mut parsed, mut rejected) = (0, 0);
    for path in &paths {
        let original = fs::read(path).expect("corpus file is readable");
        for _ in 0..DFG_MUTANTS {
            let text = String::from_utf8_lossy(&mutate(&original, &mut rng)).into_owned();
            let outcome = catch_unwind(|| parse_corpus(&text)).unwrap_or_else(|_| {
                panic!("parse_corpus panicked on a mutant of {path:?}:\n{text}")
            });
            match &outcome {
                Ok(blocks) => {
                    parsed += 1;
                    for block in blocks {
                        catch_unwind(|| block.canonical_bytes()).unwrap_or_else(|_| {
                            panic!("an accepted block does not serialize, in:\n{text}")
                        });
                    }
                }
                Err(err) => {
                    rejected += 1;
                    let lines = text.lines().count();
                    assert!(
                        (1..=lines).contains(&err.line),
                        "{err} names a line outside the {lines} lines of a mutant of {path:?}"
                    );
                }
            }
            line_parser::assert_agrees(&text);
        }
    }
    assert!(
        parsed > 0 && rejected > 0,
        "{parsed} parsed, {rejected} rejected"
    );
}

/// `(ok, response)` for one request, asserting the answer is in band.
fn answer(state: &ServerState, line: &str) -> (bool, String) {
    let response = catch_unwind(AssertUnwindSafe(|| state.handle_line(line)))
        .unwrap_or_else(|_| panic!("handle_line panicked on:\n{line}"));
    let doc = Json::parse(&response)
        .unwrap_or_else(|e| panic!("answer is not JSON ({e}) for:\n{line}\n{response}"));
    let ok = doc
        .get("ok")
        .and_then(Json::as_bool)
        .unwrap_or_else(|| panic!("answer has no boolean `ok` for:\n{line}\n{response}"));
    if !ok {
        assert!(
            doc.get("error").and_then(Json::as_str).is_some(),
            "an error answer must say why, for:\n{line}\n{response}"
        );
    }
    (ok, response)
}

/// A response without the fields that vary between runs: the `cached` flag and
/// every timing (`elapsed_*`, `*_seconds`), at any depth.
fn payload(response: &str) -> Json {
    fn strip(json: Json) -> Json {
        match json {
            Json::Object(fields) => Json::Object(
                fields
                    .into_iter()
                    .filter(|(k, _)| {
                        k != "cached" && !k.starts_with("elapsed_") && !k.ends_with("_seconds")
                    })
                    .map(|(k, v)| (k, strip(v)))
                    .collect(),
            ),
            Json::Array(items) => Json::Array(items.into_iter().map(strip).collect()),
            other => other,
        }
    }
    strip(Json::parse(response).expect("response is JSON"))
}

#[test]
fn mutated_serve_requests_get_in_band_answers_and_leave_the_state_sound() {
    let requests = fs::read_to_string("ci/serve-requests.jsonl").expect("requests are readable");
    let requests: Vec<&str> = requests.lines().collect();
    assert!(!requests.is_empty());
    let state = ServerState::new(8, None);
    let mut rng = Rng(0x5851_f42d_4c95_7f2d);
    let (mut served, mut refused) = (0, 0);
    for request in &requests {
        for _ in 0..REQUEST_MUTANTS {
            let line = String::from_utf8_lossy(&mutate(request.as_bytes(), &mut rng)).into_owned();
            match answer(&state, &line) {
                (true, _) => served += 1,
                (false, _) => refused += 1,
            }
        }
    }
    assert!(
        served > 0 && refused > 0,
        "{served} served, {refused} refused"
    );
    let fresh = ServerState::new(8, None);
    for request in &requests {
        let (ok, after_fuzz) = answer(&state, request);
        assert!(ok, "{after_fuzz}");
        assert_eq!(
            payload(&after_fuzz).render(),
            payload(&answer(&fresh, request).1).render(),
            "the fuzzed state answers {request} as a fresh one does"
        );
    }
}
