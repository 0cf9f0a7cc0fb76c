//! The observability non-interference invariant, end to end: turning recording on
//! (`--trace-out`, `--progress`, memo/pool instrumentation and all) must not change
//! a single byte of the `--out` JSON — across thread counts, the memoized coding of
//! `group` and `select --global`, and forced task fan-out on the committed `corpus/`. This is the test-pinned form of
//! the DESIGN.md §8 contract that `ise-obs` only *observes*: the engine, pool,
//! memo and reporting layers may count and time themselves, but never steer.
//!
//! Wall-clock (`*_seconds`) fields are volatile between any two runs and are
//! stripped before comparing a pair; nothing else is. Cross-thread-count
//! comparisons additionally strip the configuration echo (`threads`,
//! `par_threshold`, `split_threshold`), mirroring `ci/strip-volatile.sh`.

use std::fs;
use std::path::PathBuf;
use std::process;
use std::sync::atomic::{AtomicUsize, Ordering};

use ise_bench::json::Json;
use ise_repro::ise_cli;
use ise_repro::ise_cli::batch::{run_batch_obs, BatchConfig};
use ise_repro::ise_corpus::load_corpus_path;
use ise_repro::ise_enum::Constraints;
use ise_repro::ise_obs::MetricsRegistry;

/// A unique scratch file path under the system temp dir (no tempfile crate).
fn scratch(tag: &str) -> PathBuf {
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ise-obs-identity-{}-{n}-{tag}", process::id()))
}

/// Runs one `ise` invocation against the committed corpus and returns the bytes
/// it wrote to `--out`.
fn run_to_json(subcommand: &str, extra: &[&str]) -> String {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let out = scratch("out.json");
    let mut args: Vec<String> = [
        subcommand,
        "--corpus",
        corpus,
        "--limit",
        "2",
        "--budget",
        "20000",
        "--out",
        out.to_str().expect("temp path is valid UTF-8"),
    ]
    .iter()
    .map(|s| (*s).to_string())
    .collect();
    args.extend(extra.iter().map(|s| (*s).to_string()));
    ise_cli::run(&args).unwrap_or_else(|e| panic!("`ise {subcommand}` failed: {e}"));
    let json = fs::read_to_string(&out).expect("--out file was written");
    let _ = fs::remove_file(&out);
    json
}

/// Removes every `"key":value` pair whose key satisfies `volatile` (plus the
/// separating comma), leaving all other bytes untouched. Values may be numbers,
/// strings, or flat objects/arrays — enough for the report schema.
fn strip_fields(json: &str, volatile: &dyn Fn(&str) -> bool) -> String {
    let bytes = json.as_bytes();
    let mut out = String::with_capacity(json.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'"' {
            if let Some(end) = json[i + 1..].find('"').map(|o| i + 1 + o) {
                let key = &json[i + 1..end];
                if bytes.get(end + 1) == Some(&b':') && volatile(key) {
                    let mut j = end + 2;
                    let mut depth = 0usize;
                    while j < bytes.len() {
                        match bytes[j] {
                            b'{' | b'[' => depth += 1,
                            b'}' | b']' if depth == 0 => break,
                            b'}' | b']' => depth -= 1,
                            b'"' => {
                                j += 1;
                                while j < bytes.len() && bytes[j] != b'"' {
                                    j += 1;
                                }
                            }
                            b',' if depth == 0 => break,
                            _ => {}
                        }
                        j += 1;
                    }
                    if j < bytes.len() && bytes[j] == b',' {
                        j += 1; // interior field: its own separator goes with it
                    } else if out.ends_with(',') {
                        out.pop(); // final field: the preceding separator goes
                    }
                    i = j;
                    continue;
                }
                out.push_str(&json[i..=end]);
                i = end + 1;
                continue;
            }
        }
        out.push(bytes[i] as char);
        i += 1;
    }
    out
}

fn strip_timing(json: &str) -> String {
    strip_fields(json, &|key| key.ends_with("_seconds"))
}

fn strip_config_echo(json: &str) -> String {
    strip_fields(json, &|key| {
        key.ends_with("_seconds")
            || matches!(
                key,
                "threads" | "par_threshold" | "split_threshold" | "tasks"
            )
    })
}

/// Asserts the trace file a recording run produced is loadable Chrome
/// trace-event JSON with at least one event, then removes it.
fn check_trace(path: &PathBuf) {
    let trace = fs::read_to_string(path).expect("--trace-out file was written");
    assert!(
        trace.starts_with("{\"traceEvents\":["),
        "trace must use the chrome trace-event envelope: {}",
        &trace[..trace.len().min(60)]
    );
    let doc = Json::parse(&trace).expect("trace is well-formed JSON");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    assert!(
        !events.is_empty(),
        "a recorded run emits at least one event"
    );
    let _ = fs::remove_file(path);
}

/// `ise enumerate` with every block fanned out: recording on vs off per thread
/// count, plus cross-thread-count invariance with recording ON everywhere.
#[test]
fn enumerate_json_is_byte_identical_with_recording_on() {
    let mut across: Vec<String> = Vec::new();
    for threads in ["1", "2"] {
        let config = vec!["--threads", threads, "--par-threshold", "1"];
        let off = run_to_json("enumerate", &config);

        let trace = scratch("enumerate-trace.json");
        let mut on_args = config.clone();
        let trace_str = trace.to_str().expect("temp path is valid UTF-8");
        on_args.extend(["--trace-out", trace_str, "--progress"]);
        let on = run_to_json("enumerate", &on_args);
        check_trace(&trace);

        assert_eq!(
            strip_timing(&off),
            strip_timing(&on),
            "recording changed enumerate --out bytes (threads={threads})"
        );
        across.push(strip_config_echo(&on));
    }
    assert_eq!(
        across[0], across[1],
        "enumerate results must not depend on threads with recording on"
    );
}

/// `ise group`: recording on vs off must agree byte-for-byte on the memoized
/// coding path, memo counters and all. Memo purity itself is pinned by
/// `tests/grouping_pipeline.rs`, against the plain coder.
#[test]
fn group_json_is_byte_identical_with_recording_on() {
    let config = vec!["--threads", "2", "--par-threshold", "1"];
    let off = run_to_json("group", &config);

    let trace = scratch("group-trace.json");
    let mut on_args = config.clone();
    let trace_str = trace.to_str().expect("temp path is valid UTF-8");
    on_args.extend(["--trace-out", trace_str]);
    let on = run_to_json("group", &on_args);
    check_trace(&trace);

    assert_eq!(
        strip_timing(&off),
        strip_timing(&on),
        "recording changed group --out bytes"
    );
}

/// `ise select --global`: the early-return global-selection path must still
/// write the trace and produce identical bytes with recording on.
#[test]
fn select_global_json_is_byte_identical_with_recording_on() {
    let config = vec!["--threads", "2", "--par-threshold", "1", "--global"];
    let off = run_to_json("select", &config);

    let trace = scratch("select-trace.json");
    let mut on_args = config.clone();
    let trace_str = trace.to_str().expect("temp path is valid UTF-8");
    on_args.extend(["--trace-out", trace_str]);
    let on = run_to_json("select", &on_args);
    check_trace(&trace);

    assert_eq!(
        strip_timing(&off),
        strip_timing(&on),
        "recording changed select --global --out bytes"
    );
}

/// The engine's cut and duplicate counters are published once per block, from
/// its final enumeration: with every block fanned out, a cut that several tasks
/// find still counts once, so `ise_engine_valid_cuts_total` equals the outcomes'
/// summed `valid_cuts` (and the duplicate counter their `rejected_duplicate`).
#[test]
fn cut_counters_count_each_block_once_under_fan_out() {
    let corpus = concat!(env!("CARGO_MANIFEST_DIR"), "/corpus");
    let blocks: Vec<_> = load_corpus_path(corpus)
        .expect("the committed corpus/ directory validates")
        .into_iter()
        .filter(|b| b.dfg.len() <= 50)
        .collect();
    let mut config = BatchConfig::new(Constraints::new(4, 2).unwrap());
    config.threads = 2;
    config.par_threshold = 1; // every block fans out
    let registry = MetricsRegistry::new();
    let outcomes = run_batch_obs(&blocks, &config, Some(&registry));
    assert!(outcomes.iter().all(|o| o.tasks > 1), "every block fans out");
    let sum = |field: fn(&ise_repro::ise_enum::EnumStats) -> usize| -> u64 {
        outcomes
            .iter()
            .map(|o| field(&o.enumeration.stats) as u64)
            .sum()
    };
    assert_eq!(
        registry.counter_value("ise_engine_valid_cuts_total"),
        sum(|s| s.valid_cuts)
    );
    assert_eq!(
        registry.counter_value("ise_engine_duplicates_total"),
        sum(|s| s.rejected_duplicate)
    );
}
