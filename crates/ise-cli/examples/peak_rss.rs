//! Experiment E11 (DESIGN.md §3): peak memory of the batch commands over corpora of
//! many small blocks.
//!
//! Each size generates MiBench-like blocks of 12 to 32 vertices
//! (`ise_bench::small_blocks`, the corpus E10 `corpus_load` measures) split across
//! 8 `.dfg` files in a scratch directory. Every measurement runs in a fresh child process of this executable,
//! so it is cold and its peak is its own:
//!
//! * `load` only loads the corpus (`load_corpus` on the commands' 2 threads) and
//!   reports the resident set (`VmRSS`) right after: the floor every command pays
//!   before enumerating;
//! * `enumerate`, `group` and `select --global` run `ise enumerate|group|select
//!   --global --nin 2 --nout 1 --threads 2` through `ise_cli::run`, exactly as the
//!   `ise` binary does, and report the process's peak resident set (`VmHWM`).
//!
//! Each command row records the total cuts (read back from the command's JSON
//! aggregate), the median peak over the repetitions, and the peak above the
//! post-load resident set per cut: the figure that stays flat when a command keeps
//! only what it renders, and grows when it holds every cut to the end. Writes
//! `BENCH_memory.json` (schema `ise-bench/peak-rss/v1`, `meta.host_cpus` included).
//! Full mode then exits non-zero unless, for each command, that figure at the
//! largest size is at most the figure at the smallest; `test=1` skips the check.
//!
//! It lives in `ise-cli` rather than `ise-bench` because it links `ise_cli::run`,
//! and `ise-cli` already depends on `ise-bench`.
//!
//! ```sh
//! cargo run --release -p ise-cli --example peak_rss                      # 4k/8k/16k blocks, 3 reps
//! cargo run --release -p ise-cli --example peak_rss -- test=1 out=-      # CI smoke: 1k/2k blocks, 1 rep
//! ```
//!
//! Options (key=value): `test` (default 0), `out` (default `BENCH_memory.json`;
//! `out=-` disables the artifact). Linux only: elsewhere `/proc` reports nothing and every figure is 0.

use std::process::{Command, ExitCode};

use ise_bench::json::Json;
use ise_bench::small_blocks::{write_blocks, MAX_VERTICES, MIN_VERTICES, SEED};
use ise_bench::{bench_meta, Options};
use ise_corpus::load_corpus;

/// Block counts measured in full mode and by the `test=1` smoke.
const FULL_SIZES: &[usize] = &[4000, 8000, 16000];
const SMOKE_SIZES: &[usize] = &[1000, 2000];

/// Repetitions per measurement in full mode (the median is reported) and in the
/// `test=1` smoke.
const FULL_REPS: usize = 3;
const SMOKE_REPS: usize = 1;

/// Worker threads of every measured command.
const THREADS: usize = 2;

/// The measured commands, each run with `--nin 2 --nout 1`; a row's `command` is
/// its words joined by spaces.
const COMMANDS: &[&[&str]] = &[&["enumerate"], &["group"], &["select", "--global"]];

/// Prefix of the one line a child reports back on its standard output.
const REPORT_PREFIX: &str = "peak_rss-child ";

/// The `key:` line of this process's `/proc/self/status`, in KiB (0 where `/proc`
/// does not report it).
fn status_kb(key: &str) -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status.lines().find_map(|line| {
                line.strip_prefix(key)?
                    .strip_prefix(':')?
                    .trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse()
                    .ok()
            })
        })
        .unwrap_or(0)
}

/// The child side: `child-load DIR` or `child-run ARGS...`; prints one report line.
fn child(mode: &str, args: &[String]) -> ExitCode {
    let report = match mode {
        "child-load" => {
            let blocks = load_corpus(&args[0], THREADS).expect("the generated corpus loads");
            let rss = status_kb("VmRSS");
            drop(blocks);
            rss
        }
        _ => match ise_cli::run(args) {
            Ok(()) => status_kb("VmHWM"),
            Err(e) => {
                eprintln!("peak_rss: ise {}: {e}", args.join(" "));
                return ExitCode::FAILURE;
            }
        },
    };
    println!("{REPORT_PREFIX}{report}");
    ExitCode::SUCCESS
}

/// Runs this executable as a child and returns the KiB figure it reports.
fn measure(mode: &str, args: &[String]) -> u64 {
    let exe = std::env::current_exe().expect("own executable");
    let output = Command::new(exe)
        .arg(mode)
        .args(args)
        .output()
        .unwrap_or_else(|e| panic!("cannot start {mode}: {e}"));
    assert!(
        output.status.success(),
        "{mode} {} failed: {}",
        args.join(" "),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8_lossy(&output.stdout)
        .lines()
        .find_map(|line| line.strip_prefix(REPORT_PREFIX)?.trim().parse().ok())
        .unwrap_or_else(|| panic!("{mode} printed no report"))
}

fn median(mut samples: Vec<u64>) -> u64 {
    samples.sort_unstable();
    samples[samples.len() / 2]
}

fn mb(kb: u64) -> f64 {
    kb as f64 / 1024.0
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(mode) = args.first().filter(|m| m.starts_with("child-")) {
        return child(mode, &args[1..]);
    }
    let opts = Options::from_args(args);
    let smoke = opts.usize("test", 0) != 0;
    let sizes = if smoke { SMOKE_SIZES } else { FULL_SIZES };
    let reps = if smoke { SMOKE_REPS } else { FULL_REPS };
    let out_path = opts.string("out", "BENCH_memory.json");

    println!("blocks,command,cuts,post_load_rss_mb,peak_rss_mb,peak_above_load_bytes_per_cut");
    let mut rows = Vec::new();
    // (blocks, command, peak above load per cut) of every row.
    let mut per_cut_rows: Vec<(usize, String, f64)> = Vec::new();
    for &count in sizes {
        let dir = std::env::temp_dir().join(format!("ise-peak-rss-{}-{count}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        write_blocks(&dir, count);
        let corpus = dir.to_str().expect("temp paths are UTF-8").to_string();
        let load_kb = median(
            (0..reps)
                .map(|_| measure("child-load", std::slice::from_ref(&corpus)))
                .collect(),
        );
        for &words in COMMANDS {
            let command = words.join(" ");
            let out = dir.join("out.json");
            let threads = THREADS.to_string();
            let flags = [
                "--corpus",
                &corpus,
                "--nin",
                "2",
                "--nout",
                "1",
                "--threads",
                &threads,
                "--out",
                out.to_str().expect("temp paths are UTF-8"),
            ];
            let argv: Vec<String> = words.iter().chain(&flags).map(|w| w.to_string()).collect();
            let samples: Vec<u64> = (0..reps).map(|_| measure("child-run", &argv)).collect();
            let text = std::fs::read_to_string(&out).expect("the command wrote its report");
            let cuts = Json::parse(&text)
                .ok()
                .and_then(|doc| doc.get("aggregate")?.get("total_cuts")?.as_u64())
                .expect("the report has aggregate.total_cuts");
            let min = *samples.iter().min().expect("reps >= 1");
            let max = *samples.iter().max().expect("reps >= 1");
            let peak_kb = median(samples);
            let per_cut = (peak_kb.saturating_sub(load_kb) * 1024) as f64 / cuts.max(1) as f64;
            println!(
                "{count},{command},{cuts},{:.1},{:.1},{per_cut:.1}",
                mb(load_kb),
                mb(peak_kb)
            );
            rows.push(Json::object([
                ("blocks", Json::uint(count)),
                ("command", Json::str(command.clone())),
                ("cuts", Json::UInt(cuts)),
                ("post_load_rss_mb", Json::num(mb(load_kb))),
                ("peak_rss_mb", Json::num(mb(peak_kb))),
                ("peak_rss_mb_min", Json::num(mb(min))),
                ("peak_rss_mb_max", Json::num(mb(max))),
                ("peak_above_load_bytes_per_cut", Json::num(per_cut)),
            ]));
            per_cut_rows.push((count, command, per_cut));
        }
        std::fs::remove_dir_all(&dir).unwrap_or_else(|e| panic!("cannot remove {dir:?}: {e}"));
    }

    if out_path != "-" {
        let doc = Json::object([
            ("schema", Json::str("ise-bench/peak-rss/v1")),
            ("meta", bench_meta("disabled")),
            ("seed", Json::UInt(SEED)),
            ("reps", Json::uint(reps)),
            ("threads", Json::uint(THREADS)),
            ("nin", Json::uint(2)),
            ("nout", Json::uint(1)),
            ("min_vertices", Json::uint(MIN_VERTICES)),
            ("max_vertices", Json::uint(MAX_VERTICES)),
            ("rows", Json::Array(rows)),
            ("smoke", Json::bool(smoke)),
        ]);
        std::fs::write(&out_path, doc.render() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        eprintln!("wrote {out_path}");
    }

    if !smoke {
        // The gate: the peak above the load per cut must not grow with the corpus.
        for words in COMMANDS {
            let command = words.join(" ");
            let per_cut = |count: usize| {
                per_cut_rows
                    .iter()
                    .find(|(c, cmd, _)| *c == count && *cmd == command)
                    .map(|&(_, _, v)| v)
                    .expect("every size measures every command")
            };
            let (small, large) = (sizes[0], sizes[sizes.len() - 1]);
            assert!(
                per_cut(large) <= per_cut(small),
                "{command}: the peak above the load grows with the corpus: \
                 {:.1} bytes per cut at {large} blocks, {:.1} at {small}",
                per_cut(large),
                per_cut(small)
            );
        }
    }
    ExitCode::SUCCESS
}
