//! Validates the polynomial-complexity claim of §5 (experiment E3 in DESIGN.md).
//!
//! For every (size, Nin, Nout) combination the incremental enumeration runs once over
//! the block's context. The stdout report is CSV (one row per combination, with the
//! empirical growth exponent of the engine time with respect to the previous size of
//! the same constraint pair); the machine-readable perf trajectory is additionally
//! written as JSON (schema `ise-bench/scaling/v2`) for future PRs to diff.
//!
//! Options (key=value): `max_size` (default 200; sizes are 50..=max_size doubling),
//! `seed`, `memory_ratio_pct` (default 15), `out` (default `BENCH_scaling.json`;
//! `out=-` disables the JSON artifact), `expect` (a previously written artifact: the
//! run exits non-zero unless every emitted row's cut, search-node, dominator-run and
//! candidate counts equal those of the row with the same `(nodes, nin, nout)` there —
//! the gate that a change to the engine's data structures left its search unchanged).

use std::collections::HashMap;
use std::process::ExitCode;

use ise_bench::json::Json;
use ise_bench::{timed, Options};
use ise_enum::{incremental_cuts, Constraints, EngineOptions, EnumContext, PruningConfig};
use ise_workloads::random_dag::{random_dag, RandomDagConfig};

/// The per-row counts `expect=` compares; wall time is deliberately not among them.
const COUNT_FIELDS: [&str; 4] = [
    "cuts",
    "search_nodes",
    "dominator_runs",
    "candidates_checked",
];

fn main() -> ExitCode {
    let opts = Options::from_env();
    let max_size = opts.usize("max_size", 200);
    let seed = opts.u64("seed", 42);
    let memory_ratio = opts.usize("memory_ratio_pct", 15) as f64 / 100.0;
    let out_path = opts.string("out", "BENCH_scaling.json");
    let expect_path = opts.string("expect", "");
    // Read the expectation before running, so a bad path fails fast and `out` may
    // overwrite the same file.
    let expected = (!expect_path.is_empty())
        .then(|| expected_rows(&expect_path, seed, (memory_ratio * 100.0).round() as u64));

    let mut sizes = Vec::new();
    let mut n = 50usize;
    while n <= max_size {
        sizes.push(n);
        n *= 2;
    }
    let constraint_pairs = [(2usize, 1usize), (3, 1), (4, 1), (4, 2)];

    println!(
        "nodes,nin,nout,engine_seconds,cuts,search_nodes,dominator_runs,\
         candidates_checked,growth_exponent"
    );
    let mut rows = Vec::new();
    let mut previous: HashMap<(usize, usize), (usize, f64)> = HashMap::new();
    let mut total_engine = 0.0f64;
    let mut peak_candidates = 0usize;
    for &size in &sizes {
        let cfg = RandomDagConfig::new(size).with_memory_ratio(memory_ratio);
        let dfg = random_dag(&cfg, seed);
        let ctx = EnumContext::new(dfg);
        for &(nin, nout) in &constraint_pairs {
            let constraints = Constraints::new(nin, nout).expect("non-zero I/O constraints");
            let options = EngineOptions::default();
            let (result, engine_elapsed) = timed(|| {
                incremental_cuts(&ctx, &constraints, &PruningConfig::all(), &options, None)
            });
            let engine_seconds = engine_elapsed.as_secs_f64();
            total_engine += engine_seconds;
            peak_candidates = peak_candidates.max(result.stats.candidates_checked);
            let exponent = previous.get(&(nin, nout)).map(|&(prev_size, prev_secs)| {
                if prev_secs > 0.0 && size > prev_size {
                    (engine_seconds / prev_secs).ln() / (size as f64 / prev_size as f64).ln()
                } else {
                    f64::NAN
                }
            });
            let nodes = ctx.rooted().original_len();
            println!(
                "{},{},{},{:.6},{},{},{},{},{}",
                nodes,
                nin,
                nout,
                engine_seconds,
                result.stats.valid_cuts,
                result.stats.search_nodes,
                result.stats.dominator_runs,
                result.stats.candidates_checked,
                exponent.map_or_else(|| "-".to_string(), |e| format!("{e:.2}")),
            );
            previous.insert((nin, nout), (size, engine_seconds));
            rows.push(Json::object([
                ("nodes", Json::uint(nodes)),
                ("nin", Json::uint(nin)),
                ("nout", Json::uint(nout)),
                ("engine_seconds", Json::num(engine_seconds)),
                ("cuts", Json::uint(result.stats.valid_cuts)),
                ("search_nodes", Json::uint(result.stats.search_nodes)),
                ("dominator_runs", Json::uint(result.stats.dominator_runs)),
                (
                    "candidates_checked",
                    Json::uint(result.stats.candidates_checked),
                ),
            ]));
        }
    }

    // Compare before the artifact consumes the rows; the artifact is written either
    // way, so a mismatching run can be inspected.
    let mismatches = expected.as_ref().map(|expected| {
        let mut mismatches = 0usize;
        for row in &rows {
            let key = row_key(row);
            let got = row_counts(row);
            match expected.get(&key) {
                Some(want) if *want == got => {}
                Some(want) => {
                    mismatches += 1;
                    eprintln!(
                        "row {key:?}: counts {got:?}, {expect_path} has {want:?} ({COUNT_FIELDS:?})"
                    );
                }
                None => {
                    mismatches += 1;
                    eprintln!("row {key:?}: no such row in {expect_path}");
                }
            }
        }
        (mismatches, rows.len())
    });

    if out_path != "-" {
        let doc = Json::object([
            ("schema", Json::str("ise-bench/scaling/v2")),
            ("meta", ise_bench::bench_meta("disabled")),
            ("seed", Json::UInt(seed)),
            ("max_size", Json::uint(max_size)),
            (
                "memory_ratio_pct",
                Json::uint((memory_ratio * 100.0).round() as usize),
            ),
            ("rows", Json::Array(rows)),
            (
                "summary",
                Json::object([
                    ("total_engine_seconds", Json::num(total_engine)),
                    ("peak_candidates", Json::uint(peak_candidates)),
                ]),
            ),
        ]);
        std::fs::write(&out_path, doc.render() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        eprintln!("wrote {out_path} (engine {total_engine:.3}s)");
    }

    match mismatches {
        Some((0, total)) => eprintln!("all {total} rows match the counts in {expect_path}"),
        Some((mismatches, total)) => {
            eprintln!("{mismatches} of {total} rows differ from {expect_path}");
            return ExitCode::FAILURE;
        }
        None => {}
    }
    ExitCode::SUCCESS
}

/// The `(nodes, nin, nout)` key of an artifact row.
fn row_key(row: &Json) -> (u64, u64, u64) {
    let field = |name| {
        row.get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("scaling row without `{name}`"))
    };
    (field("nodes"), field("nin"), field("nout"))
}

/// The [`COUNT_FIELDS`] of an artifact row, in order.
fn row_counts(row: &Json) -> [u64; 4] {
    COUNT_FIELDS.map(|name| {
        row.get(name)
            .and_then(Json::as_u64)
            .unwrap_or_else(|| panic!("scaling row without `{name}`"))
    })
}

/// Loads the rows of the artifact at `path`, keyed by `(nodes, nin, nout)`.
///
/// # Panics
///
/// Panics if the file is unreadable, is not a v2 scaling artifact, or was produced
/// with a different seed or memory ratio (its counts would not be comparable).
fn expected_rows(
    path: &str,
    seed: u64,
    memory_ratio_pct: u64,
) -> HashMap<(u64, u64, u64), [u64; 4]> {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}"));
    let doc = Json::parse(&text).unwrap_or_else(|e| panic!("{path} is not JSON: {e}"));
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("ise-bench/scaling/v2"),
        "{path} is not a v2 scaling artifact"
    );
    assert_eq!(
        (
            doc.get("seed").and_then(Json::as_u64),
            doc.get("memory_ratio_pct").and_then(Json::as_u64),
        ),
        (Some(seed), Some(memory_ratio_pct)),
        "{path} was produced with a different seed or memory ratio"
    );
    doc.get("rows")
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("{path} has no rows"))
        .iter()
        .map(|row| (row_key(row), row_counts(row)))
        .collect()
}
