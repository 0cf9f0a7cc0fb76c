//! Corpus ingest throughput (DESIGN.md §5.1): how long `load_corpus_path` takes to
//! read, parse and validate a directory of many small blocks, and how fast
//! `EnumContext::new` then builds the per-block analysis of those blocks, at several
//! corpus sizes.
//!
//! A real ISE corpus is thousands of basic blocks, most of them small, so ingest
//! must stay linear in the block count: each size generates MiBench-like blocks of
//! 12 to 32 vertices (`ise_bench::small_blocks`) split across
//! 8 `.dfg` files in a scratch directory, loads the directory 5 times and
//! reports the median load time and blocks per second. After each load it builds
//! (and drops) one `EnumContext` per loaded block, the way a batch worker does, and
//! reports the median build time and context builds per second. Full mode measures 1k,
//! 4k, 16k and 64k blocks and exits non-zero unless the largest size loads at
//! least half as many blocks per second as the smallest — a quadratic name check
//! fails that by orders of magnitude. `test=1` (the CI smoke) measures only 1k
//! and 4k blocks and skips the assertion.
//!
//! Options (key=value): `test` (default 0), `out` (default `BENCH_corpus.json`;
//! `out=-` disables the artifact).

use std::path::PathBuf;

use ise_bench::json::Json;
use ise_bench::small_blocks::{write_blocks, FILES, MAX_VERTICES, MIN_VERTICES, SEED};
use ise_bench::{bench_meta, timed, Options};
use ise_corpus::load_corpus_path;
use ise_enum::EnumContext;
use ise_graph::Dfg;

/// Loads timed per size; the median is reported.
const REPS: usize = 5;

/// Block counts measured in full mode and by the `test=1` smoke.
const FULL_SIZES: &[usize] = &[1000, 4000, 16000, 64000];
const SMOKE_SIZES: &[usize] = &[1000, 4000];

/// Largest-size throughput, as a share of the smallest size's, below which full
/// mode fails.
const MIN_THROUGHPUT_RATIO: f64 = 0.5;

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let mid = samples.len() / 2;
    if samples.len() % 2 == 0 {
        (samples[mid - 1] + samples[mid]) / 2.0
    } else {
        samples[mid]
    }
}

fn main() {
    let opts = Options::from_env();
    let smoke = opts.usize("test", 0) != 0;
    let sizes = if smoke { SMOKE_SIZES } else { FULL_SIZES };
    let out_path = opts.string("out", "BENCH_corpus.json");

    println!("blocks,files,bytes,median_load_s,blocks_per_s,median_context_s,contexts_per_s");
    let mut rows = Vec::new();
    let mut throughputs = Vec::new();
    for &count in sizes {
        let dir: PathBuf = std::env::temp_dir().join(format!(
            "ise-bench-corpus-load-{}-{count}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let bytes = write_blocks(&dir, count);
        let (load_samples, context_samples): (Vec<f64>, Vec<f64>) = (0..REPS)
            .map(|_| {
                let (blocks, load) =
                    timed(|| load_corpus_path(&dir).expect("the generated corpus loads"));
                assert_eq!(blocks.len(), count, "every generated block loads");
                // Only the graphs enter the timed region, and their vector is freed
                // after it: the time is context builds and drops alone.
                let mut dfgs: Vec<Dfg> = blocks.into_iter().map(|block| block.dfg).collect();
                let ((), build) = timed(|| {
                    for dfg in dfgs.drain(..) {
                        drop(std::hint::black_box(EnumContext::new(dfg)));
                    }
                });
                (load.as_secs_f64(), build.as_secs_f64())
            })
            .unzip();
        std::fs::remove_dir_all(&dir).unwrap_or_else(|e| panic!("cannot remove {dir:?}: {e}"));
        let per_second = |seconds: f64| count as f64 / seconds.max(f64::MIN_POSITIVE);
        let load_s = median(load_samples);
        let context_s = median(context_samples);
        let blocks_per_s = per_second(load_s);
        let contexts_per_s = per_second(context_s);
        println!(
            "{count},{FILES},{bytes},{load_s:.6},{blocks_per_s:.0},{context_s:.6},{contexts_per_s:.0}"
        );
        throughputs.push(blocks_per_s);
        rows.push(Json::object([
            ("blocks", Json::uint(count)),
            ("files", Json::uint(FILES)),
            ("bytes", Json::UInt(bytes)),
            ("median_load_seconds", Json::num(load_s)),
            ("blocks_per_second", Json::num(blocks_per_s)),
            ("median_context_build_seconds", Json::num(context_s)),
            ("context_builds_per_second", Json::num(contexts_per_s)),
        ]));
    }
    let ratio = throughputs[throughputs.len() - 1] / throughputs[0];
    println!(
        "# blocks/s at {} blocks = {ratio:.3} x blocks/s at {} blocks (floor {MIN_THROUGHPUT_RATIO})",
        sizes[sizes.len() - 1],
        sizes[0]
    );

    if out_path != "-" {
        let doc = Json::object([
            ("schema", Json::str("ise-bench/corpus-load/v2")),
            ("meta", bench_meta("disabled")),
            ("seed", Json::UInt(SEED)),
            ("reps", Json::uint(REPS)),
            ("min_vertices", Json::uint(MIN_VERTICES)),
            ("max_vertices", Json::uint(MAX_VERTICES)),
            ("rows", Json::Array(rows)),
            ("throughput_ratio", Json::num(ratio)),
            ("smoke", Json::bool(smoke)),
        ]);
        std::fs::write(&out_path, doc.render() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        eprintln!("wrote {out_path}");
    }

    if !smoke {
        assert!(
            ratio >= MIN_THROUGHPUT_RATIO,
            "corpus ingest is not linear: blocks/s at {} blocks is {ratio:.3} x that at {} \
             blocks (floor {MIN_THROUGHPUT_RATIO})",
            sizes[sizes.len() - 1],
            sizes[0]
        );
    }
}
