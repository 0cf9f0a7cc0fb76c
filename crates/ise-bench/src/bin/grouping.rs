//! Experiment E8 (DESIGN.md): canonical-form grouping throughput and pattern-count
//! curves on the committed corpus, plus the memoized-canonicalization speedup.
//!
//! For every corpus block the incremental enumeration runs under the standard
//! per-block budget, then every cut is canonicalized three ways:
//!
//! 1. **memo-off** — the plain labeler path ([`canonicalize_cuts`]), the
//!    pre-memo baseline;
//! 2. **memo-on, cold** — [`canonicalize_cuts_memo`] against a shared
//!    [`CanonMemo`] that starts empty, measuring the first sweep a CLI run sees
//!    (the labeler runs once per *distinct* pattern, not once per cut);
//! 3. **memo-on, warm** — a second sweep over the whole corpus through the same
//!    memo, measuring the steady state `ise serve` reaches once every pattern
//!    has been labeled.
//!
//! Each memoized pass is asserted element-for-element equal to the memo-off
//! coding — the memo must be observably pure. In full mode the run additionally
//! asserts the warm sweep is at least 5x the memo-off throughput and that the
//! labeler ran fewer times than there are cuts (the whole point of the memo).
//!
//! The stdout report is CSV (one row per block with cut count, memo-off and
//! memo-on-cold canonicalization time and throughput, and the cumulative number
//! of distinct patterns — the pattern-count curve); the committed
//! `BENCH_grouping.json` artifact records the same rows plus corpus-level
//! aggregates: the three throughputs, the warm speedup, the memo's hit/miss
//! counters, and the grouped-vs-per-block selection comparison that motivates
//! the subsystem.
//!
//! Options (key=value): `corpus` (default `corpus`), `budget` (default 100000
//! search nodes per block, 0 = unbounded), `nin`/`nout` (default 4/2),
//! `out` (default `BENCH_grouping.json`; `out=-` disables the artifact),
//! `test` (default 0; `test=1` keeps the purity asserts but skips the
//! throughput-floor asserts, for CI smoke runs on debug builds).

use ise_bench::json::Json;
use ise_bench::{timed, Options, PAPER_NIN, PAPER_NOUT};
use ise_canon::{
    canonicalize_cuts, canonicalize_cuts_memo, select_ises_global, CanonMemo, GroupConfig,
    PatternIndex,
};
use ise_corpus::load_corpus_path;
use ise_enum::{
    incremental_cuts, select_ises, Constraints, Cut, EngineOptions, EnumContext, PruningConfig,
};

fn main() {
    let opts = Options::from_env();
    let corpus = opts.string("corpus", "corpus");
    let budget = match opts.usize("budget", 100_000) {
        0 => None,
        limit => Some(limit),
    };
    let nin = opts.usize("nin", PAPER_NIN);
    let nout = opts.usize("nout", PAPER_NOUT);
    let out_path = opts.string("out", "BENCH_grouping.json");
    let test_mode = opts.bool("test", false);

    let blocks = load_corpus_path(&corpus).expect("corpus loads");
    let constraints = Constraints::new(nin, nout).expect("non-zero I/O constraints");
    let pruning = PruningConfig::all();
    let options = EngineOptions {
        max_search_nodes: budget,
    };
    let group_config = GroupConfig::new(nin, nout);
    let memo = CanonMemo::new();

    println!(
        "block,nodes,cuts,enum_seconds,canon_seconds,cuts_per_second,\
         canon_seconds_memo,cuts_per_second_memo,patterns_cumulative"
    );
    let mut index = PatternIndex::new(group_config.clone());
    let mut rows = Vec::new();
    let mut contexts = Vec::new();
    let mut cut_lists: Vec<Vec<Cut>> = Vec::new();
    let mut cold_codings = Vec::new();
    let mut total_canon_off = 0.0f64;
    let mut total_canon_cold = 0.0f64;
    let mut per_block_saved: u64 = 0;
    for block in &blocks {
        let ctx = EnumContext::new(block.dfg.clone());
        let (enumeration, enum_elapsed) =
            timed(|| incremental_cuts(&ctx, &constraints, &pruning, &options, None));
        let (coded, canon_elapsed) =
            timed(|| canonicalize_cuts(&block.dfg, &enumeration.cuts, &group_config));
        let (coded_memo, memo_elapsed) =
            timed(|| canonicalize_cuts_memo(&block.dfg, &enumeration.cuts, &group_config, &memo));
        assert_eq!(
            coded,
            coded_memo,
            "memoized coding must match the plain labeler on {}",
            block.dfg.name()
        );
        let selection = select_ises(&block.dfg, &enumeration.cuts, nin, nout, 4);
        per_block_saved += u64::from(selection.total_saved_cycles);
        index.add_coded_block(&coded, block.weight());
        let canon_seconds = canon_elapsed.as_secs_f64();
        let memo_seconds = memo_elapsed.as_secs_f64();
        let per_second = |seconds: f64| {
            if seconds > 0.0 {
                enumeration.cuts.len() as f64 / seconds
            } else {
                0.0
            }
        };
        total_canon_off += canon_seconds;
        total_canon_cold += memo_seconds;
        println!(
            "{},{},{},{:.6},{:.6},{:.0},{:.6},{:.0},{}",
            block.dfg.name(),
            block.dfg.len(),
            enumeration.cuts.len(),
            enum_elapsed.as_secs_f64(),
            canon_seconds,
            per_second(canon_seconds),
            memo_seconds,
            per_second(memo_seconds),
            index.len(),
        );
        rows.push(Json::object([
            ("block", Json::str(block.dfg.name())),
            ("nodes", Json::uint(block.dfg.len())),
            ("cuts", Json::uint(enumeration.cuts.len())),
            ("enum_seconds", Json::num(enum_elapsed.as_secs_f64())),
            ("canon_seconds", Json::num(canon_seconds)),
            ("cuts_per_second", Json::num(per_second(canon_seconds))),
            ("canon_seconds_memo", Json::num(memo_seconds)),
            ("cuts_per_second_memo", Json::num(per_second(memo_seconds))),
            ("patterns_cumulative", Json::uint(index.len())),
        ]));
        contexts.push(ctx);
        cut_lists.push(enumeration.cuts);
        cold_codings.push(coded_memo);
    }

    // Warm sweep: every pattern is already in the memo, so this measures the
    // raw-hit fast path alone — the throughput `ise serve` sustains after its
    // first request over a corpus.
    let (warm_codings, warm_elapsed) = timed(|| {
        contexts
            .iter()
            .zip(&cut_lists)
            .map(|(ctx, cuts)| canonicalize_cuts_memo(ctx.dfg(), cuts, &group_config, &memo))
            .collect::<Vec<_>>()
    });
    assert_eq!(
        warm_codings, cold_codings,
        "warm memoized coding must match the cold sweep"
    );
    let total_cuts = index.total_cuts();
    let warm_seconds = warm_elapsed.as_secs_f64();
    let throughput = |seconds: f64| {
        if seconds > 0.0 {
            total_cuts as f64 / seconds
        } else {
            0.0
        }
    };
    let warm_speedup = if warm_seconds > 0.0 {
        total_canon_off / warm_seconds
    } else {
        0.0
    };
    let stats = memo.stats();

    let views: Vec<&[Cut]> = cut_lists.iter().map(Vec::as_slice).collect();
    let (global, select_elapsed) = timed(|| select_ises_global(&index, &views, 0));
    let recurring = index
        .entries()
        .iter()
        .filter(|e| e.static_count() >= 2)
        .count();
    let cross_block = index
        .entries()
        .iter()
        .filter(|e| e.distinct_blocks() >= 2)
        .count();
    println!(
        "# {} cuts -> {} patterns ({recurring} recurring, {cross_block} cross-block); \
         {:.0} cuts/s off, {:.0} cold, {:.0} warm ({warm_speedup:.1}x); \
         {} labeler runs; global {} vs per-block {} cycles",
        total_cuts,
        index.len(),
        throughput(total_canon_off),
        throughput(total_canon_cold),
        throughput(warm_seconds),
        stats.labeler_runs,
        global.total_saved_cycles,
        per_block_saved,
    );
    if !test_mode {
        assert!(
            stats.labeler_runs < total_cuts as u64,
            "memo must run the labeler fewer times ({}) than there are cuts ({total_cuts})",
            stats.labeler_runs,
        );
        assert!(
            warm_speedup >= 5.0,
            "warm memoized coding must be at least 5x the plain labeler \
             (measured {warm_speedup:.2}x)"
        );
    }
    // Pattern-first greedy dominates per-block greedy on the shipped
    // configurations (CI and tests assert it at the CLI budgets), but it is a
    // heuristic: a recurring pattern's placements can consume vertices a locally
    // better cut needed, and at some off-default budgets the serial sweep
    // measures exactly that (DESIGN.md §6.3). Record it loudly, don't abort the
    // experiment.
    if global.total_saved_cycles < per_block_saved {
        eprintln!(
            "warning: global selection ({}) lost to per-block greedy ({per_block_saved}) \
             at this configuration — see DESIGN.md §6.3 on pattern-first ordering",
            global.total_saved_cycles,
        );
    }

    if out_path != "-" {
        let doc = Json::object([
            ("schema", Json::str("ise-bench/grouping/v2")),
            ("meta", ise_bench::bench_meta("disabled")),
            ("corpus", Json::str(corpus)),
            ("nin", Json::uint(nin)),
            ("nout", Json::uint(nout)),
            ("budget", budget.map_or(Json::Null, Json::uint)),
            ("rows", Json::Array(rows)),
            (
                "aggregate",
                Json::object([
                    ("blocks", Json::uint(blocks.len())),
                    ("total_cuts", Json::uint(total_cuts)),
                    ("patterns", Json::uint(index.len())),
                    ("recurring_patterns", Json::uint(recurring)),
                    ("cross_block_patterns", Json::uint(cross_block)),
                    ("canon_seconds_total", Json::num(total_canon_off)),
                    ("cuts_per_second", Json::num(throughput(total_canon_off))),
                    ("canon_seconds_memo_cold", Json::num(total_canon_cold)),
                    (
                        "cuts_per_second_memo_cold",
                        Json::num(throughput(total_canon_cold)),
                    ),
                    ("canon_seconds_memo_warm", Json::num(warm_seconds)),
                    (
                        "cuts_per_second_memo_warm",
                        Json::num(throughput(warm_seconds)),
                    ),
                    ("memo_warm_speedup", Json::num(warm_speedup)),
                    (
                        "memo",
                        Json::object([
                            ("raw_hits", Json::UInt(stats.raw_hits)),
                            ("fingerprint_hits", Json::UInt(stats.fingerprint_hits)),
                            ("labeler_runs", Json::UInt(stats.labeler_runs)),
                            ("entries", Json::UInt(stats.entries)),
                        ]),
                    ),
                    (
                        "global_select_seconds",
                        Json::num(select_elapsed.as_secs_f64()),
                    ),
                    ("global_selected_patterns", Json::uint(global.chosen.len())),
                    ("global_saved_cycles", Json::UInt(global.total_saved_cycles)),
                    ("per_block_saved_cycles", Json::UInt(per_block_saved)),
                ]),
            ),
        ]);
        std::fs::write(&out_path, doc.render() + "\n").expect("artifact written");
        eprintln!("wrote {out_path}");
    }
}
