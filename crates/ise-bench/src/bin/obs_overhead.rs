//! Measures what the observability layer costs the engine (DESIGN.md §8), in both
//! states a recorder can be in:
//!
//! * **disabled** — a wired-but-disabled recorder (`NoopRecorder`) must stay within
//!   1% of the plain `rec = None` run on an E1-style workload. This is the contract
//!   that lets every layer keep its instrumentation compiled in unconditionally —
//!   the hooks are a branch on a `None`/no-op, not a feature flag — and the bin
//!   asserts it;
//! * **live** — a `MetricsRegistry` arms the engine's phase clock (two
//!   `Instant::now()` calls per phase transition). That cost is recorded, not
//!   bounded, so every traced profile can state how much recording perturbed it.
//!
//! Methodology: the same enumeration context runs `reps` times per mode and the
//! *minimum* wall time per mode is compared (min-of-N discards scheduler noise,
//! which on a loaded CI host dwarfs the effect under test). Modes alternate so
//! none benefits from cache warm-up ordering. In full mode the bin exits non-zero
//! when the disabled ratio exceeds the bound; `test=1` keeps the measurement and
//! the artifact but relaxes the assertion for smoke runs on noisy hosts.
//!
//! Options (key=value): `size` (default 120), `seed`, `reps` (default 5), `nin`,
//! `nout`, `bound_pct` (default 1), `test` (default 0), `out` (default
//! `BENCH_obs.json`; `out=-` disables the artifact).

use ise_bench::json::Json;
use ise_bench::{bench_meta, timed, Options, PAPER_NIN, PAPER_NOUT};
use ise_enum::{incremental_cuts, Constraints, EngineOptions, EnumContext, PruningConfig};
use ise_obs::{MetricsRegistry, NoopRecorder, Recorder};
use ise_workloads::random_dag::{random_dag, RandomDagConfig};

fn main() {
    let opts = Options::from_env();
    let size = opts.usize("size", 120);
    let seed = opts.u64("seed", 42);
    let reps = opts.usize("reps", 5).max(1);
    let nin = opts.usize("nin", PAPER_NIN);
    let nout = opts.usize("nout", PAPER_NOUT);
    let bound_pct = opts.usize("bound_pct", 1);
    let smoke = opts.usize("test", 0) != 0;
    let out_path = opts.string("out", "BENCH_obs.json");

    let dfg = random_dag(&RandomDagConfig::new(size).with_memory_ratio(0.15), seed);
    let ctx = EnumContext::new(dfg);
    let constraints = Constraints::new(nin, nout).expect("non-zero I/O constraints");
    let pruning = PruningConfig::all();
    let options = EngineOptions::default();
    let noop = NoopRecorder;
    let live = MetricsRegistry::new();

    let run = |rec: Option<&dyn Recorder>| {
        let (result, elapsed) =
            timed(|| incremental_cuts(&ctx, &constraints, &pruning, &options, rec));
        (result.stats.search_nodes, elapsed.as_secs_f64())
    };

    // Warm up once (page cache, allocator), then alternate modes rep by rep.
    let (baseline_nodes, _) = run(None);
    let mut plain_min = f64::INFINITY;
    let mut noop_min = f64::INFINITY;
    let mut live_min = f64::INFINITY;
    for _ in 0..reps {
        let (nodes, plain) = run(None);
        assert_eq!(nodes, baseline_nodes, "enumeration must be deterministic");
        let (nodes, wired) = run(Some(&noop));
        assert_eq!(
            nodes, baseline_nodes,
            "a disabled recorder must not change the search trace"
        );
        let (nodes, recorded) = run(Some(&live));
        assert_eq!(
            nodes, baseline_nodes,
            "a live recorder must not change the search trace"
        );
        plain_min = plain_min.min(plain);
        noop_min = noop_min.min(wired);
        live_min = live_min.min(recorded);
    }

    let ratio = noop_min / plain_min.max(f64::MIN_POSITIVE);
    let live_ratio = live_min / plain_min.max(f64::MIN_POSITIVE);
    let bound = 1.0 + bound_pct as f64 / 100.0;
    println!(
        "size={size} nin={nin} nout={nout} search_nodes={baseline_nodes} reps={reps} \
         plain_min={plain_min:.6}s noop_min={noop_min:.6}s live_min={live_min:.6}s \
         ratio={ratio:.4} live_ratio={live_ratio:.4} bound={bound:.2}"
    );

    if out_path != "-" {
        let doc = Json::object([
            ("schema", Json::str("ise-bench/obs-overhead/v2")),
            ("meta", bench_meta("noop-and-live-vs-none")),
            ("size", Json::uint(size)),
            ("seed", Json::UInt(seed)),
            ("nin", Json::uint(nin)),
            ("nout", Json::uint(nout)),
            ("reps", Json::uint(reps)),
            ("search_nodes", Json::UInt(baseline_nodes as u64)),
            ("plain_min_seconds", Json::num(plain_min)),
            ("noop_min_seconds", Json::num(noop_min)),
            ("live_min_seconds", Json::num(live_min)),
            ("ratio", Json::num(ratio)),
            ("live_ratio", Json::num(live_ratio)),
            ("bound", Json::num(bound)),
            ("smoke", Json::bool(smoke)),
        ]);
        std::fs::write(&out_path, doc.render() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        eprintln!("wrote {out_path}");
    }

    if smoke {
        // Smoke runs still catch catastrophic regressions (a recorder branch that
        // turned into real work), just with slack for noisy shared runners.
        assert!(
            ratio <= 2.0,
            "disabled-recorder smoke bound blown: ratio {ratio:.4} > 2.0"
        );
    } else {
        assert!(
            ratio <= bound,
            "disabled-recorder overhead bound blown: ratio {ratio:.4} > {bound:.2} \
             (plain {plain_min:.6}s vs wired {noop_min:.6}s)"
        );
    }
}
