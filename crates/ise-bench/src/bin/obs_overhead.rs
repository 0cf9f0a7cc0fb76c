//! Measures what recording costs the engine (DESIGN.md §8): the same enumeration
//! with no registry (`rec = None`, the disabled path itself) and with a live
//! `MetricsRegistry`, which arms the engine's phase clock (two `Instant::now()`
//! calls per phase transition). The cost is recorded as `live_ratio`, not
//! bounded, so every traced profile can state how much recording perturbed it.
//! Both modes must explore the identical search trace; the bin asserts that.
//!
//! Methodology: the same enumeration context runs `reps` times per mode and the
//! *minimum* wall time per mode is compared (min-of-N discards scheduler noise,
//! which on a loaded CI host dwarfs the effect under test). Modes alternate so
//! neither benefits from cache warm-up ordering.
//!
//! Options (key=value): `size` (default 120), `seed`, `reps` (default 5), `nin`,
//! `nout`, `out` (default `BENCH_obs.json`; `out=-` disables the artifact).

use ise_bench::json::Json;
use ise_bench::{bench_meta, timed, Options, PAPER_NIN, PAPER_NOUT};
use ise_enum::{incremental_cuts, Constraints, EngineOptions, EnumContext, PruningConfig};
use ise_obs::MetricsRegistry;
use ise_workloads::random_dag::{random_dag, RandomDagConfig};

fn main() {
    let opts = Options::from_env();
    let size = opts.usize("size", 120);
    let seed = opts.u64("seed", 42);
    let reps = opts.usize("reps", 5).max(1);
    let nin = opts.usize("nin", PAPER_NIN);
    let nout = opts.usize("nout", PAPER_NOUT);
    let out_path = opts.string("out", "BENCH_obs.json");

    let dfg = random_dag(&RandomDagConfig::new(size).with_memory_ratio(0.15), seed);
    let ctx = EnumContext::new(dfg);
    let constraints = Constraints::new(nin, nout).expect("non-zero I/O constraints");
    let pruning = PruningConfig::all();
    let options = EngineOptions::default();
    let live = MetricsRegistry::new();

    let run = |rec: Option<&MetricsRegistry>| {
        let (result, elapsed) =
            timed(|| incremental_cuts(&ctx, &constraints, &pruning, &options, rec));
        (result.stats.search_nodes, elapsed.as_secs_f64())
    };

    // Warm up once (page cache, allocator), then alternate modes rep by rep.
    let (baseline_nodes, _) = run(None);
    let mut plain_min = f64::INFINITY;
    let mut live_min = f64::INFINITY;
    for _ in 0..reps {
        let (nodes, plain) = run(None);
        assert_eq!(nodes, baseline_nodes, "enumeration must be deterministic");
        let (nodes, recorded) = run(Some(&live));
        assert_eq!(
            nodes, baseline_nodes,
            "a live registry must not change the search trace"
        );
        plain_min = plain_min.min(plain);
        live_min = live_min.min(recorded);
    }

    let live_ratio = live_min / plain_min.max(f64::MIN_POSITIVE);
    println!(
        "size={size} nin={nin} nout={nout} search_nodes={baseline_nodes} reps={reps} \
         plain_min={plain_min:.6}s live_min={live_min:.6}s live_ratio={live_ratio:.4}"
    );

    if out_path != "-" {
        let doc = Json::object([
            ("schema", Json::str("ise-bench/obs-overhead/v3")),
            ("meta", bench_meta("live-vs-none")),
            ("size", Json::uint(size)),
            ("seed", Json::UInt(seed)),
            ("nin", Json::uint(nin)),
            ("nout", Json::uint(nout)),
            ("reps", Json::uint(reps)),
            ("search_nodes", Json::UInt(baseline_nodes as u64)),
            ("plain_min_seconds", Json::num(plain_min)),
            ("live_min_seconds", Json::num(live_min)),
            ("live_ratio", Json::num(live_ratio)),
        ]);
        std::fs::write(&out_path, doc.render() + "\n")
            .unwrap_or_else(|e| panic!("cannot write {out_path}: {e}"));
        eprintln!("wrote {out_path}");
    }
}
