//! `build-ml1m`: Brute Force, NNDescent, LSH and Cluster on the
//! ml1M-calibrated population, serial, in rounds that build with each
//! builder once, repeated for the run's time budget.
//!
//! Each build starts from the prepared profiles and ends with a finished
//! graph: `ShfParams::fingerprint_store` (1024-bit SHFs) then the
//! registry builder's `build_erased` at k = 30 over the SHF provider.
//! Interleaving the builders round-robin makes slow machine phases hit
//! every builder alike.

use crate::check::{check_graph, digest, spot_check_sims};
use crate::exact;
use crate::report::Report;
use crate::rss::Floor;
use crate::stats::summarize;
use crate::trace::Tracer;
use crate::Opts;
use goldfinger_core::hash::DynHasher;
use goldfinger_core::kernels;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::ShfParams;
use goldfinger_core::similarity::{ShfJaccard, Similarity};
use goldfinger_datasets::model::BinaryDataset;
use goldfinger_datasets::synth::SynthConfig;
use goldfinger_knn::builders::{self, BuilderConfig};
use goldfinger_knn::{BuildInput, Cluster, ErasedBuilder};
use goldfinger_obs::{BuildObserver, IterationEvent, NoopObserver, Phase};
use std::sync::Mutex;
use std::time::{Duration, Instant};

pub const K: usize = 30;
pub const BITS: u32 = 1024;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 10;
/// Rounds per run at the least, whatever `--seconds` says.
const MIN_ROUNDS: usize = 2;
/// `(registry name, metric key)` of the builders, in round order.
const BUILDERS: [(&str, &str); 4] = [
    ("Brute Force", "bf"),
    ("NNDescent", "nndescent"),
    ("LSH", "lsh"),
    ("Cluster", "cluster"),
];

/// The Table-2 ml1M-calibrated population, generated and prepared
/// (rating filter + binarisation). Shared with the serve workload.
pub fn ml1m(seed: u64) -> BinaryDataset {
    SynthConfig::ml1m().with_seed(seed).generate().prepare()
}

/// FNV-1a digest of a profile store, to prove set-up repetitions agree.
pub fn profiles_digest(p: &ProfileStore) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for (u, items) in p.iter() {
        for x in std::iter::once(u64::from(u) << 32 | items.len() as u64)
            .chain(items.iter().map(|&i| u64::from(i)))
        {
            h = (h ^ x).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Collects the builder's phase spans (with their end time) and iteration
/// events in the traced run.
#[derive(Default)]
struct PhaseLog {
    spans: Mutex<Vec<(Phase, Instant, Duration)>>,
    iterations: Mutex<Vec<IterationEvent>>,
}

impl BuildObserver for PhaseLog {
    fn on_iteration(&self, event: IterationEvent) {
        self.iterations.lock().expect("observer lock").push(event);
    }

    fn on_span(&self, phase: Phase, wall: Duration) {
        let end = Instant::now();
        self.spans
            .lock()
            .expect("observer lock")
            .push((phase, end, wall));
    }
}

/// One builder and its measurements over a run.
struct PerBuilder {
    algo: Box<dyn ErasedBuilder>,
    /// Untraced builds: wall, fingerprinting, builder call.
    wall: Vec<f64>,
    fingerprint: Vec<f64>,
    knn: Vec<f64>,
    /// Traced builds: phase totals, builder call minus its phases.
    phases: [Vec<f64>; 3],
    unattributed: Vec<f64>,
    updates: u64,
    observed_evals: u64,
    /// From the first build.
    evals: u64,
    pruned: u64,
    iterations: u32,
    batched_rows: u64,
    quality: f64,
    /// Digest of the first build's graph, which later builds must match.
    digest: Option<u64>,
}

impl PerBuilder {
    fn new(algo: Box<dyn ErasedBuilder>) -> PerBuilder {
        PerBuilder {
            algo,
            wall: Vec::new(),
            fingerprint: Vec::new(),
            knn: Vec::new(),
            phases: Default::default(),
            unattributed: Vec::new(),
            updates: 0,
            observed_evals: 0,
            evals: 0,
            pruned: 0,
            iterations: 0,
            batched_rows: 0,
            quality: 0.0,
            digest: None,
        }
    }
}

struct Round {
    wall: f64,
    peak_mb: f64,
    growth_mb: f64,
    traced: bool,
}

/// Times one build into `b`. The first build's graph is checked and scored
/// at once and dropped, so every build starts from the same resident state;
/// later builds must reproduce its digest and eval count.
fn build_once(
    b: &mut PerBuilder,
    profiles: &ProfileStore,
    seed: u64,
    traced: bool,
    group: u64,
    tracer: &mut Tracer,
    rep: &mut Report,
) -> (f64, f64, f64) {
    let algo = b.algo.as_ref();
    let params = ShfParams::new(BITS, DynHasher::default());
    let log = PhaseLog::default();
    let floor = Floor::take();
    let k0 = kernels::stats();
    let t0 = Instant::now();
    let store = params.fingerprint_store(profiles);
    let t1 = Instant::now();
    let sim = ShfJaccard::new(&store);
    let input = BuildInput::with_profiles(&sim as &dyn Similarity, profiles);
    let result = if traced {
        algo.build_erased(input, K, &log)
    } else {
        algo.build_erased(input, K, &NoopObserver)
    };
    let t2 = Instant::now();
    let k1 = kernels::stats();
    let (peak_mb, growth_mb) = floor.map_or((0.0, 0.0), |f| f.peak_mib());
    rep.attempted += 1;

    let wall = (t2 - t0).as_secs_f64();
    let call = tracer.record("build", None, group, t0, t2);
    tracer.record("shf.fingerprint_store", Some(call), group, t0, t1);
    let knn = tracer.record("knn.build_erased", Some(call), group, t1, t2);
    if traced {
        let mut totals = [0.0; 3];
        for (phase, end, span) in log.spans.into_inner().expect("observer lock") {
            let slot = match phase {
                Phase::CandidateGeneration => 0,
                Phase::Join => 1,
                Phase::Merge => 2,
                _ => continue,
            };
            totals[slot] += span.as_secs_f64();
            let name = ["knn.candidates", "knn.join", "knn.merge"][slot];
            tracer.record(name, Some(knn), group, end - span, end);
        }
        for (samples, t) in b.phases.iter_mut().zip(totals) {
            samples.push(t);
        }
        b.unattributed.push(tracer.self_time(knn).as_secs_f64());
        for ev in log.iterations.into_inner().expect("observer lock") {
            b.updates += ev.updates;
            b.observed_evals += ev.similarity_evals;
        }
    } else {
        b.wall.push(wall);
        b.fingerprint.push((t1 - t0).as_secs_f64());
        b.knn.push((t2 - t1).as_secs_f64());
    }

    let d = digest(&result.graph);
    match b.digest {
        None => {
            b.evals = result.stats.similarity_evals;
            b.pruned = result.stats.pruned_evals;
            b.iterations = result.stats.iterations;
            b.batched_rows = k1.since(&k0).batched_rows;
            b.digest = Some(d);
            let graph = &result.graph;
            let users: Vec<u32> = (0..profiles.n_users() as u32).collect();
            rep.check(
                &format!("{} graph", algo.name()),
                check_graph(graph, users.len(), K),
            );
            rep.check(
                &format!("{} stored similarities", algo.name()),
                spot_check_sims(graph, &users, seed, 2000, |u, v| sim.similarity(u, v)),
            );
            let lists: Vec<Vec<u32>> = users
                .iter()
                .map(|&u| graph.neighbors(u).iter().map(|s| s.user).collect())
                .collect();
            b.quality = exact::quality(profiles, K, &users, &lists).ratio();
        }
        Some(d0) if d0 != d || result.stats.similarity_evals != b.evals => {
            let msg = format!(
                "{}: graph or eval count differs from the first build",
                algo.name()
            );
            rep.fail(true, msg);
        }
        Some(_) => {}
    }
    (wall, peak_mb, growth_mb)
}

pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let mut tracer = Tracer::new();

    let mut setup_s = Vec::new();
    let mut digests = Vec::new();
    let mut data = None;
    for i in 0..SETUP_REPEATS {
        drop(data.take());
        let t = Instant::now();
        let d = ml1m(opts.seed);
        let end = Instant::now();
        tracer.record("datasets.prepare", None, i as u64, t, end);
        setup_s.push((end - t).as_secs_f64());
        digests.push(profiles_digest(d.profiles()));
        data = Some(d);
    }
    let data = data.expect("at least one set-up");
    if digests.windows(2).any(|w| w[0] != w[1]) {
        rep.fail(
            false,
            "set-up repetitions generated different inputs".into(),
        );
    }
    let profiles = data.profiles();

    // The builders' own randomness (NNDescent's initial graph, LSH
    // permutations) keeps the registry's default seed: it is a setting of
    // the program, not an input.
    let cfg = BuilderConfig {
        threads: 1,
        ..BuilderConfig::default()
    };
    let mut per: Vec<PerBuilder> = BUILDERS
        .iter()
        .map(|(name, _)| {
            let spec = builders::get(name).expect("registered builder");
            PerBuilder::new(spec.instantiate(&cfg))
        })
        .collect();
    let mut rounds: Vec<Round> = Vec::new();

    let budget = Duration::from_secs_f64(opts.seconds);
    let t_loop = Instant::now();
    loop {
        let r = rounds.len();
        // The traced run alternates traced and untraced rounds, so both
        // halves of the overhead comparison see the same machine phases.
        let traced = opts.trace && r % 2 == 1;
        let mut round = Round {
            wall: 0.0,
            peak_mb: 0.0,
            growth_mb: 0.0,
            traced,
        };
        for (i, b) in per.iter_mut().enumerate() {
            let group = (r * BUILDERS.len() + i) as u64;
            let (wall, peak, growth) =
                build_once(b, profiles, opts.seed, traced, group, &mut tracer, &mut rep);
            round.wall += wall;
            round.peak_mb = round.peak_mb.max(peak);
            round.growth_mb = round.growth_mb.max(growth);
        }
        let last = round.wall;
        rounds.push(round);
        if rounds.len() >= MIN_ROUNDS && t_loop.elapsed() + Duration::from_secs_f64(last) > budget {
            break;
        }
    }

    let qualities: Vec<f64> = per.iter().map(|b| b.quality).collect();

    let untraced: Vec<&Round> = rounds.iter().filter(|r| !r.traced).collect();
    let col = |f: fn(&Round) -> f64| untraced.iter().map(|r| f(r)).collect::<Vec<f64>>();
    if !opts.trace {
        rep.set_median("setup_s", &setup_s);
        rep.set_median("peak_rss_mb", &col(|r| r.peak_mb));
        rep.set_median("work_s", &col(|r| r.wall));
        rep.set(
            "quality",
            qualities.iter().sum::<f64>() / qualities.len() as f64,
        );
        return rep;
    }

    let median = |v: &[f64]| summarize(v).median;
    rep.set_median("datasets.prepare_s", &setup_s);
    let fingerprint: Vec<f64> = per
        .iter()
        .flat_map(|b| b.fingerprint.iter().copied())
        .collect();
    rep.set_median("shf.fingerprint_s", &fingerprint);
    for (((_, key), b), quality) in BUILDERS.iter().zip(&per).zip(&qualities) {
        let name = |m: &str| format!("knn.{key}.{m}");
        rep.set_median(&name("build_s"), &b.wall);
        rep.set_median(&name("candidates_s"), &b.phases[0]);
        rep.set_median(&name("join_s"), &b.phases[1]);
        rep.set_median(&name("merge_s"), &b.phases[2]);
        rep.set_median(&name("unattributed_s"), &b.unattributed);
        rep.set(&name("evals"), b.evals as f64);
        rep.set(
            &name("ns_per_eval"),
            median(&b.knn) * 1e9 / b.evals.max(1) as f64,
        );
        rep.set(
            &name("useful_ratio"),
            b.updates as f64 / b.observed_evals.max(1) as f64,
        );
        rep.set(&name("quality"), *quality);
        rep.set(
            &format!("kernels.{key}.batched_share"),
            b.batched_rows as f64 / b.evals.max(1) as f64,
        );
    }
    let [bf, nndescent, _, cluster] = &per[..] else {
        unreachable!("four builders")
    };
    rep.set(
        "knn.bf.pruned_share",
        bf.pruned as f64 / (bf.evals + bf.pruned).max(1) as f64,
    );
    rep.set("knn.nndescent.iterations", f64::from(nndescent.iterations));
    let layout = Cluster {
        seed: cfg.seed,
        threads: 1,
        ..Cluster::default()
    }
    .assign(profiles)
    .stats();
    rep.set("knn.cluster.capped", layout.capped as f64);
    if layout.pair_slots > 0 {
        let distinct = cluster.evals + cluster.pruned;
        rep.set(
            "knn.cluster.dedup_rate",
            1.0 - distinct as f64 / layout.pair_slots as f64,
        );
    }
    rep.set_median("mem.growth_mb", &col(|r| r.growth_mb));
    let traced: Vec<f64> = rounds.iter().filter(|r| r.traced).map(|r| r.wall).collect();
    rep.set(
        "trace_overhead_pct",
        (median(&traced) / median(&col(|r| r.wall)) - 1.0) * 100.0,
    );
    crate::write_trace(opts, &tracer, &mut rep);
    rep
}
