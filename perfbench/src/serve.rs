//! `serve-ml1m`: a closed-loop replay against `KnnService`.
//!
//! One client thread sends a seeded stream (30% updates of 1–3 items, 70%
//! lookups, uniform users) and waits for each call to return: `update`
//! runs the drain on the caller's thread, so the loop is closed. The
//! service runs 8 shards, batch 256, 4 probes and 2 pool threads over the
//! ml1M population; its initial Brute Force graph is built in set-up. The
//! stream ends with `flush`.

use crate::check::{check_list, SplitMix};
use crate::exact;
use crate::inmem::{ml1m, profiles_digest, BITS, K};
use crate::report::Report;
use crate::rss::Floor;
use crate::stats::{percentile_sorted, sorted};
use crate::trace::Tracer;
use crate::Opts;
use goldfinger_core::hash::DynHasher;
use goldfinger_core::pool::Pool;
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::ShfParams;
use goldfinger_core::similarity::{ShfJaccard, Similarity};
use goldfinger_knn::builders::{self, BuilderConfig};
use goldfinger_knn::{BuildInput, KnnService, ServeConfig};
use goldfinger_obs::{NoopObserver, Registry};
use std::sync::Arc;
use std::time::Instant;

/// Ops per second of the run's budget; sized so a replay takes about
/// `--seconds` at the throughput this workload reaches on a 2-vCPU VM.
const OPS_PER_SECOND: usize = 25_000;
/// `work_s` is the median wall time of one segment of this many ops.
const SEGMENT_OPS: usize = 25_000;
const UPDATE_PCT: u64 = 30;
const THREADS: usize = 2;
/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

enum Op {
    Update(u32, Vec<u32>),
    Lookup(u32),
}

fn ops(n_users: usize, n_items: usize, count: usize, seed: u64) -> Vec<Op> {
    let mut rng = SplitMix(seed);
    (0..count)
        .map(|_| {
            let user = rng.below(n_users as u64) as u32;
            if rng.below(100) < UPDATE_PCT {
                let len = 1 + rng.below(3) as usize;
                Op::Update(
                    user,
                    (0..len).map(|_| rng.below(n_items as u64) as u32).collect(),
                )
            } else {
                Op::Lookup(user)
            }
        })
        .collect()
}

struct Setup {
    profiles: ProfileStore,
    n_items: usize,
    svc: KnnService<DynHasher>,
    registry: Registry,
    initial_build_s: f64,
}

fn setup(seed: u64, tracer: &mut Tracer, group: u64) -> Setup {
    let t = Instant::now();
    let data = ml1m(seed);
    let t_data = Instant::now();
    tracer.record("datasets.prepare", None, group, t, t_data);
    let params = ShfParams::new(BITS, DynHasher::default());
    let store = params.fingerprint_store(data.profiles());
    let bf = builders::get("brute")
        .expect("registered builder")
        .instantiate(&BuilderConfig { seed, threads: 1 });
    let t_build = Instant::now();
    let graph = bf
        .build_erased(
            BuildInput::new(&ShfJaccard::new(&store) as &dyn Similarity),
            K,
            &NoopObserver,
        )
        .graph;
    let initial_build_s = t_build.elapsed().as_secs_f64();
    let registry = Registry::new();
    let cfg = ServeConfig {
        shards: 8,
        batch: 256,
        probes: 4,
        seed,
        threads: THREADS,
    };
    let svc = KnnService::new(&graph, &store, *params.hasher(), cfg, &registry);
    Setup {
        profiles: data.profiles().clone(),
        n_items: data.n_items(),
        svc,
        registry,
        initial_build_s,
    }
}

/// Client-side timings of one replay.
#[derive(Default)]
struct Replay {
    segment_s: Vec<f64>,
    wall_s: f64,
    lookup_us: Vec<f64>,
    enqueue_us: Vec<f64>,
    drain_ms: Vec<f64>,
    visible_ms: Vec<f64>,
    missing_lookups: u64,
    peak_mb: f64,
    growth_mb: f64,
}

fn replay(
    svc: &KnnService<DynHasher>,
    ops: &[Op],
    pool: &Arc<Pool>,
    tracer: Option<&mut Tracer>,
) -> Replay {
    let mut r = Replay::default();
    // Calls that drained: (name, published epoch, start, end).
    let mut drains: Vec<(&'static str, u64, Instant, Instant)> = Vec::new();
    let mut pending: Vec<Instant> = Vec::new();
    let mut epoch = svc.epoch();
    let floor = Floor::take();
    let start = Instant::now();
    pool.install(|| {
        let mut seg_start = start;
        for (i, op) in ops.iter().enumerate() {
            match op {
                Op::Lookup(u) => {
                    let t = Instant::now();
                    let got = svc.lookup(*u);
                    r.lookup_us.push(t.elapsed().as_secs_f64() * 1e6);
                    if got.is_none() {
                        r.missing_lookups += 1;
                    }
                }
                Op::Update(u, items) => {
                    let items = items.clone();
                    let t = Instant::now();
                    svc.update(*u, items);
                    let end = Instant::now();
                    pending.push(t);
                    let now_epoch = svc.epoch();
                    if now_epoch != epoch {
                        epoch = now_epoch;
                        r.drain_ms.push((end - t).as_secs_f64() * 1e3);
                        r.visible_ms
                            .extend(pending.drain(..).map(|p| (end - p).as_secs_f64() * 1e3));
                        drains.push(("serve.update", epoch, t, end));
                    } else {
                        r.enqueue_us.push((end - t).as_secs_f64() * 1e6);
                    }
                }
            }
            let last = i + 1 == ops.len();
            if last {
                let t = Instant::now();
                svc.flush();
                let end = Instant::now();
                if svc.epoch() != epoch {
                    epoch = svc.epoch();
                    r.drain_ms.push((end - t).as_secs_f64() * 1e3);
                    r.visible_ms
                        .extend(pending.drain(..).map(|p| (end - p).as_secs_f64() * 1e3));
                    drains.push(("serve.flush", epoch, t, end));
                }
            }
            if (i + 1) % SEGMENT_OPS == 0 || last {
                let now = Instant::now();
                r.segment_s.push((now - seg_start).as_secs_f64());
                seg_start = now;
            }
        }
    });
    let end = Instant::now();
    r.wall_s = (end - start).as_secs_f64();
    (r.peak_mb, r.growth_mb) = floor.map_or((0.0, 0.0), |f| f.peak_mib());
    if let Some(tracer) = tracer {
        let root = tracer.record("replay", None, 0, start, end);
        for &(name, epoch, a, b) in &drains {
            tracer.record(name, Some(root), epoch, a, b);
        }
    }
    r
}

fn counter(reg: &Registry, name: &str) -> u64 {
    reg.snapshot()
        .counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

pub fn run(opts: &Opts) -> Report {
    let mut rep = Report::default();
    let mut tracer = Tracer::new();

    // Set-up is serial and runs on one CPU; the replay gets them all back.
    let all_cpus = crate::cpu::pin_to_last();
    let n_ops = (OPS_PER_SECOND as f64 * opts.seconds).round().max(1.0) as usize;
    let mut setup_s = Vec::new();
    let mut initial_build_s = Vec::new();
    let mut digests = Vec::new();
    // The traced run keeps two services: one replays untraced, one traced.
    let keep = if opts.trace { 2 } else { 1 };
    let mut services: Vec<Setup> = Vec::new();
    let mut stream = Vec::new();
    for i in 0..SETUP_REPEATS {
        if services.len() == keep {
            services.remove(0);
        }
        let t = Instant::now();
        let s = setup(opts.seed, &mut tracer, i as u64);
        stream = ops(s.profiles.n_users(), s.n_items, n_ops, opts.seed ^ 0x0b5);
        setup_s.push(t.elapsed().as_secs_f64());
        initial_build_s.push(s.initial_build_s);
        digests.push((profiles_digest(&s.profiles), s.svc.snapshot().digest()));
        services.push(s);
    }
    if digests.windows(2).any(|w| w[0] != w[1]) {
        rep.fail(false, "set-up repetitions built different services".into());
    }
    if let Some(all) = all_cpus {
        all.apply();
    }
    let pool = Pool::new(THREADS);

    let s = services.pop().expect("at least one set-up");
    let stream = &stream[..];
    let untraced = opts.trace.then(|| {
        let s0 = services.pop().expect("two set-ups kept");
        replay(&s0.svc, stream, &pool, None)
    });
    let p0 = pool.stats();
    let mut r = replay(&s.svc, stream, &pool, opts.trace.then_some(&mut tracer));
    let pool_delta = pool.stats().since(&p0);
    rep.attempted = stream.len() as u64;
    if r.missing_lookups > 0 {
        rep.fail(
            false,
            format!("{} in-range lookups returned None", r.missing_lookups),
        );
        rep.failed += r.missing_lookups;
    }

    // Final state: every list valid and the snapshot's digests intact;
    // quality is scored against the exact top-k of the final profiles.
    let snap = s.svc.snapshot();
    if !snap.verify() {
        rep.fail(false, "final snapshot fails verify()".into());
    }
    let n = s.profiles.n_users();
    for u in 0..n as u32 {
        let list = snap.top_k(u).unwrap_or(&[]);
        if let Err(e) = check_list(u, list, n, K) {
            rep.fail(false, format!("final graph: {e}"));
            break;
        }
    }
    if !opts.trace {
        let mut lists: Vec<Vec<u32>> = s.profiles.iter().map(|(_, items)| items.to_vec()).collect();
        for op in stream {
            if let Op::Update(u, items) = op {
                lists[*u as usize].extend(items);
            }
        }
        let final_profiles = ProfileStore::from_item_lists(lists);
        let users: Vec<u32> = (0..n as u32).collect();
        let served: Vec<Vec<u32>> = users
            .iter()
            .map(|&u| {
                snap.top_k(u)
                    .unwrap_or(&[])
                    .iter()
                    .map(|e| e.user)
                    .collect()
            })
            .collect();
        rep.set_median("setup_s", &setup_s);
        rep.set("peak_rss_mb", r.peak_mb);
        rep.set_median("work_s", &r.segment_s);
        rep.set(
            "quality",
            exact::quality(&final_profiles, K, &users, &served).ratio(),
        );
        return rep;
    }

    let drains = counter(&s.registry, "serve.drains");
    let repairs = counter(&s.registry, "serve.repairs");
    let evals = counter(&s.registry, "serve.repair_evals");
    let lookups = sorted(std::mem::take(&mut r.lookup_us));
    let visible = sorted(std::mem::take(&mut r.visible_ms));
    let drain = sorted(std::mem::take(&mut r.drain_ms));
    let enqueue = sorted(std::mem::take(&mut r.enqueue_us));
    rep.set_median("datasets.prepare_s", &setup_s);
    rep.set_median("serve.initial_build_s", &initial_build_s);
    rep.set("serve.ops_per_s", stream.len() as f64 / r.wall_s);
    if !visible.is_empty() {
        rep.set("serve.visible_p50_ms", percentile_sorted(&visible, 0.50));
        rep.set("serve.visible_p95_ms", percentile_sorted(&visible, 0.95));
        rep.set("serve.drain_p50_ms", percentile_sorted(&drain, 0.50));
        rep.set("serve.drain_p95_ms", percentile_sorted(&drain, 0.95));
    }
    // Visible latencies cluster per drain: the drains are the samples.
    rep.set("serve.visible_samples", drain.len() as f64);
    if !lookups.is_empty() {
        rep.set("serve.lookup_p50_us", percentile_sorted(&lookups, 0.50));
        rep.set("serve.lookup_p99_us", percentile_sorted(&lookups, 0.99));
    }
    rep.set("serve.lookup_samples", lookups.len() as f64);
    if !enqueue.is_empty() {
        rep.set("serve.enqueue_p99_us", percentile_sorted(&enqueue, 0.99));
    }
    rep.set("serve.drains", drains as f64);
    rep.set("serve.repairs", repairs as f64);
    rep.set(
        "serve.evals_per_repair",
        evals as f64 / repairs.max(1) as f64,
    );
    let per_drain = |x: u64| x as f64 / drains.max(1) as f64;
    rep.set(
        "pool.dispatches_per_drain",
        per_drain(pool_delta.dispatches),
    );
    rep.set("pool.steals_per_drain", per_drain(pool_delta.steals));
    rep.set("pool.parks_per_drain", per_drain(pool_delta.parks));
    rep.set("mem.growth_mb", r.growth_mb);
    let untraced = untraced.expect("untraced replay");
    let median = |v: &[f64]| crate::stats::summarize(v).median;
    rep.set(
        "trace_overhead_pct",
        (median(&r.segment_s) / median(&untraced.segment_s) - 1.0) * 100.0,
    );
    crate::write_trace(opts, &tracer, &mut rep);
    rep
}
