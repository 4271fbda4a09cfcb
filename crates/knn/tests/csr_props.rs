//! CSR graph properties: the flat-array `KnnGraph` and its serialized
//! forms must be loss-free for every builder in the registry, and the
//! sharded out-of-core pipeline must reproduce the in-RAM LSH build
//! bit-for-bit at any shard count.

use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::{ShfParams, ShfStore};
use goldfinger_core::similarity::ShfJaccard;
use goldfinger_core::topk::TopK;
use goldfinger_knn::builder::BuildInput;
use goldfinger_knn::builders::{self, BuilderConfig};
use goldfinger_knn::csr::{read_segment, write_graph_segment, CompactGraph};
use goldfinger_knn::graph::{CsrBuilder, KnnGraph};
use goldfinger_knn::lsh::{bucket_key, table_seed, Lsh};
use goldfinger_knn::oocbuild::{self, OocConfig};
use goldfinger_knn::NoopObserver;
use proptest::prelude::*;
use std::collections::HashMap;
use std::io::Cursor;
use std::sync::atomic::{AtomicUsize, Ordering};

const K: usize = 6;

fn fixture() -> ProfileStore {
    // Two planted clusters plus ragged tails and an empty profile, sized
    // so every builder produces non-trivial neighbourhoods.
    let mut lists: Vec<Vec<u32>> = Vec::new();
    for u in 0..12u32 {
        let mut items: Vec<u32> = (0..30).collect();
        items.push(500 + u);
        lists.push(items);
    }
    for u in 0..12u32 {
        let mut items: Vec<u32> = (200..230).collect();
        items.push(600 + u);
        lists.push(items);
    }
    for u in 0..8u32 {
        lists.push(((u * 11)..(u * 11 + 5 + u)).collect());
    }
    lists.push(vec![]);
    ProfileStore::from_item_lists(lists)
}

fn graphs_equal(a: &KnnGraph, b: &KnnGraph) -> bool {
    a.n_users() == b.n_users() && (0..a.n_users() as u32).all(|u| a.neighbors(u) == b.neighbors(u))
}

/// Every registry builder's graph survives a GFCS segment round-trip
/// (exact sims) bit-identically, in one piece and cut into ragged
/// segments.
#[test]
fn every_builder_graph_round_trips_through_exact_segments() {
    let profiles = fixture();
    let store =
        ShfParams::new(256, DynHasher::new(HasherKind::Jenkins, 11)).fingerprint_store(&profiles);
    let sim = ShfJaccard::new(&store);
    let n = profiles.n_users() as u32;
    for spec in builders::all() {
        let builder = spec.instantiate(&BuilderConfig {
            seed: 99,
            threads: 1,
        });
        let result =
            builder.build_erased(BuildInput::with_profiles(&sim, &profiles), K, &NoopObserver);
        let graph = &result.graph;

        // Whole-graph segment.
        let mut buf = Vec::new();
        write_graph_segment(graph, 0, n, true, &mut buf).unwrap();
        let seg = read_segment(&mut Cursor::new(&buf), u64::from(n)).unwrap();
        let mut rebuilt = CsrBuilder::with_capacity(K, n as usize);
        seg.append_into(&mut rebuilt);
        assert!(
            graphs_equal(graph, &rebuilt.finish()),
            "{}: whole-graph segment round-trip diverged",
            spec.name
        );

        // Ragged three-way cut, stitched in order.
        let cuts = [0u32, n / 3, n / 3 + 1, n];
        let mut rebuilt = CsrBuilder::with_capacity(K, n as usize);
        for w in cuts.windows(2) {
            let mut buf = Vec::new();
            write_graph_segment(graph, w[0], w[1], true, &mut buf).unwrap();
            let seg = read_segment(&mut Cursor::new(&buf), u64::from(n)).unwrap();
            seg.append_into(&mut rebuilt);
        }
        assert!(
            graphs_equal(graph, &rebuilt.finish()),
            "{}: stitched segment round-trip diverged",
            spec.name
        );

        // CompactGraph preserves ids exactly (sims only to f32).
        let compact = CompactGraph::from_graph(graph);
        let back = compact.to_graph();
        assert_eq!(back.n_users(), graph.n_users());
        for u in 0..n {
            let orig = graph.neighbors(u);
            let comp = back.neighbors(u);
            assert_eq!(
                orig.iter().map(|s| s.user).collect::<Vec<_>>(),
                comp.iter().map(|s| s.user).collect::<Vec<_>>(),
                "{}: compact ids diverged at {u}",
                spec.name
            );
            for (o, c) in orig.iter().zip(comp) {
                assert_eq!(o.sim as f32, c.sim as f32, "{}: sim at {u}", spec.name);
            }
        }
    }
}

/// The out-of-core pipeline equals `Lsh::build` for every shard count,
/// with and without spilling, through the public registry-visible
/// configuration.
#[test]
fn ooc_build_equals_in_ram_lsh_for_every_shard_count() {
    let profiles = fixture();
    let params = ShfParams::new(256, DynHasher::new(HasherKind::Jenkins, 11));
    let store = params.fingerprint_store(&profiles);
    let expected = Lsh {
        tables: 5,
        seed: 404,
        threads: 1,
    }
    .build(&profiles, &ShfJaccard::new(&store), K);

    for shards in [1usize, 3, 7, 33] {
        for spill in [false, cfg!(target_os = "linux")] {
            let dir = std::env::temp_dir().join(format!(
                "gf-csrprops-{shards}-{spill}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let mut cfg = OocConfig::new(K, 5, 404, &dir);
            cfg.shards = shards;
            cfg.spill = spill;
            let (graph, stats) = oocbuild::build(&profiles, &params, &cfg).unwrap();
            assert!(
                graphs_equal(&graph, &expected.graph),
                "ooc(shards={shards}, spill={spill}) diverged from Lsh::build"
            );
            assert_eq!(
                stats.similarity_evals, expected.stats.similarity_evals,
                "eval counts diverged (shards={shards}, spill={spill})"
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

/// Auto-sharding under a budget still yields the identical graph — the
/// shard count is a residency knob, never an output knob.
#[test]
fn budget_derived_sharding_is_output_invariant() {
    let profiles = fixture();
    let params = ShfParams::new(256, DynHasher::new(HasherKind::Jenkins, 11));
    let dir = std::env::temp_dir().join(format!("gf-csrprops-budget-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);

    let mut unbounded = OocConfig::new(K, 3, 7, dir.join("a"));
    unbounded.spill = false;
    let (reference, ref_stats) = oocbuild::build(&profiles, &params, &unbounded).unwrap();
    assert_eq!(ref_stats.shards, 1);

    let mut budgeted = OocConfig::new(K, 3, 7, dir.join("b"));
    budgeted.spill = false;
    budgeted.mem_budget = 1 << 10; // absurdly small: forces many shards
    let (graph, stats) = oocbuild::build(&profiles, &params, &budgeted).unwrap();
    assert!(stats.shards > 1, "tiny budget must force sharding");
    assert!(graphs_equal(&graph, &reference));
    let _ = std::fs::remove_dir_all(&dir);
}

/// The bucket scan spelled out with hash maps: per user, the members of
/// each table's bucket (tables in order, ascending ids inside a bucket),
/// skipping buckets of more than `cap` users (`0` = no cap), deduplicated
/// against the user and earlier candidates, then scored and cut to the
/// top `k`. Returns the graph and the candidate count.
fn capped_lsh_reference(
    profiles: &ProfileStore,
    store: &ShfStore,
    tables: usize,
    seed: u64,
    k: usize,
    cap: usize,
) -> (KnnGraph, u64) {
    let n = profiles.n_users() as u32;
    let buckets: Vec<HashMap<u64, Vec<u32>>> = (0..tables)
        .map(|t| {
            let mut map: HashMap<u64, Vec<u32>> = HashMap::new();
            for u in 0..n {
                if let Some(key) = bucket_key(profiles.items(u), table_seed(seed, t)) {
                    map.entry(key).or_default().push(u);
                }
            }
            map
        })
        .collect();
    let mut evals = 0u64;
    let mut lists = Vec::with_capacity(n as usize);
    for u in 0..n {
        let mut candidates: Vec<u32> = Vec::new();
        for (t, map) in buckets.iter().enumerate() {
            let Some(key) = bucket_key(profiles.items(u), table_seed(seed, t)) else {
                continue;
            };
            let bucket = &map[&key];
            if cap != 0 && bucket.len() > cap {
                continue;
            }
            for &v in bucket {
                if v != u && !candidates.contains(&v) {
                    candidates.push(v);
                }
            }
        }
        evals += candidates.len() as u64;
        let mut top = TopK::new(k);
        for &v in &candidates {
            top.offer(store.jaccard(u, v), v);
        }
        lists.push(top.into_sorted());
    }
    (KnnGraph::from_lists(k, lists), evals)
}

/// Random populations built to stress bucketing: items fold into a small
/// universe (`fold`), so many users share a key, and short lists make
/// empty profiles common.
fn shared_key_population() -> impl Strategy<Value = (Vec<Vec<u32>>, u32)> {
    (
        proptest::collection::vec(proptest::collection::vec(0u32..60, 0..6), 2..40),
        2u32..40,
    )
}

static CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For tables {1, 2, 3} × shards {1, 2, 5} × spill off/on: without a
    /// cap the out-of-core build equals `Lsh::build` (graph and eval
    /// count); with `max_bucket` set it equals the reference scan that
    /// skips exactly the over-cap buckets and nothing else.
    #[test]
    fn ooc_build_matches_lsh_and_the_capped_reference(
        (lists, fold) in shared_key_population(),
        cap in 1usize..6,
        seed in 0u64..1000,
    ) {
        let lists: Vec<Vec<u32>> = lists
            .into_iter()
            .map(|l| l.into_iter().map(|i| i % fold).collect())
            .collect();
        let profiles = ProfileStore::from_item_lists(lists);
        let params = ShfParams::new(256, DynHasher::new(HasherKind::Jenkins, 11));
        let store = params.fingerprint_store(&profiles);
        let k = 3;
        for tables in 1..=3usize {
            let lsh = Lsh { tables, seed, threads: 1 }.build(&profiles, &ShfJaccard::new(&store), k);
            let (capped, capped_evals) =
                capped_lsh_reference(&profiles, &store, tables, seed, k, cap);
            for shards in [1usize, 2, 5] {
                for spill in [false, cfg!(target_os = "linux")] {
                    let dir = std::env::temp_dir().join(format!(
                        "gf-csrprops-prop-{}-{}",
                        std::process::id(),
                        CASE.fetch_add(1, Ordering::Relaxed)
                    ));
                    let mut cfg = OocConfig::new(k, tables, seed, &dir);
                    cfg.shards = shards;
                    cfg.spill = spill;
                    let (graph, stats) = oocbuild::build(&profiles, &params, &cfg).unwrap();
                    prop_assert!(
                        graphs_equal(&graph, &lsh.graph),
                        "uncapped: tables={} shards={} spill={}", tables, shards, spill
                    );
                    prop_assert_eq!(stats.similarity_evals, lsh.stats.similarity_evals);

                    cfg.max_bucket = cap;
                    let (graph, stats) = oocbuild::build(&profiles, &params, &cfg).unwrap();
                    prop_assert!(
                        graphs_equal(&graph, &capped),
                        "cap={}: tables={} shards={} spill={}", cap, tables, shards, spill
                    );
                    prop_assert_eq!(stats.similarity_evals, capped_evals);
                    let _ = std::fs::remove_dir_all(&dir);
                }
            }
        }
    }
}
