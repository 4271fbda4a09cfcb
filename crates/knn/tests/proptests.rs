//! Property-based tests: structural invariants every KNN builder must
//! uphold, on arbitrary profile sets.

use goldfinger_core::hash::{DynHasher, HasherKind};
use goldfinger_core::kernels::{self, SimKernel};
use goldfinger_core::profile::ProfileStore;
use goldfinger_core::shf::{jaccard_from_counts, ShfParams, ShfStore};
use goldfinger_core::similarity::{ExplicitJaccard, Similarity};
use goldfinger_knn::brute::BruteForce;
use goldfinger_knn::cluster::Cluster;
use goldfinger_knn::graph::KnnGraph;
use goldfinger_knn::hyrec::Hyrec;
use goldfinger_knn::lsh::Lsh;
use goldfinger_knn::metrics::{average_similarity, edge_recall};
use goldfinger_knn::neighborlist::{NeighborEntry, NeighborList, Offer};
use goldfinger_knn::nndescent::NNDescent;
use proptest::prelude::*;

/// Arbitrary small populations: 3–25 users with 0–40 items each from a
/// 200-item universe (dense enough for structure, small enough to be fast).
fn population() -> impl Strategy<Value = Vec<Vec<u32>>> {
    proptest::collection::vec(proptest::collection::vec(0u32..200, 0..40), 3..25)
}

/// Checks the invariants shared by every KNN graph.
fn assert_graph_invariants(graph: &KnnGraph, n: usize, k: usize) {
    assert_eq!(graph.n_users(), n);
    for u in 0..n as u32 {
        let neigh = graph.neighbors(u);
        assert!(neigh.len() <= k, "user {u} has more than k neighbours");
        assert!(neigh.len() < n);
        // No self-loops.
        assert!(neigh.iter().all(|s| s.user != u));
        // Unique neighbours.
        let mut ids: Vec<u32> = neigh.iter().map(|s| s.user).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), neigh.len(), "user {u} has duplicate neighbours");
        // Sorted by decreasing similarity.
        assert!(
            neigh.windows(2).all(|w| w[0].sim >= w[1].sim),
            "user {u} mis-sorted"
        );
        // Similarities in range.
        assert!(neigh.iter().all(|s| (0.0..=1.0).contains(&s.sim)));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn brute_force_graph_invariants(lists in population(), k in 1usize..8) {
        let n = lists.len();
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let g = BruteForce::default().build(&sim, k).graph;
        assert_graph_invariants(&g, n, k);
        // Brute force keeps everyone when k ≥ n − 1.
        if k >= n - 1 {
            for u in 0..n as u32 {
                prop_assert_eq!(g.neighbors(u).len(), n - 1);
            }
        }
    }

    #[test]
    fn brute_force_stored_sims_are_exact(lists in population()) {
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let g = BruteForce::default().build(&sim, 3).graph;
        for (u, v, s) in g.edges() {
            prop_assert!((s - sim.similarity(u, v)).abs() < 1e-12);
        }
    }

    /// Pruning, tiling and threading are pure optimisations: the pruned
    /// engine must return exactly the graph of the naive unpruned scan, and
    /// evaluated + pruned pairs must account for every unordered pair.
    #[test]
    fn pruned_scan_is_identical_to_unpruned(
        lists in population(),
        k in 1usize..8,
        threads in 1usize..5,
        tile in prop_oneof![Just(0usize), Just(3), Just(64)],
    ) {
        let n = lists.len();
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let baseline = BruteForce { threads: 1, tile: 0, prune: false }.build(&sim, k);
        let pruned = BruteForce { threads, tile, prune: true }.build(&sim, k);
        for u in 0..n as u32 {
            prop_assert_eq!(baseline.graph.neighbors(u), pruned.graph.neighbors(u));
        }
        let pairs = (n as u64) * (n as u64 - 1) / 2;
        prop_assert_eq!(baseline.stats.similarity_evals, pairs);
        prop_assert_eq!(
            pruned.stats.similarity_evals + pruned.stats.pruned_evals,
            pairs
        );
    }

    #[test]
    fn greedy_builders_respect_invariants(lists in population(), k in 1usize..6) {
        let n = lists.len();
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        assert_graph_invariants(&Hyrec::default().build(&sim, k).graph, n, k);
        assert_graph_invariants(&NNDescent::default().build(&sim, k).graph, n, k);
        assert_graph_invariants(&Lsh::default().build(&profiles, &sim, k).graph, n, k);
    }

    #[test]
    fn greedy_average_similarity_never_beats_exact(lists in population(), k in 1usize..5) {
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let exact = BruteForce::default().build(&sim, k).graph;
        let exact_avg = average_similarity(&exact, &sim);
        for approx in [
            Hyrec::default().build(&sim, k).graph,
            NNDescent::default().build(&sim, k).graph,
        ] {
            // Brute force maximises per-user neighbourhood similarity, so
            // its per-edge average over FULL neighbourhoods is maximal; a
            // greedy result with the same edge count can't beat it.
            if approx.n_edges() == exact.n_edges() {
                prop_assert!(average_similarity(&approx, &sim) <= exact_avg + 1e-9);
            }
        }
    }

    #[test]
    fn edge_recall_is_within_bounds(lists in population(), k in 1usize..5) {
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let exact = BruteForce::default().build(&sim, k).graph;
        let approx = Hyrec::default().build(&sim, k).graph;
        let r = edge_recall(&approx, &exact);
        prop_assert!((0.0..=1.0).contains(&r));
        prop_assert!((edge_recall(&exact, &exact) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn builders_are_seed_deterministic(lists in population(), seed in 0u64..50) {
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        let a = NNDescent { seed, ..NNDescent::default() }.build(&sim, 3).graph;
        let b = NNDescent { seed, ..NNDescent::default() }.build(&sim, 3).graph;
        for u in 0..a.n_users() as u32 {
            prop_assert_eq!(a.neighbors(u), b.neighbors(u));
        }
    }
}

/// An [`ShfJaccard`](goldfinger_core::similarity::ShfJaccard) twin pinned
/// to one explicit kernel variant instead of the `GF_KERNEL`-selected
/// [`kernels::active`] — so one test process can sweep every variant the
/// host supports and prove the clustered build bit-identical across them.
/// One run's comparable outcome: the full `(u, v, sim-bits)` edge stream
/// plus the distinct co-clustered pair count.
type ClusterOutcome = (Vec<(u32, u32, u64)>, u64);

struct PinnedKernelJaccard<'a> {
    store: &'a ShfStore,
    kernel: &'static SimKernel,
}

impl Similarity for PinnedKernelJaccard<'_> {
    fn n_users(&self) -> usize {
        self.store.len()
    }

    fn similarity(&self, u: u32, v: u32) -> f64 {
        let inter = (self.kernel.and_count)(
            self.store.fingerprint_words(u),
            self.store.fingerprint_words(v),
        );
        jaccard_from_counts(inter, self.store.cardinality(u), self.store.cardinality(v))
    }

    fn bytes_per_eval(&self, _u: u32, _v: u32) -> u64 {
        (self.store.words_per_fingerprint() * 2 * 8) as u64
    }

    // Same bound as the production provider: cardinalities alone.
    fn similarity_upper_bound(&self, u: u32, v: u32) -> Option<f64> {
        let (a, b) = (self.store.cardinality(u), self.store.cardinality(v));
        let (mn, mx) = (a.min(b), a.max(b));
        Some(if mx == 0 { 0.0 } else { mn as f64 / mx as f64 })
    }

    fn similarity_batch(&self, u: u32, vs: &[u32], out: &mut [f64]) {
        let mut counts = vec![0u32; vs.len()];
        (self.kernel.and_counts_gather)(
            self.store.fingerprint_words(u),
            self.store.arena_words(),
            self.store.row_words(),
            vs,
            &mut counts,
        );
        let cu = self.store.cardinality(u);
        for ((&v, &c), o) in vs.iter().zip(&counts).zip(out.iter_mut()) {
            *o = jaccard_from_counts(c, cu, self.store.cardinality(v));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The clustered build's pinned invariant: for a fixed seed the graph
    /// *and* the distinct co-clustered pair count are bit-identical across
    /// worker counts, kernel variants, and the prune flag (pruning only
    /// skips evaluations that could never enter the top-k, moving them
    /// from `similarity_evals` to `pruned_evals`).
    #[test]
    fn cluster_is_bit_identical_across_threads_kernels_and_prune(
        lists in population(),
        k in 1usize..8,
    ) {
        let n = lists.len();
        let profiles = ProfileStore::from_item_lists(lists);
        let store = ShfParams::new(128, DynHasher::new(HasherKind::Jenkins, 7))
            .fingerprint_store(&profiles);
        let mut reference: Option<ClusterOutcome> = None;
        for kernel in kernels::available() {
            let sim = PinnedKernelJaccard { store: &store, kernel };
            for threads in [1usize, 4] {
                for prune in [false, true] {
                    let r = Cluster { seed: 9, threads, prune, ..Cluster::default() }
                        .build(&profiles, &sim, k);
                    assert_graph_invariants(&r.graph, n, k);
                    let edges: Vec<(u32, u32, u64)> = r
                        .graph
                        .edges()
                        .map(|(u, v, s)| (u, v, s.to_bits()))
                        .collect();
                    let pairs = r.stats.similarity_evals + r.stats.pruned_evals;
                    match &reference {
                        None => reference = Some((edges, pairs)),
                        Some((e0, p0)) => {
                            prop_assert_eq!(
                                &edges, e0,
                                "kernel={} threads={} prune={}",
                                kernel.name, threads, prune
                            );
                            prop_assert_eq!(pairs, *p0);
                        }
                    }
                }
            }
        }
    }
}

/// The reference [`NeighborList`]: no cached state, every query answered
/// by a linear scan of the entries.
struct NaiveList {
    k: usize,
    entries: Vec<NeighborEntry>,
}

impl NaiveList {
    fn worst_index(&self) -> usize {
        let mut worst = 0;
        for (i, e) in self.entries.iter().enumerate().skip(1) {
            let w = &self.entries[worst];
            if e.sim < w.sim || (e.sim == w.sim && e.user > w.user) {
                worst = i;
            }
        }
        worst
    }

    fn worst_sim(&self) -> f64 {
        if self.entries.len() < self.k {
            f64::NEG_INFINITY
        } else {
            self.entries[self.worst_index()].sim
        }
    }

    /// A full list first tests the candidate against its worst entry, so
    /// a member that cannot beat it is `Rejected`, not `Duplicate`.
    fn offer(&mut self, user: u32, sim: f64) -> Offer {
        let full = self.entries.len() == self.k;
        let worst = self.worst_index();
        if full {
            let w = self.entries[worst];
            if !(sim > w.sim || (sim == w.sim && user < w.user)) {
                return Offer::Rejected;
            }
        }
        if self.entries.iter().any(|e| e.user == user) {
            return Offer::Duplicate;
        }
        let entry = NeighborEntry {
            sim,
            user,
            is_new: true,
        };
        if full {
            let evicted = self.entries[worst].user;
            self.entries[worst] = entry;
            Offer::Replaced(evicted)
        } else {
            self.entries.push(entry);
            Offer::Added
        }
    }

    fn update_sim(&mut self, user: u32, sim: f64) -> bool {
        match self.entries.iter_mut().find(|e| e.user == user) {
            Some(e) => {
                e.sim = sim;
                true
            }
            None => false,
        }
    }

    fn remove(&mut self, user: u32) -> bool {
        match self.entries.iter().position(|e| e.user == user) {
            Some(i) => {
                self.entries.swap_remove(i);
                true
            }
            None => false,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Model check of the cached-worst list: random operation sequences
    /// over a small id range with coarse similarities (so ties and
    /// duplicates are frequent) give the same return values, the same
    /// entry order and flags, and the same worst similarity as the
    /// linear-scan reference after every step.
    #[test]
    fn neighbor_list_matches_the_linear_scan_model(
        k in 1usize..6,
        ops in proptest::collection::vec((0u8..6, 0u32..12, 0u8..5), 0..120),
    ) {
        let mut list = NeighborList::new(k);
        let mut model = NaiveList { k, entries: Vec::new() };
        for (step, &(op, user, level)) in ops.iter().enumerate() {
            let sim = level as f64 / 4.0;
            match op {
                0 | 1 => prop_assert_eq!(
                    list.insert(user, sim),
                    model.offer(user, sim).accepted(),
                    "step {}: insert", step
                ),
                2 => prop_assert_eq!(
                    list.offer(user, sim),
                    model.offer(user, sim),
                    "step {}: offer", step
                ),
                3 => prop_assert_eq!(
                    list.update_sim(user, sim),
                    model.update_sim(user, sim),
                    "step {}: update_sim", step
                ),
                4 => prop_assert_eq!(list.remove(user), model.remove(user), "step {}: remove", step),
                _ => {
                    if !model.entries.is_empty() {
                        let i = user as usize % model.entries.len();
                        list.mark_joined(i);
                        model.entries[i].is_new = false;
                    }
                }
            }
            prop_assert_eq!(list.entries(), &model.entries[..], "step {}: entries", step);
            prop_assert_eq!(list.worst_sim(), model.worst_sim(), "step {}: worst_sim", step);
        }
    }
}
