//! Exact KNN graph construction by exhaustive pairwise comparison.
//!
//! The scan is *tiled* (users are processed in cache-sized blocks so both
//! sides of a comparison stay hot), *parallel* (tile cells are dealt to
//! worker slots round-robin, each slot folding into private top-k partials
//! that are merged deterministically afterwards) and
//! *pruned* (a cheap [`Similarity::similarity_upper_bound`] skips the full
//! evaluation when the pair cannot enter either endpoint's current top-k —
//! DESIGN.md §7). Each unordered pair is considered exactly once, and the
//! output is bit-identical to the naive `O(n²)` double loop.

use crate::graph::{BuildStats, KnnGraph, KnnResult};
use goldfinger_core::parallel::{effective_threads, par_map_indexed};
use goldfinger_core::similarity::Similarity;
use goldfinger_core::topk::TopK;
use goldfinger_obs::trace;
use goldfinger_obs::{BuildObserver, IterationEvent, NoopObserver, Phase};
use std::time::{Duration, Instant};

/// Default tile edge in users: two tiles of 128 fingerprints at the paper's
/// 1024-bit width are 32 KiB — both sides of a cell fit in L1/L2.
const DEFAULT_TILE: usize = 128;

/// Brute-force builder: considers all `n(n−1)/2` unordered pairs and keeps
/// the top `k` per user. Exact (up to estimator error of the provider), and
/// the reference point of every experiment.
#[derive(Debug, Clone, Copy)]
pub struct BruteForce {
    /// Number of worker threads (0 = available parallelism). When a
    /// `goldfinger_core::pool::Pool` is installed, tile cells are dispatched
    /// to its persistent workers instead of freshly spawned threads; the
    /// graph is bit-identical either way.
    pub threads: usize,
    /// Tile edge in users (0 = default of 128).
    pub tile: usize,
    /// Skip evaluations whose [`Similarity::similarity_upper_bound`] cannot
    /// beat the current top-k thresholds. Never changes the output graph;
    /// skipped pairs are reported in [`BuildStats::pruned_evals`].
    pub prune: bool,
}

impl Default for BruteForce {
    fn default() -> Self {
        BruteForce {
            threads: 1,
            tile: 0,
            prune: true,
        }
    }
}

/// One worker's private fold state: top-k partials over every user plus the
/// evaluation counters and the batched-scoring buffers. No locks are taken
/// on the hot path.
struct ScanState {
    tops: Vec<TopK>,
    evals: u64,
    pruned: u64,
    ids: Vec<u32>,
    sims: Vec<f64>,
}

impl BruteForce {
    /// Builds the exact KNN graph for the given provider.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn build<S: Similarity + ?Sized>(&self, sim: &S, k: usize) -> KnnResult {
        self.build_observed(sim, k, &NoopObserver)
    }

    /// Builds the exact KNN graph, reporting progress to `obs`: one span for
    /// the pair scan ([`Phase::Join`]), one for the deterministic reduction
    /// ([`Phase::Merge`]), and a single [`IterationEvent`] with the final
    /// counters. Observation never changes the output; with the default
    /// [`NoopObserver`] the hooks compile to nothing.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn build_observed<S: Similarity + ?Sized, O: BuildObserver>(
        &self,
        sim: &S,
        k: usize,
        obs: &O,
    ) -> KnnResult {
        assert!(k > 0, "k must be positive");
        let n = sim.n_users();
        let start = Instant::now();
        let tile = if self.tile == 0 {
            DEFAULT_TILE
        } else {
            self.tile
        };
        // Cells (ti, tj) with ti ≤ tj tile the upper triangle of the pair
        // matrix; every unordered pair belongs to exactly one cell, so the
        // cells can be dispatched to threads independently.
        let n_tiles = n.div_ceil(tile);
        let mut cells = Vec::with_capacity(n_tiles * (n_tiles + 1) / 2);
        for ti in 0..n_tiles {
            for tj in ti..n_tiles {
                cells.push((ti, tj));
            }
        }
        let prune = self.prune;
        let scan_start = O::ENABLED.then(Instant::now);
        let scan_trace = trace::span_arg("phase", "join", cells.len() as u64);
        let scan_cell = |state: &mut ScanState, c: usize| {
            let (ti, tj) = cells[c];
            let (ue, ve) = (((ti + 1) * tile).min(n), ((tj + 1) * tile).min(n));
            for u in (ti * tile)..ue {
                // The diagonal cell covers only its own upper triangle.
                let v0 = if ti == tj { u + 1 } else { tj * tile };
                if !prune {
                    // No prune decisions to interleave, so the whole row
                    // of the cell batches through one `similarity_batch`
                    // call (the gather kernel for fingerprint
                    // providers); offers happen in the same ascending-v
                    // order as the per-pair loop.
                    if v0 >= ve {
                        continue;
                    }
                    let uu = u as u32;
                    state.ids.clear();
                    state.ids.extend(v0 as u32..ve as u32);
                    state.sims.clear();
                    state.sims.resize(state.ids.len(), 0.0);
                    sim.similarity_batch(uu, &state.ids, &mut state.sims);
                    state.evals += state.ids.len() as u64;
                    for (&vv, &s) in state.ids.iter().zip(&state.sims) {
                        state.tops[u].offer(s, vv);
                        state.tops[vv as usize].offer(s, uu);
                    }
                    continue;
                }
                for v in v0..ve {
                    let (uu, vv) = (u as u32, v as u32);
                    // Only consult the bound once both sides are full:
                    // an underfull top-k admits everything. The prune
                    // check reads both endpoints' *evolving* thresholds,
                    // so pruned scans stay per-pair — deferring offers
                    // behind a batch would change which pairs get
                    // pruned, breaking the pinned counters.
                    if let (Some(tu), Some(tv)) =
                        (state.tops[u].threshold(), state.tops[v].threshold())
                    {
                        // Strictly below both thresholds ⇒ `offer`
                        // would reject the pair on both sides even
                        // on a similarity tie (ties are admitted
                        // towards lower user ids, hence the strict
                        // comparison).
                        if sim
                            .similarity_upper_bound(uu, vv)
                            .is_some_and(|b| b < tu && b < tv)
                        {
                            state.pruned += 1;
                            continue;
                        }
                    }
                    let s = sim.similarity(uu, vv);
                    state.evals += 1;
                    state.tops[u].offer(s, vv);
                    state.tops[v].offer(s, uu);
                }
            }
        };
        // Cells are dealt to slots round-robin: a static assignment, so each
        // slot's top-k thresholds — and with them its prune decisions and
        // the eval/pruned split — depend on the thread count only, never on
        // which worker happened to reach a cell first.
        let slots = effective_threads(self.threads).min(cells.len()).max(1);
        let mut states = par_map_indexed(slots, slots, |slot| {
            let mut state = ScanState {
                tops: (0..n).map(|_| TopK::new(k)).collect(),
                evals: 0,
                pruned: 0,
                ids: Vec::new(),
                sims: Vec::new(),
            };
            for c in (slot..cells.len()).step_by(slots) {
                scan_cell(&mut state, c);
            }
            state
        });
        drop(scan_trace);
        if let Some(t) = scan_start {
            obs.on_span(Phase::Join, t.elapsed());
        }
        // Deterministic reduction: fold every worker's partials into the
        // first state. The kept set of a `TopK` does not depend on insertion
        // order, so the merge result is independent of how cells were
        // distributed across threads.
        let merge_start = O::ENABLED.then(Instant::now);
        let merge_trace = trace::span("phase", "merge");
        let mut merged = states.remove(0);
        for state in states {
            merged.evals += state.evals;
            merged.pruned += state.pruned;
            for (top, part) in merged.tops.iter_mut().zip(&state.tops) {
                for e in part.entries() {
                    top.offer(e.sim, e.user);
                }
            }
        }
        let neighbors: Vec<_> = merged.tops.into_iter().map(TopK::into_sorted).collect();
        drop(merge_trace);
        let wall = start.elapsed();
        if O::ENABLED {
            if let Some(t) = merge_start {
                obs.on_span(Phase::Merge, t.elapsed());
            }
            obs.on_iteration(IterationEvent {
                iteration: 1,
                similarity_evals: merged.evals,
                pruned_evals: merged.pruned,
                updates: 0,
                threshold: 0.0,
                wall,
            });
        }
        KnnResult {
            graph: KnnGraph::from_lists(k, neighbors),
            stats: BuildStats {
                similarity_evals: merged.evals,
                pruned_evals: merged.pruned,
                iterations: 1,
                wall,
                prep_wall: Duration::ZERO,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfinger_core::hash::DynHasher;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::shf::ShfParams;
    use goldfinger_core::similarity::{ExplicitCosine, ExplicitJaccard, ShfCosine, ShfJaccard};

    fn store() -> ProfileStore {
        ProfileStore::from_item_lists(vec![
            vec![1, 2, 3, 4], // 0
            vec![1, 2, 3],    // 1: J(0,1)=3/4
            vec![3, 4],       // 2: J(0,2)=2/4
            vec![100, 101],   // 3: J(0,3)=0
        ])
    }

    /// Profiles with wildly skewed sizes: plenty of pairs where the size
    /// ratio bound actually prunes.
    fn skewed_store(n: usize) -> ProfileStore {
        let mut x = 0x243F6A8885A308D3u64;
        let lists = (0..n)
            .map(|u| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let len = 1 + (x % 64) as usize;
                (0..len)
                    .map(|i| ((u * 7 + i * 13) % 97) as u32)
                    .collect::<std::collections::BTreeSet<_>>()
                    .into_iter()
                    .collect()
            })
            .collect();
        ProfileStore::from_item_lists(lists)
    }

    #[test]
    fn finds_the_true_neighbors() {
        let profiles = store();
        let sim = ExplicitJaccard::new(&profiles);
        let result = BruteForce::default().build(&sim, 2);
        let n0: Vec<u32> = result.graph.neighbors(0).iter().map(|s| s.user).collect();
        assert_eq!(n0, vec![1, 2]);
        assert!((result.graph.neighbors(0)[0].sim - 0.75).abs() < 1e-12);
    }

    #[test]
    fn k_larger_than_population_returns_everyone() {
        let profiles = store();
        let sim = ExplicitJaccard::new(&profiles);
        let result = BruteForce::default().build(&sim, 10);
        assert_eq!(result.graph.neighbors(0).len(), 3);
    }

    #[test]
    fn eval_count_is_exact() {
        let profiles = store();
        let sim = ExplicitJaccard::new(&profiles);
        // Unpruned: every unordered pair is evaluated exactly once.
        let full = BruteForce {
            prune: false,
            ..BruteForce::default()
        }
        .build(&sim, 2);
        assert_eq!(full.stats.similarity_evals, 4 * 3 / 2);
        assert_eq!(full.stats.pruned_evals, 0);
        assert_eq!(full.stats.iterations, 1);
        // Pruned: every unordered pair is either evaluated or pruned.
        let pruned = BruteForce::default().build(&sim, 2);
        assert_eq!(
            pruned.stats.similarity_evals + pruned.stats.pruned_evals,
            4 * 3 / 2
        );
    }

    #[test]
    fn pair_accounting_is_exact_on_larger_population() {
        let profiles = skewed_store(100);
        let sim = ExplicitJaccard::new(&profiles);
        for threads in [1usize, 4] {
            for tile in [0usize, 7, 1000] {
                let r = BruteForce {
                    threads,
                    tile,
                    prune: true,
                }
                .build(&sim, 5);
                assert_eq!(
                    r.stats.similarity_evals + r.stats.pruned_evals,
                    100 * 99 / 2,
                    "threads={threads} tile={tile}"
                );
            }
        }
    }

    #[test]
    fn pruning_actually_fires_on_skewed_profiles() {
        let profiles = skewed_store(100);
        let sim = ExplicitJaccard::new(&profiles);
        let r = BruteForce::default().build(&sim, 3);
        assert!(r.stats.pruned_evals > 0, "stats: {:?}", r.stats);
    }

    #[test]
    fn pruned_counters_depend_on_thread_count_only() {
        // Many small cells over four slots: with cells handed out by
        // whichever worker comes first, each slot's thresholds — and so the
        // evaluated/pruned split — would vary from run to run.
        let profiles = skewed_store(120);
        let sim = ExplicitJaccard::new(&profiles);
        let brute = BruteForce {
            threads: 4,
            tile: 7,
            prune: true,
        };
        let first = brute.build(&sim, 3).stats;
        for _ in 0..20 {
            let again = brute.build(&sim, 3).stats;
            assert_eq!(
                (again.similarity_evals, again.pruned_evals),
                (first.similarity_evals, first.pruned_evals)
            );
        }
    }

    #[test]
    fn parallel_matches_sequential() {
        let profiles = store();
        let sim = ExplicitJaccard::new(&profiles);
        let seq = BruteForce {
            threads: 1,
            ..BruteForce::default()
        }
        .build(&sim, 2);
        let par = BruteForce {
            threads: 4,
            ..BruteForce::default()
        }
        .build(&sim, 2);
        for u in 0..4u32 {
            assert_eq!(seq.graph.neighbors(u), par.graph.neighbors(u));
        }
    }

    /// The acceptance bar of the pruned engine: graph-for-graph identical to
    /// the unpruned scan on all four providers, across thread and tile
    /// shapes.
    #[test]
    fn pruned_graph_identical_on_all_providers() {
        let profiles = skewed_store(80);
        let shf = ShfParams::new(256, DynHasher::default()).fingerprint_store(&profiles);
        let providers: Vec<Box<dyn Similarity + '_>> = vec![
            Box::new(ExplicitJaccard::new(&profiles)),
            Box::new(ExplicitCosine::new(&profiles)),
            Box::new(ShfJaccard::new(&shf)),
            Box::new(ShfCosine::new(&shf)),
        ];
        for (p, sim) in providers.iter().enumerate() {
            let baseline = BruteForce {
                threads: 1,
                tile: 0,
                prune: false,
            }
            .build(sim.as_ref(), 4);
            for threads in [1usize, 4] {
                for tile in [0usize, 13] {
                    let pruned = BruteForce {
                        threads,
                        tile,
                        prune: true,
                    }
                    .build(sim.as_ref(), 4);
                    for u in 0..80u32 {
                        assert_eq!(
                            baseline.graph.neighbors(u),
                            pruned.graph.neighbors(u),
                            "provider={p} threads={threads} tile={tile} u={u}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "k must be positive")]
    fn zero_k_panics() {
        let profiles = store();
        let sim = ExplicitJaccard::new(&profiles);
        let _ = BruteForce::default().build(&sim, 0);
    }
}
