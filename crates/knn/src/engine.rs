//! The shared iterative-refinement engine behind NNDescent and Hyrec.
//!
//! Both algorithms follow the same skeleton — seed a random graph, then
//! repeat *generate candidates → join candidate pairs → test convergence*
//! until fewer than `δ·k·n` neighbour-list updates happen in an iteration —
//! and previously each carried its own copy of that scaffolding, twice
//! (serial and parallel). [`RefineEngine`] owns the skeleton exactly once:
//! parameter asserts, the seeded [`random_lists`] init and its iteration-0
//! event, per-iteration [`IterationEvent`]s with the `δ·k·n` threshold,
//! phase spans, the `NeighborList → KnnGraph` finalize and the
//! [`BuildStats`] assembly. What varies per algorithm is expressed as a
//! [`JoinStrategy`]: how candidates are planned from the current lists, and
//! which pairs are joined for a given user.
//!
//! Determinism contract: with `threads <= 1` the engine performs the same
//! RNG draws and the same joins in the same order as the hand-rolled loops
//! it replaced, so fixed-seed builds are bit-identical (pinned by
//! `tests/golden_seed.rs`). With `threads > 1` candidate planning stays
//! sequential and seeded; only the join phase runs across threads with
//! per-node locks, so update interleaving — and thus tie outcomes — is
//! scheduler-dependent, as before.

use crate::graph::{BuildStats, KnnGraph, KnnResult};
use crate::neighborlist::{random_lists, NeighborList};
use goldfinger_core::parallel::par_for_each_range;
use goldfinger_core::similarity::Similarity;
use goldfinger_obs::trace;
use goldfinger_obs::{BuildObserver, IterationEvent, Phase};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Consumes candidate pairs during the join phase: evaluates the pair once
/// and offers the similarity to both endpoints' lists, counting evaluations
/// and list updates.
pub trait Joiner {
    /// Evaluates `similarity(a, b)` once and offers it to both `a`'s and
    /// `b`'s neighbour lists.
    fn join(&mut self, a: u32, b: u32);

    /// Joins `a` against every candidate in `bs`, in order.
    ///
    /// Semantically identical to `for &b in bs { self.join(a, b) }` — same
    /// pairs, same order, same values, same counters — which is also the
    /// default implementation. The engine joiners override it to score the
    /// whole candidate list through [`Similarity::similarity_batch`] (the
    /// gather kernels for fingerprint providers) before applying the list
    /// inserts in the original order.
    fn join_batch(&mut self, a: u32, bs: &[u32]) {
        for &b in bs {
            self.join(a, b);
        }
    }
}

/// The serial joiner: exclusive access to the lists, plain counters, and a
/// reusable similarity buffer for batched joins.
pub struct SerialJoiner<'a, S: ?Sized> {
    lists: &'a mut [NeighborList],
    sim: &'a S,
    evals: &'a mut u64,
    updates: &'a mut u64,
    batch: Vec<f64>,
}

impl<S: Similarity + ?Sized> Joiner for SerialJoiner<'_, S> {
    fn join(&mut self, a: u32, b: u32) {
        *self.evals += 1;
        let s = self.sim.similarity(a, b);
        if self.lists[a as usize].insert(b, s) {
            *self.updates += 1;
        }
        if self.lists[b as usize].insert(a, s) {
            *self.updates += 1;
        }
    }

    fn join_batch(&mut self, a: u32, bs: &[u32]) {
        if bs.len() < 2 {
            // Nothing to amortise; skip the buffer bookkeeping.
            for &b in bs {
                self.join(a, b);
            }
            return;
        }
        self.batch.clear();
        self.batch.resize(bs.len(), 0.0);
        self.sim.similarity_batch(a, bs, &mut self.batch);
        *self.evals += bs.len() as u64;
        for (&b, &s) in bs.iter().zip(&self.batch) {
            if self.lists[a as usize].insert(b, s) {
                *self.updates += 1;
            }
            if self.lists[b as usize].insert(a, s) {
                *self.updates += 1;
            }
        }
    }
}

/// The parallel joiner: per-node locks (one held at a time — no nesting, no
/// deadlock), atomic counters, and a per-worker similarity buffer.
pub struct ParJoiner<'a, S: ?Sized> {
    locks: &'a [Mutex<NeighborList>],
    sim: &'a S,
    evals: &'a AtomicU64,
    updates: &'a AtomicU64,
    batch: Vec<f64>,
}

impl<S: Similarity + ?Sized> Joiner for ParJoiner<'_, S> {
    fn join(&mut self, a: u32, b: u32) {
        self.evals.fetch_add(1, Ordering::Relaxed);
        let s = self.sim.similarity(a, b);
        let mut changed = 0u64;
        if self.locks[a as usize].lock().unwrap().insert(b, s) {
            changed += 1;
        }
        if self.locks[b as usize].lock().unwrap().insert(a, s) {
            changed += 1;
        }
        if changed > 0 {
            self.updates.fetch_add(changed, Ordering::Relaxed);
        }
    }

    fn join_batch(&mut self, a: u32, bs: &[u32]) {
        if bs.len() < 2 {
            for &b in bs {
                self.join(a, b);
            }
            return;
        }
        self.batch.clear();
        self.batch.resize(bs.len(), 0.0);
        self.sim.similarity_batch(a, bs, &mut self.batch);
        self.evals.fetch_add(bs.len() as u64, Ordering::Relaxed);
        let mut changed = 0u64;
        for (&b, &s) in bs.iter().zip(&self.batch) {
            if self.locks[a as usize].lock().unwrap().insert(b, s) {
                changed += 1;
            }
            if self.locks[b as usize].lock().unwrap().insert(a, s) {
                changed += 1;
            }
        }
        if changed > 0 {
            self.updates.fetch_add(changed, Ordering::Relaxed);
        }
    }
}

/// Uniform access to the neighbour lists during candidate planning, hiding
/// whether the engine runs serial (plain slice) or parallel (per-node
/// locks). Planning is always sequential, so locking per access is cheap.
pub enum ListsView<'a> {
    /// Serial engine: exclusive slice.
    Serial(&'a mut [NeighborList]),
    /// Parallel engine: the lists behind their per-node locks.
    Shared(&'a [Mutex<NeighborList>]),
}

impl ListsView<'_> {
    /// Number of users.
    pub fn len(&self) -> usize {
        match self {
            ListsView::Serial(lists) => lists.len(),
            ListsView::Shared(locks) => locks.len(),
        }
    }

    /// True for an empty population.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Runs `f` with mutable access to user `u`'s list.
    pub fn with<R>(&mut self, u: usize, f: impl FnOnce(&mut NeighborList) -> R) -> R {
        match self {
            ListsView::Serial(lists) => f(&mut lists[u]),
            ListsView::Shared(locks) => f(&mut locks[u].lock().unwrap()),
        }
    }
}

/// Per-user id rows in one flat buffer (CSR layout): row `u` is
/// `ids[offsets[u]..offsets[u + 1]]`. Join plans rebuild their rows every
/// iteration into the same two allocations instead of allocating a vector
/// per user.
#[derive(Debug, Default)]
pub struct FlatRows {
    offsets: Vec<usize>,
    ids: Vec<u32>,
}

impl FlatRows {
    /// Drops every row, keeping the allocations.
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.ids.clear();
    }

    /// Number of closed rows.
    pub fn len(&self) -> usize {
        self.offsets.len().saturating_sub(1)
    }

    /// True when no row is closed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Row `u`.
    pub fn row(&self, u: usize) -> &[u32] {
        &self.ids[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Row `u`, mutable (for in-place shuffles).
    pub fn row_mut(&mut self, u: usize) -> &mut [u32] {
        &mut self.ids[self.offsets[u]..self.offsets[u + 1]]
    }

    /// Appends ids to the open row.
    pub fn extend_from_slice(&mut self, ids: &[u32]) {
        self.ids.extend_from_slice(ids);
    }

    /// Appends one id to the open row.
    pub fn push(&mut self, id: u32) {
        self.ids.push(id);
    }

    /// Closes the open row.
    pub fn end_row(&mut self) {
        self.offsets.push(self.ids.len());
    }

    /// Sorts and deduplicates the open row, then closes it.
    pub fn end_row_sorted(&mut self) {
        let start = *self.offsets.last().expect("cleared before use");
        self.ids[start..].sort_unstable();
        let mut kept = start;
        for i in start..self.ids.len() {
            if kept == start || self.ids[i] != self.ids[kept - 1] {
                self.ids[kept] = self.ids[i];
                kept += 1;
            }
        }
        self.ids.truncate(kept);
        self.end_row();
    }

    /// Rebuilds `self` as the reverse of `fwd`, whose rows come in groups
    /// of `stride` per user (row `u * stride + c` is user `u`'s row of kind
    /// `c`): row `v * stride + c` lists every `u` whose kind-`c` row holds
    /// `v`, in ascending `u` order (the order per-user pushes would
    /// produce).
    pub fn reverse_of(&mut self, fwd: &FlatRows, stride: usize) {
        let rows = fwd.len();
        let target = |r: usize, v: u32| v as usize * stride + r % stride;
        // Count into offsets[t + 1], turn the counts into row starts, then
        // fill while advancing offsets[t + 1] to the row's end — which is
        // the next row's start.
        self.offsets.clear();
        self.offsets.resize(rows + 1, 0);
        for r in 0..rows {
            for &v in fwd.row(r) {
                self.offsets[target(r, v) + 1] += 1;
            }
        }
        let mut start = 0;
        for slot in &mut self.offsets[1..] {
            let count = *slot;
            *slot = start;
            start += count;
        }
        self.ids.clear();
        self.ids.resize(fwd.ids.len(), 0);
        for r in 0..rows {
            for &v in fwd.row(r) {
                let slot = &mut self.offsets[target(r, v) + 1];
                self.ids[*slot] = (r / stride) as u32;
                *slot += 1;
            }
        }
    }
}

/// An algorithm's contribution to one refinement iteration: plan candidates
/// from the current graph, then join pairs per user. Implemented by
/// [`NNDescent`](crate::nndescent::NNDescent) and
/// [`Hyrec`](crate::hyrec::Hyrec); the engine supplies everything else.
pub trait JoinStrategy: Sync {
    /// Per-iteration candidate plan, computed sequentially and then read by
    /// every join worker. One plan lives for the whole build and is rebuilt
    /// in place each iteration, so its buffers are allocated once.
    type Plan: Sync + Default;
    /// Per-worker mutable scratch (e.g. a visited stamp); created once per
    /// build for the serial engine and per worker for the parallel one.
    type Scratch;

    /// Validates strategy-specific parameters; panics on invalid ones.
    fn validate(&self) {}

    /// Rebuilds `plan` with this iteration's candidates from the current
    /// lists. May mutate the lists (NNDescent clears `is_new` flags) and
    /// draw from `rng` — this is the only place refinement consumes
    /// randomness, which is what keeps parallel planning identical to
    /// serial.
    fn candidates(
        &self,
        k: usize,
        lists: &mut ListsView<'_>,
        rng: &mut StdRng,
        plan: &mut Self::Plan,
    );

    /// Creates the scratch for a worker over a population of `n` users.
    fn scratch(&self, n: usize) -> Self::Scratch;

    /// Feeds user `u`'s candidate pairs to the joiner.
    fn join_user<J: Joiner>(
        &self,
        plan: &Self::Plan,
        u: usize,
        scratch: &mut Self::Scratch,
        joiner: &mut J,
    );
}

/// The refinement-loop scaffolding shared by greedy KNN builders.
///
/// Owns everything around the per-algorithm [`JoinStrategy`]: the seeded
/// random-graph init, the iterate/converge/finalize loop, observer events
/// and spans, and the final [`BuildStats`].
#[derive(Debug, Clone, Copy)]
pub struct RefineEngine {
    /// Termination threshold: stop when an iteration performs fewer than
    /// `delta · k · n` list updates.
    pub delta: f64,
    /// Hard cap on refinement iterations.
    pub max_iterations: u32,
    /// RNG seed for the initial random graph and candidate sampling.
    pub seed: u64,
    /// Worker threads for the join phase (1 = sequential, deterministic).
    pub threads: usize,
}

impl RefineEngine {
    /// Runs the full refinement: init, iterate until convergence or the
    /// iteration cap, finalize.
    ///
    /// # Panics
    /// Panics if `k == 0`, `delta` is negative, or
    /// [`JoinStrategy::validate`] rejects the strategy's parameters.
    pub fn run<S, St, O>(&self, sim: &S, k: usize, strategy: &St, obs: &O) -> KnnResult
    where
        S: Similarity + ?Sized,
        St: JoinStrategy,
        O: BuildObserver,
    {
        assert!(k > 0, "k must be positive");
        assert!(self.delta >= 0.0, "delta must be non-negative");
        strategy.validate();
        if self.threads > 1 {
            self.run_parallel(sim, k, strategy, obs)
        } else {
            self.run_serial(sim, k, strategy, obs)
        }
    }

    fn run_serial<S, St, O>(&self, sim: &S, k: usize, strategy: &St, obs: &O) -> KnnResult
    where
        S: Similarity + ?Sized,
        St: JoinStrategy,
        O: BuildObserver,
    {
        let n = sim.n_users();
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut evals = 0u64;
        let mut lists = random_lists(sim, k, &mut rng, &mut evals);
        if O::ENABLED {
            obs.on_iteration(IterationEvent {
                iteration: 0,
                similarity_evals: evals,
                pruned_evals: 0,
                updates: 0,
                threshold: 0.0,
                wall: start.elapsed(),
            });
        }
        let threshold = self.delta * k as f64 * n as f64;
        let mut scratch = strategy.scratch(n);
        let mut plan = St::Plan::default();
        let mut iterations = 0u32;

        while iterations < self.max_iterations {
            iterations += 1;
            let _iter = trace::span_arg("engine", "iteration", iterations as u64);
            let iter_start = O::ENABLED.then(Instant::now);
            let evals_before = evals;

            {
                let _t = trace::span("phase", "candidate_generation");
                strategy.candidates(k, &mut ListsView::Serial(&mut lists), &mut rng, &mut plan);
            }
            if let Some(t) = iter_start {
                obs.on_span(Phase::CandidateGeneration, t.elapsed());
            }

            let join_start = O::ENABLED.then(Instant::now);
            let mut updates = 0u64;
            {
                let _t = trace::span("phase", "join");
                let mut joiner = SerialJoiner {
                    lists: &mut lists,
                    sim,
                    evals: &mut evals,
                    updates: &mut updates,
                    batch: Vec::new(),
                };
                for u in 0..n {
                    strategy.join_user(&plan, u, &mut scratch, &mut joiner);
                }
            }

            if O::ENABLED {
                if let Some(t) = join_start {
                    obs.on_span(Phase::Join, t.elapsed());
                }
                obs.on_iteration(IterationEvent {
                    iteration: iterations,
                    similarity_evals: evals - evals_before,
                    pruned_evals: 0,
                    updates,
                    threshold,
                    wall: iter_start.map_or(Duration::ZERO, |t| t.elapsed()),
                });
            }
            if (updates as f64) < threshold {
                break;
            }
        }

        // The merge reuses the plan's memory instead of adding to it.
        drop(plan);
        let merge_start = O::ENABLED.then(Instant::now);
        let merge_trace = trace::span("phase", "merge");
        let neighbors = lists.iter().map(NeighborList::to_sorted).collect();
        drop(merge_trace);
        if let Some(t) = merge_start {
            obs.on_span(Phase::Merge, t.elapsed());
        }
        KnnResult {
            graph: KnnGraph::from_lists(k, neighbors),
            stats: BuildStats {
                similarity_evals: evals,
                pruned_evals: 0,
                iterations,
                wall: start.elapsed(),
                prep_wall: Duration::ZERO,
            },
        }
    }

    fn run_parallel<S, St, O>(&self, sim: &S, k: usize, strategy: &St, obs: &O) -> KnnResult
    where
        S: Similarity + ?Sized,
        St: JoinStrategy,
        O: BuildObserver,
    {
        let n = sim.n_users();
        let start = Instant::now();
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut init_evals = 0u64;
        let lists = random_lists(sim, k, &mut rng, &mut init_evals);
        let locks: Vec<Mutex<NeighborList>> = lists.into_iter().map(Mutex::new).collect();
        let evals = AtomicU64::new(init_evals);
        if O::ENABLED {
            obs.on_iteration(IterationEvent {
                iteration: 0,
                similarity_evals: init_evals,
                pruned_evals: 0,
                updates: 0,
                threshold: 0.0,
                wall: start.elapsed(),
            });
        }
        let threshold = self.delta * k as f64 * n as f64;
        let mut plan = St::Plan::default();
        let mut iterations = 0u32;

        while iterations < self.max_iterations {
            iterations += 1;
            let _iter = trace::span_arg("engine", "iteration", iterations as u64);
            let iter_start = O::ENABLED.then(Instant::now);
            let evals_before = evals.load(Ordering::Relaxed);

            // Planning stays sequential and seeded; only the joins fan out.
            {
                let _t = trace::span("phase", "candidate_generation");
                strategy.candidates(k, &mut ListsView::Shared(&locks), &mut rng, &mut plan);
            }
            if let Some(t) = iter_start {
                obs.on_span(Phase::CandidateGeneration, t.elapsed());
            }

            let join_start = O::ENABLED.then(Instant::now);
            let join_trace = trace::span("phase", "join");
            let updates = AtomicU64::new(0);
            par_for_each_range(n, self.threads, |_, lo, hi| {
                let mut scratch = strategy.scratch(n);
                let mut joiner = ParJoiner {
                    locks: &locks,
                    sim,
                    evals: &evals,
                    updates: &updates,
                    batch: Vec::new(),
                };
                for u in lo..hi {
                    strategy.join_user(&plan, u, &mut scratch, &mut joiner);
                }
            });
            drop(join_trace);

            if O::ENABLED {
                if let Some(t) = join_start {
                    obs.on_span(Phase::Join, t.elapsed());
                }
                obs.on_iteration(IterationEvent {
                    iteration: iterations,
                    similarity_evals: evals.load(Ordering::Relaxed) - evals_before,
                    pruned_evals: 0,
                    updates: updates.load(Ordering::Relaxed),
                    threshold,
                    wall: iter_start.map_or(Duration::ZERO, |t| t.elapsed()),
                });
            }
            if (updates.load(Ordering::Relaxed) as f64) < threshold {
                break;
            }
        }

        // The merge reuses the plan's memory instead of adding to it.
        drop(plan);
        let merge_start = O::ENABLED.then(Instant::now);
        let merge_trace = trace::span("phase", "merge");
        let neighbors = locks
            .iter()
            .map(|l| l.lock().unwrap().to_sorted())
            .collect();
        drop(merge_trace);
        if let Some(t) = merge_start {
            obs.on_span(Phase::Merge, t.elapsed());
        }
        KnnResult {
            graph: KnnGraph::from_lists(k, neighbors),
            stats: BuildStats {
                similarity_evals: evals.load(Ordering::Relaxed),
                pruned_evals: 0,
                iterations,
                wall: start.elapsed(),
                prep_wall: Duration::ZERO,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows(flat: &FlatRows) -> Vec<Vec<u32>> {
        (0..flat.len()).map(|r| flat.row(r).to_vec()).collect()
    }

    #[test]
    fn flat_rows_close_sorted_rows_and_reverse_by_kind() {
        // Two kinds of row per user over three users, as NNDescent's
        // new/old sets lay them out.
        let mut fwd = FlatRows::default();
        fwd.clear();
        for row in [[2u32, 1].as_slice(), &[0], &[], &[2], &[1, 0], &[1]] {
            fwd.extend_from_slice(row);
            fwd.end_row();
        }
        let mut rev = FlatRows::default();
        rev.reverse_of(&fwd, 2);
        assert_eq!(
            rows(&rev),
            vec![vec![2], vec![0], vec![0, 2], vec![2], vec![0], vec![1]],
            "row 2v + c lists the owners of v's kind-c rows, ascending"
        );

        let mut sets = FlatRows::default();
        sets.clear();
        sets.extend_from_slice(&[3, 1, 3, 2, 1]);
        sets.end_row_sorted();
        sets.push(7);
        sets.end_row_sorted();
        sets.end_row_sorted();
        assert_eq!(rows(&sets), vec![vec![1, 2, 3], vec![7], vec![]]);
    }
}
