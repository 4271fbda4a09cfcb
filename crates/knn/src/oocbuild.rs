//! Sharded out-of-core KNN construction: LSH routing, spill-to-disk
//! state, bounded peak RSS.
//!
//! The in-RAM builders assume three things fit in memory at once: the
//! fingerprint arena, the LSH bucket tables, and the finished graph. This
//! module drops all three assumptions while keeping the *output* pinned:
//! with spilling disabled and one shard, [`build`] is **bit-identical**
//! to [`Lsh::build`](crate::lsh::Lsh::build) over the GoldFinger
//! provider, and every knob that changes that (bucket caps, compact
//! segments) is off by default.
//!
//! Pipeline, in four phases:
//!
//! 1. **Fingerprint** — stream profiles once from a
//!    [`ProfileSource`], OR-ing fingerprints into an [`ShfStore`] whose
//!    arena lives on the spill backend, and recording each user's
//!    per-table MinHash key ([`crate::lsh::bucket_key`]) in a spilled
//!    key arena. Peak memory: one profile + one ingest batch.
//! 2. **Index** — per table, stable-sort the `(key, user)` pairs and
//!    keep the sorted users in one spilled array; a bucket is a run of
//!    equal keys. Each user's key word is then overwritten with its run's
//!    packed `[start, end)`, so the scan resolves a bucket with one
//!    load. Users enter in ascending id order and the sort is stable, so
//!    in-bucket order matches the `HashMap<_, Vec<u32>>` insertion order
//!    of the in-RAM LSH — the determinism contract.
//! 3. **Scan** — users are partitioned into contiguous shards; each
//!    shard scans its users' buckets across all tables (visit-stamp
//!    deduplicated, exactly the LSH candidate sequence), prefetching each
//!    new candidate's fingerprint row as it is collected, scores the
//!    candidates through the batched gather kernels, and streams its
//!    top-k lists into an on-disk `GFCS` segment
//!    ([`crate::csr::SegmentWriter`]). After a shard, the arena and
//!    index pages it touched are advised cold, bounding resident growth
//!    to roughly one shard's working set.
//! 4. **Stitch** — segments are replayed in shard order into a
//!    [`CsrBuilder`] ([`build`]) or streamed straight into a `GFG1`
//!    graph file ([`build_to_disk`]), which never materializes the full
//!    edge set in RAM.

use crate::csr::{read_segment, SegmentWriter};
use crate::graph::{CsrBuilder, KnnGraph};
use crate::lsh::{bucket_key, table_seed};
use crate::serial;
use goldfinger_core::arena::ArenaBackend;
use goldfinger_core::hash::ItemHasher;
use goldfinger_core::profile::ProfileSource;
use goldfinger_core::shf::{ShfParams, ShfStore, ShfStreamWriter};
use goldfinger_core::topk::TopK;
use goldfinger_core::visit::VisitStamp;
use goldfinger_obs::trace;
use std::fs::File;
use std::io::{self, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Ingest batch size of the fingerprint phase, in (user, item)
/// associations: large enough to amortize the parallel hash dispatch,
/// small enough to stay cache-resident.
const INGEST_BATCH: usize = 1 << 16;

/// Configuration of an out-of-core build.
#[derive(Debug, Clone)]
pub struct OocConfig {
    /// Neighbourhood size.
    pub k: usize,
    /// Number of LSH tables (MinHash permutations).
    pub tables: usize,
    /// LSH permutation seed (same derivation as [`crate::lsh::Lsh`]).
    pub seed: u64,
    /// Shard count; `0` derives it from `mem_budget` (see
    /// [`OocConfig::effective_shards`]).
    pub shards: usize,
    /// Target peak RSS in bytes (`0` = unbounded). Drives shard
    /// auto-derivation; the CI gate checks the measured peak against it.
    pub mem_budget: u64,
    /// Directory for spilled state (arena, bucket index, graph segments).
    pub spill_dir: PathBuf,
    /// Spill the fingerprint arena and bucket-index arrays to mapped files
    /// (Linux only). With `false` they stay on the heap — the pipeline
    /// still shards and still writes graph segments to disk.
    pub spill: bool,
    /// Skip buckets larger than this many users during the scan
    /// (`0` = no cap). A cap bounds worst-case scan cost on
    /// popularity-skewed data but departs from plain LSH output.
    pub max_bucket: usize,
    /// Store segment similarities as `f32` instead of exact `f64` —
    /// halves segment bytes, breaks bit-identity with the in-RAM build.
    pub compact_segments: bool,
}

impl OocConfig {
    /// A config with the in-RAM-equivalent defaults: no bucket cap,
    /// exact segments, spilling on, shards derived from the budget.
    pub fn new(k: usize, tables: usize, seed: u64, spill_dir: impl Into<PathBuf>) -> Self {
        OocConfig {
            k,
            tables,
            seed,
            shards: 0,
            mem_budget: 0,
            spill_dir: spill_dir.into(),
            spill: true,
            max_bucket: 0,
            compact_segments: false,
        }
    }

    /// The shard count the build will actually run with: the configured
    /// one, or — when `shards == 0` — derived so one shard's share of the
    /// spilled state (arena + key index) is about a quarter of
    /// `mem_budget`, leaving the rest for the stamp array, the scan
    /// buffers, and the segment writer. Unbounded budget ⇒ one shard.
    pub fn effective_shards(&self, n_users: usize, arena_bytes: u64) -> usize {
        if self.shards > 0 {
            return self.shards.min(n_users.max(1));
        }
        if self.mem_budget == 0 {
            return 1;
        }
        let key_bytes = (self.tables as u64) * (n_users as u64) * 8 * 3; // keys + sorted pairs
        let data = arena_bytes + key_bytes;
        let shards = (4 * data).div_ceil(self.mem_budget).max(1);
        (shards as usize).min(n_users.max(1))
    }
}

/// Counters and timings of one out-of-core build.
#[derive(Debug, Clone, Default)]
pub struct OocStats {
    /// Population size.
    pub n_users: usize,
    /// Shards the scan ran with.
    pub shards: usize,
    /// Similarity evaluations across all shards (same counting rule as
    /// the in-RAM LSH: one per deduplicated candidate).
    pub similarity_evals: u64,
    /// (user, item) associations streamed during fingerprinting.
    pub associations: u64,
    /// Fingerprint-arena size in bytes (padded rows).
    pub arena_bytes: u64,
    /// Bytes written to spill files (arena + bucket index + segments).
    pub spilled_bytes: u64,
    /// Arena backend actually used (`"heap"` / `"mmap"`).
    pub backend: &'static str,
    /// Wall time of the fingerprint+key streaming phase.
    pub fingerprint_wall: Duration,
    /// Wall time of the bucket-index sort phase.
    pub index_wall: Duration,
    /// Wall time of the candidate scan across all shards.
    pub scan_wall: Duration,
    /// Wall time of segment stitching.
    pub stitch_wall: Duration,
    /// Per-shard scan wall times (length `shards`).
    pub shard_walls: Vec<Duration>,
    /// End-to-end wall time.
    pub wall: Duration,
}

/// The spilled state shared by the scan phase.
struct OocState {
    store: ShfStore,
    /// Per-table bucket runs, `ranges[t * n + u]`: user `u`'s bucket in
    /// table `t` as a [`pack_range`]d `[start, end)` into `index_users[t]`
    /// (empty for empty profiles, which hash nowhere). During the
    /// fingerprint phase the same words hold the raw MinHash keys; the
    /// index phase overwrites each with its run once the table is sorted.
    ranges: ArenaBackend,
    /// Per-table bucket members: users sorted by bucket key (stable ⇒
    /// ascending ids inside a bucket).
    index_users: Vec<ArenaBackend>,
}

impl OocState {
    /// Evicts every resident spill page (no-op on heap backends).
    fn advise_all_cold(&self) -> io::Result<()> {
        self.store.advise_cold_rows(0, self.store.len())?;
        self.ranges.advise_cold(0, self.ranges.len())?;
        for u in &self.index_users {
            u.advise_cold(0, u.len())?;
        }
        Ok(())
    }

    fn spilled_bytes(&self) -> u64 {
        let words = self.store.arena_words().len()
            + self.ranges.len()
            + self.index_users.iter().map(|a| a.len()).sum::<usize>();
        if self.store.is_spilled() {
            words as u64 * 8
        } else {
            0
        }
    }

    /// User `u`'s bucket run in table `t`: the members, in index order.
    #[inline]
    fn bucket(&self, t: usize, u: u32) -> &[u64] {
        let (start, end) = unpack_range(self.ranges[t * self.store.len() + u as usize]);
        &self.index_users[t][start..end]
    }
}

/// Packs a bucket run `[start, end)` into one word (`start` high, `end`
/// low). Index positions are below the user count, so both fit in `u32`.
#[inline]
fn pack_range(start: usize, end: usize) -> u64 {
    ((start as u64) << 32) | end as u64
}

/// Inverse of [`pack_range`].
#[inline]
fn unpack_range(w: u64) -> (usize, usize) {
    ((w >> 32) as usize, (w & u64::from(u32::MAX)) as usize)
}

/// Allocates a words arena on the configured backend.
fn make_arena(cfg: &OocConfig, name: &str, len: usize) -> io::Result<ArenaBackend> {
    if cfg.spill {
        ArenaBackend::spill(&cfg.spill_dir.join(name), len)
    } else {
        Ok(ArenaBackend::heap(len))
    }
}

/// Phase 1+2: stream profiles into a (possibly spilled) fingerprint store
/// and per-table key arena, then sort the per-table bucket indexes.
fn prepare<P: ProfileSource + ?Sized, H: ItemHasher + Sync>(
    source: &P,
    params: &ShfParams<H>,
    cfg: &OocConfig,
    stats: &mut OocStats,
) -> io::Result<OocState> {
    let n = source.n_users();
    // User ids are `u32`, and every bucket-run end (at most `n`) must fit
    // the 32-bit half of a packed range.
    assert!(
        u32::try_from(n).is_ok(),
        "{n} users exceed the u32 id space"
    );

    // Fingerprint + keys in one streaming pass over the profiles.
    let t0 = Instant::now();
    let _span = trace::span_arg("phase", "ooc_fingerprint", n as u64);
    std::fs::create_dir_all(&cfg.spill_dir)?;
    let mut writer = if cfg.spill {
        ShfStreamWriter::new_spilled(params.bits(), n, &cfg.spill_dir)?
    } else {
        ShfStreamWriter::new(params.bits(), n)
    };
    let mut keys = make_arena(cfg, "keys.words", cfg.tables * n)?;
    let mut items: Vec<u32> = Vec::new();
    let mut batch: Vec<(u32, u32)> = Vec::with_capacity(INGEST_BATCH);
    for u in 0..n as u32 {
        source.items_into(u, &mut items);
        stats.associations += items.len() as u64;
        for t in 0..cfg.tables {
            if let Some(key) = bucket_key(&items, table_seed(cfg.seed, t)) {
                keys[t * n + u as usize] = key;
            }
        }
        for &it in &items {
            batch.push((u, it));
            if batch.len() == INGEST_BATCH {
                writer.ingest_batch(&batch, params.hasher());
                batch.clear();
            }
        }
    }
    writer.ingest_batch(&batch, params.hasher());
    drop(batch);
    let store = writer.finish();
    drop(_span);
    stats.fingerprint_wall = t0.elapsed();

    // Sort each table's (key, user) pairs into the spilled bucket index,
    // then overwrite every user's key with its bucket's run, so the scan
    // finds a bucket with one load instead of a binary search. The
    // transient sort buffer is the memory peak of this phase — one table
    // at a time, freed before the next.
    let t1 = Instant::now();
    let _span = trace::span_arg("phase", "ooc_index", cfg.tables as u64);
    let mut index_users = Vec::with_capacity(cfg.tables);
    for t in 0..cfg.tables {
        let row = &mut keys[t * n..(t + 1) * n];
        let mut pairs: Vec<(u64, u32)> = Vec::with_capacity(n);
        for (u, slot) in row.iter_mut().enumerate() {
            if store.cardinality(u as u32) == 0 {
                *slot = pack_range(0, 0);
            } else {
                pairs.push((*slot, u as u32));
            }
        }
        // Stable by key: equal-key users stay in ascending-id order,
        // matching the insertion order of the in-RAM bucket vectors.
        pairs.sort_by_key(|&(key, _)| key);
        let mut iu = make_arena(cfg, &format!("index-users-{t}.words"), pairs.len())?;
        let mut start = 0;
        for run in pairs.chunk_by(|a, b| a.0 == b.0) {
            let range = pack_range(start, start + run.len());
            for (i, &(_, u)) in run.iter().enumerate() {
                iu[start + i] = u64::from(u);
                row[u as usize] = range;
            }
            start += run.len();
        }
        iu.sync()?;
        index_users.push(iu);
    }
    keys.sync()?;
    stats.index_wall = t1.elapsed();

    stats.n_users = n;
    stats.backend = store.backend_kind();
    Ok(OocState {
        store,
        ranges: keys,
        index_users,
    })
}

/// Phase 3: scan one shard's users and spill their top-k lists as a
/// `GFCS` segment. Returns the similarity-evaluation count.
fn scan_shard(
    state: &OocState,
    cfg: &OocConfig,
    shard: usize,
    lo: u32,
    hi: u32,
    stamp: &mut VisitStamp,
    seg_path: &Path,
) -> io::Result<u64> {
    let _span = trace::span_arg("phase", "ooc_shard", shard as u64);
    let file = BufWriter::new(File::create(seg_path)?);
    let mut seg = SegmentWriter::new(
        file,
        cfg.k,
        u64::from(lo),
        u64::from(hi - lo),
        !cfg.compact_segments,
    )?;
    let mut candidates: Vec<u32> = Vec::new();
    let mut sims: Vec<f64> = Vec::new();
    let mut evals = 0u64;
    for u in lo..hi {
        stamp.next_round();
        stamp.mark(u as usize);
        candidates.clear();
        for t in 0..cfg.tables {
            let bucket = state.bucket(t, u);
            if cfg.max_bucket != 0 && bucket.len() > cfg.max_bucket {
                continue; // capped: this bucket is too hot to scan
            }
            for &v in bucket {
                if stamp.mark(v as usize) {
                    // Every row is in flight before the batch is scored.
                    state.store.prefetch_row(v as u32);
                    candidates.push(v as u32);
                }
            }
        }
        evals += candidates.len() as u64;
        sims.clear();
        sims.resize(candidates.len(), 0.0);
        state.store.jaccard_batch(u, &candidates, &mut sims);
        let mut top = TopK::new(cfg.k);
        for (&v, &s) in candidates.iter().zip(&sims) {
            top.offer(s, v);
        }
        seg.push_list(&top.into_sorted())?;
    }
    let mut file = seg.finish()?;
    file.flush()?;
    Ok(evals)
}

/// Runs phases 1–3 and returns the state plus segment paths, in shard
/// order. Shared by [`build`] and [`build_to_disk`].
fn run_scan<P: ProfileSource + ?Sized, H: ItemHasher + Sync>(
    source: &P,
    params: &ShfParams<H>,
    cfg: &OocConfig,
) -> io::Result<(OocState, Vec<PathBuf>, OocStats)> {
    assert!(cfg.k > 0, "k must be positive");
    assert!(cfg.tables > 0, "need at least one hash table");
    let mut stats = OocStats::default();
    let state = prepare(source, params, cfg, &mut stats)?;
    let n = state.store.len();

    let arena_bytes = state.store.arena_words().len() as u64 * 8;
    stats.arena_bytes = arena_bytes;
    let shards = cfg.effective_shards(n, arena_bytes);
    stats.shards = shards;

    let t0 = Instant::now();
    let mut stamp = VisitStamp::new(n);
    let mut segments = Vec::with_capacity(shards);
    let per = n.div_ceil(shards.max(1)).max(1);
    for s in 0..shards {
        let lo = (s * per).min(n) as u32;
        let hi = ((s + 1) * per).min(n) as u32;
        let path = cfg.spill_dir.join(format!("seg-{s:05}.gfcs"));
        let t_shard = Instant::now();
        let evals = scan_shard(&state, cfg, s, lo, hi, &mut stamp, &path)?;
        stats.similarity_evals += evals;
        stats.shard_walls.push(t_shard.elapsed());
        // Drop this shard's page residency before the next one starts:
        // the whole point of the spill backend.
        state.advise_all_cold()?;
        segments.push(path);
    }
    stats.scan_wall = t0.elapsed();
    stats.spilled_bytes = state.spilled_bytes()
        + segments
            .iter()
            .map(|p| std::fs::metadata(p).map(|m| m.len()))
            .sum::<io::Result<u64>>()?;
    Ok((state, segments, stats))
}

/// Out-of-core GoldFinger LSH build, stitched into an in-memory
/// [`KnnGraph`].
///
/// With `max_bucket == 0` and `compact_segments == false` (the
/// defaults), the graph is bit-identical to
/// [`Lsh::build`](crate::lsh::Lsh::build) with the same `(tables, seed)`
/// over [`ShfJaccard`](goldfinger_core::similarity::ShfJaccard) of the
/// same fingerprint store, for any shard count and either backend.
///
/// # Panics
/// Panics if `k == 0`, `tables == 0` or the population exceeds the `u32`
/// id space.
pub fn build<P: ProfileSource + ?Sized, H: ItemHasher + Sync>(
    source: &P,
    params: &ShfParams<H>,
    cfg: &OocConfig,
) -> io::Result<(KnnGraph, OocStats)> {
    let total = Instant::now();
    let (state, segments, mut stats) = run_scan(source, params, cfg)?;
    let n = state.store.len() as u64;

    let t0 = Instant::now();
    let _span = trace::span_arg("phase", "ooc_stitch", segments.len() as u64);
    let mut builder = CsrBuilder::with_capacity(cfg.k, n as usize);
    for path in &segments {
        let mut r = BufReader::new(File::open(path)?);
        let seg = read_segment(&mut r, n)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        seg.append_into(&mut builder);
    }
    stats.stitch_wall = t0.elapsed();
    stats.wall = total.elapsed();
    Ok((builder.finish(), stats))
}

/// Out-of-core build stitched **streaming** into a `GFG1` graph file at
/// `out` — the full edge set never exists in RAM, so peak memory stays
/// bounded even when the final graph is larger than the budget.
///
/// The file is byte-identical to
/// [`write_knn_graph`](crate::serial::write_knn_graph) of the
/// [`build`]-returned graph.
///
/// # Panics
/// Panics if `k == 0`, `tables == 0` or the population exceeds the `u32`
/// id space.
pub fn build_to_disk<P: ProfileSource + ?Sized, H: ItemHasher + Sync>(
    source: &P,
    params: &ShfParams<H>,
    cfg: &OocConfig,
    out: &Path,
) -> io::Result<OocStats> {
    let total = Instant::now();
    let (state, segments, mut stats) = run_scan(source, params, cfg)?;
    let n = state.store.len() as u64;

    let t0 = Instant::now();
    let _span = trace::span_arg("phase", "ooc_stitch", segments.len() as u64);
    let mut w = BufWriter::new(File::create(out)?);
    serial::write_header(&mut w, cfg.k, n as usize)?;
    let mut buf = Vec::new();
    for path in &segments {
        let mut r = BufReader::new(File::open(path)?);
        let seg = read_segment(&mut r, n)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))?;
        for local in 0..seg.n_users() {
            let (ids, sims) = (seg.neighbor_ids(local), seg.neighbor_sims(local));
            buf.clear();
            serial::encode_list(&mut buf, ids.iter().copied().zip(sims.iter().copied()));
            w.write_all(&buf)?;
        }
    }
    w.flush()?;
    stats.stitch_wall = t0.elapsed();
    stats.wall = total.elapsed();
    Ok(stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsh::Lsh;
    use crate::serial::write_knn_graph;
    use goldfinger_core::hash::{DynHasher, HasherKind};
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::similarity::ShfJaccard;

    fn fixture() -> ProfileStore {
        // Clustered + ragged + one empty profile: every routing edge case.
        let mut lists: Vec<Vec<u32>> = Vec::new();
        for u in 0..14u32 {
            let base = (u / 5) * 40;
            lists.push((base..base + 20 + u % 7).collect());
        }
        lists.push(vec![]);
        for u in 0..14u32 {
            lists.push(((u * 3)..(u * 3 + 9)).collect());
        }
        ProfileStore::from_item_lists(lists)
    }

    fn params() -> ShfParams<DynHasher> {
        ShfParams::new(256, DynHasher::new(HasherKind::Jenkins, 42))
    }

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("gf-ooc-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn reference(profiles: &ProfileStore, tables: usize, seed: u64, k: usize) -> KnnGraph {
        let fps = params().fingerprint_store(profiles);
        Lsh {
            tables,
            seed,
            threads: 1,
        }
        .build(profiles, &ShfJaccard::new(&fps), k)
        .graph
    }

    #[test]
    fn matches_in_ram_lsh_for_any_shard_count() {
        let profiles = fixture();
        let expected = reference(&profiles, 4, 99, 3);
        for shards in [1usize, 2, 5, 29] {
            let dir = tmp(&format!("eq{shards}"));
            let mut cfg = OocConfig::new(3, 4, 99, &dir);
            cfg.shards = shards;
            cfg.spill = false;
            let (graph, stats) = build(&profiles, &params(), &cfg).unwrap();
            assert_eq!(graph.n_users(), expected.n_users());
            for u in 0..graph.n_users() as u32 {
                assert_eq!(
                    graph.neighbors(u),
                    expected.neighbors(u),
                    "shards={shards} u={u}"
                );
            }
            assert_eq!(stats.shards, shards.min(profiles.n_users()));
            assert!(stats.similarity_evals > 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn spilled_build_matches_heap_build() {
        let profiles = fixture();
        let expected = reference(&profiles, 3, 7, 2);
        let dir = tmp("spill");
        let mut cfg = OocConfig::new(2, 3, 7, &dir);
        cfg.shards = 3;
        cfg.spill = true;
        let (graph, stats) = build(&profiles, &params(), &cfg).unwrap();
        assert_eq!(stats.backend, "mmap");
        assert!(stats.spilled_bytes > 0);
        for u in 0..graph.n_users() as u32 {
            assert_eq!(graph.neighbors(u), expected.neighbors(u), "u={u}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_stitch_is_byte_identical_to_in_memory_graph() {
        let profiles = fixture();
        let dir = tmp("disk");
        let mut cfg = OocConfig::new(3, 4, 99, &dir);
        cfg.shards = 4;
        cfg.spill = false;
        let (graph, _) = build(&profiles, &params(), &cfg).unwrap();
        let out = dir.join("graph.gfg");
        build_to_disk(&profiles, &params(), &cfg, &out).unwrap();
        let mut expected = Vec::new();
        write_knn_graph(&graph, &mut expected).unwrap();
        assert_eq!(std::fs::read(&out).unwrap(), expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn bucket_cap_only_drops_hot_buckets() {
        // All users share one hot bucket (identical profiles) except two
        // loners; with a tiny cap the hot bucket is skipped wholesale.
        let mut lists: Vec<Vec<u32>> = (0..8).map(|_| (0..20).collect()).collect();
        lists.push((100..120).collect());
        lists.push((100..120).collect());
        let profiles = ProfileStore::from_item_lists(lists);
        let dir = tmp("cap");
        let mut cfg = OocConfig::new(2, 2, 5, &dir);
        cfg.shards = 1;
        cfg.spill = false;
        cfg.max_bucket = 4;
        let (graph, stats) = build(&profiles, &params(), &cfg).unwrap();
        // The clones' bucket (8 users) is over the cap: no neighbours.
        for u in 0..8u32 {
            assert!(graph.neighbors(u).is_empty(), "u={u}");
        }
        // The loner pair (bucket of 2) is under the cap and survives.
        assert_eq!(graph.neighbors(8)[0].user, 9);
        assert_eq!(graph.neighbors(9)[0].user, 8);
        assert!(stats.similarity_evals > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_profiles_get_empty_bucket_ranges() {
        let profiles = fixture();
        let dir = tmp("ranges");
        let mut cfg = OocConfig::new(3, 4, 99, &dir);
        cfg.spill = false;
        let state = prepare(&profiles, &params(), &cfg, &mut OocStats::default()).unwrap();
        let n = profiles.n_users();
        for u in 0..n as u32 {
            let empty = profiles.items(u).is_empty();
            for t in 0..cfg.tables {
                let range = state.ranges[t * n + u as usize];
                if empty {
                    assert_eq!(range, pack_range(0, 0), "u={u} t={t}");
                } else {
                    // Every keyed user sits in its own bucket.
                    assert!(state.bucket(t, u).contains(&u64::from(u)), "u={u} t={t}");
                }
            }
        }
        assert!((0..n as u32).any(|u| profiles.items(u).is_empty()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn effective_shards_honours_budget_and_floor() {
        let cfg = OocConfig::new(5, 2, 1, "/tmp/x");
        assert_eq!(cfg.effective_shards(1000, 1 << 20), 1); // unbounded
        let mut budgeted = cfg.clone();
        budgeted.mem_budget = 1 << 20;
        // 4 × (1MiB arena + 48KiB keys) / 1MiB ≈ 5.
        let s = budgeted.effective_shards(1000, 1 << 20);
        assert!(s >= 4, "derived {s}");
        let mut fixed = cfg;
        fixed.shards = 7;
        assert_eq!(fixed.effective_shards(3, 1 << 30), 3); // capped at n
    }
}
