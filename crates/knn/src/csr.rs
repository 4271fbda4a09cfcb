//! Compact CSR graph forms: the two-array in-memory layout and the `GFCS`
//! spill-segment format with delta-varint id compression.
//!
//! [`KnnGraph`] keeps edges as `Scored { sim: f64, user: u32 }` — 16 bytes
//! per edge with padding — because every digest-pinned consumer compares
//! exact `f64` similarities. This module holds the representations for
//! when that is too big:
//!
//! - [`CompactGraph`]: ids (`u32`) and sims (`f32`) in two flat arrays
//!   plus offsets — 8 bytes per edge, cutting a resident graph in half.
//!   Converting to it rounds similarities to `f32`, so it is for
//!   memory-constrained serving, **not** for digest-pinned paths.
//! - `GFCS` segments: the serialized form of a contiguous user range of a
//!   graph, used by the out-of-core build to spill finished shards.
//!   Neighbour ids are delta-encoded in list order (zigzag + varint —
//!   LSH neighbourhoods are id-clustered, so deltas are short) and
//!   similarities are either exact `f64` (the default: a spilled shard
//!   stitches back **bit-identically**) or compact `f32`.
//!
//! ```text
//! "GFCS" | u8 version | u8 flags | u16 0 | u32 k | u64 user_lo | u64 n
//! per user: uvarint degree | degree × zigzag-uvarint id delta
//!         | degree × (f64 | f32) sim
//! ```

use crate::graph::{CsrBuilder, KnnGraph};
use goldfinger_core::serial::DecodeError;
use goldfinger_core::topk::Scored;
use std::io::{self, Read, Write};

/// Magic of a `GFCS` graph segment.
pub const SEGMENT_MAGIC: &[u8; 4] = b"GFCS";
const SEGMENT_VERSION: u8 = 1;
/// Flag bit: similarities are stored as exact `f64` (else compact `f32`).
const FLAG_EXACT_SIMS: u8 = 1;

fn corrupt(msg: impl Into<String>) -> DecodeError {
    DecodeError::Corrupt(msg.into())
}

/// Appends `v` in LEB128 (7 bits per byte, little-endian groups).
fn push_uvarint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push((v & 0x7F) as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Reads a LEB128 integer (rejects encodings longer than 10 bytes).
fn read_uvarint(r: &mut impl Read) -> Result<u64, DecodeError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let mut byte = [0u8; 1];
        r.read_exact(&mut byte)?;
        let b = byte[0];
        if shift >= 63 && b > 1 {
            return Err(corrupt("varint overflows u64"));
        }
        v |= u64::from(b & 0x7F) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(corrupt("varint longer than 10 bytes"));
        }
    }
}

/// Maps a signed delta onto an unsigned varint-friendly value.
#[inline]
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
#[inline]
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// A KNN graph with ids and similarities in two flat arrays: `u32` ids,
/// `f32` sims, `u64` offsets — half the resident bytes of [`KnnGraph`].
///
/// Conversion from a [`KnnGraph`] rounds similarities to `f32`;
/// [`CompactGraph::to_graph`] widens them back, which is *not* the
/// original `f64` in general. Use it where memory beats exactness
/// (read-mostly serving snapshots), never where golden digests are
/// compared.
#[derive(Debug, Clone, PartialEq)]
pub struct CompactGraph {
    k: usize,
    offsets: Vec<u64>,
    ids: Vec<u32>,
    sims: Vec<f32>,
}

impl CompactGraph {
    /// Compacts a [`KnnGraph`] (similarities round to `f32`).
    pub fn from_graph(graph: &KnnGraph) -> Self {
        let mut offsets = Vec::with_capacity(graph.n_users() + 1);
        let mut ids = Vec::with_capacity(graph.n_edges());
        let mut sims = Vec::with_capacity(graph.n_edges());
        offsets.push(0u64);
        for u in 0..graph.n_users() as u32 {
            for s in graph.neighbors(u) {
                ids.push(s.user);
                sims.push(s.sim as f32);
            }
            offsets.push(ids.len() as u64);
        }
        CompactGraph {
            k: graph.k(),
            offsets,
            ids,
            sims,
        }
    }

    /// Neighbourhood size parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of users.
    pub fn n_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Total number of directed edges.
    pub fn n_edges(&self) -> usize {
        self.ids.len()
    }

    /// Neighbour ids of `u`, most similar first.
    pub fn neighbor_ids(&self, u: u32) -> &[u32] {
        let u = u as usize;
        &self.ids[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Neighbour similarities of `u`, aligned with
    /// [`CompactGraph::neighbor_ids`].
    pub fn neighbor_sims(&self, u: u32) -> &[f32] {
        let u = u as usize;
        &self.sims[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Widens back to a [`KnnGraph`] (sims become `f32`-rounded `f64`s).
    pub fn to_graph(&self) -> KnnGraph {
        let mut builder = CsrBuilder::with_capacity(self.k, self.n_users());
        let mut list = Vec::with_capacity(self.k);
        for u in 0..self.n_users() as u32 {
            list.clear();
            for (&id, &sim) in self.neighbor_ids(u).iter().zip(self.neighbor_sims(u)) {
                list.push(Scored {
                    sim: f64::from(sim),
                    user: id,
                });
            }
            builder.push_list(&list);
        }
        builder.finish()
    }

    /// Resident bytes of the three arrays (capacity, not length).
    pub fn heap_bytes(&self) -> usize {
        self.offsets.capacity() * 8 + self.ids.capacity() * 4 + self.sims.capacity() * 4
    }
}

/// Streaming writer of one `GFCS` segment covering the contiguous user
/// range `user_lo .. user_lo + n_users` of a graph. Lists are pushed in
/// user order; ids in a list are **global** user ids.
#[derive(Debug)]
pub struct SegmentWriter<W: Write> {
    w: W,
    k: usize,
    user_lo: u64,
    n_users: u64,
    pushed: u64,
    exact_sims: bool,
    /// One list's encoding, reused so each list is a single write.
    buf: Vec<u8>,
}

impl<W: Write> SegmentWriter<W> {
    /// Writes the segment header. `exact_sims` selects `f64` payloads
    /// (bit-exact stitching) over `f32` (half the sim bytes).
    pub fn new(
        mut w: W,
        k: usize,
        user_lo: u64,
        n_users: u64,
        exact_sims: bool,
    ) -> io::Result<Self> {
        w.write_all(SEGMENT_MAGIC)?;
        let flags = if exact_sims { FLAG_EXACT_SIMS } else { 0 };
        w.write_all(&[SEGMENT_VERSION, flags, 0, 0])?;
        w.write_all(&(k as u32).to_le_bytes())?;
        w.write_all(&user_lo.to_le_bytes())?;
        w.write_all(&n_users.to_le_bytes())?;
        Ok(SegmentWriter {
            w,
            k,
            user_lo,
            n_users,
            pushed: 0,
            exact_sims,
            buf: Vec::new(),
        })
    }

    /// Appends the next user's neighbour list (global ids, sorted by
    /// decreasing similarity as everywhere else).
    ///
    /// # Panics
    /// Panics if more than `n_users` lists are pushed or a list exceeds
    /// `k` — writer bugs, not data corruption.
    pub fn push_list(&mut self, list: &[Scored]) -> io::Result<()> {
        assert!(self.pushed < self.n_users, "segment already full");
        assert!(list.len() <= self.k, "list exceeds k");
        self.pushed += 1;
        let buf = &mut self.buf;
        buf.clear();
        push_uvarint(buf, list.len() as u64);
        let mut prev = 0i64;
        for s in list {
            let id = i64::from(s.user);
            push_uvarint(buf, zigzag(id - prev));
            prev = id;
        }
        for s in list {
            if self.exact_sims {
                buf.extend_from_slice(&s.sim.to_le_bytes());
            } else {
                buf.extend_from_slice(&(s.sim as f32).to_le_bytes());
            }
        }
        self.w.write_all(buf)
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Panics
    /// Panics if fewer than `n_users` lists were pushed.
    pub fn finish(mut self) -> io::Result<W> {
        assert_eq!(self.pushed, self.n_users, "segment is missing lists");
        self.w.flush()?;
        Ok(self.w)
    }

    /// First global user id covered by this segment.
    pub fn user_lo(&self) -> u64 {
        self.user_lo
    }
}

/// One decoded `GFCS` segment: the neighbour lists of users
/// `user_lo .. user_lo + n_users()`, validated on read.
#[derive(Debug, Clone)]
pub struct Segment {
    k: usize,
    user_lo: u64,
    exact_sims: bool,
    offsets: Vec<u64>,
    ids: Vec<u32>,
    sims: Vec<f64>,
}

impl Segment {
    /// Neighbourhood size parameter `k`.
    pub fn k(&self) -> usize {
        self.k
    }

    /// First global user id covered.
    pub fn user_lo(&self) -> u64 {
        self.user_lo
    }

    /// Number of users covered.
    pub fn n_users(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Whether similarities were stored as exact `f64`.
    pub fn exact_sims(&self) -> bool {
        self.exact_sims
    }

    /// Neighbour ids (global) of local user `u` (0-based within the
    /// segment), most similar first.
    pub fn neighbor_ids(&self, u: usize) -> &[u32] {
        &self.ids[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Neighbour similarities of local user `u`, aligned with
    /// [`Segment::neighbor_ids`].
    pub fn neighbor_sims(&self, u: usize) -> &[f64] {
        &self.sims[self.offsets[u] as usize..self.offsets[u + 1] as usize]
    }

    /// Appends every list of this segment into a [`CsrBuilder`] — the
    /// stitching primitive: feed segments in ascending `user_lo` order
    /// and `finish()` the builder into the full graph.
    pub fn append_into(&self, builder: &mut CsrBuilder) {
        let mut list = Vec::with_capacity(self.k);
        for u in 0..self.n_users() {
            list.clear();
            for (&user, &sim) in self.neighbor_ids(u).iter().zip(self.neighbor_sims(u)) {
                list.push(Scored { sim, user });
            }
            builder.push_list(&list);
        }
    }
}

/// Writes the user range `lo..hi` of a graph as one `GFCS` segment.
pub fn write_graph_segment(
    graph: &KnnGraph,
    lo: u32,
    hi: u32,
    exact_sims: bool,
    w: impl Write,
) -> io::Result<()> {
    assert!(lo <= hi && hi as usize <= graph.n_users(), "invalid range");
    let mut seg = SegmentWriter::new(w, graph.k(), u64::from(lo), u64::from(hi - lo), exact_sims)?;
    for u in lo..hi {
        seg.push_list(graph.neighbors(u))?;
    }
    seg.finish()?;
    Ok(())
}

/// Reads and validates one `GFCS` segment. `n_total` is the population of
/// the full graph the segment belongs to (bounds neighbour ids).
pub fn read_segment(r: &mut impl Read, n_total: u64) -> Result<Segment, DecodeError> {
    let mut head = [0u8; 28];
    r.read_exact(&mut head)?;
    if head[0..4] != *SEGMENT_MAGIC {
        return Err(DecodeError::BadMagic {
            expected: *SEGMENT_MAGIC,
            found: [head[0], head[1], head[2], head[3]],
        });
    }
    if head[4] != SEGMENT_VERSION {
        return Err(corrupt(format!("unsupported segment version {}", head[4])));
    }
    let flags = head[5];
    if flags & !FLAG_EXACT_SIMS != 0 {
        return Err(corrupt(format!("unknown segment flags {flags:#x}")));
    }
    let exact_sims = flags & FLAG_EXACT_SIMS != 0;
    let k = u32::from_le_bytes(head[8..12].try_into().unwrap()) as usize;
    let user_lo = u64::from_le_bytes(head[12..20].try_into().unwrap());
    let n_users = u64::from_le_bytes(head[20..28].try_into().unwrap());
    if k == 0 || user_lo.saturating_add(n_users) > n_total {
        return Err(corrupt(format!(
            "implausible segment header: k = {k}, range {user_lo}+{n_users} of {n_total}"
        )));
    }
    let n_users = usize::try_from(n_users).map_err(|_| corrupt("segment too large for usize"))?;
    let mut offsets = Vec::with_capacity(n_users + 1);
    offsets.push(0u64);
    let mut ids = Vec::new();
    let mut sims = Vec::new();
    for local in 0..n_users {
        let global = user_lo + local as u64;
        let degree = read_uvarint(r)?;
        if degree > k as u64 {
            return Err(corrupt(format!(
                "user {global}: {degree} neighbours exceed k = {k}"
            )));
        }
        let degree = degree as usize;
        let mut prev = 0i64;
        let base = ids.len();
        for _ in 0..degree {
            let id = prev + unzigzag(read_uvarint(r)?);
            if id < 0 || id as u64 >= n_total {
                return Err(corrupt(format!(
                    "user {global}: neighbour {id} out of range"
                )));
            }
            if id as u64 == global {
                return Err(corrupt(format!("user {global} is its own neighbour")));
            }
            prev = id;
            ids.push(id as u32);
        }
        for _ in 0..degree {
            let sim = if exact_sims {
                let mut b = [0u8; 8];
                r.read_exact(&mut b)?;
                f64::from_le_bytes(b)
            } else {
                let mut b = [0u8; 4];
                r.read_exact(&mut b)?;
                f64::from(f32::from_le_bytes(b))
            };
            if !sim.is_finite() || !(0.0..=1.0).contains(&sim) {
                return Err(corrupt(format!(
                    "user {global}: similarity {sim} out of range"
                )));
            }
            sims.push(sim);
        }
        let list = &ids[base..];
        let list_sims = &sims[base..];
        if list_sims
            .windows(2)
            .zip(list.windows(2))
            .any(|(s, i)| s[0] < s[1] || (s[0] == s[1] && i[0] >= i[1]))
        {
            return Err(corrupt(format!("user {global}: neighbour list mis-sorted")));
        }
        let mut sorted: Vec<u32> = list.to_vec();
        sorted.sort_unstable();
        if sorted.windows(2).any(|w| w[0] == w[1]) {
            return Err(corrupt(format!("user {global}: duplicate neighbours")));
        }
        offsets.push(ids.len() as u64);
    }
    Ok(Segment {
        k,
        user_lo,
        exact_sims,
        offsets,
        ids,
        sims,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::similarity::ExplicitJaccard;

    fn graph() -> KnnGraph {
        let lists: Vec<Vec<u32>> = (0..17)
            .map(|u| ((u * 4)..(u * 4 + 10 + u % 7)).collect())
            .collect();
        let profiles = ProfileStore::from_item_lists(lists);
        let sim = ExplicitJaccard::new(&profiles);
        BruteForce::default().build(&sim, 3).graph
    }

    #[test]
    fn compact_graph_halves_edges_and_round_trips_to_f32() {
        let g = graph();
        let c = CompactGraph::from_graph(&g);
        assert_eq!(c.k(), g.k());
        assert_eq!(c.n_users(), g.n_users());
        assert_eq!(c.n_edges(), g.n_edges());
        for u in 0..g.n_users() as u32 {
            let ids: Vec<u32> = g.neighbors(u).iter().map(|s| s.user).collect();
            assert_eq!(c.neighbor_ids(u), &ids[..]);
            for (s, &cs) in g.neighbors(u).iter().zip(c.neighbor_sims(u)) {
                assert_eq!(cs, s.sim as f32);
            }
        }
        let widened = c.to_graph();
        for u in 0..g.n_users() as u32 {
            for (orig, wide) in g.neighbors(u).iter().zip(widened.neighbors(u)) {
                assert_eq!(wide.user, orig.user);
                assert_eq!(wide.sim, f64::from(orig.sim as f32));
            }
        }
        assert!(c.heap_bytes() > 0);
    }

    #[test]
    fn exact_segments_stitch_bit_identically() {
        let g = graph();
        let n = g.n_users() as u32;
        // Three uneven ranges covering the whole graph.
        let cuts = [0u32, 5, 6, n];
        let mut segments = Vec::new();
        for w in cuts.windows(2) {
            let mut buf = Vec::new();
            write_graph_segment(&g, w[0], w[1], true, &mut buf).unwrap();
            segments.push(buf);
        }
        let mut builder = CsrBuilder::with_capacity(g.k(), g.n_users());
        for buf in &segments {
            let seg = read_segment(&mut buf.as_slice(), u64::from(n)).unwrap();
            assert!(seg.exact_sims());
            seg.append_into(&mut builder);
        }
        let stitched = builder.finish();
        assert_eq!(stitched.n_edges(), g.n_edges());
        for u in 0..n {
            assert_eq!(stitched.neighbors(u), g.neighbors(u), "user {u}");
        }
    }

    #[test]
    fn compact_segments_round_sims_to_f32() {
        let g = graph();
        let n = g.n_users() as u64;
        let mut buf = Vec::new();
        write_graph_segment(&g, 0, g.n_users() as u32, false, &mut buf).unwrap();
        let seg = read_segment(&mut buf.as_slice(), n).unwrap();
        assert!(!seg.exact_sims());
        for u in 0..g.n_users() {
            let orig = g.neighbors(u as u32);
            let ids: Vec<u32> = orig.iter().map(|s| s.user).collect();
            assert_eq!(seg.neighbor_ids(u), &ids[..]);
            for (&got, o) in seg.neighbor_sims(u).iter().zip(orig) {
                assert_eq!(got, f64::from(o.sim as f32));
            }
        }
        // The compact form is smaller than the exact form.
        let mut exact = Vec::new();
        write_graph_segment(&g, 0, g.n_users() as u32, true, &mut exact).unwrap();
        assert!(buf.len() < exact.len());
    }

    #[test]
    fn varint_and_zigzag_round_trip() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut buf = Vec::new();
            push_uvarint(&mut buf, v);
            assert_eq!(read_uvarint(&mut buf.as_slice()).unwrap(), v);
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v);
        }
    }

    #[test]
    fn corrupt_segments_are_rejected() {
        let g = graph();
        let n = g.n_users() as u64;
        let mut buf = Vec::new();
        write_graph_segment(&g, 0, g.n_users() as u32, true, &mut buf).unwrap();
        // Bad magic.
        let mut bad = buf.clone();
        bad[1] = b'?';
        assert!(matches!(
            read_segment(&mut bad.as_slice(), n),
            Err(DecodeError::BadMagic { .. })
        ));
        // Unknown flags.
        let mut bad = buf.clone();
        bad[5] = 0xFE;
        assert!(read_segment(&mut bad.as_slice(), n).is_err());
        // Range beyond the declared population.
        assert!(read_segment(&mut buf.as_slice(), 2).is_err());
        // Truncation surfaces as an I/O error.
        let mut bad = buf.clone();
        bad.truncate(bad.len() - 3);
        assert!(matches!(
            read_segment(&mut bad.as_slice(), n),
            Err(DecodeError::Io(_))
        ));
    }

    #[test]
    #[should_panic(expected = "missing lists")]
    fn segment_writer_rejects_short_push_count() {
        let seg = SegmentWriter::new(Vec::new(), 2, 0, 3, true).unwrap();
        let _ = seg.finish();
    }
}
