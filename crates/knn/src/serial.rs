//! Binary persistence for KNN graphs (`GFG1` format).
//!
//! ```text
//! "GFG1" | u32 k | u32 n | per user: u32 len, len × (u32 user, f64 sim)
//! ```
//!
//! Readers validate the header and every edge (in-range neighbour ids, no
//! self-loops, finite similarities, descending order), so a corrupted graph
//! cannot silently poison a recommender.

use crate::graph::KnnGraph;
use goldfinger_core::serial::DecodeError;
use goldfinger_core::topk::Scored;
use std::io::{self, Read, Write};

const GRAPH_MAGIC: &[u8; 4] = b"GFG1";

/// Lists reserved up front by [`read_knn_graph`]: the header's `n` is
/// unverified until the lists are read, so the rest grow as they decode.
const MAX_PREALLOC_LISTS: usize = 1 << 16;

fn corrupt(msg: impl Into<String>) -> DecodeError {
    DecodeError::Corrupt(msg.into())
}

fn read_u32(r: &mut impl Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

fn read_f64(r: &mut impl Read) -> io::Result<f64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf)?;
    Ok(f64::from_le_bytes(buf))
}

/// Writes the `GFG1` header of a graph with `n` users and parameter `k`.
pub(crate) fn write_header(w: &mut impl Write, k: usize, n: usize) -> io::Result<()> {
    w.write_all(GRAPH_MAGIC)?;
    w.write_all(&(k as u32).to_le_bytes())?;
    w.write_all(&(n as u32).to_le_bytes())
}

/// Appends one user's `GFG1` list record (`len`, then `(user, sim)` per
/// edge) to `buf`.
pub(crate) fn encode_list(buf: &mut Vec<u8>, edges: impl ExactSizeIterator<Item = (u32, f64)>) {
    buf.extend_from_slice(&(edges.len() as u32).to_le_bytes());
    for (user, sim) in edges {
        buf.extend_from_slice(&user.to_le_bytes());
        buf.extend_from_slice(&sim.to_le_bytes());
    }
}

/// Writes a KNN graph in the `GFG1` format.
pub fn write_knn_graph(graph: &KnnGraph, w: &mut impl Write) -> io::Result<()> {
    write_header(w, graph.k(), graph.n_users())?;
    let mut buf = Vec::new();
    for u in 0..graph.n_users() as u32 {
        buf.clear();
        encode_list(&mut buf, graph.neighbors(u).iter().map(|s| (s.user, s.sim)));
        w.write_all(&buf)?;
    }
    Ok(())
}

/// Reads and validates a KNN graph in the `GFG1` format.
pub fn read_knn_graph(r: &mut impl Read) -> Result<KnnGraph, DecodeError> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic)?;
    if &magic != GRAPH_MAGIC {
        return Err(DecodeError::BadMagic {
            expected: *GRAPH_MAGIC,
            found: magic,
        });
    }
    let k = read_u32(r)? as usize;
    let n = read_u32(r)?;
    if k == 0 || n > 500_000_000 {
        return Err(corrupt(format!("implausible header: k = {k}, n = {n}")));
    }
    let mut lists = Vec::with_capacity((n as usize).min(MAX_PREALLOC_LISTS));
    for u in 0..n {
        let len = read_u32(r)? as usize;
        if len > k {
            return Err(corrupt(format!(
                "user {u}: {len} neighbours exceed k = {k}"
            )));
        }
        let mut neigh = Vec::with_capacity(len);
        for _ in 0..len {
            let user = read_u32(r)?;
            let sim = read_f64(r)?;
            if user >= n {
                return Err(corrupt(format!("user {u}: neighbour {user} out of range")));
            }
            if user == u {
                return Err(corrupt(format!("user {u} is its own neighbour")));
            }
            if !sim.is_finite() || !(0.0..=1.0).contains(&sim) {
                return Err(corrupt(format!("user {u}: similarity {sim} out of range")));
            }
            neigh.push(Scored { sim, user });
        }
        if neigh
            .windows(2)
            .any(|w| w[0].sim < w[1].sim || (w[0].sim == w[1].sim && w[0].user >= w[1].user))
        {
            return Err(corrupt(format!("user {u}: neighbour list mis-sorted")));
        }
        // Duplicate detection (ids are unique iff sorted run has no repeat).
        let mut ids: Vec<u32> = neigh.iter().map(|s| s.user).collect();
        ids.sort_unstable();
        if ids.windows(2).any(|w| w[0] == w[1]) {
            return Err(corrupt(format!("user {u}: duplicate neighbours")));
        }
        lists.push(neigh);
    }
    Ok(KnnGraph::from_lists(k, lists))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::brute::BruteForce;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::similarity::ExplicitJaccard;

    fn graph() -> KnnGraph {
        let profiles = ProfileStore::from_item_lists(vec![
            (0..20).collect(),
            (5..25).collect(),
            (10..30).collect(),
            vec![],
        ]);
        let sim = ExplicitJaccard::new(&profiles);
        BruteForce::default().build(&sim, 2).graph
    }

    #[test]
    fn graph_roundtrips() {
        let g = graph();
        let mut buf = Vec::new();
        write_knn_graph(&g, &mut buf).unwrap();
        let back = read_knn_graph(&mut buf.as_slice()).unwrap();
        assert_eq!(back.k(), g.k());
        assert_eq!(back.n_users(), g.n_users());
        for u in 0..g.n_users() as u32 {
            assert_eq!(back.neighbors(u), g.neighbors(u));
        }
    }

    #[test]
    fn bad_magic_is_rejected() {
        let g = graph();
        let mut buf = Vec::new();
        write_knn_graph(&g, &mut buf).unwrap();
        buf[2] = b'?';
        assert!(matches!(
            read_knn_graph(&mut buf.as_slice()),
            Err(DecodeError::BadMagic { .. })
        ));
    }

    #[test]
    fn out_of_range_neighbor_is_rejected() {
        // Hand-craft: k=1, n=1, user 0 has neighbour 5 (out of range).
        let mut buf = Vec::new();
        buf.extend_from_slice(b"GFG1");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&5u32.to_le_bytes());
        buf.extend_from_slice(&0.5f64.to_le_bytes());
        match read_knn_graph(&mut buf.as_slice()) {
            Err(DecodeError::Corrupt(msg)) => assert!(msg.contains("out of range")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn nan_similarity_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"GFG1");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&2u32.to_le_bytes());
        // user 0: one neighbour with NaN sim
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&f64::NAN.to_le_bytes());
        // user 1: empty
        buf.extend_from_slice(&0u32.to_le_bytes());
        match read_knn_graph(&mut buf.as_slice()) {
            Err(DecodeError::Corrupt(msg)) => assert!(msg.contains("similarity")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn self_loop_is_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(b"GFG1");
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.extend_from_slice(&0u32.to_le_bytes()); // neighbour = self
        buf.extend_from_slice(&0.5f64.to_le_bytes());
        match read_knn_graph(&mut buf.as_slice()) {
            Err(DecodeError::Corrupt(msg)) => assert!(msg.contains("own neighbour")),
            other => panic!("unexpected: {other:?}"),
        }
    }

    #[test]
    fn huge_header_without_lists_is_an_error_not_an_allocation() {
        // A header claiming 499,999,999 users, then EOF: reserving `n`
        // lists up front would request ~12 GB before the first read fails.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"GFG1");
        buf.extend_from_slice(&30u32.to_le_bytes());
        buf.extend_from_slice(&499_999_999u32.to_le_bytes());
        assert!(matches!(
            read_knn_graph(&mut buf.as_slice()),
            Err(DecodeError::Io(_))
        ));
    }

    #[test]
    fn truncation_is_an_io_error() {
        let g = graph();
        let mut buf = Vec::new();
        write_knn_graph(&g, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(matches!(
            read_knn_graph(&mut buf.as_slice()),
            Err(DecodeError::Io(_))
        ));
    }
}
