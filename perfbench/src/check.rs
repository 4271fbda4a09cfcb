//! Output checks on everything the benchmark times.

use goldfinger_core::topk::Scored;
use goldfinger_knn::KnnGraph;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

fn fnv(h: u64, x: u64) -> u64 {
    (h ^ x).wrapping_mul(FNV_PRIME)
}

/// SplitMix64: the benchmark's own generator for every seeded choice.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// One neighbour list: at most `k` entries, no self or duplicate
/// neighbour, ids in range, similarities in `[0, 1]` and non-increasing.
pub fn check_list(u: u32, list: &[Scored], n: usize, k: usize) -> Result<(), String> {
    if list.len() > k {
        return Err(format!("user {u}: {} neighbours > k = {k}", list.len()));
    }
    let mut ids: Vec<u32> = Vec::with_capacity(list.len());
    for (i, s) in list.iter().enumerate() {
        if s.user == u {
            return Err(format!("user {u} lists itself"));
        }
        if s.user as usize >= n {
            return Err(format!("user {u}: neighbour {} out of range", s.user));
        }
        if !(0.0..=1.0).contains(&s.sim) {
            return Err(format!("user {u}: similarity {} outside [0, 1]", s.sim));
        }
        if i > 0 && list[i - 1].sim < s.sim {
            return Err(format!("user {u}: list not sorted by similarity"));
        }
        ids.push(s.user);
    }
    ids.sort_unstable();
    if ids.windows(2).any(|w| w[0] == w[1]) {
        return Err(format!("user {u}: duplicate neighbour"));
    }
    Ok(())
}

/// Checks a whole graph: `n` lists, each valid for [`check_list`].
pub fn check_graph(graph: &KnnGraph, n: usize, k: usize) -> Result<(), String> {
    if graph.n_users() != n {
        return Err(format!("graph has {} lists, expected {n}", graph.n_users()));
    }
    if graph.k() != k {
        return Err(format!("graph has k = {}, expected {k}", graph.k()));
    }
    (0..n as u32).try_for_each(|u| check_list(u, graph.neighbors(u), n, k))
}

/// Spot-checks `samples` seeded edges: each stored similarity must equal
/// `estimate(u, v)`, the provider's value recomputed from the fingerprints.
pub fn spot_check_sims(
    graph: &KnnGraph,
    users: &[u32],
    seed: u64,
    samples: usize,
    estimate: impl Fn(u32, u32) -> f64,
) -> Result<usize, String> {
    let mut rng = SplitMix(seed);
    let mut checked = 0;
    for _ in 0..samples {
        let u = users[rng.below(users.len() as u64) as usize];
        let list = graph.neighbors(u);
        if list.is_empty() {
            continue;
        }
        let s = list[rng.below(list.len() as u64) as usize];
        let want = estimate(u, s.user);
        if s.sim != want {
            return Err(format!(
                "edge {u}->{}: stored similarity {} != recomputed estimate {want}",
                s.user, s.sim
            ));
        }
        checked += 1;
    }
    Ok(checked)
}

/// FNV-1a digest of every `(user, neighbour, similarity)` triple.
pub fn digest(graph: &KnnGraph) -> u64 {
    graph.edges().fold(FNV_OFFSET, |h, (u, v, s)| {
        fnv(fnv(fnv(h, u64::from(u)), u64::from(v)), s.to_bits())
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sc(user: u32, sim: f64) -> Scored {
        Scored { sim, user }
    }

    #[test]
    fn bad_lists_are_rejected() {
        assert!(check_list(0, &[sc(1, 0.5), sc(2, 0.4)], 3, 2).is_ok());
        assert!(check_list(0, &[sc(1, 0.5), sc(2, 0.4)], 3, 1).is_err());
        assert!(check_list(0, &[sc(0, 0.5)], 3, 2).is_err());
        assert!(check_list(0, &[sc(1, 0.5), sc(1, 0.5)], 3, 2).is_err());
        assert!(check_list(0, &[sc(1, 0.4), sc(2, 0.5)], 3, 2).is_err());
        assert!(check_list(0, &[sc(7, 0.4)], 3, 2).is_err());
    }

    #[test]
    fn splitmix_below_stays_in_range() {
        let mut r = SplitMix(7);
        assert!((0..1000).all(|_| r.below(13) < 13));
    }
}
