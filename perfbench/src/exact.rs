//! The benchmark's own exact KNN reference and its quality score.
//!
//! Quality is scored over k slots: Σ exact Jaccard of the returned
//! neighbours ÷ Σ exact Jaccard of the true top-k, where a missing slot
//! scores 0. Averaging only over the edges present (as the library's
//! `knn::metrics::quality` does) rewards a builder for returning fewer
//! neighbours, so that function is never used here.
//!
//! The reference is an item-inverted index over the scored users, built
//! from the raw item lists: one pass over every user's items counts its
//! intersection with each scored user. None of this shares code with the
//! builders or with the library's similarity providers. Keeping the
//! counters per scored user (not per population member) holds them in L1
//! even for a 1M-user population.

use goldfinger_core::profile::ProfileStore;

/// Scored users per pass: their counters stay cache-resident.
const CHUNK: usize = 2048;

/// Σ of returned and ideal similarity over the scored users.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Quality {
    pub returned: f64,
    pub ideal: f64,
}

impl Quality {
    /// The score in `[0, 1]` (1 when no scored user has any similar user).
    pub fn ratio(&self) -> f64 {
        if self.ideal > 0.0 {
            self.returned / self.ideal
        } else {
            1.0
        }
    }
}

/// The `k` largest values offered, kept in ascending order.
struct TopValues {
    k: usize,
    v: Vec<f64>,
}

impl TopValues {
    fn offer(&mut self, x: f64) {
        if self.v.len() == self.k {
            if x <= self.v[0] {
                return;
            }
            self.v.remove(0);
        }
        let at = self.v.partition_point(|&y| y < x);
        self.v.insert(at, x);
    }

    /// A value must exceed this to enter (-1 while there is room).
    fn threshold(&self) -> f64 {
        if self.v.len() == self.k {
            self.v[0]
        } else {
            -1.0
        }
    }
}

/// Scores `returned[i]`, the neighbour list of `users[i]`, against the
/// exact top-k over the whole population. Only the first `k` distinct ids
/// of a list count, and a user listing itself scores 0 for that slot.
///
/// # Panics
/// Panics if `users` holds a duplicate or the two slices differ in length.
pub fn quality(profiles: &ProfileStore, k: usize, users: &[u32], returned: &[Vec<u32>]) -> Quality {
    assert_eq!(users.len(), returned.len(), "one list per scored user");
    let mut distinct = users.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    assert_eq!(distinct.len(), users.len(), "scored users must be distinct");
    let mut acc = Quality::default();
    for (chunk, lists) in users.chunks(CHUNK).zip(returned.chunks(CHUNK)) {
        score_chunk(profiles, k, chunk, lists, &mut acc);
    }
    acc
}

fn score_chunk(
    profiles: &ProfileStore,
    k: usize,
    users: &[u32],
    returned: &[Vec<u32>],
    acc: &mut Quality,
) {
    // Item → scored users holding it (CSR over the item universe).
    let n_items = profiles.item_universe_bound() as usize;
    let mut offsets = vec![0u32; n_items + 1];
    for &u in users {
        for &it in profiles.items(u) {
            offsets[it as usize + 1] += 1;
        }
    }
    for i in 0..n_items {
        offsets[i + 1] += offsets[i];
    }
    let mut cursor = offsets.clone();
    let mut holders = vec![0u16; offsets[n_items] as usize];
    for (c, &u) in users.iter().enumerate() {
        for &it in profiles.items(u) {
            holders[cursor[it as usize] as usize] = c as u16;
            cursor[it as usize] += 1;
        }
    }

    // (neighbour, scored user) slots, walked in neighbour order.
    let mut slots: Vec<(u32, u16)> = Vec::new();
    for (c, list) in returned.iter().enumerate() {
        let mut ids: Vec<u32> = list.iter().copied().take(k).collect();
        ids.sort_unstable();
        ids.dedup();
        slots.extend(ids.into_iter().map(|v| (v, c as u16)));
    }
    slots.sort_unstable();

    let size: Vec<u32> = users
        .iter()
        .map(|&u| profiles.items(u).len() as u32)
        .collect();
    let mut top: Vec<TopValues> = users
        .iter()
        .map(|_| TopValues {
            k,
            v: Vec::with_capacity(k),
        })
        .collect();
    // Per scored user: the entry threshold of its top-k, kept flat so the
    // common case (a pair too weak to enter) is one multiply and compare.
    let mut threshold = vec![-1.0f64; users.len()];
    let mut counts = vec![0u32; users.len()];
    // Scored users sharing an item with `v`: the first `n_touched` slots.
    // Appending without a branch keeps the hot loop free of mispredictions.
    let mut touched = vec![0u16; users.len() + 1];
    let mut next_slot = 0;
    for v in 0..profiles.n_users() as u32 {
        let items = profiles.items(v);
        let mut n_touched = 0;
        for &it in items {
            let it = it as usize;
            for &c in &holders[offsets[it] as usize..offsets[it + 1] as usize] {
                let cnt = &mut counts[c as usize];
                touched[n_touched] = c;
                n_touched += usize::from(*cnt == 0);
                *cnt += 1;
            }
        }
        let touched = &touched[..n_touched];
        let len = items.len() as u32;
        while next_slot < slots.len() && slots[next_slot].0 == v {
            let c = slots[next_slot].1 as usize;
            let inter = counts[c];
            if inter > 0 && users[c] != v {
                acc.returned += f64::from(inter) / f64::from(size[c] + len - inter);
            }
            next_slot += 1;
        }
        for &c in touched {
            let c = c as usize;
            let inter = std::mem::take(&mut counts[c]);
            let union = size[c] + len - inter;
            if f64::from(inter) > threshold[c] * f64::from(union) && users[c] != v {
                top[c].offer(f64::from(inter) / f64::from(union));
                threshold[c] = top[c].threshold();
            }
        }
    }
    acc.ideal += top.iter().map(|t| t.v.iter().sum::<f64>()).sum::<f64>();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn profiles() -> ProfileStore {
        ProfileStore::from_item_lists(vec![
            (0..10).collect(),
            (0..8).collect(),
            (2..12).collect(),
            (5..9).collect(),
            (40..50).collect(),
            (45..52).collect(),
        ])
    }

    /// Exact top-k ids by sorted-list intersection.
    fn exact_lists(p: &ProfileStore, k: usize) -> Vec<Vec<u32>> {
        let n = p.n_users() as u32;
        (0..n)
            .map(|u| {
                let a = p.items(u);
                let mut sims: Vec<(f64, u32)> = (0..n)
                    .filter(|&v| v != u)
                    .map(|v| {
                        let b = p.items(v);
                        let inter = a.iter().filter(|x| b.contains(x)).count();
                        let union = a.len() + b.len() - inter;
                        (inter as f64 / union as f64, v)
                    })
                    .filter(|&(s, _)| s > 0.0)
                    .collect();
                sims.sort_by(|x, y| y.0.total_cmp(&x.0).then(x.1.cmp(&y.1)));
                sims.into_iter().take(k).map(|(_, v)| v).collect()
            })
            .collect()
    }

    const ALL: [u32; 6] = [0, 1, 2, 3, 4, 5];

    #[test]
    fn exact_lists_score_one() {
        let p = profiles();
        let q = quality(&p, 2, &ALL, &exact_lists(&p, 2));
        assert!((q.ratio() - 1.0).abs() < 1e-12, "{q:?}");
        // A sample scores its own users only.
        let lists = exact_lists(&p, 2);
        let q = quality(&p, 2, &[4, 1], &[lists[4].clone(), lists[1].clone()]);
        assert!((q.ratio() - 1.0).abs() < 1e-12, "{q:?}");
    }

    #[test]
    fn dropping_a_neighbour_lowers_the_score() {
        let p = profiles();
        let lists = exact_lists(&p, 3);
        let full = quality(&p, 3, &ALL, &lists);
        let mut fewer = lists.clone();
        // Drop user 0's weakest neighbour: the average over the edges left
        // would rise, the score over k slots must fall.
        fewer[0].pop();
        let dropped = quality(&p, 3, &ALL, &fewer);
        assert!(dropped.ratio() < full.ratio(), "{dropped:?} vs {full:?}");
        assert_eq!(dropped.ideal, full.ideal);
    }

    #[test]
    fn self_duplicates_and_overflow_earn_nothing() {
        let p = profiles();
        let lists = exact_lists(&p, 2);
        let honest = quality(&p, 2, &ALL, &lists);
        let padded: Vec<Vec<u32>> = lists
            .iter()
            .zip(ALL)
            .map(|(l, u)| {
                let mut out = vec![u, l[0], l[0]];
                out.extend(l);
                out
            })
            .collect();
        let q = quality(&p, 2, &ALL, &padded);
        assert!(q.ratio() < honest.ratio(), "{q:?} vs {honest:?}");
    }
}
