//! The mutable k-bounded neighbour lists greedy algorithms refine.

use goldfinger_core::topk::Scored;
use rand::rngs::StdRng;
use rand::Rng;

/// One candidate neighbour inside a [`NeighborList`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeighborEntry {
    /// Similarity to the list's owner.
    pub sim: f64,
    /// Neighbour user id.
    pub user: u32,
    /// NNDescent's "new" flag: set when the entry has not yet taken part in
    /// a local join.
    pub is_new: bool,
}

/// A capacity-`k` neighbour list with duplicate rejection and
/// replace-the-worst updates — the building block of NNDescent and Hyrec.
///
/// Determinism: ties on similarity are broken towards lower user ids, so a
/// fixed seed yields bit-identical graphs across runs.
///
/// Cost model: a full list caches its worst entry inline, so an offer that
/// cannot beat it — the vast majority once a greedy build warms up — is
/// rejected in O(1), without touching the entry buffer. Only candidates
/// that pass that test pay the O(k) membership scan, and only membership
/// and similarity changes pay an O(k) rescan.
/// Replacement happens in place at the worst entry's index, so entry order
/// (which NNDescent's seeded sampling walks) is the same as with a rescan
/// per offer.
#[derive(Debug, Clone)]
pub struct NeighborList {
    k: usize,
    entries: Vec<NeighborEntry>,
    worst: Worst,
}

/// The cached worst entry of a full list (`sim = -inf` while underfull).
#[derive(Debug, Clone, Copy)]
struct Worst {
    sim: f64,
    user: u32,
    index: u32,
}

impl Worst {
    const NONE: Worst = Worst {
        sim: f64::NEG_INFINITY,
        user: u32::MAX,
        index: 0,
    };
}

/// What happened to an offered candidate — the eviction-reporting variant
/// of [`NeighborList::insert`] that reverse-adjacency maintenance needs:
/// every membership change the list makes is visible to the caller, so an
/// inverted index can be updated without rescanning the list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Offer {
    /// The candidate was already present; the list is unchanged. On a
    /// full list only a member that beats the worst entry reports this.
    Duplicate,
    /// The list was full and the candidate, member or not, did not beat
    /// the worst entry.
    Rejected,
    /// The candidate was appended to a non-full list.
    Added,
    /// The candidate replaced the worst entry; the evicted user is carried
    /// so reverse indices can drop the stale edge.
    Replaced(u32),
}

impl Offer {
    /// True when the offer changed the list's membership.
    pub fn accepted(&self) -> bool {
        matches!(self, Offer::Added | Offer::Replaced(_))
    }
}

impl NeighborList {
    /// Creates an empty list of capacity `k`.
    ///
    /// # Panics
    /// Panics if `k == 0`.
    pub fn new(k: usize) -> Self {
        assert!(k > 0, "k must be positive");
        NeighborList {
            k,
            entries: Vec::with_capacity(k),
            worst: Worst::NONE,
        }
    }

    /// Capacity.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Current number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no entry is stored.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// True if `user` is already a neighbour.
    pub fn contains(&self, user: u32) -> bool {
        self.entries.iter().any(|e| e.user == user)
    }

    /// Offers `(user, sim)`; returns `true` if the list changed.
    ///
    /// Rejects duplicates; when full, replaces the worst entry if the
    /// candidate is strictly better (ties towards lower user id). Inserted
    /// entries carry `is_new = true`.
    #[inline]
    pub fn insert(&mut self, user: u32, sim: f64) -> bool {
        // `offer` starts with the same O(1) test; repeating it here keeps
        // the rejection path, the common one in a warm greedy build,
        // inlined at the call site instead of behind a call.
        self.beats_worst(user, sim) && self.offer(user, sim).accepted()
    }

    /// [`NeighborList::insert`] with a full account of the outcome: whether
    /// the candidate was rejected, was a duplicate, was appended, or
    /// replaced (and if so, whom it evicted).
    ///
    /// A candidate that cannot beat the cached worst entry of a full list
    /// cannot change it, member or not, so that O(1) test runs first and
    /// answers [`Offer::Rejected`] even for a member; only candidates that
    /// pass it pay the membership scan that answers [`Offer::Duplicate`].
    pub fn offer(&mut self, user: u32, sim: f64) -> Offer {
        debug_assert!(!sim.is_nan(), "similarity must not be NaN");
        if !self.beats_worst(user, sim) {
            return Offer::Rejected;
        }
        if self.contains(user) {
            return Offer::Duplicate;
        }
        let entry = NeighborEntry {
            sim,
            user,
            is_new: true,
        };
        if self.entries.len() < self.k {
            self.entries.push(entry);
            if self.entries.len() == self.k {
                self.refresh_worst();
            }
            return Offer::Added;
        }
        let evicted = self.worst.user;
        self.entries[self.worst.index as usize] = entry;
        self.refresh_worst();
        Offer::Replaced(evicted)
    }

    /// Overwrites the stored similarity of `user` in place, preserving its
    /// membership and `is_new` flag. Returns `false` when `user` is not in
    /// the list.
    ///
    /// This is the correct move when a *member's* similarity changes (e.g.
    /// its profile was updated): the entry may now be the worst and get
    /// displaced by future candidates, but it must not jump the
    /// replace-the-worst queue the way a remove-then-insert would.
    pub fn update_sim(&mut self, user: u32, sim: f64) -> bool {
        debug_assert!(!sim.is_nan(), "similarity must not be NaN");
        let Some(i) = self.entries.iter().position(|e| e.user == user) else {
            return false;
        };
        self.entries[i].sim = sim;
        if self.entries.len() == self.k {
            if i == self.worst.index as usize {
                // The worst entry changed: it may no longer be the worst.
                self.refresh_worst();
            } else if !self.beats_worst(user, sim) {
                // Another entry dropped to (or below) the worst.
                self.worst = Worst {
                    sim,
                    user,
                    index: i as u32,
                };
            }
        }
        true
    }

    /// Removes `user` from the list; returns `true` if it was present.
    /// Entries are unordered, so removal is a swap-delete.
    pub fn remove(&mut self, user: u32) -> bool {
        match self.entries.iter().position(|e| e.user == user) {
            Some(i) => {
                self.entries.swap_remove(i);
                self.worst = Worst::NONE;
                true
            }
            None => false,
        }
    }

    /// Similarity of the worst entry (`-inf` while the list is not full, so
    /// any candidate can pass a `sim > worst` pre-check).
    #[inline]
    pub fn worst_sim(&self) -> f64 {
        self.worst.sim
    }

    /// Entries, unsorted.
    pub fn entries(&self) -> &[NeighborEntry] {
        &self.entries
    }

    /// Clears the `is_new` flag of the entry at `index` (NNDescent marks an
    /// entry once it has taken part in a local join). Flags are the only
    /// per-entry state callers may change directly: similarities change
    /// through [`NeighborList::update_sim`], which keeps the cached worst
    /// entry in step.
    ///
    /// # Panics
    /// Panics if `index >= len()`.
    pub fn mark_joined(&mut self, index: usize) {
        self.entries[index].is_new = false;
    }

    /// Neighbour ids, unsorted.
    pub fn users(&self) -> impl Iterator<Item = u32> + '_ {
        self.entries.iter().map(|e| e.user)
    }

    /// Converts to a sorted [`Scored`] list (descending similarity, ties by
    /// ascending user id).
    pub fn to_sorted(&self) -> Vec<Scored> {
        let mut out: Vec<Scored> = self
            .entries
            .iter()
            .map(|e| Scored {
                sim: e.sim,
                user: e.user,
            })
            .collect();
        out.sort_unstable_by(|a, b| {
            b.sim
                .partial_cmp(&a.sim)
                .expect("similarities are not NaN")
                .then(a.user.cmp(&b.user))
        });
        out
    }

    /// True when `(user, sim)` would displace the worst entry: always for
    /// an underfull list, else strictly better or tied towards a lower id.
    #[inline]
    fn beats_worst(&self, user: u32, sim: f64) -> bool {
        let w = self.worst;
        self.entries.len() < self.k || sim > w.sim || (sim == w.sim && user < w.user)
    }

    /// Recomputes the cached worst entry after a membership or similarity
    /// change: the lowest similarity, ties towards the higher user id (ids
    /// are distinct, so the worst entry is unique).
    fn refresh_worst(&mut self) {
        if self.entries.len() < self.k {
            self.worst = Worst::NONE;
            return;
        }
        let mut worst = 0usize;
        for (i, e) in self.entries.iter().enumerate().skip(1) {
            let w = &self.entries[worst];
            if e.sim < w.sim || (e.sim == w.sim && e.user > w.user) {
                worst = i;
            }
        }
        let w = self.entries[worst];
        self.worst = Worst {
            sim: w.sim,
            user: w.user,
            index: worst as u32,
        };
    }
}

/// Initialises one random neighbour list per user: `k` distinct random
/// neighbours (≠ owner), scored with the provider. Counts the similarity
/// evaluations it performs into `evals`.
pub fn random_lists<S: goldfinger_core::similarity::Similarity + ?Sized>(
    sim: &S,
    k: usize,
    rng: &mut StdRng,
    evals: &mut u64,
) -> Vec<NeighborList> {
    let n = sim.n_users();
    (0..n)
        .map(|u| {
            let mut list = NeighborList::new(k);
            let wanted = k.min(n.saturating_sub(1));
            let mut guard = 0usize;
            while list.len() < wanted && guard < 20 * k + 100 {
                guard += 1;
                let v = rng.gen_range(0..n) as u32;
                if v as usize == u || list.contains(v) {
                    continue;
                }
                *evals += 1;
                list.insert(v, sim.similarity(u as u32, v));
            }
            list
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use goldfinger_core::profile::ProfileStore;
    use goldfinger_core::similarity::ExplicitJaccard;
    use rand::SeedableRng;

    #[test]
    fn insert_dedups_and_replaces_worst() {
        let mut l = NeighborList::new(2);
        assert!(l.insert(1, 0.5));
        assert!(!l.insert(1, 0.5), "duplicate must be rejected");
        assert!(l.insert(2, 0.3));
        assert_eq!(l.worst_sim(), 0.3);
        assert!(l.insert(3, 0.4)); // replaces user 2
        assert!(!l.contains(2));
        assert!(!l.insert(4, 0.1));
        assert_eq!(l.len(), 2);
    }

    #[test]
    fn offer_reports_membership_changes() {
        let mut l = NeighborList::new(2);
        assert_eq!(l.offer(1, 0.5), Offer::Added);
        assert_eq!(l.offer(1, 0.9), Offer::Duplicate);
        assert_eq!(l.offer(2, 0.3), Offer::Added);
        assert_eq!(l.offer(3, 0.4), Offer::Replaced(2));
        assert_eq!(l.offer(4, 0.1), Offer::Rejected);
        assert!(Offer::Added.accepted() && Offer::Replaced(7).accepted());
        assert!(!Offer::Rejected.accepted() && !Offer::Duplicate.accepted());
    }

    #[test]
    fn update_sim_changes_value_in_place() {
        let mut l = NeighborList::new(2);
        l.insert(1, 0.5);
        l.insert(2, 0.8);
        l.mark_joined(0);
        assert!(l.update_sim(1, 0.1));
        assert!(!l.update_sim(9, 0.7), "absent user cannot be updated");
        let e = l.entries().iter().find(|e| e.user == 1).unwrap();
        assert_eq!(e.sim, 0.1);
        assert!(!e.is_new, "in-place update must preserve the flag");
        assert_eq!(l.len(), 2);
        // The downgraded entry is now the worst and loses to a fresh offer.
        assert_eq!(l.offer(3, 0.4), Offer::Replaced(1));
    }

    #[test]
    fn cached_worst_follows_every_change() {
        let mut l = NeighborList::new(3);
        l.insert(1, 0.5);
        l.insert(2, 0.8);
        assert_eq!(l.worst_sim(), f64::NEG_INFINITY, "underfull");
        l.insert(3, 0.6);
        assert_eq!(l.worst_sim(), 0.5, "the filling push caches the worst");
        assert!(!l.insert(4, 0.4), "below the worst: rejected in O(1)");
        assert_eq!(
            l.offer(2, 0.9),
            Offer::Duplicate,
            "a member above the worst"
        );
        assert_eq!(l.offer(2, 0.2), Offer::Rejected, "a member below the worst");
        assert_eq!(l.offer(5, 0.7), Offer::Replaced(1));
        assert_eq!(l.entries()[0].user, 5, "replacement stays in place");
        assert_eq!(l.worst_sim(), 0.6);
        assert!(l.update_sim(2, 0.1));
        assert_eq!(l.worst_sim(), 0.1, "a member dropped below the worst");
        assert!(l.update_sim(2, 0.95));
        assert_eq!(l.worst_sim(), 0.6, "the worst member improved");
        assert!(l.remove(3));
        assert_eq!(l.worst_sim(), f64::NEG_INFINITY, "underfull again");
        assert!(l.insert(6, 0.0), "an underfull list admits anything");
    }

    #[test]
    fn remove_deletes_membership() {
        let mut l = NeighborList::new(3);
        l.insert(1, 0.5);
        l.insert(2, 0.8);
        assert!(l.remove(1));
        assert!(!l.remove(1), "second removal is a no-op");
        assert!(!l.contains(1));
        assert_eq!(l.len(), 1);
    }

    #[test]
    fn ties_replace_towards_lower_ids() {
        let mut l = NeighborList::new(1);
        l.insert(9, 0.5);
        assert!(l.insert(3, 0.5), "equal sim but lower id should replace");
        assert!(!l.insert(7, 0.5), "equal sim but higher id should not");
        assert!(l.contains(3));
    }

    #[test]
    fn to_sorted_orders_descending() {
        let mut l = NeighborList::new(3);
        l.insert(5, 0.2);
        l.insert(6, 0.9);
        l.insert(7, 0.2);
        let sorted = l.to_sorted();
        assert_eq!(
            sorted.iter().map(|s| s.user).collect::<Vec<_>>(),
            vec![6, 5, 7]
        );
    }

    #[test]
    fn new_flag_set_on_insert() {
        let mut l = NeighborList::new(2);
        l.insert(1, 0.5);
        assert!(l.entries()[0].is_new);
        l.mark_joined(0);
        assert!(!l.entries()[0].is_new);
    }

    #[test]
    fn random_lists_have_k_distinct_non_self_entries() {
        let profiles =
            ProfileStore::from_item_lists((0..20).map(|i| vec![i as u32, i as u32 + 1]).collect());
        let sim = ExplicitJaccard::new(&profiles);
        let mut rng = StdRng::seed_from_u64(0);
        let mut evals = 0u64;
        let lists = random_lists(&sim, 5, &mut rng, &mut evals);
        assert_eq!(lists.len(), 20);
        assert!(evals >= 5 * 20);
        for (u, l) in lists.iter().enumerate() {
            assert_eq!(l.len(), 5);
            assert!(!l.contains(u as u32));
            let mut ids: Vec<u32> = l.users().collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids.len(), 5);
        }
    }

    #[test]
    fn random_lists_handle_tiny_populations() {
        let profiles = ProfileStore::from_item_lists(vec![vec![1], vec![2]]);
        let sim = ExplicitJaccard::new(&profiles);
        let mut rng = StdRng::seed_from_u64(0);
        let mut evals = 0u64;
        let lists = random_lists(&sim, 30, &mut rng, &mut evals);
        assert_eq!(lists[0].len(), 1);
        assert_eq!(lists[1].len(), 1);
    }
}
