//! Set dueling: leader and follower sets for adaptive replacement policies.
//!
//! Modern Intel last-level caches implement *adaptive* replacement (Appendix B
//! of the paper, building on Qureshi et al.'s DIP and Jaleel et al.'s DRRIP):
//! a few fixed *leader* sets permanently run one of two competing policies,
//! a saturating counter (PSEL) tracks which leader group misses less, and the
//! remaining *follower* sets dynamically adopt the winning policy.
//!
//! The paper only learns the leader sets (whose policy is fixed and
//! deterministic); this module provides the bookkeeping that the simulated
//! last-level caches use to reproduce that structure, so that the leader-set
//! detection experiment (Appendix B) and the "followers are non-deterministic"
//! observation can be replayed against the simulator.

use std::sync::atomic::{AtomicI32, Ordering};
use std::sync::Arc;

/// Role of a cache set in the set-dueling scheme.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DuelingRole {
    /// Leader set permanently running the *primary* policy (the
    /// thrash-vulnerable one, e.g. New2 on the simulated Skylake L3).
    LeaderPrimary,
    /// Leader set permanently running the *alternate* policy (the
    /// thrash-resistant one, e.g. a BRRIP-like insertion).
    LeaderAlternate,
    /// Follower set that adopts whichever policy the PSEL counter favours.
    Follower,
}

/// Configuration of the set-dueling controller.
#[derive(Debug, Clone)]
pub struct SetDuelingConfig {
    /// Role of every set, indexed by flat set index
    /// (`slice * sets_per_slice + set`).
    pub roles: Vec<DuelingRole>,
    /// Number of bits of the PSEL saturating counter (10 in the DIP/DRRIP
    /// proposals).
    pub psel_bits: u32,
}

/// The set-dueling controller: per-set roles plus the shared PSEL counter.
///
/// The PSEL counter is shared between all sets of a level (and, as the paper
/// observes on Skylake and Kaby Lake, across slices), so it lives behind an
/// [`Arc`] and uses atomic updates; cloning a [`SetDueling`] shares the
/// counter.
#[derive(Debug, Clone)]
pub struct SetDueling {
    roles: Vec<DuelingRole>,
    psel: Arc<AtomicI32>,
    max_abs: i32,
}

impl SetDueling {
    /// Creates a controller from `config`.
    ///
    /// # Panics
    ///
    /// Panics if `psel_bits` is 0 or larger than 20, or if `roles` is empty.
    pub fn new(config: SetDuelingConfig) -> Self {
        assert!(!config.roles.is_empty(), "at least one set is required");
        assert!(
            (1..=20).contains(&config.psel_bits),
            "psel_bits must be between 1 and 20"
        );
        SetDueling {
            roles: config.roles,
            psel: Arc::new(AtomicI32::new(0)),
            max_abs: (1 << (config.psel_bits - 1)) - 1,
        }
    }

    /// Creates a controller where every set is a follower (no dueling); used
    /// by non-adaptive levels.
    pub fn all_followers(num_sets: usize) -> Self {
        SetDueling::new(SetDuelingConfig {
            roles: vec![DuelingRole::Follower; num_sets.max(1)],
            psel_bits: 10,
        })
    }

    /// Role of the set with flat index `flat_set`.
    ///
    /// # Panics
    ///
    /// Panics if `flat_set` is out of range.
    pub fn role(&self, flat_set: usize) -> DuelingRole {
        self.roles[flat_set]
    }

    /// Number of sets covered by this controller.
    pub fn num_sets(&self) -> usize {
        self.roles.len()
    }

    /// Flat indices of all leader sets of the given role.
    pub fn leaders(&self, role: DuelingRole) -> Vec<usize> {
        self.roles
            .iter()
            .enumerate()
            .filter(|(_, &r)| r == role)
            .map(|(i, _)| i)
            .collect()
    }

    /// Records a miss in a leader set, moving PSEL towards the *other*
    /// policy.  Misses in follower sets do not update PSEL.
    pub fn record_miss(&self, role: DuelingRole) {
        let delta = match role {
            DuelingRole::LeaderPrimary => 1,
            DuelingRole::LeaderAlternate => -1,
            DuelingRole::Follower => return,
        };
        let max_abs = self.max_abs;
        let _ = self
            .psel
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
                Some((v + delta).clamp(-max_abs, max_abs))
            });
    }

    /// Whether follower sets should currently use the *alternate* policy
    /// (true when the primary leaders are missing more).
    pub fn followers_use_alternate(&self) -> bool {
        self.psel.load(Ordering::Relaxed) > 0
    }

    /// Current PSEL value (positive: primary leaders miss more).
    pub fn psel(&self) -> i32 {
        self.psel.load(Ordering::Relaxed)
    }

    /// Forces the PSEL counter to `value` (clamped to the counter's range).
    ///
    /// Real hardware offers no such knob; it exists so experiments can plant
    /// a known duel state — leader-set detection must work from *any* initial
    /// PSEL, and the cartography prober flips followers between both policies
    /// to demonstrate their non-determinism.
    pub fn force_psel(&self, value: i32) {
        self.psel
            .store(value.clamp(-self.max_abs, self.max_abs), Ordering::Relaxed);
    }
}

/// Leader-set selection function observed on the simulated Skylake and Kaby
/// Lake L3 caches (Appendix B):
///
/// * primary ("thrash-vulnerable", policy New2) leaders satisfy
///   `(((set & 0x3e0) >> 5) ^ (set & 0x1f)) == 0x00 && (set & 0x2) == 0x0`;
/// * alternate leaders satisfy
///   `(((set & 0x3e0) >> 5) ^ (set & 0x1f)) == 0x1f && (set & 0x2) == 0x2`.
///
/// The same selection applies in every slice.
pub fn skylake_like_roles(sets_per_slice: usize, slices: usize) -> Vec<DuelingRole> {
    let mut roles = Vec::with_capacity(sets_per_slice * slices);
    for _slice in 0..slices {
        for set in 0..sets_per_slice {
            let fold = ((set & 0x3e0) >> 5) ^ (set & 0x1f);
            let role = if fold == 0x00 && (set & 0x2) == 0x0 {
                DuelingRole::LeaderPrimary
            } else if fold == 0x1f && (set & 0x2) == 0x2 {
                DuelingRole::LeaderAlternate
            } else {
                DuelingRole::Follower
            };
            roles.push(role);
        }
    }
    roles
}

/// Leader-set selection observed on the simulated Haswell L3 (Appendix B):
/// sets 512–575 of slice 0 are primary leaders and sets 768–831 of slice 0 are
/// alternate leaders; every other set follows.
pub fn haswell_like_roles(sets_per_slice: usize, slices: usize) -> Vec<DuelingRole> {
    let mut roles = vec![DuelingRole::Follower; sets_per_slice * slices];
    for (set, role) in roles.iter_mut().enumerate().take(sets_per_slice) {
        if (512..=575).contains(&set) {
            *role = DuelingRole::LeaderPrimary;
        } else if (768..=831).contains(&set) {
            *role = DuelingRole::LeaderAlternate;
        }
    }
    roles
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn psel_moves_towards_the_policy_that_misses_less() {
        let d = SetDueling::new(SetDuelingConfig {
            roles: vec![
                DuelingRole::LeaderPrimary,
                DuelingRole::LeaderAlternate,
                DuelingRole::Follower,
            ],
            psel_bits: 10,
        });
        assert!(!d.followers_use_alternate());
        for _ in 0..5 {
            d.record_miss(DuelingRole::LeaderPrimary);
        }
        assert!(d.followers_use_alternate());
        for _ in 0..10 {
            d.record_miss(DuelingRole::LeaderAlternate);
        }
        assert!(!d.followers_use_alternate());
    }

    #[test]
    fn psel_saturates() {
        let d = SetDueling::new(SetDuelingConfig {
            roles: vec![DuelingRole::LeaderPrimary],
            psel_bits: 4,
        });
        for _ in 0..100 {
            d.record_miss(DuelingRole::LeaderPrimary);
        }
        assert_eq!(d.psel(), 7);
    }

    #[test]
    fn follower_misses_do_not_move_psel() {
        let d = SetDueling::all_followers(8);
        d.record_miss(DuelingRole::Follower);
        assert_eq!(d.psel(), 0);
    }

    #[test]
    fn cloning_shares_the_counter() {
        let d = SetDueling::all_followers(1);
        let d2 = d.clone();
        d.record_miss(DuelingRole::Follower);
        assert_eq!(d2.psel(), d.psel());
    }

    #[test]
    fn skylake_selection_matches_the_published_formula() {
        let roles = skylake_like_roles(1024, 1);
        // Set 0 satisfies the primary condition; set 33 = 0b0000100001 folds
        // to 0b00001 ^ 0b00001 = 0 and has bit 1 clear, so it is also primary
        // (the paper's Table 4 lists 0, 33, 132, 165, … as analysed sets).
        assert_eq!(roles[0], DuelingRole::LeaderPrimary);
        assert_eq!(roles[33], DuelingRole::LeaderPrimary);
        assert_eq!(roles[132], DuelingRole::LeaderPrimary);
        assert_eq!(roles[165], DuelingRole::LeaderPrimary);
        assert_eq!(roles[957], DuelingRole::LeaderPrimary);
        // A couple of non-leader sets.
        assert_eq!(roles[1], DuelingRole::Follower);
        assert_eq!(roles[2], DuelingRole::Follower);
        // There are 16 primary leaders per slice for 1024 sets.
        let primaries = roles
            .iter()
            .filter(|&&r| r == DuelingRole::LeaderPrimary)
            .count();
        assert_eq!(primaries, 16);
    }

    #[test]
    fn haswell_selection_is_restricted_to_slice_zero() {
        let roles = haswell_like_roles(2048, 4);
        assert_eq!(roles[512], DuelingRole::LeaderPrimary);
        assert_eq!(roles[575], DuelingRole::LeaderPrimary);
        assert_eq!(roles[768], DuelingRole::LeaderAlternate);
        assert_eq!(roles[2048 + 512], DuelingRole::Follower);
    }

    #[test]
    #[should_panic(expected = "psel_bits")]
    fn rejects_zero_psel_bits() {
        SetDueling::new(SetDuelingConfig {
            roles: vec![DuelingRole::Follower],
            psel_bits: 0,
        });
    }
}
