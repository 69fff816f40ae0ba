//! Executable models of cache replacement policies.
//!
//! The paper (§2.2) models a replacement policy as a deterministic Mealy
//! machine over the alphabet `{Ln(0), …, Ln(n−1), Evct}` with outputs
//! `{⊥, 0, …, n−1}`.  This crate provides:
//!
//! * the [`ReplacementPolicy`] trait — an executable policy expressed with the
//!   same building blocks the paper's synthesis templates use (promotion on a
//!   hit, victim selection, insertion, normalization);
//! * concrete implementations of every policy the paper evaluates:
//!   [`Fifo`], [`Lru`], [`Plru`] (tree-based), [`Mru`] (bit-PLRU / NRU as in
//!   the Malamy patent), [`Lip`], [`Srrip`] in its HP and FP variants,
//!   probabilistic [`Brrip`] (used by the simulated adaptive last-level
//!   cache), and the two previously undocumented Intel policies [`New1`]
//!   (Skylake / Kaby Lake L2) and [`New2`] (Skylake / Kaby Lake L3 leader
//!   sets) as synthesized in Appendix C;
//! * [`PackedPolicy`] — bit-packed fast-path twins of every deterministic
//!   policy (the whole control state in one `u64` of 4-bit lanes at
//!   associativity ≤ 8), returned transparently by [`PolicyKind::build`],
//!   with the `Vec<u8>`-based implementations above retained as the
//!   reference oracle;
//! * [`policy_to_mealy`] — the reachability construction that produces the
//!   ground-truth automaton of a policy (the state counts of Table 2);
//! * [`PolicyKind`] — a registry for constructing policies by name, used by
//!   the benchmark harness and the simulated hardware configuration.
//!
//! # Example
//!
//! ```
//! use policies::{PolicyKind, ReplacementPolicy};
//!
//! let mut lru = PolicyKind::Lru.build(4).unwrap();
//! // Fill order is 0..3; touching line 0 makes line 1 the LRU victim.
//! lru.on_hit(0);
//! assert_eq!(lru.on_miss(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod alphabet;
mod fifo;
mod lip;
mod lru;
mod mealy_view;
mod mru;
mod new_intel;
mod packed;
mod plru;
mod registry;
mod srrip;

pub use alphabet::{PolicyInput, PolicyOutput};
pub use fifo::Fifo;
pub use lip::Lip;
pub use lru::Lru;
pub use mealy_view::{policy_alphabet, policy_to_mealy, PolicyMealy};
pub use mru::Mru;
pub use new_intel::{New1, New2};
pub use packed::{PackedPolicy, PACKED_MAX_ASSOC};
pub use plru::{Plru, PlruAssocError};
pub use registry::{PolicyError, PolicyKind};
pub use srrip::{Brrip, Srrip, SrripVariant};

use std::fmt;

/// An executable cache replacement policy for a single cache set.
///
/// Implementations are deterministic finite-state machines (with the sole
/// exception of [`Brrip`], which is explicitly probabilistic and only used to
/// emulate the adaptive follower sets of the simulated last-level cache).
///
/// The trait mirrors the rule structure of the paper's synthesis templates
/// (§5): a *promotion* rule applied on hits, an *eviction* rule selecting a
/// victim, and an *insertion* rule applied to the filled line, with
/// normalization folded into each step.
pub trait ReplacementPolicy: fmt::Debug + Send {
    /// Number of lines (ways) this policy instance manages.
    fn associativity(&self) -> usize;

    /// Updates the control state after a hit on `line`.
    ///
    /// # Panics
    ///
    /// Implementations panic if `line >= self.associativity()`.
    fn on_hit(&mut self, line: usize);

    /// Selects the line to evict for the next miss and performs any control
    /// state update that victim selection itself entails (e.g. the RRPV aging
    /// loop of SRRIP).
    fn victim(&mut self) -> usize;

    /// Updates the control state after inserting a new block into `line`.
    ///
    /// This is called with the line returned by [`ReplacementPolicy::victim`]
    /// on a regular miss, and directly with the index of an invalid line when
    /// the simulated hardware fills a line after a flush.
    ///
    /// # Panics
    ///
    /// Implementations panic if `line >= self.associativity()`.
    fn on_insert(&mut self, line: usize);

    /// Resets the control state to the policy's canonical initial state.
    fn reset(&mut self);

    /// Informs the policy that `line` was invalidated (e.g. by `clflush`).
    ///
    /// Most modelled policies keep their replacement metadata untouched on an
    /// invalidation (the default), which is why Flush+Refill is not a valid
    /// reset sequence for every cache in Table 4 of the paper.  Policies that
    /// do clear per-line metadata on invalidation (the simulated last-level
    /// cache) override this.
    fn on_invalidate(&mut self, line: usize) {
        let _ = line;
    }

    /// A canonical encoding of the control state.
    ///
    /// Two policy instances of the same type and associativity with equal
    /// state keys must behave identically on all future inputs; this is used
    /// by [`policy_to_mealy`] to enumerate the reachable state space and by
    /// tests to detect unintended nondeterminism.
    fn state_key(&self) -> Vec<u32>;

    /// Human-readable policy name (e.g. `"LRU"`, `"SRRIP-HP"`).
    fn name(&self) -> &'static str;

    /// Clones the policy into a boxed trait object.
    fn clone_box(&self) -> Box<dyn ReplacementPolicy>;

    /// Handles a complete miss: selects a victim, applies the insertion rule
    /// to it, and returns the victim line.
    fn on_miss(&mut self) -> usize {
        let v = self.victim();
        self.on_insert(v);
        v
    }

    /// Applies a policy-alphabet input and returns the corresponding output
    /// (Definition 2.1): `Ln(i)` yields `⊥`, `Evct` yields the victim line.
    fn apply(&mut self, input: PolicyInput) -> PolicyOutput {
        match input {
            PolicyInput::Line(i) => {
                self.on_hit(usize::from(i));
                PolicyOutput::None
            }
            PolicyInput::Evct => PolicyOutput::evicted(self.on_miss()),
        }
    }
}

impl Clone for Box<dyn ReplacementPolicy> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

pub(crate) fn assert_line_in_range(line: usize, assoc: usize) {
    assert!(
        line < assoc,
        "line index {line} out of range for associativity {assoc}"
    );
}

pub(crate) fn assert_valid_associativity(assoc: usize) {
    assert!(assoc >= 1, "associativity must be at least 1, got {assoc}");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn boxed_policies_are_cloneable() {
        let p: Box<dyn ReplacementPolicy> = Box::new(Lru::new(4));
        let mut q = p.clone();
        assert_eq!(q.associativity(), 4);
        q.on_hit(0);
        // The original is unaffected by mutating the clone.
        assert_eq!(p.state_key(), Lru::new(4).state_key());
    }

    #[test]
    fn apply_maps_inputs_to_outputs() {
        let mut p = Fifo::new(2);
        assert_eq!(p.apply(PolicyInput::Line(0)), PolicyOutput::None);
        assert_eq!(p.apply(PolicyInput::Evct), PolicyOutput::Evicted(0));
        assert_eq!(p.apply(PolicyInput::Evct), PolicyOutput::Evicted(1));
    }
}
