//! The agent contract that protocols implement.

use std::fmt;

use crate::opinion::Opinion;
use crate::rng::SimRng;

/// A round number (the global, zero-based round counter of the engine).
///
/// Protocols that do not assume a global clock should ignore the value and
/// maintain their own [`LocalClock`](crate::LocalClock).
pub type Round = u64;

/// Identifier of an agent within a population.
///
/// Only the simulation engine ever sees agent identifiers; they are used for
/// routing and tracing.  They are *never* exposed to protocol logic, which
/// keeps the model anonymous as required by the paper.
///
/// Stored as 32 bits so a routed [`Delivery`](crate::Delivery) packs into
/// 12 bytes — population indices are bounded well below `u32::MAX` by the
/// scheduler's 31-bit routing-index range, and the round loop streams
/// millions of deliveries per second through the cache hierarchy.
///
/// # Example
///
/// ```
/// use flip_model::AgentId;
///
/// let id = AgentId::new(3);
/// assert_eq!(id.index(), 3);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct AgentId(u32);

impl AgentId {
    /// Wraps a population index.
    ///
    /// # Panics
    ///
    /// Panics if `index` does not fit in the 32-bit identifier space (the
    /// engine's population bound rejects such sizes long before any id is
    /// minted).
    #[must_use]
    pub const fn new(index: usize) -> Self {
        assert!(index <= u32::MAX as usize, "agent index exceeds u32 range");
        Self(index as u32)
    }

    /// Returns the underlying population index.
    #[must_use]
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent#{}", self.0)
    }
}

impl From<usize> for AgentId {
    fn from(index: usize) -> Self {
        Self::new(index)
    }
}

/// A report of how one agent callback changed the agent's opinion, so the
/// engine can maintain a running [`Census`](crate::Census) in O(changes)
/// instead of recounting all `n` agents every round.
///
/// `before` and `after` are the opinions [`Agent::opinion`] would have
/// returned immediately before and after the callback ran.  A callback that
/// cannot change the opinion returns [`OpinionDelta::NONE`]; a callback with
/// non-trivial internal state simply captures `self.opinion()` on entry and
/// exit:
///
/// ```ignore
/// fn deliver(&mut self, round: Round, message: Opinion, rng: &mut SimRng) -> OpinionDelta {
///     let before = self.opinion();
///     /* ... mutate state ... */
///     OpinionDelta::between(before, self.opinion())
/// }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[must_use = "the engine needs the delta to keep its census consistent"]
pub struct OpinionDelta {
    /// Opinion held before the callback ran.
    pub before: Option<Opinion>,
    /// Opinion held after the callback ran.
    pub after: Option<Opinion>,
}

impl OpinionDelta {
    /// The delta of a callback that left the opinion untouched.
    pub const NONE: Self = Self {
        before: None,
        after: None,
    };

    /// A delta from explicit before/after opinions.
    pub fn between(before: Option<Opinion>, after: Option<Opinion>) -> Self {
        Self { before, after }
    }

    /// The delta of an undecided agent adopting its first opinion.
    pub fn adopted(opinion: Opinion) -> Self {
        Self {
            before: None,
            after: Some(opinion),
        }
    }

    /// Whether the callback actually changed the opinion.
    #[must_use]
    pub fn is_change(&self) -> bool {
        self.before != self.after
    }
}

/// A per-agent protocol state machine driven by the [`Simulation`](crate::Simulation) engine.
///
/// In every round the engine:
///
/// 1. asks every agent what to [`send`](Agent::send) (or whether to *wait*),
/// 2. routes each sent message to a uniformly random other agent, keeps one
///    message per recipient (uniformly among those that arrived), corrupts the
///    bit through the channel, and calls [`deliver`](Agent::deliver) on the
///    recipient,
/// 3. calls [`end_round`](Agent::end_round) on every agent, unless
///    [`end_round_due`](Agent::end_round_due) says the pass has nothing to do.
///
/// Agents never learn who they talked to.  The `round` argument is the global
/// round counter; protocols relying only on local clocks must ignore it.
///
/// # Census contract
///
/// [`deliver`](Agent::deliver) and [`end_round`](Agent::end_round) return an
/// [`OpinionDelta`] describing any change of [`opinion`](Agent::opinion) they
/// caused; the engine folds these into a running census instead of recounting
/// the population.  [`send`](Agent::send) takes `&mut self` only for internal
/// bookkeeping — it must **not** change the value `opinion()` reports, since
/// it has no way to report a delta.  (Debug builds of the engine periodically
/// recount the population and assert agreement.)
pub trait Agent {
    /// Whether the end-of-round pass must run in `round` for this population.
    ///
    /// The engine asks once per round and skips its O(n) pass over
    /// [`end_round`](Agent::end_round) when the answer is `false`.  The
    /// default, `true`, always runs the pass.  Protocols that never act at
    /// end of round (rumor spreading, voter models, beacons) return `false`;
    /// phase-based protocols on one shared schedule return whether `round`
    /// ends a phase.
    ///
    /// Contract: when this returns `false`, `end_round` is a no-op for every
    /// agent in `agents` — it returns [`OpinionDelta::NONE`], draws nothing
    /// from the RNG and changes no state.  (Debug builds of the engine
    /// periodically run the skipped pass on the live agents with a cloned
    /// RNG and assert the first two; the third is not checked.)
    fn end_round_due(agents: &[Self], round: Round) -> bool
    where
        Self: Sized,
    {
        let _ = (agents, round);
        true
    }

    /// Decides what to transmit this round; `None` means stay silent ("breathe").
    ///
    /// Must not change the opinion reported by [`opinion`](Agent::opinion)
    /// (see the census contract above).
    fn send(&mut self, round: Round, rng: &mut SimRng) -> Option<Opinion>;

    /// Handles a message delivered to this agent (already corrupted by the
    /// channel), reporting any opinion change it caused.
    fn deliver(&mut self, round: Round, message: Opinion, rng: &mut SimRng) -> OpinionDelta;

    /// Hook invoked after all deliveries of the round; the default does
    /// nothing and reports no change.
    ///
    /// Phase-based protocols use this to make end-of-phase decisions (choosing
    /// an initial opinion, taking the majority of samples, ...).
    fn end_round(&mut self, round: Round, rng: &mut SimRng) -> OpinionDelta {
        let _ = (round, rng);
        OpinionDelta::NONE
    }

    /// The opinion the agent currently holds, if it has adopted one.
    fn opinion(&self) -> Option<Opinion>;

    /// Whether the agent has been activated (holds an opinion or has heard a message).
    ///
    /// The default considers an agent active exactly when it holds an opinion.
    fn is_active(&self) -> bool {
        self.opinion().is_some()
    }

    /// Whether the agent has irrevocably finished executing its protocol.
    ///
    /// The engine never forces termination; this is informational (used by
    /// [`Simulation::run_until`](crate::Simulation::run_until) predicates and
    /// experiment harnesses).  The default is `false`.
    fn is_done(&self) -> bool {
        false
    }
}

/// Debug-build audit of the [`Agent::end_round_due`] contract, run by the
/// engines in a round whose end-of-round pass they skipped: runs that pass
/// against a clone of the stream and asserts that no hook reports a change
/// and none draws from it.
///
/// It covers only the delta and RNG parts of the contract.  The hooks run
/// on the live agents (the engines do not require `A: Clone`), so an agent
/// whose skipped hook changes its state without reporting a delta goes
/// unnoticed here, and its debug and release runs differ.
#[cfg(debug_assertions)]
pub(crate) fn audit_skipped_end_round<A: Agent>(agents: &mut [A], round: Round, rng: &SimRng) {
    use rand::RngCore;

    let mut probe = rng.clone();
    for agent in agents {
        assert_eq!(
            agent.end_round(round, &mut probe),
            OpinionDelta::NONE,
            "end_round changed an opinion in round {round}, which end_round_due skipped"
        );
    }
    assert_eq!(
        probe.next_u64(),
        rng.clone().next_u64(),
        "end_round drew from the RNG in round {round}, which end_round_due skipped"
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Silent;

    impl Agent for Silent {
        fn send(&mut self, _round: Round, _rng: &mut SimRng) -> Option<Opinion> {
            None
        }
        fn deliver(&mut self, _round: Round, _message: Opinion, _rng: &mut SimRng) -> OpinionDelta {
            OpinionDelta::NONE
        }
        fn opinion(&self) -> Option<Opinion> {
            None
        }
    }

    #[test]
    fn default_hooks_are_benign() {
        let mut agent = Silent;
        let mut rng = SimRng::from_seed(0);
        assert_eq!(agent.end_round(0, &mut rng), OpinionDelta::NONE);
        assert!(!agent.is_active());
        assert!(!agent.is_done());
    }

    #[test]
    fn opinion_delta_reports_changes() {
        use crate::opinion::Opinion;
        assert!(!OpinionDelta::NONE.is_change());
        assert!(OpinionDelta::adopted(Opinion::One).is_change());
        assert!(!OpinionDelta::between(Some(Opinion::One), Some(Opinion::One)).is_change());
        assert!(OpinionDelta::between(Some(Opinion::One), Some(Opinion::Zero)).is_change());
        assert!(OpinionDelta::between(Some(Opinion::One), None).is_change());
    }

    #[test]
    fn agent_id_round_trips() {
        let id = AgentId::from(17usize);
        assert_eq!(id.index(), 17);
        assert_eq!(id, AgentId::new(17));
        assert_eq!(id.to_string(), "agent#17");
    }

    #[test]
    fn agent_id_ordering_follows_index() {
        assert!(AgentId::new(1) < AgentId::new(2));
    }
}
