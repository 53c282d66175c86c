//! Homogeneous populations for the counts engine.
//!
//! A homogeneous, anonymous population is fully described by how many
//! agents sit in each state of a small state machine.  [`DenseProtocol`] is
//! that machine and [`DensePopulation`] holds the packed per-state counts.
//! They are the one-stratum case of the counts engine,
//! [`StratifiedSimulation`](crate::StratifiedSimulation): every dense
//! protocol is a one-stratum [`StratifiedProtocol`](crate::StratifiedProtocol)
//! through a blanket impl, and
//! [`StratifiedSimulation::single`](crate::StratifiedSimulation::single)
//! runs a dense population in `O(#states)` binomial draws per round instead
//! of `O(n)` agent updates.  See the [`stratified`](crate::StratifiedSimulation)
//! module docs for the engine's exactness contract.
//!
//! # Example
//!
//! ```
//! use flip_model::{BinarySymmetricChannel, RumorProtocol, SimulationConfig, StratifiedSimulation};
//!
//! # fn main() -> Result<(), flip_model::FlipError> {
//! // One million agents, one thousand informed: far beyond the per-agent engine.
//! let population = RumorProtocol::population(1_000_000, 0, 1_000);
//! let channel = BinarySymmetricChannel::from_epsilon(0.3)?;
//! let config = SimulationConfig::new(1_000_000).with_seed(7);
//! let mut sim = StratifiedSimulation::single(RumorProtocol, channel, population, config)?;
//! sim.run(100);
//! assert!(sim.census().active() > 990_000);
//! # Ok(())
//! # }
//! ```

use crate::agent::Round;
use crate::error::FlipError;
use crate::opinion::Opinion;
use crate::population::Census;

/// A protocol expressed as a finite state machine over a small state space,
/// runnable by the counts engine in `O(#states)` per round.
///
/// States are indices in `0..state_count()`.  All agents in the same state are
/// interchangeable (the population is homogeneous and anonymous), which is
/// what lets the engine track counts instead of agents.  Transitions may
/// depend on the global round, so phase-based protocols can encode their
/// schedule without enlarging the state space.
pub trait DenseProtocol {
    /// Number of states in the machine (must be at least 1 and constant).
    fn state_count(&self) -> usize;

    /// Send behaviour of a state: `Some((symbol, probability))` when agents in
    /// `state` push `symbol` with the given probability this round, `None`
    /// when they stay silent ("breathe").
    fn send(&self, state: usize, round: Round) -> Option<(Opinion, f64)>;

    /// Successor state for an agent in `state` that accepts `heard` this round.
    fn on_receive(&self, state: usize, heard: Opinion, round: Round) -> usize;

    /// End-of-round successor, applied to every agent *after* reception (the
    /// dense analogue of [`Agent::end_round`](crate::Agent::end_round)).
    /// Defaults to the identity.
    fn on_round_end(&self, state: usize, round: Round) -> usize {
        let _ = round;
        state
    }

    /// The opinion agents in `state` hold, or `None` when undecided.
    fn opinion_of(&self, state: usize) -> Option<Opinion>;
}

/// A population stored as packed per-state counts.
///
/// # Example
///
/// ```
/// use flip_model::{DensePopulation, Opinion, RumorProtocol};
///
/// let population = DensePopulation::from_counts(vec![97, 1, 2]).unwrap();
/// assert_eq!(population.n(), 100);
/// let census = population.census(&RumorProtocol);
/// assert_eq!(census.active(), 3);
/// assert_eq!(census.holding(Opinion::One), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DensePopulation {
    pub(crate) counts: Vec<u64>,
    n: u64,
}

impl DensePopulation {
    /// Builds one stratum of a
    /// [`StratifiedPopulation`](crate::StratifiedPopulation) from raw counts,
    /// skipping the two-agent minimum: individual strata may be empty; only
    /// the stratified total is subject to the push-gossip size floor.
    pub(crate) fn stratum_from_counts(counts: Vec<u64>) -> Self {
        let n: u64 = counts.iter().sum();
        Self { counts, n }
    }

    /// Builds a population from per-state counts (`counts[s]` agents in state `s`).
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::PopulationTooSmall`] if the counts sum to fewer
    /// than two agents.
    pub fn from_counts(counts: Vec<u64>) -> Result<Self, FlipError> {
        let n: u64 = counts.iter().sum();
        if n < 2 {
            return Err(FlipError::PopulationTooSmall { n: n as usize });
        }
        Ok(Self { counts, n })
    }

    /// Total number of agents.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of agents currently in `state`.
    #[must_use]
    pub fn count(&self, state: usize) -> u64 {
        self.counts.get(state).copied().unwrap_or(0)
    }

    /// All per-state counts, indexed by state.
    #[must_use]
    pub fn counts(&self) -> &[u64] {
        &self.counts
    }

    /// A census of the population under the given protocol's state→opinion map.
    #[must_use]
    pub fn census<P: DenseProtocol>(&self, protocol: &P) -> Census {
        let mut holding = [0u64; 2];
        for (state, &count) in self.counts.iter().enumerate() {
            if let Some(op) = protocol.opinion_of(state) {
                holding[op.index()] += count;
            }
        }
        Census::from_counts(holding[0] as usize, holding[1] as usize, self.n as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{BinarySymmetricChannel, NoiselessChannel};
    use crate::config::SimulationConfig;
    use crate::dense_protocols::{RumorProtocol, VoterProtocol};
    use crate::stratified::StratifiedSimulation;

    #[test]
    fn rejects_bad_constructions() {
        assert!(DensePopulation::from_counts(vec![1]).is_err());
        assert!(DensePopulation::from_counts(vec![0, 0]).is_err());

        let population = DensePopulation::from_counts(vec![5, 5]).unwrap();
        let config = SimulationConfig::new(11);
        assert!(matches!(
            StratifiedSimulation::single(VoterProtocol, NoiselessChannel, population, config),
            Err(FlipError::InvalidParameter { .. })
        ));

        // Counts vector longer than the protocol's state space.
        let population = DensePopulation::from_counts(vec![5, 5, 5, 5]).unwrap();
        let config = SimulationConfig::new(20);
        assert!(
            StratifiedSimulation::single(VoterProtocol, NoiselessChannel, population, config)
                .is_err()
        );
    }

    #[test]
    fn short_counts_vectors_are_padded() {
        // A rumor population seeded with only the undecided slot filled.
        let population = DensePopulation::from_counts(vec![10]).unwrap();
        let config = SimulationConfig::new(10);
        let sim = StratifiedSimulation::single(RumorProtocol, NoiselessChannel, population, config)
            .unwrap();
        assert_eq!(sim.population().stratum(0).counts().len(), 3);
    }

    #[test]
    fn silent_population_never_changes() {
        let population = RumorProtocol::population(100, 0, 0);
        let config = SimulationConfig::new(100).with_seed(1);
        let mut sim =
            StratifiedSimulation::single(RumorProtocol, NoiselessChannel, population, config)
                .unwrap();
        let summary = sim.step();
        assert_eq!(summary.metrics.messages_sent, 0);
        assert_eq!(summary.census_active, 0);
        sim.run(10);
        assert_eq!(sim.metrics().messages_sent, 0);
        assert_eq!(sim.census().active(), 0);
        assert_eq!(sim.round(), 11);
    }

    #[test]
    fn unanimous_population_is_a_fixed_point() {
        let population = RumorProtocol::population(1_000, 0, 1_000);
        let config = SimulationConfig::new(1_000).with_seed(2);
        let mut sim =
            StratifiedSimulation::single(RumorProtocol, NoiselessChannel, population, config)
                .unwrap();
        for _ in 0..20 {
            let summary = sim.step();
            assert_eq!(summary.census_active, 1_000);
            assert_eq!(summary.metrics.messages_sent, 1_000);
        }
        assert!(sim.census().is_unanimous(Opinion::One));
    }

    #[test]
    fn rumor_spreads_densely() {
        let population = RumorProtocol::population(100_000, 0, 10);
        let config = SimulationConfig::new(100_000)
            .with_seed(3)
            .with_reference(Opinion::One);
        let channel = BinarySymmetricChannel::from_epsilon(0.3).unwrap();
        let mut sim =
            StratifiedSimulation::single(RumorProtocol, channel, population, config).unwrap();
        let executed = sim.run_until(1_000, |s| s.census().active() == 100_000);
        assert!(executed < 100, "rumor should spread in O(log n) rounds");
        // With noise, both opinions circulate among the activated agents.
        assert!(sim.census().holding(Opinion::One) > 0);
        assert!(sim.census().holding(Opinion::Zero) > 0);
    }

    #[test]
    fn metrics_balance_and_flip_rate_is_calibrated() {
        let population = DensePopulation::from_counts(vec![500, 500]).unwrap();
        let config = SimulationConfig::new(1_000).with_seed(4);
        let channel = BinarySymmetricChannel::new(0.25).unwrap();
        let mut sim =
            StratifiedSimulation::single(VoterProtocol, channel, population, config).unwrap();
        sim.run(500);
        let m = sim.metrics();
        assert_eq!(m.messages_sent, m.messages_accepted + m.messages_collided);
        assert_eq!(m.rounds, 500);
        let rate = m.empirical_flip_rate().unwrap();
        assert!((rate - 0.25).abs() < 0.02, "rate = {rate}");
        // Roughly 1 - 1/e of the population receives per round when everyone sends.
        let accept_rate = m.messages_accepted as f64 / m.messages_sent as f64;
        assert!(
            (accept_rate - 0.632).abs() < 0.02,
            "accept rate = {accept_rate}"
        );
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let population = RumorProtocol::population(10_000, 5, 5);
            let config = SimulationConfig::new(10_000).with_seed(seed);
            let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
            let mut sim =
                StratifiedSimulation::single(RumorProtocol, channel, population, config).unwrap();
            let summaries: Vec<(usize, u64)> = (0..50)
                .map(|_| {
                    let s = sim.step();
                    (s.census_active, s.metrics.messages_sent)
                })
                .collect();
            (summaries, sim.metrics().clone())
        };
        let (s1, m1) = run(77);
        let (s2, m2) = run(77);
        assert_eq!(s1, s2);
        assert_eq!(m1, m2);
        let (s3, _) = run(78);
        assert_ne!(s1, s3, "different seeds should (almost surely) differ");
    }

    #[test]
    fn reference_is_reported_in_summaries() {
        let population = RumorProtocol::population(100, 10, 20);
        let config = SimulationConfig::new(100)
            .with_seed(5)
            .with_reference(Opinion::One);
        let mut sim =
            StratifiedSimulation::single(RumorProtocol, NoiselessChannel, population, config)
                .unwrap();
        let summary = sim.step();
        assert_eq!(
            summary.census_correct,
            Some(sim.census().holding(Opinion::One))
        );
        let (population, metrics) = sim.into_parts();
        assert_eq!(population.n(), 100);
        assert_eq!(metrics.rounds, 1);
    }
}
