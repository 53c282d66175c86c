//! The counts engine: per-stratum counts against a shared message pool.
//!
//! The per-agent [`Simulation`](crate::Simulation) stores one object per
//! agent, which caps practical experiments near `n ≈ 10⁴–10⁵`.  The paper's
//! claims are asymptotic in `n`; reaching `n = 10⁶–10⁷` needs an engine
//! whose per-round cost is independent of `n`.  [`StratifiedSimulation`] is
//! that engine — the workspace's one counts engine.
//!
//! A population is stored as **strata**.  A stratum is an (agent-class ×
//! channel-class) pair with its own count vector, send table
//! ([`StratifiedProtocol::send`]) and channel (one [`Channel`] per stratum,
//! so each stratum has its own crossover).  Agents never move between
//! strata; all state transitions stay inside one.  A homogeneous population
//! is the one-stratum case: every [`DenseProtocol`] is a one-stratum
//! [`StratifiedProtocol`] through a blanket impl, and
//! [`StratifiedSimulation::single`] builds the engine from a
//! [`DensePopulation`] and one channel.
//!
//! Every round the strata push into **one shared global message pool**:
//! sends are one binomial per (stratum, state) cell, the pool's symbol mix
//! is global, and reception is one binomial pair per (stratum, state) cell
//! against the occupancy marginal of the whole population, so a round costs
//! `O(#strata × #states)` regardless of `n`.  The same round passes advance
//! the dense bulk of the [`HybridSimulation`](crate::HybridSimulation).
//!
//! # Exactness
//!
//! Sends, channel noise and state transitions are sampled from their exact
//! aggregate distributions.  The one approximation is collision resolution:
//! the per-agent engine throws `M` messages into mailboxes chosen uniformly
//! among each sender's `n − 1` peers and keeps one per non-empty mailbox (an
//! occupancy process with mild negative correlation between mailboxes and
//! no self-delivery), while the counts engine lets every agent receive
//! independently with the occupancy marginal `p = 1 − (1 − 1/(n−1))^M`.
//! Per-round means agree with the per-agent engine up to `O(1/n)` relative
//! error (the self-exclusion term a sender's own message contributes) and
//! fluctuations agree to `O(1)`; the two backends are therefore
//! *distributionally equivalent* for population-level statistics (and
//! exactly equal in every degenerate case where the dynamics are
//! deterministic — see `tests/dense_equivalence.rs`).  Seeded runs are
//! pinned bit for bit by `tests/dense_golden.rs`.
//!
//! # Example
//!
//! ```
//! use flip_model::{
//!     BinarySymmetricChannel, SimulationConfig, StratifiedSimulation, ZealotRumorProtocol,
//! };
//!
//! # fn main() -> Result<(), flip_model::FlipError> {
//! // A million-agent rumor population infiltrated by 1000 zealots that
//! // always push Zero: two strata, one shared message pool.
//! let protocol = ZealotRumorProtocol;
//! let population = ZealotRumorProtocol::population(1_000_000, 0, 1_000, 1_000);
//! let channel = BinarySymmetricChannel::from_epsilon(0.3)?;
//! let config = SimulationConfig::new(1_000_000).with_seed(7);
//! let mut sim =
//!     StratifiedSimulation::new(protocol, vec![channel; 2], population, config)?;
//! sim.run(100);
//! assert!(sim.census().active() > 990_000);
//! # Ok(())
//! # }
//! ```

use rand::distributions::{Binomial, Distribution};

use crate::agent::Round;
use crate::channel::Channel;
use crate::config::SimulationConfig;
use crate::dense::{DensePopulation, DenseProtocol};
use crate::engine::RoundSummary;
use crate::error::FlipError;
use crate::metrics::{Metrics, RoundMetrics};
use crate::opinion::Opinion;
use crate::population::Census;
use crate::rng::SimRng;

/// A protocol over a stratified population: a finite state machine per
/// stratum, runnable by [`StratifiedSimulation`] in `O(#strata × #states)`
/// per round.
///
/// The single-stratum case is exactly [`DenseProtocol`], and every dense
/// protocol implements this trait automatically through a blanket impl —
/// Rumor/Voter/MajoritySampler run unchanged on the counts engine.
pub trait StratifiedProtocol {
    /// Number of strata (must be at least 1 and constant).
    fn stratum_count(&self) -> usize;

    /// Number of states in `stratum`'s machine (at least 1, constant).
    fn state_count(&self, stratum: usize) -> usize;

    /// Send behaviour of a state in `stratum`: `Some((symbol, probability))`
    /// when its agents push `symbol` with the given probability this round,
    /// `None` when they stay silent ("breathe").
    fn send(&self, stratum: usize, state: usize, round: Round) -> Option<(Opinion, f64)>;

    /// Successor state (within the same stratum) for an agent in `stratum`'s
    /// `state` that accepts `heard` this round.
    fn on_receive(&self, stratum: usize, state: usize, heard: Opinion, round: Round) -> usize;

    /// End-of-round successor, applied after reception; defaults to identity.
    fn on_round_end(&self, stratum: usize, state: usize, round: Round) -> usize {
        let _ = round;
        let _ = stratum;
        state
    }

    /// The opinion agents in `stratum`'s `state` hold, or `None` if undecided.
    fn opinion_of(&self, stratum: usize, state: usize) -> Option<Opinion>;
}

/// Every dense protocol is a one-stratum stratified protocol.
impl<P: DenseProtocol> StratifiedProtocol for P {
    fn stratum_count(&self) -> usize {
        1
    }

    fn state_count(&self, _stratum: usize) -> usize {
        DenseProtocol::state_count(self)
    }

    fn send(&self, _stratum: usize, state: usize, round: Round) -> Option<(Opinion, f64)> {
        DenseProtocol::send(self, state, round)
    }

    fn on_receive(&self, _stratum: usize, state: usize, heard: Opinion, round: Round) -> usize {
        DenseProtocol::on_receive(self, state, heard, round)
    }

    fn on_round_end(&self, _stratum: usize, state: usize, round: Round) -> usize {
        DenseProtocol::on_round_end(self, state, round)
    }

    fn opinion_of(&self, _stratum: usize, state: usize) -> Option<Opinion> {
        DenseProtocol::opinion_of(self, state)
    }
}

/// A population stored as per-stratum packed per-state counts.
///
/// Individual strata may be empty (and may hold a single agent); only the
/// total population must contain at least two agents for push gossip to be
/// defined.
///
/// # Example
///
/// ```
/// use flip_model::StratifiedPopulation;
///
/// let population =
///     StratifiedPopulation::from_strata(vec![vec![97, 1, 2], vec![5]]).unwrap();
/// assert_eq!(population.n(), 105);
/// assert_eq!(population.stratum_count(), 2);
/// assert_eq!(population.stratum(1).n(), 5);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StratifiedPopulation {
    strata: Vec<DensePopulation>,
    n: u64,
}

impl StratifiedPopulation {
    /// Builds a stratified population from per-stratum count vectors
    /// (`strata[s][state]` agents in stratum `s`'s `state`).
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::PopulationTooSmall`] if the counts sum to fewer
    /// than two agents across all strata, or [`FlipError::InvalidParameter`]
    /// when no strata are given.
    pub fn from_strata(strata: Vec<Vec<u64>>) -> Result<Self, FlipError> {
        if strata.is_empty() {
            return Err(FlipError::InvalidParameter {
                name: "strata",
                message: "a stratified population needs at least one stratum".to_string(),
            });
        }
        let strata: Vec<DensePopulation> = strata
            .into_iter()
            .map(DensePopulation::stratum_from_counts)
            .collect();
        let n: u64 = strata.iter().map(DensePopulation::n).sum();
        if n < 2 {
            return Err(FlipError::PopulationTooSmall { n: n as usize });
        }
        Ok(Self { strata, n })
    }

    /// Wraps a dense (single-stratum) population.
    #[must_use]
    pub fn single(population: DensePopulation) -> Self {
        let n = population.n();
        Self {
            strata: vec![population],
            n,
        }
    }

    /// Total number of agents across all strata.
    #[must_use]
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Number of strata.
    #[must_use]
    pub fn stratum_count(&self) -> usize {
        self.strata.len()
    }

    /// The counts of one stratum.
    ///
    /// # Panics
    ///
    /// Panics if `stratum >= stratum_count()`.
    #[must_use]
    pub fn stratum(&self, stratum: usize) -> &DensePopulation {
        &self.strata[stratum]
    }

    /// A census of the whole population under the protocol's opinion map.
    #[must_use]
    pub fn census<P: StratifiedProtocol>(&self, protocol: &P) -> Census {
        let mut holding = [0u64; 2];
        for (s, stratum) in self.strata.iter().enumerate() {
            for (state, &count) in stratum.counts().iter().enumerate() {
                if let Some(op) = protocol.opinion_of(s, state) {
                    holding[op.index()] += count;
                }
            }
        }
        Census::from_counts(holding[0] as usize, holding[1] as usize, self.n as usize)
    }
}

/// The counts one round advances: the per-stratum population plus the
/// reusable next-round buffers.
///
/// The round passes — [`send`](Self::send), [`receive`](Self::receive) and
/// [`swap`](Self::swap) — are the one implementation of the aggregate round
/// loop.  [`StratifiedSimulation`] calls them back to back; the hybrid
/// engine interleaves its tracked agents' per-message draws between them.
#[derive(Debug)]
pub(crate) struct Counts {
    population: StratifiedPopulation,
    next: Vec<Vec<u64>>,
}

/// The shared pool's reception law for one round: the occupancy marginal
/// `p_receive` and the pool's global share of [`Opinion::One`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Reception {
    pub(crate) p_receive: f64,
    pub(crate) fraction_one: f64,
}

impl Reception {
    /// The law of a pool holding `sent_by_symbol` messages in a population of
    /// `n`, or `None` for a silent round.
    pub(crate) fn of_pool(n: u64, sent_by_symbol: [u64; 2]) -> Option<Self> {
        let sent = sent_by_symbol[0] + sent_by_symbol[1];
        if sent == 0 {
            return None;
        }
        Some(Self {
            p_receive: 1.0 - (1.0 - 1.0 / (n as f64 - 1.0)).powf(sent as f64),
            fraction_one: sent_by_symbol[1] as f64 / sent as f64,
        })
    }
}

impl Counts {
    /// Validates `population` against the protocol's stratum/state
    /// declarations and pads every stratum's counts vector to its declared
    /// state count.
    pub(crate) fn new<P: StratifiedProtocol>(
        protocol: &P,
        mut population: StratifiedPopulation,
    ) -> Result<Self, FlipError> {
        let strata = protocol.stratum_count();
        if strata == 0 {
            return Err(FlipError::InvalidParameter {
                name: "stratum_count",
                message: "a stratified protocol needs at least one stratum".to_string(),
            });
        }
        if population.stratum_count() != strata {
            return Err(FlipError::InvalidParameter {
                name: "strata",
                message: format!(
                    "population has {} strata but the protocol declares {strata}",
                    population.stratum_count()
                ),
            });
        }
        for (s, stratum) in population.strata.iter_mut().enumerate() {
            let states = protocol.state_count(s);
            if states == 0 {
                return Err(FlipError::InvalidParameter {
                    name: "state_count",
                    message: format!("stratum {s} declares no states; need at least one"),
                });
            }
            if stratum.counts().len() > states {
                return Err(FlipError::InvalidParameter {
                    name: "counts",
                    message: format!(
                        "stratum {s} has {} state slots but its protocol declares {states}",
                        stratum.counts().len()
                    ),
                });
            }
            stratum.counts.resize(states, 0);
        }
        let next = population
            .strata
            .iter()
            .map(|stratum| vec![0; stratum.counts().len()])
            .collect();
        Ok(Self { population, next })
    }

    /// The current per-stratum counts.
    pub(crate) fn population(&self) -> &StratifiedPopulation {
        &self.population
    }

    /// Consumes the counts, returning the population.
    pub(crate) fn into_population(self) -> StratifiedPopulation {
        self.population
    }

    /// The aggregate send pass: adds one binomial per (stratum, sending
    /// state) cell to `sent_by_symbol`, strata outer, states inner.
    pub(crate) fn send<P: StratifiedProtocol>(
        &self,
        protocol: &P,
        round: Round,
        rng: &mut SimRng,
        sent_by_symbol: &mut [u64; 2],
    ) {
        for (s, stratum) in self.population.strata.iter().enumerate() {
            for (state, &count) in stratum.counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                if let Some((symbol, probability)) = protocol.send(s, state, round) {
                    sent_by_symbol[symbol.index()] += binomial(rng, count, probability);
                }
            }
        }
    }

    /// The aggregate reception pass into the next-round buffers; returns
    /// `(accepted, flipped)`.
    ///
    /// In a silent round (`reception` is `None`) every agent only takes its
    /// end-of-round transition and no variate is drawn.  Otherwise each
    /// stratum draws, per state, its receivers and how many of them hear
    /// [`Opinion::One`] through its own channel (`crossover(s)` is stratum
    /// `s`'s mean crossover), then its two flip-count binomials.
    pub(crate) fn receive<P: StratifiedProtocol>(
        &mut self,
        protocol: &P,
        round: Round,
        rng: &mut SimRng,
        reception: Option<Reception>,
        crossover: impl Fn(usize) -> f64,
    ) -> (u64, u64) {
        for next in &mut self.next {
            next.fill(0);
        }
        let mut accepted = 0u64;
        let mut flips = 0u64;
        for (s, (stratum, next)) in self
            .population
            .strata
            .iter()
            .zip(&mut self.next)
            .enumerate()
        {
            let Some(Reception {
                p_receive,
                fraction_one,
            }) = reception
            else {
                for (state, &count) in stratum.counts.iter().enumerate() {
                    if count > 0 {
                        next[protocol.on_round_end(s, state, round)] += count;
                    }
                }
                continue;
            };
            let crossover = crossover(s);
            let hear_one = fraction_one * (1.0 - crossover) + (1.0 - fraction_one) * crossover;
            let mut stratum_accepted = 0u64;
            let mut heard_ones = 0u64;
            for (state, &count) in stratum.counts.iter().enumerate() {
                if count == 0 {
                    continue;
                }
                let receivers = binomial(rng, count, p_receive);
                let hear_ones = binomial(rng, receivers, hear_one);
                let hear_zeros = receivers - hear_ones;
                stratum_accepted += receivers;
                heard_ones += hear_ones;
                next[protocol.on_round_end(s, state, round)] += count - receivers;
                let one_state = protocol.on_receive(s, state, Opinion::One, round);
                next[protocol.on_round_end(s, one_state, round)] += hear_ones;
                let zero_state = protocol.on_receive(s, state, Opinion::Zero, round);
                next[protocol.on_round_end(s, zero_state, round)] += hear_zeros;
            }
            // Flip counts conditioned on the heard symbols actually drawn in
            // this stratum, through this stratum's crossover.
            let flip_given_one = if hear_one > 0.0 {
                ((1.0 - fraction_one) * crossover / hear_one).clamp(0.0, 1.0)
            } else {
                0.0
            };
            let flip_given_zero = if hear_one < 1.0 {
                (fraction_one * crossover / (1.0 - hear_one)).clamp(0.0, 1.0)
            } else {
                0.0
            };
            flips += binomial(rng, heard_ones, flip_given_one)
                + binomial(rng, stratum_accepted - heard_ones, flip_given_zero);
            accepted += stratum_accepted;
        }
        (accepted, flips)
    }

    /// The count swap: the next-round buffers become the population.
    pub(crate) fn swap(&mut self) {
        for (stratum, next) in self.population.strata.iter_mut().zip(&mut self.next) {
            std::mem::swap(&mut stratum.counts, next);
        }
    }
}

fn binomial(rng: &mut SimRng, n: u64, p: f64) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    Binomial::new(n, p)
        .expect("probability is validated above")
        .sample(rng)
}

/// A synchronous Flip-model simulation over per-stratum, per-state counts:
/// the workspace's counts engine.
///
/// Same [`RoundSummary`]/[`Metrics`] reporting surface as the per-agent
/// [`Simulation`](crate::Simulation), same push-gossip/collision/noise round
/// structure, one channel per stratum, and `O(#strata × #states)` binomial
/// draws per round, so `n = 10⁶` costs the same per round as `n = 100`.
/// See the module docs for the exactness contract.
#[derive(Debug)]
pub struct StratifiedSimulation<P, C> {
    protocol: P,
    channels: Vec<C>,
    counts: Counts,
    rng: SimRng,
    round: Round,
    metrics: Metrics,
    reference: Option<Opinion>,
}

impl<P: StratifiedProtocol, C: Channel> StratifiedSimulation<P, C> {
    /// Creates a stratified simulation over the given population, with one
    /// channel per stratum (`channels[s]` carries stratum `s`'s receptions).
    ///
    /// # Errors
    ///
    /// Returns [`FlipError::InvalidParameter`] if the configured population
    /// size disagrees with the counts, the channel list length disagrees
    /// with the protocol's stratum count, the protocol declares no strata or
    /// a stateless stratum, or a stratum's counts vector is longer than its
    /// declared state count.
    pub fn new(
        protocol: P,
        channels: Vec<C>,
        population: StratifiedPopulation,
        config: SimulationConfig,
    ) -> Result<Self, FlipError> {
        if config.population() as u64 != population.n() {
            return Err(FlipError::InvalidParameter {
                name: "population",
                message: format!(
                    "config says {} agents but counts sum to {}",
                    config.population(),
                    population.n()
                ),
            });
        }
        if channels.len() != protocol.stratum_count() {
            return Err(FlipError::InvalidParameter {
                name: "channels",
                message: format!(
                    "{} channels supplied but the protocol declares {} strata",
                    channels.len(),
                    protocol.stratum_count()
                ),
            });
        }
        let counts = Counts::new(&protocol, population)?;
        Ok(Self {
            protocol,
            channels,
            counts,
            rng: SimRng::from_seed(config.seed()),
            round: 0,
            metrics: Metrics::new(),
            reference: config.reference(),
        })
    }

    /// Creates a one-stratum simulation of a homogeneous population: one
    /// [`DensePopulation`] heard through one channel.
    ///
    /// # Errors
    ///
    /// As [`StratifiedSimulation::new`]; in particular the protocol must
    /// declare exactly one stratum, as every [`DenseProtocol`] does.
    pub fn single(
        protocol: P,
        channel: C,
        population: DensePopulation,
        config: SimulationConfig,
    ) -> Result<Self, FlipError> {
        Self::new(
            protocol,
            vec![channel],
            StratifiedPopulation::single(population),
            config,
        )
    }

    /// Executes one synchronous round and returns its summary.
    ///
    /// The draw order is: sends stratum-by-stratum (states inner) into the
    /// shared pool, then per stratum a reception pass (receivers and
    /// heard-ones binomials per state, then that stratum's two flip-count
    /// binomials).  `tests/dense_golden.rs` pins the resulting stream.
    pub fn step(&mut self) -> RoundSummary {
        let round = self.round;
        let mut sent_by_symbol = [0u64; 2];
        self.counts
            .send(&self.protocol, round, &mut self.rng, &mut sent_by_symbol);
        let sent = sent_by_symbol[0] + sent_by_symbol[1];
        let reception = Reception::of_pool(self.counts.population.n, sent_by_symbol);
        let channels = &self.channels;
        let (accepted, flips) =
            self.counts
                .receive(&self.protocol, round, &mut self.rng, reception, |s| {
                    channels[s].mean_crossover()
                });
        self.counts.swap();

        // Independent reception can (rarely) draw slightly more receivers
        // than messages; clamp the accounting so `sent = accepted + collided`.
        let accepted_capped = accepted.min(sent);
        // The counts engine carries no fault plan: the fault counters in its
        // round metrics stay zero.
        let round_metrics = RoundMetrics {
            round,
            messages_sent: sent,
            messages_accepted: accepted_capped,
            messages_collided: sent - accepted_capped,
            bits_flipped: flips.min(accepted_capped),
            ..RoundMetrics::default()
        };
        self.metrics.absorb_round(&round_metrics);
        self.round += 1;

        let census = self.census();
        RoundSummary {
            metrics: round_metrics,
            census_active: census.active(),
            census_correct: self.reference.map(|r| census.holding(r)),
        }
    }

    /// Executes `rounds` rounds and returns the accumulated metrics.
    pub fn run(&mut self, rounds: u64) -> &Metrics {
        for _ in 0..rounds {
            self.step();
        }
        &self.metrics
    }

    /// Executes rounds until `predicate` returns `true` (checked after every
    /// round) or `max_rounds` rounds have run, whichever comes first.
    ///
    /// Returns the number of rounds executed by this call.
    pub fn run_until<F>(&mut self, max_rounds: u64, mut predicate: F) -> u64
    where
        F: FnMut(&Self) -> bool,
    {
        let mut executed = 0;
        while executed < max_rounds {
            self.step();
            executed += 1;
            if predicate(self) {
                break;
            }
        }
        executed
    }

    /// The current per-stratum population counts.
    #[must_use]
    pub fn population(&self) -> &StratifiedPopulation {
        &self.counts.population
    }

    /// A census of the current population.
    #[must_use]
    pub fn census(&self) -> Census {
        self.counts.population.census(&self.protocol)
    }

    /// The accumulated metrics so far.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// The next round index to be executed (equals rounds executed so far).
    #[must_use]
    pub fn round(&self) -> Round {
        self.round
    }

    /// Consumes the simulation, returning the final population and metrics.
    #[must_use]
    pub fn into_parts(self) -> (StratifiedPopulation, Metrics) {
        (self.counts.population, self.metrics)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::channel::{BinarySymmetricChannel, NoiselessChannel};
    use crate::dense_protocols::RumorProtocol;

    #[test]
    fn rejects_bad_constructions() {
        assert!(StratifiedPopulation::from_strata(vec![]).is_err());
        assert!(StratifiedPopulation::from_strata(vec![vec![1], vec![0]]).is_err());

        // Channel list length must match the stratum count.
        let population = StratifiedPopulation::single(RumorProtocol::population(10, 0, 1));
        let config = SimulationConfig::new(10);
        assert!(matches!(
            StratifiedSimulation::new(
                RumorProtocol,
                Vec::<NoiselessChannel>::new(),
                population,
                config
            ),
            Err(FlipError::InvalidParameter {
                name: "channels",
                ..
            })
        ));

        // Population stratum count must match the protocol's.
        let population = StratifiedPopulation::from_strata(vec![vec![10], vec![5]]).unwrap();
        let config = SimulationConfig::new(15);
        assert!(matches!(
            StratifiedSimulation::new(RumorProtocol, vec![NoiselessChannel], population, config),
            Err(FlipError::InvalidParameter { name: "strata", .. })
        ));
    }

    #[test]
    fn empty_strata_are_allowed_and_stay_empty() {
        let population = StratifiedPopulation::from_strata(vec![vec![0, 0, 100]]).unwrap();
        assert_eq!(population.n(), 100);
        let config = SimulationConfig::new(100).with_seed(9);
        let channel = BinarySymmetricChannel::from_epsilon(0.3).unwrap();
        let mut sim =
            StratifiedSimulation::new(RumorProtocol, vec![channel], population, config).unwrap();
        sim.run(5);
        assert_eq!(sim.population().n(), 100);
        assert_eq!(sim.census().active(), 100);
    }

    #[test]
    fn identical_seeds_give_identical_runs() {
        let run = |seed: u64| {
            let population = StratifiedPopulation::single(RumorProtocol::population(5_000, 5, 5));
            let config = SimulationConfig::new(5_000).with_seed(seed);
            let channel = BinarySymmetricChannel::from_epsilon(0.2).unwrap();
            let mut sim =
                StratifiedSimulation::new(RumorProtocol, vec![channel], population, config)
                    .unwrap();
            (0..40)
                .map(|_| {
                    let s = sim.step();
                    (s.census_active, s.metrics.messages_sent)
                })
                .collect::<Vec<_>>()
        };
        assert_eq!(run(41), run(41));
        assert_ne!(run(41), run(42));
    }
}
