//! End-to-end integration tests for the noisy broadcast protocol
//! (Theorem 2.17), spanning the `flip-model` and `breathe` crates.

use breathe::{
    BreatheAgent, BroadcastProtocol, InitialSet, MajorityConsensusProtocol, Multipliers, Params,
    Schedule, StageKind,
};
use flip_model::{Agent, Opinion, OpinionDelta, SimRng};
use rand::RngCore;

#[test]
fn broadcast_reaches_consensus_across_populations_and_noise_levels() {
    for &(n, epsilon) in &[(200usize, 0.35), (500, 0.3), (1_000, 0.25)] {
        let params = Params::practical(n, epsilon).unwrap();
        let protocol = BroadcastProtocol::new(params, Opinion::One);
        let outcome = protocol.run_with_seed(42).unwrap();
        assert!(
            outcome.fraction_correct > 0.95,
            "n={n}, eps={epsilon}: fraction_correct = {}",
            outcome.fraction_correct
        );
        assert_eq!(outcome.n, n);
        assert_eq!(outcome.total_rounds, protocol.schedule().total_rounds());
    }
}

#[test]
fn broadcast_success_rate_is_high_over_repeated_trials() {
    let params = Params::practical(400, 0.3).unwrap();
    let protocol = BroadcastProtocol::new(params, Opinion::Zero);
    let trials = 10;
    let successes = (0..trials)
        .filter(|&seed| protocol.run_with_seed(seed).unwrap().fraction_correct > 0.99)
        .count();
    assert!(
        successes >= trials as usize - 1,
        "only {successes}/{trials} trials reached near-consensus"
    );
}

#[test]
fn message_complexity_stays_within_a_constant_factor_of_n_log_n_over_eps_sq() {
    let epsilon = 0.25;
    for &n in &[300usize, 600, 1_200] {
        let params = Params::practical(n, epsilon).unwrap();
        let protocol = BroadcastProtocol::new(params, Opinion::One);
        let outcome = protocol.run_with_seed(7).unwrap();
        let scale = n as f64 * (n as f64).ln() / (epsilon * epsilon);
        let normalised = outcome.messages_sent as f64 / scale;
        assert!(
            normalised > 0.5 && normalised < 200.0,
            "n={n}: messages/scale = {normalised}"
        );
    }
}

#[test]
fn the_message_pattern_is_symmetric_in_the_broadcast_value() {
    // Symmetric algorithms (paper §1.3.4): whether the source holds 0 or 1 must
    // not change who speaks when.  With identical seeds the two executions must
    // therefore send exactly the same number of messages in every round.
    let params = Params::practical(300, 0.3).unwrap();
    let run = |correct: Opinion| {
        let protocol = BroadcastProtocol::new(params.clone(), correct);
        let mut sim = protocol.build_simulation(99).unwrap();
        let mut per_round = Vec::new();
        for _ in 0..protocol.schedule().total_rounds() {
            per_round.push(sim.step().metrics.messages_sent);
        }
        per_round
    };
    assert_eq!(run(Opinion::One), run(Opinion::Zero));
}

#[test]
fn stage1_produces_a_positive_bias_and_stage2_amplifies_it() {
    let params = Params::practical(600, 0.25).unwrap();
    let protocol = BroadcastProtocol::new(params, Opinion::One);
    let detailed = protocol.run_detailed(5).unwrap();
    let outcome = &detailed.outcome;
    assert!(outcome.fraction_correct_after_stage1 > 0.5);
    assert!(outcome.fraction_correct >= outcome.fraction_correct_after_stage1);
    assert!(outcome.fraction_correct > 0.95);

    // The per-phase trajectory should (weakly) improve during Stage II.
    let spreading = protocol.schedule().spreading_phase_count();
    let stage2 = &detailed.fraction_correct_after_phase[spreading - 1..];
    let first = stage2.first().copied().unwrap();
    let last = stage2.last().copied().unwrap();
    assert!(last >= first);
}

#[test]
fn paper_strict_constants_still_produce_a_valid_schedule() {
    let params = Params::paper_strict(64, 0.4).unwrap();
    let schedule = Schedule::broadcast(&params);
    assert!(schedule.total_rounds() > 100_000);
    assert_eq!(schedule.phases()[0].kind, StageKind::Spreading);
    // We do not run it — the point is that the literal constants are representable.
}

#[test]
fn custom_multipliers_flow_through_to_the_schedule() {
    let multipliers = Multipliers {
        s_mult: 1.0,
        beta_mult: 2.0,
        f_mult: 2.5,
        gamma_mult: 4.0,
        extra_boost_phases: 1,
        final_mult: 2.0,
    };
    let params = Params::with_multipliers(1_000, 0.3, multipliers).unwrap();
    let default_params = Params::practical(1_000, 0.3).unwrap();
    assert!(params.total_rounds() < default_params.total_rounds());
    let protocol = BroadcastProtocol::new(params, Opinion::One);
    let outcome = protocol.run_with_seed(3).unwrap();
    // Smaller constants still give a strong (if not always perfect) majority.
    assert!(
        outcome.fraction_correct > 0.8,
        "{}",
        outcome.fraction_correct
    );
}

/// The engine skips the end-of-round pass whenever
/// `BreatheAgent::end_round_due` says so.  Walk every round of a broadcast
/// and a majority-consensus run and check the skip is sound on the live,
/// mid-run population (informed and uninformed agents, Stage I reservoirs
/// and Stage II tallies mid-phase, plus a fresh delivery to every third
/// agent): in each skipped round, `end_round` reports no change and leaves
/// the stream untouched.
#[test]
fn skipped_end_round_passes_change_nothing_and_draw_nothing() {
    let params = Params::practical(300, 0.3).unwrap();
    let broadcast = BroadcastProtocol::new(params.clone(), Opinion::One);
    let majority =
        MajorityConsensusProtocol::new(params, Opinion::Zero, InitialSet::new(40, 20)).unwrap();
    let runs = [
        (broadcast.build_simulation(3).unwrap(), broadcast.schedule()),
        (majority.build_simulation(4).unwrap(), majority.schedule()),
    ];
    for (mut sim, schedule) in runs {
        let mut skipped = 0;
        for round in 0..=schedule.total_rounds() {
            if !BreatheAgent::end_round_due(sim.agents(), round) {
                skipped += 1;
                let mut rng = SimRng::from_seed(round);
                let mut agents = sim.agents().to_vec();
                for (i, agent) in agents.iter_mut().enumerate() {
                    if i % 3 == 0 {
                        let message = Opinion::from_bit(u8::from(i % 2 == 0));
                        let _ = agent.deliver(round, message, &mut rng);
                    }
                    let mut untouched = rng.clone();
                    assert_eq!(agent.end_round(round, &mut rng), OpinionDelta::NONE);
                    assert_eq!(
                        rng.next_u64(),
                        untouched.next_u64(),
                        "agent {i} drew from the stream in skipped round {round}"
                    );
                }
            }
            sim.step();
        }
        assert_eq!(
            skipped,
            schedule.total_rounds() + 1 - schedule.phase_count() as u64,
            "only the phase-end rounds run the pass"
        );
    }
}
