//! Golden-seed snapshot tests for the hybrid engine.
//!
//! `tests/dense_golden.rs` pins the counts engine's stream; this file pins
//! the hybrid engine's, round by round: tracked agents' per-message draws
//! interleaved with the dense bulk's aggregate binomials.  The constants
//! below are the reproducibility contract.  If one of these tests fails,
//! the hybrid round pipeline changed — the order of tracked and bulk draws,
//! the shared pool's occupancy marginal, the per-stratum crossover, the
//! fault overrides on the tracked side — and every seeded `hybrid:k` result
//! (E1-H tables, sweep stores) silently changed with it.

use breathe_paper as _;
use flip_model::{
    Agent, BinarySymmetricChannel, Channel, HybridSimulation, Opinion, RumorAgent, RumorProtocol,
    SimulationConfig, StratifiedPopulation, StratifiedProtocol, ZealotAgent, ZealotRumorProtocol,
};

/// One round's snapshot: `[census_active, census_correct, sent, accepted,
/// collided, flipped, forced_sends, suppressed_deliveries]`.
type RoundRow = [u64; 8];

fn trajectory<A: Agent, P: StratifiedProtocol, C: Channel>(
    sim: &mut HybridSimulation<A, P, C>,
    rounds: usize,
) -> Vec<RoundRow> {
    (0..rounds)
        .map(|_| {
            let s = sim.step();
            [
                s.census_active as u64,
                s.census_correct.expect("reference is set") as u64,
                s.metrics.messages_sent,
                s.metrics.messages_accepted,
                s.metrics.messages_collided,
                s.metrics.bits_flipped,
                s.metrics.forced_sends,
                s.metrics.suppressed_deliveries,
            ]
        })
        .collect()
}

fn strata_counts(bulk: &StratifiedPopulation) -> Vec<Vec<u64>> {
    (0..bulk.stratum_count())
        .map(|s| bulk.stratum(s).counts().to_vec())
        .collect()
}

/// Rumor spreading at n = 10⁴: 16 tracked agents (all informed) against a
/// single-stratum bulk seeded with 84 more informed agents.
fn rumor_run(seed: u64) -> (Vec<RoundRow>, Vec<Vec<u64>>) {
    let tracked = RumorAgent::population(16, 0, 16);
    let bulk = StratifiedPopulation::single(RumorProtocol::population(9_984, 0, 84));
    let channel = BinarySymmetricChannel::from_epsilon(0.2).expect("valid epsilon");
    let config = SimulationConfig::new(10_000)
        .with_seed(seed)
        .with_reference(Opinion::One);
    let mut sim = HybridSimulation::new(tracked, RumorProtocol, channel, bulk, config)
        .expect("valid parameters");
    let rows = trajectory(&mut sim, 24);
    (rows, strata_counts(sim.bulk()))
}

/// Zealot-infiltrated rumor at n = 10⁴ with a `byz:0.005` fault plan: 64
/// tracked agents (32 informed, 24 undecided, 8 zealots; the leading 50
/// Byzantine) against a two-strata bulk (68 informed honest agents, 492
/// zealots).
fn zealot_byzantine_run(seed: u64) -> (Vec<RoundRow>, Vec<Vec<u64>>) {
    let tracked = ZealotAgent::population(64, 0, 32, 8);
    let bulk = StratifiedPopulation::from_strata(vec![vec![9_444 - 68, 0, 68], vec![492]])
        .expect("valid strata");
    let channel = BinarySymmetricChannel::from_epsilon(0.3).expect("valid epsilon");
    let config = SimulationConfig::new(10_000)
        .with_seed(seed)
        .with_reference(Opinion::One)
        .with_faults("byz:0.005".parse().expect("valid directive"));
    let mut sim = HybridSimulation::new(tracked, ZealotRumorProtocol, channel, bulk, config)
        .expect("valid parameters");
    assert_eq!(
        sim.fault_plan().expect("faults configured").faulty_count(),
        50
    );
    let rows = trajectory(&mut sim, 24);
    (rows, strata_counts(sim.bulk()))
}

/// `rumor_run(0x4B_1D)`, one row per round.
const RUMOR_ROWS: [RoundRow; 24] = [
    [186, 159, 100, 86, 14, 27, 0, 0],
    [380, 285, 186, 186, 0, 60, 0, 0],
    [741, 488, 380, 370, 10, 117, 0, 0],
    [1406, 863, 741, 711, 30, 229, 0, 0],
    [2527, 1474, 1406, 1307, 99, 394, 0, 0],
    [4189, 2351, 2527, 2178, 349, 688, 0, 0],
    [6170, 3420, 4189, 3396, 793, 993, 0, 0],
    [7877, 4309, 6170, 4588, 1582, 1382, 0, 0],
    [9038, 4905, 7877, 5459, 2418, 1665, 0, 0],
    [9621, 5191, 9038, 5947, 3091, 1791, 0, 0],
    [9853, 5321, 9621, 6209, 3412, 1834, 0, 0],
    [9940, 5363, 9853, 6247, 3606, 1931, 0, 0],
    [9981, 5383, 9940, 6340, 3600, 1885, 0, 0],
    [9990, 5390, 9981, 6229, 3752, 1847, 0, 0],
    [9997, 5394, 9990, 6348, 3642, 1938, 0, 0],
    [9998, 5394, 9997, 6259, 3738, 1835, 0, 0],
    [9999, 5395, 9998, 6387, 3611, 1906, 0, 0],
    [9999, 5395, 9999, 6346, 3653, 1974, 0, 0],
    [9999, 5395, 9999, 6392, 3607, 1921, 0, 0],
    [9999, 5395, 9999, 6307, 3692, 1922, 0, 0],
    [9999, 5395, 9999, 6274, 3725, 1849, 0, 0],
    [10_000, 5395, 9999, 6256, 3743, 1901, 0, 0],
    [10_000, 5395, 10_000, 6405, 3595, 1958, 0, 0],
    [10_000, 5395, 10_000, 6277, 3723, 1943, 0, 0],
];

/// `zealot_byzantine_run(0x2EA1)`, one row per round.  The 50 Byzantine
/// tracked agents force a send every round and are deaf, so the 18 of them
/// that start undecided never activate: the census tops out at 9,982.
const ZEALOT_BYZANTINE_ROWS: [RoundRow; 24] = [
    [1169, 239, 618, 609, 9, 112, 50, 4],
    [2167, 544, 1187, 1149, 38, 244, 50, 5],
    [3728, 1079, 2185, 1989, 196, 392, 50, 12],
    [5686, 1813, 3746, 3111, 635, 623, 50, 14],
    [7539, 2547, 5704, 4390, 1314, 881, 50, 25],
    [8819, 3051, 7557, 5278, 2279, 1057, 50, 31],
    [9513, 3326, 8837, 5806, 3031, 1181, 50, 32],
    [9799, 3431, 9531, 6162, 3369, 1224, 50, 30],
    [9916, 3477, 9817, 6248, 3569, 1214, 50, 29],
    [9955, 3492, 9934, 6295, 3639, 1348, 50, 34],
    [9975, 3497, 9973, 6237, 3736, 1258, 50, 26],
    [9981, 3500, 9993, 6270, 3723, 1275, 50, 36],
    [9982, 3501, 9999, 6334, 3665, 1216, 50, 27],
    [9982, 3501, 10_000, 6263, 3737, 1285, 50, 32],
    [9982, 3501, 10_000, 6329, 3671, 1230, 50, 27],
    [9982, 3501, 10_000, 6316, 3684, 1295, 50, 26],
    [9982, 3501, 10_000, 6368, 3632, 1284, 50, 30],
    [9982, 3501, 10_000, 6410, 3590, 1284, 50, 32],
    [9982, 3501, 10_000, 6373, 3627, 1210, 50, 33],
    [9982, 3501, 10_000, 6367, 3633, 1291, 50, 33],
    [9982, 3501, 10_000, 6327, 3673, 1269, 50, 27],
    [9982, 3501, 10_000, 6347, 3653, 1222, 50, 29],
    [9982, 3501, 10_000, 6274, 3726, 1187, 50, 29],
    [9982, 3501, 10_000, 6286, 3714, 1238, 50, 32],
];

#[test]
fn rumor_golden_seed_snapshot_pins_the_hybrid_pipeline() {
    let (rows, bulk) = rumor_run(0x4B_1D);
    assert_eq!(rows, RUMOR_ROWS);
    assert_eq!(bulk, vec![vec![0, 4_605, 5_379]]);
}

#[test]
fn zealot_byzantine_golden_seed_snapshot_pins_two_strata_and_faults() {
    let (rows, bulk) = zealot_byzantine_run(0x2EA1);
    assert_eq!(rows, ZEALOT_BYZANTINE_ROWS);
    assert_eq!(bulk, vec![vec![0, 5_977, 3_467], vec![492]]);
}

#[test]
fn hybrid_snapshots_are_seed_sensitive() {
    // The snapshots pin a stream, not a coincidence: a neighbouring seed
    // must produce a different trajectory.
    assert_ne!(rumor_run(0x4B_1E).0, RUMOR_ROWS);
    assert_ne!(zealot_byzantine_run(0x2EA2).0, ZEALOT_BYZANTINE_ROWS);
}
