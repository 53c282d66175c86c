//! E7 (Lemmas 2.11 and 2.14): the Stage II majority boost.

use breathe::Stage2State;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flip_model::{Opinion, SimRng};
use rand::Rng;

/// One simulated Stage II phase for a single agent: receive `2γ` noisy samples
/// from a population with the given bias, then take the end-of-phase majority.
fn one_boost_phase(gamma: u64, epsilon: f64, delta: f64, rng: &mut SimRng) -> Option<Opinion> {
    let mut state = Stage2State::new();
    state.adopt(Some(Opinion::Zero));
    let flip = 0.5 - epsilon;
    for _ in 0..(2 * gamma) {
        let correct = rng.gen::<f64>() < 0.5 + delta;
        let mut bit = if correct { Opinion::One } else { Opinion::Zero };
        if rng.gen::<f64>() < flip {
            bit = bit.flipped();
        }
        state.deliver(bit);
    }
    state.end_phase(2 * gamma, gamma, rng);
    state.opinion()
}

fn stage2_boost(c: &mut Criterion) {
    let mut group = c.benchmark_group("e07_stage2_boost_phase");
    group.sample_size(20);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &gamma in &[51u64, 151, 451] {
        group.bench_with_input(BenchmarkId::from_parameter(gamma), &gamma, |b, &gamma| {
            let mut rng = SimRng::from_seed(7);
            b.iter(|| one_boost_phase(gamma, 0.2, 0.05, &mut rng));
        });
    }
    group.finish();
}

criterion_group!(benches, stage2_boost);
criterion_main!(benches);
