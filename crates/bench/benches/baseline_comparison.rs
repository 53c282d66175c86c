//! E10 (§1.2, §1.6): breathe versus the baseline protocols.

use baselines::{
    ForwardingProtocol, NoisyVoterProtocol, TwoChoicesProtocol, WaitForSourceProtocol,
};
use breathe::{BroadcastProtocol, Params};
use criterion::{criterion_group, criterion_main, Criterion};
use flip_model::Opinion;

fn baseline_comparison(c: &mut Criterion) {
    let n = 500;
    let epsilon = 0.25;
    let params = Params::practical(n, epsilon).expect("valid parameters");
    let budget = params.total_rounds();

    let mut group = c.benchmark_group("e10_protocol_comparison");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));

    let breathe_protocol = BroadcastProtocol::new(params, Opinion::One);
    group.bench_function("breathe", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            breathe_protocol.run_with_seed(seed).expect("run succeeds")
        });
    });

    let forwarding = ForwardingProtocol::new(n, epsilon, budget).expect("valid");
    group.bench_function("immediate_forwarding", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            forwarding
                .run_with_seed(Opinion::One, seed)
                .expect("run succeeds")
        });
    });

    let wait = WaitForSourceProtocol::new(n, epsilon, budget).expect("valid");
    group.bench_function("wait_for_source", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            wait.run_with_seed(Opinion::One, seed)
                .expect("run succeeds")
        });
    });

    let two_choices = TwoChoicesProtocol::new(n, epsilon, budget).expect("valid");
    group.bench_function("two_choices", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            two_choices
                .run_with_seed(Opinion::One, n / 2 + 1, seed)
                .expect("run succeeds")
        });
    });

    let voter = NoisyVoterProtocol::new(n, epsilon, budget).expect("valid");
    group.bench_function("noisy_voter", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            voter
                .run_with_seed(Opinion::One, seed)
                .expect("run succeeds")
        });
    });

    group.finish();
}

criterion_group!(benches, baseline_comparison);
criterion_main!(benches);
