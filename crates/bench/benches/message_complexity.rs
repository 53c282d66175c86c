//! E3 (Theorem 2.17): message/bit complexity.

use breathe::{BroadcastProtocol, Params};
use criterion::{criterion_group, criterion_main, Criterion};
use flip_model::Opinion;

fn message_complexity(c: &mut Criterion) {
    let params = Params::practical(1_000, 0.25).expect("valid parameters");
    let protocol = BroadcastProtocol::new(params, Opinion::One);
    let mut group = c.benchmark_group("e03_message_complexity");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    group.bench_function("broadcast_n1000_eps0.25", |b| {
        let mut seed = 0;
        b.iter(|| {
            seed += 1;
            let outcome = protocol.run_with_seed(seed).expect("run succeeds");
            outcome.messages_sent
        });
    });
    group.finish();
}

criterion_group!(benches, message_complexity);
criterion_main!(benches);
