//! E2 (Theorem 2.17): broadcast cost versus the noise margin `ε`.

use breathe::{BroadcastProtocol, Params};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flip_model::Opinion;

fn epsilon_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("e02_broadcast_rounds_vs_epsilon");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(500));
    group.measurement_time(std::time::Duration::from_secs(2));
    for &epsilon in &[0.2f64, 0.3, 0.4] {
        let params = Params::practical(500, epsilon).expect("valid parameters");
        let protocol = BroadcastProtocol::new(params, Opinion::One);
        group.bench_with_input(
            BenchmarkId::from_parameter(epsilon),
            &protocol,
            |b, protocol| {
                let mut seed = 0;
                b.iter(|| {
                    seed += 1;
                    protocol.run_with_seed(seed).expect("run succeeds")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, epsilon_scaling);
criterion_main!(benches);
