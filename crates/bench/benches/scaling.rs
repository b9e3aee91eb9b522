//! Criterion companion to §5.2.3: cold-expansion cost vs table size
//! (dominated by the sample-creation scan, linear in |T|).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use sdd_core::{Brs, Rule, SizeWeight};
use sdd_sampling::{AllocationStrategy, SampleHandler, SampleHandlerConfig};

fn bench_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("scaling_cold_expand");
    group.sample_size(10);

    for n in [10_000usize, 50_000, 200_000] {
        let table = sdd_bench::datasets::census7(n);
        let trivial = Rule::trivial(table.n_columns());
        group.throughput(Throughput::Elements(n as u64));
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, _| {
            let brs = Brs::new(&SizeWeight).with_max_weight(5.0);
            let mut seed = 0u64;
            b.iter(|| {
                seed += 1;
                let mut h = SampleHandler::new(
                    table.clone(),
                    SampleHandlerConfig {
                        capacity: 50_000,
                        min_sample_size: 5_000,
                        seed,
                        strategy: AllocationStrategy::Dp,
                    },
                );
                let s = h.try_get_sample(&trivial).expect("in-memory table");
                std::hint::black_box(brs.run(&s.view.as_view(), 4))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scaling);
criterion_main!(benches);
