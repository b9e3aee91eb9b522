//! Criterion companion to Figure 8(a): BRS cost on in-memory samples of
//! varying `minSS`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use sdd_core::{Brs, Rule, SizeWeight};
use sdd_sampling::{AllocationStrategy, SampleHandler, SampleHandlerConfig};

fn bench_minss(c: &mut Criterion) {
    let table = sdd_bench::datasets::census7(100_000);
    let trivial = Rule::trivial(table.n_columns());
    let mut group = c.benchmark_group("fig8_minss");
    group.sample_size(10);

    for minss in [1_000usize, 2_000, 5_000, 8_000] {
        // Warm the sample once outside the timer; measure Find + BRS.
        let mut handler = SampleHandler::new(
            table.clone(),
            SampleHandlerConfig {
                capacity: 50_000.max(minss),
                min_sample_size: minss,
                seed: 5,
                strategy: AllocationStrategy::Dp,
            },
        );
        let _ = handler.try_get_sample(&trivial).expect("in-memory table");
        group.bench_with_input(BenchmarkId::from_parameter(minss), &minss, |b, _| {
            let brs = Brs::new(&SizeWeight).with_max_weight(5.0);
            b.iter(|| {
                let s = handler.try_get_sample(&trivial).expect("in-memory table");
                std::hint::black_box(brs.run(&s.view.as_view(), 4))
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_minss);
criterion_main!(benches);
