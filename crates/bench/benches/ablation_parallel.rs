//! Ablation: collector parallelism. The collector guarantees identical
//! output for any worker count; this bench quantifies what fanning its
//! node chunks out over the persistent worker pool
//! (`iriscast_telemetry::par::pool_fill_indexed`) buys over the serial
//! loop.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iriscast_bench::synthetic_site;
use iriscast_telemetry::{SiteCollector, SyntheticUtilization};
use iriscast_units::Period;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("ablation_parallel");
    g.sample_size(10);

    let collector = SiteCollector::new(synthetic_site(2_048, 7));
    let util = SyntheticUtilization::calibrated(0.6, 3);
    for workers in [1usize, 2, 4, 8, 16] {
        g.bench_with_input(
            BenchmarkId::new("collect_2048_nodes", workers),
            &workers,
            |b, &w| {
                b.iter(|| {
                    black_box(
                        collector
                            .collect(Period::snapshot_24h(), &util, w)
                            .expect("bench site is valid"),
                    )
                })
            },
        );
    }

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
