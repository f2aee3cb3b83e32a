//! Table 2 bench: the telemetry collection pipeline that regenerates the
//! measured-energy table, at single-site and full-federation scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iriscast_bench::{bench_iris_scenario, synthetic_site};
use iriscast_telemetry::{CollectScratch, SiteCollector, SyntheticUtilization};
use iriscast_units::Period;
use rand::rngs::StdRng;
use rand::{BoxMullerNormal, Rng, SeedableRng, StandardNormal};
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("table2_telemetry");
    g.sample_size(10);

    // Scaling in node count (24 h window; step widens past 500 nodes —
    // see `bench_sample_step`). Cold path: fresh buffers every collect.
    for nodes in [32u32, 128, 512] {
        let cfg = synthetic_site(nodes, 42);
        let collector = SiteCollector::new(cfg);
        let util = SyntheticUtilization::calibrated(0.6, 7);
        g.bench_with_input(BenchmarkId::new("site_collect", nodes), &nodes, |b, _| {
            b.iter(|| {
                black_box(
                    collector
                        .collect(Period::snapshot_24h(), &util, 8)
                        .expect("bench site is valid"),
                )
            })
        });
        // Warm path: scratch-arena buffers recycled across collects —
        // the per-sample data path allocates nothing after warm-up.
        let warm_collector = SiteCollector::new(synthetic_site(nodes, 42));
        let mut scratch = CollectScratch::new();
        g.bench_with_input(
            BenchmarkId::new("site_collect_warm", nodes),
            &nodes,
            |b, _| {
                b.iter(|| {
                    let r = warm_collector
                        .collect_with(Period::snapshot_24h(), &util, 8, &mut scratch)
                        .expect("bench site is valid");
                    black_box(&r);
                    scratch.recycle(r);
                })
            },
        );
    }

    // The normal-variate samplers the meter error models draw from —
    // the per-sample kernel the collect numbers above are built on.
    let mut rng = StdRng::seed_from_u64(1);
    g.bench_function("normal_ziggurat_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for _ in 0..1_000 {
                acc += rng.sample(StandardNormal);
            }
            black_box(acc)
        })
    });
    g.bench_function("normal_boxmuller_1k", |b| {
        b.iter(|| {
            let mut acc = 0.0f64;
            for _ in 0..1_000 {
                acc += rng.sample(BoxMullerNormal);
            }
            black_box(acc)
        })
    });

    // The full calibrated IRIS federation (2,462 nodes, 6 sites).
    let scenario = bench_iris_scenario(2022);
    g.bench_function("iris_snapshot_full", |b| {
        b.iter(|| black_box(scenario.simulate(8)))
    });

    // Same federation on the warm path: one scratch serves all six
    // sites and the previous snapshot's buffers are recycled.
    let mut scratch = CollectScratch::new();
    g.bench_function("iris_snapshot_full_warm", |b| {
        b.iter(|| {
            let snapshot = scenario.simulate_with(8, &mut scratch);
            black_box(&snapshot.rows);
            for site in snapshot.site_results {
                scratch.recycle(site);
            }
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
