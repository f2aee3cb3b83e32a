//! Scenario-space engine bench: batch throughput at 1k / 10k / 100k
//! points.
//!
//! The spaces refine the paper's parameter ranges (CI 50–300 g/kWh,
//! PUE 1.1–1.6, embodied 400–1,100 kg, lifespan 3–7 y) to increasing
//! resolution, so every point is a physically meaningful scenario.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iriscast_model::{paper, Assessment};
use iriscast_units::{Bounds, Pue};
use std::hint::black_box;

/// A paper-shaped space with roughly `target` points: axis lengths are
/// the target's fourth root (CI gets the remainder).
fn space_of(target: usize) -> Assessment {
    let side = (target as f64).powf(0.25).round() as usize;
    let n_ci = target / (side * side * side);
    Assessment::builder()
        .energy(paper::effective_energy())
        .ci_axis(
            iriscast_model::ScenarioAxis::linspace(
                "ci",
                Bounds::new(
                    iriscast_units::CarbonIntensity::from_grams_per_kwh(50.0),
                    iriscast_units::CarbonIntensity::from_grams_per_kwh(300.0),
                ),
                n_ci,
            )
            .expect("non-zero axis"),
        )
        .pue_axis(
            iriscast_model::ScenarioAxis::linspace(
                "pue",
                Bounds::new(Pue::new(1.1).unwrap(), Pue::new(1.6).unwrap()),
                side,
            )
            .expect("non-zero axis"),
        )
        .embodied_linspace(paper::server_embodied_bounds(), side)
        .lifespan_linspace(3.0, 7.0, side)
        .servers(paper::AMORTISATION_FLEET_SERVERS)
        .build()
        .expect("valid space")
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("scenario_space");
    g.sample_size(10);

    for &points in &[1_000usize, 10_000, 100_000] {
        let assessment = space_of(points);
        let n = assessment.space().len();
        g.bench_with_input(
            BenchmarkId::new("evaluate_space", n),
            &assessment,
            |b, a| b.iter(|| black_box(a.evaluate_space())),
        );
    }

    // Query costs on the largest batch.
    let assessment_100k = space_of(100_000);
    let results = assessment_100k.evaluate_space();
    g.bench_function("envelope_100k", |b| {
        b.iter(|| black_box(results.envelope()))
    });
    // Repeated-query path: the first call sorts once into the cached
    // view, every later call interpolates on it (PR 2 baseline re-sorted
    // per call: 3.2 ms at 100k points).
    g.bench_function("percentile_100k", |b| {
        b.iter(|| black_box(results.percentile(0.95).unwrap()))
    });
    // Batch path: a whole quantile grid over the shared sort.
    let grid = [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99];
    g.bench_function("percentiles_batch7_100k", |b| {
        b.iter(|| black_box(results.percentiles(&grid).unwrap()))
    });
    // One-shot path: `select_nth` without building (or having) a cache.
    let oneshot = assessment_100k.evaluate_space();
    g.bench_function("percentile_oneshot_100k", |b| {
        b.iter(|| black_box(oneshot.percentile_oneshot(0.95).unwrap()))
    });
    g.bench_function("summary_100k", |b| {
        b.iter(|| black_box(results.summary().unwrap()))
    });
    g.bench_function("marginals_100k", |b| {
        b.iter(|| black_box(results.marginals(iriscast_model::AxisId::Ci)))
    });

    // Warm sweep path: repeated evaluation into a reused buffer (the
    // day-sweep pattern) versus the cold `evaluate_space` above.
    let mut reused = assessment_100k.evaluate_space();
    g.bench_function("evaluate_space_into_100k", |b| {
        b.iter(|| {
            assessment_100k.evaluate_space_into(&mut reused);
            black_box(reused.totals().len())
        })
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
