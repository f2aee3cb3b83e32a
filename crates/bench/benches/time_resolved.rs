//! Time-resolved engine bench: half-hourly energy × intensity series
//! convolved over scenario spaces, materialised vs streamed vs chunked.
//!
//! Spaces mirror `scenario_space.rs` but the CI axis carries whole *days*
//! of half-hourly intensity data (48 slots each) instead of scalars, so
//! every point is a full Table 2 × Figure 1 convolution. The kernel
//! factors each (CI series, PUE) pair into one precomputed convolution,
//! so per-point cost must stay flat in series length — these benches pin
//! that down, along with the streaming paths' 10M-point throughput.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use iriscast_grid::IntensitySeries;
use iriscast_model::paper;
use iriscast_model::time_resolved::{TimeResolvedAssessment, TimeResolvedBuilder};
use iriscast_telemetry::EnergySeries;
use iriscast_units::{CarbonIntensity, CarbonMass, Energy, SimDuration, Timestamp};
use std::hint::black_box;

const SLOTS: usize = 48; // one day of settlement periods

/// A measured-looking day of half-hourly energy: a diurnal hump around
/// the paper's 19,380 kWh/day estate draw.
fn energy_day() -> EnergySeries {
    EnergySeries::new(
        Timestamp::EPOCH,
        SimDuration::SETTLEMENT_PERIOD,
        (0..SLOTS)
            .map(|i| {
                let phase = i as f64 / SLOTS as f64 * std::f64::consts::TAU;
                Energy::from_kilowatt_hours(403.75 * (1.0 + 0.25 * phase.sin()))
            })
            .collect(),
    )
}

/// One synthetic day of intensity data with a diurnal shape; `k` varies
/// the level so every CI-axis sample is distinct.
fn intensity_day(k: usize) -> IntensitySeries {
    IntensitySeries::new(
        Timestamp::EPOCH,
        SimDuration::SETTLEMENT_PERIOD,
        (0..SLOTS)
            .map(|i| {
                let phase = i as f64 / SLOTS as f64 * std::f64::consts::TAU;
                let level = 60.0 + 5.0 * k as f64;
                CarbonIntensity::from_grams_per_kwh(level + 45.0 * (1.0 - phase.cos()))
            })
            .collect(),
    )
}

/// A paper-shaped builder: `n_ci` day-long series × `side` samples on
/// each scalar axis → `n_ci · side³` points.
fn builder_of(n_ci: usize, side: usize) -> TimeResolvedBuilder {
    let pue: Vec<f64> = (0..side)
        .map(|i| 1.1 + 0.5 * i as f64 / side as f64)
        .collect();
    TimeResolvedAssessment::builder()
        .energy_series(energy_day())
        .ci_series_all((0..n_ci).map(intensity_day))
        .pue_values(&pue)
        .embodied_linspace(paper::server_embodied_bounds(), side)
        .lifespan_linspace(3.0, 7.0, side)
        .servers(paper::AMORTISATION_FLEET_SERVERS)
}

fn assessment_of(n_ci: usize, side: usize) -> TimeResolvedAssessment {
    builder_of(n_ci, side).build().expect("valid axes")
}

/// Streaming fold used by the 10M-point benches: envelope + count, the
/// cheapest useful consumer (anything heavier would time the sink, not
/// the engine).
fn stream_fold(a: &TimeResolvedAssessment) -> (usize, CarbonMass, CarbonMass) {
    let mut n = 0usize;
    let mut lo = CarbonMass::from_kilograms(f64::INFINITY);
    let mut hi = CarbonMass::ZERO;
    a.stream_space(|p| {
        let t = p.outcome.total();
        lo = lo.min(t);
        hi = hi.max(t);
        n += 1;
    });
    (n, lo, hi)
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("time_resolved");
    g.sample_size(10);

    // Build cost: alignment of 48 day-series onto the energy grid plus
    // the weighted-mean CI axis and kernel validation.
    let builder = builder_of(48, 6);
    g.bench_function("build_48_series", |b| {
        b.iter(|| black_box(builder.clone().build().unwrap()))
    });

    // Materialised evaluation from 864 to 209k points.
    for &(n_ci, side) in &[(4usize, 6usize), (10, 10), (16, 18), (51, 16)] {
        let assessment = assessment_of(n_ci, side);
        let n = assessment.space().len();
        g.bench_with_input(
            BenchmarkId::new("evaluate_space", n),
            &assessment,
            |b, a| b.iter(|| black_box(a.evaluate_space())),
        );
    }

    // Streaming a >10M-point day-sweep: 48 days × 60 × 59 × 60 =
    // 10,195,200 points, no columns materialised (memory stays O(axes)).
    let huge = builder_of(48, 60)
        .embodied_linspace(paper::server_embodied_bounds(), 59)
        .build()
        .expect("valid axes");
    let n = huge.space().len();
    assert!(n > 10_000_000, "space holds {n} points");
    g.bench_with_input(BenchmarkId::new("stream_space", n), &huge, |b, a| {
        b.iter(|| black_box(stream_fold(a)))
    });
    g.bench_with_input(BenchmarkId::new("chunks_64k", n), &huge, |b, a| {
        b.iter(|| {
            let mut points = 0usize;
            for chunk in a.chunks(1 << 16) {
                points += chunk.len();
            }
            black_box(points)
        })
    });

    // Per-interval profile of one scenario (48-slot trajectory).
    let small = assessment_of(30, 3);
    g.bench_function("profile_48_slots", |b| {
        b.iter(|| black_box(small.profile(7).unwrap()))
    });

    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
