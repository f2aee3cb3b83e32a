//! `snapshot_day`: the paper's own computation, one IRIS day per
//! iteration — collect, grid month, time-resolved build, evaluate,
//! stream the refined space, answer quantiles and marginals.

use crate::inputs::{self, SnapshotDayInputs};
use crate::trace::Tracer;
use crate::{span_median, stats, timed, traced_iteration, Outcome, RunConfig};
use iriscast_grid::scenario::uk_november_2022;
use iriscast_grid::IntensitySeries;
use iriscast_model::iris::IrisScenario;
use iriscast_model::paper;
use iriscast_model::space::AxisId;
use iriscast_model::time_resolved::TimeResolvedAssessment;
use iriscast_telemetry::{EnergySeries, GapPolicy};
use iriscast_units::{Energy, Period, SimDuration, Timestamp};
use std::hint::black_box;

/// Workers of the measured collect: the caller chooses the count, and
/// two workers on a two-core host shared with other tenants doubled
/// the spread.
const WORKERS: usize = 1;

/// Workers of the traced run's extra collect, which tracks the pool.
const POOL_WORKERS: usize = 2;

/// What one day assessment produced, reduced to what the checks need.
struct Day {
    /// Bits of every answer, folded; equal across iterations.
    digest: u64,
    /// The checks on this day's answers held.
    ok: bool,
    /// Node-samples the collect took.
    node_samples: f64,
    /// Wall time of the query stage, ns.
    query_ns: f64,
    /// Bits of the collected day's best-estimate total, kWh.
    total_bits: u64,
}

fn fold(digest: &mut u64, x: f64) {
    *digest = (*digest ^ x.to_bits()).wrapping_mul(0x0100_0000_01B3);
}

/// Builds an assessment of `energy` against `days` with `pue` ×
/// `side` embodied × `side` lifespan samples.
fn assessment(
    energy: &EnergySeries,
    days: &[IntensitySeries],
    pue: &[f64],
    side: usize,
) -> TimeResolvedAssessment {
    TimeResolvedAssessment::builder()
        .energy_series(energy.clone())
        .ci_series_all(days.iter().cloned())
        .pue_values(pue)
        .embodied_linspace(paper::server_embodied_bounds(), side)
        .lifespan_linspace(3.0, 7.0, side)
        .servers(paper::AMORTISATION_FLEET_SERVERS)
        .build()
        .expect("seeded axes are valid")
}

fn assess_day(inp: &SnapshotDayInputs, scenario: &IrisScenario, t: &mut Tracer) -> Day {
    let snap = t.span("telemetry.collect", || scenario.simulate(WORKERS));
    let node_samples = f64::from(snap.nodes()) * (86_400 / inp.sample_step_s) as f64;
    let energy = t.span("telemetry.series", || {
        let mut kwh: Vec<f64> = Vec::new();
        for r in &snap.site_results {
            let s = r
                .true_wall_series()
                .to_energy_series(SimDuration::SETTLEMENT_PERIOD, GapPolicy::HoldLast);
            kwh.resize(s.len(), 0.0);
            for (acc, e) in kwh.iter_mut().zip(s.values()) {
                *acc += e.kilowatt_hours();
            }
        }
        EnergySeries::new(
            Timestamp::EPOCH,
            SimDuration::SETTLEMENT_PERIOD,
            kwh.into_iter().map(Energy::from_kilowatt_hours).collect(),
        )
    });
    let days: Vec<IntensitySeries> = t.span("grid.simulate", || {
        let grid = uk_november_2022(inp.grid_seed).simulate();
        (0..inp.ci_days as i64)
            .map(|d| {
                grid.intensity()
                    .slice(Period::day(d))
                    .expect("the month covers its days")
                    .rebased(Timestamp::EPOCH)
            })
            .collect()
    });
    let (base, refined) = t.span("time_resolved.build", || {
        let base = assessment(&energy, &days, &inp.pue, inp.side);
        let refined = assessment(&energy, &days, &inp.refined_pue, inp.refined_side);
        // `chunks` builds the lazily cached per-(CI, PUE) convolution
        // tables, so that time_resolved work is not billed to the
        // engine spans below.
        drop(base.chunks(1));
        drop(refined.chunks(1));
        (base, refined)
    });
    let results = t.span("engine.evaluate", || base.evaluate_space());
    let (streamed, lo, hi, sum) = t.span("engine.stream", || {
        let (mut n, mut lo, mut hi, mut sum) = (0usize, f64::INFINITY, 0.0f64, 0.0f64);
        refined.stream_space(|p| {
            let kg = p.outcome.total().kilograms();
            n += 1;
            lo = lo.min(kg);
            hi = hi.max(kg);
            sum += kg;
        });
        (n, lo, hi, sum)
    });
    let ((pct, env, marginals), query_ns) = timed(|| {
        t.span("stats_view.query", || {
            let pct = results
                .percentiles(&inp.quantiles)
                .expect("quantiles in range");
            let env = results.envelope();
            let marginals: Vec<f64> = [AxisId::Ci, AxisId::Pue, AxisId::Embodied, AxisId::Lifespan]
                .into_iter()
                .flat_map(|axis| results.marginals(axis))
                .map(|m| m.mean_total.kilograms())
                .collect();
            (pct, env, marginals)
        })
    });

    let mut digest = 0xCBF2_9CE4_8422_2325u64;
    fold(&mut digest, snap.total().kilowatt_hours());
    for x in [lo, hi, sum] {
        fold(&mut digest, x);
    }
    for p in &pct {
        fold(&mut digest, p.kilograms());
    }
    fold(&mut digest, env.total.lo.kilograms());
    fold(&mut digest, env.total.hi.kilograms());
    for m in &marginals {
        fold(&mut digest, *m);
    }
    let (p5, p50, p95) = (pct[0], pct[1], pct[2]);
    let ok = streamed == refined.space().len()
        && streamed == inp.refined_points()
        && results.len() == inp.points()
        && env.total.lo <= p5
        && p5 <= p50
        && p50 <= p95
        && p95 <= env.total.hi
        && lo.is_finite()
        && lo > 0.0;
    black_box(&results);
    Day {
        digest,
        ok,
        node_samples,
        query_ns,
        total_bits: snap.total().kilowatt_hours().to_bits(),
    }
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let (inp, scenario, reference) = crate::repeat_setup(&mut out, || {
        let inp = inputs::snapshot_day(cfg.seed);
        let scenario = IrisScenario::paper_snapshot(inp.scenario_seed)
            .with_sample_step(SimDuration::from_secs(inp.sample_step_s));
        // Warm-up: one full day, whose answers every measured day
        // must reproduce bit for bit.
        let reference = assess_day(&inp, &scenario, t);
        (inp, scenario, reference)
    });
    out.check(reference.ok);

    let (mut day_ms, mut query_ms) = (Vec::new(), Vec::new());
    out.probe_ns = crate::run_for(cfg.seconds, 3, |i| {
        let traced = traced_iteration(cfg, i);
        t.set_on(traced);
        let root = t.enter("bench.iteration");
        let (day, ns) = timed(|| assess_day(&inp, &scenario, t));
        out.budget.sample(None);
        if traced {
            out.traced_main_ns.push(ns);
            let two = t.span("telemetry.collect_2w", || scenario.simulate(POOL_WORKERS));
            out.budget.workers(POOL_WORKERS);
            out.check(two.total().kilowatt_hours().to_bits() == reference.total_bits);
        } else if cfg.trace {
            out.untraced_main_ns.push(ns);
        }
        t.exit(root);
        t.set_on(false);
        out.check(day.ok && day.digest == reference.digest);
        out.budget.workers(WORKERS);
        day_ms.push(ns / 1e6);
        query_ms.push(day.query_ns / 1e6);
    });

    out.primary_ms = crate::fast(&day_ms);
    out.secondary_ms = crate::fast(&query_ms);
    out.named = vec![
        ("day_ms", out.primary_ms, "ms"),
        ("query_stage_ms", out.secondary_ms, "ms"),
        ("day_p50_ms", stats::median(&day_ms), "ms"),
    ];
    if cfg.trace {
        let collect_ms = span_median(t, "telemetry.collect", 1e6);
        out.layers = vec![
            ("telemetry.collect_ms", collect_ms),
            (
                "telemetry.collect_2w_ms",
                span_median(t, "telemetry.collect_2w", 1e6),
            ),
            (
                "telemetry.ns_per_node_sample",
                collect_ms * 1e6 / reference.node_samples,
            ),
            ("grid.simulate_ms", span_median(t, "grid.simulate", 1e6)),
            (
                "time_resolved.build_ms",
                span_median(t, "time_resolved.build", 1e6),
            ),
            ("engine.evaluate_ms", span_median(t, "engine.evaluate", 1e6)),
            (
                "engine.stream_ns_per_point",
                span_median(t, "engine.stream", 1.0) / inp.refined_points() as f64,
            ),
            (
                "stats_view.query_ms",
                span_median(t, "stats_view.query", 1e6),
            ),
        ];
    }
    out
}
