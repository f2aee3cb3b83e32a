//! `cosim_week`: `CurtailmentScenario` over one simulated week — four
//! 64-node sites with `batch_hpc` job streams, live telemetry, and
//! meter outages on two sites — run curtailed and unconstrained (the
//! comparison column a curtailment study reads it against). Iterations
//! cycle through the seed's weeks.

use crate::inputs::{self, CosimVariant, CosimWeekInputs};
use crate::trace::Tracer;
use crate::{span_median, stats, timed, traced_iteration, Outcome, RunConfig};
use iriscast_grid::scenario::uk_november_2022;
use iriscast_grid::IntensitySeries;
use iriscast_sim::{CurtailmentRun, CurtailmentScenario, MeterOutage, SiteSpec};
use iriscast_telemetry::{
    DropoutMode, MeterKind, NodeGroupTelemetry, NodePowerModel, SiteTelemetryConfig,
};
use iriscast_units::{Period, Power, SimDuration, Timestamp};
use iriscast_workload::{generate, WorkloadConfig};

fn scenario(
    inp: &CosimWeekInputs,
    variant: &CosimVariant,
    month: &IntensitySeries,
    t: &mut Tracer,
) -> (CurtailmentScenario, usize) {
    let week = Period::starting_at(
        Timestamp::from_hours(variant.first_day as f64 * 24.0),
        SimDuration::from_days(7),
    );
    let intensity = month.slice(week).expect("the month covers the week");
    let threshold = intensity.percentile(inp.threshold_quantile);
    let at = |h: f64| Timestamp::from_hours(variant.first_day as f64 * 24.0 + h);
    let mut jobs_total = 0;
    let sites = inp
        .sites
        .iter()
        .zip(&variant.job_seeds)
        .enumerate()
        .map(|(i, (s, &job_seed))| {
            let jobs = t.span("workload.generate", || {
                generate(&WorkloadConfig::batch_hpc(), week, job_seed)
            });
            jobs_total += jobs.len();
            let mut telemetry = SiteTelemetryConfig::new(
                format!("W{i}"),
                vec![NodeGroupTelemetry {
                    label: "compute".into(),
                    count: s.nodes,
                    power_model: NodePowerModel::linear(
                        Power::from_watts(120.0),
                        Power::from_watts(550.0),
                    ),
                }],
                s.meter_seed,
            );
            telemetry.sample_step = SimDuration::SETTLEMENT_PERIOD;
            let outages = s
                .outages_h
                .iter()
                .zip([
                    (MeterKind::Pdu, DropoutMode::Gap),
                    (MeterKind::Ipmi, DropoutMode::HoldLast),
                ])
                .map(|(&(a, b), (method, mode))| MeterOutage {
                    method,
                    mode,
                    window: Period::new(at(a), at(b)),
                })
                .collect();
            SiteSpec {
                nodes: s.nodes,
                jobs,
                telemetry,
                outages,
            }
        })
        .collect();
    (
        CurtailmentScenario {
            window: week,
            intensity,
            threshold,
            level: inp.level,
            sites,
        },
        jobs_total,
    )
}

/// Every site's week energy is finite and positive.
fn energies_ok(run: &CurtailmentRun) -> bool {
    run.sites.iter().all(|s| {
        let kwh: f64 = s.energy.values().iter().map(|e| e.kilowatt_hours()).sum();
        kwh.is_finite() && kwh > 0.0
    })
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    // A traced run traces its set-ups, for the generate and grid spans.
    t.set_on(cfg.trace);
    let (weeks, warm_events) = crate::repeat_setup(&mut out, || {
        let root = t.enter("bench.setup");
        let inp = inputs::cosim_week(cfg.seed);
        let month = t.span("grid.simulate", || {
            uk_november_2022(inp.grid_seed)
                .simulate()
                .intensity()
                .clone()
        });
        let weeks: Vec<(CurtailmentScenario, usize)> = inp
            .variants
            .iter()
            .map(|v| scenario(&inp, v, &month, t))
            .collect();
        // Warm-up: the first week once, untimed as a sample.
        let warm = t
            .span("sim.run", || weeks[0].0.run())
            .expect("seeded scenario runs");
        t.exit(root);
        (weeks, warm.events_processed)
    });
    t.set_on(false);
    // Per week: the curtailed and unconstrained event counts, which
    // every repeat of the week must reproduce exactly.
    let mut events: Vec<(Option<u64>, Option<u64>)> = vec![(None, None); weeks.len()];
    events[0].0 = Some(warm_events);
    let mut ns_per_event = Vec::new();
    // Per week: its curtailed and its unconstrained run times, ms.
    let mut curtailed_ms = vec![Vec::new(); weeks.len()];
    let mut free_ms = vec![Vec::new(); weeks.len()];
    out.probe_ns = crate::run_for(cfg.seconds, weeks.len(), |i| {
        out.budget.sample(None);
        let (sc, _) = &weeks[i % weeks.len()];
        let expected = &mut events[i % weeks.len()];
        // Whole cycles alternate, so traced and untraced iterations
        // cover the same weeks.
        let traced = traced_iteration(cfg, i / weeks.len());
        t.set_on(traced);
        let root = t.enter("bench.iteration");
        let ((curtailed, free), main_ns) = timed(|| {
            let (curtailed, ns) = timed(|| t.span("sim.run", || sc.run()));
            curtailed_ms[i % weeks.len()].push(ns / 1e6);
            if let Ok(r) = &curtailed {
                ns_per_event.push(ns / r.events_processed as f64);
            }
            let (free, ns) = timed(|| t.span("sim.run_unconstrained", || sc.run_unconstrained()));
            free_ms[i % weeks.len()].push(ns / 1e6);
            (curtailed, free)
        });
        t.exit(root);
        t.set_on(false);
        if traced {
            out.traced_main_ns.push(main_ns);
        } else if cfg.trace {
            out.untraced_main_ns.push(main_ns);
        }
        let repeats = |run: &CurtailmentRun, seen: &mut Option<u64>| {
            *seen.get_or_insert(run.events_processed) == run.events_processed && energies_ok(run)
        };
        out.check(curtailed.is_ok_and(|r| repeats(&r, &mut expected.0)));
        out.check(free.is_ok_and(|r| repeats(&r, &mut expected.1)));
        // The engine runs on the caller's thread.
        out.budget.workers(1);
    });

    // Weeks differ in cost, so the quantile is taken per week.
    out.primary_ms = crate::fast_per_group(&curtailed_ms);
    out.secondary_ms = crate::fast_per_group(&free_ms);
    out.named = vec![
        ("cosim_ms", out.primary_ms, "ms"),
        ("cosim_unconstrained_ms", out.secondary_ms, "ms"),
        ("cosim_p50_ms", stats::median(&curtailed_ms.concat()), "ms"),
    ];
    if cfg.trace {
        let jobs: usize = weeks.iter().map(|(_, jobs)| jobs).sum();
        out.layers = vec![
            ("sim.events", warm_events as f64),
            ("sim.ns_per_event", stats::median(&ns_per_event)),
            (
                "workload.generate_ms",
                span_median(t, "workload.generate", 1e6),
            ),
            ("grid.simulate_ms", span_median(t, "grid.simulate", 1e6)),
            ("workload.jobs", jobs as f64 / weeks.len() as f64),
        ];
    }
    out
}
