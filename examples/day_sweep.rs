//! Whole-day time-resolved sweep: Table 2 telemetry × Figure 1 grid days.
//!
//! The paper measures a 24-hour estate energy (Table 2) and multiplies
//! its total by three reference intensities read off a month of
//! half-hourly grid data (Figure 1). This example keeps both series
//! *time-resolved* instead: the federation's simulated wall power is
//! integrated to half-hourly energy slots and convolved, interval by
//! interval, against every November day's intensity profile — so the
//! scenario space sweeps *which day the workload ran on* alongside the
//! usual PUE / embodied / lifespan axes, and the answer shows how much
//! the scalar shortcut hides.
//!
//! The finale refines the axes to a >10M-point space and evaluates it
//! with `stream_space`, which never materialises result columns — memory
//! stays O(axes) no matter how many points stream past.
//!
//! Run with: `cargo run --release --example day_sweep`

use iriscast::grid::scenario::uk_november_2022;
use iriscast::model::iris::IrisScenario;
use iriscast::model::paper;
use iriscast::model::report::{ascii_bar, paper_num, TextTable};
use iriscast::prelude::*;
use iriscast::telemetry::timeseries::GapPolicy;
use iriscast::units::SimDuration;

fn main() {
    let seed = 2022;

    // ---- Table 2 substrate: one measured day of estate energy ---------
    println!("Simulating 24 h of telemetry for the IRIS federation…");
    let scenario = IrisScenario::paper_snapshot(seed).with_sample_step(SimDuration::from_secs(60));
    let snapshot = scenario.simulate(4);
    let mut wall = snapshot.site_results[0].true_wall_series().clone();
    for site in &snapshot.site_results[1..] {
        wall.add_assign_lenient(site.true_wall_series());
    }
    // 1-minute wall power → half-hourly energy slots, the granularity the
    // grid publishes intensity at.
    let energy = wall.to_energy_series(SimDuration::SETTLEMENT_PERIOD, GapPolicy::HoldLast);
    assert_eq!(energy.len(), 48);
    println!(
        "Measured: {} kWh across {} half-hourly slots\n",
        paper_num(energy.total().kilowatt_hours()),
        energy.len()
    );

    // ---- Figure 1 substrate: thirty candidate grid days ----------------
    // Each November day becomes one sample of the carbon-intensity axis,
    // rebased onto the telemetry clock so the grids align exactly.
    let sim = uk_november_2022(seed).simulate();
    let month = sim.intensity();
    let days: Vec<IntensitySeries> = (0..30)
        .map(|d| {
            month
                .slice(Period::day(d))
                .expect("the November simulation covers 30 whole days")
                .rebased(energy.start())
        })
        .collect();

    // ---- The time-resolved sweep: day × PUE × embodied × lifespan ------
    let assessment = TimeResolvedAssessment::builder()
        .energy_series(energy)
        .ci_series_all(days)
        .pue_values(&[1.1, 1.3, 1.6])
        .embodied_bounds(paper::server_embodied_bounds())
        .lifespans_years(&[3, 5, 7])
        .servers(paper::AMORTISATION_FLEET_SERVERS)
        .build()
        .expect("November days align with the telemetry grid");
    let space = assessment.space();
    println!(
        "Scenario space: {} grid days × {} PUE × {} embodied × {} lifespan = {} points",
        space.axis_len(AxisId::Ci),
        space.axis_len(AxisId::Pue),
        space.axis_len(AxisId::Embodied),
        space.axis_len(AxisId::Lifespan),
        space.len()
    );
    let results = assessment.evaluate_space();

    // ---- Which day the workload runs on is a first-class axis ----------
    // Marginalising over the day axis: the envelope of mean totals across
    // the other axes, one row per grid day.
    let day_marginals = results.marginals(AxisId::Ci);
    let best = day_marginals
        .iter()
        .min_by(|a, b| a.mean_total.total_cmp(&b.mean_total))
        .unwrap();
    let worst = day_marginals
        .iter()
        .max_by(|a, b| a.mean_total.total_cmp(&b.mean_total))
        .unwrap();
    println!("\nSame workload, same hardware — only the grid day changes (mean total, kg CO2e):");
    for m in &day_marginals {
        let kg = m.mean_total.kilograms();
        println!(
            "  day {:>2}  {:>6} kg  |{}|",
            m.sample_index,
            paper_num(kg),
            ascii_bar(kg, 0.0, worst.mean_total.kilograms() * 1.05, 40)
        );
    }
    println!(
        "Cleanest day {} vs dirtiest day {}: {} vs {} kg — a ×{:.1} spread the\n\
         scalar low/medium/high evaluation cannot attribute to a date.",
        best.sample_index,
        worst.sample_index,
        paper_num(best.mean_total.kilograms()),
        paper_num(worst.mean_total.kilograms()),
        worst.mean_total.kilograms() / best.mean_total.kilograms()
    );

    // ---- Per-interval structure of the dirtiest day --------------------
    // The paper's central scenario (PUE 1.3, 5-year lifespan), pinned to
    // the dirtiest grid day, resolved half-hour by half-hour.
    let idx = space
        .index_of([worst.sample_index, 1, 1, 1])
        .expect("central coordinates are in range");
    let profile = assessment.profile(idx).unwrap();
    let (clean_slot, clean_kg) = profile.cleanest_slot();
    let (dirty_slot, dirty_kg) = profile.dirtiest_slot();
    let mut t = TextTable::new(vec!["Half-hour (slot start)", "Active kg CO2e"])
        .title("Within-day extremes, dirtiest November day (PUE 1.3, 5 y)");
    t = t.row(vec![
        format!(
            "cleanest: {:>5.1} h",
            clean_slot.start().as_secs() as f64 / 3_600.0
        ),
        format!("{:.1}", clean_kg.kilograms()),
    ]);
    t = t.row(vec![
        format!(
            "dirtiest: {:>5.1} h",
            dirty_slot.start().as_secs() as f64 / 3_600.0
        ),
        format!("{:.1}", dirty_kg.kilograms()),
    ]);
    println!("\n{}", t.render());
    let per_slot: Vec<f64> = profile.active().iter().map(|a| a.kilograms()).collect();
    let sum: f64 = per_slot.iter().sum();
    let integrated = profile.integrated();
    assert!((sum - integrated.active.kilograms()).abs() < 1e-6 * integrated.active.kilograms());

    // ---- >10M points, bounded memory -----------------------------------
    // Refine the scalar axes until the space passes 10M points, then
    // stream it: the sink folds envelope + mean on the fly and no result
    // column is ever allocated (materialising this space would need three
    // 10M-row columns; streaming keeps memory at the axis tables).
    let huge = TimeResolvedAssessment::builder()
        .energy_series(assessment.energy().clone())
        .ci_series_all((0..30).map(|d| {
            month
                .slice(Period::day(d))
                .expect("covered day")
                .rebased(assessment.energy().start())
        }))
        .pue_values(
            &(0..70)
                .map(|i| 1.1 + 0.5 * f64::from(i) / 70.0)
                .collect::<Vec<_>>(),
        )
        .embodied_linspace(paper::server_embodied_bounds(), 70)
        .lifespan_linspace(3.0, 7.0, 70)
        .servers(paper::AMORTISATION_FLEET_SERVERS)
        .build()
        .expect("refined axes stay valid");
    let n = huge.space().len();
    assert!(n > 10_000_000, "space holds {n} points");
    let mut count = 0usize;
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    let mut sum_kg = 0.0f64;
    huge.stream_space(|p| {
        let kg = p.outcome.total().kilograms();
        lo = lo.min(kg);
        hi = hi.max(kg);
        sum_kg += kg;
        count += 1;
    });
    assert_eq!(count, n);
    println!(
        "Streamed {} time-resolved scenarios without materialising a column:\n\
         total carbon {}–{} kg, mean {} kg.",
        paper_num(count as f64),
        paper_num(lo),
        paper_num(hi),
        paper_num(sum_kg / count as f64)
    );
}
