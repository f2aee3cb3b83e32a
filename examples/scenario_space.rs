//! Scenario-space sweep: the paper's Tables 3 and 4, generalised to
//! 12,000 scenarios.
//!
//! The paper evaluates `total = active + embodied` at three hand-picked
//! values per input. This example refines the same published ranges —
//! CI 50–300 g/kWh, PUE 1.1–1.6, embodied 400–1,100 kg/server, lifespan
//! 3–7 years — into a 20 × 10 × 10 × 6 cartesian product, evaluates it in
//! one batch, and asks questions a 3 × 3 table cannot answer: where does
//! the probability mass sit, and which input leaves the most uncertainty
//! unresolved?
//!
//! Run with: `cargo run --release --example scenario_space`

use iriscast::model::report::{paper_num, TextTable};
use iriscast::prelude::*;

fn main() {
    // 1. The paper's parameter ranges as dense axes.
    let assessment = Assessment::builder()
        .energy(Energy::from_kilowatt_hours(19_380.0))
        .ci_axis(
            ScenarioAxis::linspace(
                "carbon intensity",
                Bounds::new(
                    CarbonIntensity::from_grams_per_kwh(50.0),
                    CarbonIntensity::from_grams_per_kwh(300.0),
                ),
                20,
            )
            .expect("20 samples"),
        )
        .pue_values(&[1.1, 1.15, 1.2, 1.25, 1.3, 1.35, 1.4, 1.45, 1.5, 1.6])
        .embodied_linspace(
            Bounds::new(
                CarbonMass::from_kilograms(400.0),
                CarbonMass::from_kilograms(1_100.0),
            ),
            10,
        )
        .lifespan_linspace(3.0, 7.0, 6)
        .servers(2_398)
        .build()
        .expect("valid paper-shaped axes");

    let space = assessment.space();
    println!(
        "Scenario space: {} × {} × {} × {} = {} points\n",
        space.axis_len(AxisId::Ci),
        space.axis_len(AxisId::Pue),
        space.axis_len(AxisId::Embodied),
        space.axis_len(AxisId::Lifespan),
        space.len()
    );
    assert!(space.len() >= 10_000);

    // 2. Evaluate the whole space.
    let results = assessment.evaluate_space();

    // 3. Envelope and distribution. The corner-to-corner envelope is the
    //    paper's §6 range; percentiles show how extreme the corners are.
    let env = results.envelope();
    println!(
        "Total-carbon envelope: {}–{} kg (paper §6: 1,441–11,711 kg)",
        paper_num(env.total.lo.kilograms()),
        paper_num(env.total.hi.kilograms())
    );
    let table = TextTable::new(vec!["Statistic", "Total (kg CO2e)"])
        .title("Distribution over 12,000 scenarios")
        .row(vec!["min".to_string(), paper_num(env.total.lo.kilograms())])
        .row(vec![
            "p5".to_string(),
            paper_num(results.percentile(0.05).unwrap().kilograms()),
        ])
        .row(vec![
            "median".to_string(),
            paper_num(results.percentile(0.50).unwrap().kilograms()),
        ])
        .row(vec![
            "mean".to_string(),
            paper_num(results.mean_total().kilograms()),
        ])
        .row(vec![
            "p95".to_string(),
            paper_num(results.percentile(0.95).unwrap().kilograms()),
        ])
        .row(vec!["max".to_string(), paper_num(env.total.hi.kilograms())]);
    println!("{}", table.render());

    // 4. Grouped marginal analysis: pin each input in turn and measure
    //    the spread of mean totals across its samples — the batch
    //    analogue of a tornado chart. The widest spread names the input
    //    most worth measuring better.
    let mut spreads: Vec<(AxisId, f64)> = AxisId::ALL
        .iter()
        .map(|&axis| {
            let marginals = results.marginals(axis);
            let lo = marginals
                .iter()
                .map(|m| m.mean_total.kilograms())
                .fold(f64::INFINITY, f64::min);
            let hi = marginals
                .iter()
                .map(|m| m.mean_total.kilograms())
                .fold(f64::NEG_INFINITY, f64::max);
            (axis, hi - lo)
        })
        .collect();
    spreads.sort_by(|a, b| b.1.total_cmp(&a.1));

    let mut marg = TextTable::new(vec!["Input (pinned)", "Spread of mean totals (kg)"])
        .title("Which input buys the most certainty?");
    for (axis, spread) in &spreads {
        marg = marg.row(vec![space.axis_name(*axis).to_string(), paper_num(*spread)]);
    }
    println!("{}", marg.render());
    assert_eq!(
        spreads[0].0,
        AxisId::Ci,
        "carbon intensity dominates with 2022 grid ranges"
    );

    // 5. Drill into the dominant axis: the total's envelope conditional
    //    on each carbon-intensity sample.
    println!("Total-carbon range conditional on carbon intensity:");
    for m in results.marginals(AxisId::Ci).iter().step_by(4) {
        let ci = space.ci().samples()[m.sample_index];
        println!(
            "  {:>6.1} g/kWh: {:>6}–{:>6} kg (mean {:>6})",
            ci.grams_per_kwh(),
            paper_num(m.total.lo.kilograms()),
            paper_num(m.total.hi.kilograms()),
            paper_num(m.mean_total.kilograms()),
        );
    }

    // The corners must still bracket the paper's envelope (the dense
    // space includes the published corner scenarios).
    assert!(env.total.lo.kilograms() < 1_500.0);
    assert!(env.total.hi.kilograms() > 11_000.0);
}
