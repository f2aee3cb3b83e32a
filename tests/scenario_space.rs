//! Integration tests for the scenario-space engine at scale: a
//! ≥10,000-point space evaluated in one batch, queried, and
//! checked for consistency with the paper-shaped compat surface.

use iriscast::prelude::*;

fn dense_paper_space() -> Assessment {
    Assessment::builder()
        .energy(Energy::from_kilowatt_hours(19_380.0))
        .ci_axis(
            ScenarioAxis::linspace(
                "carbon intensity",
                Bounds::new(
                    CarbonIntensity::from_grams_per_kwh(50.0),
                    CarbonIntensity::from_grams_per_kwh(300.0),
                ),
                21,
            )
            .unwrap(),
        )
        .pue_values(&[1.1, 1.2, 1.3, 1.4, 1.5, 1.6])
        .embodied_linspace(
            Bounds::new(
                CarbonMass::from_kilograms(400.0),
                CarbonMass::from_kilograms(1_100.0),
            ),
            15,
        )
        .lifespan_linspace(3.0, 7.0, 9)
        .servers(2_398)
        .build()
        .unwrap()
}

#[test]
fn ten_thousand_point_space_evaluates_and_queries() {
    let assessment = dense_paper_space();
    assert_eq!(assessment.space().len(), 21 * 6 * 15 * 9);
    assert!(assessment.space().len() >= 10_000);

    let results = assessment.evaluate_space();
    assert_eq!(results.len(), assessment.space().len());

    // The dense sweep includes the paper's corner scenarios, so its
    // envelope reproduces §6's 1,441–11,711 kg range exactly.
    let env = results.envelope();
    assert!((env.total.lo.kilograms() - 1_441.320_744).abs() < 0.01);
    assert!((env.total.hi.kilograms() - 11_711.349_772).abs() < 0.01);

    // Percentiles are interior and ordered.
    let p5 = results.percentile(0.05).unwrap();
    let p95 = results.percentile(0.95).unwrap();
    assert!(env.total.lo < p5 && p5 < p95 && p95 < env.total.hi);

    // Every point is retrievable and self-consistent.
    let mid = results.get(results.len() / 2).unwrap();
    assert_eq!(
        mid.outcome.total(),
        mid.outcome.active + mid.outcome.embodied
    );
}

#[test]
fn quantile_paths_and_buffer_reuse_agree_end_to_end() {
    let assessment = dense_paper_space();
    let results = assessment.evaluate_space();

    // Cached, batch and one-shot quantiles agree on the full stack.
    let qs = [0.05, 0.25, 0.5, 0.75, 0.95];
    let batch = results.percentiles(&qs).unwrap();
    let oneshot = assessment.evaluate_space();
    for (&q, &b) in qs.iter().zip(&batch) {
        assert_eq!(results.percentile(q).unwrap(), b, "q = {q}");
        assert_eq!(oneshot.percentile_oneshot(q).unwrap(), b, "q = {q}");
    }
    let s = results.summary().unwrap();
    assert_eq!(s.median, results.percentile(0.5).unwrap());
    assert_eq!(s.min, results.envelope().total.lo);
    assert_eq!(s.mean, results.mean_total());

    // Invalid quantiles are typed errors on every path.
    assert!(results.percentile(1.01).is_err());
    assert!(results.percentile_oneshot(-0.5).is_err());
    assert!(results.percentiles(&[0.5, 2.0]).is_err());

    // Buffer reuse reproduces a fresh evaluation bit for bit.
    let mut reused = Assessment::builder()
        .energy(Energy::from_kilowatt_hours(1.0))
        .ci_grams_per_kwh(&[100.0])
        .pue_values(&[1.2])
        .embodied_linspace(
            Bounds::new(
                CarbonMass::from_kilograms(400.0),
                CarbonMass::from_kilograms(1_100.0),
            ),
            2,
        )
        .lifespan_linspace(3.0, 7.0, 2)
        .servers(10)
        .build()
        .unwrap()
        .evaluate_space();
    assessment.evaluate_space_into(&mut reused);
    assert_eq!(reused, results);
    assert_eq!(
        reused.percentile(0.95).unwrap(),
        results.percentile(0.95).unwrap()
    );
}

#[test]
fn engine_envelope_matches_snapshot_adapter() {
    // The compat pipeline and a 3-sample-axis engine run must agree on
    // the §6 assessment exactly.
    let params = AssessmentParams::paper();
    let energy = Energy::from_kilowatt_hours(19_380.0);
    let snapshot = SnapshotAssessment::run(energy, &params);
    let results = params.engine(energy).unwrap().evaluate_space();
    assert_eq!(results.len(), 90);
    let env = results.envelope();
    assert_eq!(env.active, snapshot.assessment.active);
    assert_eq!(env.embodied, snapshot.assessment.embodied);
    assert_eq!(results.assessment().total(), snapshot.assessment.total());
}

#[test]
fn marginals_cover_the_space() {
    let results = dense_paper_space().evaluate_space();
    let env = results.envelope();
    for axis in AxisId::ALL {
        let marginals = results.marginals(axis);
        assert_eq!(marginals.len(), results.space().axis_len(axis));
        // The union of conditional envelopes is the joint envelope.
        let lo = marginals
            .iter()
            .map(|m| m.total.lo)
            .min_by(CarbonMass::total_cmp)
            .unwrap();
        let hi = marginals
            .iter()
            .map(|m| m.total.hi)
            .max_by(CarbonMass::total_cmp)
            .unwrap();
        assert_eq!(lo, env.total.lo, "{axis:?}");
        assert_eq!(hi, env.total.hi, "{axis:?}");
    }
}
