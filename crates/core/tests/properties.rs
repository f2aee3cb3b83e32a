//! Property-based tests for the carbon model's invariants.

use iriscast_grid::IntensitySeries;
use iriscast_model::embodied::{fleet_snapshot_daily, AmortizationPolicy};
use iriscast_model::engine::evaluate_one;
use iriscast_model::netzero::{project, DecarbonisationPathway, SteadyStateDri};
use iriscast_model::{
    ActiveCarbonGrid, Assessment, EmbodiedSweep, FleetScenario, TimeResolvedAssessment,
};
use iriscast_telemetry::{EnergySeries, SiteCollector, TelemetryError};
use iriscast_units::{
    Bounds, CarbonIntensity, CarbonMass, Energy, Pue, SimDuration, Timestamp, TriEstimate,
};
use proptest::prelude::*;

/// A time-resolved assessment over `slots` settlement periods of varying
/// energy, with `n_ci` intensity series sampled `fine`× finer than the
/// energy grid (fine = 1 means same-step).
#[allow(clippy::too_many_arguments)] // one knob per generated axis
fn time_resolved_fixture(
    slots: usize,
    kwh: f64,
    fine: usize,
    n_ci: usize,
    n_pue: usize,
    n_emb: usize,
    n_life: usize,
    servers: u32,
) -> TimeResolvedAssessment {
    let energy = EnergySeries::new(
        Timestamp::EPOCH,
        SimDuration::SETTLEMENT_PERIOD,
        (0..slots)
            .map(|i| Energy::from_kilowatt_hours(kwh * (1.0 + (i % 7) as f64)))
            .collect(),
    );
    let ci_step = SimDuration::from_secs(SimDuration::SETTLEMENT_PERIOD.as_secs() / fine as i64);
    let ci_series = (0..n_ci).map(|k| {
        IntensitySeries::new(
            Timestamp::EPOCH,
            ci_step,
            (0..slots * fine)
                .map(|i| {
                    CarbonIntensity::from_grams_per_kwh(
                        40.0 + 60.0 * k as f64 + 3.0 * (i % 11) as f64,
                    )
                })
                .collect(),
        )
    });
    TimeResolvedAssessment::builder()
        .energy_series(energy)
        .ci_series_all(ci_series)
        .pue_values(&[1.1, 1.2, 1.35, 1.5][..n_pue])
        .embodied_linspace(
            Bounds::new(
                CarbonMass::from_kilograms(400.0),
                CarbonMass::from_kilograms(1_100.0),
            ),
            n_emb,
        )
        .lifespan_linspace(2.0, 8.0, n_life)
        .servers(servers)
        .build()
        .expect("fixture axes are valid and aligned")
}

fn ordered_triple(lo: f64, hi: f64) -> impl Strategy<Value = (f64, f64, f64)> {
    (lo..hi, lo..hi, lo..hi).prop_map(|(a, b, c)| {
        let mut v = [a, b, c];
        v.sort_by(f64::total_cmp);
        (v[0], v[1], v[2])
    })
}

proptest! {
    /// Every amortisation policy conserves the embodied total over the
    /// lifetime, for arbitrary lifespans and partitions.
    #[test]
    fn amortisation_conserves(
        total_kg in 1.0..5_000.0f64,
        lifespan_years in 0.5..15.0f64,
        parts in 1usize..40,
        rate in 0.05..0.9f64,
        usage in 0.1..3.0f64,
    ) {
        let total = CarbonMass::from_kilograms(total_kg);
        let life = SimDuration::from_years(lifespan_years);
        let window = SimDuration::from_secs(life.as_secs() / parts as i64);
        prop_assume!(window.as_secs() > 0);
        for policy in [
            AmortizationPolicy::Linear,
            AmortizationPolicy::DecliningBalance { rate },
        ] {
            let mut sum = CarbonMass::ZERO;
            for p in 0..parts {
                sum += policy.charge(total, life, window * p as i64, window);
            }
            // The final window may undershoot end-of-life by division
            // remainder; add the tail.
            let covered = window * parts as i64;
            if covered < life {
                sum += policy.charge(total, life, covered, life - covered);
            }
            prop_assert!(
                (sum.kilograms() - total_kg).abs() < total_kg * 1e-9 + 1e-6,
                "{policy:?}: {} vs {total_kg}",
                sum.kilograms()
            );
        }
        // Usage-weighted at constant relative usage u sums to u × total.
        let policy = AmortizationPolicy::UsageWeighted { relative_usage: usage };
        let whole = policy.charge(total, life, SimDuration::ZERO, life);
        prop_assert!((whole.kilograms() - total_kg * usage).abs() < 1e-6);
    }

    /// Charges are additive in the window: charge(a, w1+w2) =
    /// charge(a, w1) + charge(a+w1, w2), for every policy.
    #[test]
    fn amortisation_additive(
        total_kg in 1.0..5_000.0f64,
        lifespan_years in 1.0..15.0f64,
        a_frac in 0.0..1.0f64,
        w1_frac in 0.0..1.0f64,
        w2_frac in 0.0..1.0f64,
        rate in 0.05..0.9f64,
    ) {
        let total = CarbonMass::from_kilograms(total_kg);
        let life = SimDuration::from_years(lifespan_years);
        let age = SimDuration::from_secs((life.as_secs() as f64 * a_frac) as i64);
        let w1 = SimDuration::from_secs((life.as_secs() as f64 * w1_frac * 0.5) as i64);
        let w2 = SimDuration::from_secs((life.as_secs() as f64 * w2_frac * 0.5) as i64);
        for policy in [
            AmortizationPolicy::Linear,
            AmortizationPolicy::DecliningBalance { rate },
        ] {
            let joined = policy.charge(total, life, age, w1 + w2);
            let split = policy.charge(total, life, age, w1)
                + policy.charge(total, life, age + w1, w2);
            prop_assert!(
                (joined.grams() - split.grams()).abs() < total_kg * 1e-6 + 1e-6,
                "{policy:?}"
            );
        }
    }

    /// Table 3-style grids are monotone in energy, CI and PUE.
    #[test]
    fn active_grid_monotone(
        kwh1 in 100.0..1e6f64,
        kwh2 in 100.0..1e6f64,
        (ci_lo, ci_mid, ci_hi) in ordered_triple(1.0, 900.0),
        (pue_lo, pue_mid, pue_hi) in ordered_triple(1.0, 2.5),
    ) {
        let ci = TriEstimate::new(
            CarbonIntensity::from_grams_per_kwh(ci_lo),
            CarbonIntensity::from_grams_per_kwh(ci_mid),
            CarbonIntensity::from_grams_per_kwh(ci_hi),
        );
        let pue = TriEstimate::new(
            Pue::new(pue_lo).unwrap(),
            Pue::new(pue_mid).unwrap(),
            Pue::new(pue_hi).unwrap(),
        );
        let (e_lo, e_hi) = if kwh1 <= kwh2 { (kwh1, kwh2) } else { (kwh2, kwh1) };
        let g_small = ActiveCarbonGrid::compute(Energy::from_kilowatt_hours(e_lo), ci, pue);
        let g_big = ActiveCarbonGrid::compute(Energy::from_kilowatt_hours(e_hi), ci, pue);
        for i in 0..3 {
            for j in 0..3 {
                prop_assert!(g_small.cells[i][j] <= g_big.cells[i][j]);
                if j < 2 {
                    prop_assert!(g_small.cells[i][j] <= g_small.cells[i][j + 1]);
                }
                if i < 2 {
                    prop_assert!(g_small.cells[i][j] <= g_small.cells[i + 1][j]);
                }
            }
        }
        // Envelope really brackets all cells.
        let env = g_big.envelope();
        for row in &g_big.cells {
            for c in row {
                prop_assert!(*c >= env.lo && *c <= env.hi);
            }
        }
    }

    /// Embodied sweeps scale linearly in fleet size and inversely in
    /// lifespan.
    #[test]
    fn embodied_sweep_scaling(
        lo_kg in 50.0..800.0f64,
        hi_extra in 0.0..1_000.0f64,
        servers in 1u32..10_000,
    ) {
        let bounds = Bounds::new(
            CarbonMass::from_kilograms(lo_kg),
            CarbonMass::from_kilograms(lo_kg + hi_extra),
        );
        let sweep1 = EmbodiedSweep::compute(bounds, &[3, 4, 5, 6, 7], servers);
        let sweep2 = EmbodiedSweep::compute(bounds, &[3, 4, 5, 6, 7], servers * 2);
        for (a, b) in sweep1.rows.iter().zip(sweep2.rows.iter()) {
            prop_assert!(
                (b.fleet_snapshot.lo.grams() - 2.0 * a.fleet_snapshot.lo.grams()).abs()
                    < a.fleet_snapshot.lo.grams() * 1e-12 + 1e-6
            );
        }
        // Inverse in lifespan: year y row × y == year 1 charge.
        for row in &sweep1.rows {
            let daily_y1 = bounds.lo.grams() / 365.0;
            let scaled = row.per_server_daily.lo.grams() * f64::from(row.lifespan_years);
            prop_assert!((scaled - daily_y1).abs() < daily_y1 * 1e-9 + 1e-9);
        }
    }

    /// The engine on 3-sample axes reproduces the Table 3 adapter
    /// cell-for-cell — and both match the paper's formula
    /// `(E × PUE) × CI` computed independently — for arbitrary valid
    /// inputs.
    #[test]
    fn engine_reproduces_active_grid_cell_for_cell(
        kwh in 100.0..1e6f64,
        (ci_lo, ci_mid, ci_hi) in ordered_triple(1.0, 900.0),
        (pue_lo, pue_mid, pue_hi) in ordered_triple(1.0, 2.5),
    ) {
        let energy = Energy::from_kilowatt_hours(kwh);
        let ci = TriEstimate::new(
            CarbonIntensity::from_grams_per_kwh(ci_lo),
            CarbonIntensity::from_grams_per_kwh(ci_mid),
            CarbonIntensity::from_grams_per_kwh(ci_hi),
        );
        let pue = TriEstimate::new(
            Pue::new(pue_lo).unwrap(),
            Pue::new(pue_mid).unwrap(),
            Pue::new(pue_hi).unwrap(),
        );
        let grid = ActiveCarbonGrid::compute(energy, ci, pue);
        let results = Assessment::builder()
            .energy(energy)
            .ci_tri(ci)
            .pue_tri(pue)
            .embodied_bounds(Bounds::new(CarbonMass::ZERO, CarbonMass::ZERO))
            .lifespans_years(&[1])
            .servers(0)
            .build()
            .unwrap()
            .evaluate_space();
        prop_assert_eq!(results.len(), 18);
        let cis = [ci.low, ci.mid, ci.high];
        let pues = [pue.low, pue.mid, pue.high];
        for (i, &ci_val) in cis.iter().enumerate() {
            for (j, &pue_val) in pues.iter().enumerate() {
                // Two embodied samples per (ci, pue): both carry the
                // same active value.
                let idx = (i * 3 + j) * 2;
                prop_assert_eq!(grid.cells[i][j], results.active()[idx]);
                prop_assert_eq!(results.active()[idx], results.active()[idx + 1]);
                // The paper's formula, computed outside the engine.
                let direct = pue_val.apply(energy) * ci_val;
                prop_assert_eq!(grid.cells[i][j], direct);
            }
        }
    }

    /// The engine on a 2 × n embodied/lifespan space reproduces the
    /// Table 4 adapter cell-for-cell, and both match the amortisation
    /// formula directly.
    #[test]
    fn engine_reproduces_embodied_sweep_cell_for_cell(
        lo_kg in 50.0..800.0f64,
        hi_extra in 0.0..1_000.0f64,
        servers in 1u32..10_000,
        lifespans in prop::collection::vec(1u32..15, 1..8),
    ) {
        let bounds = Bounds::new(
            CarbonMass::from_kilograms(lo_kg),
            CarbonMass::from_kilograms(lo_kg + hi_extra),
        );
        let sweep = EmbodiedSweep::try_compute(bounds, &lifespans, servers).unwrap();
        prop_assert_eq!(sweep.rows.len(), lifespans.len());
        for (row, &years) in sweep.rows.iter().zip(&lifespans) {
            let y = f64::from(years);
            prop_assert_eq!(row.lifespan_years, years);
            prop_assert_eq!(
                row.fleet_snapshot.lo,
                fleet_snapshot_daily(bounds.lo, y, servers)
            );
            prop_assert_eq!(
                row.fleet_snapshot.hi,
                fleet_snapshot_daily(bounds.hi, y, servers)
            );
        }
        // The envelope is total (no panic) and brackets every cell.
        let env = sweep.try_envelope().unwrap();
        for row in &sweep.rows {
            prop_assert!(env.lo <= row.fleet_snapshot.lo);
            prop_assert!(env.hi >= row.fleet_snapshot.hi);
        }
    }

    /// Time-resolved evaluation: the streamed, materialised and chunked
    /// paths agree bit-for-bit, and each point equals the
    /// per-slot scalar summation through `evaluate_one` — the property
    /// that makes the time-resolved engine a strict generalisation of
    /// the scalar one.
    #[test]
    fn time_resolved_streamed_materialised_scalar_summed_agree(
        slots in 1usize..80,
        kwh in 0.01..50.0f64,
        fine in 1usize..4,
        n_ci in 1usize..4,
        n_pue in 1usize..5,
        n_emb in 1usize..3,
        n_life in 1usize..4,
        servers in 1u32..5_000,
    ) {
        let a = time_resolved_fixture(slots, kwh, fine, n_ci, n_pue, n_emb, n_life, servers);
        let results = a.evaluate_space();
        prop_assert_eq!(results.len(), n_ci * n_pue * n_emb * n_life);

        // Materialised ≡ streamed, point for point.
        let mut streamed = Vec::with_capacity(results.len());
        a.stream_space(|p| streamed.push(p));
        for (i, p) in streamed.iter().enumerate() {
            prop_assert_eq!(*p, results.get(i).unwrap());
            prop_assert_eq!(*p, a.evaluate(i).unwrap());
        }

        // Materialised ≡ chunked (uneven chunk size on purpose).
        let mut idx = 0;
        for chunk in a.chunks(13) {
            prop_assert_eq!(chunk.start, idx);
            for k in 0..chunk.len() {
                prop_assert_eq!(chunk.active[k], results.active()[idx + k]);
                prop_assert_eq!(chunk.embodied[k], results.embodied()[idx + k]);
                prop_assert_eq!(chunk.total[k], results.totals()[idx + k]);
            }
            idx += chunk.len();
        }
        prop_assert_eq!(idx, results.len());

        // Every point ≡ the scalar kernel summed slot by slot.
        for index in [0, results.len() / 2, results.len() - 1] {
            let p = results.get(index).unwrap();
            let aligned = a.aligned_intensity(p.point.coords[0]).unwrap();
            let mut active = CarbonMass::ZERO;
            for (&e, &c) in a.energy().values().iter().zip(aligned) {
                active += evaluate_one(
                    e,
                    servers,
                    1.0,
                    c,
                    p.point.pue,
                    p.point.embodied_per_server,
                    p.point.lifespan_years,
                )
                .active;
            }
            prop_assert_eq!(active, p.outcome.active);
            let embodied = evaluate_one(
                Energy::ZERO,
                servers,
                a.window_days(),
                CarbonIntensity::ZERO,
                p.point.pue,
                p.point.embodied_per_server,
                p.point.lifespan_years,
            )
            .embodied;
            prop_assert_eq!(embodied, p.outcome.embodied);

            // The per-interval profile integrates to the same outcome.
            let profile = a.profile(index).unwrap();
            prop_assert_eq!(profile.integrated(), p.outcome);
            let slot_sum: CarbonMass = profile.active().iter().copied().sum();
            prop_assert!(
                (slot_sum.grams() - p.outcome.active.grams()).abs()
                    <= 1e-9 * p.outcome.active.grams() + 1e-9
            );
        }

        // The energy-weighted mean CI on the axis reproduces the
        // convolution through the scalar formula (to float tolerance).
        for (ci_i, &mean_ci) in a.space().ci().samples().iter().enumerate() {
            let coords = [ci_i, 0, 0, 0];
            let index = a.space().index_of(coords).unwrap();
            let p = results.get(index).unwrap();
            let scalar = p.point.pue.apply(a.energy().total()) * mean_ci;
            prop_assert!(
                (scalar.grams() - p.outcome.active.grams()).abs()
                    <= 1e-6 * p.outcome.active.grams() + 1e-9,
                "{} vs {}",
                scalar.grams(),
                p.outcome.active.grams()
            );
        }
    }

    /// Series that cannot be aligned exactly — too short, phase-skewed,
    /// or on a non-multiple step — surface as typed errors at build,
    /// never as silent interpolation.
    #[test]
    fn time_resolved_misalignment_is_always_a_typed_error(
        slots in 2usize..60,
        skew in 1i64..1_800,
    ) {
        let energy = EnergySeries::new(
            Timestamp::EPOCH,
            SimDuration::SETTLEMENT_PERIOD,
            vec![Energy::from_kilowatt_hours(10.0); slots],
        );
        let ci_values = |n: usize| -> Vec<CarbonIntensity> {
            (0..n)
                .map(|i| CarbonIntensity::from_grams_per_kwh(100.0 + i as f64))
                .collect()
        };
        let build = |series: IntensitySeries| {
            TimeResolvedAssessment::builder()
                .energy_series(energy.clone())
                .ci_series(series)
                .pue_values(&[1.3])
                .embodied_linspace(
                    Bounds::new(
                        CarbonMass::from_kilograms(400.0),
                        CarbonMass::from_kilograms(1_100.0),
                    ),
                    2,
                )
                .lifespan_linspace(3.0, 7.0, 2)
                .servers(100)
                .build()
        };
        // Mismatched length: one slot short of covering the window.
        let short = IntensitySeries::new(
            Timestamp::EPOCH,
            SimDuration::SETTLEMENT_PERIOD,
            ci_values(slots - 1),
        );
        prop_assert!(matches!(
            build(short),
            Err(iriscast_model::Error::Units(_))
        ));
        // Phase skew: same step, start offset by a fraction of a slot.
        let skewed = IntensitySeries::new(
            Timestamp::from_secs(-skew),
            SimDuration::SETTLEMENT_PERIOD,
            ci_values(slots + 1),
        );
        prop_assert!(matches!(
            build(skewed),
            Err(iriscast_model::Error::Units(_))
        ));
        // Non-multiple step: 25 minutes vs 30-minute energy slots.
        let odd = IntensitySeries::new(
            Timestamp::EPOCH,
            SimDuration::from_minutes(25),
            ci_values(slots * 2),
        );
        prop_assert!(matches!(build(odd), Err(iriscast_model::Error::Units(_))));
        // A same-grid series still builds (control).
        let ok = IntensitySeries::new(
            Timestamp::EPOCH,
            SimDuration::SETTLEMENT_PERIOD,
            ci_values(slots),
        );
        prop_assert!(build(ok).is_ok());
    }

    /// Every quantile path — cached sorted view, batch-over-one-sort,
    /// `select_nth` one-shot — agrees exactly with the naive
    /// sort-per-call definition, for arbitrary spaces and quantiles.
    #[test]
    fn quantile_paths_agree_with_naive_sort_per_call(
        kwh in 100.0..1e6f64,
        n_ci in 1usize..6,
        n_pue in 1usize..5,
        n_emb in 1usize..5,
        n_life in 1usize..6,
        qs in prop::collection::vec(0.0..=1.0f64, 1..8),
        servers in 0u32..5_000,
    ) {
        let a = Assessment::builder()
            .energy(Energy::from_kilowatt_hours(kwh))
            .ci_axis(iriscast_model::ScenarioAxis::linspace(
                "ci",
                Bounds::new(
                    CarbonIntensity::from_grams_per_kwh(10.0),
                    CarbonIntensity::from_grams_per_kwh(500.0),
                ),
                n_ci,
            ).unwrap())
            .pue_axis(iriscast_model::ScenarioAxis::linspace(
                "pue",
                Bounds::new(Pue::new(1.05).unwrap(), Pue::new(2.2).unwrap()),
                n_pue,
            ).unwrap())
            .embodied_linspace(
                Bounds::new(
                    CarbonMass::from_kilograms(100.0),
                    CarbonMass::from_kilograms(1_500.0),
                ),
                n_emb,
            )
            .lifespan_linspace(1.0, 12.0, n_life)
            .servers(servers)
            .build()
            .unwrap();
        let results = a.evaluate_space();
        // `fresh` exercises the select path (no cache built yet).
        let fresh = a.evaluate_space();
        let kg: Vec<f64> = results.totals().iter().map(|t| t.kilograms()).collect();
        let batch = results.percentiles(&qs).unwrap();
        for (i, &q) in qs.iter().enumerate() {
            let naive = CarbonMass::from_kilograms(
                iriscast_grid::stats::percentile(&kg, q).unwrap(),
            );
            prop_assert_eq!(results.percentile(q).unwrap(), naive, "cached q={}", q);
            prop_assert_eq!(batch[i], naive, "batch q={}", q);
            prop_assert_eq!(fresh.percentile_oneshot(q).unwrap(), naive, "select q={}", q);
            prop_assert_eq!(results.percentile_oneshot(q).unwrap(), naive, "cache-hit q={}", q);
        }
        let naive_mean =
            CarbonMass::from_kilograms(iriscast_grid::stats::mean(&kg).unwrap());
        prop_assert_eq!(results.mean_total(), naive_mean);
    }

    /// `evaluate_space_into` is bit-identical to `evaluate_space`
    /// whatever state the reused buffer arrives in, for both the scalar
    /// and time-resolved engines.
    #[test]
    fn evaluate_into_matches_evaluate(
        kwh in 100.0..1e6f64,
        n_ci in 1usize..5,
        n_pue in 1usize..4,
        n_emb in 1usize..4,
        n_life in 1usize..5,
        prev_ci in 1usize..5,
        slots in 1usize..40,
        servers in 1u32..5_000,
    ) {
        let space_of = |n: usize| Assessment::builder()
            .energy(Energy::from_kilowatt_hours(kwh))
            .ci_axis(iriscast_model::ScenarioAxis::linspace(
                "ci",
                Bounds::new(
                    CarbonIntensity::from_grams_per_kwh(10.0),
                    CarbonIntensity::from_grams_per_kwh(500.0),
                ),
                n,
            ).unwrap())
            .pue_axis(iriscast_model::ScenarioAxis::linspace(
                "pue",
                Bounds::new(Pue::new(1.05).unwrap(), Pue::new(2.2).unwrap()),
                n_pue,
            ).unwrap())
            .embodied_linspace(
                Bounds::new(
                    CarbonMass::from_kilograms(100.0),
                    CarbonMass::from_kilograms(1_500.0),
                ),
                n_emb,
            )
            .lifespan_linspace(1.0, 12.0, n_life)
            .servers(servers)
            .build()
            .unwrap();
        let a = space_of(n_ci);
        let fresh = a.evaluate_space();
        // Reuse a result of a (usually different) shape, cache warmed.
        let mut reused = space_of(prev_ci).evaluate_space();
        let _ = reused.percentile(0.5).unwrap();
        a.evaluate_space_into(&mut reused);
        prop_assert_eq!(&reused, &fresh);
        prop_assert_eq!(reused.percentile(0.5).unwrap(), fresh.percentile(0.5).unwrap());
        // Same-shape warm re-sweep.
        a.evaluate_space_into(&mut reused);
        prop_assert_eq!(&reused, &fresh);

        // Time-resolved engine shares the same path.
        let tr = time_resolved_fixture(slots, 5.0, 1, n_ci, n_pue, n_emb, n_life, servers);
        let tr_fresh = tr.evaluate_space();
        let mut tr_reused = space_of(prev_ci).evaluate_space();
        tr.evaluate_space_into(&mut tr_reused);
        prop_assert_eq!(&tr_reused, &tr_fresh);
    }

    /// Incremental fold ≡ batch recompute, bit for bit, at arbitrary
    /// CI-axis split points: growing a [`iriscast_model::engine::SpaceResults`]
    /// through `extend_rows` segment by segment — with the cached sort
    /// warmed (or not) between folds — answers every query surface
    /// (columns, quantiles, envelope, marginals, summary) identically to
    /// one evaluation over the whole axis.
    #[test]
    fn space_fold_equals_batch_at_any_split(
        kwh in 100.0..1e6f64,
        n_ci in 2usize..8,
        n_pue in 1usize..4,
        n_emb in 1usize..4,
        n_life in 1usize..4,
        cuts in prop::collection::vec(1usize..100, 0..4),
        warm in 0u32..2,
        servers in 1u32..5_000,
    ) {
        let full_axis = iriscast_model::ScenarioAxis::linspace(
            "ci",
            Bounds::new(
                CarbonIntensity::from_grams_per_kwh(10.0),
                CarbonIntensity::from_grams_per_kwh(500.0),
            ),
            n_ci,
        ).unwrap();
        let build = |samples: Vec<CarbonIntensity>| Assessment::builder()
            .energy(Energy::from_kilowatt_hours(kwh))
            .ci_axis(iriscast_model::ScenarioAxis::new("ci", samples).unwrap())
            .pue_axis(iriscast_model::ScenarioAxis::linspace(
                "pue",
                Bounds::new(Pue::new(1.05).unwrap(), Pue::new(2.2).unwrap()),
                n_pue,
            ).unwrap())
            .embodied_linspace(
                Bounds::new(
                    CarbonMass::from_kilograms(100.0),
                    CarbonMass::from_kilograms(1_500.0),
                ),
                n_emb,
            )
            .lifespan_linspace(1.0, 12.0, n_life)
            .servers(servers)
            .build()
            .unwrap();
        let batch = build(full_axis.samples().to_vec()).evaluate_space();

        // Arbitrary split points along the CI axis.
        let mut bounds: Vec<usize> = cuts.iter().map(|c| 1 + c % (n_ci - 1).max(1)).collect();
        bounds.push(0);
        bounds.push(n_ci);
        bounds.sort_unstable();
        bounds.dedup();
        let segments: Vec<&[CarbonIntensity]> = bounds
            .windows(2)
            .map(|w| &full_axis.samples()[w[0]..w[1]])
            .collect();

        let mut live = build(segments[0].to_vec()).evaluate_space();
        for seg in &segments[1..] {
            if warm == 1 {
                // Keep the cached sort warm between folds: the gallop
                // path, not a lazy rebuild, must answer below.
                let _ = live.percentile(0.5).unwrap();
            }
            live.extend_rows(&build(seg.to_vec()).evaluate_space()).unwrap();
        }

        prop_assert_eq!(&live, &batch);
        prop_assert_eq!(live.totals(), batch.totals());
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
            prop_assert_eq!(
                live.percentile(q).unwrap(),
                batch.percentile(q).unwrap(),
                "q = {}", q
            );
        }
        prop_assert_eq!(live.envelope(), batch.envelope());
        prop_assert_eq!(live.mean_total(), batch.mean_total());
        prop_assert_eq!(live.summary().unwrap(), batch.summary().unwrap());
        for axis in iriscast_model::AxisId::ALL {
            prop_assert_eq!(live.marginals(axis), batch.marginals(axis), "{:?}", axis);
        }
    }

    /// `retract_rows` is the exact inverse of `extend_rows`: fold the
    /// whole CI axis one sample at a time, evict the oldest `k`, and
    /// the survivor answers every query surface bit-identically to a
    /// batch into which those samples were **never ingested** — with
    /// the cached sort warmed (or not) across folds and eviction.
    #[test]
    fn space_retract_equals_never_ingested(
        kwh in 100.0..1e6f64,
        n_ci in 2usize..8,
        n_pue in 1usize..4,
        n_emb in 1usize..4,
        n_life in 1usize..4,
        evict in 1usize..8,
        warm in 0u32..2,
        servers in 1u32..5_000,
    ) {
        let evict = evict.min(n_ci - 1);
        let full_axis = iriscast_model::ScenarioAxis::linspace(
            "ci",
            Bounds::new(
                CarbonIntensity::from_grams_per_kwh(10.0),
                CarbonIntensity::from_grams_per_kwh(500.0),
            ),
            n_ci,
        ).unwrap();
        let build = |samples: Vec<CarbonIntensity>| Assessment::builder()
            .energy(Energy::from_kilowatt_hours(kwh))
            .ci_axis(iriscast_model::ScenarioAxis::new("ci", samples).unwrap())
            .pue_axis(iriscast_model::ScenarioAxis::linspace(
                "pue",
                Bounds::new(Pue::new(1.05).unwrap(), Pue::new(2.2).unwrap()),
                n_pue,
            ).unwrap())
            .embodied_linspace(
                Bounds::new(
                    CarbonMass::from_kilograms(100.0),
                    CarbonMass::from_kilograms(1_500.0),
                ),
                n_emb,
            )
            .lifespan_linspace(1.0, 12.0, n_life)
            .servers(servers)
            .build()
            .unwrap();

        // The reference: only the surviving CI samples, folded in the
        // same one-sample-at-a-time rhythm the live path uses.
        let survivors = &full_axis.samples()[evict..];
        let mut never = build(vec![survivors[0]]).evaluate_space();
        for &ci in &survivors[1..] {
            never.extend_rows(&build(vec![ci]).evaluate_space()).unwrap();
        }

        let mut live = build(vec![full_axis.samples()[0]]).evaluate_space();
        for &ci in &full_axis.samples()[1..] {
            if warm == 1 {
                let _ = live.percentile(0.5).unwrap();
            }
            live.extend_rows(&build(vec![ci]).evaluate_space()).unwrap();
        }
        if warm == 1 {
            let _ = live.percentile(0.5).unwrap();
        }
        live.retract_rows(evict).unwrap();

        prop_assert_eq!(&live, &never);
        for q in [0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
            prop_assert_eq!(
                live.percentile(q).unwrap().kilograms().to_bits(),
                never.percentile(q).unwrap().kilograms().to_bits(),
                "q = {}", q
            );
        }
        prop_assert_eq!(live.envelope(), never.envelope());
        prop_assert_eq!(live.mean_total(), never.mean_total());
        prop_assert_eq!(live.summary().unwrap(), never.summary().unwrap());
        for axis in iriscast_model::AxisId::ALL {
            prop_assert_eq!(live.marginals(axis), never.marginals(axis), "{:?}", axis);
        }
    }

    /// Net-zero projections: embodied share is monotone non-decreasing
    /// along any declining pathway, and intensity stays above the floor.
    #[test]
    fn netzero_share_monotone(
        start_g in 50.0..500.0f64,
        floor_g in 0.0..40.0f64,
        decline in 0.01..0.5f64,
        lifespan in 2.0..10.0f64,
    ) {
        let pathway = DecarbonisationPathway {
            start_year: 2022,
            start: CarbonIntensity::from_grams_per_kwh(start_g),
            floor: CarbonIntensity::from_grams_per_kwh(floor_g),
            annual_decline: decline,
        };
        let mut dri = SteadyStateDri::iris_central();
        dri.lifespan_years = lifespan;
        let projection = project(&dri, &pathway, 30);
        for w in projection.windows(2) {
            prop_assert!(w[1].embodied_share >= w[0].embodied_share - 1e-12);
            prop_assert!(w[1].intensity <= w[0].intensity);
        }
        for y in &projection {
            prop_assert!(y.intensity >= pathway.floor);
            prop_assert!((0.0..=1.0).contains(&y.embodied_share));
        }
    }
}

/// DST-boundary days (23 h spring-forward, 25 h fall-back) are ordinary
/// windows: 46 or 50 half-hours stream, materialise and scalar-sum to
/// the same numbers, and the embodied window follows the true length.
#[test]
fn dst_boundary_half_hours_are_first_class() {
    for slots in [46usize, 48, 50] {
        let a = time_resolved_fixture(slots, 5.0, 2, 2, 2, 2, 2, 500);
        assert!((a.window_days() - slots as f64 / 48.0).abs() < 1e-12);
        let results = a.evaluate_space();
        let mut streamed = Vec::new();
        a.stream_space(|p| streamed.push(p.outcome));
        for (i, o) in streamed.iter().enumerate() {
            assert_eq!(
                *o,
                results.get(i).unwrap().outcome,
                "{slots} slots, point {i}"
            );
            let p = results.get(i).unwrap().point;
            let aligned = a.aligned_intensity(p.coords[0]).unwrap();
            let mut active = CarbonMass::ZERO;
            for (&e, &c) in a.energy().values().iter().zip(aligned) {
                active += evaluate_one(
                    e,
                    a.servers(),
                    1.0,
                    c,
                    p.pue,
                    p.embodied_per_server,
                    p.lifespan_years,
                )
                .active;
            }
            assert_eq!(active, o.active, "{slots} slots, point {i}");
        }
        // A 25-hour day charges more embodied than a 23-hour day at the
        // same settings; check the monotonicity across the loop.
        let daily = fleet_snapshot_daily(
            a.space().embodied().samples()[0],
            a.space().lifespan_years().samples()[0],
            a.servers(),
        );
        assert_eq!(results.embodied()[0], daily * a.window_days());
    }
}

// ---------------------------------------------------------------------------
// Fleet federation: the sharded roll-up path must be indistinguishable from
// collecting every site independently, at any worker count.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Fleet totals are the sum of independent per-site collects, column
    /// by column and bit for bit: sharding sites across the pool is an
    /// execution detail, not a numerical one.
    #[test]
    fn fleet_rollup_equals_independent_site_collects(
        regions in 1u32..4,
        sites_per_region in 1u32..4,
        nodes in 1u32..4,
        seed in 0u64..1_000_000,
    ) {
        let fleet = FleetScenario::synthetic(regions, sites_per_region, nodes, seed)
            .with_sample_step(SimDuration::from_secs(21_600));
        let rollup = fleet.try_simulate(16).unwrap();
        prop_assert_eq!(rollup.site_count(), fleet.site_count());

        let mut total_kwh = 0.0f64;
        for (i, site) in fleet.sites.iter().enumerate() {
            // A completely independent collect: fresh collector, fresh
            // scratch, default backend, one worker.
            let result = SiteCollector::new(site.config.clone())
                .collect(fleet.period, &site.utilization, 1)
                .unwrap();
            let want = result.best_estimate().unwrap().kilowatt_hours();
            prop_assert_eq!(
                rollup.best_estimate_kwh()[i], want,
                "site {} best estimate drifted", i
            );
            prop_assert_eq!(
                rollup.truth_kwh()[i],
                result.true_energy().kilowatt_hours(),
                "site {} truth drifted", i
            );
            total_kwh += want;
        }
        // The fleet total folds in site order, so it matches the naive
        // per-site sum exactly, not just approximately.
        prop_assert_eq!(rollup.total_best_estimate().kilowatt_hours(), total_kwh);
    }

    /// One worker and sixteen workers produce identical bits in every
    /// column and every tier of the roll-up.
    #[test]
    fn fleet_sharding_bit_invariant(
        regions in 1u32..4,
        sites_per_region in 1u32..5,
        nodes in 1u32..4,
        seed in 0u64..1_000_000,
    ) {
        let fleet = FleetScenario::synthetic(regions, sites_per_region, nodes, seed)
            .with_sample_step(SimDuration::from_secs(21_600));
        let a = fleet.try_simulate(1).unwrap();
        let b = fleet.try_simulate(16).unwrap();
        prop_assert_eq!(a.best_estimate_kwh(), b.best_estimate_kwh());
        prop_assert_eq!(a.truth_kwh(), b.truth_kwh());
        prop_assert_eq!(
            a.total_best_estimate().kilowatt_hours(),
            b.total_best_estimate().kilowatt_hours()
        );
        prop_assert_eq!(a.region_rollups(), b.region_rollups());
        let q = 0.25;
        prop_assert_eq!(a.percentile(q).unwrap(), b.percentile(q).unwrap());
    }

    /// Folding per-site collects into a [`FleetRollup`] one at a time —
    /// with quantile queries warming the cached sort *between* folds —
    /// is bit-identical to the batch `try_simulate` roll-up: columns,
    /// quantiles, totals and region tiers.
    #[test]
    fn fleet_fold_equals_batch_with_interleaved_queries(
        regions in 1u32..3,
        sites_per_region in 1u32..4,
        nodes in 1u32..3,
        seed in 0u64..1_000_000,
        warm_every in 1usize..4,
    ) {
        let fleet = FleetScenario::synthetic(regions, sites_per_region, nodes, seed)
            .with_sample_step(SimDuration::from_secs(21_600));
        let batch = fleet.try_simulate(4).unwrap();
        let mut live = iriscast_model::FleetRollup::new(
            fleet.region_codes.clone(),
            fleet.period,
        );
        for (i, site) in fleet.sites.iter().enumerate() {
            let result = SiteCollector::new(site.config.clone())
                .collect(fleet.period, &site.utilization, 1)
                .unwrap();
            live.fold_site(iriscast_model::SiteRollup::from_result(&result, site.region));
            if i % warm_every == 0 {
                // Warm (or re-warm) the cached sort mid-stream; the next
                // fold must keep it honest, not serve it stale.
                let _ = live.percentile(0.5).unwrap();
            }
        }
        prop_assert_eq!(live.best_estimate_kwh(), batch.best_estimate_kwh());
        prop_assert_eq!(live.truth_kwh(), batch.truth_kwh());
        prop_assert_eq!(live.total_nodes(), batch.total_nodes());
        for q in [0.0, 0.3, 0.5, 0.9, 1.0] {
            prop_assert_eq!(
                live.percentile(q).unwrap(),
                batch.percentile(q).unwrap(),
                "q = {}", q
            );
        }
        prop_assert_eq!(live.region_rollups(), batch.region_rollups());
        prop_assert_eq!(
            live.total_best_estimate().kilowatt_hours(),
            batch.total_best_estimate().kilowatt_hours()
        );
    }

    /// A degenerate zero-rack/zero-node site surfaces as the typed
    /// `NoNodes` error naming the earliest such site — never a panic,
    /// at any worker count.
    #[test]
    fn fleet_degenerate_site_is_a_typed_error(
        sites in 2u32..7,
        victim in 0u32..7,
        flip in 0u32..2,
        workers in 1usize..9,
        seed in 0u64..1_000_000,
    ) {
        let victim = victim % sites;
        let empty_group = flip == 0;
        let mut fleet = FleetScenario::synthetic(1, sites, 2, seed)
            .with_sample_step(SimDuration::from_secs(21_600));
        if empty_group {
            // Zero racks: no groups at all.
            fleet.sites[victim as usize].config.groups.clear();
        } else {
            // A rack with zero nodes in it.
            for g in &mut fleet.sites[victim as usize].config.groups {
                g.count = 0;
            }
        }
        let err = fleet.try_simulate(workers).unwrap_err();
        let TelemetryError::NoNodes { site } = err else {
            panic!("expected NoNodes, got {err}");
        };
        prop_assert_eq!(site, fleet.sites[victim as usize].config.site_code.clone());
    }
}
