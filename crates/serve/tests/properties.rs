//! Property suite for the serve pipeline: the incremental
//! ingest → fold path must be bit-identical to a sequential batch
//! recompute, whatever the worker count, arrival order, or query
//! interleaving.

use iriscast_model::engine::SpaceResults;
use iriscast_model::federation::FleetRollup;
use iriscast_model::space::AxisId;
use iriscast_serve::federator::{site_rollup, FleetFederator, RegionHandle};
use iriscast_serve::{AssessmentService, ServeError, SiteModel, SnapshotRecord};
use iriscast_units::Period;
use proptest::prelude::*;

fn model() -> SiteModel {
    SiteModel {
        servers: 2_398,
        ci_grams_per_kwh: vec![34.0, 231.12, 280.0],
        pue_values: vec![1.1, 1.3, 1.58],
        embodied_kg: vec![399.0, 1_100.0, 1_300.0],
        lifespans_years: vec![3, 5, 7],
    }
}

fn records(site: &str, energies: &[f64], window_hours: i64) -> Vec<SnapshotRecord> {
    energies
        .iter()
        .enumerate()
        .map(|(seq, &kwh)| SnapshotRecord {
            site: site.into(),
            seq: seq as u64,
            window_start_s: seq as i64 * window_hours * 3_600,
            window_end_s: (seq as i64 + 1) * window_hours * 3_600,
            energy_kwh: kwh,
        })
        .collect()
}

/// The sequential reference: evaluate each snapshot under the model in
/// seq order and `extend_rows` by hand — the "batch recompute" the
/// pipeline must reproduce bit-for-bit.
fn reference(m: &SiteModel, recs: &[SnapshotRecord]) -> SpaceResults {
    let mut base: Option<SpaceResults> = None;
    for r in recs {
        let block = m.evaluate(r).unwrap();
        match base.as_mut() {
            None => base = Some(block),
            Some(b) => b.extend_rows(&block).unwrap(),
        }
    }
    base.unwrap()
}

fn assert_state_matches(service: &AssessmentService, site: &str, expected: &SpaceResults) {
    for &q in &[0.0, 0.25, 0.5, 0.75, 0.95, 1.0] {
        assert_eq!(
            service.percentile(site, q).unwrap().kilograms().to_bits(),
            expected.percentile(q).unwrap().kilograms().to_bits(),
            "quantile q={q} diverged"
        );
    }
    assert_eq!(service.envelope(site).unwrap(), expected.envelope());
    assert_eq!(
        service.summary(site).unwrap().mean.kilograms().to_bits(),
        expected.summary().unwrap().mean.kilograms().to_bits()
    );
    for axis in [AxisId::Ci, AxisId::Pue, AxisId::Embodied, AxisId::Lifespan] {
        assert_eq!(
            service.marginals(site, axis).unwrap(),
            expected.marginals(axis),
            "marginals along {axis:?} diverged"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Incremental ingest ≡ sequential batch recompute, bit for bit,
    /// with 1 and 16 evaluation workers, under a shuffled arrival
    /// order and warm queries interleaved between folds.
    #[test]
    fn worker_count_and_arrival_order_never_change_the_bits(
        energies in prop::collection::vec(500.0f64..30_000.0, 2..10),
        window_hours in 1i64..25,
        rot in 0usize..16,
        warm_every in 1usize..4,
    ) {
        let recs = records("CAM", &energies, window_hours);
        let expected = reference(&model(), &recs);

        // Workers = 1, records arriving rotated out of order, with a
        // warm query poked between single-record folds so the cached
        // sorted view is live across the fold path.
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        let mut rotated = recs.clone();
        rotated.rotate_left(rot % recs.len());
        for (i, r) in rotated.iter().enumerate() {
            service.ingest(r).unwrap();
            if i % warm_every == 0 && service.watermark("CAM").unwrap().folded > 0 {
                let _ = service.percentile("CAM", 0.5).unwrap();
            }
        }
        assert_state_matches(&service, "CAM", &expected);

        // Workers = 16 over the same rotated feed, one parallel batch.
        let service16 = AssessmentService::new();
        service16.register_site("CAM", model()).unwrap();
        prop_assert_eq!(service16.ingest_batch(&rotated, 16).unwrap(), recs.len());
        assert_state_matches(&service16, "CAM", &expected);

        // And the two services agree with each other exactly.
        prop_assert_eq!(
            service.summary("CAM").unwrap(),
            service16.summary("CAM").unwrap()
        );
    }

    /// Multi-site batches keep each site's fold stream independent: a
    /// 16-worker ingest over interleaved sites equals each site's own
    /// sequential reference.
    #[test]
    fn sites_fold_independently_under_shared_workers(
        a in prop::collection::vec(500.0f64..30_000.0, 1..6),
        b in prop::collection::vec(500.0f64..30_000.0, 1..6),
    ) {
        let rec_a = records("CAM", &a, 6);
        let rec_b = records("EDI", &b, 8);
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        let mut edi = model();
        edi.servers = 500;
        service.register_site("EDI", edi.clone()).unwrap();

        // Interleave the two sites' streams.
        let mut mixed = Vec::new();
        let mut ia = rec_a.iter();
        let mut ib = rec_b.iter();
        loop {
            match (ia.next(), ib.next()) {
                (None, None) => break,
                (x, y) => {
                    mixed.extend(x.cloned());
                    mixed.extend(y.cloned());
                }
            }
        }
        prop_assert_eq!(
            service.ingest_batch(&mixed, 16).unwrap(),
            rec_a.len() + rec_b.len()
        );
        assert_state_matches(&service, "CAM", &reference(&model(), &rec_a));
        assert_state_matches(&service, "EDI", &reference(&edi, &rec_b));
    }

    /// Sliding-window retention is *exact*: a service that ingested
    /// everything and evicted down to the last `keep` windows answers
    /// every query with the same bits as a service that only ever
    /// ingested those windows — at 1 and 16 evaluation workers, under
    /// rotated arrival, whether the bound was set before ingest
    /// (steady-state eviction) or tightened afterwards.
    #[test]
    fn retention_equals_never_ingested(
        energies in prop::collection::vec(500.0f64..30_000.0, 3..12),
        keep in 1usize..6,
        rot in 0usize..16,
    ) {
        let recs = records("CAM", &energies, 6);
        let keep = keep.min(recs.len());
        let survivors = &recs[recs.len() - keep..];
        let expected = reference(&model(), survivors);
        let mut rotated = recs.clone();
        rotated.rotate_left(rot % recs.len());

        for workers in [1usize, 16] {
            // Bound set up front: evictions interleave with folds.
            let service = AssessmentService::new();
            service.register_site("CAM", model()).unwrap();
            service.set_retention("CAM", keep).unwrap();
            prop_assert_eq!(service.ingest_batch(&rotated, workers).unwrap(), recs.len());
            let w = service.watermark("CAM").unwrap();
            prop_assert_eq!(w.folded as usize, recs.len());
            prop_assert_eq!(w.evicted as usize, recs.len() - keep);
            assert_state_matches(&service, "CAM", &expected);

            // Bound tightened after the fact: one catch-up eviction.
            let late = AssessmentService::new();
            late.register_site("CAM", model()).unwrap();
            prop_assert_eq!(late.ingest_batch(&rotated, workers).unwrap(), recs.len());
            late.set_retention("CAM", keep).unwrap();
            assert_state_matches(&late, "CAM", &expected);

            // Retention never rewinds the energy ledger.
            let all: f64 = recs.iter().map(|r| r.energy_kwh).fold(0.0, |a, b| a + b);
            prop_assert_eq!(
                service.site_energy_kwh("CAM").unwrap().to_bits(),
                all.to_bits()
            );
        }
    }

    /// Retention stays exact over long histories. With 50–400 windows
    /// and up to 39 kept, the columns' dead prefix is compacted many
    /// times. The warm service is queried every few folds, so it also
    /// subtracts every eviction from its sorted view; the cold one is
    /// queried only at the end. Both must equal, bit for bit, a fresh
    /// service that only ever ingested the survivors, and a copy of
    /// each one's ensemble must equal the reference ensemble.
    #[test]
    fn long_retained_history_equals_never_ingested(
        energies in prop::collection::vec(500.0f64..30_000.0, 50..400),
        keep in 1usize..40,
        warm_every in 2usize..6,
    ) {
        let recs = records("CAM", &energies, 6);
        let first_kept = recs.len() - keep;

        // The reference: a fresh service fed only the survivors,
        // renumbered from seq 0.
        let fresh = AssessmentService::new();
        fresh.register_site("CAM", model()).unwrap();
        for r in &recs[first_kept..] {
            let mut r = r.clone();
            r.seq -= first_kept as u64;
            fresh.ingest(&r).unwrap();
        }
        let expected = reference(&model(), &recs[first_kept..]);
        prop_assert_eq!(&fresh.results("CAM").unwrap(), &expected);

        let warm = AssessmentService::new();
        warm.register_site("CAM", model()).unwrap();
        warm.set_retention("CAM", keep).unwrap();
        for (i, r) in recs.iter().enumerate() {
            warm.ingest(r).unwrap();
            if i % warm_every == 0 {
                warm.percentile("CAM", 0.5).unwrap();
            } else if i % warm_every == 1 {
                warm.summary("CAM").unwrap();
            }
        }

        let cold = AssessmentService::new();
        cold.register_site("CAM", model()).unwrap();
        cold.set_retention("CAM", keep).unwrap();
        prop_assert_eq!(cold.ingest_batch(&recs, 1).unwrap(), recs.len());

        for service in [&warm, &cold] {
            let w = service.watermark("CAM").unwrap();
            prop_assert_eq!(w.evicted as usize, first_kept);
            prop_assert_eq!(w.points, keep * model().points_per_snapshot());
            let copy = service.results("CAM").unwrap();
            prop_assert_eq!(&copy, &expected);
            let bits = |r: &SpaceResults| -> Vec<u64> {
                r.totals().iter().map(|t| t.kilograms().to_bits()).collect()
            };
            prop_assert_eq!(bits(&copy), bits(&expected));
            assert_state_matches(service, "CAM", &expected);
            assert_state_matches(service, "CAM", &fresh.results("CAM").unwrap());
        }
    }

    /// A batch that stops at a refusal leaves the same state at every
    /// worker count: the refused record's error, the watermark and the
    /// warm percentiles all equal the one-worker run's, however the
    /// evaluation threads were scheduled. Two refusals are exercised: a
    /// repeated `seq` (refused at the fold) and an inverted window
    /// (refused when its assessment is built).
    #[test]
    fn failed_batch_leaves_the_same_state_at_every_worker_count(
        energies in prop::collection::vec(500.0f64..30_000.0, 8..48),
        at in 1usize..48,
        dup in 0usize..48,
        kind in 0u8..2,
    ) {
        let mut batch = records("CAM", &energies, 6);
        let at = at % batch.len();
        if kind == 0 {
            let r = &mut batch[at];
            std::mem::swap(&mut r.window_start_s, &mut r.window_end_s);
        } else {
            let repeat = batch[dup % at].clone();
            batch.insert(at, repeat);
        }
        let run = |workers: usize| {
            let service = AssessmentService::new();
            service.register_site("CAM", model()).unwrap();
            let err = service.ingest_batch(&batch, workers).unwrap_err();
            let bits: Vec<Option<u64>> = [0.0, 0.25, 0.5, 0.95, 1.0]
                .iter()
                .map(|&q| {
                    service
                        .percentile("CAM", q)
                        .ok()
                        .map(|c| c.kilograms().to_bits())
                })
                .collect();
            (err, service.watermark("CAM").unwrap(), bits)
        };
        let serial = run(1);
        prop_assert_eq!(serial.1.folded, at as u64);
        prop_assert_eq!(serial.1.pending, 0);
        for workers in [4, 16] {
            for _ in 0..5 {
                prop_assert_eq!(&run(workers), &serial, "workers = {}", workers);
            }
        }
    }

    /// A replayed sequence number is refused without corrupting the
    /// folded state.
    #[test]
    fn replay_is_rejected_and_state_unharmed(
        energies in prop::collection::vec(500.0f64..30_000.0, 2..6),
        dup in 0usize..6,
    ) {
        let recs = records("CAM", &energies, 6);
        let service = AssessmentService::new();
        service.register_site("CAM", model()).unwrap();
        service.ingest_batch(&recs, 1).unwrap();
        let replay = &recs[dup % recs.len()];
        let err = service.ingest(replay).unwrap_err();
        prop_assert!(matches!(err, ServeError::StaleSnapshot { .. }));
        assert_state_matches(&service, "CAM", &reference(&model(), &recs));
    }
}

/// Folds every site of `service` into a fresh rollup in the canonical
/// order — regions in code order, sites sorted within each region —
/// using the same [`site_rollup`] construction the wire path uses.
/// This is the in-process flat reference the federated sweep must
/// reproduce bit-for-bit.
fn flat_reference(
    service: &AssessmentService,
    codes: &[String],
    region_of: impl Fn(&str) -> u32,
    period: Period,
) -> FleetRollup {
    let mut rollup = FleetRollup::new(codes.to_vec(), period);
    let sites = service.sites();
    for (index, _) in codes.iter().enumerate() {
        for site in sites.iter().filter(|s| region_of(s) == index as u32) {
            let export = service.export(site).unwrap();
            rollup.fold_site(site_rollup(index as u32, export.servers, export.energy_kwh));
        }
    }
    rollup
}

fn assert_rollups_match(got: &FleetRollup, expected: &FleetRollup) {
    assert_eq!(got.site_count(), expected.site_count());
    assert_eq!(got.total_nodes(), expected.total_nodes());
    let got_bits: Vec<u64> = got
        .best_estimate_kwh()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    let want_bits: Vec<u64> = expected
        .best_estimate_kwh()
        .iter()
        .map(|v| v.to_bits())
        .collect();
    assert_eq!(
        got_bits, want_bits,
        "per-site best-estimate columns diverged"
    );
    for &q in &[0.0, 0.25, 0.5, 0.75, 1.0] {
        assert_eq!(
            got.percentile(q).unwrap().kilowatt_hours().to_bits(),
            expected.percentile(q).unwrap().kilowatt_hours().to_bits(),
            "fleet quantile q={q} diverged"
        );
    }
    assert_eq!(got.region_rollups(), expected.region_rollups());
    assert_eq!(got.hottest_site(), expected.hottest_site());
}

proptest! {
    // Each case spins up real listeners; fewer, heavier cases.
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The scale-out tentpole: N regional services behind TCP sockets,
    /// federated over the wire, equal one flat service hosting every
    /// site — bit for bit, at 1 and 16 ingest workers, with arrivals
    /// shuffled across regions, and with aggressive retention active
    /// on the regional side only (exports must not depend on it).
    #[test]
    fn regional_federation_over_sockets_equals_flat_service(
        site_energies in prop::collection::vec(
            prop::collection::vec(500.0f64..30_000.0, 1..5), 2..7),
        regions in 2usize..4,
        rot in 0usize..16,
    ) {
        let period = Period::snapshot_24h();
        let codes: Vec<String> = (0..regions).map(|r| format!("R{r}")).collect();
        let site_name = |i: usize| format!("S{i:02}");
        let region_of_index = |i: usize| (i % regions) as u32;

        for workers in [1usize, 16] {
            // The flat service hosts every site; regional services
            // host their region's slice.
            let flat = AssessmentService::new();
            let regional: Vec<AssessmentService> =
                (0..regions).map(|_| AssessmentService::new()).collect();
            let mut all_records = Vec::new();
            let mut per_region: Vec<Vec<SnapshotRecord>> = vec![Vec::new(); regions];
            for (i, energies) in site_energies.iter().enumerate() {
                let mut m = model();
                m.servers = 100 + 37 * i as u32;
                let name = site_name(i);
                flat.register_site(&name, m.clone()).unwrap();
                let r = region_of_index(i) as usize;
                regional[r].register_site(&name, m).unwrap();
                // Retention on the regional side only: the export
                // energy ledger must be unaffected.
                regional[r].set_retention(&name, 1).unwrap();
                let recs = records(&name, energies, 6);
                all_records.extend(recs.iter().cloned());
                per_region[r].extend(recs);
            }
            // Shuffle arrivals across regions and sites.
            let rot_all = rot % all_records.len();
            all_records.rotate_left(rot_all);
            prop_assert_eq!(
                flat.ingest_batch(&all_records, workers).unwrap(),
                all_records.len()
            );
            for (r, recs) in per_region.iter_mut().enumerate() {
                if recs.is_empty() {
                    continue;
                }
                let rot_r = rot % recs.len();
                recs.rotate_left(rot_r);
                prop_assert_eq!(
                    regional[r].ingest_batch(recs, workers).unwrap(),
                    recs.len()
                );
            }

            // Serve each region over a loopback socket and federate.
            let servers: Vec<_> = regional
                .iter()
                .map(|s| s.serve_tcp("127.0.0.1:0").unwrap())
                .collect();
            let federator = FleetFederator::new(
                codes
                    .iter()
                    .zip(&servers)
                    .map(|(code, srv)| RegionHandle::of(code.clone(), srv))
                    .collect(),
            );
            let federated = federator.federate(period).unwrap();
            for server in servers {
                server.shutdown();
            }

            let expected = flat_reference(
                &flat,
                &codes,
                |site| {
                    let i: usize = site[1..].parse().unwrap();
                    region_of_index(i)
                },
                period,
            );
            assert_rollups_match(&federated, &expected);
        }
    }
}
