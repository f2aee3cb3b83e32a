//! `backfill`: in-process `ingest_batch(_, 1)` of a long seeded
//! history for four sites under a retention window, then the first
//! (cold) percentile of each site. Writes only: the view is cold while
//! the history folds, eviction runs on nearly every record, and one
//! cold sort follows.

use crate::inputs::{self, BackfillInputs};
use crate::trace::Tracer;
use crate::{span_median, stats, timed, traced_iteration, Outcome, RunConfig};
use iriscast_model::SpaceResults;
use iriscast_serve::{AssessmentService, SiteModel, SnapshotRecord};

/// Evaluation workers of `ingest_batch`: one, so the fold rate does
/// not track a co-tenant on the second core. No sockets.
const WORKERS: usize = 1;

/// Quantiles compared against the fresh reference service.
const CHECK_QUANTILES: [f64; 3] = [0.05, 0.5, 0.95];

fn registered(sites: &[(String, SiteModel)], retain: Option<usize>) -> AssessmentService {
    let service = AssessmentService::new();
    for (name, model) in sites {
        service
            .register_site(name.clone(), model.clone())
            .expect("distinct seeded site names");
        if let Some(windows) = retain {
            service
                .set_retention(name, windows)
                .expect("positive retention");
        }
    }
    service
}

/// The windows of `site` that survive retention, renumbered from seq 0
/// as a service that only ever saw them would have received them.
fn survivors(inp: &BackfillInputs, site: &str) -> Vec<SnapshotRecord> {
    let first = inp.windows_per_site - inp.retain as u64;
    inp.records
        .iter()
        .filter(|r| r.site == site && r.seq >= first)
        .map(|r| SnapshotRecord {
            seq: r.seq - first,
            ..r.clone()
        })
        .collect()
}

/// Folds one site's history into a replica `SpaceResults` through the
/// same public calls the service makes, span by span, and returns its
/// cold first percentile.
fn replica(inp: &BackfillInputs, site: usize, t: &mut Tracer) -> f64 {
    let (name, model) = &inp.sites[site];
    let ci = model.ci_grams_per_kwh.len();
    let mut results: Option<SpaceResults> = None;
    let mut windows = 0usize;
    for r in inp.records.iter().filter(|r| r.site == *name) {
        let block = t
            .span("service.evaluate", || model.evaluate(r))
            .expect("seeded record evaluates");
        match results.as_mut() {
            None => results = Some(block),
            Some(base) => t
                .span("stats_view.fold", || base.extend_rows(&block))
                .expect("one model per site"),
        }
        windows += 1;
        if windows > inp.retain {
            let base = results.as_mut().expect("folded above");
            t.span("stats_view.retract", || base.retract_rows(ci))
                .expect("retention keeps at least one window");
            windows -= 1;
        }
    }
    let results = results.expect("every site has history");
    t.span("stats_view.cold_sort", || results.percentile(0.5))
        .expect("finite totals")
        .kilograms()
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let inp = crate::repeat_setup(&mut out, || {
        let inp = inputs::backfill(cfg.seed);
        // Warm-up: one full backfill, untimed as a sample.
        registered(&inp.sites, Some(inp.retain))
            .ingest_batch(&inp.records, WORKERS)
            .expect("seeded history is in seq order");
        inp
    });
    let expected_evicted = inp.windows_per_site - inp.retain as u64;
    let (mut backfill_ms, mut first_ms) = (Vec::new(), Vec::new());
    let mut evicted = 0;
    out.probe_ns = crate::run_for(cfg.seconds, 3, |i| {
        out.budget.sample(None);
        let traced = traced_iteration(cfg, i);
        t.set_on(traced);
        let root = t.enter("bench.iteration");
        let service = t.span("service.setup", || registered(&inp.sites, Some(inp.retain)));
        let (((), first), main_ns) = timed(|| {
            let (folded, ns) = timed(|| {
                t.span("service.ingest_batch", || {
                    service.ingest_batch(&inp.records, WORKERS)
                })
            });
            out.check(folded.is_ok_and(|n| n == inp.records.len()));
            backfill_ms.push(ns / 1e6);
            let first: Vec<f64> = inp
                .sites
                .iter()
                .map(|(name, _)| {
                    let (p, ns) =
                        timed(|| t.span("service.percentile", || service.percentile(name, 0.5)));
                    first_ms.push(ns / 1e6);
                    p.map_or(f64::NAN, |p| p.kilograms())
                })
                .collect();
            ((), first)
        });
        if traced {
            out.traced_main_ns.push(main_ns);
            for (s, want) in first.iter().enumerate() {
                let got = replica(&inp, s, t);
                out.check(got.to_bits() == want.to_bits());
            }
        } else if cfg.trace {
            out.untraced_main_ns.push(main_ns);
        }
        evicted = 0;
        t.span("service.verify", || {
            for (name, _) in &inp.sites {
                let fresh = registered(&inp.sites, None);
                let kept = fresh.ingest_batch(&survivors(&inp, name), 1);
                let w = service.watermark(name).expect("registered site");
                evicted += w.evicted;
                let same = CHECK_QUANTILES.iter().all(|&q| {
                    let a = service.percentile(name, q).map(|p| p.kilograms().to_bits());
                    let b = fresh.percentile(name, q).map(|p| p.kilograms().to_bits());
                    a.is_ok() && a.ok() == b.ok()
                });
                out.check(
                    kept.is_ok()
                        && same
                        && w.evicted == expected_evicted
                        && w.folded == inp.windows_per_site,
                );
            }
        });
        t.exit(root);
        t.set_on(false);
        out.budget.workers(WORKERS);
    });

    out.primary_ms = crate::fast(&backfill_ms);
    out.secondary_ms = crate::fast(&first_ms);
    let records_per_s = inp.records.len() as f64 / (out.primary_ms / 1e3);
    out.named = vec![
        ("backfill_ms", out.primary_ms, "ms"),
        ("records_per_s", records_per_s, "1/s"),
        ("first_query_ms", out.secondary_ms, "ms"),
        ("backfill_p50_ms", stats::median(&backfill_ms), "ms"),
    ];
    if cfg.trace {
        out.layers = vec![
            (
                "service.evaluate_us",
                span_median(t, "service.evaluate", 1e3),
            ),
            ("stats_view.fold_us", span_median(t, "stats_view.fold", 1e3)),
            (
                "stats_view.retract_us",
                span_median(t, "stats_view.retract", 1e3),
            ),
            (
                "stats_view.cold_sort_ms",
                span_median(t, "stats_view.cold_sort", 1e6),
            ),
            ("service.evicted", evicted as f64),
        ];
    }
    out
}
