//! Inputs are a pure function of the seed: one seed gives identical
//! inputs, another seed gives different values with the same
//! operation counts.

use iriscast_perfbench::inputs::{backfill, cosim_week, live_wire, snapshot_day, WireOp};

fn ingests(ops: &[WireOp]) -> usize {
    ops.iter()
        .filter(|o| matches!(o, WireOp::Ingest(_)))
        .count()
}

#[test]
fn snapshot_day_inputs_follow_the_seed() {
    assert_eq!(snapshot_day(7), snapshot_day(7));
    let (a, b) = (snapshot_day(7), snapshot_day(8));
    assert_ne!(a, b);
    assert_ne!(a.pue, b.pue);
    assert_eq!(a.points(), b.points());
    assert_eq!(a.refined_points(), b.refined_points());
}

#[test]
fn live_wire_inputs_follow_the_seed() {
    assert_eq!(live_wire(7), live_wire(7));
    let (a, b) = (live_wire(7), live_wire(8));
    assert_eq!(a.round_ops(3), live_wire(7).round_ops(3));
    assert_ne!(a.sites, b.sites);
    assert_ne!(a.history, b.history);
    assert_ne!(a.round_ops(0), b.round_ops(0));
    assert_ne!(a.round_ops(0), a.round_ops(1), "rounds draw fresh ops");
    assert_eq!(a.sites.len(), b.sites.len());
    assert_eq!(a.history.len(), b.history.len());
    assert_eq!(a.round_ops(0).len(), b.round_ops(0).len());
    // Ingests advance each site's seq from the end of its history.
    let ops = a.round_ops(0);
    assert!(ingests(&ops) > 0 && ingests(&ops) < ops.len());
    for (name, _) in &a.sites {
        let seqs: Vec<u64> = ops
            .iter()
            .filter_map(|o| match o {
                WireOp::Ingest(r) if &r.site == name => Some(r.seq),
                _ => None,
            })
            .collect();
        let want: Vec<u64> = (0..seqs.len() as u64)
            .map(|k| a.history_windows + k)
            .collect();
        assert_eq!(seqs, want);
    }
}

#[test]
fn backfill_inputs_follow_the_seed() {
    assert_eq!(backfill(7), backfill(7));
    let (a, b) = (backfill(7), backfill(8));
    assert_ne!(a.records, b.records);
    assert_eq!(a.records.len(), b.records.len());
    assert_eq!(
        a.records.len() as u64,
        a.windows_per_site * a.sites.len() as u64
    );
    assert_eq!(a.retain, b.retain);
}

#[test]
fn cosim_week_inputs_follow_the_seed() {
    assert_eq!(cosim_week(7), cosim_week(7));
    let (a, b) = (cosim_week(7), cosim_week(8));
    assert_ne!(a, b);
    assert_eq!(a.sites.len(), b.sites.len());
    for (x, y) in a.sites.iter().zip(&b.sites) {
        assert_eq!(x.nodes, y.nodes);
        assert_eq!(x.outages_h.len(), y.outages_h.len());
    }
    assert_eq!(a.variants.len(), b.variants.len());
    for (x, y) in a.variants.iter().zip(&b.variants) {
        assert_eq!(x.job_seeds.len(), y.job_seeds.len());
    }
}
