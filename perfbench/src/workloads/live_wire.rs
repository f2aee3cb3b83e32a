//! `live_wire`: a closed loop over one loopback TCP connection to four
//! preloaded sites — ingest of each site's next seq plus warm
//! `percentile`, `envelope` and `tenant_share` queries — with a
//! `FleetFederator` sweep over a second, short-lived connection every
//! `sweep_every` ops.
//!
//! The run pins itself to one CPU before it starts the service, so the
//! client, the accept loop and every connection thread share that CPU:
//! a round trip hands the CPU from one thread to the other instead of
//! waking a thread on a second, possibly idle, CPU.
//!
//! The loop runs in rounds of `ops_per_round` ops, each on a freshly
//! preloaded service, so the ensembles stay short and the O(rows) warm
//! fold never takes over the round trip. After each round a twin
//! in-process service is fed the identical op stream, and every socket
//! answer must equal the twin's bit for bit.

use crate::inputs::{self, LiveWireInputs, WireOp};
use crate::trace::Tracer;
use crate::{span_median, stats, timed, traced_iteration, Budget, Outcome, RunConfig};
use iriscast_model::federation::FleetRollup;
use iriscast_serve::federator::site_rollup;
use iriscast_serve::{
    AssessmentService, FleetFederator, QueryReply, QueryRequest, RegionHandle, SocketClient,
    TransportStats,
};
use iriscast_units::Period;

/// A registered, preloaded and warmed service for one round.
fn preloaded(inp: &LiveWireInputs) -> AssessmentService {
    let service = AssessmentService::new();
    for ((name, model), tenants) in inp.sites.iter().zip(&inp.tenants) {
        service
            .register_site(name.clone(), model.clone())
            .expect("distinct seeded site names");
        for (tenant, weight) in tenants {
            service
                .register_tenant(name, tenant.clone(), *weight)
                .expect("positive seeded weights");
        }
    }
    service
        .ingest_batch(&inp.history, 1)
        .expect("seeded history is in seq order");
    for (name, _) in &inp.sites {
        // Warm the cached sort that queries and folds keep up to date.
        service.percentile(name, 0.5).expect("preloaded site");
    }
    service
}

fn request(op: &WireOp) -> QueryRequest {
    match op {
        WireOp::Ingest(_) => unreachable!("ingests are records, not queries"),
        WireOp::Percentile { site, q } => {
            let mut r = QueryRequest::bare(site.clone(), "percentile");
            r.q = Some(*q);
            r
        }
        WireOp::Envelope { site } => QueryRequest::bare(site.clone(), "envelope"),
        WireOp::TenantShare { site, tenant } => {
            let mut r = QueryRequest::bare(site.clone(), "tenant_share");
            r.tenant = Some(tenant.clone());
            r
        }
    }
}

/// Index of a query's ask in [`Samples::query_by_ask`].
fn ask_index(op: &WireOp) -> usize {
    match op {
        WireOp::Ingest(_) => unreachable!("ingests are records, not queries"),
        WireOp::Percentile { .. } => 0,
        WireOp::Envelope { .. } => 1,
        WireOp::TenantShare { .. } => 2,
    }
}

/// What the socket side of one round saw.
struct SocketRound {
    replies: Vec<Option<QueryReply>>,
    /// After op index `i`: the sweep's fleet total bits and site count.
    sweeps: Vec<(usize, Option<(u64, usize)>)>,
    stats: TransportStats,
    /// Frames the round sent: ops plus each sweep's `sites` and
    /// `export` queries.
    frames_sent: u64,
    /// Sites' folded windows and ensemble points after the round.
    folded: u64,
    rows: u64,
}

/// Latency samples gathered across rounds, ns.
#[derive(Default)]
struct Samples {
    ingest: Vec<f64>,
    query: Vec<f64>,
    /// `query` split by ask: percentile, envelope, tenant_share.
    query_by_ask: [Vec<f64>; 3],
    sweep: Vec<f64>,
    setup: Vec<f64>,
    /// Twin op times (encode + in-process serve), traced rounds only.
    twin_ingest: Vec<f64>,
    twin_query: Vec<f64>,
}

fn socket_round(
    inp: &LiveWireInputs,
    ops: &[WireOp],
    t: &mut Tracer,
    samples: &mut Samples,
    budget: &mut Budget,
) -> (SocketRound, f64) {
    let ((service, server, mut client, federator), setup_ns) = timed(|| {
        let service = t.span("service.setup", || preloaded(inp));
        t.span("transport.setup", || {
            let server = service.serve_tcp("127.0.0.1:0").expect("loopback bind");
            let client = SocketClient::connect_tcp(server.addr()).expect("loopback connect");
            let federator = FleetFederator::new(vec![RegionHandle::of("R0", &server)]);
            (service, server, client, federator)
        })
    });
    // The first reply waits for the listener's accept poll: up to 25 ms
    // or nothing, depending on whether its thread polled before the
    // connect landed. That race would make `setup_s` bimodal, so the
    // wait is traced but timed by no metric.
    t.span("transport.first_reply", || {
        let reply = client
            .query(&QueryRequest::sites())
            .expect("sites round trip");
        assert!(reply.ok, "sites ask is infallible");
    });
    samples.setup.push(setup_ns);
    // The budget is sampled in untraced rounds only: reading `/proc`
    // is no layer's work. Once with the main connection open, and after
    // each sweep, while its connection is being torn down.
    let port = server
        .addr()
        .rsplit(':')
        .next()
        .and_then(|p| p.parse::<u16>().ok())
        .filter(|_| !t.is_on());
    if port.is_some() {
        budget.sample(port);
    }

    let period = Period::snapshot_24h();
    let mut replies = Vec::with_capacity(ops.len());
    let mut sweeps = Vec::new();
    let ((), main_ns) = timed(|| {
        for (i, op) in ops.iter().enumerate() {
            let reply = match op {
                WireOp::Ingest(r) => {
                    let (reply, ns) = timed(|| t.span("transport.ingest", || client.ingest(r)));
                    samples.ingest.push(ns);
                    reply
                }
                _ => {
                    let req = request(op);
                    let (reply, ns) = timed(|| t.span("transport.query", || client.query(&req)));
                    samples.query.push(ns);
                    samples.query_by_ask[ask_index(op)].push(ns);
                    reply
                }
            };
            replies.push(reply.ok());
            if (i + 1) % inp.sweep_every == 0 {
                let (rollup, ns) =
                    timed(|| t.span("federator.sweep", || federator.federate(period)));
                samples.sweep.push(ns);
                if port.is_some() {
                    budget.sample(port);
                }
                let seen = rollup.ok().map(|r| {
                    (
                        r.total_best_estimate().kilowatt_hours().to_bits(),
                        r.site_count(),
                    )
                });
                sweeps.push((i, seen));
            }
        }
    });
    let (stats, (folded, rows)) = t.span("transport.shutdown", || {
        drop(client);
        let stats = server.shutdown();
        let mut folded = 0;
        let mut rows = 0;
        for (name, _) in &inp.sites {
            let w = service.watermark(name).expect("registered site");
            folded += w.folded;
            rows += w.points as u64;
        }
        (stats, (folded, rows))
    });
    // One `sites` warm-up frame, the ops, and 1 + sites frames a sweep.
    let frames_sent = 1 + ops.len() as u64 + sweeps.len() as u64 * (1 + inp.sites.len() as u64);
    (
        SocketRound {
            replies,
            sweeps,
            stats,
            frames_sent,
            folded,
            rows,
        },
        main_ns,
    )
}

/// Replays the round's ops into a twin service and counts every
/// socket answer that equals the twin's bit for bit.
fn twin_replay(
    inp: &LiveWireInputs,
    ops: &[WireOp],
    round: &SocketRound,
    t: &mut Tracer,
    samples: &mut Samples,
    out: &mut Outcome,
) {
    let twin = t.span("service.setup", || preloaded(inp));
    let traced = t.is_on();
    let mut sweeps = round.sweeps.iter().peekable();
    let mut buf = Vec::with_capacity(1024);
    for (i, (op, socket)) in ops.iter().zip(&round.replies).enumerate() {
        let ok = match op {
            WireOp::Ingest(r) => {
                if traced {
                    // `ingest` evaluates the record itself; this extra
                    // call times the evaluation alone, outside the
                    // twin's op time.
                    let (_, model) = inp
                        .sites
                        .iter()
                        .find(|(n, _)| *n == r.site)
                        .expect("known site");
                    let block = t.span("service.evaluate", || model.evaluate(r));
                    assert!(block.is_ok(), "seeded record evaluates");
                }
                let (applied, ns) = timed(|| {
                    let line = t.span("wire.encode", || serde_json::to_string(r));
                    line.is_ok() && t.span("service.ingest", || twin.ingest(r)).is_ok()
                });
                if traced {
                    samples.twin_ingest.push(ns);
                }
                let w = twin.watermark(&r.site).expect("registered site");
                applied
                    && socket.as_ref().is_some_and(|s| {
                        s.ok && s.folded == Some(w.folded)
                            && s.pending == Some(w.pending as u64)
                            && s.evicted == Some(w.evicted)
                    })
            }
            _ => {
                let req = request(op);
                buf.clear();
                let (served, ns) = timed(|| {
                    let line = t
                        .span("wire.encode", || serde_json::to_string(&req))
                        .expect("requests serialize");
                    t.span("wire.serve_ndjson", || twin.serve_ndjson(&line, &mut buf))
                });
                if traced {
                    samples.twin_query.push(ns);
                }
                let twin_line = std::str::from_utf8(&buf).unwrap_or("").trim_end();
                served == 1
                    && socket.as_ref().is_some_and(|s| {
                        s.ok && serde_json::to_string(s).is_ok_and(|l| l == twin_line)
                    })
            }
        };
        out.check(ok);
        while let Some((_, seen)) = sweeps.next_if(|(at, _)| *at == i) {
            let mut expected = FleetRollup::new(vec!["R0".into()], Period::snapshot_24h());
            for site in twin.sites() {
                let e = twin.export(&site).expect("registered site");
                expected.fold_site(site_rollup(0, e.servers, e.energy_kwh));
            }
            let want = (
                expected.total_best_estimate().kilowatt_hours().to_bits(),
                expected.site_count(),
            );
            out.check(*seen == Some(want));
        }
    }
    let s = &round.stats;
    out.check(s.frames == round.frames_sent && s.rejected == 0 && s.dropped_partial == 0);
}

/// Runs the workload.
pub fn run(cfg: &RunConfig, t: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    out.check(crate::pin_to_one_cpu());
    let inp = inputs::live_wire(cfg.seed);
    let mut samples = Samples::default();
    let (mut frames, mut rejected, mut folded, mut rows) = (0u64, 0u64, 0u64, 0u64);
    let mut round_no = 0u64;
    out.probe_ns = crate::run_for(cfg.seconds, 2, |i| {
        let traced = traced_iteration(cfg, i);
        t.set_on(traced);
        let root = t.enter("bench.iteration");
        let ops = inp.round_ops(round_no);
        round_no += 1;
        let (round, main_ns) = socket_round(&inp, &ops, t, &mut samples, &mut out.budget);
        twin_replay(&inp, &ops, &round, t, &mut samples, &mut out);
        t.exit(root);
        t.set_on(false);
        if traced {
            out.traced_main_ns.push(main_ns);
        } else if cfg.trace {
            out.untraced_main_ns.push(main_ns);
        }
        frames += round.stats.frames;
        rejected += round.stats.rejected;
        folded += round.folded;
        rows = round.rows;
    });
    out.setup_s = samples.setup.iter().map(|ns| ns / 1e9).collect();
    // One set-up a round, each right after the round's host probe.
    out.setup_probe_ns = out.probe_ns.clone();
    out.primary_ms = crate::fast(&samples.ingest) / 1e6;
    // The asks differ in cost, so the quantile is taken per ask.
    out.secondary_ms = crate::fast_per_group(&samples.query_by_ask) / 1e6;
    out.named = vec![
        ("ingest_ms", out.primary_ms, "ms"),
        ("query_ms", out.secondary_ms, "ms"),
        ("ingest_p50_ms", stats::median(&samples.ingest) / 1e6, "ms"),
        ("query_p50_ms", stats::median(&samples.query) / 1e6, "ms"),
        ("federate_p50_ms", stats::median(&samples.sweep) / 1e6, "ms"),
    ];
    if cfg.trace {
        let p50 = |v: &[f64]| stats::median(v) / 1e3;
        out.layers = vec![
            ("wire.encode_us", span_median(t, "wire.encode", 1e3)),
            (
                "service.evaluate_us",
                span_median(t, "service.evaluate", 1e3),
            ),
            ("service.ingest_us", span_median(t, "service.ingest", 1e3)),
            (
                "wire.serve_ndjson_us",
                span_median(t, "wire.serve_ndjson", 1e3),
            ),
            (
                "transport.ingest_overhead_us",
                p50(&samples.ingest) - p50(&samples.twin_ingest),
            ),
            (
                "transport.query_overhead_us",
                p50(&samples.query) - p50(&samples.twin_query),
            ),
            ("federator.sweep_ms", span_median(t, "federator.sweep", 1e6)),
            (
                "transport.ingest_p99_ms",
                stats::quantile(&samples.ingest, 0.99) / 1e6,
            ),
            (
                "transport.query_p99_ms",
                stats::quantile(&samples.query, 0.99) / 1e6,
            ),
            ("transport.frames", frames as f64),
            ("transport.rejected", rejected as f64),
            ("service.folded", folded as f64),
            ("service.rows", rows as f64),
        ];
    }
    out
}
