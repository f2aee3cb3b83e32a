//! Loopback round-trip suite for the socket transport: framing under
//! partial writes, malformed frames mid-stream, interleaved clients,
//! disconnects during ingest, Unix-domain parity with TCP, and the
//! feed → `spawn_ingest` shutdown path.

use crossbeam::channel::unbounded;
use iriscast_serve::{
    spawn_record_feed, AssessmentService, QueryRequest, SiteModel, SnapshotRecord, SocketClient,
};
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

fn model() -> SiteModel {
    SiteModel {
        servers: 2_398,
        ci_grams_per_kwh: vec![34.0, 231.12, 280.0],
        pue_values: vec![1.1, 1.3, 1.58],
        embodied_kg: vec![399.0, 1_100.0, 1_300.0],
        lifespans_years: vec![3, 5, 7],
    }
}

fn record(site: &str, seq: u64, energy_kwh: f64) -> SnapshotRecord {
    SnapshotRecord {
        site: site.into(),
        seq,
        window_start_s: (seq as i64) * 21_600,
        window_end_s: (seq as i64 + 1) * 21_600,
        energy_kwh,
    }
}

fn served_service() -> (AssessmentService, iriscast_serve::SocketServer) {
    let service = AssessmentService::new();
    service.register_site("CAM", model()).unwrap();
    let server = service.serve_tcp("127.0.0.1:0").unwrap();
    (service, server)
}

#[test]
fn tcp_round_trip_ingests_and_answers_bit_identically() {
    let (service, server) = served_service();
    let mut client = SocketClient::connect_tcp(server.addr()).unwrap();

    // Ingest three windows through the socket, out of order; acks
    // carry the advancing watermark.
    for (seq, folded_after) in [(1u64, 0u64), (0, 2), (2, 3)] {
        let ack = client
            .ingest(&record("CAM", seq, 4_500.0 + 100.0 * seq as f64))
            .unwrap();
        assert!(ack.ok, "{:?}", ack.error);
        assert_eq!(ack.ask, "ingest");
        assert_eq!(ack.folded, Some(folded_after), "seq {seq}");
    }

    // Queries over the wire match the in-process surface bit for bit.
    let mut req = QueryRequest::bare("CAM", "percentile");
    req.q = Some(0.95);
    let reply = client.query(&req).unwrap();
    assert!(reply.ok);
    assert_eq!(
        reply.value_kg.unwrap().to_bits(),
        service
            .percentile("CAM", 0.95)
            .unwrap()
            .kilograms()
            .to_bits()
    );
    let reply = client
        .query(&QueryRequest::bare("CAM", "envelope"))
        .unwrap();
    let env = service.envelope("CAM").unwrap();
    assert_eq!(
        reply.total_hi_kg.unwrap().to_bits(),
        env.total.hi.kilograms().to_bits()
    );

    let stats = server.shutdown();
    assert_eq!(stats.connections, 1);
    assert_eq!(stats.ingested, 3);
    assert_eq!(stats.queries, 2);
    assert_eq!(stats.rejected, 0);
    // Shutdown drained everything: the service stays queryable.
    assert_eq!(service.watermark("CAM").unwrap().folded, 3);
}

#[test]
fn unix_round_trip_matches_tcp() {
    let service = AssessmentService::new();
    service.register_site("CAM", model()).unwrap();
    let path = std::env::temp_dir().join(format!("iriscast-sock-{}.sock", std::process::id()));
    let _ = std::fs::remove_file(&path);
    let server = service.serve_unix(&path).unwrap();
    let mut client = SocketClient::connect_unix(&path).unwrap();
    let ack = client.ingest(&record("CAM", 0, 4_800.0)).unwrap();
    assert!(ack.ok);
    let reply = client.query(&QueryRequest::bare("CAM", "summary")).unwrap();
    assert!(reply.ok);
    assert_eq!(
        reply.mean_kg.unwrap().to_bits(),
        service.summary("CAM").unwrap().mean.kilograms().to_bits()
    );
    let stats = server.shutdown();
    assert_eq!((stats.ingested, stats.queries), (1, 1));
    let _ = std::fs::remove_file(&path);
}

#[test]
fn partial_writes_assemble_into_one_frame() {
    let (_service, server) = served_service();
    let mut client = SocketClient::connect_tcp(server.addr()).unwrap();
    // One query frame delivered in four flushes, slowly enough that
    // the server's read loop observes timeouts between the pieces.
    let line = serde_json::to_string(&QueryRequest::bare("CAM", "watermark")).unwrap();
    let bytes = line.as_bytes();
    let cuts = [0, 3, bytes.len() / 2, bytes.len() - 2, bytes.len()];
    for w in cuts.windows(2) {
        client.send_bytes(&bytes[w[0]..w[1]]).unwrap();
        std::thread::sleep(Duration::from_millis(40));
    }
    client.send_bytes(b"\n").unwrap();
    let reply = client.read_reply().unwrap();
    assert!(reply.ok, "{:?}", reply.error);
    assert_eq!(reply.ask, "watermark");
    let stats = server.shutdown();
    assert_eq!(stats.frames, 1);
    assert_eq!(stats.dropped_partial, 0);
}

#[test]
fn malformed_frames_mid_stream_do_not_sever_the_connection() {
    let (service, server) = served_service();
    let mut client = SocketClient::connect_tcp(server.addr()).unwrap();

    let ack = client.ingest(&record("CAM", 0, 4_800.0)).unwrap();
    assert!(ack.ok);

    // Garbage frame: answered ok: false, connection stays up.
    client.send_bytes(b"{this is not json}\n").unwrap();
    let reply = client.read_reply().unwrap();
    assert!(!reply.ok);
    assert!(reply.error.unwrap().contains("unparseable frame"));

    // A well-formed frame of neither record type is also a reply.
    client.send_bytes(b"{\"hello\": 1}\n").unwrap();
    assert!(!client.read_reply().unwrap().ok);

    // A stale replay is a reply too, not a disconnect.
    let nack = client.ingest(&record("CAM", 0, 4_800.0)).unwrap();
    assert!(!nack.ok);
    assert!(nack.error.unwrap().contains("replayed"));

    // The connection still serves queries afterwards.
    let reply = client
        .query(&QueryRequest::bare("CAM", "envelope"))
        .unwrap();
    assert!(reply.ok);

    let stats = server.shutdown();
    assert_eq!(stats.frames, 5);
    assert_eq!(stats.ingested, 1);
    assert_eq!(stats.rejected, 3);
    assert_eq!(service.watermark("CAM").unwrap().folded, 1);
}

#[test]
fn invalid_energy_is_refused_over_the_wire_and_changes_nothing() {
    let (service, server) = served_service();
    let mut client = SocketClient::connect_tcp(server.addr()).unwrap();
    let ack = client.ingest(&record("CAM", 0, 4_800.0)).unwrap();
    assert!(ack.ok);
    let before = service.watermark("CAM").unwrap();

    let nack = client.ingest(&record("CAM", 1, -5.0)).unwrap();
    assert!(!nack.ok);
    assert_eq!(nack.ask, "ingest");
    assert!(nack.error.unwrap().contains("finite non-negative"));

    // The site's watermark and energy ledger are as they were, and the
    // refused seq can still be folded with a valid figure.
    assert_eq!(service.watermark("CAM").unwrap(), before);
    assert_eq!(service.site_energy_kwh("CAM").unwrap(), 4_800.0);
    let ack = client.ingest(&record("CAM", 1, 4_900.0)).unwrap();
    assert!(ack.ok);
    assert_eq!(ack.folded, Some(2));

    let stats = server.shutdown();
    assert_eq!((stats.ingested, stats.rejected), (2, 1));
}

#[test]
fn interleaved_clients_share_one_service_without_crosstalk() {
    let (service, server) = served_service();
    // Seed one window so queries answer.
    service.ingest(&record("CAM", 0, 4_800.0)).unwrap();
    let addr = server.addr().to_string();
    let threads: Vec<_> = (0..4)
        .map(|t| {
            let addr = addr.clone();
            std::thread::spawn(move || {
                let mut client = SocketClient::connect_tcp(&addr).unwrap();
                let mut got = Vec::new();
                for i in 0..8 {
                    let reply = if (t + i) % 2 == 0 {
                        let mut req = QueryRequest::bare("CAM", "percentile");
                        req.q = Some(0.5);
                        client.query(&req).unwrap()
                    } else {
                        client
                            .query(&QueryRequest::bare("CAM", "envelope"))
                            .unwrap()
                    };
                    assert!(reply.ok, "{:?}", reply.error);
                    // Replies arrive in request order on this
                    // connection: the echoed ask proves no crosstalk.
                    let want = if (t + i) % 2 == 0 {
                        "percentile"
                    } else {
                        "envelope"
                    };
                    assert_eq!(reply.ask, want);
                    got.push(reply);
                }
                got
            })
        })
        .collect();
    let median = service
        .percentile("CAM", 0.5)
        .unwrap()
        .kilograms()
        .to_bits();
    for t in threads {
        for reply in t.join().unwrap() {
            if reply.ask == "percentile" {
                assert_eq!(reply.value_kg.unwrap().to_bits(), median);
            }
        }
    }
    let stats = server.shutdown();
    assert_eq!(stats.connections, 4);
    assert_eq!(stats.queries, 32);
}

#[test]
fn disconnect_mid_frame_drops_the_partial_and_keeps_the_service() {
    let (service, server) = served_service();
    {
        let mut client = SocketClient::connect_tcp(server.addr()).unwrap();
        let ack = client.ingest(&record("CAM", 0, 4_800.0)).unwrap();
        assert!(ack.ok);
        // Half an ingest frame, then hang up.
        client
            .send_bytes(b"{\"site\":\"CAM\",\"seq\":1,\"window_st")
            .unwrap();
    } // client drops: TCP FIN mid-frame
      // A second client still gets answers from the same service.
    let mut client2 = SocketClient::connect_tcp(server.addr()).unwrap();
    let reply = client2
        .query(&QueryRequest::bare("CAM", "watermark"))
        .unwrap();
    assert!(reply.ok);
    assert_eq!(reply.folded, Some(1));
    drop(client2);
    let stats = server.shutdown();
    assert_eq!(stats.dropped_partial, 1);
    assert_eq!(stats.ingested, 1);
    assert_eq!(service.watermark("CAM").unwrap().folded, 1);
}

/// The `spawn_ingest` shutdown regression: a socket feed that
/// disconnects must reach the ingest loop as a clean channel
/// disconnect — the loop folds what was queued, keeps the watermark,
/// and exits promptly even under a staleness bound far longer than the
/// test, instead of waking on `recv_timeout` until the bound expires.
#[test]
fn record_feed_disconnect_exits_ingest_cleanly() {
    let service = AssessmentService::new();
    service.register_site("CAM", model()).unwrap();
    let (tx, rx) = unbounded();
    // Staleness far longer than the test budget: a prompt exit proves
    // the loop left on Disconnected, not on a timeout tick.
    let ingest = service.spawn_ingest(rx, Duration::from_secs(60));

    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let writer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        for seq in 0..3u64 {
            let mut line =
                serde_json::to_string(&record("CAM", seq, 4_500.0 + 10.0 * seq as f64)).unwrap();
            line.push('\n');
            s.write_all(line.as_bytes()).unwrap();
        }
        s.write_all(b"not a record\n").unwrap();
        // Partial frame, then disconnect.
        s.write_all(b"{\"site\":\"CAM\",\"se").unwrap();
    });
    let (stream, _) = listener.accept().unwrap();
    let feed = spawn_record_feed(stream, tx);
    writer.join().unwrap();

    let started = Instant::now();
    let feed_stats = feed.join().unwrap();
    let ingest_stats = ingest.join();
    let elapsed = started.elapsed();

    assert_eq!(feed_stats.forwarded, 3);
    assert_eq!(feed_stats.malformed, 1);
    assert_eq!(feed_stats.dropped_partial, 1);
    assert_eq!(ingest_stats.folded, 3);
    assert_eq!(ingest_stats.rejected, 0);
    // Queued records were drained before the disconnect exit; the
    // watermark is preserved and the service remains queryable.
    assert_eq!(service.watermark("CAM").unwrap().folded, 3);
    assert!(service.percentile("CAM", 0.5).is_ok());
    assert!(
        elapsed < Duration::from_secs(10),
        "ingest loop took {elapsed:?} to observe disconnect — it must \
         exit on Disconnected, not ride out the staleness bound"
    );
}
