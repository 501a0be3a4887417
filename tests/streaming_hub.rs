//! Integration: the sharded streaming hub under pressure.
//!
//! - A subscriber behind a stalled link overflows its bounded output
//!   queue, is shed, and migrates to store-backed catch-up instead of
//!   growing the queue without bound; when the link drains it rejoins
//!   the live feed with no gap in the delivered tuple sequence.
//! - A population of netsim-shaped lossy subscribers soaks the hub:
//!   every byte on every wire stays protocol-clean and every queue
//!   stays within its configured bound.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use gel::TimeStamp;
use gnet::{HubConfig, ScopeClient, ScopeServer};
use gscope::Tuple;
use gstore::{Store, StoreConfig};
use netsim::{LinkClock, LinkConfig, SimConn};

fn tmp_store(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("gnet-hub-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Drains `conn` into `sink`; returns bytes read this call.
fn drain(conn: &SimConn, buf: &mut [u8], sink: &mut Vec<u8>) -> usize {
    let mut total = 0;
    while let Ok(n) = conn.read_bytes(buf) {
        if n == 0 {
            break;
        }
        sink.extend_from_slice(&buf[..n]);
        total += n;
    }
    total
}

#[test]
fn slow_subscriber_migrates_to_store_catch_up() {
    let cfg = HubConfig {
        shards: 1,
        outbuf_cap: 16 << 10,
        ..HubConfig::default()
    };
    let outbuf_cap = cfg.outbuf_cap;
    let mut server = ScopeServer::with_config("127.0.0.1:0", cfg).unwrap();
    let dir = tmp_store("catchup");
    server.set_store(Store::open(&dir, StoreConfig::default()).unwrap());
    let addr = server.local_addr().unwrap();

    // Subscriber behind a link whose send window is far smaller than
    // the data rate: writes stall, the queue fills, the hub must shed.
    let link = LinkConfig {
        buf_bytes: 2 << 10,
        ..LinkConfig::default()
    };
    let (server_end, client_end) = SimConn::pair(link, LinkClock::real());
    server.add_conn(Box::new(server_end));
    client_end.write_bytes(b"!sub\n").unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while Instant::now() < deadline && server.client_count() < 1 {
        server.poll();
    }
    for _ in 0..50 {
        server.poll();
    }

    let mut tx = ScopeClient::connect(addr).unwrap();
    let mut sent = 0u64;
    let total = 20_000u64;

    // Phase 1: flood without draining the subscriber. The queue is
    // bounded, so the hub must shed and demote the client.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut demoted = false;
    while Instant::now() < deadline && (!demoted || sent < total / 2) {
        for _ in 0..64 {
            if sent >= total {
                break;
            }
            tx.send_at(
                TimeStamp::from_micros(1_000 + sent * 10),
                "hub.flood",
                sent as f64,
            );
            sent += 1;
        }
        let _ = tx.pump();
        server.poll();
        let infos = server.client_stats();
        assert!(
            infos.iter().all(|c| c.queue_bytes <= outbuf_cap),
            "queue grew past its bound: {infos:?}"
        );
        if infos.iter().any(|c| c.catching_up) {
            demoted = true;
        }
    }
    assert!(demoted, "stalled subscriber was never demoted to catch-up");
    let stats = server.stats();
    assert!(stats.shed_events >= 1, "{stats:?}");
    assert!(stats.catch_ups_entered >= 1, "{stats:?}");

    // Phase 2: finish the flood while the subscriber drains. Catch-up
    // replays the shed span from the store, then hands back to live.
    let mut rx_bytes = Vec::new();
    let mut buf = [0u8; 8192];
    let deadline = Instant::now() + Duration::from_secs(30);
    while Instant::now() < deadline {
        for _ in 0..64 {
            if sent >= total {
                break;
            }
            tx.send_at(
                TimeStamp::from_micros(1_000 + sent * 10),
                "hub.flood",
                sent as f64,
            );
            sent += 1;
        }
        let _ = tx.pump();
        server.poll();
        drain(&client_end, &mut buf, &mut rx_bytes);
        let infos = server.client_stats();
        assert!(infos.iter().all(|c| c.queue_bytes <= outbuf_cap));
        if sent >= total && infos.iter().all(|c| !c.catching_up) {
            // Fully caught up; a few more polls flush the tail.
            let mut quiet = 0;
            while quiet < 50 {
                server.poll();
                if drain(&client_end, &mut buf, &mut rx_bytes) == 0 {
                    quiet += 1;
                } else {
                    quiet = 0;
                }
            }
            break;
        }
    }
    let stats = server.stats();
    assert!(stats.catch_ups_completed >= 1, "{stats:?}");

    // The subscriber's view: live tuples, catch-up markers, and —
    // across the shed — no gap in the delivered sequence.
    let text = String::from_utf8(rx_bytes).unwrap();
    assert!(text.contains("!catchup-begin"), "missing begin marker");
    assert!(text.contains("!catchup-end"), "missing end marker");
    let mut seen: BTreeSet<u64> = BTreeSet::new();
    let mut delivered = 0u64;
    for line in text.lines() {
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let t = Tuple::parse_line(trimmed, 1).unwrap();
        delivered += 1;
        seen.insert(t.time.as_micros());
    }
    let expected: BTreeSet<u64> = (0..total).map(|i| 1_000 + i * 10).collect();
    let missing: Vec<u64> = expected.difference(&seen).take(10).copied().collect();
    assert!(
        missing.is_empty(),
        "gaps in delivered sequence (first 10): {missing:?}; got {} of {}",
        seen.len(),
        expected.len()
    );

    // Reconciliation identity, exact across shed → catch-up → rejoin:
    // every tuple ever queued toward the subscriber was either dropped
    // by a shed or written to the wire, so with the queue drained,
    // `tuples_out - tuples_shed` must equal the tuple lines the peer
    // actually read — duplicates from the catch-up overlap included.
    let infos = server.client_stats();
    let sub = infos.iter().find(|c| c.subscribed).unwrap();
    assert_eq!(sub.queue_tuples, 0, "queue not drained: {sub:?}");
    assert!(sub.tuples_shed > 0, "shed happened but nothing counted");
    assert_eq!(
        sub.tuples_out - sub.tuples_shed,
        delivered,
        "per-client accounting does not reconcile: {sub:?}"
    );
}

#[test]
fn lossy_netsim_population_stays_protocol_clean() {
    // Smoke-scale by default; the CI soak job turns it up via env.
    let clients: usize = std::env::var("GNET_SOAK_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(100);
    let tuples: u64 = std::env::var("GNET_SOAK_TUPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(500);

    let cfg = HubConfig {
        shards: 4,
        ..HubConfig::default()
    };
    let outbuf_cap = cfg.outbuf_cap;
    let mut server = ScopeServer::with_config("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap();

    let mut ends = Vec::with_capacity(clients);
    for i in 0..clients {
        let link = LinkConfig {
            loss_rate: 0.01,
            latency: gel::TimeDelta::from_micros(200),
            seed: i as u64 + 1,
            ..LinkConfig::default()
        };
        let (server_end, mut client_end) = SimConn::pair(link, LinkClock::real());
        client_end.set_label(format!("soak-{i}"));
        server.add_conn(Box::new(server_end));
        client_end.write_bytes(b"!sub\n").unwrap();
        ends.push(client_end);
    }
    // Barrier: every `!sub` line must have been *processed* before the
    // flood starts. The subscribe commands ride the same shaped links
    // as the data (latency + loss penalties), so merely counting
    // adopted connections would race a still-in-flight subscription —
    // and a tuple fanned out before a client subscribes is rightfully
    // never delivered to it (no store, no catch-up).
    let deadline = Instant::now() + Duration::from_secs(10);
    let subscribed = |server: &ScopeServer| {
        server
            .client_stats()
            .iter()
            .filter(|c| c.subscribed)
            .count()
    };
    while Instant::now() < deadline
        && (server.client_count() < clients || subscribed(&server) < clients)
    {
        server.poll();
    }
    assert_eq!(server.client_count(), clients);
    assert_eq!(subscribed(&server), clients, "subscriptions not all live");

    // One binary producer feeds the whole population.
    let mut tx = ScopeClient::connect_binary(addr).unwrap();
    let mut received: Vec<Vec<u8>> = vec![Vec::new(); clients];
    let mut buf = [0u8; 8192];
    let mut fed = 0u64;
    let mut max_queue = 0usize;
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        for _ in 0..32 {
            if fed >= tuples {
                break;
            }
            tx.send_at(
                TimeStamp::from_micros(1_000 + fed * 100),
                "soak.sig",
                fed as f64,
            );
            fed += 1;
        }
        let _ = tx.pump();
        server.poll();
        for (end, sink) in ends.iter().zip(received.iter_mut()) {
            drain(end, &mut buf, sink);
        }
        for c in server.client_stats() {
            max_queue = max_queue.max(c.queue_bytes);
        }
        let newlines = |v: &Vec<u8>| v.iter().filter(|&&b| b == b'\n').count() as u64;
        if fed >= tuples && received.iter().all(|v| newlines(v) >= tuples) {
            break;
        }
        if Instant::now() >= deadline {
            let lag: Vec<usize> = received
                .iter()
                .enumerate()
                .filter(|(_, v)| newlines(v) < tuples)
                .map(|(i, _)| i)
                .collect();
            let suspect: Vec<_> = server
                .client_stats()
                .into_iter()
                .filter(|c| c.queue_bytes > 0 || c.tuples_out < tuples)
                .collect();
            panic!(
                "soak did not converge: fed={fed} min_rx={:?} laggards={lag:?} stats={:?} suspects={suspect:?}",
                received.iter().map(newlines).min(),
                server.stats()
            );
        }
    }

    let stats = server.stats();
    assert_eq!(stats.protocol_errors, 0, "{stats:?}");
    assert_eq!(stats.parse_errors, 0, "{stats:?}");
    assert_eq!(stats.tuples_received, tuples, "{stats:?}");
    assert!(max_queue <= outbuf_cap, "queue bound violated: {max_queue}");
    assert_eq!(stats.shed_events, 0, "unshaped load should never shed");

    // With no sheds and every queue drained, each subscriber's books
    // must balance exactly: queued == written == received.
    for c in server.client_stats() {
        if !c.subscribed {
            continue; // the producer connection queues nothing out
        }
        assert_eq!(
            c.tuples_out - c.tuples_shed - c.queue_tuples,
            tuples,
            "per-client accounting does not reconcile: {c:?}"
        );
    }

    // Every subscriber got every tuple, protocol-clean text.
    for (i, bytes) in received.iter().enumerate() {
        assert!(!bytes.contains(&0u8), "frame sentinel on text wire {i}");
        let text = std::str::from_utf8(bytes).unwrap();
        let mut times = BTreeSet::new();
        for line in text.lines() {
            let t = Tuple::parse_line(line, 1).unwrap();
            times.insert(t.time.as_micros());
        }
        assert_eq!(times.len() as u64, tuples, "client {i} missed tuples");
    }
}

/// Delivery latency through a threaded hub over real loopback TCP: a
/// binary producer on one shard, a binary subscriber on the other.
/// Every fan-out is one small write; without `TCP_NODELAY` on the
/// hub's accepted sockets, Nagle's algorithm holds most of them until
/// the subscriber's delayed ACK, some 20–40 ms later.
///
/// Nagle's hold is systematic — it lifts the p90 to ~40 ms on every
/// attempt — while a host that deschedules a thread for tens of
/// milliseconds can spoil one attempt at random, so the test takes the
/// best of three.
#[test]
fn threaded_hub_delivers_without_nagle_delay() {
    let mut attempts = Vec::new();
    for _ in 0..3 {
        let latencies_us = probe_delivery_latencies();
        let n = latencies_us.len();
        let (p50, p90, max) = (
            latencies_us[n / 2],
            latencies_us[n * 9 / 10],
            latencies_us[n - 1],
        );
        if p90 < 10_000 {
            return;
        }
        attempts.push(format!("p50 {p50} µs, p90 {p90} µs, max {max} µs"));
    }
    panic!("send → receive p90 never under 10 ms: {attempts:?}");
}

/// Sends 200 probes 2 ms apart through a fresh two-shard threaded hub
/// and returns their send → receive latencies (µs), sorted.
fn probe_delivery_latencies() -> Vec<u64> {
    const PROBES: usize = 200;
    let cfg = HubConfig {
        shards: 2,
        // The subscriber answers each clock probe with a PONG. A peer
        // that talks back is "interactive" to its TCP stack, which then
        // delays its ACKs: at this cadence that is the steady state,
        // as on a busy hub, instead of one episode per default 200 ms.
        ping_interval_us: 20_000,
        ..HubConfig::default()
    };
    let mut server = ScopeServer::with_config("127.0.0.1:0", cfg).unwrap();
    let addr = server.local_addr().unwrap();
    server.spawn_shards();

    // Connections are pinned round-robin: connecting the subscriber
    // only after the producer was adopted puts them on different shards.
    let mut producer = ScopeClient::connect_binary(addr).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.client_count() < 1 {
        assert!(Instant::now() < deadline, "producer never adopted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut subscriber = ScopeClient::connect_binary(addr).unwrap();
    subscriber.subscribe();
    loop {
        let _ = producer.pump();
        let _ = subscriber.pump();
        let negotiated = producer.negotiated() == gnet::Protocol::Binary
            && subscriber.negotiated() == gnet::Protocol::Binary;
        if negotiated && server.client_stats().iter().any(|c| c.subscribed) {
            break;
        }
        assert!(Instant::now() < deadline, "set-up did not converge");
        std::thread::sleep(Duration::from_millis(1));
    }
    let shards: BTreeSet<usize> = server.client_stats().iter().map(|c| c.shard).collect();
    assert_eq!(shards.len(), 2, "producer and subscriber share a shard");

    // Each probe carries its send time (µs since `base`) as its stamp.
    let base = Instant::now();
    let mut next_send = base;
    let mut sent = 0usize;
    let mut latencies_us = Vec::with_capacity(PROBES);
    let deadline = base + Duration::from_secs(10);
    while latencies_us.len() < PROBES && Instant::now() < deadline {
        if sent < PROBES && Instant::now() >= next_send {
            let t_us = base.elapsed().as_micros() as u64;
            producer.send_at(TimeStamp::from_micros(t_us), "nagle.probe", sent as f64);
            let _ = producer.pump();
            sent += 1;
            next_send += Duration::from_millis(2);
        }
        let _ = subscriber.pump();
        let recv_us = base.elapsed().as_micros() as u64;
        for t in subscriber.take_received() {
            latencies_us.push(recv_us - t.time.as_micros());
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    assert_eq!(latencies_us.len(), PROBES, "probes lost");
    latencies_us.sort_unstable();
    latencies_us
}
