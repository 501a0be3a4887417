//! `gnet` — distributed visualization for gscope (§4.4).
//!
//! "Gscope supports monitoring and visualization of distributed
//! applications. It implements a single-threaded I/O driven
//! client-server library that can be used by applications to monitor
//! remote data." Clients stream `BUFFER` tuples asynchronously; the
//! server buffers them into one or more scopes, which display them with
//! a user-specified delay and drop data that arrives too late.
//!
//! Everything is non-blocking and integrates with the `gel` main loop
//! via I/O watches, exactly the event-driven style Figure 6 and §4.3
//! prescribe — no extra threads required. At scale the server also
//! runs **thread-per-core**: [`ScopeServer::spawn_shards`] gives every
//! shard its own readiness-driven poll loop that sleeps until there is
//! work, with connections pinned to shards as they are accepted so no
//! global lock serializes I/O.
//!
//! The default wire format is the §3.3 textual tuple format, one tuple
//! per line, so `nc` and recorded files interoperate with live
//! streams. Binary-capable peers negotiate a length-delimited
//! delta-varint frame protocol ([`wire`]) that cuts bytes-on-wire
//! roughly 2× and parse cost more; negotiation degrades to text
//! automatically against legacy peers. Timestamps cross machine
//! boundaries untranslated; where the paper (footnote 1) *assumes*
//! distributed clocks are correlated, negotiated connections now
//! *measure* the correlation: periodic PING/PONG exchanges feed a
//! per-peer [`ClockEstimator`] (offset, RTT, drift, error bound), and
//! origin-stamped batches let every hop's lateness be attributed on
//! one timeline within that bound.

mod client;
pub mod clock;
mod poll;
mod server;
mod shard;
pub mod wire;

pub use client::{ClientStats, ScopeClient, StreamEvent};
pub use clock::{ClockEstimator, ClockStats};
pub use server::{
    attach_client, attach_server, stream_periodic, ClientInfo, HubConfig, ScopeServer, ServerStats,
};
pub use wire::{Protocol, StreamConn};

#[cfg(test)]
mod tests {
    use super::*;
    use gel::{Clock, IoPoll, TimeDelta, TimeStamp, VirtualClock};
    use gscope::{Scope, SigSource};
    use std::sync::Arc;

    fn spin_until(mut cond: impl FnMut() -> bool) {
        for _ in 0..2000 {
            if cond() {
                return;
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        panic!("condition not reached within 2s");
    }

    fn pump_pair(client: &mut ScopeClient, server: &mut ScopeServer) {
        let _ = client.pump();
        let _ = server.poll();
    }

    #[test]
    fn client_streams_tuples_to_server_scope() {
        let clock = VirtualClock::new();
        clock.advance(TimeDelta::from_millis(1)); // non-zero epoch
        let scope = Scope::new("remote", 64, 48, Arc::new(clock.clone())).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(10));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();

        for i in 0..50u64 {
            client.send_at(TimeStamp::from_millis(i * 10), "rtt", i as f64);
        }
        assert_eq!(client.stats().tuples_queued, 50);
        spin_until(|| {
            pump_pair(&mut client, &mut server);
            server.stats().tuples_received == 50
        });
        assert_eq!(server.stats().parse_errors, 0);
        assert_eq!(server.client_count(), 1);
        // Auto-registered as a BUFFER signal, samples queued in the
        // scope buffer.
        let guard = scope.lock();
        assert!(guard.signal("rtt").is_some());
        assert_eq!(guard.signal("rtt").unwrap().source_type(), "BUFFER");
        assert_eq!(guard.buffer().len(), 50);
    }

    #[test]
    fn multiple_clients_multiplex() {
        let clock = VirtualClock::new();
        let scope = Scope::new("multi", 64, 48, Arc::new(clock)).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(100));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut c1 = ScopeClient::connect(addr).unwrap();
        let mut c2 = ScopeClient::connect(addr).unwrap();
        c1.send_at(TimeStamp::from_millis(5), "throughput", 100.0);
        c2.send_at(TimeStamp::from_millis(6), "latency", 2.5);
        spin_until(|| {
            let _ = c1.pump();
            let _ = c2.pump();
            let _ = server.poll();
            server.stats().tuples_received == 2
        });
        assert_eq!(server.stats().connections, 2);
        let guard = scope.lock();
        assert!(guard.signal("throughput").is_some());
        assert!(guard.signal("latency").is_some());
    }

    #[test]
    fn late_data_is_dropped_at_the_server() {
        // §4.4: "Data arriving at the server after this delay is not
        // buffered but dropped immediately."
        let clock = VirtualClock::new();
        clock.advance(TimeDelta::from_secs(10));
        let scope = Scope::new("late", 64, 48, Arc::new(clock.clone())).into_shared();
        scope.lock().set_delay(TimeDelta::from_millis(100));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();
        // Sample from t=1s, now 10s, delay 0.1s: hopelessly late.
        client.send_at(TimeStamp::from_secs(1), "old", 1.0);
        // Fresh sample: acceptable.
        client.send_at(clock.now(), "fresh", 2.0);
        spin_until(|| {
            pump_pair(&mut client, &mut server);
            server.stats().tuples_received == 2
        });
        let guard = scope.lock();
        assert_eq!(guard.buffer().len(), 1, "only the fresh sample queued");
        assert_eq!(guard.buffer().late_drops(), 1);
        assert_eq!(server.stats().tuples_dropped, 1);
    }

    #[test]
    fn malformed_lines_are_counted_and_skipped() {
        let clock = VirtualClock::new();
        let scope = Scope::new("bad", 64, 48, Arc::new(clock)).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(100));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        use std::io::Write;
        let mut raw = std::net::TcpStream::connect(addr).unwrap();
        raw.write_all(b"garbage line here extra\n10 1 ok\n\n# comment\nnot-a-time 5 x\n")
            .unwrap();
        raw.flush().unwrap();
        spin_until(|| {
            let _ = server.poll();
            server.stats().tuples_received == 1
        });
        assert_eq!(server.stats().parse_errors, 2);
        assert!(scope.lock().signal("ok").is_some());
    }

    #[test]
    fn disconnect_is_detected() {
        let clock = VirtualClock::new();
        let scope = Scope::new("dc", 64, 48, Arc::new(clock)).into_shared();
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        {
            let _client = ScopeClient::connect(addr).unwrap();
            spin_until(|| {
                let _ = server.poll();
                server.client_count() == 1
            });
        } // drop closes the socket
        spin_until(|| {
            let _ = server.poll();
            server.client_count() == 0
        });
        assert_eq!(server.stats().disconnects, 1);
    }

    #[test]
    fn client_reconnects_after_server_restart() {
        let clock = VirtualClock::new();
        let scope = Scope::new("rc", 64, 48, Arc::new(clock)).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(100));
        // First server instance.
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();
        client.send_at(TimeStamp::from_millis(1), "x", 1.0);
        client.flush_blocking().unwrap();
        spin_until(|| {
            let _ = server.poll();
            server.stats().tuples_received == 1
        });
        drop(server);
        // Pump until the client notices the dead connection.
        spin_until(|| {
            client.send_at(TimeStamp::from_millis(2), "x", 2.0);
            client.pump() == IoPoll::Remove || client.is_closed()
        });
        assert!(client.is_closed());
        // New server instance on the same port.
        let mut server = ScopeServer::bind(addr).unwrap();
        server.add_scope(Arc::clone(&scope));
        client.reconnect().unwrap();
        assert!(!client.is_closed());
        assert_eq!(client.reconnects(), 1);
        client.send_at(TimeStamp::from_millis(3), "x", 3.0);
        let before = server.stats().tuples_received;
        spin_until(|| {
            let _ = client.pump();
            let _ = server.poll();
            server.stats().tuples_received > before
        });
    }

    #[test]
    fn server_poll_reports_idle_when_quiet() {
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        assert_eq!(server.poll(), IoPoll::Idle);
    }

    #[test]
    fn telemetry_mirrors_stats_in_shared_registry() {
        let registry = gtel::Registry::shared();
        let clock = VirtualClock::new();
        let scope = Scope::new("tel", 64, 48, Arc::new(clock)).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(100));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.set_telemetry(Arc::clone(&registry));
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();
        client.set_telemetry(Arc::clone(&registry));
        for i in 0..20u64 {
            client.send_at(TimeStamp::from_millis(i), "m", i as f64);
        }
        spin_until(|| {
            pump_pair(&mut client, &mut server);
            server.stats().tuples_received == 20
        });
        assert_eq!(registry.counter("net.server.connections").get(), 1);
        assert_eq!(registry.counter("net.server.tuples_in").get(), 20);
        assert_eq!(registry.counter("net.client.tuples_out").get(), 20);
        assert!(registry.counter("net.client.bytes_sent").get() > 0);
        assert_eq!(registry.gauge("net.server.clients").get(), 1.0);
        assert_eq!(registry.gauge("net.client.queue_bytes").get(), 0.0);
    }

    #[test]
    fn server_and_client_stats_export_as_tuples() {
        use gscope::StatsExport;
        let s = ServerStats {
            connections: 2,
            disconnects: 1,
            tuples_received: 40,
            parse_errors: 3,
            protocol_errors: 1,
            tuples_dropped: 5,
            tuples_stored: 30,
            store_drops: 2,
            store_errors: 0,
            catch_up_tuples: 12,
            ..ServerStats::default()
        };
        let now = TimeStamp::from_millis(250);
        let tuples = s.to_tuples(now);
        assert_eq!(tuples.len(), 16);
        assert!(tuples.iter().all(|t| t.time == now));
        let parse = tuples
            .iter()
            .find(|t| t.name.as_deref() == Some("net.server.parse_errors"))
            .expect("exported");
        assert_eq!(parse.value, 3.0);

        let c = ClientStats {
            tuples_queued: 7,
            bytes_sent: 123,
            pumps_with_progress: 4,
            ..ClientStats::default()
        };
        let tuples = c.to_tuples(now);
        assert_eq!(tuples.len(), 5);
        let sent = tuples
            .iter()
            .find(|t| t.name.as_deref() == Some("net.client.bytes_sent"))
            .expect("exported");
        assert_eq!(sent.value, 123.0);
    }

    #[test]
    fn attach_helpers_drive_the_pipeline_on_one_loop() {
        // The full §4.4 single-threaded architecture: server io-watch,
        // client pump io-watch, and a periodic sampler, all on one
        // gel loop over the system clock.
        use gel::SystemClock;
        use parking_lot::Mutex;
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        let scope = Scope::new("attach", 64, 48, Arc::clone(&clock)).into_shared();
        scope.lock().set_delay(TimeDelta::from_secs(100));
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let server = Arc::new(Mutex::new(server));
        let client = Arc::new(Mutex::new(ScopeClient::connect(addr).unwrap()));

        let mut ml = gel::MainLoop::with_quantizer(
            Arc::clone(&clock),
            gel::Quantizer::new(TimeDelta::from_millis(1)),
        );
        attach_server(&server, &mut ml);
        attach_client(&client, &mut ml);
        // Stream a counter every 5 ms.
        let mut n = 0.0;
        stream_periodic(
            &client,
            &mut ml,
            "counter",
            TimeDelta::from_millis(5),
            move || {
                n += 1.0;
                n
            },
        );
        let handle = ml.handle();
        ml.add_oneshot(TimeDelta::from_millis(150), move |_| handle.quit());
        ml.run();

        let stats = server.lock().stats();
        assert_eq!(stats.connections, 1);
        assert!(
            stats.tuples_received >= 10,
            "periodic sampler streamed tuples: {}",
            stats.tuples_received
        );
        assert!(scope.lock().signal("counter").is_some());
        let cstats = client.lock().stats();
        assert_eq!(cstats.tuples_queued, stats.tuples_received);
        assert_eq!(client.lock().pending_bytes(), 0, "pump drained the queue");
    }

    #[test]
    fn stream_periodic_stops_when_connection_dies() {
        use gel::SystemClock;
        use parking_lot::Mutex;
        let clock: Arc<dyn Clock> = Arc::new(SystemClock::new());
        // A listener we drop immediately: the client's writes start
        // failing once the kernel buffers are gone / RST arrives.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let client = Arc::new(Mutex::new(ScopeClient::connect(addr).unwrap()));
        drop(listener);
        let mut ml = gel::MainLoop::with_quantizer(
            Arc::clone(&clock),
            gel::Quantizer::new(TimeDelta::from_millis(1)),
        );
        stream_periodic(&client, &mut ml, "x", TimeDelta::from_millis(2), || 1.0);
        let handle = ml.handle();
        ml.add_oneshot(TimeDelta::from_millis(200), move |_| handle.quit());
        ml.run();
        // Either the connection death was detected (source removed
        // itself) or data queued without error; in both cases the loop
        // survived. The important property: no panic, bounded queue.
        let pending = client.lock().pending_bytes();
        assert!(pending < 64 * 1024, "pending bounded: {pending}");
    }

    #[test]
    fn end_to_end_through_event_loops() {
        // One process, two "machines": a client loop streaming a sine
        // and a server loop displaying it — the §4.4 architecture.
        let clock = VirtualClock::new();
        let scope = Scope::new("e2e", 128, 64, Arc::new(clock.clone())).into_shared();
        {
            let mut guard = scope.lock();
            guard.set_delay(TimeDelta::from_secs(1000));
            guard
                .add_signal("wave", SigSource::Buffer, Default::default())
                .unwrap();
            guard.set_polling_mode(TimeDelta::from_millis(50)).unwrap();
            guard.start();
        }
        let mut server = ScopeServer::bind("127.0.0.1:0").unwrap();
        server.add_scope(Arc::clone(&scope));
        let addr = server.local_addr().unwrap();
        let mut client = ScopeClient::connect(addr).unwrap();
        for i in 0..100u64 {
            let t = TimeStamp::from_millis(i * 10);
            client.send_at(t, "wave", (i as f64 / 10.0).sin() * 50.0 + 50.0);
        }
        client.flush_blocking().unwrap();
        spin_until(|| {
            let _ = server.poll();
            server.stats().tuples_received == 100
        });
        // Drive the scope's polling over the buffered data.
        let mut ml =
            gel::MainLoop::with_quantizer(Arc::new(clock.clone()), gel::Quantizer::exact());
        gscope::attach_scope(&scope, &mut ml);
        clock.advance(TimeDelta::from_secs(1001));
        ml.run_until(clock.now() + TimeDelta::from_millis(200));
        let guard = scope.lock();
        let window = guard.display_cols("wave").to_vec();
        assert!(
            window.iter().any(|v| v.is_some()),
            "streamed samples reached the display"
        );
    }
}
