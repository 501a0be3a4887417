//! A threaded hub whose shards block until they have work must still
//! answer at once: a new connection is adopted by a parked shard,
//! shutdown wakes every shard, and per-client stats never wait behind
//! a shard's poller wait.

use std::time::{Duration, Instant};

use gnet::{HubConfig, ScopeClient, ScopeServer};

/// A threaded two-shard hub with one idle text client per shard,
/// settled long enough for both shards to be parked in their waits.
fn idle_hub() -> (ScopeServer, Vec<ScopeClient>) {
    let cfg = HubConfig {
        shards: 2,
        ..HubConfig::default()
    };
    let mut server = ScopeServer::with_config("127.0.0.1:0", cfg).unwrap();
    server.spawn_shards();
    let addr = server.local_addr().unwrap();
    let clients: Vec<ScopeClient> = (0..2)
        .map(|_| ScopeClient::connect(addr).unwrap())
        .collect();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.client_count() < clients.len() {
        assert!(Instant::now() < deadline, "clients never adopted");
        std::thread::sleep(Duration::from_millis(1));
    }
    std::thread::sleep(Duration::from_millis(300));
    (server, clients)
}

#[test]
fn dropping_an_idle_threaded_hub_is_prompt() {
    let (server, _clients) = idle_hub();
    let begin = Instant::now();
    drop(server);
    let took = begin.elapsed();
    assert!(took < Duration::from_millis(100), "drop took {took:?}");
}

#[test]
fn client_stats_do_not_wait_for_idle_shards() {
    let (server, _clients) = idle_hub();
    for _ in 0..5 {
        let begin = Instant::now();
        let stats = server.client_stats();
        let took = begin.elapsed();
        assert_eq!(stats.len(), 2);
        assert!(
            took < Duration::from_millis(50),
            "client_stats took {took:?}"
        );
        std::thread::sleep(Duration::from_millis(40));
    }
}

#[test]
fn parked_shards_adopt_new_connections_promptly() {
    let (server, mut clients) = idle_hub();
    // Round-robin pinning: of each pair, shard 0 accepts and keeps the
    // first and hands the second to shard 1, which must be woken. An
    // unwoken shard would sleep to its next deadline (up to 250 ms);
    // pairs 90 ms apart sample that wait at phases no 100 ms window
    // covers.
    for pair in 0..3 {
        if pair > 0 {
            std::thread::sleep(Duration::from_millis(90));
        }
        for _ in 0..2 {
            let expected = clients.len() + 1;
            let begin = Instant::now();
            clients.push(ScopeClient::connect(server.local_addr().unwrap()).unwrap());
            while server.client_count() < expected {
                assert!(
                    begin.elapsed() < Duration::from_millis(100),
                    "connection {expected} not adopted within 100 ms"
                );
                std::thread::sleep(Duration::from_micros(200));
            }
        }
    }
    let on_shard_1 = server
        .client_stats()
        .iter()
        .filter(|c| c.shard == 1)
        .count();
    assert_eq!(on_shard_1, 4);
}
