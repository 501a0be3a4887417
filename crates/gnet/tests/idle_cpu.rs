//! Background cost of an idle threaded hub (§4.6 holds the library to
//! an overhead bound): with nothing to do, its threads must sleep in
//! the kernel rather than wake on timers. Kept in a test binary of its
//! own so no other test's hub threads share the process.

#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use gnet::{HubConfig, ScopeClient, ScopeServer};

/// `(thread name, nanoseconds on CPU)` for every `gnet-*` thread of
/// this process, from `/proc/self/task/<tid>/schedstat`.
fn hub_threads() -> Vec<(String, u64)> {
    let mut out = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").unwrap() {
        let dir = task.unwrap().path();
        let Ok(comm) = std::fs::read_to_string(dir.join("comm")) else {
            continue; // thread exited meanwhile
        };
        let name = comm.trim().to_owned();
        if !name.starts_with("gnet-") {
            continue;
        }
        let stat = std::fs::read_to_string(dir.join("schedstat")).unwrap();
        let on_cpu_ns = stat.split_whitespace().next().unwrap().parse().unwrap();
        out.push((name, on_cpu_ns));
    }
    out.sort();
    out
}

fn hub_cpu_ns() -> u64 {
    hub_threads().iter().map(|(_, ns)| ns).sum()
}

#[test]
fn idle_threaded_hub_sleeps() {
    let cfg = HubConfig {
        shards: 2,
        ..HubConfig::default()
    };
    let mut server = ScopeServer::with_config("127.0.0.1:0", cfg).unwrap();
    server.spawn_shards();
    let _client = ScopeClient::connect(server.local_addr().unwrap()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while server.client_count() < 1 {
        assert!(Instant::now() < deadline, "client never adopted");
        std::thread::sleep(Duration::from_millis(1));
    }
    let names: Vec<String> = hub_threads().into_iter().map(|(n, _)| n).collect();
    assert_eq!(
        names,
        ["gnet-shard-0", "gnet-shard-1"],
        "one thread per shard, nothing else"
    );

    std::thread::sleep(Duration::from_millis(300));
    let window = Duration::from_secs(2);
    let before = hub_cpu_ns();
    std::thread::sleep(window);
    let spent_ns = hub_cpu_ns() - before;
    let per_sec_ms = spent_ns as f64 / 1e6 / window.as_secs_f64();
    assert!(
        per_sec_ms < 5.0,
        "idle hub spent {per_sec_ms:.2} ms of CPU per second"
    );
}
