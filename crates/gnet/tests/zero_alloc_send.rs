//! Proves the client send path is allocation-free in steady state and
//! byte-identical to the legacy `to_line()`-based encoder.
//!
//! The whole test binary runs under a counting wrapper around the
//! system allocator; after warming the connection to steady-state
//! buffer capacities, a burst of sends must not allocate at all.
//!
//! Allocations are counted per thread: the test harness runs tests on
//! parallel threads, and a sibling test allocating during the measured
//! burst must not be charged to it.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;
use std::net::TcpListener;

use gel::TimeStamp;
use gnet::ScopeClient;
use gscope::Tuple;

struct CountingAlloc;

thread_local! {
    // Const-initialised and drop-free, so touching it from inside the
    // allocator never allocates (or recurses) itself.
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

fn count_allocation() {
    // `try_with`: allocations during thread teardown go uncounted.
    let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_allocation();
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_allocation();
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// Allocations made so far by the calling thread.
fn allocations() -> u64 {
    ALLOCS.with(Cell::get)
}

/// A loopback server end the client can connect to; the test drains it
/// so the client's writes always make progress.
fn loopback_client() -> (ScopeClient, std::net::TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let client = ScopeClient::connect(addr).expect("connect");
    let (server_end, _) = listener.accept().expect("accept");
    (client, server_end)
}

#[test]
fn steady_state_send_does_not_allocate() {
    let (mut client, _server_end) = loopback_client();

    // Warm-up: grow the out-buffer and encoding scratch to their
    // steady-state capacities with the exact byte load the measured
    // burst will queue (so no capacity growth can hide in the burst).
    for i in 200..400u64 {
        client.send_at(TimeStamp::from_millis(i), "net.zero_alloc", i as f64 * 0.5);
    }
    assert!(client.pending_bytes() > 0, "warm-up must have queued bytes");
    client.flush_blocking().expect("flush warm-up");
    assert_eq!(client.pending_bytes(), 0);

    // Measured burst: with the buffers warm and the queue drained,
    // sends must be pure formatting + copy — no Tuple, no String, no
    // buffer growth.

    let before = allocations();
    for i in 200..400u64 {
        client.send_at(TimeStamp::from_millis(i), "net.zero_alloc", i as f64 * 0.5);
    }
    let after = allocations();
    assert_eq!(
        after - before,
        0,
        "steady-state sends must not touch the allocator"
    );
}

#[test]
fn send_parts_bytes_match_legacy_encoding() {
    let (mut client, mut server_end) = loopback_client();
    server_end
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .expect("timeout");

    let tuples: Vec<Tuple> = (0..50u64)
        .map(|i| {
            if i % 5 == 0 {
                Tuple::unnamed(TimeStamp::from_micros(i * 1_234), i as f64 / 8.0)
            } else {
                Tuple::new(
                    TimeStamp::from_micros(i * 1_234),
                    (i as f64) * -3.75 + 0.001,
                    format!("sig{}", i % 3),
                )
            }
        })
        .collect();

    // The legacy wire encoding: one to_line() String + '\n' per tuple.
    let mut expected = Vec::new();
    for t in &tuples {
        expected.extend_from_slice(t.to_line().as_bytes());
        expected.push(b'\n');
    }

    for t in &tuples {
        client.send(t);
    }
    client.flush_blocking().expect("flush");
    assert_eq!(client.stats().bytes_sent, expected.len() as u64);

    let mut got = vec![0u8; expected.len()];
    server_end.read_exact(&mut got).expect("read");
    assert_eq!(
        got, expected,
        "wire bytes must be identical to the legacy encoder"
    );
}
