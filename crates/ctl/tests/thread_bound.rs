//! The control server serves its connections from a fixed worker pool:
//! idle connections queue for a worker instead of each spawning threads.
//! Alone in its test binary, so no other test's threads skew the count.

#![cfg(target_os = "linux")]

use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

use mfgcp_ctl::CtlServer;
use mfgcp_obs::BroadcastSink;

/// This process's thread count, from `/proc/self/status`.
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("Threads: line");
    line.trim().parse().expect("thread count")
}

#[test]
fn forty_idle_connections_leave_the_thread_count_at_pool_plus_acceptor() {
    let params = mfgcp_sim::SimConfig::small().params;
    let start = threads();
    let server = CtlServer::spawn("127.0.0.1:0", params, Arc::new(BroadcastSink::new()), false)
        .expect("bind control server");
    let with_pool = threads();

    let idle: Vec<TcpStream> = (0..40)
        .map(|_| TcpStream::connect(server.local_addr()).expect("connect"))
        .collect();
    // Long enough for an acceptor that spawned per connection to have
    // done so for all forty.
    std::thread::sleep(Duration::from_millis(500));
    let loaded = threads();
    assert!(
        loaded <= with_pool,
        "started at {start} threads, {with_pool} with the pool and acceptor, \
         {loaded} with 40 idle connections"
    );

    drop(idle);
    server.shutdown();
}
