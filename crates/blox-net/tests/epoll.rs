//! Epoll differential suite: every cluster scenario replayed on the
//! event loop with the epoll(7) readiness backend pinned, plus the
//! slow-reader disconnect bound on an epoll pool.
//!
//! The scenario bodies in `tests/scenarios/` are byte-for-byte the ones
//! `tests/evloop.rs` runs on poll; a divergence here is an
//! epoll-backend bug, not test drift.

#![cfg(target_os = "linux")]

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use blox_net::event_loop::{Delivery, EvLoopConfig, EvLoopPool, LoopEvent};
use blox_net::PollerKind;
use blox_runtime::wire::Message;
use crossbeam::channel::unbounded;

mod common;
mod scenarios;
use common::watchdog;

/// Differential fidelity: the epoll deployment must produce the same JCT
/// stats as the in-process runtime (and therefore as the poll backend,
/// which passes the identical assertion).
#[test]
fn epoll_jct_matches_in_process_runtime() {
    scenarios::fidelity_scenario(PollerKind::Epoll);
}

/// Differential churn: a mid-run node crash on the epoll backend must
/// trigger the same detect → revoke → requeue → finish sequence.
#[test]
fn epoll_node_crash_triggers_churn_and_jobs_still_finish() {
    scenarios::churn_scenario(PollerKind::Epoll);
}

/// Differential heartbeats: a silent worker must be caught by the
/// missed-deadline detector on epoll too.
#[test]
fn epoll_silent_worker_trips_heartbeat_deadline() {
    scenarios::heartbeat_scenario(PollerKind::Epoll);
}

/// Differential open-loop gap handling on the epoll backend.
#[test]
fn epoll_submission_gap_does_not_end_run_early() {
    scenarios::submission_gap_scenario(PollerKind::Epoll);
}

/// The slow-client policy must hold on epoll exactly as on poll: a peer
/// that stops reading is disconnected once its outbound queue exceeds
/// the configured bound — not buffered without limit.
#[test]
fn epoll_slow_reader_is_disconnected_at_the_queue_bound() {
    let _wd = watchdog(Duration::from_secs(60), "epoll backpressure test");
    let max_out = 64 * 1024;
    let pool = EvLoopPool::new(EvLoopConfig {
        shards: 1,
        max_out_bytes: max_out,
        poller: PollerKind::Epoll,
    })
    .expect("pool");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("listener addr");
    // Keep the client socket open but never read from it.
    let _client = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let (tx, events) = unbounded();
    let sender = pool
        .register(server, Delivery::Events(tx))
        .expect("register");
    match events.recv_timeout(Duration::from_secs(5)) {
        Ok(LoopEvent::Connected(..)) => {}
        other => panic!("expected Connected, got {other:?}"),
    }

    let big = Message::SubmitJob {
        gpus: 1,
        total_iters: 1.0,
        model: "x".repeat(8 * 1024),
    };
    let mut queue_high = 0usize;
    let err = loop {
        match sender.send(&big) {
            Ok(()) => {
                queue_high = queue_high.max(sender.queued_bytes());
                std::thread::sleep(Duration::from_micros(200));
            }
            Err(e) => break e,
        }
    };
    assert!(sender.is_closed(), "sender must report the disconnect");
    let reason = sender.close_reason().expect("a recorded close reason");
    assert!(
        reason.contains("slow client"),
        "expected the slow-client verdict, got: {reason} (send error: {err})"
    );
    assert!(
        queue_high < 4 * max_out,
        "outbound queue reached {queue_high} bytes (bound {max_out})"
    );
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match events.recv_timeout(Duration::from_millis(100)) {
            Ok(LoopEvent::Closed(_)) => break,
            Ok(_) => {}
            Err(_) => assert!(Instant::now() < deadline, "no Closed event"),
        }
    }
}
