//! Event-loop suite: the replay of every cluster scenario on the poll(2)
//! readiness backend, plus bounded write backpressure, thousand-
//! connection fan-in on a handful of threads, and the compiled daemons
//! end to end.
//!
//! The scenario bodies live in `tests/scenarios/` and are byte-for-byte
//! the ones `tests/epoll.rs` runs on the epoll backend: same trace, same
//! policies, same assertions. Pinning poll keeps that path covered on
//! machines where `Auto` resolves to epoll.

use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use blox_core::ids::JobId;
use blox_net::event_loop::{Delivery, EvLoopConfig, EvLoopPool, EvSender, LoopEvent};
use blox_net::PollerKind;
use blox_runtime::wire::Message;
use crossbeam::channel::unbounded;

mod common;
mod scenarios;
use common::watchdog;

/// Differential fidelity: the event-loop deployment must produce the
/// same JCT stats as the in-process runtime (and therefore as the epoll
/// backend, which passes the identical assertion).
#[test]
fn evloop_jct_matches_in_process_runtime() {
    scenarios::fidelity_scenario(PollerKind::Poll);
}

/// Differential churn: a mid-run node crash on the event loop must
/// trigger the same detect → revoke → requeue → finish sequence.
#[test]
fn evloop_node_crash_triggers_churn_and_jobs_still_finish() {
    scenarios::churn_scenario(PollerKind::Poll);
}

/// Differential heartbeats: a silent worker must be caught by the
/// missed-deadline detector.
#[test]
fn evloop_silent_worker_trips_heartbeat_deadline() {
    scenarios::heartbeat_scenario(PollerKind::Poll);
}

/// Differential open-loop gap handling on the event-loop engine.
#[test]
fn evloop_submission_gap_does_not_end_run_early() {
    scenarios::submission_gap_scenario(PollerKind::Poll);
}

/// A peer that stops reading must be disconnected once its outbound
/// queue exceeds the configured bound — not buffer without limit.
#[test]
fn slow_reader_is_disconnected_at_the_queue_bound() {
    let _wd = watchdog(Duration::from_secs(60), "backpressure test");
    let max_out = 64 * 1024;
    let pool = EvLoopPool::new(EvLoopConfig {
        shards: 1,
        max_out_bytes: max_out,
        poller: PollerKind::Poll,
    })
    .expect("pool");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.addr_local();
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

    // ~8 KB per message: the kernel socket buffer absorbs the first few,
    // then the loop's outbound queue grows past the bound.
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
                // Pacing lets the loop observe the over-budget queue
                // between enqueues instead of racing the command channel.
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
    // The queue is bounded: it may overshoot by the frames already in
    // the command channel at disconnect time, but never grows unbounded.
    assert!(
        queue_high < 4 * max_out,
        "outbound queue reached {queue_high} bytes (bound {max_out})"
    );
    // The loop announces the disconnect as an event too.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        match events.recv_timeout(Duration::from_millis(100)) {
            Ok(LoopEvent::Closed(_)) => break,
            Ok(_) => {}
            Err(_) => assert!(Instant::now() < deadline, "no Closed event"),
        }
    }
}

/// Fan-in smoke: one event-loop pool carries ~2N sockets (N clients and
/// their N server peers), every client submits, every client gets its
/// acknowledgement. 1000 connections in release builds; 100 in debug
/// builds, where the unoptimized frame path would dominate CI time.
#[test]
fn thousand_connections_on_one_pool() {
    let _wd = watchdog(Duration::from_secs(120), "1k-connection smoke");
    let n: usize = if cfg!(debug_assertions) { 100 } else { 1000 };
    let pool = EvLoopPool::new(EvLoopConfig {
        poller: PollerKind::Poll,
        ..EvLoopConfig::default()
    })
    .expect("pool");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.addr_local();
    let (server_tx, server_events) = unbounded();

    // Acceptor: register every server-side socket on the shared pool.
    let acked_total = {
        let server_tx2 = server_tx.clone();
        std::thread::scope(|s| {
            let accept = s.spawn(|| {
                let mut accepted = Vec::new();
                for _ in 0..n {
                    let (stream, _) = listener.accept().expect("accept");
                    accepted.push(stream);
                }
                accepted
            });

            // Clients connect (with retry: loopback backlog is finite).
            let (client_tx, client_events) = unbounded();
            let mut clients = Vec::with_capacity(n);
            for i in 0..n {
                let stream = loop {
                    match TcpStream::connect(addr) {
                        Ok(s) => break s,
                        Err(e) => {
                            assert!(i > 0, "first connect failed: {e}");
                            std::thread::sleep(Duration::from_millis(1));
                        }
                    }
                };
                clients.push(
                    pool.register(stream, Delivery::Events(client_tx.clone()))
                        .expect("register client"),
                );
            }
            let accepted = accept.join().expect("acceptor");
            for stream in accepted {
                pool.register(stream, Delivery::Events(server_tx2.clone()))
                    .expect("register server side");
            }

            // Every client submits once.
            let submit = Message::SubmitJob {
                gpus: 1,
                total_iters: 100.0,
                model: "smoke".into(),
            };
            for c in &clients {
                c.send(&submit).expect("client send");
            }

            // Server side: acknowledge every submission on its own link.
            let mut acked = 0usize;
            let mut server_links = std::collections::BTreeMap::new();
            while acked < n {
                match server_events.recv_timeout(Duration::from_secs(30)) {
                    Ok(LoopEvent::Connected(token, link)) => {
                        server_links.insert(token, link);
                    }
                    Ok(LoopEvent::Msg(token, Message::SubmitJob { .. }, _)) => {
                        let link: &EvSender =
                            server_links.get(&token).expect("Connected precedes Msg");
                        link.send(&Message::JobAccepted {
                            job: JobId(acked as u64),
                        })
                        .expect("ack");
                        acked += 1;
                    }
                    Ok(other) => panic!("unexpected server event {other:?}"),
                    Err(e) => panic!("server starved after {acked}/{n} acks: {e:?}"),
                }
            }

            // Every client hears its acknowledgement.
            let mut accepted_acks = 0usize;
            while accepted_acks < n {
                match client_events.recv_timeout(Duration::from_secs(30)) {
                    Ok(LoopEvent::Msg(_, Message::JobAccepted { .. }, _)) => accepted_acks += 1,
                    Ok(LoopEvent::Connected(..)) => {}
                    Ok(other) => panic!("unexpected client event {other:?}"),
                    Err(e) => panic!("clients starved after {accepted_acks}/{n}: {e:?}"),
                }
            }
            accepted_acks
        })
    };
    assert_eq!(acked_total, n);
}

/// True multi-process end-to-end: the compiled `bloxschedd`, two
/// `bloxnoded` processes, and a paced `blox-submit --rate` client
/// cooperate over loopback TCP.
#[test]
fn daemon_binaries_run_on_the_event_loop() {
    use std::io::{BufRead, BufReader, Read};
    use std::process::{Command, Stdio};

    let _wd = watchdog(Duration::from_secs(240), "evloop multi-process test");
    let mut schedd = Command::new(env!("CARGO_BIN_EXE_bloxschedd"))
        .args([
            "--nodes",
            "2",
            "--jobs",
            "4",
            "--policy",
            "tiresias",
            "--time-scale",
            "1e-4",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn bloxschedd");

    let mut stdout = BufReader::new(schedd.stdout.take().expect("schedd stdout"));
    let mut listen = String::new();
    stdout.read_line(&mut listen).expect("LISTEN line");
    let addr = listen
        .trim()
        .strip_prefix("LISTEN ")
        .unwrap_or_else(|| panic!("expected `LISTEN <addr>`, got {listen:?}"))
        .to_string();

    let mut noded: Vec<_> = (0..2)
        .map(|_| {
            Command::new(env!("CARGO_BIN_EXE_bloxnoded"))
                .args(["--sched", &addr, "--gpus", "4"])
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .expect("spawn bloxnoded")
        })
        .collect();

    let submit = Command::new(env!("CARGO_BIN_EXE_blox-submit"))
        .args([
            "--sched", &addr, "--model", "resnet18", "--gpus", "1", "--iters", "2000", "--count",
            "4", "--rate", "50",
        ])
        .output()
        .expect("run blox-submit");
    assert!(
        submit.status.success(),
        "blox-submit failed: {}",
        String::from_utf8_lossy(&submit.stderr)
    );
    assert_eq!(
        String::from_utf8_lossy(&submit.stdout)
            .lines()
            .filter(|l| l.starts_with("accepted "))
            .count(),
        4
    );

    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = schedd.try_wait().expect("try_wait schedd") {
            break status;
        }
        assert!(Instant::now() < deadline, "bloxschedd did not terminate");
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut rest = String::new();
    stdout.read_to_string(&mut rest).expect("schedd output");
    for child in &mut noded {
        let _ = child.kill();
        let _ = child.wait();
    }
    assert!(
        status.success(),
        "bloxschedd exited with {status:?}: {rest}"
    );
    assert!(
        rest.contains("summary: jobs=4"),
        "expected a 4-job summary, got: {rest}"
    );
}

/// Minimal local-addr helper: `TcpListener::local_addr` with the test's
/// expectations baked in.
trait ListenerExt {
    fn addr_local(&self) -> std::net::SocketAddr;
}

impl ListenerExt for TcpListener {
    fn addr_local(&self) -> std::net::SocketAddr {
        let addr = self.local_addr().expect("listener addr");
        assert_ne!(addr.port(), 0);
        addr
    }
}
