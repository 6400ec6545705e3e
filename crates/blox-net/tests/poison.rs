//! Dead-link regression suite: a peer that dies mid-frame or
//! mid-conversation must surface an explicit error and a
//! failure-detector verdict — never a hang, and never a silent
//! half-dead link that the scheduler keeps trusting.

use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};

use blox_core::ids::NodeId;
use blox_core::manager::{ExecMode, RunConfig, StopCondition};
use blox_net::sched::{serve, NetBackend, SchedulerConfig};
use blox_net::{global_pool, EvTransport};
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::Fifo;
use blox_runtime::runtime::RuntimeConfig;
use blox_runtime::wire::{Message, Transport};

mod common;
use common::watchdog;

/// A peer that closes mid-frame (length prefix promised more bytes than
/// were ever sent) must make `recv` on the reading side fail, not hang
/// and not yield a truncated frame.
#[test]
fn mid_frame_peer_close_surfaces_an_error() {
    let _wd = watchdog(Duration::from_secs(60), "mid-frame close test");
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let mut client = TcpStream::connect(addr).expect("connect");
    let (server, _) = listener.accept().expect("accept");
    let server = EvTransport::from_stream(server, global_pool()).expect("register");

    // Promise 100 bytes, deliver 10, close.
    client.write_all(&100u32.to_le_bytes()).expect("prefix");
    client.write_all(&[0u8; 10]).expect("partial body");
    drop(client);

    let deadline = Instant::now() + Duration::from_secs(10);
    let err = loop {
        match server.recv_timeout(Duration::from_millis(100)) {
            Ok(None) => assert!(Instant::now() < deadline, "recv hung on a dead peer"),
            Ok(Some(msg)) => panic!("a truncated frame decoded to {msg:?}"),
            Err(e) => break e,
        }
    };
    assert!(
        err.to_string().contains("disconnected"),
        "expected a disconnect diagnostic, got: {err}"
    );
}

/// Scheduler-level verdict: when a registered worker's link dies, the
/// failure detector must declare the node dead even with heartbeat
/// deadlines effectively disabled — the link failure itself is the
/// evidence.
#[test]
fn dead_link_yields_a_failure_verdict() {
    let _wd = watchdog(Duration::from_secs(120), "dead-link verdict test");
    let time_scale = 1e-3;
    let backend = NetBackend::bind(SchedulerConfig {
        runtime: RuntimeConfig {
            time_scale,
            emu_iter_sim_s: 30.0,
        },
        // Heartbeat detection pushed out of reach: only the dead link
        // can produce the verdict this test asserts.
        heartbeat_sim_s: 1e9,
        heartbeat_misses: 1000,
        ..SchedulerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = backend.addr();

    let fake = std::thread::spawn(move || {
        let link = EvTransport::connect(addr, global_pool()).expect("connect");
        link.send(&Message::RegisterWorker {
            node: NodeId(0),
            gpus: 4,
        })
        .expect("register");
        let assign = link
            .recv_timeout(Duration::from_secs(10))
            .expect("assign")
            .expect("assign within 10 s");
        assert!(matches!(assign, Message::AssignNode { .. }));
        // Die abruptly: drop the socket with no goodbye.
    });

    let report = serve(
        backend,
        RunConfig {
            round_duration: 100.0,
            max_rounds: 100,
            stop: StopCondition::TimeLimit(1500.0),
            mode: ExecMode::FixedRounds,
        },
        1,
        Duration::from_secs(10),
        &mut AcceptAll::new(),
        &mut Fifo::new(),
        &mut ConsolidatedPlacement::preferred(),
    )
    .expect("verdict run");
    fake.join().expect("fake worker");

    assert_eq!(
        report.failures_detected, 1,
        "the dead link must produce exactly one verdict"
    );
    assert_eq!(report.dead_nodes.len(), 1);
}
