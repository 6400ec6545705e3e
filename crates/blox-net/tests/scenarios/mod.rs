//! Poller-parameterized cluster scenarios.
//!
//! Every white-box integration scenario — JCT fidelity, mid-run crash
//! churn, heartbeat deadlines, open-loop submission gaps — is written
//! once here against a readiness [`PollerKind`], then instantiated by
//! `tests/evloop.rs` on poll(2) and by `tests/epoll.rs` on epoll(7).
//! That makes the differential claim structural: both pollers run
//! byte-for-byte the same scenario code, so a divergence is a poller
//! bug, not a test drift.

#![allow(dead_code)] // each test binary instantiates a subset

use std::time::Duration;

use blox_core::ids::NodeId;
use blox_core::manager::{BloxManager, ExecMode, RunConfig, StopCondition};
use blox_net::client::{submit, submit_timed, JobRequest};
use blox_net::node::{spawn_node, NodeConfig};
use blox_net::sched::{serve, NetBackend, NetReport, SchedulerConfig};
use blox_net::{global_pool, EvTransport, PollerKind};
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::{Fifo, Tiresias};
use blox_runtime::runtime::{EmulatedCluster, RuntimeBackend, RuntimeConfig};
use blox_runtime::wire::{Message, Transport};
use blox_sim::cluster_of_v100;
use blox_workloads::{ModelZoo, PhillyTraceGen, Trace};

use crate::common::watchdog;

pub const TIME_SCALE: f64 = 1e-4;

/// Scheduler configuration on `poller`.
pub fn sched_config(poller: PollerKind) -> SchedulerConfig {
    SchedulerConfig {
        runtime: RuntimeConfig {
            time_scale: TIME_SCALE,
            emu_iter_sim_s: 30.0,
        },
        poller,
        ..SchedulerConfig::default()
    }
}

/// Node-manager configuration for one 4-GPU worker on `poller`.
fn node_config(poller: PollerKind, addr: std::net::SocketAddr) -> NodeConfig {
    NodeConfig {
        poller,
        ..NodeConfig::new(addr, 4, false)
    }
}

pub fn philly_trace(n: usize) -> Trace {
    let zoo = ModelZoo::standard();
    PhillyTraceGen::new(&zoo, 12.0)
        .runtimes(0.3, 0.8)
        .generate(n, 5)
}

/// Replay `trace` through the networked deployment: `nodes` node-manager
/// threads over real TCP, jobs injected open-loop by a submission client.
pub fn run_networked(trace: &Trace, nodes: u32, poller: PollerKind) -> NetReport {
    let n = trace.jobs.len() as u64;
    let backend = NetBackend::bind(sched_config(poller)).expect("bind ephemeral");
    let addr = backend.addr();
    assert_ne!(addr.port(), 0, "ephemeral port must be resolved");
    let daemons: Vec<_> = (0..nodes)
        .map(|_| spawn_node(node_config(poller, addr)))
        .collect();
    let timeline: Vec<(f64, JobRequest)> = trace
        .jobs
        .iter()
        .map(|j| {
            (
                j.arrival_time,
                JobRequest {
                    gpus: j.requested_gpus,
                    total_iters: j.total_iters,
                    model: j.profile.model_name.clone(),
                },
            )
        })
        .collect();
    let submitter = std::thread::spawn(move || submit_timed(addr, &timeline, TIME_SCALE));
    let report = serve(
        backend,
        RunConfig {
            round_duration: 300.0,
            max_rounds: 100_000,
            stop: StopCondition::TrackedWindowDone { lo: 0, hi: n - 1 },
            mode: ExecMode::FixedRounds,
        },
        nodes,
        Duration::from_secs(30),
        &mut AcceptAll::new(),
        &mut Tiresias::new(),
        &mut ConsolidatedPlacement::preferred(),
    )
    .expect("networked run");
    let ids = submitter.join().expect("submitter").expect("submissions");
    assert_eq!(ids.len(), trace.jobs.len());
    for d in daemons {
        let _ = d.join();
    }
    report
}

/// Scheduler + 2 node managers replay a small trace through Tiresias and
/// the final JCT stats must match the in-process `RuntimeBackend` within
/// tolerance.
pub fn fidelity_scenario(poller: PollerKind) {
    let _wd = watchdog(Duration::from_secs(240), "fidelity scenario");
    let n = 10;

    // Reference: the in-process emulated runtime on an identical cluster.
    let trace = philly_trace(n);
    let cluster = cluster_of_v100(2);
    let emu = EmulatedCluster::start(
        &cluster,
        RuntimeConfig {
            time_scale: TIME_SCALE,
            emu_iter_sim_s: 30.0,
        },
    );
    let backend = RuntimeBackend::new(emu, trace.jobs.clone());
    let mut mgr = BloxManager::new(
        backend,
        cluster,
        RunConfig {
            round_duration: 300.0,
            max_rounds: 100_000,
            stop: StopCondition::AllJobsDone,
            mode: ExecMode::FixedRounds,
        },
    );
    let reference = mgr
        .run(
            &mut AcceptAll::new(),
            &mut Tiresias::new(),
            &mut ConsolidatedPlacement::preferred(),
        )
        .summary();
    assert_eq!(reference.jobs, n);

    // Same trace through the real-socket deployment.
    let report = run_networked(&trace, 2, poller);
    assert_eq!(report.stats.records.len(), n);
    assert_eq!(report.nodes_joined, 2);
    assert_eq!(report.failures_detected, 0);

    let net = report.stats.summary();
    // Mechanism is identical; divergence comes from round-boundary
    // quantization of live arrivals and wall-clock jitter, so allow a
    // generous-but-meaningful envelope.
    let tol = (0.4 * reference.avg_jct).max(900.0);
    assert!(
        (net.avg_jct - reference.avg_jct).abs() < tol,
        "networked avg JCT {:.0} s vs in-process {:.0} s (tolerance {tol:.0})",
        net.avg_jct,
        reference.avg_jct
    );
}

/// Kill a node mid-run: the failure detector must trigger churn (node
/// dead, GPUs hidden), revoke leases, requeue the evicted jobs, and the
/// run must still complete every job on the surviving nodes.
pub fn churn_scenario(poller: PollerKind) {
    let _wd = watchdog(Duration::from_secs(240), "churn scenario");
    let n = 8u64;
    let backend = NetBackend::bind(sched_config(poller)).expect("bind ephemeral");
    let addr = backend.addr();
    let mut daemons: Vec<_> = (0..3)
        .map(|_| spawn_node(node_config(poller, addr)))
        .collect();
    let victim = daemons.pop().expect("three daemons");

    // 8 two-GPU jobs (16 GPUs of demand on 12 GPUs) with tens of
    // thousands of simulated seconds of work each, submitted up front —
    // long enough that the crash below lands solidly mid-run.
    let reqs: Vec<JobRequest> = (0..n)
        .map(|_| JobRequest {
            gpus: 2,
            total_iters: 30_000.0,
            model: "emu-net".into(),
        })
        .collect();
    let submitter = std::thread::spawn(move || submit(addr, &reqs));

    // Crash the third node ~0.6 s into the run (≈ 6000 simulated
    // seconds): jobs are placed and running on it by then.
    let crasher = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(600));
        victim.crash();
        victim
    });

    let report = serve(
        backend,
        RunConfig {
            round_duration: 300.0,
            max_rounds: 100_000,
            stop: StopCondition::TrackedWindowDone { lo: 0, hi: n - 1 },
            mode: ExecMode::FixedRounds,
        },
        3,
        Duration::from_secs(30),
        &mut AcceptAll::new(),
        &mut Tiresias::new(),
        &mut ConsolidatedPlacement::preferred(),
    )
    .expect("churn run");
    submitter.join().expect("submitter").expect("submissions");
    let victim = crasher.join().expect("crasher");
    let _ = victim.join();
    for d in daemons {
        let _ = d.join();
    }

    assert_eq!(
        report.stats.records.len(),
        n as usize,
        "every job must finish on the surviving nodes"
    );
    assert!(
        report.failures_detected >= 1,
        "the failure detector must notice the crashed node"
    );
    assert!(
        !report.dead_nodes.is_empty(),
        "churn must mark the node dead in ClusterState"
    );
    let preemptions: u32 = report.stats.records.iter().map(|r| r.preemptions).sum();
    assert!(
        preemptions >= 1,
        "evicted jobs must be requeued through lease revocation"
    );
}

/// A worker that registers, heartbeats briefly, then falls silent with its
/// socket still open: only the missed-deadline verdict can catch this
/// failure mode (the link never drops).
pub fn heartbeat_scenario(poller: PollerKind) {
    let _wd = watchdog(Duration::from_secs(120), "heartbeat scenario");
    let time_scale = 1e-3;
    let backend = NetBackend::bind(SchedulerConfig {
        runtime: RuntimeConfig {
            time_scale,
            emu_iter_sim_s: 30.0,
        },
        heartbeat_sim_s: 60.0,
        heartbeat_misses: 3,
        poller,
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
        let Message::AssignNode { node, .. } = assign else {
            panic!("expected AssignNode, got {assign:?}");
        };
        for seq in 0..2 {
            link.send(&Message::Heartbeat { node, seq }).expect("beat");
            std::thread::sleep(Duration::from_millis(60));
        }
        // Fall silent, keeping the socket open past the detection window.
        std::thread::sleep(Duration::from_secs(2));
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
    .expect("heartbeat run");
    fake.join().expect("fake worker");

    assert_eq!(report.failures_detected, 1, "missed-deadline verdict");
    assert_eq!(report.dead_nodes.len(), 1);
}

/// An open-loop gap in the arrival stream must not read as a drained
/// trace: a `TrackedWindowDone` run waits for the whole pledged window
/// even when a job completes while the wait queue is empty.
pub fn submission_gap_scenario(poller: PollerKind) {
    let _wd = watchdog(Duration::from_secs(120), "submission-gap scenario");
    let backend = NetBackend::bind(sched_config(poller)).expect("bind ephemeral");
    let addr = backend.addr();
    let daemon = spawn_node(node_config(poller, addr));

    let submitter = std::thread::spawn(move || {
        let req = JobRequest {
            gpus: 1,
            total_iters: 2000.0,
            model: "emu-gap".into(),
        };
        submit(addr, std::slice::from_ref(&req)).expect("first submission");
        // Job 0 (~2000 simulated seconds, ~0.2 s wall) finishes well
        // inside this gap; the scheduler must keep waiting for job 1.
        std::thread::sleep(Duration::from_millis(1500));
        submit(addr, &[req]).expect("second submission after the gap");
    });

    let report = serve(
        backend,
        RunConfig {
            round_duration: 300.0,
            max_rounds: 100_000,
            stop: StopCondition::TrackedWindowDone { lo: 0, hi: 1 },
            mode: ExecMode::FixedRounds,
        },
        1,
        Duration::from_secs(30),
        &mut AcceptAll::new(),
        &mut Tiresias::new(),
        &mut ConsolidatedPlacement::preferred(),
    )
    .expect("gap run");
    submitter.join().expect("submitter");
    let _ = daemon.join();

    assert_eq!(
        report.stats.records.len(),
        2,
        "the run must outlive the submission gap and finish both jobs"
    );
}
