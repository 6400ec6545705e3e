//! Chaos suite for the networked deployment: proptest-generated, seeded
//! `FaultPlan`s injected into every worker's scheduler link (drops,
//! duplication, reordering, delay, and a timed partition window) over a
//! fixed Philly-derived trace, driven through an in-process [`NetBackend`]
//! harness so every round's shared state can be asserted on.
//!
//! Invariants pinned per generated plan: no panic anywhere in the stack,
//! no GPU oversubscribed in any round (cluster invariants checked after
//! every executed round), the manager terminates, and every submitted job
//! completes exactly once — the failure-handling mechanisms (heartbeat
//! verdicts, stall requeue, completion fallback, worker re-registration)
//! must absorb whatever the fault layer throws at them.
//!
//! Byte-for-byte determinism of the *same seed* is pinned by the
//! simulator half of this suite (`blox-sim/tests/chaos.rs`): a run over
//! real sockets and wall-clock scheduling is not bit-reproducible by
//! construction, so here the contract is safety + liveness.

use std::time::{Duration, Instant};

use blox_core::cluster::ClusterState;
use blox_core::fault::{FaultEvent, FaultPlan, LinkFaults};
use blox_core::manager::{BloxManager, ExecMode, RunConfig, StopCondition};
use blox_net::client::{submit, JobRequest};
use blox_net::node::{spawn_node, NodeConfig};
use blox_net::sched::{NetBackend, SchedulerConfig};
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::Fifo;
use blox_runtime::runtime::RuntimeConfig;
use blox_workloads::{ModelZoo, PhillyTraceGen, Trace};
use proptest::prelude::*;

mod common;
use common::watchdog;

const TIME_SCALE: f64 = 1e-4;
const NODES: u32 = 2;
const JOBS: usize = 6;

/// The fixed Philly-derived workload every generated plan runs against.
fn chaos_trace() -> Trace {
    let zoo = ModelZoo::standard();
    PhillyTraceGen::new(&zoo, 12.0)
        .runtimes(0.3, 0.8)
        .generate(JOBS, 5)
}

/// Run the fixed trace through a real loopback-TCP cluster whose worker
/// links all follow `plan`, stepping the manager manually so the shared
/// state can be checked after every round.
fn run_chaos_cluster(plan: FaultPlan) {
    let backend = NetBackend::bind(SchedulerConfig {
        runtime: RuntimeConfig {
            time_scale: TIME_SCALE,
            emu_iter_sim_s: 30.0,
        },
        heartbeat_sim_s: 60.0,
        heartbeat_misses: 3,
        // Aggressive stall requeue: dropped Launch/Progress/JobDone
        // messages must be healed within a few rounds.
        stall_rounds: 4,
        ..SchedulerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = backend.addr();
    let nodes: Vec<_> = (0..NODES)
        .map(|_| {
            // A partitioned (and declared-dead) worker must come back.
            spawn_node(NodeConfig {
                faults: Some(plan.clone()),
                ..NodeConfig::new(addr, 4, true)
            })
        })
        .collect();

    let trace = chaos_trace();
    let requests: Vec<JobRequest> = trace
        .jobs
        .iter()
        .map(|j| JobRequest {
            gpus: j.requested_gpus.min(4),
            total_iters: j.total_iters,
            model: j.profile.model_name.clone(),
        })
        .collect();
    let submitter = std::thread::spawn(move || submit(addr, &requests));

    // Registration wait (the serve() preamble, inlined so the round loop
    // below can assert invariants per round).
    let mut backend = backend;
    let mut cluster = ClusterState::new();
    let deadline = Instant::now() + Duration::from_secs(30);
    while backend.nodes_joined() < NODES {
        assert!(Instant::now() < deadline, "workers failed to register");
        backend.poll(&mut cluster);
        std::thread::sleep(Duration::from_millis(5));
    }
    backend.expect_jobs(JOBS as u64);
    backend.begin_rounds();

    let mut mgr = BloxManager::new(
        backend,
        cluster,
        RunConfig {
            round_duration: 300.0,
            max_rounds: 1_000_000,
            stop: StopCondition::TrackedWindowDone {
                lo: 0,
                hi: JOBS as u64 - 1,
            },
            mode: ExecMode::FixedRounds,
        },
    );
    let mut admission = AcceptAll::new();
    let mut scheduling = Fifo::new();
    let mut placement = ConsolidatedPlacement::preferred();
    while !mgr.should_stop() {
        mgr.step(&mut admission, &mut scheduling, &mut placement);
        // No GPU oversubscribed, no table inconsistency, in any round.
        mgr.cluster()
            .check_invariants()
            .expect("cluster invariants must survive chaos");
        let busy: u32 = mgr.cluster().gpus().filter(|g| g.job.is_some()).count() as u32;
        assert_eq!(
            busy + mgr.cluster().free_gpu_count(),
            mgr.cluster().total_gpus()
        );
    }

    let stats = mgr.stats().clone();
    let ids = submitter.join().expect("submitter").expect("submissions");
    assert_eq!(ids.len(), JOBS);
    assert_eq!(
        stats.records.len(),
        JOBS,
        "every job must complete despite the faults (stalls requeued: {})",
        mgr.backend().stalls_detected()
    );
    let mut record_ids: Vec<u64> = stats.records.iter().map(|r| r.id.0).collect();
    record_ids.sort_unstable();
    record_ids.dedup();
    assert_eq!(record_ids.len(), JOBS, "no job may complete twice");

    // Tear down: stop reconnect loops before the scheduler drops, or the
    // workers would retry a dead address forever.
    drop(mgr);
    for node in &nodes {
        node.crash();
    }
    for node in nodes {
        let _ = node.join();
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        // Each case is a multi-second wall-clock cluster run: keep the
        // per-PR pass at 3 distinct seeded plans and cap the nightly
        // PROPTEST_CASES sweep rather than letting it run for hours.
        cases: ProptestConfig::env_cases(3).min(8),
        seed: 0xB10C_5EED_0000_0005,
    })]

    #[test]
    fn chaotic_worker_links_cannot_break_the_scheduler(
        seed in any::<u64>(),
        drop_p in 0.0f64..0.25,
        dup_p in 0.0f64..0.3,
        reorder_p in 0.0f64..0.3,
        delay_s in 0.0f64..120.0,
        part_from in 3_000.0f64..9_000.0,
        part_len in 2_500.0f64..4_000.0,
    ) {
        let _wd = watchdog(Duration::from_secs(220), "net chaos case");
        let plan = FaultPlan::new(seed)
            .with_base(LinkFaults { delay_s, drop_p, dup_p, reorder_p })
            .with_event(FaultEvent::Partition {
                from: part_from,
                until: part_from + part_len,
            });
        run_chaos_cluster(plan);
    }
}
