//! Deployment two ways, same policies, same protocol.
//!
//! Part 1 runs the scheduler composition on the in-process emulated
//! runtime (worker-manager threads over channels). Part 2 runs it on the
//! networked deployment subsystem (`blox-net`): a TCP scheduler backend,
//! node-manager daemons over loopback sockets, and a submission client
//! injecting the jobs open-loop — the paper's Figure 17 topology, with
//! only the backend changing (the two-module claim).
//!
//! Run with: `cargo run --release --example cluster_deployment`
//! (`BLOX_SCALE=0.02` shrinks the workload for smoke runs.)

use std::time::Duration;

use blox::core::{BloxManager, ExecMode, RunConfig, StopCondition};
use blox::net::client::{submit_timed, JobRequest};
use blox::net::node::{spawn_node, NodeConfig};
use blox::net::sched::{serve, NetBackend, SchedulerConfig};
use blox::policies::admission::AcceptAll;
use blox::policies::placement::FirstFreePlacement;
use blox::policies::scheduling::Las;
use blox::runtime::{EmulatedCluster, RuntimeBackend, RuntimeConfig};
use blox::sim::cluster_of_v100;
use blox::workloads::{ModelZoo, PhillyTraceGen, Trace};

fn scale() -> f64 {
    std::env::var("BLOX_SCALE")
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .filter(|s| *s > 0.0)
        .unwrap_or(1.0)
}

fn trace(n_jobs: usize) -> Trace {
    let zoo = ModelZoo::standard();
    PhillyTraceGen::new(&zoo, 12.0)
        .runtimes(0.3, 0.8)
        .generate(n_jobs, 5)
}

fn main() {
    let n_jobs = ((40.0 * scale()) as usize).max(4);
    let runtime_cfg = RuntimeConfig {
        time_scale: 1e-4, // 1 simulated hour ≈ 0.36 wall seconds.
        emu_iter_sim_s: 30.0,
    };

    // Part 1: in-process emulated runtime (worker threads over channels).
    let cluster = cluster_of_v100(4); // 16 GPUs.
    let emu = EmulatedCluster::start(&cluster, runtime_cfg.clone());
    let backend = RuntimeBackend::new(emu, trace(n_jobs).jobs);
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
    let stats = mgr.run(
        &mut AcceptAll::new(),
        &mut Las::new(),
        &mut FirstFreePlacement::new(),
    );
    let s = stats.summary();
    println!(
        "in-process runtime: {} jobs, avg JCT {:.0} s, avg preemptions {:.2}",
        s.jobs, s.avg_jct, s.avg_preemptions
    );

    // Part 2: the same composition over real loopback TCP — scheduler
    // backend, 4 node-manager daemons, open-loop live submission.
    let backend = NetBackend::bind(SchedulerConfig {
        runtime: runtime_cfg.clone(),
        ..SchedulerConfig::default()
    })
    .expect("bind scheduler on an ephemeral port");
    let addr = backend.addr();
    println!("blox-net scheduler listening on {addr}");
    let daemons: Vec<_> = (0..4)
        .map(|_| spawn_node(NodeConfig::new(addr, 4, false)))
        .collect();
    let timeline: Vec<(f64, JobRequest)> = trace(n_jobs)
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
    let time_scale = runtime_cfg.time_scale;
    let submitter = std::thread::spawn(move || submit_timed(addr, &timeline, time_scale));
    let report = serve(
        backend,
        RunConfig {
            round_duration: 300.0,
            max_rounds: 100_000,
            stop: StopCondition::TrackedWindowDone {
                lo: 0,
                hi: n_jobs as u64 - 1,
            },
            mode: ExecMode::FixedRounds,
        },
        4,
        Duration::from_secs(30),
        &mut AcceptAll::new(),
        &mut Las::new(),
        &mut FirstFreePlacement::new(),
    )
    .expect("networked run");
    submitter
        .join()
        .expect("submitter thread")
        .expect("all submissions accepted");
    for d in daemons {
        let _ = d.join();
    }
    let s = report.stats.summary();
    println!(
        "networked run: {} jobs over TCP, avg JCT {:.0} s, {} nodes joined, {} failures",
        s.jobs, s.avg_jct, report.nodes_joined, report.failures_detected
    );
}
