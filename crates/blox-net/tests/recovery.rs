//! Crash-recovery integration tests: kill `bloxschedd` mid-run, restart
//! it with `--restore`, and prove the cluster finishes every job exactly
//! once — plus the in-process reconciliation semantics (worker
//! re-adoption) and the `blox-submit` failure contract.
//!
//! Like the cluster suite, every listener binds `127.0.0.1:0`, and every
//! test arms a hard watchdog because a wedged socket test would otherwise
//! hang CI past any useful failure report.

use std::io::{BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use blox_core::cluster::ClusterState;
use blox_core::ids::JobId;
use blox_core::job::{Job, JobStatus};
use blox_core::manager::{ExecMode, RunConfig, StopCondition};
use blox_core::metrics::RunStats;
use blox_core::profile::JobProfile;
use blox_core::snapshot::Snapshot;
use blox_core::state::JobState;
use blox_net::node::{spawn_node, NodeConfig};
use blox_net::sched::{
    read_checkpoint, serve_with, write_checkpoint, NetBackend, RecoveryOptions, SchedulerConfig,
};
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::Fifo;
use blox_runtime::runtime::RuntimeConfig;

mod common;
use common::watchdog;

/// A synthetic profile whose emulated jobs run exactly `total_iters`
/// simulated seconds on one GPU (no scaling effects, no restore cost).
fn quick_profile() -> JobProfile {
    let mut p = JobProfile::synthetic("emu", 1.0);
    p.iter_model.serial_frac = 1.0;
    p.iter_model.comm_frac = 0.0;
    p.restore_s = 0.0;
    p
}

/// The paper-shaped crash-recovery scenario, end to end with the real
/// compiled daemons: a checkpointing `bloxschedd` is SIGKILLed mid-run
/// and restarted with `--restore` on the same address; the surviving
/// `bloxnoded` processes reconnect, and every job must still finish —
/// exactly once (a double record would show up as `jobs=7`).
#[test]
fn killed_scheduler_restarts_from_checkpoint_and_finishes_all_jobs() {
    let _wd = watchdog(Duration::from_secs(240), "kill+restore test");
    let n_jobs = 6u32;
    let ckpt = std::env::temp_dir().join(format!(
        "blox-recovery-{}-{:?}.snap",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&ckpt);

    let spawn_schedd = |restore: bool| {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_bloxschedd"));
        cmd.args([
            "--nodes",
            "2",
            "--jobs",
            &n_jobs.to_string(),
            "--policy",
            "fifo",
            "--time-scale",
            "1e-4",
            "--checkpoint",
            ckpt.to_str().expect("utf-8 temp path"),
            "--checkpoint-every",
            "1",
        ]);
        if restore {
            cmd.args(["--restore", ckpt.to_str().expect("utf-8 temp path")]);
        }
        cmd
    };

    let mut schedd = spawn_schedd(false)
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
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

    // Two node daemons with the default reconnect behavior: they must
    // survive the scheduler crash and re-register with its successor.
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

    // 6 one-GPU jobs of ~20000 simulated seconds (~2 s of wall time each
    // at 1e-4; the unknown model name selects the ~1 s/iteration
    // synthetic profile): the kill below lands solidly mid-run.
    let submit = Command::new(env!("CARGO_BIN_EXE_blox-submit"))
        .args([
            "--sched",
            &addr,
            "--model",
            "emu-recovery",
            "--gpus",
            "1",
            "--iters",
            "20000",
            "--count",
            &n_jobs.to_string(),
        ])
        .output()
        .expect("run blox-submit");
    assert!(submit.status.success(), "submission must succeed");

    // Let rounds (and per-round checkpoints) accumulate, then crash.
    let deadline = Instant::now() + Duration::from_secs(30);
    while !ckpt.exists() {
        assert!(Instant::now() < deadline, "no checkpoint was ever written");
        std::thread::sleep(Duration::from_millis(20));
    }
    std::thread::sleep(Duration::from_millis(900));
    schedd.kill().expect("SIGKILL bloxschedd");
    let _ = schedd.wait();

    // Restart on the *same* address with --restore; the node daemons are
    // still reconnecting to it.
    let mut schedd2 = spawn_schedd(true)
        .args(["--bind", &addr])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("respawn bloxschedd");
    let mut stdout2 = BufReader::new(schedd2.stdout.take().expect("schedd2 stdout"));
    let mut listen2 = String::new();
    stdout2.read_line(&mut listen2).expect("LISTEN line 2");
    assert_eq!(listen2.trim(), format!("LISTEN {addr}"), "same address");

    let deadline = Instant::now() + Duration::from_secs(120);
    let status = loop {
        if let Some(status) = schedd2.try_wait().expect("try_wait schedd2") {
            break status;
        }
        assert!(
            Instant::now() < deadline,
            "restored bloxschedd did not terminate"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let mut rest = String::new();
    stdout2.read_to_string(&mut rest).expect("schedd2 output");
    for child in &mut noded {
        let _ = child.kill();
        let _ = child.wait();
    }
    let _ = std::fs::remove_file(&ckpt);
    let _ = std::fs::remove_file(ckpt.with_extension("tmp"));

    assert!(
        status.success(),
        "restored run exited with {status:?}: {rest}"
    );
    // Exactly six records: every job finished, none finished twice (a
    // concurrently double-run job would complete twice and read jobs=7).
    assert!(
        rest.contains(&format!("summary: jobs={n_jobs} ")),
        "expected a {n_jobs}-job summary, got: {rest}"
    );
}

/// Reconciliation semantics, asserted white-box: a scheduler restored
/// from a snapshot re-adopts re-registering workers under their old node
/// identities (no cluster growth, no dead orphans left behind), demotes
/// previously running jobs to suspended (one preemption charged), and
/// still finishes every job.
#[test]
fn restored_scheduler_readopts_workers_instead_of_growing_the_cluster() {
    let _wd = watchdog(Duration::from_secs(120), "re-adoption test");

    // A snapshot as the checkpointer would have written it mid-run: two
    // 4-GPU nodes, job 0 running on node 0, job 1 still queued.
    let mut cluster = ClusterState::new();
    cluster.add_nodes(&blox_core::cluster::NodeSpec::v100_p3_8xlarge(), 2);
    let mut running = Job::new(JobId(0), 4800.0, 1, 600.0, quick_profile());
    running.status = JobStatus::Running;
    running.completed_iters = 100.0;
    running.first_scheduled = Some(4900.0);
    running.placement = vec![cluster.free_gpus()[0]];
    cluster
        .allocate(JobId(0), &running.placement.clone(), 4.0)
        .expect("allocate");
    let queued = Job::new(JobId(1), 4950.0, 1, 600.0, quick_profile());
    let mut jobs = JobState::new();
    jobs.add_new_jobs(vec![running, queued]);
    let snapshot = Snapshot {
        now: 5000.0,
        next_job: 2,
        expected_jobs: Some(2),
        cluster,
        jobs,
        queue: Vec::new(),
        stats: RunStats::new(),
    };

    let backend = NetBackend::bind(SchedulerConfig {
        runtime: RuntimeConfig {
            time_scale: 1e-4,
            emu_iter_sim_s: 30.0,
        },
        ..SchedulerConfig::default()
    })
    .expect("bind ephemeral");
    let addr = backend.addr();
    let daemons: Vec<_> = (0..2)
        .map(|_| spawn_node(NodeConfig::new(addr, 4, false)))
        .collect();

    let report = serve_with(
        backend,
        RunConfig {
            round_duration: 300.0,
            max_rounds: 100_000,
            stop: StopCondition::TrackedWindowDone { lo: 0, hi: 1 },
            mode: ExecMode::FixedRounds,
        },
        2,
        Duration::from_secs(30),
        RecoveryOptions {
            checkpoint_path: None,
            checkpoint_every_rounds: 0,
            restore: Some(snapshot),
        },
        &mut AcceptAll::new(),
        &mut Fifo::new(),
        &mut ConsolidatedPlacement::preferred(),
    )
    .expect("restored run");
    for d in daemons {
        let _ = d.join();
    }

    assert_eq!(report.stats.records.len(), 2, "both jobs finish");
    assert_eq!(report.nodes_joined, 2);
    assert!(
        report.dead_nodes.is_empty(),
        "re-registration must re-adopt the orphaned nodes, not add new \
         ones (dead orphans left: {:?})",
        report.dead_nodes
    );
    let rec0 = report
        .stats
        .records
        .iter()
        .find(|r| r.id == JobId(0))
        .expect("job 0 record");
    assert!(
        rec0.preemptions >= 1,
        "the crash must be charged as a preemption on the running job"
    );
    // Completion times continue the snapshot's clock, not a fresh zero.
    assert!(
        rec0.completion > 5000.0,
        "restored clock must resume from the snapshot time, got {}",
        rec0.completion
    );
}

/// Checkpoint files round-trip through the atomic write/read helpers.
#[test]
fn checkpoint_files_roundtrip() {
    let path =
        std::env::temp_dir().join(format!("blox-ckpt-roundtrip-{}.snap", std::process::id()));
    let mut cluster = ClusterState::new();
    cluster.add_nodes(&blox_core::cluster::NodeSpec::v100_p3_8xlarge(), 1);
    let snap = Snapshot {
        now: 42.0,
        next_job: 7,
        expected_jobs: None,
        cluster,
        jobs: JobState::new(),
        queue: Vec::new(),
        stats: RunStats::new(),
    };
    write_checkpoint(&path, &snap).expect("write");
    let back = read_checkpoint(&path).expect("read");
    assert_eq!(back.encode(), snap.encode());
    assert!(
        !path.with_extension("tmp").exists(),
        "atomic write must leave no temp file behind"
    );
    let _ = std::fs::remove_file(&path);
}

/// `blox-submit` against a dead scheduler: non-zero exit plus a stderr
/// diagnostic, never a hang or a silent success.
#[test]
fn blox_submit_exits_nonzero_when_scheduler_unreachable() {
    let _wd = watchdog(Duration::from_secs(60), "blox-submit failure test");
    // An ephemeral port that was bound and immediately released: nothing
    // is listening there.
    let dead_addr = {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").expect("bind probe");
        listener.local_addr().expect("probe addr").to_string()
    };
    let output = Command::new(env!("CARGO_BIN_EXE_blox-submit"))
        .args(["--sched", &dead_addr, "--count", "1"])
        .output()
        .expect("run blox-submit");
    assert!(
        !output.status.success(),
        "submission to a dead scheduler must fail"
    );
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        stderr.contains("blox-submit: error:"),
        "stderr must carry a diagnostic, got: {stderr}"
    );
}
