//! `bloxschedd` — the central scheduler daemon of the networked
//! deployment. Binds a loopback TCP port (ephemeral by default), waits for
//! node managers to register, schedules live-submitted jobs with a real
//! policy, and prints the run summary on exit.
//!
//! ```text
//! bloxschedd [--bind 127.0.0.1:0] [--nodes 1] [--jobs N | --time-limit SIM_S]
//!            [--policy tiresias|las|fifo] [--round 300] [--time-scale 1e-4]
//!            [--stall-rounds 10] [--poller auto|epoll|poll] [--backlog 1024]
//!            [--checkpoint PATH] [--checkpoint-every ROUNDS] [--restore PATH]
//! ```
//!
//! The first stdout line is `LISTEN <addr>` so scripts (and the
//! integration tests) can discover the chosen ephemeral port.
//!
//! Crash recovery: `--checkpoint PATH` snapshots the full scheduler state
//! every `--checkpoint-every` rounds (atomic rename, so a crash mid-write
//! never corrupts the file); `--restore PATH` resumes a run from such a
//! snapshot — typically on the *same* `--bind` address, so the surviving
//! `bloxnoded` daemons reconnect and re-adopt their old node identities.
//! When an explicit port is still in `TIME_WAIT` from the crashed
//! process, binding is retried for a few seconds.

use std::io::Write;
use std::time::{Duration, Instant};

use blox_core::manager::{ExecMode, RunConfig, StopCondition};
use blox_core::policy::SchedulingPolicy;
use blox_net::sched::{read_checkpoint, serve_with, NetBackend, RecoveryOptions, SchedulerConfig};
use blox_net::PollerKind;
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::{Fifo, Las, Tiresias};
use blox_runtime::runtime::RuntimeConfig;

struct Args {
    bind: String,
    nodes: u32,
    jobs: u64,
    time_limit: f64,
    policy: String,
    round: f64,
    time_scale: f64,
    stall_rounds: u32,
    poller: PollerKind,
    backlog: i32,
    checkpoint: Option<String>,
    checkpoint_every: u64,
    restore: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        bind: "127.0.0.1:0".to_string(),
        nodes: 1,
        jobs: 0,
        time_limit: 0.0,
        policy: "tiresias".to_string(),
        round: 300.0,
        time_scale: 1e-4,
        stall_rounds: 10,
        poller: PollerKind::Auto,
        backlog: 1024,
        checkpoint: None,
        checkpoint_every: 5,
        restore: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {name}"))
        };
        match flag.as_str() {
            "--bind" => args.bind = val("--bind"),
            "--nodes" => args.nodes = val("--nodes").parse().expect("--nodes u32"),
            "--jobs" => args.jobs = val("--jobs").parse().expect("--jobs u64"),
            "--time-limit" => {
                args.time_limit = val("--time-limit").parse().expect("--time-limit f64")
            }
            "--policy" => args.policy = val("--policy"),
            "--round" => args.round = val("--round").parse().expect("--round f64"),
            "--time-scale" => {
                args.time_scale = val("--time-scale").parse().expect("--time-scale f64")
            }
            "--stall-rounds" => {
                args.stall_rounds = val("--stall-rounds").parse().expect("--stall-rounds u32")
            }
            "--poller" => args.poller = val("--poller").parse().expect("--poller auto|epoll|poll"),
            "--backlog" => args.backlog = val("--backlog").parse().expect("--backlog i32"),
            "--checkpoint" => args.checkpoint = Some(val("--checkpoint")),
            "--checkpoint-every" => {
                args.checkpoint_every = val("--checkpoint-every")
                    .parse()
                    .expect("--checkpoint-every u64")
            }
            "--restore" => args.restore = Some(val("--restore")),
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn scheduling_policy(name: &str) -> Box<dyn SchedulingPolicy> {
    match name {
        "fifo" => Box::new(Fifo::new()),
        "las" => Box::new(Las::new()),
        "tiresias" => Box::new(Tiresias::new()),
        other => panic!("unknown policy {other} (expected tiresias|las|fifo)"),
    }
}

/// Bind, retrying `AddrInUse` briefly: a restarted scheduler reclaiming
/// its crashed predecessor's explicit port may race the kernel's
/// `TIME_WAIT` cleanup of the old connections.
fn bind_with_retry(bind: &str, cfg: &SchedulerConfig) -> NetBackend {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match NetBackend::bind_to(bind, cfg.clone()) {
            Ok(backend) => return backend,
            // Retry only the transient TIME_WAIT race; permanent failures
            // (bad address, permission denied) fail immediately.
            Err(e) if e.to_string().contains("in use") && Instant::now() < deadline => {
                eprintln!("bloxschedd: bind {bind} failed ({e}); retrying");
                std::thread::sleep(Duration::from_millis(250));
            }
            Err(e) => panic!("bind scheduler on {bind}: {e}"),
        }
    }
}

fn main() {
    let args = parse_args();
    let stop = if args.jobs > 0 {
        StopCondition::TrackedWindowDone {
            lo: 0,
            hi: args.jobs - 1,
        }
    } else if args.time_limit > 0.0 {
        StopCondition::TimeLimit(args.time_limit)
    } else {
        panic!("pass --jobs N or --time-limit SIM_S so the daemon can terminate");
    };

    let restore = args.restore.as_ref().map(|path| {
        read_checkpoint(std::path::Path::new(path))
            .unwrap_or_else(|e| panic!("--restore {path}: {e}"))
    });

    let cfg = SchedulerConfig {
        runtime: RuntimeConfig {
            time_scale: args.time_scale,
            emu_iter_sim_s: 30.0,
        },
        stall_rounds: args.stall_rounds,
        poller: args.poller,
        listen_backlog: args.backlog,
        ..SchedulerConfig::default()
    };
    let backend = bind_with_retry(&args.bind, &cfg);
    println!("LISTEN {}", backend.addr());
    std::io::stdout().flush().expect("flush LISTEN line");

    let report = serve_with(
        backend,
        RunConfig {
            round_duration: args.round,
            max_rounds: 1_000_000,
            stop,
            mode: ExecMode::FixedRounds,
        },
        args.nodes,
        Duration::from_secs(60),
        RecoveryOptions {
            checkpoint_path: args.checkpoint.map(std::path::PathBuf::from),
            checkpoint_every_rounds: args.checkpoint_every,
            restore,
        },
        &mut AcceptAll::new(),
        scheduling_policy(&args.policy).as_mut(),
        &mut ConsolidatedPlacement::preferred(),
    )
    .expect("scheduler run");

    let s = report.stats.summary();
    println!(
        "summary: jobs={} avg_jct={:.0} p50_jct={:.0} nodes_joined={} failures={} stalls={}",
        s.jobs,
        s.avg_jct,
        s.p50_jct,
        report.nodes_joined,
        report.failures_detected,
        report.stalls_detected
    );
}
