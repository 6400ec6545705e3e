//! The two simulator workloads: a Philly trace run to completion on a
//! small cluster (`sim_philly_512`) and a never-finishing 4-GPU burst on
//! a 32k-GPU cluster (`sim_burst_32k`).

use std::path::Path;
use std::time::Instant;

use blox_core::cluster::ClusterState;
use blox_core::ids::JobId;
use blox_core::job::Job;
use blox_core::manager::{
    Backend, BloxManager, ExecMode, PlacementOutcome, RunConfig, StopCondition,
};
use blox_core::metrics::RunStats;
use blox_core::policy::Placement;
use blox_core::state::JobState;
use blox_core::{JobStatus, StateDelta};
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::Tiresias;
use blox_sim::{cluster_of_v100, SimBackend};
use blox_workloads::{ModelZoo, PhillyTraceGen};

use crate::layers;
use crate::report::{metric, peak_rss_mb, Checks, Outcome};
use crate::stats::{median, percentile};
use crate::trace::{self, Traced};

const PHILLY_NODES: u32 = 128;
const PHILLY_JOBS: usize = 5_000;
const PHILLY_JOBS_PER_HOUR: f64 = 32.0;

const BURST_NODES: u32 = 8_000;
const BURST_JOBS: u64 = 100_000;
/// Executed rounds per burst pass. The first ~40 rounds cycle through
/// Tiresias demotions (a heavy and a medium round in every three); with
/// 200 rounds the p90 falls inside the medium rounds rather than on the
/// edge between the classes, and has 20 samples beyond it.
const BURST_ROUNDS: u64 = 200;
/// Far more iterations than the run can execute: burst jobs never finish.
const BURST_ITERS: f64 = 1e15;

/// Setups measured on top of the one each pass needs, so `setup_s` is a
/// median even when few passes fit in the run.
const EXTRA_SETUPS: usize = 10;

/// The seed whose result digests are committed in `golden.txt`.
const GOLDEN_SEED: u64 = 1;
const GOLDEN: &str = include_str!("../golden.txt");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Sim {
    Philly,
    Burst,
}

struct Inputs {
    jobs: Vec<Job>,
    cluster: ClusterState,
    gen_ms: f64,
}

impl Sim {
    pub fn name(self) -> &'static str {
        match self {
            Sim::Philly => "sim_philly_512",
            Sim::Burst => "sim_burst_32k",
        }
    }

    /// Generate the jobs and build the cluster, timed as `setup_s`.
    fn setup(self, seed: u64) -> (Inputs, f64) {
        let start = Instant::now();
        let zoo = ModelZoo::standard();
        let jobs = match self {
            Sim::Philly => {
                PhillyTraceGen::new(&zoo, PHILLY_JOBS_PER_HOUR)
                    .generate(PHILLY_JOBS, seed)
                    .jobs
            }
            Sim::Burst => {
                let mut rng = SplitMix64(seed);
                (0..BURST_JOBS)
                    .map(|i| {
                        let model = rng.next() as usize % zoo.len();
                        Job::new(JobId(i), 0.0, 4, BURST_ITERS, zoo.profile(model).clone())
                    })
                    .collect()
            }
        };
        let gen_ms = start.elapsed().as_secs_f64() * 1e3;
        let cluster = cluster_of_v100(match self {
            Sim::Philly => PHILLY_NODES,
            Sim::Burst => BURST_NODES,
        });
        let setup_s = start.elapsed().as_secs_f64();
        (
            Inputs {
                jobs,
                cluster,
                gen_ms,
            },
            setup_s,
        )
    }

    fn config(self) -> RunConfig {
        match self {
            Sim::Philly => RunConfig {
                round_duration: 300.0,
                mode: ExecMode::EventDriven,
                stop: StopCondition::AllJobsDone,
                ..RunConfig::default()
            },
            Sim::Burst => RunConfig {
                round_duration: 300.0,
                max_rounds: BURST_ROUNDS,
                mode: ExecMode::FixedRounds,
                stop: StopCondition::AllJobsDone,
            },
        }
    }
}

/// Deterministic 64-bit generator for the burst's model mix.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Pass-through backend that stamps round boundaries: a round opens at
/// `update_cluster` (the first backend call of `step`) and closes when
/// the `advance_round` that ends that step returns. An event-driven skip
/// also calls `advance_round`, but with no round open.
struct StepClock<B> {
    inner: B,
    open: Option<Instant>,
    steps_ms: Vec<f64>,
}

impl<B: Backend> Backend for StepClock<B> {
    fn now(&self) -> f64 {
        self.inner.now()
    }

    fn update_cluster(&mut self, cluster: &mut ClusterState) {
        self.open = Some(Instant::now());
        self.inner.update_cluster(cluster);
    }

    fn pop_wait_queue(&mut self, now: f64) -> Vec<Job> {
        self.inner.pop_wait_queue(now)
    }

    fn peek_next_arrival(&self) -> Option<(JobId, f64)> {
        self.inner.peek_next_arrival()
    }

    fn update_metrics(&mut self, cluster: &mut ClusterState, jobs: &mut JobState, elapsed: f64) {
        self.inner.update_metrics(cluster, jobs, elapsed);
    }

    fn observe_delta(&mut self, delta: &StateDelta) {
        self.inner.observe_delta(delta);
    }

    fn exec_jobs(
        &mut self,
        placement: &Placement,
        cluster: &mut ClusterState,
        jobs: &mut JobState,
    ) -> PlacementOutcome {
        self.inner.exec_jobs(placement, cluster, jobs)
    }

    fn advance_round(&mut self, round_duration: f64) {
        self.inner.advance_round(round_duration);
        if let Some(start) = self.open.take() {
            self.steps_ms.push(start.elapsed().as_secs_f64() * 1e3);
        }
    }

    fn next_event_hint(&self, cluster: &ClusterState, jobs: &JobState) -> Option<f64> {
        self.inner.next_event_hint(cluster, jobs)
    }
}

/// One run of the workload from fresh inputs.
struct Pass {
    run_s: f64,
    steps_ms: Vec<f64>,
    digest: String,
}

/// Result fingerprint: the run's `Summary` figures plus totals
/// that also pin down never-finishing runs.
fn digest(stats: &RunStats, jobs: &JobState) -> String {
    let s = stats.summary();
    let preemptions: u64 = stats
        .records
        .iter()
        .map(|r| u64::from(r.preemptions))
        .chain(jobs.active().map(|j| u64::from(j.preemptions)))
        .sum();
    let service: f64 = stats
        .records
        .iter()
        .map(|r| r.attained_service)
        .chain(jobs.active().map(|j| j.attained_service))
        .sum();
    format!(
        "jobs={} avg_jct={:.6} makespan={:.6} rounds={} skipped={} util={:.9} preemptions={} service={:.3}",
        s.jobs,
        s.avg_jct,
        s.makespan,
        stats.rounds,
        stats.skipped_rounds,
        stats.mean_utilization(),
        preemptions,
        service
    )
}

fn golden(workload: &str, seed: u64) -> Option<&'static str> {
    GOLDEN.lines().find_map(|line| {
        let mut parts = line.splitn(3, ' ');
        let (w, s, d) = (parts.next()?, parts.next()?, parts.next()?);
        (w == workload && s.parse::<u64>().ok()? == seed).then_some(d)
    })
}

/// Output checks on a finished run: every input job is accounted for
/// exactly once (one `JobRecord` if it finished, else still active), and
/// the shared state's indexes agree with a from-scratch derivation.
fn verify(
    ids: &[JobId],
    stats: &RunStats,
    cluster: &ClusterState,
    jobs: &JobState,
    checks: &mut Checks,
) {
    let mut seen: Vec<JobId> = stats
        .records
        .iter()
        .map(|r| r.id)
        .chain(jobs.active().map(|j| j.id))
        .collect();
    seen.sort_unstable();
    let mut want = ids.to_vec();
    want.sort_unstable();
    checks.check(seen == want, || {
        format!(
            "{} of {} jobs accounted for (finished + active), with duplicates or gaps",
            seen.len(),
            want.len()
        )
    });
    let finished_ok = stats.records.iter().all(|r| r.completion >= r.arrival)
        && jobs.active().all(|j| j.status != JobStatus::Completed);
    checks.check(finished_ok, || "a job record ends before it arrives".into());
    checks.result(
        cluster
            .check_invariants()
            .map_err(|e| format!("cluster invariants: {e}")),
    );
    checks.result(
        jobs.check_invariants()
            .map_err(|e| format!("job-state invariants: {e}")),
    );
}

fn untraced(sim: Sim, inputs: Inputs, checks: &mut Checks) -> Pass {
    let ids: Vec<JobId> = inputs.jobs.iter().map(|j| j.id).collect();
    let backend = StepClock {
        inner: SimBackend::from_jobs(inputs.jobs),
        open: None,
        steps_ms: Vec::new(),
    };
    let mut mgr = BloxManager::new(backend, inputs.cluster, sim.config());
    let start = Instant::now();
    let stats = mgr.run(
        &mut AcceptAll::new(),
        &mut Tiresias::new(),
        &mut ConsolidatedPlacement::preferred(),
    );
    let run_s = start.elapsed().as_secs_f64();
    verify(&ids, &stats, mgr.cluster(), mgr.jobs(), checks);
    Pass {
        run_s,
        steps_ms: std::mem::take(&mut mgr.backend_mut().steps_ms),
        digest: digest(&stats, mgr.jobs()),
    }
}

/// The traced replay of one pass: its wall time, digest, spans and stats.
fn traced(
    sim: Sim,
    inputs: Inputs,
    checks: &mut Checks,
) -> (f64, String, Vec<trace::Span>, RunStats) {
    let ids: Vec<JobId> = inputs.jobs.iter().map(|j| j.id).collect();
    let mut mgr = BloxManager::new(
        Traced(SimBackend::from_jobs(inputs.jobs)),
        inputs.cluster,
        sim.config(),
    );
    trace::take();
    let start = Instant::now();
    let stats = layers::replay(
        &mut mgr,
        &mut Traced(AcceptAll::new()),
        &mut Traced(Tiresias::new()),
        &mut Traced(ConsolidatedPlacement::preferred()),
    );
    let run_s = start.elapsed().as_secs_f64();
    let spans = trace::take();
    verify(&ids, &stats, mgr.cluster(), mgr.jobs(), checks);
    (run_s, digest(&stats, mgr.jobs()), spans, stats)
}

fn check_golden(sim: Sim, seed: u64, digest: &str, checks: &mut Checks) {
    if seed != GOLDEN_SEED {
        return;
    }
    let want = golden(sim.name(), seed);
    checks.check(want == Some(digest), || {
        format!(
            "digest for seed {seed} is `{digest}`, committed `{}`",
            want.unwrap_or("<none>")
        )
    });
}

pub fn run(sim: Sim, seed: u64, seconds: f64, traced_run: bool, out_dir: &Path) -> Outcome {
    if traced_run {
        run_traced(sim, seed, out_dir)
    } else {
        run_untraced(sim, seed, seconds)
    }
}

/// One untraced pass, then its traced replay: per-layer metrics.
fn run_traced(sim: Sim, seed: u64, out_dir: &Path) -> Outcome {
    let mut o = Outcome::default();
    let plain = untraced(sim, sim.setup(seed).0, &mut o.checks);
    let (inputs, _) = sim.setup(seed);
    let gen_ms = inputs.gen_ms;
    let (run_s, digest, spans, stats) = traced(sim, inputs, &mut o.checks);
    check_golden(sim, seed, &plain.digest, &mut o.checks);
    o.checks.check(digest == plain.digest, || {
        format!("traced digest `{digest}` != untraced `{}`", plain.digest)
    });
    o.checks.result(trace::check_nesting(&spans));
    let path = out_dir.join(format!("trace_{}.jsonl", sim.name()));
    o.checks.result(
        trace::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display())),
    );
    let overhead_s = run_s - layers::probe_s(&spans) - plain.run_s;
    o.metrics = layers::per_layer(&spans, &stats, gen_ms, overhead_s);
    if sim.config().mode == ExecMode::EventDriven {
        o.extra = layers::dry_calls(&spans);
    }
    o.notes.push(format!(
        "traced run_s {run_s:.4} s vs untraced {:.4} s; {} spans written to {}",
        plain.run_s,
        spans.len(),
        path.display()
    ));
    o
}

/// Whole passes over the same inputs while another one fits in
/// `seconds`: end-to-end metrics.
fn run_untraced(sim: Sim, seed: u64, seconds: f64) -> Outcome {
    let mut o = Outcome::default();
    let mut setups = Vec::new();
    let start = Instant::now();
    let mut passes: Vec<Pass> = Vec::new();
    loop {
        let (inputs, setup_s) = sim.setup(seed);
        setups.push(setup_s);
        passes.push(untraced(sim, inputs, &mut o.checks));
        let per_pass = start.elapsed().as_secs_f64() / passes.len() as f64;
        if start.elapsed().as_secs_f64() + per_pass > seconds {
            break;
        }
    }
    for _ in 0..EXTRA_SETUPS {
        setups.push(sim.setup(seed).1);
    }
    check_golden(sim, seed, &passes[0].digest, &mut o.checks);
    o.checks
        .check(passes.iter().all(|p| p.digest == passes[0].digest), || {
            "passes over the same inputs disagree".into()
        });

    let mut steps: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.steps_ms.iter().copied())
        .collect();
    let mut run_s: Vec<f64> = passes.iter().map(|p| p.run_s).collect();
    let p50 = percentile(&mut steps, 0.5);
    let p90 = percentile(&mut steps, 0.9);
    o.metrics = vec![
        metric("setup_s", "s", median(&mut setups)),
        metric("run_s", "s", median(&mut run_s)),
        metric("latency_p50_ms", "ms", p50),
        metric("latency_tail_ms", "ms", p90),
        metric("peak_rss_mb", "MB", peak_rss_mb()),
    ];
    o.notes.push(format!(
        "round_p50_ms {p50:.4} ms, round_p90_ms {p90:.4} ms over n={} executed steps in {} passes \
         (latency_p50_ms / latency_tail_ms)",
        steps.len(),
        passes.len()
    ));
    o.notes.push(format!("digest {}", passes[0].digest));
    o
}
