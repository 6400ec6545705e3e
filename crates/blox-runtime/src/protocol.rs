//! The scheduler's half of the worker protocol (§6.3): launch RPCs, lease
//! revocation with the two-phase exit, and status application.
//!
//! Written once for every deployment. The in-process [`RuntimeBackend`]
//! and `blox-net`'s networked backend differ only in the [`WorkerLink`]
//! they hand to [`exec_jobs`]: channel endpoints or event-loop sockets.
//!
//! **Rank 0** of a job is the lowest node id of its placement
//! (`nodes_of(placement)[0]`), whatever order the placement lists its
//! GPUs in. `Revoke` goes to that node, its `Launch` carries
//! `is_rank0`, and its `ExitAt` decision is forwarded to every other
//! node of the placement.
//!
//! [`RuntimeBackend`]: crate::runtime::RuntimeBackend

use std::time::{Duration, Instant};

use blox_core::cluster::ClusterState;
use blox_core::error::Result;
use blox_core::ids::{JobId, NodeId};
use blox_core::job::{Job, JobStatus};
use blox_core::manager::{apply_placement, PlacementOutcome};
use blox_core::policy::Placement;
use blox_core::state::JobState;

use crate::wire::Message;

/// Wall-clock budget for a revoked job's `JobSuspended` ack. A job whose
/// ack misses it is suspended from its last reported progress.
const SUSPEND_ACK_BUDGET: Duration = Duration::from_secs(5);

/// Longest single wait on the link while awaiting a suspension ack.
const STATUS_POLL: Duration = Duration::from_millis(20);

/// The scheduler's end of its links to the worker managers.
///
/// This is the only part of the protocol a deployment supplies: the
/// in-process cluster implements it over channels and `blox-net` over its
/// event loop. Both methods take the shared cluster so a link can apply
/// what it learns on the way, such as a dead-node verdict.
pub trait WorkerLink {
    /// Send one command to `node`'s worker manager. Best effort: a
    /// command to a node without a live link is dropped.
    fn send_to(&mut self, node: NodeId, msg: &Message, cluster: &mut ClusterState);

    /// The next worker status message, waiting at most `timeout`.
    /// `Ok(None)` means none arrived; `Err` means none ever will.
    fn next_status(
        &mut self,
        timeout: Duration,
        cluster: &mut ClusterState,
    ) -> Result<Option<Message>>;
}

/// Placement-adjusted per-iteration time for a job under its current
/// placement — the performance-model entry point shared by every
/// deployment backend (in-process and `blox-net`), mirroring the
/// simulator's model so fidelity differences come from mechanism, not
/// model.
pub fn placement_iter_time(job: &Job, cluster: &ClusterState) -> f64 {
    let n = job.placement.len() as u32;
    let consolidated = cluster.is_consolidated(&job.placement);
    let inter_bw = cluster.alloc_inter_bw(&job.placement);
    let gpu_type = job
        .placement
        .first()
        .and_then(|g| cluster.gpu(*g))
        .map(|r| r.gpu_type)
        .unwrap_or(blox_core::cluster::GpuType::V100);
    job.profile
        .iter_model
        .iter_time(n, gpu_type, consolidated, inter_bw)
}

/// Apply one worker-originated job-status message (progress, metric push,
/// completion, suspension checkpoint) to the shared scheduler state.
///
/// Shared by every deployment backend so they interpret worker traffic
/// identically. Command-direction and control-plane messages are ignored.
pub fn apply_status_message(msg: Message, cluster: &mut ClusterState, jobs: &mut JobState) {
    match msg {
        Message::Progress { job, iters } => {
            if let Some(j) = jobs.get_mut(job) {
                if j.status == JobStatus::Running {
                    j.completed_iters = iters.min(j.total_iters);
                }
            }
        }
        Message::PushMetric { job, key, value } => {
            if let Some(j) = jobs.get_mut(job) {
                j.push_metric(&key, value);
            }
        }
        Message::JobDone { job, sim_time }
            if jobs
                .get(job)
                .is_some_and(|j| j.status == JobStatus::Running) =>
        {
            let j = jobs.get_mut(job).expect("job verified present above");
            j.completed_iters = j.total_iters;
            j.completion_time = Some(sim_time);
            j.placement.clear();
            jobs.set_status(job, JobStatus::Completed)
                .expect("job verified present above");
            cluster.release(job);
        }
        Message::JobSuspended { job, iters } => {
            if let Some(j) = jobs.get_mut(job) {
                j.completed_iters = iters.min(j.total_iters);
            }
        }
        _ => {}
    }
}

/// Execute one round's placement over `link` at simulated time `now`:
/// revoke each job to suspend at rank 0 and await its checkpoint, apply
/// the shared-state transitions exactly as the simulator does, then send
/// one `Launch` per node hosting a launched job's shard.
pub fn exec_jobs(
    link: &mut dyn WorkerLink,
    placement: &Placement,
    cluster: &mut ClusterState,
    jobs: &mut JobState,
    now: f64,
) -> PlacementOutcome {
    for id in &placement.to_suspend {
        let Some(job) = jobs.get(*id) else { continue };
        if job.status != JobStatus::Running {
            continue;
        }
        let Some(&rank0) = cluster.nodes_of(&job.placement).first() else {
            continue;
        };
        link.send_to(rank0, &Message::Revoke { job: *id }, cluster);
        await_suspension(link, *id, cluster, jobs);
    }

    // A job may have completed while we awaited an ack: drop its launch.
    let filtered = Placement {
        to_suspend: placement.to_suspend.clone(),
        to_launch: placement
            .to_launch
            .iter()
            .filter(|(id, _)| {
                jobs.get(*id)
                    .is_some_and(|j| j.status != JobStatus::Completed)
            })
            .cloned()
            .collect(),
    };
    let outcome = apply_placement(&filtered, cluster, jobs, now);
    debug_assert!(
        outcome.is_clean(),
        "placement conflict: {:?}",
        outcome.skipped
    );

    for (id, gpus) in &filtered.to_launch {
        let Some(job) = jobs.get(*id) else { continue };
        let iter_time_s = placement_iter_time(job, cluster);
        for (rank, node) in cluster.nodes_of(gpus).into_iter().enumerate() {
            let local_gpus = gpus
                .iter()
                .filter_map(|g| cluster.gpu(*g))
                .filter(|r| r.node == node)
                .map(|r| r.local)
                .collect();
            let launch = Message::Launch {
                job: *id,
                local_gpus,
                iter_time_s,
                start_iters: job.completed_iters,
                total_iters: job.total_iters,
                warmup_s: job.profile.restore_s,
                is_rank0: rank == 0,
            };
            link.send_to(node, &launch, cluster);
        }
    }
    outcome
}

/// Wait (bounded by [`SUSPEND_ACK_BUDGET`]) for `job`'s suspension ack,
/// applying other status traffic as it arrives and forwarding rank 0's
/// `ExitAt` decisions to the peer shards (phase 2 of the exit).
fn await_suspension(
    link: &mut dyn WorkerLink,
    job: JobId,
    cluster: &mut ClusterState,
    jobs: &mut JobState,
) {
    let deadline = Instant::now() + SUSPEND_ACK_BUDGET;
    while Instant::now() < deadline {
        match link.next_status(STATUS_POLL, cluster) {
            Ok(Some(Message::ExitAt { job: j, exit_iter })) => {
                let nodes = jobs
                    .get(j)
                    .map(|jr| cluster.nodes_of(&jr.placement))
                    .unwrap_or_default();
                for node in nodes.into_iter().skip(1) {
                    link.send_to(node, &Message::ExitAt { job: j, exit_iter }, cluster);
                }
            }
            Ok(Some(msg)) => {
                let acked = matches!(msg, Message::JobSuspended { job: j, .. } if j == job);
                apply_status_message(msg, cluster, jobs);
                if acked {
                    return;
                }
            }
            Ok(None) => {}
            Err(_) => return,
        }
    }
}

/// Accrue `elapsed` simulated seconds of attained service (GPU-seconds)
/// and running time to every running job. Round granularity, like the
/// simulator; index-driven over the running set, not every active job.
pub fn accrue_service(jobs: &mut JobState, elapsed: f64) {
    if elapsed <= 0.0 {
        return;
    }
    let running: Vec<JobId> = jobs.running_ids().iter().copied().collect();
    for id in running {
        let job = jobs.get_mut(id).expect("running jobs are active");
        job.attained_service += job.placement.len() as f64 * elapsed;
        job.running_time += elapsed;
    }
}
