//! `blox-submit`: inject jobs into a live scheduler's wait queue over the
//! wire, enabling open-loop online traffic instead of pre-loaded traces.
//! Each call opens one [`EvTransport`] on the process-wide event loop.

use std::net::SocketAddr;
use std::time::Duration;

use blox_core::error::{BloxError, Result};
use blox_core::ids::JobId;
use blox_runtime::runtime::SimClock;
use blox_runtime::wire::{Message, Transport};

use crate::event_loop::{global_pool, EvTransport};

/// One job submission request.
#[derive(Debug, Clone)]
pub struct JobRequest {
    /// GPUs requested.
    pub gpus: u32,
    /// Total work in iterations.
    pub total_iters: f64,
    /// Model-zoo profile name (unknown names get a synthetic profile).
    pub model: String,
}

fn submit_one(link: &EvTransport, req: &JobRequest) -> Result<JobId> {
    link.send(&Message::SubmitJob {
        gpus: req.gpus,
        total_iters: req.total_iters,
        model: req.model.clone(),
    })?;
    match link.recv_timeout(Duration::from_secs(10))? {
        Some(Message::JobAccepted { job }) => Ok(job),
        Some(other) => Err(BloxError::Transport(format!(
            "expected JobAccepted, got {other:?}"
        ))),
        None => Err(BloxError::Transport("no JobAccepted within 10 s".into())),
    }
}

/// Submit a batch of jobs immediately; returns the assigned ids in order.
pub fn submit(sched: SocketAddr, requests: &[JobRequest]) -> Result<Vec<JobId>> {
    let link = EvTransport::connect(sched, global_pool())?;
    requests.iter().map(|r| submit_one(&link, r)).collect()
}

/// Submit `count` copies of one request open-loop at `rate` jobs per
/// wall second over a single connection, using the load generator's
/// [`Pacer`](crate::loadgen::Pacer) so small scripted bursts pace
/// exactly like `blox-loadgen` traffic. Acknowledgements are drained
/// concurrently (never awaited before the next send) and collected at
/// the end with a bounded grace period; returns the accepted ids.
pub fn submit_paced(
    sched: SocketAddr,
    req: &JobRequest,
    count: u64,
    rate: f64,
) -> Result<Vec<JobId>> {
    let link = EvTransport::connect(sched, global_pool())?;
    let msg = Message::SubmitJob {
        gpus: req.gpus,
        total_iters: req.total_iters,
        model: req.model.clone(),
    };
    let mut pacer = crate::loadgen::Pacer::new(rate);
    let mut ids = Vec::with_capacity(count as usize);
    let mut sent = 0u64;
    while sent < count {
        let due = pacer.due_now().min(count - sent);
        for _ in 0..due {
            link.send(&msg)?;
            sent += 1;
        }
        while let Some(reply) = link.try_recv()? {
            if let Message::JobAccepted { job } = reply {
                ids.push(job);
            }
        }
        if due == 0 {
            std::thread::sleep(pacer.next_due_in().min(Duration::from_millis(1)));
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while (ids.len() as u64) < count && std::time::Instant::now() < deadline {
        if let Some(Message::JobAccepted { job }) = link.recv_timeout(Duration::from_millis(100))? {
            ids.push(job);
        }
    }
    if (ids.len() as u64) < count {
        return Err(BloxError::Transport(format!(
            "only {}/{count} submissions acknowledged within 10 s",
            ids.len()
        )));
    }
    Ok(ids)
}

/// Replay a `(arrival_sim_s, request)` timeline open-loop: sleep to each
/// arrival on a local clock running at `time_scale` wall seconds per
/// simulated second, then submit. The timeline must be arrival-sorted.
pub fn submit_timed(
    sched: SocketAddr,
    timeline: &[(f64, JobRequest)],
    time_scale: f64,
) -> Result<Vec<JobId>> {
    let link = EvTransport::connect(sched, global_pool())?;
    let clock = SimClock::new(time_scale);
    let mut ids = Vec::with_capacity(timeline.len());
    for (arrival, req) in timeline {
        clock.sleep_until(*arrival);
        ids.push(submit_one(&link, req)?);
    }
    Ok(ids)
}
