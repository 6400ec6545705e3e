//! Lease-based preemption (paper §7).
//!
//! Round-based DL schedulers preempt by *lease*: a job may run while its
//! lease is valid. Two designs are implemented and compared in Figure 19:
//!
//! * **Centralized renewal** — every job round-trips to the central
//!   scheduler each round to ask whether its lease extends. Latency grows
//!   with cluster size because the scheduler serializes the checks.
//! * **Optimistic renewal** (Blox's design) — leases auto-renew; the
//!   scheduler *revokes* through the job's local `WorkerManager`, so the
//!   per-iteration check is a local lookup and costs O(1) regardless of
//!   cluster size.
//!
//! For distributed jobs, revocation uses a **two-phase exit**: the
//! scheduler revokes at rank 0 only; rank 0 picks `exit_iter = i + 1` and
//! propagates it to the other shards, so every shard stops at the same
//! iteration boundary and the checkpoint is consistent (no deadlock from
//! revocations landing at different times).

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use blox_core::ids::JobId;
use parking_lot::RwLock;

use crate::wire::{Endpoint, Message};

/// Per-job lease state held by a worker manager.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LeaseState {
    /// The job may keep running.
    Valid,
    /// The job must stop at (the end of) the given iteration.
    ExitAt(u64),
}

/// The worker-local lease store the client library consults.
///
/// Shared between the worker manager thread (writer) and the emulated
/// training jobs (readers); reads are lock-free in the common case via
/// `RwLock` read guards.
#[derive(Debug, Default)]
pub struct LeaseTable {
    leases: RwLock<BTreeMap<JobId, LeaseState>>,
}

impl LeaseTable {
    /// Empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grant (or re-grant) a lease at launch.
    pub fn grant(&self, job: JobId) {
        self.leases.write().insert(job, LeaseState::Valid);
    }

    /// Revoke: the job must exit after `exit_iter`.
    pub fn revoke_at(&self, job: JobId, exit_iter: u64) {
        self.leases
            .write()
            .insert(job, LeaseState::ExitAt(exit_iter));
    }

    /// Drop a finished job's lease.
    pub fn remove(&self, job: JobId) {
        self.leases.write().remove(&job);
    }

    /// The optimistic per-iteration check: may `job` start iteration
    /// `iter`? O(1), local.
    pub fn may_run(&self, job: JobId, iter: u64) -> bool {
        match self.leases.read().get(&job) {
            Some(LeaseState::Valid) => true,
            Some(LeaseState::ExitAt(limit)) => iter <= *limit,
            None => false,
        }
    }

    /// Current state, if any.
    pub fn state(&self, job: JobId) -> Option<LeaseState> {
        self.leases.read().get(&job).copied()
    }
}

/// Two-phase exit coordinator for distributed jobs.
///
/// Phase 1: the revocation reaches rank 0, which fixes
/// `exit_iter = current + 1`. Phase 2: rank 0 propagates `exit_iter` to
/// every shard's lease table *before* starting iteration `current + 1`;
/// all shards then exit together at the end of `exit_iter`.
#[derive(Debug)]
pub struct TwoPhaseExit {
    shards: Vec<Arc<LeaseTable>>,
}

impl TwoPhaseExit {
    /// Coordinator over the lease tables of every worker hosting a shard.
    pub fn new(shards: Vec<Arc<LeaseTable>>) -> Self {
        TwoPhaseExit { shards }
    }

    /// Execute both phases for `job`, whose rank 0 is at iteration
    /// `current_iter`. Returns the agreed exit iteration.
    pub fn revoke(&self, job: JobId, current_iter: u64) -> u64 {
        let exit_iter = current_iter + 1;
        for table in &self.shards {
            table.revoke_at(job, exit_iter);
        }
        exit_iter
    }

    /// True once every shard has the exit decision recorded.
    pub fn is_consistent(&self, job: JobId) -> bool {
        let mut decided = None;
        for table in &self.shards {
            match table.state(job) {
                Some(LeaseState::ExitAt(i)) => match decided {
                    None => decided = Some(i),
                    Some(prev) if prev == i => {}
                    Some(_) => return false,
                },
                _ => return false,
            }
        }
        decided.is_some()
    }
}

// Figure 19 measurement harness ---------------------------------------------

/// Measure one *centralized* lease-renewal cycle for `n_jobs` jobs: every
/// job sends a `LeaseCheck` through the wire codec and waits for the
/// scheduler's reply; the scheduler handles checks serially (it is one
/// process). Returns the wall-clock duration of the full cycle.
pub fn centralized_renewal_cycle(n_jobs: u32) -> Duration {
    let (scheduler_side, worker_side) = Endpoint::pair();
    let server = std::thread::spawn(move || {
        for _ in 0..n_jobs + 1 {
            match scheduler_side.recv() {
                Ok(Message::LeaseCheck { job }) => {
                    scheduler_side
                        .send(&Message::LeaseStatus { job, valid: true })
                        .expect("worker alive");
                }
                Ok(other) => panic!("unexpected message {other:?}"),
                Err(_) => return,
            }
        }
    });

    // One warm-up round trip so thread scheduling cost is excluded.
    worker_side
        .send(&Message::LeaseCheck {
            job: JobId(u64::MAX),
        })
        .expect("scheduler alive");
    let _ = worker_side.recv().expect("scheduler alive");
    let start = Instant::now();
    for i in 0..n_jobs {
        worker_side
            .send(&Message::LeaseCheck {
                job: JobId(i as u64),
            })
            .expect("scheduler alive");
        let reply = worker_side.recv().expect("scheduler alive");
        assert!(matches!(reply, Message::LeaseStatus { valid: true, .. }));
    }
    let elapsed = start.elapsed();
    server.join().expect("server thread");
    elapsed
}

/// Measure one *optimistic* renewal cycle for `n_jobs` jobs: each job does
/// its local lease-table lookup; no scheduler round-trips.
pub fn optimistic_renewal_cycle(n_jobs: u32) -> Duration {
    let table = LeaseTable::new();
    for i in 0..n_jobs {
        table.grant(JobId(i as u64));
    }
    let start = Instant::now();
    for i in 0..n_jobs {
        assert!(table.may_run(JobId(i as u64), 1));
    }
    start.elapsed()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lease_lifecycle() {
        let t = LeaseTable::new();
        assert!(!t.may_run(JobId(1), 0), "no lease yet");
        t.grant(JobId(1));
        assert!(t.may_run(JobId(1), 1_000_000));
        t.revoke_at(JobId(1), 10);
        assert!(t.may_run(JobId(1), 10));
        assert!(!t.may_run(JobId(1), 11));
        t.remove(JobId(1));
        assert!(t.state(JobId(1)).is_none());
    }

    #[test]
    fn two_phase_exit_is_consistent_across_shards() {
        let shards: Vec<Arc<LeaseTable>> = (0..4).map(|_| Arc::new(LeaseTable::new())).collect();
        for s in &shards {
            s.grant(JobId(7));
        }
        let coord = TwoPhaseExit::new(shards.clone());
        assert!(!coord.is_consistent(JobId(7)));
        let exit = coord.revoke(JobId(7), 41);
        assert_eq!(exit, 42);
        assert!(coord.is_consistent(JobId(7)));
        // Every shard may run iteration 42 but not 43: they exit together.
        for s in &shards {
            assert!(s.may_run(JobId(7), 42));
            assert!(!s.may_run(JobId(7), 43));
        }
    }

    #[test]
    fn two_phase_detects_divergence() {
        let shards: Vec<Arc<LeaseTable>> = (0..2).map(|_| Arc::new(LeaseTable::new())).collect();
        shards[0].revoke_at(JobId(1), 5);
        shards[1].revoke_at(JobId(1), 6);
        let coord = TwoPhaseExit::new(shards);
        assert!(!coord.is_consistent(JobId(1)));
    }

    #[test]
    fn centralized_cycle_completes_and_scales_up() {
        let small = centralized_renewal_cycle(8);
        let large = centralized_renewal_cycle(512);
        assert!(large > small, "512 checks should cost more than 8");
    }

    #[test]
    fn optimistic_cycle_is_cheap() {
        let opt = optimistic_renewal_cycle(512);
        let central = centralized_renewal_cycle(512);
        assert!(
            opt < central,
            "optimistic {opt:?} should beat centralized {central:?}"
        );
    }
}
