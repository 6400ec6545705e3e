//! The shared `JobState` data structure.
//!
//! # Maintained status indexes
//!
//! Alongside the active-job map, `JobState` maintains id-ordered index
//! sets of running, waiting (queued or suspended), and done-this-round
//! jobs. Round-loop queries ([`JobState::running`], [`JobState::waiting`],
//! [`JobState::prune_completed`]) are answered from these sets instead of
//! scanning every active job, which matters once thousands of jobs are
//! active at a production-scale cluster.
//!
//! The indexes are keyed on [`Job::status`], so **status transitions must
//! go through [`JobState::set_status`]** (or happen before
//! [`JobState::add_new_jobs`] inserts the job). Mutating `status` through
//! [`JobState::get_mut`] / [`JobState::active_mut`] desynchronizes the
//! sets; [`JobState::check_invariants`] re-derives them from scratch to
//! catch exactly that, and the round loop runs it as a per-round debug
//! assertion.

use std::collections::{BTreeMap, BTreeSet};

use crate::error::{BloxError, Result};
use crate::ids::JobId;
use crate::job::{Job, JobStatus};

/// Which index set a status belongs to, if any (`Failed` jobs are parked:
/// neither schedulable nor done).
fn bucket(status: JobStatus) -> Option<Bucket> {
    match status {
        JobStatus::Running => Some(Bucket::Running),
        JobStatus::Queued | JobStatus::Suspended => Some(Bucket::Waiting),
        JobStatus::Completed | JobStatus::TerminatedEarly => Some(Bucket::Done),
        JobStatus::Failed => None,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Bucket {
    Running,
    Waiting,
    Done,
}

/// Tracks every job the scheduler knows about.
///
/// Active jobs (queued / running / suspended) live in an ordered map so
/// policies iterate deterministically; finished jobs are moved to a
/// completed list that keeps the full `Job` record for metric extraction —
/// the paper's `JobState` keeps finished-job metrics around for the same
/// reason.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct JobState {
    /// Boxed: a `Job` is several hundred bytes, and storing it inline
    /// makes every B-tree node kilobytes wide, so each id lookup strides
    /// through sparse nodes; boxing keeps keys and edges densely packed.
    active: BTreeMap<JobId, Box<Job>>,
    finished: Vec<Job>,
    /// Index: active jobs with status `Running`, in id order.
    running_ids: BTreeSet<JobId>,
    /// Index: active jobs with status `Queued` or `Suspended`, in id order.
    waiting_ids: BTreeSet<JobId>,
    /// Index: active jobs whose status is done (completed or terminated
    /// early) and that await [`JobState::prune_completed`], in id order.
    done_ids: BTreeSet<JobId>,
}

impl JobState {
    /// Empty state.
    pub fn new() -> Self {
        Self::default()
    }

    fn index_insert(&mut self, id: JobId, status: JobStatus) {
        match bucket(status) {
            Some(Bucket::Running) => {
                self.running_ids.insert(id);
            }
            Some(Bucket::Waiting) => {
                self.waiting_ids.insert(id);
            }
            Some(Bucket::Done) => {
                self.done_ids.insert(id);
            }
            None => {}
        }
    }

    fn index_remove(&mut self, id: JobId, status: JobStatus) {
        match bucket(status) {
            Some(Bucket::Running) => {
                self.running_ids.remove(&id);
            }
            Some(Bucket::Waiting) => {
                self.waiting_ids.remove(&id);
            }
            Some(Bucket::Done) => {
                self.done_ids.remove(&id);
            }
            None => {}
        }
    }

    /// Add newly admitted jobs to the active set. Jobs are indexed under
    /// their current status (restored snapshots insert already-running
    /// jobs).
    pub fn add_new_jobs(&mut self, jobs: Vec<Job>) {
        for job in jobs {
            let (id, status) = (job.id, job.status);
            if let Some(old) = self.active.insert(id, Box::new(job)) {
                self.index_remove(id, old.status);
            }
            self.index_insert(id, status);
        }
    }

    /// Transition one active job to `status`, keeping the status indexes
    /// in sync. This is the only sanctioned way to change a job's status
    /// after insertion; errors when the job is not active.
    pub fn set_status(&mut self, id: JobId, status: JobStatus) -> Result<()> {
        let job = self.active.get_mut(&id).ok_or(BloxError::UnknownJob(id))?;
        let old = job.status;
        job.status = status;
        if old != status {
            self.index_remove(id, old);
            self.index_insert(id, status);
        }
        Ok(())
    }

    /// Iterate active jobs in id (submission) order.
    pub fn active(&self) -> impl Iterator<Item = &Job> {
        self.active.values().map(|j| &**j)
    }

    /// Mutable iteration over active jobs in id order.
    ///
    /// Do not change [`Job::status`] through this — use
    /// [`JobState::set_status`], which keeps the status indexes in sync.
    pub fn active_mut(&mut self) -> impl Iterator<Item = &mut Job> {
        self.active.values_mut().map(|j| &mut **j)
    }

    /// Number of active jobs.
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// Look up one active job.
    pub fn get(&self, id: JobId) -> Option<&Job> {
        self.active.get(&id).map(|j| &**j)
    }

    /// Mutable lookup of one active job.
    ///
    /// Do not change [`Job::status`] through this — use
    /// [`JobState::set_status`], which keeps the status indexes in sync.
    pub fn get_mut(&mut self, id: JobId) -> Option<&mut Job> {
        self.active.get_mut(&id).map(|j| &mut **j)
    }

    /// Look up one active job, erroring when absent.
    pub fn require(&self, id: JobId) -> Result<&Job> {
        self.get(id).ok_or(BloxError::UnknownJob(id))
    }

    /// Mutable lookup, erroring when absent. The status-mutation caveat of
    /// [`JobState::get_mut`] applies.
    pub fn require_mut(&mut self, id: JobId) -> Result<&mut Job> {
        self.get_mut(id).ok_or(BloxError::UnknownJob(id))
    }

    /// Jobs currently holding GPUs, in id order (index-driven, no scan).
    pub fn running(&self) -> impl Iterator<Item = &Job> {
        self.running_ids.iter().filter_map(move |id| self.get(*id))
    }

    /// Jobs waiting for GPUs (queued or suspended), in id order
    /// (index-driven, no scan).
    pub fn waiting(&self) -> impl Iterator<Item = &Job> {
        self.waiting_ids.iter().filter_map(move |id| self.get(*id))
    }

    /// Ids of currently running jobs, in id order. Backends iterate this
    /// (cloned) when they need `get_mut` access per running job.
    pub fn running_ids(&self) -> &BTreeSet<JobId> {
        &self.running_ids
    }

    /// Number of running jobs. O(1).
    pub fn running_count(&self) -> usize {
        self.running_ids.len()
    }

    /// Number of waiting (queued or suspended) jobs. O(1).
    pub fn waiting_count(&self) -> usize {
        self.waiting_ids.len()
    }

    /// Ids of waiting (queued or suspended) jobs, in id order. The
    /// pod meta-scheduler reads this to pick migration victims without a
    /// job-table scan.
    pub fn waiting_ids(&self) -> &BTreeSet<JobId> {
        &self.waiting_ids
    }

    /// Ids of active jobs that finished (completed or terminated early)
    /// and have not been pruned yet, in id order.
    pub fn done_ids(&self) -> &BTreeSet<JobId> {
        &self.done_ids
    }

    /// Remove one active job from this state entirely — it is *not* moved
    /// to the finished list (contrast [`JobState::prune_completed`]). The
    /// cross-pod migration path uses this to hand a waiting job's record
    /// to another shard; the status indexes stay in sync.
    pub fn take_job(&mut self, id: JobId) -> Option<Job> {
        let job = self.active.remove(&id)?;
        self.index_remove(id, job.status);
        Some(*job)
    }

    /// Sum of requested GPUs across active jobs (admission-control input).
    pub fn total_requested_gpus(&self) -> u64 {
        self.active().map(|j| j.requested_gpus as u64).sum()
    }

    /// Move all done jobs (completed or terminated early) to the finished
    /// list; returns their ids in id order. Mirrors the
    /// `prune_completed_jobs` step of the paper's scheduling loop —
    /// index-driven, so a round with no completions is O(1).
    pub fn prune_completed(&mut self) -> Vec<JobId> {
        let done: Vec<JobId> = std::mem::take(&mut self.done_ids).into_iter().collect();
        for id in &done {
            if let Some(job) = self.active.remove(id) {
                self.finished.push(*job);
            }
        }
        done
    }

    /// Finished jobs in completion order.
    pub fn finished(&self) -> &[Job] {
        &self.finished
    }

    /// A finished job by id, if present.
    pub fn finished_job(&self, id: JobId) -> Option<&Job> {
        self.finished.iter().find(|j| j.id == id)
    }

    /// Total jobs ever seen (active + finished).
    pub fn total_seen(&self) -> usize {
        self.active.len() + self.finished.len()
    }

    /// Rebuild a job state from snapshot parts (active jobs plus the
    /// finished list in completion order). Used only by snapshot decoding;
    /// the status indexes are re-derived from the jobs' statuses.
    pub(crate) fn from_snapshot_parts(active: Vec<Job>, finished: Vec<Job>) -> Self {
        let mut state = JobState {
            finished,
            ..JobState::default()
        };
        state.add_new_jobs(active);
        state
    }

    /// Verify that the status index sets match a from-scratch scan of the
    /// active map. Catches status mutations that bypassed
    /// [`JobState::set_status`]; run by the round loop as a per-round
    /// debug assertion and by the property suite.
    pub fn check_invariants(&self) -> Result<()> {
        let mut running = BTreeSet::new();
        let mut waiting = BTreeSet::new();
        let mut done = BTreeSet::new();
        for job in self.active.values() {
            match bucket(job.status) {
                Some(Bucket::Running) => {
                    running.insert(job.id);
                }
                Some(Bucket::Waiting) => {
                    waiting.insert(job.id);
                }
                Some(Bucket::Done) => {
                    done.insert(job.id);
                }
                None => {}
            }
        }
        if running != self.running_ids {
            return Err(BloxError::Config("running-job index out of sync".into()));
        }
        if waiting != self.waiting_ids {
            return Err(BloxError::Config("waiting-job index out of sync".into()));
        }
        if done != self.done_ids {
            return Err(BloxError::Config("done-job index out of sync".into()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::JobProfile;

    fn job(id: u64) -> Job {
        Job::new(JobId(id), 0.0, 1, 100.0, JobProfile::synthetic("toy", 0.1))
    }

    #[test]
    fn add_and_iterate_in_id_order() {
        let mut s = JobState::new();
        s.add_new_jobs(vec![job(3), job(1), job(2)]);
        let ids: Vec<u64> = s.active().map(|j| j.id.0).collect();
        assert_eq!(ids, vec![1, 2, 3]);
        s.check_invariants().unwrap();
    }

    #[test]
    fn prune_moves_done_jobs() {
        let mut s = JobState::new();
        s.add_new_jobs(vec![job(1), job(2)]);
        s.set_status(JobId(1), JobStatus::Completed).unwrap();
        assert_eq!(s.prune_completed(), vec![JobId(1)]);
        assert_eq!(s.active_count(), 1);
        assert_eq!(s.finished().len(), 1);
        assert!(s.finished_job(JobId(1)).is_some());
        assert!(s.get(JobId(1)).is_none());
        s.check_invariants().unwrap();
    }

    #[test]
    fn running_and_waiting_filters() {
        let mut s = JobState::new();
        s.add_new_jobs(vec![job(1), job(2), job(3)]);
        s.set_status(JobId(2), JobStatus::Running).unwrap();
        s.set_status(JobId(3), JobStatus::Suspended).unwrap();
        assert_eq!(s.running().count(), 1);
        assert_eq!(s.waiting().count(), 2);
        assert_eq!(s.running_count(), 1);
        assert_eq!(s.waiting_count(), 2);
        s.check_invariants().unwrap();
    }

    #[test]
    fn require_reports_unknown_jobs() {
        let s = JobState::new();
        assert!(s.require(JobId(9)).is_err());
    }

    #[test]
    fn set_status_rejects_unknown_jobs() {
        let mut s = JobState::new();
        assert!(s.set_status(JobId(9), JobStatus::Running).is_err());
    }

    #[test]
    fn total_requested_gpus_sums_demands() {
        let mut s = JobState::new();
        let mut a = job(1);
        a.requested_gpus = 4;
        let mut b = job(2);
        b.requested_gpus = 2;
        s.add_new_jobs(vec![a, b]);
        assert_eq!(s.total_requested_gpus(), 6);
    }

    #[test]
    fn jobs_added_with_preset_status_are_indexed() {
        let mut s = JobState::new();
        let mut r = job(1);
        r.status = JobStatus::Running;
        s.add_new_jobs(vec![r, job(2)]);
        assert_eq!(s.running().count(), 1);
        assert_eq!(s.waiting().count(), 1);
        s.check_invariants().unwrap();
    }

    #[test]
    fn take_job_removes_without_finishing() {
        let mut s = JobState::new();
        s.add_new_jobs(vec![job(1), job(2)]);
        let taken = s.take_job(JobId(1)).expect("job 1 is active");
        assert_eq!(taken.id, JobId(1));
        assert_eq!(s.active_count(), 1);
        assert!(s.finished().is_empty(), "taken jobs are not finished");
        assert!(s.get(JobId(1)).is_none());
        assert!(s.take_job(JobId(1)).is_none(), "second take finds nothing");
        s.check_invariants().unwrap();
    }

    #[test]
    fn invariant_check_catches_bypassed_status_mutation() {
        let mut s = JobState::new();
        s.add_new_jobs(vec![job(1)]);
        s.get_mut(JobId(1)).unwrap().status = JobStatus::Running;
        assert!(s.check_invariants().is_err());
    }
}
