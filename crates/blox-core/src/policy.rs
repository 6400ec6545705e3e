//! Policy traits: job admission, scheduling, and placement.
//!
//! These are the paper's composable abstractions (Table 6). Each policy
//! receives read-only views of the two shared data structures plus the
//! round timestamp, and produces a well-defined output consumed by the next
//! stage of the round loop.

use std::collections::BTreeMap;

use crate::cluster::ClusterState;
use crate::delta::StateDelta;
use crate::ids::{GpuGlobalId, JobId};
use crate::job::Job;
use crate::state::JobState;

/// Output of a scheduling policy for one round.
///
/// The core of the decision is `allocations`: a priority-ordered list of
/// `(job, gpus-to-grant)`. Policies that only rank jobs (FIFO, LAS, SRTF)
/// grant each job its requested GPU count; policies that resize jobs
/// (Pollux, Optimus, Gavel) grant other counts. The placement policy walks
/// this list in order and stops granting once the cluster is full.
/// It may name jobs that are no longer active (e.g. ones listed in
/// `terminate`): placers skip them, the manager does not filter them out.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SchedulingDecision {
    /// `(job, gpu count)` pairs in descending priority.
    pub allocations: Vec<(JobId, u32)>,
    /// Per-job batch size overrides (Pollux co-adapts batch sizes).
    pub batch_sizes: BTreeMap<JobId, u64>,
    /// Jobs the policy decided to finish early (e.g. loss-based
    /// termination). The manager marks them `TerminatedEarly`.
    pub terminate: Vec<JobId>,
}

impl SchedulingDecision {
    /// A decision that schedules the given jobs at their requested size.
    pub fn from_priority_order<'a, I>(jobs: I) -> Self
    where
        I: IntoIterator<Item = &'a Job>,
    {
        SchedulingDecision {
            allocations: jobs.into_iter().map(|j| (j.id, j.requested_gpus)).collect(),
            batch_sizes: BTreeMap::new(),
            terminate: Vec::new(),
        }
    }
}

/// Output of a placement policy for one round.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Placement {
    /// Jobs to (re)start this round with their exact GPU assignment.
    pub to_launch: Vec<(JobId, Vec<GpuGlobalId>)>,
    /// Jobs running last round that must be checkpointed and stopped.
    pub to_suspend: Vec<JobId>,
}

impl Placement {
    /// True when the round changes nothing.
    pub fn is_empty(&self) -> bool {
        self.to_launch.is_empty() && self.to_suspend.is_empty()
    }
}

/// Gatekeeper for newly submitted jobs (paper: Job Admission Policy).
///
/// Implementations may hold back jobs internally (e.g. threshold-based
/// admission releases jobs FIFO as resources free up); `admit` is invoked
/// every round with that round's fresh arrivals and returns every job that
/// enters the schedulable set this round.
pub trait AdmissionPolicy: Send {
    /// Offer this round's arrivals; return the jobs admitted now (possibly
    /// including jobs deferred in earlier rounds).
    fn admit(
        &mut self,
        new_jobs: Vec<Job>,
        job_state: &JobState,
        cluster: &ClusterState,
        now: f64,
    ) -> Vec<Job>;

    /// Number of jobs currently held back by the policy.
    ///
    /// Contract: `admit` may only return jobs it was offered (this round
    /// or earlier); when `pending() == 0` an `admit` call with no new
    /// arrivals must admit nothing. The manager's event-driven fast path
    /// relies on this to elide rounds without consulting the policy.
    fn pending(&self) -> usize {
        0
    }

    /// Surrender all internally held-back jobs. Called when a policy is
    /// swapped out at runtime (the automatic scheduler synthesizer) so no
    /// queued submission is lost across the switch.
    fn drain(&mut self) -> Vec<Job> {
        Vec::new()
    }

    /// Short policy name for reports.
    fn name(&self) -> &str;
}

/// Round-based scheduling policy (paper: Job Scheduling Policy).
pub trait SchedulingPolicy: Send {
    /// Produce this round's priority-ordered allocation list.
    fn schedule(
        &mut self,
        job_state: &JobState,
        cluster: &ClusterState,
        now: f64,
    ) -> SchedulingDecision;

    /// Observe what changed in the shared state since the previous
    /// round's `schedule` call. The round loop delivers this immediately
    /// before `schedule`, so a policy can maintain its priority
    /// structures incrementally (insert admitted jobs, drop completed
    /// ones) instead of re-deriving them from a full scan each round.
    ///
    /// Purely an acceleration channel: the delta never carries
    /// information absent from `job_state`, so a policy that ignores it
    /// (the default) stays correct, and a policy that uses it must
    /// produce the same decision it would from a full scan. Note the
    /// loop's event-driven fast path may invoke `schedule` extra times
    /// *without* an intervening delta — incremental state must tolerate
    /// repeated calls.
    fn observe_delta(&mut self, delta: &StateDelta, job_state: &JobState) {
        let _ = (delta, job_state);
    }

    /// True when the policy may have event-free rounds elided by the
    /// manager's fast path. Returning `true` promises both of:
    ///
    /// 1. **Purity**: the decision is a function of `(job_state,
    ///    cluster)` only — independent of `now`, of how often `schedule`
    ///    is called, and of internal mutable state (the fast path calls
    ///    `schedule` an extra time to verify a round is a no-op).
    /// 2. **Plan stability while everyone runs**: whenever every active
    ///    job is `Running` and none is waiting, the *resulting placement
    ///    plan* stays a no-op across rounds in which nothing arrives,
    ///    completes, or churns — even though running jobs keep accruing
    ///    service and iterations. The decision's internal *ordering* may
    ///    shift with that progress (LAS/Tiresias priorities do); what
    ///    must not change is who holds how many GPUs.
    ///
    /// Pure priority-ordering policies (FIFO, LAS, SRTF, Tiresias)
    /// satisfy this: they grant every job its requested size, so with
    /// nobody waiting a reorder never alters any grant. Policies whose
    /// *grants* or terminations respond to progress (Optimus, Pollux,
    /// Gavel, Themis, HyperBand, loss-based termination) must keep the
    /// default `false` — under the fast path their resizes would be
    /// observed late, silently diverging from fixed-round execution.
    fn stable_between_events(&self) -> bool {
        false
    }

    /// Short policy name for reports.
    fn name(&self) -> &str;
}

/// Decides which GPUs each scheduled job runs on (paper: Job Placement
/// Policy), and which running jobs to suspend.
pub trait PlacementPolicy: Send {
    /// Map the scheduling decision onto concrete GPUs.
    ///
    /// The decision may name jobs that are absent or no longer active
    /// (terminated this round, `Failed`); they must be skipped. The
    /// priority walk may stop once the cluster is full.
    /// [`crate::place_util::grant_and_keep`] does both for every planner.
    fn place(
        &mut self,
        decision: &SchedulingDecision,
        job_state: &JobState,
        cluster: &ClusterState,
        now: f64,
    ) -> Placement;

    /// Placement counterpart of
    /// [`SchedulingPolicy::stable_between_events`]: `true` when `place`
    /// is a pure function of its inputs (no `now` dependence, no internal
    /// state mutated across calls) and a running job whose grant matches
    /// its current placement is always kept in place — i.e. the policy
    /// never migrates running jobs of its own accord. All planners built
    /// on [`crate::place_util::plan_placement`] satisfy this.
    fn stable_between_events(&self) -> bool {
        false
    }

    /// Short policy name for reports.
    fn name(&self) -> &str;
}

/// Factory closures used wherever fresh policy instances are needed
/// (notably the automatic scheduler synthesizer, which forks simulations).
pub type AdmissionFactory = Box<dyn Fn() -> Box<dyn AdmissionPolicy> + Send + Sync>;
/// Factory for scheduling policies.
pub type SchedulingFactory = Box<dyn Fn() -> Box<dyn SchedulingPolicy> + Send + Sync>;
/// Factory for placement policies.
pub type PlacementFactory = Box<dyn Fn() -> Box<dyn PlacementPolicy> + Send + Sync>;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::JobProfile;

    #[test]
    fn decision_from_priority_order_uses_requested_gpus() {
        let a = Job::new(JobId(1), 0.0, 4, 10.0, JobProfile::synthetic("a", 0.1));
        let b = Job::new(JobId(2), 0.0, 2, 10.0, JobProfile::synthetic("b", 0.1));
        let d = SchedulingDecision::from_priority_order([&a, &b]);
        assert_eq!(d.allocations, vec![(JobId(1), 4), (JobId(2), 2)]);
        assert!(d.terminate.is_empty());
    }

    #[test]
    fn empty_placement_detection() {
        let p = Placement::default();
        assert!(p.is_empty());
        let p2 = Placement {
            to_launch: vec![(JobId(1), vec![])],
            to_suspend: vec![],
        };
        assert!(!p2.is_empty());
    }
}
