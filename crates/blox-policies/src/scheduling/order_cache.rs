//! Incrementally maintained priority orders for scheduling policies.
//!
//! Ordering policies (FIFO, Tiresias, ...) historically re-collected and
//! re-sorted every active job every round — O(n log n) per round even
//! when nothing changed. [`OrderCache`] keeps the previous round's order
//! and maintains it from the round loop's
//! [`StateDelta`](blox_core::delta::StateDelta)s: membership changes
//! (admissions, completions) are applied in O(log n) each, and a round's
//! `schedule` call only needs an O(n) sortedness verification — falling
//! back to a full re-sort exactly when a job's priority key actually
//! moved (e.g. a Tiresias queue demotion) or when no deltas were
//! delivered at all (standalone policy use).
//!
//! The cache is *pure acceleration*: every emitted decision is identical
//! to the full collect-and-sort over the same `JobState`, which the
//! policy unit tests and the byte-pinned golden fixtures verify.

use std::cmp::Ordering;
use std::collections::BTreeSet;

use blox_core::delta::StateDelta;
use blox_core::ids::JobId;
use blox_core::job::Job;
use blox_core::policy::SchedulingDecision;
use blox_core::state::JobState;

/// An id list kept sorted by a policy-supplied priority key.
///
/// Keys must totally order the active set; policies achieve this by
/// ending the key tuple with the job id (unique tie-breaker). Keys are
/// recomputed from the live `JobState` on demand, so keys may drift with
/// job progress — the sortedness check in [`OrderCache::decision`]
/// detects exactly that and repairs by re-sorting.
#[derive(Debug, Default, Clone)]
pub struct OrderCache {
    cached: Option<Vec<JobId>>,
}

impl OrderCache {
    /// Apply one round's membership changes. A cache that has not been
    /// primed by a `decision` call yet ignores deltas (it will build from
    /// a full sort on first use).
    pub fn apply_delta<K, F>(&mut self, delta: &StateDelta, job_state: &JobState, mut key: F)
    where
        K: PartialOrd,
        F: FnMut(&Job) -> K,
    {
        let Some(cached) = self.cached.as_mut() else {
            return;
        };
        if !delta.completed.is_empty() || !delta.migrated_out.is_empty() {
            let gone: BTreeSet<JobId> = delta
                .completed
                .iter()
                .chain(&delta.migrated_out)
                .copied()
                .collect();
            cached.retain(|id| !gone.contains(id));
        }
        for id in &delta.admitted {
            let Some(job) = job_state.get(*id) else {
                continue;
            };
            let k = key(job);
            let pos = cached.binary_search_by(|probe| match job_state.get(*probe) {
                Some(pj) => key(pj).partial_cmp(&k).unwrap_or(Ordering::Less),
                // A stale entry cannot be keyed; any answer keeps the
                // search total, and the next `decision` repairs order.
                None => Ordering::Less,
            });
            match pos {
                // Equal key ⇒ same id (keys embed the id): already cached.
                Ok(_) => {}
                Err(i) => cached.insert(i, *id),
            }
        }
    }

    /// Emit this round's decision in key order, maintaining the cache.
    ///
    /// Fast path: the cached order still matches the active set and is
    /// still sorted under the current keys. One pass looks each job up
    /// once, computes its key once and emits its allocation; the cached
    /// id vector is kept as is. A moved key (queue demotion, progress
    /// change) re-sorts the cached order; an untracked membership change
    /// falls back to the full collect-and-sort. Either way the output is
    /// byte-identical to the uncached policy.
    pub fn decision<K, F>(&mut self, job_state: &JobState, mut key: F) -> SchedulingDecision
    where
        K: PartialOrd,
        F: FnMut(&Job) -> K,
    {
        let mut jobs: Vec<&Job> = Vec::new();
        let cached = self.cached.take();
        if let Some(ids) = cached.filter(|ids| ids.len() == job_state.active_count()) {
            let mut allocations = Vec::with_capacity(ids.len());
            let mut prev: Option<K> = None;
            let mut in_order = true;
            for id in &ids {
                let Some(job) = job_state.get(*id) else {
                    break;
                };
                if in_order {
                    let k = key(job);
                    in_order = prev.as_ref().is_none_or(|p| {
                        p.partial_cmp(&k).expect("scheduling keys are finite") != Ordering::Greater
                    });
                    prev = Some(k);
                }
                allocations.push((job.id, job.requested_gpus));
            }
            if allocations.len() == ids.len() {
                if in_order {
                    self.cached = Some(ids);
                    return SchedulingDecision {
                        allocations,
                        ..SchedulingDecision::default()
                    };
                }
                // A key moved (queue demotion, progress change): repair
                // by re-sorting the nearly sorted cached order.
                jobs = allocations
                    .iter()
                    .filter_map(|(id, _)| job_state.get(*id))
                    .collect();
            }
        }
        if jobs.is_empty() {
            // Full rebuild: collect the active set from scratch.
            jobs = job_state.active().collect();
        }
        jobs.sort_by(|a, b| {
            key(a)
                .partial_cmp(&key(b))
                .expect("scheduling keys are finite")
        });
        self.cached = Some(jobs.iter().map(|j| j.id).collect());
        SchedulingDecision::from_priority_order(jobs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blox_core::profile::JobProfile;

    fn job(id: u64, arrival: f64) -> Job {
        Job::new(JobId(id), arrival, 1, 1e5, JobProfile::synthetic("t", 0.5))
    }

    fn key(j: &Job) -> (f64, JobId) {
        (j.arrival_time, j.id)
    }

    #[test]
    fn delta_maintenance_matches_full_sort() {
        let mut js = JobState::new();
        js.add_new_jobs(vec![job(2, 20.0), job(5, 5.0)]);
        let mut cache = OrderCache::default();
        // Prime.
        let d0 = cache.decision(&js, key);
        assert_eq!(
            d0.allocations.iter().map(|(j, _)| j.0).collect::<Vec<_>>(),
            vec![5, 2]
        );
        // Admit one earlier, one later; complete job 5.
        js.add_new_jobs(vec![job(1, 1.0), job(3, 30.0)]);
        let mut delta = StateDelta::new();
        delta.admitted = vec![JobId(1), JobId(3)];
        cache.apply_delta(&delta, &js, key);
        js.set_status(JobId(5), blox_core::job::JobStatus::Completed)
            .unwrap();
        let pruned = js.prune_completed();
        let mut delta2 = StateDelta::new();
        delta2.completed = pruned;
        cache.apply_delta(&delta2, &js, key);
        let d = cache.decision(&js, key);
        assert_eq!(
            d.allocations.iter().map(|(j, _)| j.0).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
    }

    #[test]
    fn migrated_out_jobs_leave_the_cached_order() {
        let mut js = JobState::new();
        js.add_new_jobs(vec![job(1, 1.0), job(2, 2.0), job(3, 3.0)]);
        let mut cache = OrderCache::default();
        cache.decision(&js, key);
        // Job 2 leaves this shard via cross-pod migration: the cache
        // must forget it exactly as it forgets completions.
        js.take_job(JobId(2)).unwrap();
        let mut delta = StateDelta::new();
        delta.migrated_out = vec![JobId(2)];
        cache.apply_delta(&delta, &js, key);
        let d = cache.decision(&js, key);
        assert_eq!(
            d.allocations.iter().map(|(j, _)| j.0).collect::<Vec<_>>(),
            vec![1, 3]
        );
    }

    #[test]
    fn untracked_membership_changes_force_rebuild() {
        let mut js = JobState::new();
        js.add_new_jobs(vec![job(1, 1.0)]);
        let mut cache = OrderCache::default();
        cache.decision(&js, key);
        // Membership changed with no delta delivered: the length guard
        // must trigger a full rebuild, not a stale emit.
        js.add_new_jobs(vec![job(0, 0.5)]);
        let d = cache.decision(&js, key);
        assert_eq!(d.allocations[0].0, JobId(0));
    }

    #[test]
    fn key_movement_triggers_repair_sort() {
        let mut js = JobState::new();
        js.add_new_jobs(vec![job(1, 10.0), job(2, 20.0)]);
        let mut cache = OrderCache::default();
        let by_service = |j: &Job| (j.attained_service, j.id);
        cache.decision(&js, by_service);
        // Job 1 gains service: order under the key flips.
        js.get_mut(JobId(1)).unwrap().attained_service = 99.0;
        let d = cache.decision(&js, by_service);
        assert_eq!(d.allocations[0].0, JobId(2));
    }
}
