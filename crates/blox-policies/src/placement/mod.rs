//! Placement policies: mapping scheduled jobs onto concrete GPUs.

use std::collections::BTreeMap;

use blox_core::cluster::ClusterState;
use blox_core::ids::{GpuGlobalId, JobId, NodeId};
use blox_core::place_util::{grant_and_keep, plan_placement, PickStrategy};
use blox_core::policy::{Placement, PlacementPolicy, SchedulingDecision};
use blox_core::state::JobState;

/// Tensor-skew threshold used by the Tiresias placement heuristic; kept in
/// sync with the workload zoo's notion of "high skew".
pub const SKEW_THRESHOLD: f64 = 0.5;

/// First-Free: take the lowest-numbered free GPUs (used by the fidelity
/// experiment, Figure 18).
#[derive(Debug, Default)]
pub struct FirstFreePlacement;

impl FirstFreePlacement {
    /// New first-free placement.
    pub fn new() -> Self {
        FirstFreePlacement
    }
}

impl PlacementPolicy for FirstFreePlacement {
    fn place(
        &mut self,
        decision: &SchedulingDecision,
        job_state: &JobState,
        cluster: &ClusterState,
        _now: f64,
    ) -> Placement {
        plan_placement(decision, job_state, cluster, |_| PickStrategy::FirstFree)
    }

    /// Pure function of its inputs that keeps running jobs whose grant
    /// matches their placement: safe for the event-driven fast path.
    fn stable_between_events(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "first-free"
    }
}

/// Consolidation-maximizing placement: every job lands on as few nodes as
/// possible (the paper's `Consolidated` policy).
#[derive(Debug)]
pub struct ConsolidatedPlacement {
    strict: bool,
}

impl ConsolidatedPlacement {
    /// Jobs that cannot fit one node are spread over the fewest nodes.
    pub fn preferred() -> Self {
        ConsolidatedPlacement { strict: false }
    }

    /// Jobs that cannot be consolidated onto one node skip the round.
    /// Note multi-node-sized jobs (demand > GPUs/node) can never launch
    /// under the strict variant.
    pub fn strict() -> Self {
        ConsolidatedPlacement { strict: true }
    }
}

impl PlacementPolicy for ConsolidatedPlacement {
    fn place(
        &mut self,
        decision: &SchedulingDecision,
        job_state: &JobState,
        cluster: &ClusterState,
        _now: f64,
    ) -> Placement {
        let strict = self.strict;
        plan_placement(decision, job_state, cluster, |_| {
            if strict {
                PickStrategy::ConsolidatedStrict
            } else {
                PickStrategy::ConsolidatedPreferred
            }
        })
    }

    /// Pure function of its inputs that keeps running jobs whose grant
    /// matches their placement: safe for the event-driven fast path.
    fn stable_between_events(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        if self.strict {
            "consolidated-strict"
        } else {
            "consolidated"
        }
    }
}

/// The Tiresias placement heuristic (Tiresias §3.3): consolidate only jobs
/// whose model has high tensor-size skew; place everything else to
/// minimize fragmentation.
#[derive(Debug)]
pub struct TiresiasPlacement {
    /// Skew threshold above which a job is consolidated.
    pub skew_threshold: f64,
}

impl TiresiasPlacement {
    /// Heuristic with the default threshold.
    pub fn new() -> Self {
        TiresiasPlacement {
            skew_threshold: SKEW_THRESHOLD,
        }
    }
}

impl Default for TiresiasPlacement {
    fn default() -> Self {
        Self::new()
    }
}

impl PlacementPolicy for TiresiasPlacement {
    fn place(
        &mut self,
        decision: &SchedulingDecision,
        job_state: &JobState,
        cluster: &ClusterState,
        _now: f64,
    ) -> Placement {
        let threshold = self.skew_threshold;
        plan_placement(decision, job_state, cluster, |id: JobId| {
            let high_skew = job_state
                .get(id)
                .map(|j| j.profile.skew > threshold)
                .unwrap_or(false);
            if high_skew {
                PickStrategy::ConsolidatedPreferred
            } else {
                PickStrategy::Defragment
            }
        })
    }

    /// Pure function of its inputs that keeps running jobs whose grant
    /// matches their placement: safe for the event-driven fast path.
    fn stable_between_events(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "tiresias-placement"
    }
}

/// Tiresias+ (paper Figure 11): identical structure to the Tiresias
/// heuristic but driven by *profiled ground truth* — the per-model
/// `consolidation_benefit` flag — instead of the skew proxy.
#[derive(Debug, Default)]
pub struct ProfileGuidedPlacement;

impl ProfileGuidedPlacement {
    /// New profile-guided placement.
    pub fn new() -> Self {
        ProfileGuidedPlacement
    }
}

impl PlacementPolicy for ProfileGuidedPlacement {
    fn place(
        &mut self,
        decision: &SchedulingDecision,
        job_state: &JobState,
        cluster: &ClusterState,
        _now: f64,
    ) -> Placement {
        plan_placement(decision, job_state, cluster, |id: JobId| {
            let benefits = job_state
                .get(id)
                .map(|j| j.profile.consolidation_benefit)
                .unwrap_or(false);
            if benefits {
                PickStrategy::ConsolidatedPreferred
            } else {
                PickStrategy::Defragment
            }
        })
    }

    /// Pure function of its inputs that keeps running jobs whose grant
    /// matches their placement: safe for the event-driven fast path.
    fn stable_between_events(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "tiresias-plus"
    }
}

/// Bandwidth-aware intra-node placement (paper §5.3, Table 4): multi-GPU
/// single-node jobs are placed on the GPU subset with the highest mean
/// pairwise NVLink bandwidth (e.g. the (0,3) pair on p3.8xlarge).
#[derive(Debug, Default)]
pub struct BandwidthAwarePlacement;

impl BandwidthAwarePlacement {
    /// New bandwidth-aware placement.
    pub fn new() -> Self {
        BandwidthAwarePlacement
    }
}

impl PlacementPolicy for BandwidthAwarePlacement {
    fn place(
        &mut self,
        decision: &SchedulingDecision,
        job_state: &JobState,
        cluster: &ClusterState,
        _now: f64,
    ) -> Placement {
        plan_placement(decision, job_state, cluster, |_| {
            PickStrategy::BandwidthAware
        })
    }

    /// Pure function of its inputs that keeps running jobs whose grant
    /// matches their placement: safe for the event-driven fast path.
    fn stable_between_events(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        "bandwidth-aware"
    }
}

/// Synergy-style CPU/DRAM-aware placement.
///
/// In `tune` mode, jobs are placed on the node that keeps CPU demand
/// (profiled cores per GPU, summed over co-located jobs) as far under the
/// node's capacity as possible; in proportional mode it behaves like
/// consolidation, letting CPU-hungry jobs contend — which is exactly the
/// slowdown Figure 5's Proportional curve exhibits.
#[derive(Debug)]
pub struct SynergyPlacement {
    /// True for Synergy-Tune, false for Proportional.
    pub tune: bool,
}

impl SynergyPlacement {
    /// Tune-mode placement.
    pub fn tune() -> Self {
        SynergyPlacement { tune: true }
    }

    /// Proportional-mode placement.
    pub fn proportional() -> Self {
        SynergyPlacement { tune: false }
    }

    /// Current profiled CPU demand per node from running jobs.
    fn node_cpu_load(job_state: &JobState, cluster: &ClusterState) -> BTreeMap<NodeId, f64> {
        let mut load: BTreeMap<NodeId, f64> = BTreeMap::new();
        for job in job_state.running() {
            for gpu in &job.placement {
                if let Some(row) = cluster.gpu(*gpu) {
                    *load.entry(row.node).or_default() += job.profile.cpus_per_gpu;
                }
            }
        }
        load
    }
}

impl PlacementPolicy for SynergyPlacement {
    fn place(
        &mut self,
        decision: &SchedulingDecision,
        job_state: &JobState,
        cluster: &ClusterState,
        _now: f64,
    ) -> Placement {
        if !self.tune {
            return plan_placement(decision, job_state, cluster, |_| {
                PickStrategy::ConsolidatedPreferred
            });
        }

        // Tune: the planner's grant and keep/suspend phases, then a
        // greedy per-job node choice minimizing CPU oversubscription.
        let (to_place, mut pool, to_suspend) = grant_and_keep(decision, job_state, cluster);
        let mut cpu_load = Self::node_cpu_load(job_state, cluster);
        // Suspended jobs free their CPU demand.
        for id in &to_suspend {
            if let Some(job) = job_state.get(*id) {
                for gpu in &job.placement {
                    if let Some(row) = cluster.gpu(*gpu) {
                        if let Some(l) = cpu_load.get_mut(&row.node) {
                            *l -= job.profile.cpus_per_gpu;
                        }
                    }
                }
            }
        }

        let mut to_launch = Vec::new();
        for (id, n) in to_place {
            let job = job_state.get(id).expect("granted jobs are active");
            let demand = job.profile.cpus_per_gpu * n as f64;
            // Synergy's placement constraint: never oversubscribe a node's
            // CPUs when any non-oversubscribed node fits; within that,
            // best-fit packing keeps fragmentation (and therefore spread
            // penalties for later multi-GPU jobs) low. Candidates come
            // from the pool's bucketed index — only nodes with >= n free
            // GPUs are scored, not the whole cluster.
            let mut best: Option<((i64, usize), NodeId)> = None;
            for (free, node_id) in pool.nodes_with_at_least(n) {
                let Some(node) = cluster.node(node_id) else {
                    continue;
                };
                let cores = node.spec.cpu_cores as f64;
                let after = (cpu_load.get(&node_id).copied().unwrap_or(0.0) + demand) / cores;
                let key = (i64::from(after > 1.0), free as usize);
                let better = match &best {
                    None => true,
                    Some((b, bn)) => key < *b || (key == *b && node_id < *bn),
                };
                if better {
                    best = Some((key, node_id));
                }
            }
            let gpus: Option<Vec<GpuGlobalId>> = match best {
                Some((_, node)) => {
                    let free = pool.on_node(node).to_vec();
                    let chosen: Vec<GpuGlobalId> = free.into_iter().take(n as usize).collect();
                    pool.remove(&chosen);
                    Some(chosen)
                }
                None => pool.take_consolidated_or_spread(n),
            };
            if let Some(gpus) = gpus {
                for gpu in &gpus {
                    if let Some(row) = cluster.gpu(*gpu) {
                        *cpu_load.entry(row.node).or_default() += job.profile.cpus_per_gpu;
                    }
                }
                to_launch.push((id, gpus));
            }
        }

        Placement {
            to_launch,
            to_suspend,
        }
    }

    /// Pure function of its inputs that keeps running jobs whose grant
    /// matches their placement: safe for the event-driven fast path.
    fn stable_between_events(&self) -> bool {
        true
    }

    fn name(&self) -> &str {
        if self.tune {
            "synergy-tune-placement"
        } else {
            "synergy-proportional-placement"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blox_core::cluster::NodeSpec;
    use blox_core::job::{Job, JobStatus};
    use blox_core::profile::JobProfile;

    fn cluster(nodes: u32) -> ClusterState {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), nodes);
        c
    }

    fn job_with(id: u64, gpus: u32, skew: f64, benefit: bool) -> Job {
        let mut p = JobProfile::synthetic("toy", 1.0);
        p.skew = skew;
        p.consolidation_benefit = benefit;
        Job::new(JobId(id), 0.0, gpus, 1e5, p)
    }

    fn decision(jobs: &JobState) -> SchedulingDecision {
        SchedulingDecision {
            allocations: jobs.active().map(|j| (j.id, j.requested_gpus)).collect(),
            ..Default::default()
        }
    }

    #[test]
    fn first_free_takes_lowest_ids() {
        let c = cluster(2);
        let mut js = JobState::new();
        js.add_new_jobs(vec![job_with(1, 3, 0.2, false)]);
        let p = FirstFreePlacement::new().place(&decision(&js), &js, &c, 0.0);
        assert_eq!(
            p.to_launch[0].1,
            vec![GpuGlobalId(0), GpuGlobalId(1), GpuGlobalId(2)]
        );
    }

    #[test]
    fn consolidated_places_on_one_node() {
        let c = cluster(2);
        let mut js = JobState::new();
        js.add_new_jobs(vec![job_with(1, 4, 0.2, false)]);
        let p = ConsolidatedPlacement::preferred().place(&decision(&js), &js, &c, 0.0);
        assert!(c.is_consolidated(&p.to_launch[0].1));
    }

    #[test]
    fn strict_consolidation_skips_oversized_jobs() {
        let c = cluster(2); // 4-GPU nodes
        let mut js = JobState::new();
        js.add_new_jobs(vec![job_with(1, 8, 0.9, true)]);
        let p = ConsolidatedPlacement::strict().place(&decision(&js), &js, &c, 0.0);
        assert!(p.to_launch.is_empty());
        let p2 = ConsolidatedPlacement::preferred().place(&decision(&js), &js, &c, 0.0);
        assert_eq!(p2.to_launch[0].1.len(), 8);
    }

    #[test]
    fn tiresias_consolidates_only_high_skew() {
        let mut c = cluster(3);
        // Fragment the cluster: occupy 2 GPUs on each of nodes 0 and 1.
        let free = c.free_gpus();
        c.allocate(JobId(90), &[free[0], free[1]], 4.0).unwrap();
        c.allocate(JobId(91), &[free[4], free[5]], 4.0).unwrap();
        let mut js = JobState::new();
        js.add_new_jobs(vec![
            job_with(1, 4, 0.9, true),  // high skew: consolidate (node 2)
            job_with(2, 2, 0.1, false), // low skew: defragment (node 0/1)
        ]);
        let p = TiresiasPlacement::new().place(&decision(&js), &js, &c, 0.0);
        let launched: BTreeMap<JobId, Vec<GpuGlobalId>> = p.to_launch.into_iter().collect();
        assert!(c.is_consolidated(&launched[&JobId(1)]));
        let nodes = c.nodes_of(&launched[&JobId(1)]);
        assert_eq!(nodes, vec![NodeId(2)]);
        // The low-skew job fills a fragmented node rather than node 2.
        let frag_nodes = c.nodes_of(&launched[&JobId(2)]);
        assert!(frag_nodes[0] < NodeId(2));
    }

    #[test]
    fn profile_guided_follows_ground_truth_not_skew() {
        let mut c = cluster(3);
        let free = c.free_gpus();
        c.allocate(JobId(90), &[free[0], free[1]], 4.0).unwrap();
        c.allocate(JobId(91), &[free[4], free[5]], 4.0).unwrap();
        let mut js = JobState::new();
        // Low skew but truly benefits: the heuristic would fragment it, the
        // profile-guided policy consolidates it.
        js.add_new_jobs(vec![job_with(1, 4, 0.1, true)]);
        let d = decision(&js);
        let heur = TiresiasPlacement::new().place(&d, &js, &c, 0.0);
        assert!(!c.is_consolidated(&heur.to_launch[0].1));
        let plus = ProfileGuidedPlacement::new().place(&d, &js, &c, 0.0);
        assert!(c.is_consolidated(&plus.to_launch[0].1));
    }

    #[test]
    fn bandwidth_aware_selects_nvlink_pairs() {
        let c = cluster(1);
        let mut js = JobState::new();
        js.add_new_jobs(vec![job_with(1, 2, 0.5, true)]);
        let p = BandwidthAwarePlacement::new().place(&decision(&js), &js, &c, 0.0);
        let bw = c.alloc_intra_bw(&p.to_launch[0].1).unwrap();
        assert_eq!(bw, 100.0);
    }

    #[test]
    fn synergy_tune_avoids_cpu_hot_nodes() {
        let mut c = cluster(2);
        let mut js = JobState::new();
        // A running CPU-hog on node 0.
        let mut hog = job_with(1, 2, 0.2, false);
        hog.profile.cpus_per_gpu = 16.0;
        hog.status = JobStatus::Running;
        let free = c.free_gpus();
        hog.placement = vec![free[0], free[1]];
        c.allocate(JobId(1), &hog.placement, 4.0).unwrap();
        js.add_new_jobs(vec![hog]);
        // A new CPU-hungry job: tune mode places it on node 1.
        let mut newbie = job_with(2, 2, 0.2, false);
        newbie.profile.cpus_per_gpu = 10.0;
        js.add_new_jobs(vec![newbie]);
        let d = SchedulingDecision {
            allocations: vec![(JobId(1), 2), (JobId(2), 2)],
            ..Default::default()
        };
        let p = SynergyPlacement::tune().place(&d, &js, &c, 0.0);
        let launched: BTreeMap<JobId, Vec<GpuGlobalId>> = p.to_launch.into_iter().collect();
        assert_eq!(c.nodes_of(&launched[&JobId(2)]), vec![NodeId(1)]);
        // Proportional mode best-fit packs it onto the hot node 0 instead.
        let p2 = SynergyPlacement::proportional().place(&d, &js, &c, 0.0);
        let launched2: BTreeMap<JobId, Vec<GpuGlobalId>> = p2.to_launch.into_iter().collect();
        assert_eq!(c.nodes_of(&launched2[&JobId(2)]), vec![NodeId(0)]);
    }

    #[test]
    fn synergy_tune_suspends_descheduled_jobs() {
        let mut c = cluster(1);
        let mut js = JobState::new();
        let mut running = job_with(1, 4, 0.2, false);
        running.status = JobStatus::Running;
        running.placement = c.free_gpus();
        c.allocate(JobId(1), &running.placement, 4.0).unwrap();
        js.add_new_jobs(vec![running, job_with(2, 4, 0.2, false)]);
        let d = SchedulingDecision {
            allocations: vec![(JobId(2), 4)],
            ..Default::default()
        };
        let p = SynergyPlacement::tune().place(&d, &js, &c, 0.0);
        assert_eq!(p.to_suspend, vec![JobId(1)]);
        assert_eq!(p.to_launch.len(), 1);
        assert_eq!(p.to_launch[0].0, JobId(2));
    }
}
