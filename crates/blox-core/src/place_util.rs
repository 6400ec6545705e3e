//! Shared placement machinery: a mutable view of free GPUs plus pick
//! strategies and the keep/suspend/launch planner used by all placement
//! policies in `blox-policies`.

use std::collections::BTreeMap;

use crate::cluster::ClusterState;
use crate::ids::{GpuGlobalId, JobId, NodeId};
use crate::place_index::PlacementIndex;
use crate::policy::{Placement, SchedulingDecision};
use crate::state::JobState;

/// A scratch view of currently free GPUs that placement strategies consume
/// as they assign jobs within a round.
///
/// Node-level queries (best fit, largest/smallest-first orders) are
/// answered by a clone of the cluster's persistent
/// [`PlacementIndex`] — O(log buckets) per pick instead of a scan of the
/// free map — and kept in sync with every in-round mutation. The
/// `per_node` lists hold the concrete GPU ids the chosen node hands out.
pub struct FreePool<'a> {
    cluster: &'a ClusterState,
    per_node: BTreeMap<NodeId, Vec<GpuGlobalId>>,
    index: PlacementIndex,
}

impl<'a> FreePool<'a> {
    /// Build the pool by cloning the cluster's maintained per-node
    /// free-GPU index ([`ClusterState::free_map`]) and bucketed placement
    /// index ([`ClusterState::place_index`]) — O(nodes), never a scan of
    /// the full GPU table.
    pub fn new(cluster: &'a ClusterState) -> Self {
        FreePool {
            cluster,
            per_node: cluster.free_map().clone(),
            index: cluster.place_index().clone(),
        }
    }

    /// Re-bucket one node after its free list changed.
    fn reindex(&mut self, node: NodeId, len: usize) {
        let ty = match self.index.type_of(node) {
            Some(ty) => ty,
            // A node entering the pool for the first time this round
            // (e.g. `add` on a fully busy node): resolve its type once.
            None => {
                self.cluster
                    .node(node)
                    .expect("pool nodes exist")
                    .spec
                    .gpu_type
            }
        };
        self.index.set_count(node, ty, len as u32);
    }

    /// Add GPUs back to the pool (e.g. from a job being suspended this
    /// round whose GPUs are not yet reflected as free in the cluster).
    ///
    /// Duplicates are ignored; GPUs on dead (or unknown) nodes are
    /// skipped, mirroring [`ClusterState::free_map`], which tracks live
    /// nodes only. Each insert is a binary search into the node's sorted
    /// list, O(log f + f) — not the old `contains` + full re-sort.
    pub fn add(&mut self, gpus: &[GpuGlobalId]) {
        for g in gpus {
            let Some(row) = self.cluster.gpu(*g) else {
                continue;
            };
            if !self.cluster.node(row.node).is_some_and(|n| n.alive) {
                continue;
            }
            let node = row.node;
            let list = self.per_node.entry(node).or_default();
            let new_len = match list.binary_search(g) {
                Ok(_) => None,
                Err(pos) => {
                    list.insert(pos, *g);
                    Some(list.len())
                }
            };
            if let Some(len) = new_len {
                self.reindex(node, len);
            }
        }
    }

    /// Remove specific GPUs from the pool (a job keeps running on them).
    pub fn remove(&mut self, gpus: &[GpuGlobalId]) {
        for g in gpus {
            let Some(row) = self.cluster.gpu(*g) else {
                continue;
            };
            let node = row.node;
            let Some(list) = self.per_node.get_mut(&node) else {
                continue;
            };
            if let Ok(pos) = list.binary_search(g) {
                list.remove(pos);
                let len = list.len();
                self.reindex(node, len);
            }
        }
    }

    /// Total free GPUs remaining. O(1) from the bucketed index.
    pub fn total(&self) -> u32 {
        self.index.total_free()
    }

    /// Free GPUs on one node.
    pub fn on_node(&self, node: NodeId) -> &[GpuGlobalId] {
        self.per_node
            .get(&node)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    /// Nodes currently holding at least `n ≥ 1` free GPUs as
    /// `(free count, node id)`, in `(count, id)` ascending order. Lets
    /// policies with custom scoring (e.g. Synergy's CPU-aware best fit)
    /// enumerate only viable candidates instead of every cluster node.
    pub fn nodes_with_at_least(&self, n: u32) -> impl Iterator<Item = (u32, NodeId)> + '_ {
        self.index.nodes_with_at_least(n)
    }

    fn take_from_node(&mut self, node: NodeId, n: usize) -> Vec<GpuGlobalId> {
        let list = self.per_node.entry(node).or_default();
        let taken: Vec<GpuGlobalId> = list.drain(..n.min(list.len())).collect();
        let len = list.len();
        self.reindex(node, len);
        taken
    }

    /// Pick `n` GPUs all on one node, best-fit (node with the fewest free
    /// GPUs that still fits, to reduce fragmentation). Returns `None` when
    /// no single node fits. O(log buckets) via the placement index.
    pub fn take_consolidated(&mut self, n: u32) -> Option<Vec<GpuGlobalId>> {
        if n == 0 {
            // Degenerate request: every node "fits"; preserved from the
            // scan-based picker, which returned an empty grant whenever
            // any node (even fully busy) existed.
            return if self.per_node.is_empty() {
                None
            } else {
                Some(Vec::new())
            };
        }
        let node = self.index.best_fit(n)?;
        Some(self.take_from_node(node, n as usize))
    }

    /// Pick `n` GPUs all on one node of the given GPU type, best-fit among
    /// that type's buckets — for type-constrained placements on
    /// heterogeneous clusters. O(log buckets).
    pub fn take_consolidated_typed(
        &mut self,
        ty: crate::cluster::GpuType,
        n: u32,
    ) -> Option<Vec<GpuGlobalId>> {
        if n == 0 {
            return if self.per_node.is_empty() {
                None
            } else {
                Some(Vec::new())
            };
        }
        let node = self.index.best_fit_typed(ty, n)?;
        Some(self.take_from_node(node, n as usize))
    }

    /// Pick `n` GPUs consolidated if possible, otherwise spanning the
    /// fewest nodes (largest free counts first, ties by node id).
    pub fn take_consolidated_or_spread(&mut self, n: u32) -> Option<Vec<GpuGlobalId>> {
        if let Some(got) = self.take_consolidated(n) {
            return Some(got);
        }
        if self.total() < n {
            return None;
        }
        // Snapshot the (count desc, id asc) prefix that satisfies the
        // request before draining — draining re-buckets nodes mid-walk.
        let mut picks: Vec<(NodeId, usize)> = Vec::new();
        let mut need = n as usize;
        for (count, node) in self.index.descending() {
            if need == 0 {
                break;
            }
            let take = need.min(count as usize);
            picks.push((node, take));
            need -= take;
        }
        debug_assert_eq!(need, 0);
        let mut out = Vec::new();
        for (node, take) in picks {
            out.extend(self.take_from_node(node, take));
        }
        Some(out)
    }

    /// Pick `n` GPUs packing the most-fragmented nodes first (fewest free
    /// GPUs first, ties by node id). This is the anti-fragmentation
    /// placement Tiresias uses for skew-insensitive jobs.
    pub fn take_defragmenting(&mut self, n: u32) -> Option<Vec<GpuGlobalId>> {
        if self.total() < n {
            return None;
        }
        let mut picks: Vec<(NodeId, usize)> = Vec::new();
        let mut need = n as usize;
        for (count, node) in self.index.ascending() {
            if need == 0 {
                break;
            }
            let take = need.min(count as usize);
            picks.push((node, take));
            need -= take;
        }
        let mut out = Vec::new();
        for (node, take) in picks {
            out.extend(self.take_from_node(node, take));
        }
        Some(out)
    }

    /// Pick the first `n` free GPUs in global-id order (the paper's
    /// First-Free policy used in the fidelity experiment).
    ///
    /// Global GPU ids are handed out monotonically as nodes join
    /// ([`ClusterState::add_node`]), so walking nodes in id order and
    /// draining each sorted free list *is* global-id order — no flatten +
    /// full sort.
    pub fn take_first_free(&mut self, n: u32) -> Option<Vec<GpuGlobalId>> {
        if self.total() < n {
            return None;
        }
        let mut picks: Vec<(NodeId, usize)> = Vec::new();
        let mut need = n as usize;
        for (node, list) in &self.per_node {
            if need == 0 {
                break;
            }
            if list.is_empty() {
                continue;
            }
            let take = need.min(list.len());
            picks.push((*node, take));
            need -= take;
        }
        debug_assert_eq!(need, 0);
        let mut out = Vec::new();
        for (node, take) in picks {
            out.extend(self.take_from_node(node, take));
        }
        debug_assert!(out.windows(2).all(|w| w[0] < w[1]), "global-id order");
        Some(out)
    }

    /// Pick `n` GPUs on a single node maximizing mean pairwise intra-node
    /// bandwidth (the bandwidth-aware intra-node policy of Table 4).
    ///
    /// Exhaustive over subsets for small `n` (nodes have ≤ 8 GPUs, so the
    /// subset count is tiny); falls back to consolidated picking when no
    /// node fits.
    pub fn take_bandwidth_aware(&mut self, n: u32) -> Option<Vec<GpuGlobalId>> {
        if n <= 1 {
            return self.take_consolidated(n);
        }
        let mut best: Option<(f64, NodeId, Vec<GpuGlobalId>)> = None;
        for (&node, free) in &self.per_node {
            if (free.len() as u32) < n {
                continue;
            }
            let spec = &self.cluster.node(node).expect("pool nodes exist").spec;
            for subset in k_subsets(free, n as usize) {
                let mut sum = 0.0;
                let mut pairs = 0u32;
                for i in 0..subset.len() {
                    for j in (i + 1)..subset.len() {
                        let a = self.cluster.gpu(subset[i]).expect("gpu exists").local;
                        let b = self.cluster.gpu(subset[j]).expect("gpu exists").local;
                        sum += spec.intra_bw(a, b);
                        pairs += 1;
                    }
                }
                let mean = if pairs == 0 { 0.0 } else { sum / pairs as f64 };
                let better = match &best {
                    None => true,
                    Some((bw, bn, _)) => mean > *bw || (mean == *bw && node < *bn),
                };
                if better {
                    best = Some((mean, node, subset));
                }
            }
        }
        let (_, _, chosen) = best?;
        self.remove(&chosen);
        Some(chosen)
    }
}

/// Enumerate all `k`-element subsets of `items`, in lexicographic order.
fn k_subsets(items: &[GpuGlobalId], k: usize) -> Vec<Vec<GpuGlobalId>> {
    let mut out = Vec::new();
    if k == 0 || k > items.len() {
        return out;
    }
    let mut idx: Vec<usize> = (0..k).collect();
    loop {
        out.push(idx.iter().map(|&i| items[i]).collect());
        // Advance the combination.
        let mut i = k;
        loop {
            if i == 0 {
                return out;
            }
            i -= 1;
            if idx[i] != i + items.len() - k {
                break;
            }
        }
        if idx[i] == i + items.len() - k {
            return out;
        }
        idx[i] += 1;
        for j in (i + 1)..k {
            idx[j] = idx[j - 1] + 1;
        }
    }
}

/// How a planner should pick GPUs for one job.
pub enum PickStrategy {
    /// Strictly one node; skip the job this round if impossible.
    ConsolidatedStrict,
    /// One node if possible, else fewest nodes.
    ConsolidatedPreferred,
    /// Pack fragmented nodes first.
    Defragment,
    /// First free GPUs in global order.
    FirstFree,
    /// Single node, maximize intra-node pairwise bandwidth.
    BandwidthAware,
}

impl PickStrategy {
    fn pick(&self, pool: &mut FreePool<'_>, n: u32) -> Option<Vec<GpuGlobalId>> {
        match self {
            PickStrategy::ConsolidatedStrict => pool.take_consolidated(n),
            PickStrategy::ConsolidatedPreferred => pool.take_consolidated_or_spread(n),
            PickStrategy::Defragment => pool.take_defragmenting(n),
            PickStrategy::FirstFree => pool.take_first_free(n),
            PickStrategy::BandwidthAware => pool
                .take_bandwidth_aware(n)
                .or_else(|| pool.take_consolidated_or_spread(n)),
        }
    }
}

/// Phases 1 and 2 of every planner: grant, then keep or suspend.
///
/// Grants GPUs in the decision's priority order while capacity lasts. A
/// job that does not fit is passed over, so later, smaller jobs can fill
/// the hole. Zero-GPU entries, repeated ids and ids that are not active
/// (absent, done, terminated this round, `Failed`) are skipped. The walk
/// stops once the cluster is full, since no positive want fits after
/// that: it costs O(capacity), not O(waiting queue).
///
/// Then keeps every running job whose grant equals its current GPU count
/// and suspends the rest of the running set, handing their GPUs to the
/// returned pool. Returns the granted jobs left to launch (priority
/// order, with their GPU counts), that pool, and the jobs to suspend.
pub fn grant_and_keep<'a>(
    decision: &SchedulingDecision,
    job_state: &JobState,
    cluster: &'a ClusterState,
) -> (Vec<(JobId, u32)>, FreePool<'a>, Vec<JobId>) {
    let total = cluster.total_gpus();
    let mut granted: BTreeMap<JobId, u32> = BTreeMap::new();
    let mut order = Vec::new();
    let mut used = 0u32;
    for &(job, want) in &decision.allocations {
        if used == total {
            break;
        }
        if want == 0 || want > total - used || granted.contains_key(&job) {
            continue;
        }
        if !job_state.get(job).is_some_and(|j| j.status.is_active()) {
            continue;
        }
        granted.insert(job, want);
        order.push((job, want));
        used += want;
    }

    // Index-driven: O(running jobs), not O(active jobs). A kept job
    // leaves `granted`, so it is not launched again.
    let mut pool = FreePool::new(cluster);
    let mut to_suspend = Vec::new();
    for job in job_state.running() {
        if granted.get(&job.id) == Some(&(job.placement.len() as u32)) {
            granted.remove(&job.id);
        } else {
            to_suspend.push(job.id);
            pool.add(&job.placement);
        }
    }
    order.retain(|(job, _)| granted.contains_key(job));
    (order, pool, to_suspend)
}

/// Generic keep / suspend / launch planner shared by placement policies.
///
/// Grants, keeps and suspends via [`grant_and_keep`], then launches the
/// newly granted jobs in priority order using a per-job pick strategy.
/// `strategy_for` lets policies choose a different strategy per job
/// (Tiresias consolidates only high-skew jobs, for example).
pub fn plan_placement<F>(
    decision: &SchedulingDecision,
    job_state: &JobState,
    cluster: &ClusterState,
    mut strategy_for: F,
) -> Placement
where
    F: FnMut(JobId) -> PickStrategy,
{
    let (to_place, mut pool, to_suspend) = grant_and_keep(decision, job_state, cluster);
    let to_launch = to_place
        .into_iter()
        .filter_map(|(job, n)| Some((job, strategy_for(job).pick(&mut pool, n)?)))
        .collect();
    Placement {
        to_launch,
        to_suspend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::NodeSpec;
    use crate::job::{Job, JobStatus};
    use crate::profile::JobProfile;

    fn cluster(nodes: u32) -> ClusterState {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), nodes);
        c
    }

    fn job(id: u64, gpus: u32) -> Job {
        Job::new(
            JobId(id),
            0.0,
            gpus,
            100.0,
            JobProfile::synthetic("toy", 0.1),
        )
    }

    #[test]
    fn consolidated_best_fit_prefers_small_node() {
        let mut c = cluster(2);
        // Occupy 2 GPUs of node 0 so it has 2 free; node 1 has 4 free.
        let free = c.free_gpus();
        c.allocate(JobId(99), &free[..2], 4.0).unwrap();
        let mut pool = FreePool::new(&c);
        let got = pool.take_consolidated(2).unwrap();
        // Best fit: node 0 (2 free) rather than node 1 (4 free).
        assert!(got.iter().all(|g| c.gpu(*g).unwrap().node == NodeId(0)));
    }

    #[test]
    fn consolidated_strict_fails_when_fragmented() {
        let mut c = cluster(2);
        let free = c.free_gpus();
        // Leave 2 free on each node.
        c.allocate(JobId(99), &[free[0], free[1], free[4], free[5]], 4.0)
            .unwrap();
        let mut pool = FreePool::new(&c);
        assert!(pool.take_consolidated(4).is_none());
        let mut pool2 = FreePool::new(&c);
        let got = pool2.take_consolidated_or_spread(4).unwrap();
        assert_eq!(got.len(), 4);
    }

    #[test]
    fn defragment_picks_smallest_nodes_first() {
        let mut c = cluster(2);
        let free = c.free_gpus();
        // Node 0: 1 free, node 1: 4 free.
        c.allocate(JobId(99), &free[..3], 4.0).unwrap();
        let mut pool = FreePool::new(&c);
        let got = pool.take_defragmenting(1).unwrap();
        assert_eq!(c.gpu(got[0]).unwrap().node, NodeId(0));
    }

    #[test]
    fn first_free_follows_global_order() {
        let c = cluster(2);
        let mut pool = FreePool::new(&c);
        let got = pool.take_first_free(3).unwrap();
        assert_eq!(got, vec![GpuGlobalId(0), GpuGlobalId(1), GpuGlobalId(2)]);
    }

    #[test]
    fn bandwidth_aware_finds_nvlink_pair() {
        let c = cluster(1);
        let mut pool = FreePool::new(&c);
        let got = pool.take_bandwidth_aware(2).unwrap();
        let mut locals: Vec<u8> = got.iter().map(|g| c.gpu(*g).unwrap().local).collect();
        locals.sort_unstable();
        // Must be one of the 100 Gbps pairs: (0,3) or (1,2).
        assert!(locals == vec![0, 3] || locals == vec![1, 2], "{locals:?}");
    }

    #[test]
    fn add_ignores_duplicates_and_keeps_totals_exact() {
        let mut c = cluster(1);
        let free = c.free_gpus();
        c.allocate(JobId(7), &free[..2], 4.0).unwrap();
        let mut pool = FreePool::new(&c);
        assert_eq!(pool.total(), 2);
        // Suspending the job hands its GPUs back — once. A second add of
        // the same GPUs (and of GPUs already free) must be a no-op.
        pool.add(&free[..2]);
        assert_eq!(pool.total(), 4);
        pool.add(&free[..2]);
        pool.add(&free[2..]);
        assert_eq!(pool.total(), 4);
        assert_eq!(pool.on_node(NodeId(0)), &free[..]);
        // The re-added GPUs are pickable exactly once.
        let got = pool.take_consolidated(4).unwrap();
        assert_eq!(got, free);
        assert_eq!(pool.total(), 0);
    }

    #[test]
    fn add_skips_gpus_on_dead_nodes() {
        let mut c = cluster(2);
        let free = c.free_gpus();
        let dead_gpus: Vec<GpuGlobalId> = free[..4].to_vec();
        c.fail_node(NodeId(0)).unwrap();
        let mut pool = FreePool::new(&c);
        assert_eq!(pool.total(), 4);
        // A stale placement naming GPUs on the failed node must not leak
        // unschedulable GPUs into the pool (the free map tracks live
        // nodes only; the old `add` resurrected them).
        pool.add(&dead_gpus);
        assert_eq!(pool.total(), 4);
        assert!(pool.on_node(NodeId(0)).is_empty());
        let got = pool.take_consolidated_or_spread(4).unwrap();
        assert!(got.iter().all(|g| c.gpu(*g).unwrap().node == NodeId(1)));
        assert!(pool.take_first_free(1).is_none());
    }

    #[test]
    fn typed_consolidated_pick_respects_gpu_type() {
        use crate::cluster::GpuType;
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 1);
        c.add_nodes(&NodeSpec::p100_tiresias(), 1);
        let mut pool = FreePool::new(&c);
        let got = pool.take_consolidated_typed(GpuType::P100, 2).unwrap();
        assert!(got
            .iter()
            .all(|g| c.gpu(*g).unwrap().gpu_type == GpuType::P100));
        assert!(pool.take_consolidated_typed(GpuType::A100, 1).is_none());
        // Untyped best fit now prefers the partially drained P100 node.
        let untyped = pool.take_consolidated(2).unwrap();
        assert!(untyped
            .iter()
            .all(|g| c.gpu(*g).unwrap().gpu_type == GpuType::P100));
    }

    #[test]
    fn k_subsets_counts() {
        let items: Vec<GpuGlobalId> = (0..4).map(GpuGlobalId).collect();
        assert_eq!(k_subsets(&items, 2).len(), 6);
        assert_eq!(k_subsets(&items, 4).len(), 1);
        assert_eq!(k_subsets(&items, 5).len(), 0);
    }

    #[test]
    fn planner_keeps_matching_running_jobs() {
        let mut c = cluster(2);
        let mut js = JobState::new();
        let mut j1 = job(1, 2);
        j1.status = JobStatus::Running;
        let free = c.free_gpus();
        j1.placement = vec![free[0], free[1]];
        c.allocate(JobId(1), &j1.placement, 4.0).unwrap();
        js.add_new_jobs(vec![j1, job(2, 4)]);

        let decision = SchedulingDecision {
            allocations: vec![(JobId(1), 2), (JobId(2), 4)],
            ..Default::default()
        };
        let p = plan_placement(&decision, &js, &c, |_| PickStrategy::ConsolidatedPreferred);
        assert!(p.to_suspend.is_empty());
        assert_eq!(p.to_launch.len(), 1);
        assert_eq!(p.to_launch[0].0, JobId(2));
        assert_eq!(p.to_launch[0].1.len(), 4);
    }

    #[test]
    fn planner_suspends_descheduled_jobs_and_reuses_their_gpus() {
        let mut c = cluster(1);
        let mut js = JobState::new();
        let mut j1 = job(1, 4);
        j1.status = JobStatus::Running;
        j1.placement = c.free_gpus();
        c.allocate(JobId(1), &j1.placement, 4.0).unwrap();
        js.add_new_jobs(vec![j1, job(2, 4)]);

        // Only job 2 is scheduled this round.
        let decision = SchedulingDecision {
            allocations: vec![(JobId(2), 4)],
            ..Default::default()
        };
        let p = plan_placement(&decision, &js, &c, |_| PickStrategy::ConsolidatedPreferred);
        assert_eq!(p.to_suspend, vec![JobId(1)]);
        assert_eq!(p.to_launch.len(), 1);
        assert_eq!(p.to_launch[0].1.len(), 4);
    }

    #[test]
    fn planner_respects_capacity_in_priority_order() {
        let c = cluster(1); // 4 GPUs.
        let mut js = JobState::new();
        js.add_new_jobs(vec![job(1, 3), job(2, 2), job(3, 1)]);
        let decision = SchedulingDecision {
            allocations: vec![(JobId(1), 3), (JobId(2), 2), (JobId(3), 1)],
            ..Default::default()
        };
        let p = plan_placement(&decision, &js, &c, |_| PickStrategy::ConsolidatedPreferred);
        let launched: Vec<JobId> = p.to_launch.iter().map(|(j, _)| *j).collect();
        // Job 2 (2 GPUs) does not fit after job 1 (3 GPUs); job 3 does.
        assert_eq!(launched, vec![JobId(1), JobId(3)]);
    }
}
