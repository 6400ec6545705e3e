//! Scan-based reference model of the cluster state layer.
//!
//! [`NaiveCluster`] preserves the **pre-index** `ClusterState`
//! implementation: a node map and a GPU table with every query answered
//! by a full-table scan and every `free_gpus`/`gpus_of_job` call
//! materializing a fresh `Vec` — exactly the code the indexed state layer
//! replaced. It exists for two reasons:
//!
//! 1. **Model-based testing**: the root property suite drives random
//!    `add_node` / `allocate` / `release` / `fail_node` / `revive_node`
//!    sequences through both implementations and asserts every observable
//!    query agrees (`tests/properties.rs`).
//! 2. **The scale benchmark**: `blox-bench --bin scale` measures the
//!    per-round cost of the state layer at production scale through both
//!    implementations; the naive one *is* the pre-refactor code path.
//!
//! [`NaiveFreePool`] and [`naive_plan_placement`] do the same for the
//! placement engine and the planner's grant walk.

use std::collections::BTreeMap;

use blox_core::cluster::{ClusterState, GpuState, NodeSpec};
use blox_core::error::{BloxError, Result};
use blox_core::ids::{GpuGlobalId, JobId, NodeId};
use blox_core::place_util::PickStrategy;
use blox_core::policy::{Placement, SchedulingDecision};
use blox_core::state::JobState;

/// One GPU row of the naive table (the fields the scans touch).
#[derive(Debug, Clone)]
pub struct NaiveGpu {
    /// Row key.
    pub id: GpuGlobalId,
    /// Hosting node.
    pub node: NodeId,
    /// Allocation state.
    pub state: GpuState,
    /// Assigned job, if any.
    pub job: Option<JobId>,
}

/// One node of the naive model.
#[derive(Debug, Clone)]
pub struct NaiveNode {
    /// Node key.
    pub id: NodeId,
    /// GPUs installed.
    pub gpus: u32,
    /// Liveness flag.
    pub alive: bool,
}

/// The scan-everything reference cluster (pre-refactor semantics).
#[derive(Debug, Clone, Default)]
pub struct NaiveCluster {
    nodes: BTreeMap<NodeId, NaiveNode>,
    gpus: BTreeMap<GpuGlobalId, NaiveGpu>,
    next_node: u32,
    next_gpu: u32,
}

impl NaiveCluster {
    /// Empty cluster.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one node of the given spec; returns its id.
    pub fn add_node(&mut self, spec: &NodeSpec) -> NodeId {
        let id = NodeId(self.next_node);
        self.next_node += 1;
        for _ in 0..spec.gpus {
            let gid = GpuGlobalId(self.next_gpu);
            self.next_gpu += 1;
            self.gpus.insert(
                gid,
                NaiveGpu {
                    id: gid,
                    node: id,
                    state: GpuState::Free,
                    job: None,
                },
            );
        }
        self.nodes.insert(
            id,
            NaiveNode {
                id,
                gpus: spec.gpus,
                alive: true,
            },
        );
        id
    }

    fn alive(&self, node: NodeId) -> bool {
        self.nodes.get(&node).map(|n| n.alive).unwrap_or(false)
    }

    /// GPU rows on live nodes, in global-id order (full scan).
    fn live_gpus(&self) -> impl Iterator<Item = &NaiveGpu> {
        self.gpus.values().filter(|g| self.alive(g.node))
    }

    /// Total GPUs on live nodes (full scan).
    pub fn total_gpus(&self) -> u32 {
        self.live_gpus().count() as u32
    }

    /// Free GPUs on live nodes (full scan, fresh `Vec` per call).
    pub fn free_gpus(&self) -> Vec<GpuGlobalId> {
        self.live_gpus()
            .filter(|g| g.state == GpuState::Free)
            .map(|g| g.id)
            .collect()
    }

    /// Count of free GPUs on live nodes (full scan).
    pub fn free_gpu_count(&self) -> u32 {
        self.live_gpus()
            .filter(|g| g.state == GpuState::Free)
            .count() as u32
    }

    /// Free GPUs on one node (full scan, fresh `Vec` per call).
    pub fn free_gpus_on(&self, node: NodeId) -> Vec<GpuGlobalId> {
        self.live_gpus()
            .filter(|g| g.node == node && g.state == GpuState::Free)
            .map(|g| g.id)
            .collect()
    }

    /// GPUs assigned to a job (full scan, fresh `Vec` per call).
    pub fn gpus_of_job(&self, job: JobId) -> Vec<GpuGlobalId> {
        self.gpus
            .values()
            .filter(|g| g.job == Some(job))
            .map(|g| g.id)
            .collect()
    }

    /// The per-node free lists, derived by the scan the pre-refactor
    /// `FreePool::new` performed every placement call.
    pub fn free_pool(&self) -> BTreeMap<NodeId, Vec<GpuGlobalId>> {
        let mut per_node: BTreeMap<NodeId, Vec<GpuGlobalId>> = BTreeMap::new();
        for gpu in self.live_gpus().filter(|g| g.state == GpuState::Free) {
            per_node.entry(gpu.node).or_default().push(gpu.id);
        }
        per_node
    }

    /// Assign GPUs to a job; fails atomically on busy/unknown GPUs.
    pub fn allocate(&mut self, job: JobId, gpus: &[GpuGlobalId]) -> Result<()> {
        for g in gpus {
            let row = self.gpus.get(g).ok_or(BloxError::UnknownGpu(*g))?;
            if row.state == GpuState::Busy {
                return Err(BloxError::GpuBusy(*g, job));
            }
        }
        for g in gpus {
            let row = self.gpus.get_mut(g).expect("validated above");
            row.state = GpuState::Busy;
            row.job = Some(job);
        }
        Ok(())
    }

    /// Release every GPU of a job (full scan); returns the freed ids.
    pub fn release(&mut self, job: JobId) -> Vec<GpuGlobalId> {
        let mut freed = Vec::new();
        for row in self.gpus.values_mut() {
            if row.job == Some(job) {
                row.job = None;
                row.state = GpuState::Free;
                freed.push(row.id);
            }
        }
        freed
    }

    /// Fail a node; returns the evicted jobs (scan over the GPU table).
    pub fn fail_node(&mut self, id: NodeId) -> Result<Vec<JobId>> {
        let node = self.nodes.get_mut(&id).ok_or(BloxError::UnknownNode(id))?;
        node.alive = false;
        let mut evicted = Vec::new();
        for gpu in self.gpus.values_mut().filter(|g| g.node == id) {
            if let Some(job) = gpu.job.take() {
                if !evicted.contains(&job) {
                    evicted.push(job);
                }
            }
            gpu.state = GpuState::Free;
        }
        Ok(evicted)
    }

    /// Revive a failed node.
    pub fn revive_node(&mut self, id: NodeId) -> Result<()> {
        let node = self.nodes.get_mut(&id).ok_or(BloxError::UnknownNode(id))?;
        node.alive = true;
        Ok(())
    }
}

/// Scan-based reference of the **pre-bucket** `FreePool` pick engine.
///
/// Preserves the pick algorithms the bucketed
/// [`blox_core::place_index::PlacementIndex`] replaced, verbatim:
/// best-fit consolidation as a `min_by_key` over every node, spread and
/// defragment as full sorts of the node list, first-free as a flatten +
/// global sort. Two consumers:
///
/// 1. **Model-based testing**: `tests/properties.rs` runs random op
///    sequences through this pool and the bucketed `FreePool` side by
///    side and asserts bitwise-identical GPU picks.
/// 2. **The scale benchmark**: `blox-bench --bin scale` prices a
///    placement round through both engines; this one *is* the old Place
///    wall.
///
/// Seeding and `add`/`remove` semantics match the current `FreePool`
/// (live nodes only, duplicate adds ignored) so that any differential
/// test divergence isolates the *pick* engines.
pub struct NaiveFreePool<'a> {
    cluster: &'a ClusterState,
    per_node: BTreeMap<NodeId, Vec<GpuGlobalId>>,
}

impl<'a> NaiveFreePool<'a> {
    /// Seed from the cluster's free map, exactly like `FreePool::new`.
    pub fn new(cluster: &'a ClusterState) -> Self {
        NaiveFreePool {
            cluster,
            per_node: cluster.free_map().clone(),
        }
    }

    /// Add GPUs back to the pool (old implementation shape: membership
    /// test + re-sort), skipping dead nodes like the current pool.
    pub fn add(&mut self, gpus: &[GpuGlobalId]) {
        for g in gpus {
            if let Some(row) = self.cluster.gpu(*g) {
                if !self.cluster.node(row.node).is_some_and(|n| n.alive) {
                    continue;
                }
                let list = self.per_node.entry(row.node).or_default();
                if !list.contains(g) {
                    list.push(*g);
                    list.sort_unstable();
                }
            }
        }
    }

    /// Remove specific GPUs from the pool (linear `retain` per GPU).
    pub fn remove(&mut self, gpus: &[GpuGlobalId]) {
        for g in gpus {
            if let Some(row) = self.cluster.gpu(*g) {
                if let Some(list) = self.per_node.get_mut(&row.node) {
                    list.retain(|x| x != g);
                }
            }
        }
    }

    /// Total free GPUs remaining (full walk of the node map).
    pub fn total(&self) -> u32 {
        self.per_node.values().map(|v| v.len() as u32).sum()
    }

    /// Free GPUs on one node.
    pub fn on_node(&self, node: NodeId) -> &[GpuGlobalId] {
        self.per_node
            .get(&node)
            .map(|v| v.as_slice())
            .unwrap_or(&[])
    }

    fn take_from_node(&mut self, node: NodeId, n: usize) -> Vec<GpuGlobalId> {
        let list = self.per_node.entry(node).or_default();
        list.drain(..n.min(list.len())).collect()
    }

    /// Best-fit consolidation as a scan over every node.
    pub fn take_consolidated(&mut self, n: u32) -> Option<Vec<GpuGlobalId>> {
        let n = n as usize;
        let node = self
            .per_node
            .iter()
            .filter(|(_, v)| v.len() >= n)
            .min_by_key(|(id, v)| (v.len(), **id))
            .map(|(id, _)| *id)?;
        Some(self.take_from_node(node, n))
    }

    /// Consolidated if possible, else a full sort of the node list
    /// (largest free counts first) drained in order.
    pub fn take_consolidated_or_spread(&mut self, n: u32) -> Option<Vec<GpuGlobalId>> {
        if let Some(got) = self.take_consolidated(n) {
            return Some(got);
        }
        if self.total() < n {
            return None;
        }
        let mut order: Vec<(usize, NodeId)> =
            self.per_node.iter().map(|(id, v)| (v.len(), *id)).collect();
        order.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
        let mut out = Vec::new();
        let mut need = n as usize;
        for (_, node) in order {
            if need == 0 {
                break;
            }
            let got = self.take_from_node(node, need);
            need -= got.len();
            out.extend(got);
        }
        Some(out)
    }

    /// Anti-fragmentation picking as a full sort (fewest free first).
    pub fn take_defragmenting(&mut self, n: u32) -> Option<Vec<GpuGlobalId>> {
        if self.total() < n {
            return None;
        }
        let mut order: Vec<(usize, NodeId)> = self
            .per_node
            .iter()
            .filter(|(_, v)| !v.is_empty())
            .map(|(id, v)| (v.len(), *id))
            .collect();
        order.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.cmp(&b.1)));
        let mut out = Vec::new();
        let mut need = n as usize;
        for (_, node) in order {
            if need == 0 {
                break;
            }
            let got = self.take_from_node(node, need);
            need -= got.len();
            out.extend(got);
        }
        Some(out)
    }

    /// First-free as a flatten of every free list plus a global sort.
    pub fn take_first_free(&mut self, n: u32) -> Option<Vec<GpuGlobalId>> {
        if self.total() < n {
            return None;
        }
        let mut all: Vec<GpuGlobalId> = self
            .per_node
            .values()
            .flat_map(|v| v.iter().copied())
            .collect();
        all.sort_unstable();
        let chosen: Vec<GpuGlobalId> = all.into_iter().take(n as usize).collect();
        self.remove(&chosen);
        Some(chosen)
    }
}

/// Reference of the **pre-bound** keep / suspend / launch planner.
///
/// A verbatim port of the round path the capacity-bounded
/// [`blox_core::place_util::plan_placement`] replaced: the manager's
/// `allocations.retain(is_active)` pass, then the grant walk over the
/// whole decision (no stop once the cluster is full), with picks served
/// by [`NaiveFreePool`]. `tests/properties.rs` asserts both planners emit
/// identical plans. `BandwidthAware` has no scan-based engine here and
/// panics.
pub fn naive_plan_placement<F>(
    decision: &SchedulingDecision,
    job_state: &JobState,
    cluster: &ClusterState,
    mut strategy_for: F,
) -> Placement
where
    F: FnMut(JobId) -> PickStrategy,
{
    let mut decision = decision.clone();
    decision.allocations.retain(|(id, _)| {
        job_state
            .get(*id)
            .map(|j| j.status.is_active())
            .unwrap_or(false)
    });

    let total = cluster.total_gpus();
    let mut granted: BTreeMap<JobId, u32> = BTreeMap::new();
    let mut order: Vec<JobId> = Vec::new();
    let mut used = 0u32;
    for (job, want) in &decision.allocations {
        if *want == 0 || granted.contains_key(job) {
            continue;
        }
        if job_state.get(*job).is_none() {
            continue;
        }
        if used + *want <= total {
            granted.insert(*job, *want);
            order.push(*job);
            used += *want;
        }
    }

    let mut pool = NaiveFreePool::new(cluster);
    let mut to_suspend = Vec::new();
    let mut kept: BTreeMap<JobId, bool> = BTreeMap::new();
    for job in job_state.running() {
        let keep = granted.get(&job.id).copied() == Some(job.placement.len() as u32);
        if keep {
            kept.insert(job.id, true);
        } else {
            to_suspend.push(job.id);
            pool.add(&job.placement);
        }
    }

    let mut to_launch = Vec::new();
    for job in order {
        if kept.contains_key(&job) {
            continue;
        }
        let n = granted[&job];
        let gpus = match strategy_for(job) {
            PickStrategy::ConsolidatedStrict => pool.take_consolidated(n),
            PickStrategy::ConsolidatedPreferred => pool.take_consolidated_or_spread(n),
            PickStrategy::Defragment => pool.take_defragmenting(n),
            PickStrategy::FirstFree => pool.take_first_free(n),
            PickStrategy::BandwidthAware => {
                unimplemented!("no scan-based bandwidth-aware engine")
            }
        };
        if let Some(gpus) = gpus {
            to_launch.push((job, gpus));
        }
    }

    Placement {
        to_launch,
        to_suspend,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_model_basics() {
        let mut c = NaiveCluster::new();
        let spec = NodeSpec::v100_p3_8xlarge();
        let n0 = c.add_node(&spec);
        c.add_node(&spec);
        assert_eq!(c.total_gpus(), 8);
        let free = c.free_gpus();
        c.allocate(JobId(1), &free[..2]).unwrap();
        assert_eq!(c.free_gpu_count(), 6);
        assert_eq!(c.gpus_of_job(JobId(1)).len(), 2);
        let evicted = c.fail_node(n0).unwrap();
        assert_eq!(evicted, vec![JobId(1)]);
        assert_eq!(c.total_gpus(), 4);
        c.revive_node(n0).unwrap();
        assert_eq!(c.free_gpu_count(), 8);
        assert_eq!(c.release(JobId(1)), vec![]);
    }
}
