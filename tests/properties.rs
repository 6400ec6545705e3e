//! Property-based tests (proptest) on core invariants.
//!
//! The `proptest!` block below pins an explicit RNG seed through
//! `ProptestConfig`, so every CI failure reproduces bit-for-bit from a
//! plain `cargo test`: the harness derives each test's stream from this
//! seed plus the test name, and the failure message echoes both.

use blox::core::cluster::{ClusterState, NodeSpec};
use blox::core::delta::StateDelta;
use blox::core::fault::{FaultEvent, FaultPlan, LinkFaults};
use blox::core::ids::{GpuGlobalId, JobId, NodeId};
use blox::core::job::JobStatus;
use blox::core::metrics::{cdf, percentile, RunStats};
use blox::core::policy::SchedulingPolicy;
use blox::core::profile::{JobProfile, PolluxProfile};
use blox::core::snapshot::Snapshot;
use blox::core::state::JobState;
use blox::core::Job;
use blox::policies::admission::ThresholdAdmission;
use blox::policies::scheduling::{Las, Srtf};
use blox::runtime::Message;
use blox::sim::{PerfModel, RateCache};
use proptest::prelude::*;

fn arb_message() -> impl Strategy<Value = Message> {
    prop_oneof![
        (any::<u32>(), any::<u32>()).prop_map(|(n, g)| Message::RegisterWorker {
            node: NodeId(n),
            gpus: g
        }),
        (
            any::<u64>(),
            proptest::collection::vec(any::<u8>(), 0..8),
            0.0f64..1e6,
            0.0f64..1e9,
            0.0f64..1e9,
            0.0f64..1e4,
            any::<bool>()
        )
            .prop_map(|(j, g, it, s, t, w, r)| Message::Launch {
                job: JobId(j),
                local_gpus: g,
                iter_time_s: it,
                start_iters: s,
                total_iters: t,
                warmup_s: w,
                is_rank0: r,
            }),
        any::<u64>().prop_map(|j| Message::Revoke { job: JobId(j) }),
        (any::<u64>(), any::<u64>()).prop_map(|(j, i)| Message::ExitAt {
            job: JobId(j),
            exit_iter: i
        }),
        (
            any::<u64>(),
            ".{0,32}",
            any::<f64>().prop_filter("finite", |v| v.is_finite())
        )
            .prop_map(|(j, k, v)| Message::PushMetric {
                job: JobId(j),
                key: k,
                value: v
            }),
        (any::<u64>(), 0.0f64..1e12).prop_map(|(j, t)| Message::JobDone {
            job: JobId(j),
            sim_time: t
        }),
        any::<u64>().prop_map(|j| Message::LeaseCheck { job: JobId(j) }),
        (any::<u64>(), any::<bool>()).prop_map(|(j, v)| Message::LeaseStatus {
            job: JobId(j),
            valid: v
        }),
        (any::<u64>(), 0.0f64..1e9).prop_map(|(j, i)| Message::Progress {
            job: JobId(j),
            iters: i
        }),
        (any::<u64>(), 0.0f64..1e9).prop_map(|(j, i)| Message::JobSuspended {
            job: JobId(j),
            iters: i
        }),
        Just(Message::Ack),
        (any::<u32>(), any::<u64>()).prop_map(|(n, s)| Message::Heartbeat {
            node: NodeId(n),
            seq: s
        }),
        (
            any::<u32>(),
            0.0f64..1e9,
            0.0f64..1.0,
            0.0f64..1e3,
            0.0f64..1e4,
            any::<u32>()
        )
            .prop_map(|(n, now, ts, ei, hb, pod)| Message::AssignNode {
                node: NodeId(n),
                now_sim: now,
                time_scale: ts,
                emu_iter_sim_s: ei,
                heartbeat_sim_s: hb,
                pod,
            }),
        (any::<u32>(), 0.0f64..1e9, ".{0,16}").prop_map(|(g, t, m)| Message::SubmitJob {
            gpus: g,
            total_iters: t,
            model: m
        }),
        any::<u64>().prop_map(|j| Message::JobAccepted { job: JobId(j) }),
        Just(Message::Shutdown),
    ]
}

/// Compile-time canary: adding a `Message` variant breaks this match,
/// forcing [`arb_message`] (and its sibling in
/// `crates/blox-runtime/tests/wire_proptest.rs`) to be extended —
/// `prop_oneof!` itself is not exhaustiveness-checked.
#[allow(dead_code)]
fn strategy_covers_every_variant(msg: &Message) {
    match msg {
        Message::RegisterWorker { .. }
        | Message::Launch { .. }
        | Message::Revoke { .. }
        | Message::ExitAt { .. }
        | Message::LeaseCheck { .. }
        | Message::LeaseStatus { .. }
        | Message::PushMetric { .. }
        | Message::Progress { .. }
        | Message::JobDone { .. }
        | Message::JobSuspended { .. }
        | Message::Ack
        | Message::Heartbeat { .. }
        | Message::AssignNode { .. }
        | Message::SubmitJob { .. }
        | Message::JobAccepted { .. }
        | Message::Shutdown => {}
    }
}

/// Build a scheduler snapshot from generated scalars, exercising every
/// encoded field class: mixed-liveness nodes, busy GPUs, jobs in every
/// status, a wait queue, and accumulated statistics.
fn build_snapshot(
    nodes: u32,
    job_specs: &[(u8, u32, f64, f64)],
    now: f64,
    fail_first_node: bool,
) -> Snapshot {
    let mut cluster = ClusterState::new();
    cluster.add_nodes(&NodeSpec::v100_p3_8xlarge(), nodes.max(1));
    let mut stats = RunStats::new();
    let mut active = JobState::new();
    let mut jobs = Vec::new();
    for (i, (status, gpus, total, frac)) in job_specs.iter().enumerate() {
        let mut job = Job::new(
            JobId(i as u64),
            i as f64 * 10.0,
            (*gpus).clamp(1, 4),
            total.max(1.0),
            JobProfile::synthetic(&format!("model-{i}"), 0.5),
        );
        job.completed_iters = frac.clamp(0.0, 1.0) * job.total_iters;
        job.push_metric("loss", *frac);
        match status % 5 {
            0 => job.status = JobStatus::Queued,
            1 => {
                let free = cluster.free_gpus();
                let want = job.requested_gpus as usize;
                if free.len() >= want {
                    cluster
                        .allocate(job.id, &free[..want], 4.0)
                        .expect("free GPUs allocate");
                    job.placement = free[..want].to_vec();
                    job.status = JobStatus::Running;
                    job.first_scheduled = Some(job.arrival_time);
                }
            }
            2 => {
                job.status = JobStatus::Suspended;
                job.preemptions = 1;
            }
            3 => {
                job.status = JobStatus::Completed;
                job.completion_time = Some(job.arrival_time + 500.0);
                stats.record_job(&job);
            }
            _ => {
                job.status = JobStatus::TerminatedEarly;
                job.completion_time = Some(job.arrival_time + 100.0);
                stats.record_job(&job);
            }
        }
        jobs.push(job);
    }
    active.add_new_jobs(jobs);
    active.prune_completed();
    if fail_first_node {
        let first = cluster.all_nodes().next().map(|n| n.id);
        if let Some(id) = first {
            let _ = cluster.fail_node(id);
        }
    }
    stats.record_round(
        cluster.total_gpus() - cluster.free_gpu_count(),
        cluster.total_gpus(),
        now,
    );
    let queue = vec![Job::new(
        JobId(900),
        now + 50.0,
        2,
        1000.0,
        JobProfile::synthetic("queued", 1.0),
    )];
    Snapshot {
        now,
        next_job: job_specs.len() as u64,
        expected_jobs: Some(job_specs.len() as u64 + 1),
        cluster,
        jobs: active,
        queue,
        stats,
    }
}

proptest! {
    #![proptest_config(ProptestConfig {
        // PROPTEST_CASES overrides (the nightly CI deep sweep).
        cases: ProptestConfig::env_cases(256),
        seed: 0xB10C_5EED_0000_0001,
    })]

    /// Every protocol message survives an encode/decode round trip.
    #[test]
    fn wire_codec_roundtrips(msg in arb_message()) {
        let frame = msg.encode();
        let back = Message::decode(&frame).expect("decode");
        prop_assert_eq!(msg, back);
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn wire_decode_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..128)) {
        let _ = Message::decode(&bytes);
    }

    /// Random allocate/release sequences keep the GPU table consistent and
    /// never double-book a GPU.
    #[test]
    fn gpu_accounting_is_consistent(ops in proptest::collection::vec((0u64..12, 1u32..6, any::<bool>()), 1..60)) {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 4);
        for (job, want, release) in ops {
            let id = JobId(job);
            if release {
                c.release(id);
            } else if c.gpus_of_job(id).is_empty() {
                let free = c.free_gpus();
                if free.len() >= want as usize {
                    c.allocate(id, &free[..want as usize], 4.0).expect("free GPUs allocate");
                }
            }
            c.check_invariants().expect("invariants");
            let busy: usize = c.gpus().filter(|g| g.job.is_some()).count();
            prop_assert_eq!(busy as u32 + c.free_gpu_count(), c.total_gpus());
        }
    }

    /// LAS emits jobs ordered by attained service.
    #[test]
    fn las_orders_by_service(services in proptest::collection::vec(0.0f64..1e6, 1..40)) {
        let mut js = JobState::new();
        let jobs: Vec<Job> = services.iter().enumerate().map(|(i, s)| {
            let mut j = Job::new(JobId(i as u64), 0.0, 1, 1e5, JobProfile::synthetic("p", 0.5));
            j.attained_service = *s;
            j
        }).collect();
        js.add_new_jobs(jobs);
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 1);
        let d = Las::new().schedule(&js, &c, 0.0);
        let ordered: Vec<f64> = d.allocations.iter()
            .map(|(id, _)| js.get(*id).unwrap().attained_service)
            .collect();
        prop_assert!(ordered.windows(2).all(|w| w[0] <= w[1]));
    }

    /// SRTF emits jobs ordered by estimated remaining time.
    #[test]
    fn srtf_orders_by_remaining(iters in proptest::collection::vec(1.0f64..1e6, 1..40)) {
        let mut js = JobState::new();
        let jobs: Vec<Job> = iters.iter().enumerate().map(|(i, it)| {
            Job::new(JobId(i as u64), 0.0, 1, *it, JobProfile::synthetic("p", 0.5))
        }).collect();
        js.add_new_jobs(jobs);
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 1);
        let d = Srtf::new().schedule(&js, &c, 0.0);
        let ordered: Vec<f64> = d.allocations.iter()
            .map(|(id, _)| js.get(*id).unwrap().estimated_remaining_time())
            .collect();
        prop_assert!(ordered.windows(2).all(|w| w[0] <= w[1]));
    }

    /// Threshold admission never lets admitted demand exceed its cap, and
    /// never loses a job (admitted + pending == offered).
    #[test]
    fn threshold_admission_respects_cap(demands in proptest::collection::vec(1u32..9, 1..50), factor in 1.0f64..2.0) {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 4); // 16 GPUs.
        let js = JobState::new();
        let jobs: Vec<Job> = demands.iter().enumerate().map(|(i, d)| {
            Job::new(JobId(i as u64), 0.0, *d, 1e4, JobProfile::synthetic("p", 0.5))
        }).collect();
        let offered = jobs.len();
        let mut adm = ThresholdAdmission::new(factor);
        let admitted = {
            use blox::core::policy::AdmissionPolicy;
            adm.admit(jobs, &js, &c, 0.0)
        };
        use blox::core::policy::AdmissionPolicy;
        let admitted_gpus: u32 = admitted.iter().map(|j| j.requested_gpus).sum();
        prop_assert!(admitted_gpus as f64 <= factor * 16.0 + 1e-9);
        prop_assert_eq!(admitted.len() + adm.pending(), offered);
    }

    /// `percentile` over a sorted slice is monotone in q and bounded by
    /// the extremes; `cdf` is a valid distribution function.
    #[test]
    fn percentile_and_cdf_are_well_formed(values in proptest::collection::vec(0.0f64..1e9, 1..100)) {
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let mut prev = f64::NEG_INFINITY;
        for i in 0..=20 {
            let q = i as f64 / 20.0;
            let p = percentile(&sorted, q);
            prop_assert!(p >= prev - 1e-9);
            prop_assert!(p >= sorted[0] - 1e-9 && p <= sorted[sorted.len() - 1] + 1e-9);
            prev = p;
        }
        let points = cdf(&values);
        prop_assert_eq!(points.len(), values.len());
        prop_assert!((points.last().unwrap().1 - 1.0).abs() < 1e-12);
        prop_assert!(points.windows(2).all(|w| w[0].0 <= w[1].0 && w[0].1 <= w[1].1));
    }

    /// Scheduler snapshots round-trip byte-deterministically: decoding an
    /// encoded snapshot and re-encoding it reproduces the exact bytes,
    /// for arbitrary mixes of cluster liveness, job status, allocations,
    /// and statistics (the crash-recovery correctness bedrock: what
    /// `--restore` reads is exactly what the checkpointer observed).
    #[test]
    fn snapshot_roundtrips_byte_identically(
        nodes in 1u32..4,
        job_specs in proptest::collection::vec((any::<u8>(), 1u32..5, 1.0f64..1e6, 0.0f64..1.0), 0..10),
        now in 0.0f64..1e7,
        fail_first in any::<bool>(),
    ) {
        let snap = build_snapshot(nodes, &job_specs, now, fail_first);
        let bytes = snap.encode();
        let back = Snapshot::decode(&bytes).expect("well-formed snapshot decodes");
        prop_assert_eq!(back.encode(), bytes);
        back.cluster.check_invariants().expect("restored cluster is consistent");
        prop_assert_eq!(back.jobs.total_seen(), snap.jobs.total_seen());
    }

    /// Truncating a snapshot anywhere yields `Err`, never a panic; the
    /// decoder must stay total on the exact bytes a crash mid-write (or a
    /// corrupt disk) could leave behind.
    #[test]
    fn truncated_snapshots_error_cleanly(
        job_specs in proptest::collection::vec((any::<u8>(), 1u32..5, 1.0f64..1e6, 0.0f64..1.0), 0..6),
        cuts in proptest::collection::vec(any::<u16>(), 1..32),
    ) {
        let bytes = build_snapshot(2, &job_specs, 1234.5, false).encode();
        for cut in cuts {
            let cut = cut as usize % bytes.len();
            prop_assert!(Snapshot::decode(&bytes[..cut]).is_err());
        }
    }

    /// Corrupting snapshot bytes never panics the decoder (it may decode
    /// to a different-but-valid snapshot or return `Err`).
    #[test]
    fn corrupted_snapshots_never_panic(
        job_specs in proptest::collection::vec((any::<u8>(), 1u32..5, 1.0f64..1e6, 0.0f64..1.0), 0..6),
        flips in proptest::collection::vec((any::<u32>(), any::<u8>()), 1..16),
    ) {
        let mut bytes = build_snapshot(1, &job_specs, 42.0, true).encode();
        for (pos, val) in flips {
            let idx = pos as usize % bytes.len();
            bytes[idx] = val;
        }
        let _ = Snapshot::decode(&bytes);
    }

    /// The indexed `ClusterState` agrees with the naive scan-based
    /// reference model on every observable query, after every operation
    /// of a random `add_node` / `allocate` / `release` / `fail_node` /
    /// `revive_node` sequence — and its maintained indexes verify against
    /// a from-scratch derivation (`check_invariants`) at every step. This
    /// is the model-based proof that the indexes are pure acceleration.
    #[test]
    fn indexed_cluster_matches_naive_reference(
        ops in proptest::collection::vec((0u8..5, 0u64..12, 1u32..6, 0u32..6), 1..80),
    ) {
        use blox_bench::naive::NaiveCluster;
        let spec = NodeSpec::v100_p3_8xlarge();
        let mut indexed = ClusterState::new();
        let mut naive = NaiveCluster::new();
        for _ in 0..3 {
            indexed.add_node(spec.clone());
            naive.add_node(&spec);
        }
        for (op, job, want, node_pick) in ops {
            let job = JobId(job);
            match op {
                0 => {
                    indexed.add_node(spec.clone());
                    naive.add_node(&spec);
                }
                1 => {
                    // Allocate onto the reference model's free list so both
                    // sides attempt the identical GPU set.
                    if indexed.gpus_of_job(job).is_empty() {
                        let free = naive.free_gpus();
                        if free.len() >= want as usize {
                            let take = &free[..want as usize];
                            indexed.allocate(job, take, 4.0).expect("free per model");
                            naive.allocate(job, take).expect("free per model");
                        }
                    }
                }
                2 => {
                    let a = indexed.release(job);
                    let b = naive.release(job);
                    prop_assert_eq!(a, b);
                }
                3 => {
                    let node = NodeId(node_pick % 4);
                    let a = indexed.fail_node(node);
                    let b = naive.fail_node(node);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                    if let (Ok(a), Ok(b)) = (a, b) {
                        prop_assert_eq!(a, b, "evicted job sets must agree");
                    }
                }
                _ => {
                    let node = NodeId(node_pick % 4);
                    let a = indexed.revive_node(node);
                    let b = naive.revive_node(node);
                    prop_assert_eq!(a.is_ok(), b.is_ok());
                }
            }
            // Every observable query agrees after every operation.
            prop_assert_eq!(indexed.total_gpus(), naive.total_gpus());
            prop_assert_eq!(indexed.free_gpu_count(), naive.free_gpu_count());
            prop_assert_eq!(indexed.free_gpus(), naive.free_gpus());
            for n in 0..6u32 {
                let node = NodeId(n);
                prop_assert_eq!(indexed.free_gpus_on(node).to_vec(), naive.free_gpus_on(node));
            }
            for j in 0..12u64 {
                let j = JobId(j);
                prop_assert_eq!(indexed.gpus_of_job(j).to_vec(), naive.gpus_of_job(j));
                prop_assert_eq!(indexed.job_gpu_count(j), naive.gpus_of_job(j).len());
            }
            indexed.check_invariants().expect("indexes stay in sync");
        }
    }

    /// The bucketed placement engine ([`FreePool`] over the maintained
    /// `PlacementIndex`) emits *bitwise-identical* GPU picks to the
    /// scan-based pre-bucket engine (`NaiveFreePool`) for every
    /// `PickStrategy` variant, across random cluster churn
    /// (allocate/release/fail/revive between rounds, invariant-checked)
    /// and random in-round pool op sequences (picks interleaved with
    /// `add`/`remove`) over pools rebuilt each round — the model-based
    /// proof that the bucketed index is pure acceleration of Place.
    #[test]
    fn bucketed_picks_match_scratch_freepool(
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u8..4, 0u64..16, 1u32..5, 0u32..6), 0..6),
             proptest::collection::vec((0u8..7, 1u32..7, any::<u64>()), 1..12)),
            1..8),
    ) {
        use blox::core::place_util::FreePool;
        use blox_bench::naive::NaiveFreePool;
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 4);
        c.add_nodes(&NodeSpec::p100_tiresias(), 2);
        let mut next_job = 0u64;
        for (churn, pool_ops) in rounds {
            // Between-round churn drives the cluster's persistent index
            // through the same mutators the round pipeline's delta ops
            // use; `check_invariants` re-derives the bucket index from
            // scratch and compares after every mutation.
            for (op, job, want, node_pick) in churn {
                match op {
                    0 => {
                        let id = JobId(next_job);
                        next_job += 1;
                        let free = c.free_gpus();
                        if free.len() >= want as usize {
                            c.allocate(id, &free[..want as usize], 4.0)
                                .expect("free GPUs allocate");
                        }
                    }
                    1 => {
                        c.release(JobId(job % next_job.max(1)));
                    }
                    2 => {
                        let _ = c.fail_node(NodeId(node_pick));
                    }
                    _ => {
                        let _ = c.revive_node(NodeId(node_pick));
                    }
                }
                c.check_invariants().expect("bucket index matches rebuild after churn");
            }
            // In-round: both engines see the identical pool and op
            // sequence; every pick must agree bitwise.
            let mut fast = FreePool::new(&c);
            let mut slow = NaiveFreePool::new(&c);
            let mut drained: Vec<GpuGlobalId> = Vec::new();
            for (op, n, pick) in pool_ops {
                match op {
                    // PickStrategy::ConsolidatedStrict
                    0 => {
                        let a = fast.take_consolidated(n);
                        let b = slow.take_consolidated(n);
                        prop_assert_eq!(&a, &b, "consolidated({}) diverged", n);
                        drained.extend(a.into_iter().flatten());
                    }
                    // PickStrategy::ConsolidatedPreferred
                    1 => {
                        let a = fast.take_consolidated_or_spread(n);
                        let b = slow.take_consolidated_or_spread(n);
                        prop_assert_eq!(&a, &b, "spread({}) diverged", n);
                        drained.extend(a.into_iter().flatten());
                    }
                    // PickStrategy::Defragment
                    2 => {
                        let a = fast.take_defragmenting(n);
                        let b = slow.take_defragmenting(n);
                        prop_assert_eq!(&a, &b, "defragment({}) diverged", n);
                        drained.extend(a.into_iter().flatten());
                    }
                    // PickStrategy::FirstFree
                    3 => {
                        let a = fast.take_first_free(n);
                        let b = slow.take_first_free(n);
                        prop_assert_eq!(&a, &b, "first_free({}) diverged", n);
                        drained.extend(a.into_iter().flatten());
                    }
                    // PickStrategy::BandwidthAware: the subset-scoring
                    // engine is unchanged (per-node map walk in both
                    // pools), so mirror its effect on the reference and
                    // check the fallback path on failure — exactly the
                    // strategy's `.or_else(spread)` composition.
                    4 => {
                        match fast.take_bandwidth_aware(n) {
                            Some(got) => {
                                slow.remove(&got);
                                drained.extend(got);
                            }
                            None => {
                                prop_assert!(
                                    (0..6).all(|i| (slow.on_node(NodeId(i)).len() as u32) < n),
                                    "bandwidth_aware({}) gave up with a fitting node", n
                                );
                                let a = fast.take_consolidated_or_spread(n);
                                let b = slow.take_consolidated_or_spread(n);
                                prop_assert_eq!(&a, &b, "bandwidth fallback({}) diverged", n);
                                drained.extend(a.into_iter().flatten());
                            }
                        }
                    }
                    // Suspension hands GPUs back mid-round (duplicates
                    // and repeats included — both pools must ignore them
                    // identically).
                    5 => {
                        if !drained.is_empty() {
                            let start = pick as usize % drained.len();
                            let end = (start + n as usize).min(drained.len());
                            let back: Vec<GpuGlobalId> = drained[start..end].to_vec();
                            fast.add(&back);
                            slow.add(&back);
                        }
                    }
                    // A kept job pins specific GPUs mid-round.
                    _ => {
                        let node = NodeId(pick as u32 % 6);
                        let take = (n as usize).min(slow.on_node(node).len());
                        let victims: Vec<GpuGlobalId> = slow.on_node(node)[..take].to_vec();
                        fast.remove(&victims);
                        slow.remove(&victims);
                        drained.extend(victims);
                    }
                }
                prop_assert_eq!(fast.total(), slow.total());
                for i in 0..6u32 {
                    let node = NodeId(i);
                    prop_assert_eq!(fast.on_node(node), slow.on_node(node));
                }
            }
        }
    }

    /// `JobState`'s status index sets stay consistent with a full scan
    /// under random `set_status` transitions, and index-driven iteration
    /// matches the scan-filter order exactly.
    #[test]
    fn job_state_indexes_match_scans(
        transitions in proptest::collection::vec((0u64..20, 0u8..6), 1..100),
    ) {
        let mut s = JobState::new();
        s.add_new_jobs((0..20).map(|i| {
            Job::new(JobId(i), i as f64, 1, 1e5, JobProfile::synthetic("p", 0.5))
        }).collect());
        for (id, status) in transitions {
            let status = match status {
                0 => JobStatus::Queued,
                1 => JobStatus::Running,
                2 => JobStatus::Suspended,
                3 => JobStatus::Completed,
                4 => JobStatus::TerminatedEarly,
                _ => JobStatus::Failed,
            };
            if s.get(JobId(id)).is_some() {
                s.set_status(JobId(id), status).expect("active job");
            }
            s.check_invariants().expect("index sets match scans");
            let running_scan: Vec<JobId> = s.active()
                .filter(|j| j.status == JobStatus::Running).map(|j| j.id).collect();
            let running_idx: Vec<JobId> = s.running().map(|j| j.id).collect();
            prop_assert_eq!(running_idx, running_scan);
            let waiting_scan: Vec<JobId> = s.active()
                .filter(|j| matches!(j.status, JobStatus::Queued | JobStatus::Suspended))
                .map(|j| j.id).collect();
            let waiting_idx: Vec<JobId> = s.waiting().map(|j| j.id).collect();
            prop_assert_eq!(waiting_idx, waiting_scan);
            prop_assert_eq!(s.running_count(), s.running().count());
        }
        // Pruning drains exactly the done set, in id order.
        let done_scan: Vec<JobId> = s.active()
            .filter(|j| j.status.is_done()).map(|j| j.id).collect();
        prop_assert_eq!(s.prune_completed(), done_scan);
        s.check_invariants().expect("index sets after prune");
    }

    /// A delta-fed Tiresias (incremental order cache) emits byte-identical
    /// decisions to a fresh instance that re-sorts the world each round,
    /// across random admission/completion/progress interleavings.
    #[test]
    fn cached_tiresias_matches_full_sort(
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u64..500, 0.0f64..1e5), 0..4),
             proptest::collection::vec(0u64..64, 0..3),
             proptest::collection::vec((0u64..64, 0.0f64..8000.0), 0..6)),
            1..30),
    ) {
        use blox::core::policy::SchedulingPolicy;
        use blox::policies::scheduling::Tiresias;
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 2);
        let mut js = JobState::new();
        let mut cached = Tiresias::new();
        let mut next_id = 0u64;
        for (admit, complete, progress) in rounds {
            let mut delta = StateDelta::new();
            // Completions first (the pipeline prunes before admitting).
            for pick in complete {
                let ids: Vec<JobId> = js.active().map(|j| j.id).collect();
                if ids.is_empty() { continue; }
                let id = ids[pick as usize % ids.len()];
                js.set_status(id, JobStatus::Completed).expect("active");
            }
            delta.completed = js.prune_completed();
            // Admissions.
            let mut batch = Vec::new();
            for (_, arrival) in admit {
                let id = JobId(next_id);
                next_id += 1;
                batch.push(Job::new(id, arrival, 1, 1e6, JobProfile::synthetic("p", 0.5)));
                delta.admitted.push(id);
            }
            js.add_new_jobs(batch);
            // Service accrual (may cross Tiresias queue thresholds).
            for (pick, add) in progress {
                let ids: Vec<JobId> = js.active().map(|j| j.id).collect();
                if ids.is_empty() { continue; }
                let id = ids[pick as usize % ids.len()];
                js.get_mut(id).expect("active").attained_service += add;
            }
            cached.observe_delta(&delta, &js);
            let fast = cached.schedule(&js, &c, 0.0);
            let slow = Tiresias::new().schedule(&js, &c, 0.0);
            prop_assert_eq!(fast, slow, "cached order diverged from full sort");
        }
    }

    /// A delta-fed Fifo (the same incremental order cache) emits
    /// byte-identical decisions to a fresh instance that re-sorts the
    /// world each round, across random admission/completion interleavings
    /// and arrival-time rewrites (untracked key movement forces the
    /// repair sort).
    #[test]
    fn cached_fifo_matches_full_sort(
        rounds in proptest::collection::vec(
            (proptest::collection::vec((0u64..500, 0.0f64..1e5), 0..4),
             proptest::collection::vec(0u64..64, 0..3),
             proptest::collection::vec((0u64..64, 0.0f64..1e5), 0..2)),
            1..30),
    ) {
        use blox::core::policy::SchedulingPolicy;
        use blox::policies::scheduling::Fifo;
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 2);
        let mut js = JobState::new();
        let mut cached = Fifo::new();
        let mut next_id = 0u64;
        for (admit, complete, moves) in rounds {
            let mut delta = StateDelta::new();
            // Completions first (the pipeline prunes before admitting).
            for pick in complete {
                let ids: Vec<JobId> = js.active().map(|j| j.id).collect();
                if ids.is_empty() { continue; }
                let id = ids[pick as usize % ids.len()];
                js.set_status(id, JobStatus::Completed).expect("active");
            }
            delta.completed = js.prune_completed();
            // Admissions.
            let mut batch = Vec::new();
            for (_, arrival) in admit {
                let id = JobId(next_id);
                next_id += 1;
                batch.push(Job::new(id, arrival, 1, 1e6, JobProfile::synthetic("p", 0.5)));
                delta.admitted.push(id);
            }
            js.add_new_jobs(batch);
            // Key movement the delta does not report.
            for (pick, arrival) in moves {
                let ids: Vec<JobId> = js.active().map(|j| j.id).collect();
                if ids.is_empty() { continue; }
                let id = ids[pick as usize % ids.len()];
                js.get_mut(id).expect("active").arrival_time = arrival;
            }
            cached.observe_delta(&delta, &js);
            let fast = cached.schedule(&js, &c, 0.0);
            let slow = Fifo::new().schedule(&js, &c, 0.0);
            prop_assert_eq!(fast, slow, "cached order diverged from full sort");
        }
    }

    /// The capacity-bounded planner (`plan_placement`: one grant walk
    /// that skips inactive ids and stops once the cluster is full) emits
    /// the identical plan to the pre-bound path (`naive_plan_placement`:
    /// the manager's `retain(is_active)` plus a walk over the whole
    /// decision, picks from the scan-based pool). Decisions mix GPU wants
    /// so late small jobs fill holes after a large job is skipped, and
    /// name duplicate ids, absent ids, and jobs that are running,
    /// suspended, terminated this round, failed, or done.
    #[test]
    fn capacity_bounded_plan_matches_naive_walk(
        jobs in proptest::collection::vec((0usize..8, 0u8..6), 1..24),
        allocations in proptest::collection::vec((0u64..30, 0usize..8), 0..48),
        salt in 0u64..4,
    ) {
        use blox::core::place_util::{plan_placement, PickStrategy};
        use blox::core::policy::SchedulingDecision;
        use blox_bench::naive::naive_plan_placement;
        const WANTS: [u32; 8] = [0, 1, 2, 3, 4, 6, 8, 16];
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 3);
        c.add_nodes(&NodeSpec::p100_tiresias(), 1);
        let mut js = JobState::new();
        for (i, (want, status)) in jobs.into_iter().enumerate() {
            let id = JobId(i as u64);
            let gpus = WANTS[want].max(1);
            let mut job = Job::new(id, i as f64, gpus, 1e5, JobProfile::synthetic("p", 0.5));
            job.status = match status {
                0 => JobStatus::Queued,
                1 => {
                    let free = c.free_gpus();
                    if free.len() >= gpus as usize {
                        job.placement = free[..gpus as usize].to_vec();
                        c.allocate(id, &job.placement, 4.0).expect("free GPUs allocate");
                        JobStatus::Running
                    } else {
                        JobStatus::Queued
                    }
                }
                2 => JobStatus::Suspended,
                // Terminated by the policy this round: GPUs released,
                // placement cleared, not yet pruned.
                3 => JobStatus::TerminatedEarly,
                4 => JobStatus::Failed,
                _ => JobStatus::Completed,
            };
            js.add_new_jobs(vec![job]);
        }
        let decision = SchedulingDecision {
            allocations: allocations
                .into_iter()
                .map(|(id, want)| (JobId(id), WANTS[want]))
                .collect(),
            ..Default::default()
        };
        let strategy = |id: JobId| match (id.0 + salt) % 4 {
            0 => PickStrategy::ConsolidatedStrict,
            1 => PickStrategy::ConsolidatedPreferred,
            2 => PickStrategy::Defragment,
            _ => PickStrategy::FirstFree,
        };
        let fast = plan_placement(&decision, &js, &c, strategy);
        let slow = naive_plan_placement(&decision, &js, &c, strategy);
        prop_assert_eq!(fast, slow, "capacity-bounded plan diverged from the full walk");
    }

    /// The incremental rate cache stays *bitwise* equal to a from-scratch
    /// `PerfModel::progress_rates` recompute across random op sequences:
    /// launches, suspensions, completions, Pollux retunes, and node
    /// churn hitting mid-round (placements not yet requeued) — the same
    /// model as the indexed-vs-naive cluster check above.
    #[test]
    fn cached_rates_match_scratch_recompute(
        ops in proptest::collection::vec((0u8..6, any::<u64>(), 1u8..5), 1..40),
    ) {
        let mut c = ClusterState::new();
        c.add_nodes(&NodeSpec::v100_p3_8xlarge(), 3);
        c.add_nodes(&NodeSpec::p100_tiresias(), 1);
        let mut js = JobState::new();
        let perf = PerfModel::default();
        let mut cache = RateCache::new().with_threads(1);
        let mut next_id = 0u64;
        for (op, pick, size) in ops {
            match op {
                // Launch a new job; profile class varies with the id so
                // Pollux keys, CPU contention, and plain iteration models
                // all appear in one run.
                0 => {
                    let free = c.free_gpus();
                    let want = (size as usize).min(free.len());
                    if want > 0 {
                        let id = JobId(next_id);
                        next_id += 1;
                        let mut p = match id.0 % 3 {
                            0 => {
                                let mut p = JobProfile::synthetic("hungry", 0.2);
                                p.cpus_per_gpu = 16.0;
                                p.cpu_sensitivity = 0.6;
                                p
                            }
                            1 => JobProfile::synthetic("plain", 0.3),
                            _ => JobProfile::synthetic("pollux", 0.2),
                        };
                        if id.0 % 3 == 2 {
                            p.pollux = Some(PolluxProfile {
                                t_grad_per_sample: 0.002,
                                t_sync: 0.02,
                                init_batch: 64,
                                max_batch: 2048,
                                gns: 400.0,
                            });
                        }
                        let mut j = Job::new(id, 0.0, want as u32, 1e9, p);
                        j.placement = free[..want].to_vec();
                        j.status = JobStatus::Running;
                        c.allocate(id, &free[..want], 4.0).expect("free GPUs allocate");
                        js.add_new_jobs(vec![j]);
                        cache.invalidate_job(id);
                    }
                }
                // Suspend a running job.
                1 => {
                    let ids: Vec<JobId> = js.running_ids().iter().copied().collect();
                    if !ids.is_empty() {
                        let id = ids[pick as usize % ids.len()];
                        c.release(id);
                        js.get_mut(id).expect("running").placement.clear();
                        js.set_status(id, JobStatus::Suspended).expect("running");
                        cache.invalidate_job(id);
                    }
                }
                // Complete (and prune) a running job.
                2 => {
                    let ids: Vec<JobId> = js.running_ids().iter().copied().collect();
                    if !ids.is_empty() {
                        let id = ids[pick as usize % ids.len()];
                        c.release(id);
                        js.get_mut(id).expect("running").placement.clear();
                        js.set_status(id, JobStatus::Completed).expect("running");
                        js.prune_completed();
                        cache.invalidate_job(id);
                    }
                }
                // Retune a Pollux job's batch size (rate change, no
                // placement change).
                3 => {
                    let pollux: Vec<JobId> = js.running()
                        .filter(|j| j.profile.pollux.is_some())
                        .map(|j| j.id)
                        .collect();
                    if !pollux.is_empty() {
                        let id = pollux[pick as usize % pollux.len()];
                        js.get_mut(id).expect("running").batch_size = 64u64 << (size % 5);
                        cache.invalidate_job(id);
                    }
                }
                // Fail an alive node *without* requeueing its jobs — the
                // mid-churn window the liveness fix covers.
                4 => {
                    let alive: Vec<NodeId> = c.all_nodes()
                        .filter(|n| n.alive)
                        .map(|n| n.id)
                        .collect();
                    if !alive.is_empty() {
                        let node = alive[pick as usize % alive.len()];
                        c.fail_node(node).expect("alive node fails");
                        cache.invalidate_node(node);
                    }
                }
                // Revive a dead node (exercises the degraded-entry path).
                _ => {
                    let dead: Vec<NodeId> = c.all_nodes()
                        .filter(|n| !n.alive)
                        .map(|n| n.id)
                        .collect();
                    if !dead.is_empty() {
                        let node = dead[pick as usize % dead.len()];
                        c.revive_node(node).expect("dead node revives");
                        cache.invalidate_node(node);
                    }
                }
            }
            let cached = cache.update(&perf, &js, &c).clone();
            let scratch = perf.progress_rates(&js, &c);
            prop_assert_eq!(cached.len(), scratch.len());
            for (id, rate) in &scratch {
                prop_assert_eq!(
                    cached[id].to_bits(), rate.to_bits(),
                    "job {:?}: cached {} vs scratch {}", id, cached[id], rate
                );
            }
        }
    }

    /// Fault plans are pure functions of `(seed, link)`: equal pairs give
    /// equal verdict streams, and scripted partitions black-hole every
    /// message inside their window regardless of the random draws.
    #[test]
    fn fault_plans_are_deterministic_and_partition_totally(
        seed in any::<u64>(),
        drop_p in 0.0f64..1.0,
        dup_p in 0.0f64..1.0,
        reorder_p in 0.0f64..1.0,
        delay_s in 0.0f64..1e4,
        part_from in 0.0f64..1e4,
        part_len in 1.0f64..1e4,
    ) {
        let plan = FaultPlan::new(seed)
            .with_base(LinkFaults { delay_s, drop_p, dup_p, reorder_p })
            .with_event(FaultEvent::Partition { from: part_from, until: part_from + part_len });
        let mut a = plan.state(1);
        let mut b = plan.state(1);
        for i in 0..128 {
            let t = i as f64 * 100.0;
            let (va, vb) = (a.verdict(t), b.verdict(t));
            prop_assert_eq!(va, vb);
            if t >= part_from && t < part_from + part_len {
                prop_assert_eq!(va, blox::core::fault::FaultVerdict::Drop);
            }
        }
    }
}
