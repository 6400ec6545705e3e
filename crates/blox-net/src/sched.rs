//! The central-scheduler side of the networked deployment.
//!
//! [`NetBackend`] implements `blox_core::manager::Backend`, so the
//! unchanged scheduling loop — and every existing admission, scheduling,
//! and placement policy — drives a cluster of real `bloxnoded` processes
//! over TCP:
//!
//! * an accept thread takes worker and client connections on an
//!   ephemeral loopback port (`127.0.0.1:0` by default) and registers
//!   them with the backend's event loop, which decodes their messages
//!   into one event channel;
//! * worker registrations grow the shared [`ClusterState`] and are answered
//!   with an [`Message::AssignNode`] carrying identity, a clock-sync point,
//!   and the heartbeat contract;
//! * a missed-heartbeat (or dropped-link) verdict feeds cluster churn:
//!   `fail_node` hides the GPUs, surviving shards of evicted jobs get
//!   their leases revoked, and the jobs are requeued — the Figure 19 lease
//!   protocols closing the loop over a real failure detector;
//! * [`Message::SubmitJob`] from clients lands in the live wait queue,
//!   enabling open-loop online traffic instead of pre-loaded traces.

use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::{SocketAddr, TcpListener};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use blox_core::cluster::{ClusterState, GpuType, NodeSpec};
use blox_core::error::{BloxError, Result};
use blox_core::ids::{JobId, NodeId};
use blox_core::job::{Job, JobStatus};
use blox_core::manager::{
    apply_placement, Backend, BloxManager, PlacementOutcome, RunConfig, StopCondition,
};
use blox_core::metrics::RunStats;
use blox_core::policy::{AdmissionPolicy, Placement, PlacementPolicy, SchedulingPolicy};
use blox_core::profile::JobProfile;
use blox_core::snapshot::Snapshot;
use blox_core::state::JobState;
use blox_runtime::runtime::{apply_status_message, placement_iter_time, RuntimeConfig, SimClock};
use blox_runtime::wire::Message;
use blox_workloads::ModelZoo;
use crossbeam::channel::{unbounded, Receiver, Sender};

use crate::event_loop::{
    Delivery, EvLoopConfig, EvLoopPool, EvSender, LoopEvent, Token, TransportKind,
};
use crate::frame::encode_shared;
use crate::poller::PollerKind;

/// Floor on the failure-detection deadline, in wall seconds: below this,
/// OS scheduling jitter on a loopback deployment would yield spurious
/// dead-node verdicts at small time scales.
pub const MIN_DETECT_WALL_S: f64 = 0.25;

/// Scheduler-side deployment configuration.
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Emulation time scale and iteration granularity, shared with every
    /// worker at registration.
    pub runtime: RuntimeConfig,
    /// Heartbeat period workers are instructed to use (simulated seconds).
    pub heartbeat_sim_s: f64,
    /// Consecutive missed heartbeats before a node is declared dead. The
    /// resulting deadline is evaluated in wall time from each beat's
    /// arrival, floored at [`MIN_DETECT_WALL_S`].
    pub heartbeat_misses: u32,
    /// Rounds a `Running` job may report zero progress before the
    /// scheduler presumes its launch (or its worker's reports) were lost
    /// and requeues it — the self-healing path for dropped `Launch`,
    /// `Progress`, and `JobDone` messages on a lossy link. `0` disables
    /// stall detection.
    pub stall_rounds: u32,
    /// Unread; see [`TransportKind`].
    pub transport: TransportKind,
    /// Readiness backend the event loop runs on (`Auto` picks epoll on
    /// Linux, poll elsewhere).
    pub poller: PollerKind,
    /// `listen(2)` backlog for the accept socket. A connect burst from a
    /// ramping client fleet beyond this depth gets SYNs dropped and
    /// stalls on kernel retransmits (the kernel clamps to
    /// `net.core.somaxconn`).
    pub listen_backlog: i32,
    /// Scheduling pod this daemon serves (0 when unsharded). Echoed to
    /// every worker in [`Message::AssignNode`] so a sharded deployment
    /// (see `blox_core::pods`) can attribute nodes to shards.
    pub pod: u32,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            runtime: RuntimeConfig::default(),
            heartbeat_sim_s: 60.0,
            heartbeat_misses: 3,
            stall_rounds: 10,
            transport: TransportKind::EvLoop,
            poller: PollerKind::Auto,
            listen_backlog: 1024,
            pod: 0,
        }
    }
}

/// Hardware template for a registering worker: the paper's p3.8xlarge for
/// 4-GPU nodes, a uniform-NVLink V100 box for other GPU counts.
fn node_spec(gpus: u32) -> NodeSpec {
    let gpus = gpus.max(1);
    if gpus == 4 {
        return NodeSpec::v100_p3_8xlarge();
    }
    let intra = (0..gpus)
        .map(|i| (0..gpus).map(|j| if i == j { 0.0 } else { 50.0 }).collect())
        .collect();
    NodeSpec {
        gpu_type: GpuType::V100,
        gpus,
        cpu_cores: 8 * gpus,
        dram_gb: 61.0 * gpus as f64,
        inter_bw_gbps: 10.0,
        intra_bw_gbps: intra,
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    /// No message seen yet: could become a worker or a client.
    Pending,
    Worker(NodeId),
    Client,
}

struct Conn {
    sender: EvSender,
    role: Role,
}

/// Bind a TCP listener with an explicit `listen(2)` backlog.
///
/// `std::net::TcpListener::bind` hardcodes a backlog of 128, which a
/// connect burst from thousands of ramping clients overflows — the
/// kernel then drops or resets SYNs and the ramp stalls on retries.
/// The effective ceiling is `net.core.somaxconn`; asking for more is
/// silently clamped by the kernel, never an error.
///
/// IPv4 only (every blox listener binds loopback v4); non-Linux hosts
/// fall back to the std bind and its default backlog.
#[cfg(target_os = "linux")]
pub fn listen_with_backlog(addr: SocketAddr, backlog: i32) -> std::io::Result<TcpListener> {
    use std::os::unix::io::FromRawFd;

    let SocketAddr::V4(v4) = addr else {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "listen_with_backlog supports IPv4 addresses only",
        ));
    };

    /// `struct sockaddr_in` as the kernel lays it out: family, then
    /// port and address in network byte order, padded to 16 bytes.
    #[repr(C)]
    struct SockAddrIn {
        family: u16,
        port: u16,
        addr: u32,
        zero: [u8; 8],
    }
    extern "C" {
        fn socket(domain: i32, ty: i32, protocol: i32) -> i32;
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
        fn bind(fd: i32, addr: *const SockAddrIn, len: u32) -> i32;
        fn listen(fd: i32, backlog: i32) -> i32;
        fn close(fd: i32) -> i32;
    }
    const AF_INET: i32 = 2;
    const SOCK_STREAM: i32 = 1;
    const SOCK_CLOEXEC: i32 = 0o2000000;
    const SOL_SOCKET: i32 = 1;
    const SO_REUSEADDR: i32 = 2;

    // SAFETY: socket(2) takes plain integers and touches no memory.
    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0) };
    if fd < 0 {
        return Err(std::io::Error::last_os_error());
    }
    let fail = |fd: i32| {
        let err = std::io::Error::last_os_error();
        // SAFETY: `fd` is the socket created above, owned here and not
        // yet handed to a `TcpListener`, so it is closed exactly once.
        unsafe { close(fd) };
        Err(err)
    };
    let one = 1i32;
    // SAFETY: `optval` points at a live i32 and `optlen` is its size.
    if unsafe { setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, 4) } < 0 {
        return fail(fd);
    }
    let sa = SockAddrIn {
        family: AF_INET as u16,
        port: v4.port().to_be(),
        addr: u32::from(*v4.ip()).to_be(),
        zero: [0; 8],
    };
    // SAFETY: `sa` is a live `#[repr(C)]` sockaddr_in and `len` is its
    // exact size; the kernel only reads it.
    if unsafe { bind(fd, &sa, std::mem::size_of::<SockAddrIn>() as u32) } < 0 {
        return fail(fd);
    }
    // SAFETY: listen(2) takes plain integers and touches no memory.
    if unsafe { listen(fd, backlog.max(1)) } < 0 {
        return fail(fd);
    }
    // SAFETY: `fd` is an open, bound, listening socket that nothing else
    // owns; the `TcpListener` takes sole ownership and closes it on drop.
    Ok(unsafe { TcpListener::from_raw_fd(fd) })
}

/// Non-Linux fallback: the std bind and its default backlog (128).
#[cfg(not(target_os = "linux"))]
pub fn listen_with_backlog(addr: SocketAddr, _backlog: i32) -> std::io::Result<TcpListener> {
    TcpListener::bind(addr)
}

/// Accept loop: every accepted socket is registered with the backend's
/// pool, which decodes and stamps messages itself — no per-connection
/// thread is ever spawned.
fn accept_loop(
    listener: TcpListener,
    pool: Arc<EvLoopPool>,
    events: Sender<LoopEvent>,
    stop: Arc<AtomicBool>,
) {
    let _ = listener.set_nonblocking(true);
    while !stop.load(Ordering::Relaxed) {
        match listener.accept() {
            Ok((stream, _)) => {
                if pool
                    .register(stream, Delivery::Events(events.clone()))
                    .is_err()
                {
                    return; // Pool gone: the backend is shutting down.
                }
            }
            Err(_) => std::thread::sleep(Duration::from_millis(2)),
        }
    }
}

/// Execution backend driving a networked cluster of `bloxnoded` workers;
/// the deployment counterpart of `blox_runtime::RuntimeBackend` with real
/// sockets, registration, and failure detection.
pub struct NetBackend {
    addr: SocketAddr,
    events: Receiver<LoopEvent>,
    stop: Arc<AtomicBool>,
    /// Keeps the event loop alive. `Drop for NetBackend` broadcasts
    /// Shutdown frames before this Arc falls; the loop's command queue is
    /// FIFO, so those frames flush before the pool's Stop closes it.
    _pool: Arc<EvLoopPool>,
    conns: BTreeMap<Token, Conn>,
    node_conn: BTreeMap<NodeId, Token>,
    /// Wall-clock arrival time of each live node's last heartbeat.
    last_hb: BTreeMap<NodeId, Instant>,
    clock: Arc<SimClock>,
    cfg: SchedulerConfig,
    /// Live wait queue fed by client submissions.
    queue: VecDeque<Job>,
    /// Worker job-status messages awaiting a `JobState` to apply to.
    pending_status: VecDeque<Message>,
    zoo: ModelZoo,
    next_job: u64,
    /// Jobs the run has pledged to wait for (set by [`serve`] from a
    /// `TrackedWindowDone` stop condition). Until that many submissions
    /// have arrived, `peek_next_arrival` reports a pending future arrival
    /// so the manager cannot mistake an open-loop submission gap for
    /// "trace drained" and stop early.
    expected_jobs: Option<u64>,
    /// Dead nodes inherited from a restored snapshot: a registering
    /// worker with a matching GPU count re-adopts one of these identities
    /// instead of growing the cluster (no double-placed GPUs).
    orphaned: BTreeSet<NodeId>,
    /// Per-running-job stall tracking: last observed progress and how
    /// many consecutive rounds it has not advanced.
    stall: BTreeMap<JobId, (f64, u32)>,
    round_now: f64,
    last_update: f64,
    nodes_joined: u32,
    failures_detected: u32,
    stalls_detected: u32,
}

impl NetBackend {
    /// Bind to `127.0.0.1:0` — an ephemeral port, so parallel schedulers
    /// (and parallel `cargo test` runs) never collide — and start
    /// accepting connections.
    pub fn bind(cfg: SchedulerConfig) -> Result<Self> {
        Self::bind_to("127.0.0.1:0", cfg)
    }

    /// Bind to an explicit address (port 0 still means ephemeral).
    pub fn bind_to(addr: &str, cfg: SchedulerConfig) -> Result<Self> {
        let sock_addr: SocketAddr = addr
            .parse()
            .map_err(|e| BloxError::Transport(format!("parse {addr}: {e}")))?;
        let listener = listen_with_backlog(sock_addr, cfg.listen_backlog)
            .map_err(|e| BloxError::Transport(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| BloxError::Transport(format!("local_addr: {e}")))?;
        let (tx, events) = unbounded();
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let pool = Arc::new(EvLoopPool::new(EvLoopConfig {
            poller: cfg.poller,
            ..EvLoopConfig::default()
        })?);
        let pool2 = pool.clone();
        std::thread::spawn(move || accept_loop(listener, pool2, tx, stop2));
        let clock = Arc::new(SimClock::new(cfg.runtime.time_scale));
        Ok(NetBackend {
            addr,
            events,
            stop,
            _pool: pool,
            conns: BTreeMap::new(),
            node_conn: BTreeMap::new(),
            last_hb: BTreeMap::new(),
            clock,
            cfg,
            queue: VecDeque::new(),
            pending_status: VecDeque::new(),
            zoo: ModelZoo::standard(),
            next_job: 0,
            expected_jobs: None,
            orphaned: BTreeSet::new(),
            stall: BTreeMap::new(),
            round_now: 0.0,
            last_update: 0.0,
            nodes_joined: 0,
            failures_detected: 0,
            stalls_detected: 0,
        })
    }

    /// The bound listen address (with the chosen ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Workers that have registered over the backend's lifetime
    /// (re-registrations after a failure count again: node re-add).
    pub fn nodes_joined(&self) -> u32 {
        self.nodes_joined
    }

    /// Nodes the failure detector has declared dead.
    pub fn failures_detected(&self) -> u32 {
        self.failures_detected
    }

    /// Running jobs the stall detector presumed lost and requeued.
    pub fn stalls_detected(&self) -> u32 {
        self.stalls_detected
    }

    /// Pledge that `n` jobs will eventually be submitted: until then,
    /// `peek_next_arrival` reports a pending future arrival so an
    /// open-loop submission gap never reads as a drained trace. [`serve`]
    /// sets this from a `TrackedWindowDone` stop condition; embedders
    /// driving the backend manually call it directly.
    pub fn expect_jobs(&mut self, n: u64) {
        self.expected_jobs = Some(n);
    }

    /// Mark the current simulated time as the start of round execution
    /// (so registration latency never reads as a backlog of instantly
    /// executed rounds) and return it. [`serve`] calls this after the
    /// registration wait; embedders driving the backend manually through
    /// `BloxManager` must do the same.
    pub fn begin_rounds(&mut self) -> f64 {
        let start = self.clock.sim_now();
        self.round_now = start;
        self.last_update = start;
        start
    }

    /// Capture a recoverable snapshot of this scheduler: backend-owned
    /// submission state plus the shared state and statistics the manager
    /// holds. `bloxschedd --checkpoint` persists one of these per
    /// checkpoint interval; `--restore` feeds it back through
    /// [`NetBackend::restore`].
    pub fn snapshot(&self, cluster: &ClusterState, jobs: &JobState, stats: &RunStats) -> Snapshot {
        Snapshot {
            now: self.round_now,
            next_job: self.next_job,
            expected_jobs: self.expected_jobs,
            cluster: cluster.clone(),
            jobs: jobs.clone(),
            queue: self.queue.iter().cloned().collect(),
            stats: stats.clone(),
        }
    }

    /// Rebuild scheduler state from a snapshot, reconciling it with the
    /// reality of a crash: every worker link died with the old process,
    /// so jobs recorded as `Running` are demoted to `Suspended` (they
    /// resume from their last reported checkpoint, one preemption
    /// charged) with their GPUs released, and every node is marked as an
    /// *orphan* — hidden from placement until its worker re-registers, at
    /// which point the node is re-adopted under its old identity instead
    /// of being added again. That reconciliation is what prevents a
    /// restarted scheduler from double-placing GPUs that live workers
    /// still consider theirs.
    ///
    /// Returns the shared state triple to hand to the scheduling loop
    /// (via `BloxManager::with_state`).
    pub fn restore(&mut self, snap: Snapshot) -> (ClusterState, JobState, RunStats) {
        self.clock = Arc::new(SimClock::synced(snap.now, self.cfg.runtime.time_scale));
        self.round_now = snap.now;
        self.last_update = snap.now;
        self.next_job = snap.next_job;
        self.expected_jobs = snap.expected_jobs;
        self.queue = snap.queue.into();
        self.stall.clear();
        let mut cluster = snap.cluster;
        let mut jobs = snap.jobs;

        let running: Vec<JobId> = jobs.running_ids().iter().copied().collect();
        for id in running {
            cluster.release(id);
            if let Some(job) = jobs.get_mut(id) {
                job.placement.clear();
                job.preemptions += 1;
            }
            let _ = jobs.set_status(id, JobStatus::Suspended);
        }

        let nodes: Vec<NodeId> = cluster.all_nodes().map(|n| n.id).collect();
        for node in nodes {
            if cluster.node(node).map(|n| n.alive) == Some(true) {
                let _ = cluster.fail_node(node);
            }
            self.orphaned.insert(node);
        }
        (cluster, jobs, snap.stats)
    }

    /// Answer a worker registration with a node identity: re-adopt an
    /// orphaned node of the same GPU count when one exists (crash
    /// recovery), otherwise grow the cluster with a fresh node.
    fn adopt_or_add(&mut self, gpus: u32, cluster: &mut ClusterState) -> NodeId {
        let wanted = gpus.max(1);
        let orphan = self.orphaned.iter().copied().find(|id| {
            cluster
                .node(*id)
                .is_some_and(|n| !n.alive && n.spec.gpus == wanted)
        });
        match orphan {
            Some(id) => {
                self.orphaned.remove(&id);
                let _ = cluster.revive_node(id);
                id
            }
            None => cluster.add_node(node_spec(gpus)),
        }
    }

    /// Drain and apply every queued connection event (registrations,
    /// heartbeats, submissions, disconnects). Job-status traffic is
    /// buffered until the next `update_metrics`, which has the `JobState`.
    pub fn poll(&mut self, cluster: &mut ClusterState) {
        while let Ok(ev) = self.events.try_recv() {
            self.process_event(ev, cluster);
        }
    }

    fn process_event(&mut self, ev: LoopEvent, cluster: &mut ClusterState) {
        match ev {
            LoopEvent::Connected(id, sender) => {
                self.conns.insert(
                    id,
                    Conn {
                        sender,
                        role: Role::Pending,
                    },
                );
            }
            LoopEvent::Msg(id, msg, at) => self.process_message(id, msg, at, cluster),
            LoopEvent::Closed(id) => {
                if let Some(conn) = self.conns.remove(&id) {
                    if let Role::Worker(node) = conn.role {
                        self.node_conn.remove(&node);
                        self.declare_dead(node, cluster);
                    }
                }
            }
        }
    }

    fn process_message(
        &mut self,
        id: Token,
        msg: Message,
        at: Instant,
        cluster: &mut ClusterState,
    ) {
        // Node ids on the wire are claims, not credentials: a connection
        // registers at most once, and only beats for the node it became.
        let role = self.conns.get(&id).map(|c| c.role);
        match msg {
            Message::RegisterWorker { gpus, .. } => {
                if role != Some(Role::Pending) {
                    return;
                }
                let node = self.adopt_or_add(gpus, cluster);
                let now_sim = self.clock.sim_now();
                self.node_conn.insert(node, id);
                self.last_hb.insert(node, at);
                self.nodes_joined += 1;
                if let Some(conn) = self.conns.get_mut(&id) {
                    conn.role = Role::Worker(node);
                    let _ = conn.sender.send(&Message::AssignNode {
                        node,
                        now_sim,
                        time_scale: self.cfg.runtime.time_scale,
                        emu_iter_sim_s: self.cfg.runtime.emu_iter_sim_s,
                        heartbeat_sim_s: self.cfg.heartbeat_sim_s,
                        pod: self.cfg.pod,
                    });
                }
            }
            Message::Heartbeat { node, .. } => {
                if role == Some(Role::Worker(node)) {
                    if let Some(last) = self.last_hb.get_mut(&node) {
                        *last = at;
                    }
                }
            }
            Message::SubmitJob {
                gpus,
                total_iters,
                model,
            } => {
                let job_id = JobId(self.next_job);
                self.next_job += 1;
                let profile = self
                    .zoo
                    .by_name(&model)
                    .cloned()
                    .unwrap_or_else(|| JobProfile::synthetic(&model, 1.0));
                self.queue.push_back(Job::new(
                    job_id,
                    self.clock.sim_now(),
                    gpus.max(1),
                    total_iters,
                    profile,
                ));
                if let Some(conn) = self.conns.get_mut(&id) {
                    if conn.role == Role::Pending {
                        conn.role = Role::Client;
                    }
                    let _ = conn.sender.send(&Message::JobAccepted { job: job_id });
                }
            }
            status => self.pending_status.push_back(status),
        }
    }

    /// Mark a node dead and hide its GPUs; the running jobs it hosted are
    /// requeued (with surviving-shard lease revocation) by the next
    /// `update_metrics`.
    fn declare_dead(&mut self, node: NodeId, cluster: &mut ClusterState) {
        if cluster.node(node).map(|n| n.alive) != Some(true) {
            return;
        }
        let _ = cluster.fail_node(node);
        self.last_hb.remove(&node);
        self.failures_detected += 1;
        if let Some(cid) = self.node_conn.remove(&node) {
            if let Some(conn) = self.conns.remove(&cid) {
                conn.sender.shutdown();
            }
        }
    }

    /// The wall-clock deadline after which a silent node is declared dead:
    /// `heartbeat_misses` periods converted to wall time, floored at
    /// [`MIN_DETECT_WALL_S`] so OS scheduling jitter cannot produce
    /// spurious verdicts at very small time scales (where a whole period
    /// is only milliseconds of wall time).
    fn heartbeat_deadline(&self) -> Duration {
        let wall = self.cfg.heartbeat_sim_s
            * self.cfg.heartbeat_misses as f64
            * self.cfg.runtime.time_scale;
        Duration::from_secs_f64(wall.max(MIN_DETECT_WALL_S))
    }

    /// The missed-deadline verdict: any live node whose last heartbeat
    /// *arrived* longer than [`Self::heartbeat_deadline`] ago is declared
    /// dead. Checked once per round, so detection granularity is the
    /// round length.
    fn check_heartbeats(&mut self, cluster: &mut ClusterState) {
        let deadline = self.heartbeat_deadline();
        let dead: Vec<NodeId> = self
            .last_hb
            .iter()
            .filter(|(_, at)| at.elapsed() > deadline)
            .map(|(node, _)| *node)
            .collect();
        for node in dead {
            self.declare_dead(node, cluster);
        }
    }

    /// Best-effort crash-style requeue of one running job: revoke the
    /// leases of any shards on still-live nodes (no suspension ack is
    /// awaited — the worker may be dead or unreachable), release the
    /// GPUs, and return the job to the schedulable set from its last
    /// reported checkpoint with a preemption charged.
    fn requeue_job(&mut self, id: JobId, cluster: &mut ClusterState, jobs: &mut JobState) {
        let targets: Vec<NodeId> = match jobs.get(id) {
            Some(job) => cluster
                .nodes_of(&job.placement)
                .into_iter()
                .filter(|n| cluster.node(*n).map(|n| n.alive) == Some(true))
                .collect(),
            None => Vec::new(),
        };
        for node in targets {
            self.send_to(node, &Message::Revoke { job: id }, cluster);
        }
        cluster.release(id);
        self.stall.remove(&id);
        if let Some(job) = jobs.get_mut(id) {
            job.placement.clear();
            job.preemptions += 1;
            let _ = jobs.set_status(id, JobStatus::Suspended);
        }
    }

    /// Requeue running jobs whose GPUs vanished with a failed node. For
    /// each, surviving shards get their leases revoked first (the orphaned
    /// workers stop burning GPU time), then the job re-enters the
    /// schedulable set from its last reported checkpoint.
    fn requeue_failed(&mut self, cluster: &mut ClusterState, jobs: &mut JobState) {
        // Index-driven: the running set and the per-job allocation count,
        // no job-table or GPU-table scans (and no Vec per running job).
        let mut lost = Vec::new();
        for job in jobs.running() {
            if cluster.job_gpu_count(job.id) != job.placement.len() {
                lost.push(job.id);
            }
        }
        for id in lost {
            self.requeue_job(id, cluster, jobs);
        }
    }

    /// Loss-tolerant completion and stall handling, evaluated once per
    /// round after worker status traffic has been applied:
    ///
    /// * a `Running` job whose reported progress has reached its total
    ///   work is completed even if the `JobDone` message was lost
    ///   (completion stamps at the round boundary — the exact sub-round
    ///   instant died with the message);
    /// * a `Running` job that reports **zero** progress for
    ///   `stall_rounds` consecutive rounds is presumed lost — its
    ///   `Launch` never arrived, or its worker's reports cannot reach us
    ///   — and is requeued just like a churn eviction.
    fn detect_lost_jobs(&mut self, cluster: &mut ClusterState, jobs: &mut JobState) {
        // Completion fallback for lost JobDone messages (index-driven over
        // the running set).
        let finished: Vec<JobId> = jobs
            .running()
            .filter(|j| j.completed_iters >= j.total_iters)
            .map(|j| j.id)
            .collect();
        for id in finished {
            cluster.release(id);
            self.stall.remove(&id);
            if let Some(job) = jobs.get_mut(id) {
                job.placement.clear();
                job.completion_time = Some(self.round_now);
                let _ = jobs.set_status(id, JobStatus::Completed);
            }
        }

        // Stall verdicts.
        if self.cfg.stall_rounds == 0 {
            return;
        }
        let mut stalled = Vec::new();
        let mut seen = BTreeSet::new();
        for job in jobs.running() {
            seen.insert(job.id);
            match self.stall.get_mut(&job.id) {
                // First observation sets the baseline only; counting
                // starts next round, so `stall_rounds` means "rounds with
                // zero progress *after* the baseline round" and even
                // `--stall-rounds 1` cannot requeue a healthy job.
                None => {
                    self.stall.insert(job.id, (job.completed_iters, 0));
                }
                Some(entry) => {
                    if job.completed_iters > entry.0 {
                        *entry = (job.completed_iters, 0);
                    } else {
                        entry.1 += 1;
                        if entry.1 >= self.cfg.stall_rounds {
                            stalled.push(job.id);
                        }
                    }
                }
            }
        }
        // Forget jobs that are no longer running (suspended, completed).
        self.stall.retain(|id, _| seen.contains(id));
        for id in stalled {
            self.stalls_detected += 1;
            self.requeue_job(id, cluster, jobs);
        }
    }

    /// Send one command to a worker. A failed send is a failure-detector
    /// verdict in its own right: the loop has closed the link, so the
    /// node is declared dead immediately —
    /// its jobs requeue on the next `update_metrics` — instead of
    /// waiting out the heartbeat deadline on a corpse.
    fn send_to(&mut self, node: NodeId, msg: &Message, cluster: &mut ClusterState) {
        let sender = self
            .node_conn
            .get(&node)
            .and_then(|cid| self.conns.get(cid))
            .map(|conn| conn.sender.clone());
        if let Some(sender) = sender {
            if sender.send(msg).is_err() {
                self.declare_dead(node, cluster);
            }
        }
    }

    /// Wait (bounded) for a job's suspension ack, applying other traffic
    /// as it arrives; propagates two-phase `ExitAt` decisions to peers.
    fn wait_for_suspension(&mut self, job: JobId, cluster: &mut ClusterState, jobs: &mut JobState) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while Instant::now() < deadline {
            while let Some(msg) = self.pending_status.pop_front() {
                match msg {
                    Message::JobSuspended { job: j, iters } if j == job => {
                        if let Some(jref) = jobs.get_mut(job) {
                            jref.completed_iters = iters.min(jref.total_iters);
                        }
                        return;
                    }
                    Message::ExitAt { job: j, exit_iter } => {
                        // Phase 2: propagate the exit decision to the peer
                        // shards' nodes (rank 0's node already has it).
                        let peers: Vec<NodeId> = match jobs.get(j) {
                            Some(jref) => cluster
                                .nodes_of(&jref.placement)
                                .into_iter()
                                .skip(1)
                                .collect(),
                            None => Vec::new(),
                        };
                        for node in peers {
                            self.send_to(node, &Message::ExitAt { job: j, exit_iter }, cluster);
                        }
                    }
                    other => apply_status_message(other, cluster, jobs),
                }
            }
            match self.events.recv_timeout(Duration::from_millis(20)) {
                Ok(ev) => self.process_event(ev, cluster),
                Err(crossbeam::channel::RecvTimeoutError::Timeout) => {}
                Err(_) => return,
            }
        }
    }
}

impl Drop for NetBackend {
    fn drop(&mut self) {
        // Orderly teardown: tell every worker to exit, stop the listener,
        // and close all sockets. The Shutdown
        // broadcast is the canonical fan-out frame: encoded once, shared
        // by `Arc` across every worker's outbound queue.
        self.stop.store(true, Ordering::Relaxed);
        let goodbye = encode_shared(&Message::Shutdown).expect("Shutdown frame is a few bytes");
        for conn in self.conns.values() {
            if matches!(conn.role, Role::Worker(_)) {
                let _ = conn.sender.send_shared(&goodbye);
            }
            conn.sender.shutdown();
        }
    }
}

impl Backend for NetBackend {
    fn now(&self) -> f64 {
        self.round_now
    }

    fn update_cluster(&mut self, cluster: &mut ClusterState) {
        self.poll(cluster);
        self.check_heartbeats(cluster);
    }

    fn pop_wait_queue(&mut self, now: f64) -> Vec<Job> {
        let mut out = Vec::new();
        let mut later = VecDeque::new();
        while let Some(job) = self.queue.pop_front() {
            if job.arrival_time <= now {
                out.push(job);
            } else {
                later.push_back(job);
            }
        }
        self.queue = later;
        out
    }

    fn peek_next_arrival(&self) -> Option<(JobId, f64)> {
        // Open-loop traffic: only already-submitted jobs are knowable...
        if let Some(job) = self.queue.front() {
            return Some((job.id, job.arrival_time));
        }
        // ...but if the run has pledged to wait for N jobs, report the
        // next expected id as a pending far-future arrival until it
        // actually shows up, so a submission gap never reads as a
        // drained trace.
        match self.expected_jobs {
            Some(n) if self.next_job < n => Some((JobId(self.next_job), f64::INFINITY)),
            _ => None,
        }
    }

    fn update_metrics(&mut self, cluster: &mut ClusterState, jobs: &mut JobState, elapsed: f64) {
        // `round_now` is what this backend reports as `Backend::now`, so
        // the manager-measured span and the local derivation are the same
        // quantity — assert agreement per the `update_metrics` elapsed
        // contract.
        debug_assert!(
            elapsed <= 0.0 || (elapsed - (self.round_now - self.last_update)).abs() < 1e-6,
            "caller-reported elapsed {elapsed} disagrees with backend clock span {}",
            self.round_now - self.last_update
        );
        let elapsed = (self.round_now - self.last_update).max(0.0);
        self.last_update = self.round_now;
        self.poll(cluster);
        self.requeue_failed(cluster, jobs);
        while let Some(msg) = self.pending_status.pop_front() {
            apply_status_message(msg, cluster, jobs);
        }
        self.detect_lost_jobs(cluster, jobs);
        // Service accrues over the running set only (index-driven), not
        // every queued submission.
        if elapsed > 0.0 {
            let running: Vec<JobId> = jobs.running_ids().iter().copied().collect();
            for id in running {
                let job = jobs.get_mut(id).expect("running jobs are active");
                job.attained_service += job.placement.len() as f64 * elapsed;
                job.running_time += elapsed;
            }
        }
    }

    fn exec_jobs(
        &mut self,
        placement: &Placement,
        cluster: &mut ClusterState,
        jobs: &mut JobState,
    ) -> PlacementOutcome {
        // Preempt via optimistic lease revocation + two-phase exit, sent
        // to the worker hosting rank 0.
        for id in &placement.to_suspend {
            let Some(job) = jobs.get(*id) else { continue };
            if job.status != JobStatus::Running {
                continue;
            }
            let Some(rank0) = job
                .placement
                .first()
                .and_then(|g| cluster.gpu(*g))
                .map(|r| r.node)
            else {
                continue;
            };
            self.send_to(rank0, &Message::Revoke { job: *id }, cluster);
            self.wait_for_suspension(*id, cluster, jobs);
        }

        // Shared-state transitions, exactly as the other backends.
        let filtered = Placement {
            to_suspend: placement.to_suspend.clone(),
            to_launch: placement
                .to_launch
                .iter()
                .filter(|(id, _)| {
                    jobs.get(*id)
                        .map(|j| j.status != JobStatus::Completed)
                        .unwrap_or(false)
                })
                .cloned()
                .collect(),
        };
        let outcome = apply_placement(&filtered, cluster, jobs, self.round_now);
        debug_assert!(
            outcome.is_clean(),
            "placement conflict: {:?}",
            outcome.skipped
        );

        // Launch RPCs, one per worker hosting a shard.
        for (id, gpus) in &filtered.to_launch {
            let Some(job) = jobs.get(*id) else { continue };
            let iter_time = placement_iter_time(job, cluster);
            let nodes = cluster.nodes_of(gpus);
            for (rank, node) in nodes.iter().enumerate() {
                let local: Vec<u8> = gpus
                    .iter()
                    .filter_map(|g| cluster.gpu(*g))
                    .filter(|r| r.node == *node)
                    .map(|r| r.local)
                    .collect();
                self.send_to(
                    *node,
                    &Message::Launch {
                        job: *id,
                        local_gpus: local,
                        iter_time_s: iter_time,
                        start_iters: job.completed_iters,
                        total_iters: job.total_iters,
                        warmup_s: job.profile.restore_s,
                        is_rank0: rank == 0,
                    },
                    cluster,
                );
            }
        }
        outcome
    }

    fn advance_round(&mut self, round_duration: f64) {
        self.round_now += round_duration;
        self.clock.sleep_until(self.round_now);
    }
}

// Serving ---------------------------------------------------------------------

/// Aggregate report of one networked scheduler run.
#[derive(Debug, Clone)]
pub struct NetReport {
    /// Run statistics from the scheduling loop.
    pub stats: RunStats,
    /// Workers that registered over the run (re-adds included).
    pub nodes_joined: u32,
    /// Nodes the failure detector declared dead.
    pub failures_detected: u32,
    /// Running jobs the stall detector presumed lost and requeued.
    pub stalls_detected: u32,
    /// Nodes still marked dead at the end of the run.
    pub dead_nodes: Vec<NodeId>,
}

/// Crash-recovery options for [`serve_with`]: periodic checkpointing of
/// the scheduler state and/or restoration from a prior checkpoint.
#[derive(Debug, Default)]
pub struct RecoveryOptions {
    /// Write a snapshot here every `checkpoint_every_rounds` rounds
    /// (atomically: temp file + rename). `None` disables checkpointing.
    pub checkpoint_path: Option<std::path::PathBuf>,
    /// Checkpoint cadence in rounds; `0` is treated as every round.
    pub checkpoint_every_rounds: u64,
    /// Resume from this snapshot instead of starting fresh (see
    /// [`NetBackend::restore`] for the reconciliation semantics).
    pub restore: Option<Snapshot>,
}

/// Atomically persist a snapshot: write to `<path>.tmp`, then rename, so
/// a crash mid-write can never leave a truncated checkpoint behind.
pub fn write_checkpoint(path: &Path, snap: &Snapshot) -> Result<()> {
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, snap.encode())
        .and_then(|()| std::fs::rename(&tmp, path))
        .map_err(|e| BloxError::Io(format!("write checkpoint {}: {e}", path.display())))
}

/// Load and decode a checkpoint written by [`write_checkpoint`].
pub fn read_checkpoint(path: &Path) -> Result<Snapshot> {
    let bytes = std::fs::read(path)
        .map_err(|e| BloxError::Io(format!("read checkpoint {}: {e}", path.display())))?;
    Snapshot::decode(&bytes)
}

/// Drive a bound [`NetBackend`] to completion: wait for `min_nodes`
/// workers to register (bounded by `register_timeout`), run the
/// scheduling loop with the given policies, then broadcast shutdown.
///
/// A [`StopCondition::TimeLimit`] in `run` is interpreted relative to the
/// run's start (registration time does not count against it).
/// [`StopCondition::AllJobsDone`] is rejected: with open-loop
/// submissions, an empty wait queue is indistinguishable from a drained
/// trace, so the run would silently stop before the first job arrives —
/// use `TrackedWindowDone` (wait for N jobs) or `TimeLimit` instead.
pub fn serve(
    backend: NetBackend,
    run: RunConfig,
    min_nodes: u32,
    register_timeout: Duration,
    admission: &mut dyn AdmissionPolicy,
    scheduling: &mut dyn SchedulingPolicy,
    placement: &mut dyn PlacementPolicy,
) -> Result<NetReport> {
    serve_with(
        backend,
        run,
        min_nodes,
        register_timeout,
        RecoveryOptions::default(),
        admission,
        scheduling,
        placement,
    )
}

/// [`serve`] with crash-recovery options: optionally restore the run from
/// a snapshot first, and/or write a checkpoint snapshot every N rounds so
/// a later `--restore` can resume the run after a scheduler crash.
///
/// A checkpoint write failure is reported on stderr but does not abort
/// the run — a scheduler that kills its cluster because a disk filled up
/// would be a worse failure mode than running uncheckpointed.
#[allow(clippy::too_many_arguments)]
pub fn serve_with(
    mut backend: NetBackend,
    mut run: RunConfig,
    min_nodes: u32,
    register_timeout: Duration,
    recovery: RecoveryOptions,
    admission: &mut dyn AdmissionPolicy,
    scheduling: &mut dyn SchedulingPolicy,
    placement: &mut dyn PlacementPolicy,
) -> Result<NetReport> {
    if matches!(run.stop, StopCondition::AllJobsDone) {
        return Err(BloxError::Config(
            "serve() requires StopCondition::TrackedWindowDone or TimeLimit: with \
             open-loop submissions, AllJobsDone would stop before the first job arrives"
                .into(),
        ));
    }
    let (mut cluster, jobs, stats) = match recovery.restore {
        Some(snap) => backend.restore(snap),
        None => (ClusterState::new(), JobState::new(), RunStats::new()),
    };
    let deadline = Instant::now() + register_timeout;
    while backend.nodes_joined() < min_nodes {
        if Instant::now() > deadline {
            return Err(BloxError::Transport(format!(
                "only {}/{min_nodes} workers registered within {register_timeout:?}",
                backend.nodes_joined()
            )));
        }
        backend.poll(&mut cluster);
        std::thread::sleep(Duration::from_millis(5));
    }

    // Rounds start at the current simulated time: registration latency
    // must not appear as a backlog of instantly-executed rounds. (A
    // restored backend's clock resumes from the snapshot time.)
    let start = backend.begin_rounds();
    match run.stop {
        StopCondition::TimeLimit(t) => run.stop = StopCondition::TimeLimit(start + t),
        // The run waits for the whole tracked window to be submitted,
        // even across open-loop gaps in the arrival stream.
        StopCondition::TrackedWindowDone { hi, .. } => backend.expected_jobs = Some(hi + 1),
        StopCondition::AllJobsDone => {}
    }

    let mut mgr = BloxManager::with_state(backend, cluster, jobs, stats, run);
    let stats = match &recovery.checkpoint_path {
        // No checkpointing: keep the manager's own run loop (including
        // the event-driven fast-forward path, should a backend ever
        // provide event hints) — byte-identical to the pre-recovery
        // serve() behavior.
        None => mgr.run(admission, scheduling, placement),
        Some(path) => {
            let checkpoint_every = recovery.checkpoint_every_rounds.max(1);
            let mut rounds_since_checkpoint = 0u64;
            while !mgr.should_stop() {
                mgr.step(admission, scheduling, placement);
                rounds_since_checkpoint += 1;
                if rounds_since_checkpoint >= checkpoint_every {
                    rounds_since_checkpoint = 0;
                    let snap = mgr
                        .backend()
                        .snapshot(mgr.cluster(), mgr.jobs(), mgr.stats());
                    if let Err(e) = write_checkpoint(path, &snap) {
                        eprintln!("bloxschedd: checkpoint failed: {e}");
                    }
                }
            }
            mgr.stats().clone()
        }
    };
    let dead_nodes = mgr
        .cluster()
        .all_nodes()
        .filter(|n| !n.alive)
        .map(|n| n.id)
        .collect();
    Ok(NetReport {
        stats,
        nodes_joined: mgr.backend().nodes_joined(),
        failures_detected: mgr.backend().failures_detected(),
        stalls_detected: mgr.backend().stalls_detected(),
        dead_nodes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event_loop::{global_pool, EvTransport};
    use blox_core::profile::JobProfile;
    use blox_runtime::wire::Transport;
    use std::net::TcpStream;

    #[test]
    fn listen_with_backlog_binds_and_accepts() {
        let listener =
            listen_with_backlog("127.0.0.1:0".parse().unwrap(), 1024).expect("bind with backlog");
        let addr = listener.local_addr().expect("ephemeral addr assigned");
        assert_ne!(addr.port(), 0);
        let t = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let (stream, _) = listener.accept().expect("accept");
        drop(t.join().unwrap());
        drop(stream);
    }

    /// Send `msg` on `link` and poll `backend` until `link` hears a reply.
    fn exchange(
        backend: &mut NetBackend,
        cluster: &mut ClusterState,
        link: &EvTransport,
        msg: Message,
    ) -> Message {
        link.send(&msg).expect("send");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            backend.poll(cluster);
            if let Some(reply) = link.try_recv().expect("link alive") {
                return reply;
            }
            assert!(Instant::now() < deadline, "no reply to {msg:?}");
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    fn register(
        backend: &mut NetBackend,
        cluster: &mut ClusterState,
        link: &EvTransport,
    ) -> NodeId {
        let register = Message::RegisterWorker {
            node: NodeId(0),
            gpus: 4,
        };
        match exchange(backend, cluster, link, register) {
            Message::AssignNode { node, .. } => node,
            other => panic!("expected AssignNode, got {other:?}"),
        }
    }

    /// A heartbeat counts only on the connection that registered its
    /// node: beats another connection sends in a silent worker's name do
    /// not keep that worker alive.
    #[test]
    fn beats_forged_by_another_connection_cannot_keep_a_silent_worker_alive() {
        let mut backend = NetBackend::bind(SchedulerConfig {
            runtime: RuntimeConfig {
                time_scale: 1e-3,
                emu_iter_sim_s: 30.0,
            },
            ..SchedulerConfig::default()
        })
        .expect("bind ephemeral");
        let mut cluster = ClusterState::new();
        let worker = EvTransport::connect(backend.addr(), global_pool()).expect("connect worker");
        let node = register(&mut backend, &mut cluster, &worker);

        // The worker falls silent with its link open; a client connection
        // beats in its name for three detection deadlines.
        let forger = EvTransport::connect(backend.addr(), global_pool()).expect("connect forger");
        let until = Instant::now() + backend.heartbeat_deadline() * 3;
        let mut seq = 0;
        while Instant::now() < until {
            forger
                .send(&Message::Heartbeat { node, seq })
                .expect("forged beat");
            seq += 1;
            std::thread::sleep(Duration::from_millis(20));
            backend.update_cluster(&mut cluster);
        }
        assert_eq!(
            backend.failures_detected(),
            1,
            "silent worker declared dead"
        );
        assert_eq!(cluster.node(node).map(|n| n.alive), Some(false));
    }

    /// A connection registers at most once: a second `RegisterWorker` on
    /// a registered link adds no phantom node.
    #[test]
    fn a_link_registers_at_most_once() {
        let mut backend = NetBackend::bind(SchedulerConfig::default()).expect("bind ephemeral");
        let mut cluster = ClusterState::new();
        let link = EvTransport::connect(backend.addr(), global_pool()).expect("connect");
        register(&mut backend, &mut cluster, &link);
        link.send(&Message::RegisterWorker {
            node: NodeId(0),
            gpus: 4,
        })
        .expect("second register");
        // The link's next reply is to this submission, so the second
        // registration (sent before it) has been processed.
        let submit = Message::SubmitJob {
            gpus: 1,
            total_iters: 1.0,
            model: "probe".into(),
        };
        assert!(matches!(
            exchange(&mut backend, &mut cluster, &link, submit),
            Message::JobAccepted { .. }
        ));
        assert_eq!(backend.nodes_joined(), 1);
        assert_eq!(cluster.total_gpus(), 4);
    }

    fn flat_running_job(id: u64) -> Job {
        let mut j = Job::new(JobId(id), 0.0, 1, 1e6, JobProfile::synthetic("t", 1.0));
        j.status = JobStatus::Running;
        j.completed_iters = 100.0;
        j
    }

    /// One stall-observation round with no worker traffic: the job's
    /// reported progress stays flat.
    fn flat_round(backend: &mut NetBackend, cluster: &mut ClusterState, jobs: &mut JobState) {
        backend.advance_round(300.0);
        backend.update_metrics(cluster, jobs, 300.0);
    }

    /// Recovery-path regression for the stall detector: the per-job
    /// zero-progress counters live outside the checkpoint, and
    /// [`NetBackend::restore`] clears the tracker, so rounds a job sat
    /// flat *before* a scheduler crash must never count against it after
    /// the restart — a freshly relaunched job gets the full
    /// `stall_rounds` grace again, and the detector still fires once
    /// that grace is genuinely exhausted.
    #[test]
    fn stall_counter_is_not_double_counted_across_restore() {
        let cfg = SchedulerConfig {
            runtime: RuntimeConfig {
                time_scale: 1e-6,
                emu_iter_sim_s: 30.0,
            },
            stall_rounds: 3,
            ..SchedulerConfig::default()
        };
        let mut backend = NetBackend::bind(cfg.clone()).expect("bind ephemeral");
        let mut cluster = ClusterState::new();
        let mut jobs = JobState::new();
        jobs.add_new_jobs(vec![flat_running_job(0)]);
        backend.begin_rounds();

        // Baseline round + two flat counting rounds: one short of the
        // stall verdict at the moment of the crash.
        for _ in 0..3 {
            flat_round(&mut backend, &mut cluster, &mut jobs);
        }
        assert_eq!(backend.stalls_detected(), 0);
        assert_eq!(
            jobs.get(JobId(0)).expect("active").status,
            JobStatus::Running
        );

        // Crash: checkpoint, restore into a fresh scheduler. The restore
        // demotes the running job to suspended (one preemption charged).
        let snap = backend.snapshot(&cluster, &jobs, &RunStats::new());
        let mut backend2 = NetBackend::bind(cfg).expect("bind successor");
        let (mut cluster2, mut jobs2, _stats) = backend2.restore(snap);
        let job = jobs2.get(JobId(0)).expect("active");
        assert_eq!(job.status, JobStatus::Suspended);
        assert_eq!(job.preemptions, 1);

        // Relaunch, still flat. Were the pre-crash count carried over,
        // the first post-restore observation would read 2 + 1 >= 3 and
        // requeue the job the moment it came back. Instead the first
        // round re-seeds the baseline and two more only reach count 2.
        backend2.begin_rounds();
        jobs2
            .set_status(JobId(0), JobStatus::Running)
            .expect("relaunch");
        for _ in 0..3 {
            flat_round(&mut backend2, &mut cluster2, &mut jobs2);
        }
        assert_eq!(
            backend2.stalls_detected(),
            0,
            "post-restore stall counting must restart from a fresh baseline"
        );

        // The detector itself still works: exhausting the full grace
        // after the restart fires exactly one requeue.
        flat_round(&mut backend2, &mut cluster2, &mut jobs2);
        assert_eq!(backend2.stalls_detected(), 1);
        let job = jobs2.get(JobId(0)).expect("active");
        assert_eq!(job.status, JobStatus::Suspended);
        assert_eq!(
            job.preemptions, 2,
            "one preemption from the crash demotion, one from the stall requeue"
        );
    }
}
