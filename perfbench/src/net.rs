//! `net_submit`: open-loop `SubmitJob` traffic against an in-process
//! event-loop scheduler with one 4-GPU node.
//!
//! The generator is the benchmark's own: one driving thread plus one
//! event-loop shard, two connections, sends paced by `Pacer`. Every
//! submission is timed from when it was *due* (`start + (k+1)/rate`), not
//! from when it was sent, so a stalled generator shows up as latency
//! instead of as a lower offered rate.

use std::collections::{HashMap, VecDeque};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::sync::mpsc;
use std::time::{Duration, Instant};

use blox_core::cluster::ClusterState;
use blox_core::manager::{BloxManager, ExecMode, RunConfig, StopCondition};
use blox_core::metrics::RunStats;
use blox_core::state::JobState;
use blox_net::{
    encode_shared, serve, spawn_node, Delivery, EvLoopConfig, EvLoopPool, LoopEvent, NetBackend,
    NodeConfig, Pacer, PollerKind, SchedulerConfig, SharedFrame, Token, TransportKind,
};
use blox_policies::admission::AcceptAll;
use blox_policies::placement::ConsolidatedPlacement;
use blox_policies::scheduling::Fifo;
use blox_runtime::runtime::RuntimeConfig;
use blox_runtime::wire::Message;
use blox_workloads::ModelZoo;
use crossbeam::channel::unbounded;

use crate::layers::{self, NetParts};
use crate::report::{metric, peak_rss_mb, Checks, Outcome};
use crate::stats::{median, percentile};
use crate::trace::{self, Span, Traced, NO_PARENT};

pub const NAME: &str = "net_submit";

/// 300 s rounds at this time scale are a 30 ms wall tick.
const TIME_SCALE: f64 = 1e-4;
const ROUND_S: f64 = 300.0;
const CONNS: usize = 2;
/// Latency limit on `accept_p99_ms` for the rate ladder.
const SLO_MS: f64 = 50.0;
/// A phase whose generator sent its p99 submission later than this after
/// it was due is invalid and not counted.
const GEN_LATE_LIMIT_MS: f64 = 10.0;
/// Base-rate phase: fixed offered load for the latency metrics.
const BASE_RATE: f64 = 4_000.0;
const BASE_ATTEMPTS: usize = 3;
/// Rate ladder: doubling from the first rung, then geometric bisection
/// between the last rung that met the SLO and the first that did not.
const LADDER_FIRST: f64 = 4_000.0;
const LADDER_MAX: f64 = 128_000.0;
const BISECT_STEPS: u32 = 3;
/// Wait after starting `serve` before the first send, so the node has
/// registered and rounds tick (registration takes a few ms).
const REGISTER_GRACE: Duration = Duration::from_millis(100);
/// How long the generator waits for straggling acceptances: on a ladder
/// rung a miss only fails the SLO, but the base and traced phases check
/// that every submission was accepted, so they wait out host hiccups.
const RUNG_DRAIN: Duration = Duration::from_millis(250);
const PHASE_DRAIN: Duration = Duration::from_secs(1);
/// Bind-and-register repetitions behind `setup_s`.
const SETUP_REPS: usize = 9;
/// Distinct `SubmitJob` bodies the seed mixes.
const VARIANTS: u64 = 16;

fn sched_config() -> SchedulerConfig {
    SchedulerConfig {
        runtime: RuntimeConfig {
            time_scale: TIME_SCALE,
            emu_iter_sim_s: 30.0,
        },
        transport: TransportKind::EvLoop,
        poller: PollerKind::Auto,
        ..SchedulerConfig::default()
    }
}

fn node_config(sched: SocketAddr) -> NodeConfig {
    NodeConfig {
        sched,
        gpus: 4,
        reconnect: false,
        faults: None,
        transport: TransportKind::EvLoop,
        poller: PollerKind::Auto,
    }
}

fn run_config(stop_after: Duration) -> RunConfig {
    RunConfig {
        round_duration: ROUND_S,
        max_rounds: 1_000_000,
        stop: StopCondition::TimeLimit(stop_after.as_secs_f64() / TIME_SCALE),
        mode: ExecMode::FixedRounds,
    }
}

/// The seeded submission mix: pre-encoded `SubmitJob` frames over the
/// model zoo, and which one the `k`-th submission sends.
struct Plan {
    frames: Vec<SharedFrame>,
    seed: u64,
}

impl Plan {
    fn new(seed: u64) -> Result<(Plan, f64), String> {
        let start = Instant::now();
        let zoo = ModelZoo::standard();
        let frames = (0..VARIANTS)
            .map(|v| {
                let h = mix(seed ^ v.wrapping_mul(0x9e37_79b9_7f4a_7c15));
                let profile = zoo.profile(h as usize % zoo.len());
                encode_shared(&Message::SubmitJob {
                    gpus: 1,
                    total_iters: 1e9 + (h >> 40) as f64,
                    model: profile.model_name.clone(),
                })
                .map_err(|e| format!("encode SubmitJob: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Ok((Plan { frames, seed }, start.elapsed().as_secs_f64() * 1e3))
    }

    fn frame(&self, k: usize) -> &SharedFrame {
        &self.frames[(mix(self.seed.wrapping_add(k as u64)) % VARIANTS) as usize]
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One submission's life.
struct Sub {
    due: Instant,
    sent: Instant,
    send_ns: u64,
    accepted: Option<Instant>,
    job: Option<u64>,
}

/// What one open-loop phase observed.
struct Phase {
    rate: f64,
    subs: Vec<Sub>,
    conns_lost: usize,
    unexpected_replies: usize,
}

impl Phase {
    fn accepted(&self) -> usize {
        self.subs.iter().filter(|s| s.accepted.is_some()).count()
    }

    fn latencies_ms(&self) -> Vec<f64> {
        self.subs
            .iter()
            .filter_map(|s| s.accepted.map(|a| ms(a - s.due)))
            .collect()
    }

    fn late_p99_ms(&self) -> f64 {
        let mut late: Vec<f64> = self.subs.iter().map(|s| ms(s.sent - s.due)).collect();
        percentile(&mut late, 0.99)
    }

    fn valid(&self) -> bool {
        self.late_p99_ms() <= GEN_LATE_LIMIT_MS
    }

    /// From the first due send to the last acceptance.
    fn run_s(&self) -> f64 {
        let first = self.subs.first().map(|s| s.due);
        let last = self.subs.iter().filter_map(|s| s.accepted).max();
        match (first, last) {
            (Some(f), Some(l)) => (l - f).as_secs_f64(),
            _ => 0.0,
        }
    }

    /// Submissions due by the end of the send window and still not
    /// accepted then: a queue that keeps growing leaves these behind.
    fn backlog_at_window_end(&self) -> usize {
        let Some(end) = self.subs.last().map(|s| s.due) else {
            return 0;
        };
        self.subs
            .iter()
            .filter(|s| s.accepted.is_none_or(|a| a > end))
            .count()
    }

    fn meets_slo(&self) -> bool {
        let mut lat = self.latencies_ms();
        self.accepted() == self.subs.len()
            && self.conns_lost == 0
            && percentile(&mut lat, 0.99) <= SLO_MS
            && self.backlog_at_window_end() as f64 <= self.rate * SLO_MS / 1e3
    }

    /// Output checks: acceptances answer submissions one for one, their
    /// job ids are unique and (once all are in) dense from 0, and no
    /// connection was lost.
    fn verify(&self, checks: &mut Checks, require_all: bool) {
        let mut ids: Vec<u64> = self.subs.iter().filter_map(|s| s.job).collect();
        ids.sort_unstable();
        let unique = ids.windows(2).all(|w| w[0] < w[1]);
        checks.check(unique && self.unexpected_replies == 0, || {
            format!(
                "JobAccepted ids not unique or unmatched ({} unexpected replies) at {}/s",
                self.unexpected_replies, self.rate
            )
        });
        if require_all || ids.len() == self.subs.len() {
            checks.check(ids.len() == self.subs.len(), || {
                format!(
                    "{} of {} submissions accepted at {}/s",
                    ids.len(),
                    self.subs.len(),
                    self.rate
                )
            });
            let dense = ids.iter().enumerate().all(|(i, id)| *id == i as u64);
            checks.check(dense, || {
                format!("JobAccepted ids not dense from 0 at {}/s", self.rate)
            });
        }
        checks.check(self.conns_lost == 0, || {
            format!("{} connections lost at {}/s", self.conns_lost, self.rate)
        });
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Matches `JobAccepted` replies to submissions: the scheduler answers
/// each connection in order, so replies pop that connection's FIFO.
struct Matcher {
    conn_of: HashMap<Token, usize>,
    pending: Vec<VecDeque<usize>>,
    lost: Vec<bool>,
    accepted: usize,
}

impl Matcher {
    fn on(&mut self, ev: LoopEvent, phase: &mut Phase) {
        match ev {
            LoopEvent::Msg(token, Message::JobAccepted { job }, at) => {
                let k = self
                    .conn_of
                    .get(&token)
                    .and_then(|c| self.pending[*c].pop_front());
                match k {
                    Some(k) => {
                        phase.subs[k].accepted = Some(at);
                        phase.subs[k].job = Some(job.0);
                        self.accepted += 1;
                    }
                    None => phase.unexpected_replies += 1,
                }
            }
            LoopEvent::Closed(token) => {
                if let Some(c) = self.conn_of.get(&token) {
                    self.lost[*c] = true;
                }
            }
            _ => {}
        }
    }
}

/// Drive one open-loop phase: `rate` submissions per second for
/// `window`, round-robin over [`CONNS`] connections, then wait up to
/// `drain` for the remaining acceptances. `gate` returns when the
/// scheduler is ready for traffic.
fn generate(
    addr: SocketAddr,
    plan: &Plan,
    rate: f64,
    window: Duration,
    drain: Duration,
    gate: impl FnOnce(),
) -> Result<Phase, String> {
    let pool = EvLoopPool::new(EvLoopConfig {
        shards: 1,
        poller: PollerKind::Auto,
        ..EvLoopConfig::default()
    })
    .map_err(|e| format!("generator event loop: {e}"))?;
    let (tx, events) = unbounded();
    let mut senders = Vec::with_capacity(CONNS);
    let mut m = Matcher {
        conn_of: HashMap::new(),
        pending: vec![VecDeque::new(); CONNS],
        lost: vec![false; CONNS],
        accepted: 0,
    };
    for i in 0..CONNS {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        let _ = stream.set_nodelay(true);
        let sender = pool
            .register(stream, Delivery::Events(tx.clone()))
            .map_err(|e| format!("register connection: {e}"))?;
        m.conn_of.insert(sender.token(), i);
        senders.push(sender);
    }
    drop(tx);
    gate();

    let n = (rate * window.as_secs_f64()).round().max(1.0) as usize;
    let mut phase = Phase {
        rate,
        subs: Vec::with_capacity(n),
        conns_lost: 0,
        unexpected_replies: 0,
    };
    // Taken just before the pacer's own start, so no due time below is
    // later than the pacer's.
    let start = Instant::now();
    let mut pacer = Pacer::new(rate);
    while phase.subs.len() < n {
        let due = (pacer.due_now() as usize).min(n - phase.subs.len());
        for _ in 0..due {
            let k = phase.subs.len();
            let conn = k % CONNS;
            let sent = Instant::now();
            let ok = senders[conn].send_shared(plan.frame(k)).is_ok();
            let send_ns = sent.elapsed().as_nanos() as u64;
            phase.subs.push(Sub {
                due: start + Duration::from_secs_f64((k + 1) as f64 / rate),
                sent,
                send_ns,
                accepted: None,
                job: None,
            });
            if ok {
                m.pending[conn].push_back(k);
            } else {
                m.lost[conn] = true;
            }
        }
        while let Ok(ev) = events.try_recv() {
            m.on(ev, &mut phase);
        }
        if due == 0 {
            std::thread::sleep(pacer.next_due_in().min(Duration::from_millis(1)));
        }
    }
    let deadline = Instant::now() + drain;
    while m.accepted < n {
        let left = deadline.saturating_duration_since(Instant::now());
        match events.recv_timeout(left) {
            Ok(ev) => m.on(ev, &mut phase),
            Err(_) => break,
        }
    }
    phase.conns_lost = m.lost.iter().filter(|l| **l).count();
    for s in &senders {
        s.shutdown();
    }
    drop(senders);
    drop(pool);
    Ok(phase)
}

/// `serve()`'s registration wait: poll until the node has joined.
fn await_node(backend: &mut NetBackend, cluster: &mut ClusterState) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(30);
    while backend.nodes_joined() < 1 {
        if Instant::now() > deadline {
            return Err("node did not register within 30 s".into());
        }
        backend.poll(cluster);
        std::thread::sleep(Duration::from_millis(5));
    }
    Ok(())
}

/// `setup_s` for this workload: bind the daemon and wait for the node to
/// register, as `serve()` would.
fn boot_once() -> Result<f64, String> {
    let start = Instant::now();
    let mut backend = NetBackend::bind(sched_config()).map_err(|e| format!("bind: {e}"))?;
    let node = spawn_node(node_config(backend.addr()));
    let joined = await_node(&mut backend, &mut ClusterState::new());
    let setup_s = start.elapsed().as_secs_f64();
    drop(backend);
    let _ = node.join();
    joined.map(|()| setup_s)
}

/// One phase against a fresh scheduler driven by `serve()`.
fn untraced_phase(
    plan: &Plan,
    rate: f64,
    window: Duration,
    drain: Duration,
) -> Result<Phase, String> {
    let backend = NetBackend::bind(sched_config()).map_err(|e| format!("bind: {e}"))?;
    let addr = backend.addr();
    let node = spawn_node(node_config(addr));
    let config = run_config(REGISTER_GRACE + window + drain + Duration::from_millis(100));
    let server = std::thread::spawn(move || {
        serve(
            backend,
            config,
            1,
            Duration::from_secs(30),
            &mut AcceptAll::new(),
            &mut Fifo::new(),
            &mut ConsolidatedPlacement::preferred(),
        )
    });
    let phase = generate(addr, plan, rate, window, drain, || {
        std::thread::sleep(REGISTER_GRACE)
    });
    let served = server.join();
    let _ = node.join();
    served
        .map_err(|_| "serve thread panicked".to_string())?
        .map_err(|e| format!("serve: {e}"))?;
    phase
}

struct TracedPhase {
    phase: Phase,
    spans: Vec<Span>,
    stats: RunStats,
}

/// One phase against a fresh scheduler whose `serve()` loop is replayed
/// with every layer boundary timed: bind, the registration wait,
/// `begin_rounds`, then `BloxManager::with_state` and the replayed run.
fn traced_phase(plan: &Plan, rate: f64, window: Duration) -> Result<TracedPhase, String> {
    let (addr_tx, addr_rx) = mpsc::channel();
    let (ready_tx, ready_rx) = mpsc::channel();
    let run_for = window + PHASE_DRAIN + Duration::from_millis(100);
    let server = std::thread::spawn(move || -> Result<(Vec<Span>, RunStats), String> {
        let mut backend = NetBackend::bind(sched_config()).map_err(|e| format!("bind: {e}"))?;
        let _ = addr_tx.send(backend.addr());
        let mut cluster = ClusterState::new();
        await_node(&mut backend, &mut cluster)?;
        let start = backend.begin_rounds();
        let mut config = run_config(run_for);
        if let StopCondition::TimeLimit(t) = config.stop {
            config.stop = StopCondition::TimeLimit(start + t);
        }
        let mut mgr = BloxManager::with_state(
            Traced(backend),
            cluster,
            JobState::new(),
            RunStats::new(),
            config,
        );
        trace::take();
        let _ = ready_tx.send(());
        let stats = layers::replay(
            &mut mgr,
            &mut Traced(AcceptAll::new()),
            &mut Traced(Fifo::new()),
            &mut Traced(ConsolidatedPlacement::preferred()),
        );
        drop(mgr);
        Ok((trace::take(), stats))
    });
    let phase = addr_rx
        .recv()
        .map_err(|_| "scheduler did not bind".to_string())
        .map(|addr| {
            let node = spawn_node(node_config(addr));
            let phase = generate(addr, plan, rate, window, PHASE_DRAIN, || {
                let _ = ready_rx.recv();
            });
            (phase, node)
        });
    let served = server.join();
    let phase = match phase {
        Ok((phase, node)) => {
            let _ = node.join();
            phase
        }
        Err(e) => Err(e),
    };
    let (spans, stats) = served.map_err(|_| "traced scheduler thread panicked".to_string())??;
    Ok(TracedPhase {
        phase: phase?,
        spans,
        stats,
    })
}

/// Split each submission's accept latency at the scheduler's drain
/// points (the starts of `update_cluster` and `update_metrics`, the
/// backend calls that poll the wire and answer `JobAccepted`): send lag
/// (due → sent), queue wait (sent → the drain that answered it) and
/// reply (that drain → `JobAccepted` at the client). Returns the parts
/// and one span tree per submission, keyed by submission index, with
/// parent indices offset by `base`.
fn decompose(phase: &Phase, sched_spans: &[Span], checks: &mut Checks) -> (NetParts, Vec<Span>) {
    let mut drains: Vec<u64> = sched_spans
        .iter()
        .filter(|s| s.name == "backend.update_cluster" || s.name == "backend.update_metrics")
        .map(|s| s.start_ns)
        .collect();
    drains.sort_unstable();
    let base = sched_spans.len();
    let mut parts = NetParts::default();
    let mut spans = Vec::new();
    let mut broken = 0usize;
    for (k, s) in phase.subs.iter().enumerate() {
        let Some(accepted) = s.accepted else { continue };
        let (due, sent, acc) = (
            trace::stamp(s.due),
            trace::stamp(s.sent),
            trace::stamp(accepted),
        );
        let i = drains.partition_point(|&d| d <= acc);
        // A reply answered by a drain already running when the
        // submission was sent waited for no drain at all.
        let drain = if i == 0 {
            sent
        } else {
            drains[i - 1].max(sent)
        };
        let whole = acc.checked_sub(due);
        let split = (
            sent.checked_sub(due),
            drain.checked_sub(sent),
            acc.checked_sub(drain),
        );
        let (Some(lag), Some(wait), Some(reply)) = split else {
            broken += 1;
            continue;
        };
        if Some(lag + wait + reply) != whole {
            broken += 1;
        }
        parts.send_lag_ms.push(lag as f64 / 1e6);
        parts.queue_wait_ms.push(wait as f64 / 1e6);
        parts.reply_ms.push(reply as f64 / 1e6);
        parts.client_send_us.push(s.send_ns as f64 / 1e3);
        let root = u32::try_from(base + spans.len()).expect("fewer than 2^32 spans");
        let span = |name, start_ns, end_ns, parent| Span {
            name,
            key: k as u64,
            start_ns,
            end_ns,
            parent,
            offered: 0,
            done: 0,
        };
        spans.push(span("net.submit", due, acc, NO_PARENT));
        spans.push(span("net.send_lag", due, sent, root));
        spans.push(span("net.queue_wait", sent, drain, root));
        spans.push(span("net.reply", drain, acc, root));
    }
    checks.check(broken == 0, || {
        format!("{broken} submissions whose send lag + queue wait + reply != accept latency")
    });
    (parts, spans)
}

/// A base-rate phase (`attempt` runs one and returns it with its
/// submissions), retried while its generator runs late.
fn base_phase<T>(
    o: &mut Outcome,
    mut attempt: impl FnMut() -> Result<T, String>,
    phase: impl Fn(&T) -> &Phase,
) -> Option<T> {
    for n in 1..=BASE_ATTEMPTS {
        match attempt() {
            Ok(t) if phase(&t).valid() => return Some(t),
            Ok(t) => o.notes.push(format!(
                "base phase attempt {n} invalid: generator p99 lateness {:.3} ms > {GEN_LATE_LIMIT_MS} ms",
                phase(&t).late_p99_ms()
            )),
            Err(e) => {
                o.checks.result(Err(e));
                return None;
            }
        }
    }
    o.checks.result(Err(format!(
        "generator ran late on all {BASE_ATTEMPTS} base-phase attempts"
    )));
    None
}

/// The highest rung of the rate ladder that meets the SLO, as a phase.
/// Rungs double from [`LADDER_FIRST`] until one misses the SLO (or its
/// generator runs late twice, which cannot count as a pass), then
/// [`BISECT_STEPS`] geometric bisections narrow the bracket.
fn ladder(plan: &Plan, window: Duration, o: &mut Outcome) -> Option<Phase> {
    let rung = |rate: f64, o: &mut Outcome| -> Option<Phase> {
        // A rung whose generator ran late is measured once more before it
        // counts as a miss.
        let first = untraced_phase(plan, rate, window, RUNG_DRAIN);
        let measured = match first {
            Ok(p) if !p.valid() => untraced_phase(plan, rate, window, RUNG_DRAIN),
            other => other,
        };
        match measured {
            Ok(p) => {
                p.verify(&mut o.checks, false);
                let mut lat = p.latencies_ms();
                o.notes.push(format!(
                    "rung {rate:>9.1}/s: p99 {:.3} ms, {}/{} accepted, backlog {}, gen late p99 {:.3} ms -> {}",
                    percentile(&mut lat, 0.99),
                    p.accepted(),
                    p.subs.len(),
                    p.backlog_at_window_end(),
                    p.late_p99_ms(),
                    if !p.valid() {
                        "invalid (generator late)"
                    } else if p.meets_slo() {
                        "meets SLO"
                    } else {
                        "misses SLO"
                    }
                ));
                Some(p)
            }
            Err(e) => {
                o.checks.result(Err(e));
                None
            }
        }
    };
    let passes = |p: &Phase| p.valid() && p.meets_slo();
    let mut best: Option<Phase> = None;
    let mut rate = LADDER_FIRST;
    let mut ceiling = None;
    while rate <= LADDER_MAX {
        match rung(rate, o) {
            Some(p) if passes(&p) => best = Some(p),
            _ => {
                ceiling = Some(rate);
                break;
            }
        }
        rate *= 2.0;
    }
    if let (Some(mut hi), Some(mut lo)) = (ceiling, best.as_ref().map(|p| p.rate)) {
        for _ in 0..BISECT_STEPS {
            let mid = (lo * hi).sqrt();
            match rung(mid, o) {
                Some(p) if passes(&p) => {
                    lo = mid;
                    best = Some(p);
                }
                _ => hi = mid,
            }
        }
    }
    best
}

pub fn run(seed: u64, seconds: f64, traced_run: bool, out_dir: &Path) -> Outcome {
    let mut o = Outcome::default();
    let (plan, gen_ms) = match Plan::new(seed) {
        Ok(p) => p,
        Err(e) => {
            o.checks.result(Err(e));
            return o;
        }
    };
    // Two fifths of the run at the base rate; rungs of a twentieth.
    let base_window = Duration::from_secs_f64((seconds * 0.4).max(1.0));
    let rung_window = Duration::from_secs_f64((seconds / 20.0).max(0.5));

    let untraced_base = || untraced_phase(&plan, BASE_RATE, base_window, PHASE_DRAIN);
    if traced_run {
        let Some(plain) = base_phase(&mut o, untraced_base, |p| p) else {
            return o;
        };
        plain.verify(&mut o.checks, true);
        let traced_base = || traced_phase(&plan, BASE_RATE, base_window);
        let Some(t) = base_phase(&mut o, traced_base, |t| &t.phase) else {
            return o;
        };
        t.phase.verify(&mut o.checks, true);
        o.checks.result(trace::check_nesting(&t.spans));
        let (mut parts, sub_spans) = decompose(&t.phase, &t.spans, &mut o.checks);
        let mut spans = t.spans;
        spans.extend(sub_spans);
        let path = out_dir.join(format!("trace_{NAME}.jsonl"));
        o.checks.result(
            trace::write_jsonl(&path, &spans).map_err(|e| format!("write {}: {e}", path.display())),
        );
        o.metrics = layers::per_layer(
            &spans,
            &t.stats,
            gen_ms,
            t.phase.run_s() - layers::probe_s(&spans) - plain.run_s(),
        );
        o.extra = layers::net_parts(&mut parts);
        o.notes.push(format!(
            "traced run_s {:.4} s vs untraced {:.4} s; {} spans written to {}",
            t.phase.run_s(),
            plain.run_s(),
            spans.len(),
            path.display()
        ));
        return o;
    }

    let mut setups = Vec::with_capacity(SETUP_REPS);
    for _ in 0..SETUP_REPS {
        match boot_once() {
            Ok(s) => setups.push(s),
            Err(e) => o.checks.result(Err(e)),
        }
    }
    let Some(base) = base_phase(&mut o, untraced_base, |p| p) else {
        return o;
    };
    base.verify(&mut o.checks, true);
    let mut lat = base.latencies_ms();
    let p50 = percentile(&mut lat, 0.5);
    let p99 = percentile(&mut lat, 0.99);
    // Before the ladder, whose top rungs hold far larger queues.
    let rss = peak_rss_mb();
    let best = ladder(&plan, rung_window, &mut o);
    let delivered = best
        .as_ref()
        .map_or(0.0, |p| p.accepted() as f64 / p.run_s());
    o.metrics = vec![
        metric("setup_s", "s", median(&mut setups)),
        metric("run_s", "s", base.run_s()),
        metric("latency_p50_ms", "ms", p50),
        metric("latency_tail_ms", "ms", p99),
        metric("peak_rss_mb", "MB", rss),
    ];
    o.notes.push(format!(
        "accept_p50_ms {p50:.4} ms, accept_p99_ms {p99:.4} ms over n={} submissions at {BASE_RATE}/s \
         (latency_p50_ms / latency_tail_ms); gen_late_p99_ms {:.4} ms",
        lat.len(),
        base.late_p99_ms()
    ));
    o.notes.push(format!(
        "max_rate_at_slo {:.1} 1/s (delivered {delivered:.1} 1/s; highest rung with accept p99 <= {SLO_MS} ms, \
         all accepted, no backlog growth; printed, not gated: too noisy for a bound)",
        best.as_ref().map_or(0.0, |p| p.rate)
    ));
    o
}
