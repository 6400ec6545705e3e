//! The traced run: `BloxManager::run` replayed through its public pieces
//! with every layer boundary timed, and the per-layer metrics derived
//! from the spans it records.
//!
//! Layer names follow the repository's modules. The `backend.*` calls
//! are the `Backend` trait: blox-sim's `SimBackend` on the sim workloads,
//! blox-net's `NetBackend` on `net_submit`. LAYERS.md maps every metric
//! to the end-to-end metric and workload it should move.

use std::hint::black_box;

use blox_core::manager::{Backend, BloxManager, ExecMode};
use blox_core::metrics::RunStats;
use blox_core::place_util::FreePool;
use blox_core::policy::{AdmissionPolicy, PlacementPolicy, SchedulingPolicy};

use crate::report::{metric, Metric};
use crate::stats::percentile;
use crate::trace::{self, durations, self_ms, Span, Traced};

/// Rounds between event-hint probes: on the 32k-GPU burst one hint costs
/// a third of a round.
const HINT_PROBE_EVERY: u64 = 10;

/// `BloxManager::run`, one public call at a time: the event-driven skip
/// decision and its commit, then a round, until the stop condition holds.
/// Spans are keyed by round id. After each round, side-effect-free probes
/// time what the next round pays for its placement pool
/// (`FreePool::new`) and, every [`HINT_PROBE_EVERY`] rounds where the
/// manager never asks for it (`ExecMode::FixedRounds`), the backend's
/// event hint.
pub fn replay<B: Backend>(
    mgr: &mut BloxManager<Traced<B>>,
    admission: &mut dyn AdmissionPolicy,
    scheduling: &mut dyn SchedulingPolicy,
    placement: &mut dyn PlacementPolicy,
) -> RunStats {
    let mut round = 0u64;
    while !mgr.should_stop() {
        trace::set_key(round);
        let k = trace::timed_counted(
            "mgr.skip_decide",
            || mgr.skippable_rounds(admission, scheduling, placement, None),
            |k| (0, *k),
        );
        if k >= 1 {
            trace::timed("mgr.apply_skip", || mgr.apply_skip(k));
        }
        if mgr.should_stop() {
            break;
        }
        trace::timed("mgr.step", || {
            mgr.step(admission, scheduling, placement);
        });
        trace::timed("probe.freepool_new", || {
            black_box(FreePool::new(mgr.cluster()));
        });
        if mgr.config().mode == ExecMode::FixedRounds && round.is_multiple_of(HINT_PROBE_EVERY) {
            trace::timed("probe.next_event_hint", || {
                black_box(mgr.backend().0.next_event_hint(mgr.cluster(), mgr.jobs()));
            });
        }
        round += 1;
    }
    mgr.stats().clone()
}

/// The submission-path parts of `net_submit`'s traced run, in ms.
#[derive(Debug, Default)]
pub struct NetParts {
    pub send_lag_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub reply_ms: Vec<f64>,
    pub client_send_us: Vec<f64>,
}

/// The backend calls reported per layer, as `backend.<call>.*`.
const BACKEND_CALLS: [&str; 6] = [
    "update_cluster",
    "update_metrics",
    "pop_wait_queue",
    "exec_jobs",
    "observe_delta",
    "advance_round",
];

fn sum(v: &[f64]) -> f64 {
    v.iter().fold(0.0, |acc, x| acc + x)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn p50_p90_total(out: &mut Vec<Metric>, prefix: &str, mut samples: Vec<f64>) {
    out.push(metric(
        format!("{prefix}.p50_ms"),
        "ms",
        percentile(&mut samples, 0.5),
    ));
    out.push(metric(
        format!("{prefix}.p90_ms"),
        "ms",
        percentile(&mut samples, 0.9),
    ));
    out.push(metric(format!("{prefix}.total_ms"), "ms", sum(&samples)));
}

fn in_step<'a>(
    spans: &'a [Span],
    name: &'a str,
    parent: &'a str,
) -> impl Iterator<Item = &'a Span> {
    spans.iter().filter(move |s| {
        s.name == name && s.parent != trace::NO_PARENT && spans[s.parent as usize].name == parent
    })
}

/// Wall time the replay spent in probes rather than in the run (s).
pub fn probe_s(spans: &[Span]) -> f64 {
    spans
        .iter()
        .filter(|s| s.name.starts_with("probe."))
        .fold(0.0, |acc, s| acc + s.ms() / 1e3)
}

/// The per-layer metrics every workload has, in BENCHMARK.json order.
pub fn per_layer(
    spans: &[Span],
    stats: &RunStats,
    trace_gen_ms: f64,
    overhead_s: f64,
) -> Vec<Metric> {
    let mut out = Vec::new();

    // blox-core::manager
    let steps = durations(spans, "mgr.step", None).len();
    let decides: Vec<&Span> = spans
        .iter()
        .filter(|s| s.name == "mgr.skip_decide")
        .collect();
    let hits = decides.iter().filter(|s| s.done >= 1).count();
    out.push(metric("mgr.steps", "count", steps as f64));
    out.push(metric("mgr.self_ms", "ms", self_ms(spans, "mgr.step")));
    out.push(metric(
        "mgr.skip_decide_ms",
        "ms",
        decides.iter().fold(0.0, |acc, s| acc + s.ms()),
    ));
    out.push(metric(
        "mgr.skip_hit_ratio",
        "ratio",
        ratio(hits as f64, decides.len() as f64),
    ));
    out.push(metric(
        "mgr.skipped_round_ratio",
        "ratio",
        ratio(stats.skipped_rounds as f64, stats.rounds as f64),
    ));

    // The Backend trait: blox-sim or blox-net.
    for call in BACKEND_CALLS {
        let name = format!("backend.{call}");
        let samples: Vec<f64> = in_step(spans, &name, "mgr.step").map(Span::ms).collect();
        p50_p90_total(&mut out, &name, samples);
    }
    // Hints the manager asked for in its skip decisions, or the per-round
    // probe on workloads that never skip.
    let mut hints = durations(spans, "backend.next_event_hint", None);
    hints.extend(durations(spans, "probe.next_event_hint", None));
    p50_p90_total(&mut out, "backend.next_event_hint", hints);

    // blox-policies::scheduling
    let ranked: Vec<u64> = in_step(spans, "sched.schedule", "mgr.step")
        .map(|s| s.done)
        .collect();
    out.push(metric(
        "sched.schedule_ms",
        "ms",
        sum(&durations(spans, "sched.schedule", Some("mgr.step"))),
    ));
    out.push(metric(
        "sched.observe_delta_ms",
        "ms",
        sum(&durations(spans, "sched.observe_delta", None)),
    ));
    out.push(metric(
        "sched.jobs_ranked",
        "count",
        ratio(ranked.iter().sum::<u64>() as f64, ranked.len() as f64),
    ));

    // blox-policies::placement
    let (requested, launched) = in_step(spans, "place.place", "mgr.step")
        .fold((0u64, 0u64), |(r, l), s| (r + s.offered, l + s.done));
    out.push(metric(
        "place.place_ms",
        "ms",
        sum(&durations(spans, "place.place", Some("mgr.step"))),
    ));
    out.push(metric(
        "place.launch_ratio",
        "ratio",
        ratio(launched as f64, requested as f64),
    ));

    // blox-policies::admission
    out.push(metric(
        "admit.admit_ms",
        "ms",
        sum(&durations(spans, "admit.admit", None)),
    ));
    out.push(metric(
        "admit.admitted",
        "count",
        spans
            .iter()
            .filter(|s| s.name == "admit.admit")
            .map(|s| s.done)
            .sum::<u64>() as f64,
    ));

    // blox-core::place_util
    let mut pool_us: Vec<f64> = durations(spans, "probe.freepool_new", None)
        .into_iter()
        .map(|ms| ms * 1e3)
        .collect();
    out.push(metric(
        "core.freepool_new_us",
        "us",
        percentile(&mut pool_us, 0.5),
    ));

    // blox-workloads
    out.push(metric("workloads.trace_gen_ms", "ms", trace_gen_ms));

    out.push(metric("trace.overhead_s", "s", overhead_s));
    out
}

/// Policy calls made inside the event-driven skip decision (only
/// `ExecMode::EventDriven` workloads make any).
pub fn dry_calls(spans: &[Span]) -> Vec<Metric> {
    vec![
        metric(
            "sched.schedule_dry_ms",
            "ms",
            sum(&durations(spans, "sched.schedule", Some("mgr.skip_decide"))),
        ),
        metric(
            "place.place_dry_ms",
            "ms",
            sum(&durations(spans, "place.place", Some("mgr.skip_decide"))),
        ),
    ]
}

/// The blox-net submission path, split per submission.
pub fn net_parts(net: &mut NetParts) -> Vec<Metric> {
    let mut out = Vec::new();
    for (name, samples) in [
        ("net.send_lag", &mut net.send_lag_ms),
        ("net.queue_wait", &mut net.queue_wait_ms),
        ("net.reply", &mut net.reply_ms),
    ] {
        out.push(metric(
            format!("{name}.p50_ms"),
            "ms",
            percentile(samples, 0.5),
        ));
        out.push(metric(
            format!("{name}.p99_ms"),
            "ms",
            percentile(samples, 0.99),
        ));
    }
    out.push(metric(
        "net.client_send_us",
        "us",
        percentile(&mut net.client_send_us, 0.5),
    ));
    out
}
