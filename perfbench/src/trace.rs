//! The traced run's span recorder and timing decorators.
//!
//! Spans are recorded from the benchmark's side of each layer boundary:
//! [`Traced`] wraps a `Backend` or a policy and times every call into
//! it, and the replay loops time the manager's own entry points
//! (`step`, `skippable_rounds`, `apply_skip`). Each span carries its
//! name, start, end and parent, plus the key it shares with the other
//! spans of its round (or of its submission, on the net path). Spans
//! stay in a per-thread buffer until the run ends and are written out
//! once, as JSON lines.

use std::cell::RefCell;
use std::collections::HashMap;
use std::io::Write as _;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

use blox_core::cluster::ClusterState;
use blox_core::delta::StateDelta;
use blox_core::ids::JobId;
use blox_core::job::{Job, JobStatus};
use blox_core::manager::{Backend, PlacementOutcome};
use blox_core::policy::{
    AdmissionPolicy, Placement, PlacementPolicy, SchedulingDecision, SchedulingPolicy,
};
use blox_core::state::JobState;

/// `Span::parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Round id, or submission index on the net path.
    pub key: u64,
    /// Nanoseconds since the process-wide trace epoch.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span in the same buffer, or [`NO_PARENT`].
    pub parent: u32,
    /// Items offered to the call (jobs to admit, allocations to place).
    pub offered: u64,
    /// Items the call produced (jobs admitted or ranked, launches, rounds
    /// a skip decision may elide).
    pub done: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

static EPOCH: OnceLock<Instant> = OnceLock::new();

/// `at` as nanoseconds since the trace epoch (fixed at first use).
pub fn stamp(at: Instant) -> u64 {
    let epoch = *EPOCH.get_or_init(Instant::now);
    at.saturating_duration_since(epoch).as_nanos() as u64
}

#[derive(Default)]
struct Recorder {
    spans: Vec<Span>,
    open: Vec<u32>,
    key: u64,
}

thread_local! {
    static REC: RefCell<Recorder> = RefCell::new(Recorder::default());
}

/// Key every span opened from now on (on this thread) with `key`.
pub fn set_key(key: u64) {
    REC.with(|r| r.borrow_mut().key = key);
}

fn open(name: &'static str) -> u32 {
    stamp(Instant::now()); // Fix the epoch before the first start stamp.
    REC.with(|r| {
        let mut r = r.borrow_mut();
        let parent = r.open.last().copied().unwrap_or(NO_PARENT);
        let idx = u32::try_from(r.spans.len()).expect("fewer than 2^32 spans per run");
        let key = r.key;
        r.spans.push(Span {
            name,
            key,
            start_ns: 0,
            end_ns: 0,
            parent,
            offered: 0,
            done: 0,
        });
        r.open.push(idx);
        r.spans[idx as usize].start_ns = stamp(Instant::now());
        idx
    })
}

fn close(idx: u32) {
    let end = stamp(Instant::now());
    REC.with(|r| {
        let mut r = r.borrow_mut();
        r.spans[idx as usize].end_ns = end;
        let top = r.open.pop();
        debug_assert_eq!(top, Some(idx), "spans close in LIFO order");
    });
}

/// Run `f` inside a span called `name`.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let idx = open(name);
    let out = f();
    close(idx);
    out
}

/// [`timed`], then attach `counts(&result)` as the span's
/// `(offered, done)`. The counting runs in its own `trace.count` span so
/// it is never billed to the enclosing span's self time.
pub fn timed_counted<T>(
    name: &'static str,
    f: impl FnOnce() -> T,
    counts: impl FnOnce(&T) -> (u64, u64),
) -> T {
    let idx = open(name);
    let out = f();
    close(idx);
    let c = open("trace.count");
    let (offered, done) = counts(&out);
    close(c);
    REC.with(|r| {
        let span = &mut r.borrow_mut().spans[idx as usize];
        span.offered = offered;
        span.done = done;
    });
    out
}

/// Take this thread's recorded spans, leaving the buffer empty.
pub fn take() -> Vec<Span> {
    REC.with(|r| {
        let mut r = r.borrow_mut();
        assert!(r.open.is_empty(), "take() inside an open span");
        std::mem::take(&mut r.spans)
    })
}

/// Write spans as JSON lines (`parent` is a line index, or -1).
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = if s.parent == NO_PARENT {
            -1
        } else {
            i64::from(s.parent)
        };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"key\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"offered\":{},\"done\":{}}}",
            s.name, s.key, s.start_ns, s.end_ns, parent, s.offered, s.done
        )?;
    }
    out.flush()
}

/// Check that the trace is a proper tree: every child lies inside its
/// parent and siblings do not overlap. This is what makes each span's
/// self time (duration minus its children) well defined and
/// non-negative, so parts sum to the whole.
pub fn check_nesting(spans: &[Span]) -> Result<(), String> {
    let mut last_child_end: HashMap<u32, u64> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.end_ns < s.start_ns {
            return Err(format!("span {i} ({}) ends before it starts", s.name));
        }
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        if s.start_ns < p.start_ns || s.end_ns > p.end_ns {
            return Err(format!(
                "span {i} ({}) escapes its parent {}",
                s.name, p.name
            ));
        }
        let prev = last_child_end.insert(s.parent, s.end_ns).unwrap_or(0);
        if s.start_ns < prev {
            return Err(format!(
                "span {i} ({}) overlaps its previous sibling",
                s.name
            ));
        }
    }
    Ok(())
}

/// Durations (ms) of spans called `name`, optionally only those whose
/// parent is called `parent`.
pub fn durations(spans: &[Span], name: &str, parent: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .filter(|s| match parent {
            None => true,
            Some(p) => s.parent != NO_PARENT && spans[s.parent as usize].name == p,
        })
        .map(Span::ms)
        .collect()
}

/// Sum over each span called `name` of its duration minus the duration
/// of its direct children, in ms.
pub fn self_ms(spans: &[Span], name: &str) -> f64 {
    let mut child_ns: HashMap<u32, u64> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != NO_PARENT) {
        *child_ns.entry(s.parent).or_default() += s.end_ns - s.start_ns;
    }
    spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.name == name)
        .map(|(i, s)| {
            let children = child_ns.get(&(i as u32)).copied().unwrap_or(0);
            (s.end_ns - s.start_ns - children) as f64 / 1e6
        })
        .fold(0.0, |acc, ms| acc + ms)
}

/// Timing decorator around a backend or a policy: every call into the
/// wrapped value runs inside a span named after the layer and the call.
pub struct Traced<T>(pub T);

impl<B: Backend> Backend for Traced<B> {
    fn now(&self) -> f64 {
        self.0.now()
    }

    fn update_cluster(&mut self, cluster: &mut ClusterState) {
        timed("backend.update_cluster", || self.0.update_cluster(cluster))
    }

    fn pop_wait_queue(&mut self, now: f64) -> Vec<Job> {
        timed("backend.pop_wait_queue", || self.0.pop_wait_queue(now))
    }

    fn peek_next_arrival(&self) -> Option<(JobId, f64)> {
        self.0.peek_next_arrival()
    }

    fn update_metrics(&mut self, cluster: &mut ClusterState, jobs: &mut JobState, elapsed: f64) {
        timed("backend.update_metrics", || {
            self.0.update_metrics(cluster, jobs, elapsed)
        })
    }

    fn observe_delta(&mut self, delta: &StateDelta) {
        timed("backend.observe_delta", || self.0.observe_delta(delta))
    }

    fn exec_jobs(
        &mut self,
        placement: &Placement,
        cluster: &mut ClusterState,
        jobs: &mut JobState,
    ) -> PlacementOutcome {
        timed("backend.exec_jobs", || {
            self.0.exec_jobs(placement, cluster, jobs)
        })
    }

    fn advance_round(&mut self, round_duration: f64) {
        timed("backend.advance_round", || {
            self.0.advance_round(round_duration)
        })
    }

    fn next_event_hint(&self, cluster: &ClusterState, jobs: &JobState) -> Option<f64> {
        timed("backend.next_event_hint", || {
            self.0.next_event_hint(cluster, jobs)
        })
    }
}

impl<A: AdmissionPolicy> AdmissionPolicy for Traced<A> {
    fn admit(
        &mut self,
        new_jobs: Vec<Job>,
        job_state: &JobState,
        cluster: &ClusterState,
        now: f64,
    ) -> Vec<Job> {
        let offered = new_jobs.len() as u64;
        timed_counted(
            "admit.admit",
            || self.0.admit(new_jobs, job_state, cluster, now),
            |admitted| (offered, admitted.len() as u64),
        )
    }

    fn pending(&self) -> usize {
        self.0.pending()
    }

    fn drain(&mut self) -> Vec<Job> {
        self.0.drain()
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

impl<S: SchedulingPolicy> SchedulingPolicy for Traced<S> {
    fn schedule(
        &mut self,
        job_state: &JobState,
        cluster: &ClusterState,
        now: f64,
    ) -> SchedulingDecision {
        timed_counted(
            "sched.schedule",
            || self.0.schedule(job_state, cluster, now),
            |d| (job_state.active_count() as u64, d.allocations.len() as u64),
        )
    }

    fn observe_delta(&mut self, delta: &StateDelta, job_state: &JobState) {
        timed("sched.observe_delta", || {
            self.0.observe_delta(delta, job_state)
        })
    }

    fn stable_between_events(&self) -> bool {
        self.0.stable_between_events()
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

impl<P: PlacementPolicy> PlacementPolicy for Traced<P> {
    fn place(
        &mut self,
        decision: &SchedulingDecision,
        job_state: &JobState,
        cluster: &ClusterState,
        now: f64,
    ) -> Placement {
        timed_counted(
            "place.place",
            || self.0.place(decision, job_state, cluster, now),
            |plan| {
                // Requested allocations that are not running yet: what a
                // launch could have answered.
                let requested = decision
                    .allocations
                    .iter()
                    .filter(|(id, _)| {
                        job_state
                            .get(*id)
                            .is_some_and(|j| j.status != JobStatus::Running)
                    })
                    .count();
                (requested as u64, plan.to_launch.len() as u64)
            },
        )
    }

    fn stable_between_events(&self) -> bool {
        self.0.stable_between_events()
    }

    fn name(&self) -> &str {
        self.0.name()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        take();
        set_key(7);
        timed("outer", || {
            timed("inner", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            timed_counted("counted", || 3u64, |n| (*n, 1));
        });
        let spans = take();
        assert_eq!(spans.len(), 4, "outer, inner, counted, trace.count");
        assert!(spans.iter().all(|s| s.key == 7));
        assert_eq!(spans[1].parent, 0);
        assert_eq!((spans[2].offered, spans[2].done), (3, 1));
        check_nesting(&spans).expect("well nested");
        let outer = spans[0].ms();
        let own = self_ms(&spans, "outer");
        assert!(own >= 0.0 && own < outer);
        assert_eq!(durations(&spans, "inner", Some("outer")).len(), 1);
        assert!(durations(&spans, "inner", Some("counted")).is_empty());
    }

    #[test]
    fn nesting_check_rejects_overlap() {
        let span = |start_ns, end_ns, parent| Span {
            name: "s",
            key: 0,
            start_ns,
            end_ns,
            parent,
            offered: 0,
            done: 0,
        };
        assert!(check_nesting(&[span(0, 10, NO_PARENT), span(1, 11, 0)]).is_err());
        assert!(check_nesting(&[span(0, 10, NO_PARENT), span(1, 5, 0), span(4, 6, 0)]).is_err());
        assert!(check_nesting(&[span(0, 10, NO_PARENT), span(1, 5, 0), span(5, 6, 0)]).is_ok());
    }
}
