//! Loopback cluster test for the networked deployment that needs no
//! poller matrix. The cluster scenarios themselves (fidelity, churn,
//! heartbeat deadlines, submission gaps) live in `tests/scenarios/` and
//! run on both readiness backends from `tests/evloop.rs` (poll) and
//! `tests/epoll.rs`; the compiled-daemon run is
//! `evloop.rs::daemon_binaries_run_on_the_event_loop`.

use blox_net::sched::{NetBackend, SchedulerConfig};

/// Two schedulers binding `127.0.0.1:0` concurrently get distinct,
/// resolved ports — the no-collision guarantee parallel tests rely on.
#[test]
fn ephemeral_ports_never_collide() {
    let a = NetBackend::bind(SchedulerConfig::default()).expect("bind a");
    let b = NetBackend::bind(SchedulerConfig::default()).expect("bind b");
    assert_ne!(a.addr().port(), 0);
    assert_ne!(b.addr().port(), 0);
    assert_ne!(a.addr(), b.addr());
}
