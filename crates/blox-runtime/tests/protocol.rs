//! Integration coverage for the runtime's two thinnest layers: the lease
//! protocol (`lease.rs`) driven end-to-end over the wire codec
//! (`wire.rs`), and the codec's robustness against hostile frames.

use std::sync::Arc;
use std::time::Duration;

use blox_core::ids::{JobId, NodeId};
use blox_runtime::lease::{LeaseTable, TwoPhaseExit};
use blox_runtime::wire::{wire_bus, Endpoint, Message};
use rand::{Rng, SeedableRng};

// Lease protocol over the wire ----------------------------------------------

/// Centralized renewal, end-to-end: a scheduler thread answers
/// `LeaseCheck`s through the codec, flips one job to invalid after a
/// revocation, and the worker observes exactly that transition.
#[test]
fn centralized_lease_check_round_trips_revocation() {
    let (scheduler_side, worker_side) = Endpoint::pair();
    let server = std::thread::spawn(move || {
        let mut revoked = false;
        loop {
            match scheduler_side.recv() {
                Ok(Message::LeaseCheck { job }) => {
                    let valid = !(revoked && job == JobId(1));
                    scheduler_side
                        .send(&Message::LeaseStatus { job, valid })
                        .expect("worker alive");
                }
                Ok(Message::Revoke { job }) => {
                    assert_eq!(job, JobId(1));
                    revoked = true;
                    scheduler_side.send(&Message::Ack).expect("worker alive");
                }
                Ok(other) => panic!("unexpected message {other:?}"),
                Err(_) => return, // worker hung up; test over
            }
        }
    });

    let check = |job: u64| -> bool {
        worker_side
            .send(&Message::LeaseCheck { job: JobId(job) })
            .expect("scheduler alive");
        match worker_side.recv().expect("scheduler alive") {
            Message::LeaseStatus { job: j, valid } => {
                assert_eq!(j, JobId(job));
                valid
            }
            other => panic!("unexpected reply {other:?}"),
        }
    };

    assert!(check(1), "lease valid before revocation");
    assert!(check(2));
    worker_side
        .send(&Message::Revoke { job: JobId(1) })
        .expect("scheduler alive");
    assert_eq!(worker_side.recv().expect("ack"), Message::Ack);
    assert!(!check(1), "lease invalid after revocation");
    assert!(check(2), "other jobs unaffected");
    drop(worker_side);
    server.join().expect("server thread");
}

/// Optimistic mode with a distributed job: the revocation reaches rank 0
/// over the wire, rank 0 fixes `exit_iter` and propagates it through the
/// two-phase coordinator, and every shard stops at the same boundary.
#[test]
fn optimistic_two_phase_exit_over_the_wire() {
    let shards: Vec<Arc<LeaseTable>> = (0..4).map(|_| Arc::new(LeaseTable::new())).collect();
    let job = JobId(9);
    for s in &shards {
        s.grant(job);
    }

    let (scheduler_side, rank0_side) = Endpoint::pair();
    let coordinator = TwoPhaseExit::new(shards.clone());
    let rank0 = std::thread::spawn(move || {
        // Rank 0 simulates iterating until the revocation lands.
        let mut iter = 0u64;
        loop {
            match rank0_side.try_recv().expect("scheduler alive") {
                Some(Message::Revoke { job: j }) => {
                    assert_eq!(j, job);
                    let exit_iter = coordinator.revoke(job, iter);
                    rank0_side
                        .send(&Message::ExitAt { job, exit_iter })
                        .expect("scheduler alive");
                    return iter;
                }
                Some(other) => panic!("unexpected message {other:?}"),
                None => iter += 1,
            }
        }
    });

    scheduler_side
        .send(&Message::Revoke { job })
        .expect("rank0 alive");
    let exit_iter = match scheduler_side.recv().expect("rank0 alive") {
        Message::ExitAt { job: j, exit_iter } => {
            assert_eq!(j, job);
            exit_iter
        }
        other => panic!("unexpected message {other:?}"),
    };
    let iter_at_revoke = rank0.join().expect("rank0 thread");
    assert_eq!(
        exit_iter,
        iter_at_revoke + 1,
        "exit is one past the revoke point"
    );

    let coordinator = TwoPhaseExit::new(shards.clone());
    assert!(coordinator.is_consistent(job));
    for s in &shards {
        assert!(
            s.may_run(job, exit_iter),
            "shards finish the agreed iteration"
        );
        assert!(!s.may_run(job, exit_iter + 1), "and stop together after it");
    }
}

/// Lease state transitions compose: grant → revoke → re-grant restores a
/// valid lease (a preempted job that gets rescheduled).
#[test]
fn regrant_after_revocation_restores_lease() {
    let t = LeaseTable::new();
    let job = JobId(3);
    t.grant(job);
    t.revoke_at(job, 5);
    assert!(!t.may_run(job, 6));
    t.grant(job);
    assert!(
        t.may_run(job, 1_000_000),
        "re-granted lease is unbounded again"
    );
}

// Wire codec robustness ------------------------------------------------------

fn sample_messages() -> Vec<Message> {
    vec![
        Message::RegisterWorker {
            node: NodeId(u32::MAX),
            gpus: 0,
        },
        Message::Launch {
            job: JobId(u64::MAX),
            local_gpus: Vec::new(), // zero-GPU shard frame must survive
            iter_time_s: f64::MIN_POSITIVE,
            start_iters: 0.0,
            total_iters: 1e18,
            warmup_s: 0.0,
            is_rank0: false,
        },
        Message::PushMetric {
            job: JobId(0),
            key: String::new(), // empty key
            value: -0.0,
        },
        Message::PushMetric {
            job: JobId(1),
            key: "损失/λ=0.5 🦀".to_string(), // multi-byte UTF-8 key
            value: f64::MAX,
        },
        Message::ExitAt {
            job: JobId(1),
            exit_iter: u64::MAX,
        },
    ]
}

/// Edge-value frames round-trip exactly (the unit tests cover typical
/// values; this covers the extremes).
#[test]
fn edge_value_frames_round_trip() {
    for msg in sample_messages() {
        let back = Message::decode(&msg.encode()).expect("decode");
        assert_eq!(msg, back);
    }
}

/// Single-byte corruptions of valid frames never panic the decoder: they
/// either decode to some (possibly different) message or error cleanly.
#[test]
fn mutated_frames_never_panic() {
    let mut rng = rand::rngs::StdRng::seed_from_u64(0xC0DEC);
    for msg in sample_messages() {
        let frame = msg.encode();
        for _ in 0..200 {
            let mut corrupt = frame.clone();
            let pos = rng.gen_range(0..corrupt.len());
            corrupt[pos] ^= 1u8 << rng.gen_range(0u32..8);
            let _ = Message::decode(&corrupt);
        }
    }
}

/// Frames with trailing garbage decode the leading message (the length
/// prefix discipline means the transport only ever hands exact frames,
/// but the decoder must not read past its input either way).
#[test]
fn oversized_buffers_do_not_confuse_the_decoder() {
    let msg = Message::Revoke { job: JobId(8) };
    let mut frame = msg.encode();
    frame.extend_from_slice(&[0xAB; 16]);
    assert_eq!(Message::decode(&frame).expect("decode"), msg);
}

// Bus transport ---------------------------------------------------------------

/// Many producers share one bus; the consumer sees every message and
/// `recv_timeout` returns `None` (not an error) once the queue drains
/// while senders are still alive.
#[test]
fn bus_fans_in_from_many_producers() {
    let (tx, rx) = wire_bus();
    let producers: Vec<_> = (0..8)
        .map(|p| {
            let tx = tx.clone();
            std::thread::spawn(move || {
                for i in 0..50u64 {
                    tx.send(&Message::Progress {
                        job: JobId(p),
                        iters: i as f64,
                    })
                    .expect("bus alive");
                }
            })
        })
        .collect();
    for h in producers {
        h.join().expect("producer");
    }

    let mut per_job = std::collections::BTreeMap::new();
    while let Some(msg) = rx.try_recv().expect("senders alive") {
        match msg {
            Message::Progress { job, iters } => {
                let seen: &mut Vec<f64> = per_job.entry(job).or_default();
                seen.push(iters);
            }
            other => panic!("unexpected message {other:?}"),
        }
    }
    assert_eq!(per_job.len(), 8, "every producer delivered");
    for (job, iters) in per_job {
        assert_eq!(iters.len(), 50, "job {job:?} lost messages");
        assert!(
            iters.windows(2).all(|w| w[0] < w[1]),
            "per-producer FIFO order preserved for {job:?}"
        );
    }
    assert_eq!(
        rx.recv_timeout(Duration::from_millis(1)).expect("alive"),
        None,
        "empty-but-connected bus times out as None"
    );
}

/// Dropping the last sender surfaces as a transport error, not a hang.
#[test]
fn bus_disconnect_is_an_error() {
    let (tx, rx) = wire_bus();
    tx.send(&Message::Ack).expect("receiver alive");
    drop(tx);
    assert_eq!(rx.try_recv().expect("queued frame"), Some(Message::Ack));
    assert!(rx.try_recv().is_err(), "disconnected bus errors");
    assert!(rx.recv_timeout(Duration::from_millis(1)).is_err());
}
