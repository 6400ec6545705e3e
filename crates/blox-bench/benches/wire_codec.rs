//! Wire-codec microbenchmarks: encode/decode throughput of the runtime
//! protocol, and message round-trip rate over `blox-net`'s event-loop
//! transport on loopback TCP (the path every launch / lease / progress
//! message takes in the networked deployment).
//!
//! `BLOX_BENCH_JSON=BENCH_net.json cargo bench -p blox-bench --bench
//! wire_codec` appends one JSON line per benchmark.

use blox_core::ids::JobId;
use blox_net::{EvLoopConfig, EvLoopPool, EvTransport};
use blox_runtime::wire::{Message, Transport};
use criterion::{criterion_group, criterion_main, Criterion};
use std::net::{TcpListener, TcpStream};

/// A representative command-direction message (largest common frame).
fn launch_msg() -> Message {
    Message::Launch {
        job: JobId(42),
        local_gpus: vec![0, 1, 2, 3],
        iter_time_s: 0.25,
        start_iters: 1000.5,
        total_iters: 50_000.0,
        warmup_s: 20.0,
        is_rank0: true,
    }
}

/// A representative status-direction message (hot path: every round).
fn progress_msg() -> Message {
    Message::Progress {
        job: JobId(42),
        iters: 1234.5,
    }
}

/// A connected transport pair over an ephemeral loopback port, both
/// ends on `pool`.
fn tcp_pair(pool: &EvLoopPool) -> (EvTransport, EvTransport) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind ephemeral");
    let addr = listener.local_addr().expect("local addr");
    let client = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
    let (stream, _) = listener.accept().expect("accept");
    let server = EvTransport::from_stream(stream, pool).expect("register server");
    let client = EvTransport::from_stream(client.join().expect("client thread"), pool)
        .expect("register client");
    (server, client)
}

fn bench_codec(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_codec");
    group.sample_size(30);

    let launch = launch_msg();
    let progress = progress_msg();
    let launch_frame = launch.encode();
    let progress_frame = progress.encode();

    group.bench_function("encode_launch", |b| b.iter(|| launch.encode()));
    group.bench_function("encode_progress", |b| b.iter(|| progress.encode()));
    group.bench_function("decode_launch", |b| {
        b.iter(|| Message::decode(&launch_frame).expect("decode"))
    });
    group.bench_function("decode_progress", |b| {
        b.iter(|| Message::decode(&progress_frame).expect("decode"))
    });
    group.finish();
}

fn bench_tcp_loopback(c: &mut Criterion) {
    let mut group = c.benchmark_group("wire_tcp_loopback");
    group.sample_size(20);

    let pool = EvLoopPool::new(EvLoopConfig::default()).expect("event loop");
    let (server, client) = tcp_pair(&pool);
    // Echo server: every received frame is decoded, re-encoded, and sent
    // back — one full round trip measures 2× (encode + frame + decode).
    let echo = std::thread::spawn(move || {
        while let Ok(msg) = server.recv() {
            if server.send(&msg).is_err() {
                return;
            }
        }
    });

    // ns/iter here is the inverse round-trip rate: msgs/sec ≈ 2e9 / ns.
    group.bench_function("roundtrip_progress", |b| {
        b.iter(|| {
            client.send(&progress_msg()).expect("send");
            client.recv().expect("recv")
        })
    });
    group.bench_function("roundtrip_launch", |b| {
        b.iter(|| {
            client.send(&launch_msg()).expect("send");
            client.recv().expect("recv")
        })
    });
    group.finish();
    drop(client);
    let _ = echo.join();
}

criterion_group!(benches, bench_codec, bench_tcp_loopback);
criterion_main!(benches);
