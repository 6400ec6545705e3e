//! Readiness-driven TCP engine: one (optionally sharded) event loop
//! owning every connection, with no reader thread per socket. This is
//! the only engine in `blox-net`; the scheduler, node daemons, clients
//! and load generator all speak the wire protocol through it.
//!
//! * **one loop thread per shard** owns all of its connections in a
//!   generation-tagged slab; readiness comes from a persistent
//!   [`crate::poller::ReadinessPoller`] registration — `epoll(7)` on
//!   Linux (O(ready) wakeups) or `poll(2)` as the portable fallback,
//!   selected by [`crate::poller::PollerKind`]. Interest is registered
//!   once per connection and modified only when it changes (write
//!   interest toggling around a partial write); the self-pipe waker is
//!   registered once at loop start. Nothing is rebuilt per wake;
//! * **batched decode**: a readable wake drains the socket until
//!   `WouldBlock` and decodes *every* complete length-prefixed frame in
//!   the buffer ([`crate::frame::FrameBuf`]), so one syscall round-trip
//!   amortizes across a burst of messages;
//! * **zero-copy buffered writes with backpressure**: senders never
//!   block on the socket — frames are encoded once into refcounted
//!   [`SharedFrame`] chunks (pooled scratch, see
//!   [`crate::frame::encode_shared`]) and queued by reference into a
//!   per-connection [`crate::outq::OutQueue`] drained by `writev(2)`
//!   scatter-gather. A fan-out frame is one allocation shared by every
//!   peer's queue. A peer that stops reading grows its bounded outbound
//!   queue until the loop disconnects it (the slow-client policy), and
//!   the sender sees an explicit close reason.
//!
//! [`EvTransport`] (client/node side) implements the runtime's
//! `Transport` contract over one connection; the [`LoopEvent`] stream
//! (scheduler / load-generator side) multiplexes many. `NetBackend`,
//! `bloxschedd`, and `bloxnoded` pick a readiness backend with
//! `--poller`.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use blox_core::error::{BloxError, Result};
use blox_runtime::wire::{Message, Transport, WireSender};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender, TryRecvError};
use parking_lot::Mutex;

use crate::frame::{encode_shared, FrameBuf, SharedFrame};
use crate::outq::OutQueue;
use crate::poller::{new_poller, Interest, PollerKind, ReadinessPoller, ReadyEvent};

// Engine selection ------------------------------------------------------------

/// The TCP engine a daemon runs on. There is only one, so nothing reads
/// this: the type and the `transport` fields of `SchedulerConfig` and
/// `NodeConfig` remain only because the benchmark harness under
/// `perfbench/` names them. They go once that harness stops doing so.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// The readiness-driven event loop in this module.
    #[default]
    EvLoop,
}

// Tokens ----------------------------------------------------------------------

/// Stable identity of one connection: a slab slot plus a generation, so a
/// token from a closed connection can never alias the slot's next tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Token(u64);

/// The poller registration the loop's self-pipe waker lives under. A
/// slab token would need slot and generation both at `u32::MAX` to
/// collide — 2^32 connection turnovers on one slot of a loop that also
/// has 2^32 slots live.
const WAKER_TOKEN: u64 = u64::MAX;

impl Token {
    /// Recover a token from its poller registration value.
    fn from_raw(raw: u64) -> Self {
        Token(raw)
    }

    fn new(slot: u32, gen: u32) -> Self {
        Token((u64::from(gen) << 32) | u64::from(slot))
    }

    fn raw(self) -> u64 {
        self.0
    }

    fn slot(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn gen(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

impl std::fmt::Display for Token {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "conn#{}", self.0)
    }
}

// Events and senders ----------------------------------------------------------

/// One connection-lifecycle event, delivered into the consumer's event
/// channel (the scheduler's round loop, the load generator's collector).
pub enum LoopEvent {
    /// A new connection, with its send half.
    Connected(Token, EvSender),
    /// A decoded message plus its wall-clock arrival stamp (taken where
    /// the frame was decoded, so heartbeat freshness is measured from
    /// when the beat landed, not from when the consumer drained it).
    Msg(Token, Message, Instant),
    /// The connection is gone (peer close, error, or slow-client policy).
    Closed(Token),
}

impl LoopEvent {
    /// The connection this event belongs to.
    pub(crate) fn token(&self) -> Token {
        match self {
            LoopEvent::Connected(t, _) | LoopEvent::Msg(t, ..) | LoopEvent::Closed(t) => *t,
        }
    }
}

impl std::fmt::Debug for LoopEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoopEvent::Connected(t, _) => write!(f, "Connected({t})"),
            LoopEvent::Msg(t, msg, _) => write!(f, "Msg({t}, {msg:?})"),
            LoopEvent::Closed(t) => write!(f, "Closed({t})"),
        }
    }
}

/// Where a connection's inbound frames go.
pub enum Delivery {
    /// Raw frame payloads into a channel — the [`EvTransport`] receive
    /// side, which decodes lazily on `recv`.
    Frames(Sender<Vec<u8>>),
    /// Decoded messages as [`LoopEvent`]s — the scheduler / load-generator
    /// side, where one channel multiplexes every connection.
    Events(Sender<LoopEvent>),
}

/// State shared between a connection's [`EvSender`] handles and the loop
/// that owns the socket.
struct ConnShared {
    closed: AtomicBool,
    /// Bytes queued toward the socket but not yet written. Every byte a
    /// sender enqueues is added here, and flush subtracts exactly what it
    /// writes, so [`EvSender::queued_bytes`] and the slow-client policy
    /// reconcile against the same totals.
    queued: AtomicUsize,
    reason: Mutex<Option<String>>,
}

impl ConnShared {
    fn close(&self, reason: &str) {
        let mut slot = self.reason.lock();
        if slot.is_none() {
            *slot = Some(reason.to_string());
        }
        self.closed.store(true, Ordering::Release);
    }
}

/// Clonable send half of an event-loop connection. `send` never blocks on
/// the socket: it frames the message, hands it to the owning loop, and
/// wakes it; the loop flushes under write interest. Any number of
/// threads may send through clones: each frame is queued whole, so
/// frames never interleave on the wire.
///
/// Once the loop closes the connection — peer loss, a write error, the
/// slow-client policy, or a local [`EvSender::shutdown`] — every later
/// send fails fast with the recorded [`EvSender::close_reason`], so a
/// caller gets a failure verdict at the send site.
#[derive(Clone)]
pub struct EvSender {
    cmds: Sender<Cmd>,
    waker: Waker,
    token: Token,
    shared: Arc<ConnShared>,
}

impl EvSender {
    /// This connection's token.
    pub fn token(&self) -> Token {
        self.token
    }

    /// Encode (into pooled scratch) and enqueue one message; fails fast
    /// once the loop has closed the connection (peer loss or the
    /// slow-client policy).
    pub fn send(&self, msg: &Message) -> Result<()> {
        // An oversized message fails here, before any bytes are queued —
        // the connection stays healthy.
        let frame = encode_shared(msg)?;
        self.send_shared(&frame)
    }

    /// Enqueue a pre-encoded frame by reference — no copy, the loop's
    /// queue shares the allocation. This is how a broadcast encoded once
    /// fans out to N connections for N refcount bumps.
    pub fn send_shared(&self, frame: &SharedFrame) -> Result<()> {
        if self.shared.closed.load(Ordering::Acquire) {
            return Err(BloxError::Transport(format!(
                "ev send on closed connection: {}",
                self.close_reason().unwrap_or_else(|| "closed".into())
            )));
        }
        self.shared.queued.fetch_add(frame.len(), Ordering::Relaxed);
        self.cmds
            .send(Cmd::Send(self.token, frame.clone()))
            .map_err(|_| BloxError::Transport("event loop is gone".into()))?;
        self.waker.wake();
        Ok(())
    }

    /// Ask the loop to flush briefly and close the connection.
    pub fn shutdown(&self) {
        let _ = self.cmds.send(Cmd::Close(self.token));
        self.waker.wake();
    }

    /// Bytes queued toward the socket but not yet written.
    pub fn queued_bytes(&self) -> usize {
        self.shared.queued.load(Ordering::Relaxed)
    }

    /// Has the loop closed this connection?
    pub fn is_closed(&self) -> bool {
        self.shared.closed.load(Ordering::Acquire)
    }

    /// Why the loop closed this connection, once it has.
    pub fn close_reason(&self) -> Option<String> {
        self.shared.reason.lock().clone()
    }
}

impl WireSender for EvSender {
    fn send(&self, msg: &Message) -> Result<()> {
        EvSender::send(self, msg)
    }

    fn clone_sender(&self) -> Box<dyn WireSender> {
        Box::new(self.clone())
    }
}

/// A connected, bidirectional event-loop message link implementing the
/// runtime's [`Transport`] contract: the loop reassembles inbound frames
/// into a channel, so `recv` / `try_recv` / `recv_timeout` have the
/// exact semantics of `blox_runtime::wire::Endpoint`.
pub struct EvTransport {
    sender: EvSender,
    frames: Receiver<Vec<u8>>,
}

impl EvTransport {
    /// Connect to a listening peer and register the socket with `pool`.
    pub fn connect(addr: SocketAddr, pool: &EvLoopPool) -> Result<Self> {
        let stream = TcpStream::connect(addr)
            .map_err(|e| BloxError::Transport(format!("connect {addr}: {e}")))?;
        Self::from_stream(stream, pool)
    }

    /// Register an accepted or connected stream with `pool`.
    pub fn from_stream(stream: TcpStream, pool: &EvLoopPool) -> Result<Self> {
        let (tx, frames) = unbounded();
        let sender = pool.register(stream, Delivery::Frames(tx))?;
        Ok(EvTransport { sender, frames })
    }

    /// A clonable send-only handle onto this link.
    pub fn sender(&self) -> EvSender {
        self.sender.clone()
    }
}

impl Drop for EvTransport {
    fn drop(&mut self) {
        self.sender.shutdown();
    }
}

impl Transport for EvTransport {
    fn send(&self, msg: &Message) -> Result<()> {
        self.sender.send(msg)
    }

    fn recv(&self) -> Result<Message> {
        let frame = self
            .frames
            .recv()
            .map_err(|_| BloxError::Transport("peer disconnected".into()))?;
        Message::decode(&frame)
    }

    fn try_recv(&self) -> Result<Option<Message>> {
        match self.frames.try_recv() {
            Ok(frame) => Ok(Some(Message::decode(&frame)?)),
            Err(TryRecvError::Empty) => Ok(None),
            Err(TryRecvError::Disconnected) => {
                Err(BloxError::Transport("peer disconnected".into()))
            }
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<Option<Message>> {
        match self.frames.recv_timeout(timeout) {
            Ok(frame) => Ok(Some(Message::decode(&frame)?)),
            Err(RecvTimeoutError::Timeout) => Ok(None),
            Err(RecvTimeoutError::Disconnected) => {
                Err(BloxError::Transport("peer disconnected".into()))
            }
        }
    }
}

// Waker -----------------------------------------------------------------------

/// Wakes a sleeping loop from sender threads via a self-pipe: the write
/// end lives in every `EvSender`, the read end is registered once with
/// the loop's poller under [`WAKER_TOKEN`].
#[derive(Clone)]
struct Waker {
    #[cfg(unix)]
    tx: Arc<std::os::unix::net::UnixStream>,
}

impl Waker {
    fn wake(&self) {
        // A full pipe means a wake is already pending — dropping the
        // byte is exactly right.
        #[cfg(unix)]
        {
            let _ = (&*self.tx).write(&[1u8]);
        }
    }
}

#[cfg(unix)]
fn waker_pair() -> std::io::Result<(Waker, std::os::unix::net::UnixStream)> {
    let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
    tx.set_nonblocking(true)?;
    rx.set_nonblocking(true)?;
    Ok((Waker { tx: Arc::new(tx) }, rx))
}

/// The raw fd handed to the poller for a connection's socket. Non-unix
/// has no raw fds; the portable tick backend ignores the value.
fn stream_fd(stream: &TcpStream) -> crate::poller::RawFd {
    #[cfg(unix)]
    {
        use std::os::unix::io::AsRawFd;
        stream.as_raw_fd()
    }
    #[cfg(not(unix))]
    {
        let _ = stream;
        -1
    }
}

// The loop itself -------------------------------------------------------------

/// Upper bound on one poller sleep. Commands wake the loop early through
/// the self-pipe waker, so this only bounds the gap between command-queue
/// checks when nothing else happens.
const IDLE_WAIT: Duration = Duration::from_millis(25);

/// Event-loop pool configuration.
#[derive(Debug, Clone)]
pub struct EvLoopConfig {
    /// Loop threads; connections are assigned round-robin at
    /// registration. One shard is right until a single core saturates.
    pub shards: usize,
    /// Slow-client policy: a connection whose outbound queue exceeds this
    /// many bytes after a flush attempt is disconnected (the peer has
    /// stopped reading; unbounded buffering would turn one slow client
    /// into scheduler memory growth).
    pub max_out_bytes: usize,
    /// Readiness backend each shard runs on (`Auto` picks epoll on
    /// Linux, poll elsewhere).
    pub poller: PollerKind,
}

impl Default for EvLoopConfig {
    fn default() -> Self {
        EvLoopConfig {
            shards: 1,
            max_out_bytes: 8 * 1024 * 1024,
            poller: PollerKind::Auto,
        }
    }
}

enum Cmd {
    Register {
        stream: TcpStream,
        delivery: Delivery,
        reply: Sender<EvSender>,
    },
    Send(Token, SharedFrame),
    Close(Token),
    Stop,
}

/// A running pool of event-loop shards. Dropping the pool stops every
/// shard (after a brief best-effort flush of pending writes).
pub struct EvLoopPool {
    shards: Vec<ShardHandle>,
    next: AtomicUsize,
}

struct ShardHandle {
    cmds: Sender<Cmd>,
    waker: Waker,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl EvLoopPool {
    /// Spawn the shard threads, each with its own readiness backend of
    /// `cfg.poller`'s kind (an epoll instance per shard; a pollfd set
    /// per shard).
    pub fn new(cfg: EvLoopConfig) -> Result<Self> {
        let mut shards = Vec::new();
        for i in 0..cfg.shards.max(1) {
            let poller = new_poller(cfg.poller)
                .map_err(|e| BloxError::Transport(format!("create {} poller: {e}", cfg.poller)))?;
            #[cfg(unix)]
            let (waker, waker_rx) =
                waker_pair().map_err(|e| BloxError::Transport(format!("event loop waker: {e}")))?;
            #[cfg(not(unix))]
            let waker = Waker {};
            let (tx, rx) = unbounded();
            let cfg2 = cfg.clone();
            let tx2 = tx.clone();
            let waker2 = waker.clone();
            let thread = std::thread::Builder::new()
                .name(format!("blox-evloop-{i}"))
                .spawn(move || {
                    let mut shard = ShardState::new(cfg2, poller, tx2, waker2);
                    #[cfg(unix)]
                    shard.run(rx, waker_rx);
                    #[cfg(not(unix))]
                    shard.run(rx);
                })
                .map_err(|e| BloxError::Transport(format!("spawn event loop: {e}")))?;
            shards.push(ShardHandle {
                cmds: tx,
                waker,
                thread: Some(thread),
            });
        }
        Ok(EvLoopPool {
            shards,
            next: AtomicUsize::new(0),
        })
    }

    /// Hand a connected stream to a shard (round-robin) and get its send
    /// half back. The loop delivers a `LoopEvent::Connected` first (for
    /// [`Delivery::Events`] consumers) and owns the socket from here on.
    pub fn register(&self, stream: TcpStream, delivery: Delivery) -> Result<EvSender> {
        let shard = &self.shards[self.next.fetch_add(1, Ordering::Relaxed) % self.shards.len()];
        let (reply_tx, reply_rx) = unbounded();
        shard
            .cmds
            .send(Cmd::Register {
                stream,
                delivery,
                reply: reply_tx,
            })
            .map_err(|_| BloxError::Transport("event loop is gone".into()))?;
        shard.waker.wake();
        reply_rx
            .recv_timeout(Duration::from_secs(5))
            .map_err(|_| BloxError::Transport("event loop did not accept the connection".into()))
    }
}

impl Drop for EvLoopPool {
    fn drop(&mut self) {
        for shard in &mut self.shards {
            let _ = shard.cmds.send(Cmd::Stop);
            shard.waker.wake();
            if let Some(t) = shard.thread.take() {
                let _ = t.join();
            }
        }
    }
}

/// The process-wide default pool (one shard, auto-detected poller), for
/// node daemons and clients that just need "an event loop" without
/// managing a pool.
pub fn global_pool() -> &'static EvLoopPool {
    shared_pool(PollerKind::Auto)
}

/// A process-wide shared pool pinned to a readiness backend: `Auto`
/// resolves per platform, and the epoll / poll pools are distinct
/// singletons so daemons pinned to different backends (differential
/// tests, `--poller` overrides) never share loop threads.
pub fn shared_pool(kind: PollerKind) -> &'static EvLoopPool {
    static EPOLL: OnceLock<EvLoopPool> = OnceLock::new();
    static POLL: OnceLock<EvLoopPool> = OnceLock::new();
    let kind = kind.resolve();
    let cell = match kind {
        PollerKind::Epoll => &EPOLL,
        PollerKind::Poll => &POLL,
        PollerKind::Auto => unreachable!("resolve() returns a concrete kind"),
    };
    cell.get_or_init(|| {
        EvLoopPool::new(EvLoopConfig {
            poller: kind,
            ..EvLoopConfig::default()
        })
        .expect("spawn shared event loop")
    })
}

struct Conn {
    token: Token,
    stream: TcpStream,
    inbox: FrameBuf,
    out: OutQueue,
    /// Whether write interest is currently registered with the poller
    /// (mod-on-change: toggled only when `out` transitions between empty
    /// and non-empty after a flush).
    want_write: bool,
    delivery: Delivery,
    shared: Arc<ConnShared>,
}

/// Generation-tagged connection slab: slot reuse bumps the generation,
/// so commands racing a disconnect address nobody instead of the slot's
/// next tenant.
#[derive(Default)]
struct Slab {
    slots: Vec<Option<Conn>>,
    gens: Vec<u32>,
    free: Vec<u32>,
}

impl Slab {
    fn insert_with(&mut self, make: impl FnOnce(Token) -> Conn) -> Token {
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                self.gens.push(0);
                (self.slots.len() - 1) as u32
            }
        };
        let token = Token::new(slot, self.gens[slot as usize]);
        self.slots[slot as usize] = Some(make(token));
        token
    }

    fn get_mut(&mut self, token: Token) -> Option<&mut Conn> {
        let slot = token.slot();
        if self.gens.get(slot) != Some(&token.gen()) {
            return None;
        }
        self.slots[slot].as_mut()
    }

    fn remove(&mut self, token: Token) -> Option<Conn> {
        let slot = token.slot();
        if self.gens.get(slot) != Some(&token.gen()) {
            return None;
        }
        let conn = self.slots[slot].take()?;
        self.gens[slot] = self.gens[slot].wrapping_add(1);
        self.free.push(slot as u32);
        Some(conn)
    }

    fn tokens(&self) -> Vec<Token> {
        self.slots.iter().flatten().map(|c| c.token).collect()
    }
}

/// Per-shard loop state.
struct ShardState {
    cfg: EvLoopConfig,
    slab: Slab,
    poller: Box<dyn ReadinessPoller>,
    /// Handle onto our own command queue, for minting `EvSender`s.
    cmds_tx: Sender<Cmd>,
    waker: Waker,
}

impl ShardState {
    fn new(
        cfg: EvLoopConfig,
        poller: Box<dyn ReadinessPoller>,
        cmds_tx: Sender<Cmd>,
        waker: Waker,
    ) -> Self {
        ShardState {
            cfg,
            slab: Slab::default(),
            poller,
            cmds_tx,
            waker,
        }
    }

    fn run(&mut self, cmds: Receiver<Cmd>, #[cfg(unix)] waker_rx: std::os::unix::net::UnixStream) {
        // The waker is registered exactly once, for the lifetime of the
        // loop; connection fds register on accept and deregister on
        // disconnect. Nothing is rebuilt per wake.
        #[cfg(unix)]
        let mut waker_rx = waker_rx;
        #[cfg(unix)]
        {
            use std::os::unix::io::AsRawFd;
            self.poller
                .register(waker_rx.as_raw_fd(), WAKER_TOKEN, Interest::READ)
                .expect("register event-loop waker");
        }
        let mut ready: Vec<ReadyEvent> = Vec::new();
        loop {
            // 1. Drain every queued command.
            loop {
                match cmds.try_recv() {
                    Ok(Cmd::Stop) => {
                        self.stop_flush();
                        return;
                    }
                    Ok(cmd) => self.handle_cmd(cmd),
                    Err(_) => break,
                }
            }

            // 2. Sleep until readiness or a command wakes the loop.
            ready.clear();
            self.poller.wait(IDLE_WAIT, &mut ready);

            // 3. Service readiness (the waker drains in place; a token
            //    that raced a disconnect resolves to nobody and is
            //    skipped).
            for ev in ready.iter().copied() {
                if ev.token == WAKER_TOKEN {
                    #[cfg(unix)]
                    {
                        let mut sink = [0u8; 64];
                        while matches!(waker_rx.read(&mut sink), Ok(n) if n > 0) {}
                    }
                    continue;
                }
                let token = Token::from_raw(ev.token);
                if ev.invalid {
                    self.disconnect(token, "invalid socket");
                    continue;
                }
                // HUP/ERR fall through to the read path, which surfaces
                // the remaining buffered bytes and then the close/error.
                if ev.readable {
                    if let Err(why) = self.drain_read(token) {
                        self.disconnect(token, &why);
                        continue;
                    }
                }
                if ev.writable {
                    if let Err(why) = self.flush(token) {
                        self.disconnect(token, &why);
                    }
                }
            }
        }
    }

    fn handle_cmd(&mut self, cmd: Cmd) {
        match cmd {
            Cmd::Register {
                stream,
                delivery,
                reply,
            } => {
                let _ = stream.set_nonblocking(true);
                let _ = stream.set_nodelay(true);
                let fd = stream_fd(&stream);
                let shared = Arc::new(ConnShared {
                    closed: AtomicBool::new(false),
                    queued: AtomicUsize::new(0),
                    reason: Mutex::new(None),
                });
                let shared2 = shared.clone();
                let token = self.slab.insert_with(|token| Conn {
                    token,
                    stream,
                    inbox: FrameBuf::new(),
                    out: OutQueue::new(),
                    want_write: false,
                    delivery,
                    shared: shared2,
                });
                let sender = EvSender {
                    cmds: self.cmds_tx.clone(),
                    waker: self.waker.clone(),
                    token,
                    shared,
                };
                // Persistent registration: this is the one ADD this
                // connection ever sees; flush toggles write interest
                // with MOD, disconnect removes with DEL.
                if let Err(e) = self.poller.register(fd, token.raw(), Interest::READ) {
                    let _ = reply.send(sender);
                    self.disconnect(token, &format!("poller register: {e}"));
                    return;
                }
                // Connected is delivered by the loop, *before* any frame
                // from this socket can be read, so consumers never see a
                // message from a connection they were not introduced to.
                if let Some(conn) = self.slab.get_mut(token) {
                    if let Delivery::Events(tx) = &conn.delivery {
                        if tx
                            .send(LoopEvent::Connected(token, sender.clone()))
                            .is_err()
                        {
                            self.disconnect(token, "event receiver dropped");
                        }
                    }
                }
                let _ = reply.send(sender);
            }
            Cmd::Send(token, frame) => {
                // A stale token raced a disconnect: the frame is dropped
                // like any other write after peer loss, and the sender's
                // next call sees the closed flag.
                if let Some(conn) = self.slab.get_mut(token) {
                    conn.out.push(frame);
                    if let Err(why) = self.flush(token) {
                        self.disconnect(token, &why);
                    }
                }
            }
            Cmd::Close(token) => {
                // Deliberate local close: give buffered frames (e.g. the
                // final Shutdown broadcast) a bounded chance to reach the
                // peer before the socket closes.
                let deadline = Instant::now() + Duration::from_millis(50);
                while self
                    .slab
                    .get_mut(token)
                    .is_some_and(|c| c.out.pending() > 0)
                    && Instant::now() < deadline
                {
                    if self.flush(token).is_err() {
                        break;
                    }
                    if self
                        .slab
                        .get_mut(token)
                        .is_some_and(|c| c.out.pending() > 0)
                    {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
                self.disconnect(token, "closed locally");
            }
            Cmd::Stop => unreachable!("Stop is handled by the run loop"),
        }
    }

    /// Drain as much of the outbound queue as the socket accepts via
    /// `writev` gathers; toggles write interest (mod-on-change) on the
    /// empty/non-empty transitions and applies the slow-client policy
    /// when the queue stays over budget.
    fn flush(&mut self, token: Token) -> std::result::Result<(), String> {
        let max_out = self.cfg.max_out_bytes;
        let Some(conn) = self.slab.get_mut(token) else {
            return Ok(());
        };
        while !conn.out.is_empty() {
            match conn.out.write_once(&conn.stream) {
                Ok(n) => {
                    conn.shared.queued.fetch_sub(n, Ordering::Relaxed);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        let want = !conn.out.is_empty();
        if want != conn.want_write {
            conn.want_write = want;
            self.poller.modify(
                stream_fd(&conn.stream),
                token.raw(),
                Interest { writable: want },
            );
        }
        if conn.out.pending() > max_out {
            return Err(format!(
                "slow client: {} bytes queued (max {})",
                conn.out.pending(),
                max_out
            ));
        }
        Ok(())
    }

    /// Drain the socket until `WouldBlock` (bounded per wake for
    /// fairness; level-triggered polling revisits the rest), decoding and
    /// delivering every complete frame.
    fn drain_read(&mut self, token: Token) -> std::result::Result<(), String> {
        let Some(conn) = self.slab.get_mut(token) else {
            return Ok(());
        };
        let mut chunk = [0u8; 64 * 1024];
        let mut taken = 0usize;
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Deliver what is already complete, then report EOF.
                    Self::deliver_frames(conn)?;
                    return Err("peer disconnected".into());
                }
                Ok(n) => {
                    conn.inbox.extend_from_slice(&chunk[..n]);
                    Self::deliver_frames(conn)?;
                    taken += n;
                    if taken >= 1 << 20 {
                        return Ok(()); // Fairness cap; the poller re-reports.
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }

    fn deliver_frames(conn: &mut Conn) -> std::result::Result<(), String> {
        loop {
            match conn.inbox.try_decode() {
                Ok(Some(payload)) => match &conn.delivery {
                    Delivery::Frames(tx) => {
                        if tx.send(payload).is_err() {
                            return Err("frame receiver dropped".into());
                        }
                    }
                    Delivery::Events(tx) => {
                        let msg = Message::decode(&payload)
                            .map_err(|e| format!("protocol violation: {e}"))?;
                        if tx
                            .send(LoopEvent::Msg(conn.token, msg, Instant::now()))
                            .is_err()
                        {
                            return Err("event receiver dropped".into());
                        }
                    }
                },
                Ok(None) => return Ok(()),
                Err(e) => return Err(e.to_string()),
            }
        }
    }

    fn disconnect(&mut self, token: Token, reason: &str) {
        let Some(conn) = self.slab.remove(token) else {
            return;
        };
        // Deregister before the socket closes: a closed fd cannot be
        // removed from a readiness set.
        self.poller.deregister(stream_fd(&conn.stream), token.raw());
        conn.shared.close(reason);
        let _ = conn.stream.shutdown(Shutdown::Both);
        if let Delivery::Events(tx) = &conn.delivery {
            let _ = tx.send(LoopEvent::Closed(token));
        }
        // A Frames delivery signals by drop: the channel sender dies with
        // the Conn, surfacing "peer disconnected" on the transport.
    }

    /// Best-effort flush of every pending outbound queue, then close all
    /// sockets — run once on `Cmd::Stop` so teardown broadcasts (the
    /// scheduler's Shutdown fan-out) reach their peers.
    fn stop_flush(&mut self) {
        let deadline = Instant::now() + Duration::from_millis(100);
        loop {
            let mut pending = false;
            for token in self.slab.tokens() {
                if self
                    .slab
                    .get_mut(token)
                    .is_some_and(|c| c.out.pending() > 0)
                {
                    if self.flush(token).is_err() {
                        self.disconnect(token, "stopping");
                    } else if self
                        .slab
                        .get_mut(token)
                        .is_some_and(|c| c.out.pending() > 0)
                    {
                        pending = true;
                    }
                }
            }
            if !pending || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        for token in self.slab.tokens() {
            self.disconnect(token, "event loop stopped");
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blox_core::ids::JobId;
    use std::net::TcpListener;

    fn ev_pair(pool: &EvLoopPool) -> (EvTransport, EvTransport) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || TcpStream::connect(addr).expect("connect"));
        let (accepted, _) = listener.accept().expect("accept");
        let server = EvTransport::from_stream(accepted, pool).expect("register server");
        let client =
            EvTransport::from_stream(client.join().expect("join"), pool).expect("register client");
        (server, client)
    }

    #[test]
    fn ev_pair_carries_messages_both_ways() {
        let pool = EvLoopPool::new(EvLoopConfig::default()).unwrap();
        let (a, b) = ev_pair(&pool);
        a.send(&Message::LeaseCheck { job: JobId(5) }).unwrap();
        assert_eq!(b.recv().unwrap(), Message::LeaseCheck { job: JobId(5) });
        b.send(&Message::LeaseStatus {
            job: JobId(5),
            valid: true,
        })
        .unwrap();
        assert_eq!(
            a.recv().unwrap(),
            Message::LeaseStatus {
                job: JobId(5),
                valid: true
            }
        );
    }

    #[test]
    fn ev_pair_carries_messages_on_every_poller_kind() {
        for kind in [PollerKind::Poll, PollerKind::Epoll] {
            if kind == PollerKind::Epoll && !cfg!(target_os = "linux") {
                continue;
            }
            let pool = EvLoopPool::new(EvLoopConfig {
                poller: kind,
                ..EvLoopConfig::default()
            })
            .unwrap();
            let (a, b) = ev_pair(&pool);
            a.send(&Message::LeaseCheck { job: JobId(9) }).unwrap();
            assert_eq!(
                b.recv().unwrap(),
                Message::LeaseCheck { job: JobId(9) },
                "poller {kind}"
            );
        }
    }

    #[test]
    fn ev_disconnect_surfaces_as_error() {
        let pool = EvLoopPool::new(EvLoopConfig::default()).unwrap();
        let (a, b) = ev_pair(&pool);
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(5);
        while b.recv_timeout(Duration::from_millis(50)).is_ok() {
            assert!(Instant::now() < deadline, "close never surfaced");
        }
    }

    #[test]
    fn ev_batches_many_frames_per_wake() {
        let pool = EvLoopPool::new(EvLoopConfig::default()).unwrap();
        let (a, b) = ev_pair(&pool);
        for k in 0..500 {
            a.send(&Message::Progress {
                job: JobId(k % 7),
                iters: k as f64,
            })
            .unwrap();
        }
        for k in 0..500 {
            match b.recv().unwrap() {
                Message::Progress { iters, .. } => assert_eq!(iters, k as f64),
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// A frame encoded once with `encode_shared` and sent via
    /// `send_shared` arrives intact — the zero-copy fan-out path speaks
    /// the same wire protocol as the per-message encode.
    #[test]
    fn shared_frames_fan_out_to_many_connections() {
        let pool = EvLoopPool::new(EvLoopConfig::default()).unwrap();
        let pairs: Vec<_> = (0..8).map(|_| ev_pair(&pool)).collect();
        let frame = encode_shared(&Message::LeaseCheck { job: JobId(42) }).unwrap();
        for (a, _) in &pairs {
            a.sender().send_shared(&frame).unwrap();
        }
        for (_, b) in &pairs {
            assert_eq!(b.recv().unwrap(), Message::LeaseCheck { job: JobId(42) });
        }
    }

    /// Every byte a sender enqueues is added to the `queued` counter and
    /// flush subtracts exactly what it writes, so the counter returns to
    /// zero once the frame is on the wire (a missed add would underflow
    /// to `usize::MAX - ε`; a missed subtract would leave residue).
    #[test]
    fn sends_are_accounted_in_the_sender_queue_counter() {
        let pool = EvLoopPool::new(EvLoopConfig::default()).unwrap();
        let (a, b) = ev_pair(&pool);
        a.send(&Message::LeaseCheck { job: JobId(1) }).unwrap();
        assert_eq!(b.recv().unwrap(), Message::LeaseCheck { job: JobId(1) });
        let deadline = Instant::now() + Duration::from_secs(5);
        while a.sender().queued_bytes() != 0 {
            assert!(
                Instant::now() < deadline,
                "queued counter never returned to zero after the send flushed: {}",
                a.sender().queued_bytes()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn try_recv_is_non_blocking_over_tcp() {
        let pool = EvLoopPool::new(EvLoopConfig::default()).unwrap();
        let (a, b) = ev_pair(&pool);
        assert_eq!(b.try_recv().unwrap(), None);
        a.send(&Message::Ack).unwrap();
        // Loopback delivery is asynchronous; poll briefly.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            match b.try_recv().unwrap() {
                Some(m) => {
                    assert_eq!(m, Message::Ack);
                    break;
                }
                None if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(1)),
                None => panic!("message never arrived"),
            }
        }
    }

    /// N threads sending through clones of one sender: every frame
    /// arrives whole, none interleaved with another.
    #[test]
    fn concurrent_senders_never_interleave_frames() {
        let pool = EvLoopPool::new(EvLoopConfig::default()).unwrap();
        let (a, b) = ev_pair(&pool);
        let threads: Vec<_> = (0..4)
            .map(|i| {
                let s = a.sender();
                std::thread::spawn(move || {
                    for k in 0..50 {
                        s.send(&Message::Progress {
                            job: JobId(i),
                            iters: k as f64,
                        })
                        .unwrap();
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // Per-sender order survives too: each thread's iters arrive 0..50.
        let mut next = [0.0f64; 4];
        for _ in 0..200 {
            match b.recv().unwrap() {
                Message::Progress { job, iters } => {
                    assert_eq!(iters, next[job.0 as usize], "sender {job:?} reordered");
                    next[job.0 as usize] += 1.0;
                }
                other => panic!("corrupted frame decoded to {other:?}"),
            }
        }
    }

    /// Satellite regression (ISSUE 10): the slow-client policy and
    /// `EvSender::queued_bytes` see consistent numbers — the byte count
    /// in the close reason is drawn from the same accounting the sender
    /// observes.
    #[test]
    fn slow_client_reason_and_queue_counter_agree() {
        let pool = EvLoopPool::new(EvLoopConfig {
            max_out_bytes: 8 * 1024,
            ..EvLoopConfig::default()
        })
        .unwrap();
        // The slow reader is a raw socket nobody ever reads: the kernel
        // buffers fill, then `a`'s queue grows until the policy trips.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let t = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
        let (accepted, _) = listener.accept().unwrap();
        let a = EvTransport::from_stream(accepted, &pool).unwrap();
        let _b = t.join().unwrap();
        let msg = Message::Launch {
            job: JobId(1),
            local_gpus: vec![0u8; 1024],
            iter_time_s: 1.0,
            start_iters: 0.0,
            total_iters: 1.0,
            warmup_s: 0.0,
            is_rank0: true,
        };
        let sender = a.sender();
        let deadline = Instant::now() + Duration::from_secs(20);
        while !sender.is_closed() {
            let _ = sender.send(&msg);
            assert!(Instant::now() < deadline, "slow-client policy never fired");
            std::thread::sleep(Duration::from_micros(200));
        }
        let reason = sender.close_reason().expect("close reason");
        assert!(reason.contains("slow client"), "reason: {reason}");
        let reported: usize = reason
            .split(&[' ', ':'][..])
            .filter_map(|w| w.parse().ok())
            .next()
            .expect("byte count in reason");
        assert!(reported > 8 * 1024, "policy fired under the bound");
        // The frozen sender counter holds every accounted byte the loop
        // never wrote: at least the queue the policy measured (frames
        // accepted by the sender but dropped by the loop after close may
        // push it higher, never lower).
        assert!(
            sender.queued_bytes() >= reported,
            "sender saw {} queued bytes, policy reported {reported}",
            sender.queued_bytes()
        );
    }

    #[test]
    fn slab_generation_prevents_token_aliasing() {
        let mut slab = Slab::default();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mk_conn = |token| {
            let t = std::thread::spawn(move || TcpStream::connect(addr).unwrap());
            let (s, _) = listener.accept().unwrap();
            let _keep = t.join().unwrap();
            Conn {
                token,
                stream: s,
                inbox: FrameBuf::new(),
                out: OutQueue::new(),
                want_write: false,
                delivery: Delivery::Frames(unbounded().0),
                shared: Arc::new(ConnShared {
                    closed: AtomicBool::new(false),
                    queued: AtomicUsize::new(0),
                    reason: Mutex::new(None),
                }),
            }
        };
        let t1 = slab.insert_with(mk_conn);
        assert!(slab.remove(t1).is_some());
        let t2 = slab.insert_with(mk_conn);
        assert_eq!(t1.slot(), t2.slot(), "slot is reused");
        assert_ne!(t1, t2, "but the generation differs");
        assert!(slab.get_mut(t1).is_none(), "stale token addresses nobody");
        assert!(slab.get_mut(t2).is_some());
    }
}
