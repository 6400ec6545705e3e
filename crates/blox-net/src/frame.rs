//! The u32 length-prefix framing of the wire protocol.
//!
//! TCP is a byte stream; every [`Message`] crosses it as
//! `[len: u32 LE][payload: len bytes]`. The event loop
//! ([`crate::event_loop`]) encodes with [`encode_shared`] (built on
//! [`encode_frame_into`]) and reassembles with [`FrameBuf`].
//!
//! A length prefix above [`MAX_FRAME_BYTES`] is rejected *before* any
//! allocation happens: a corrupt or hostile prefix must cost an error,
//! not 4 GiB of memory.

use std::cell::RefCell;
use std::sync::Arc;

use blox_core::error::{BloxError, Result};
use blox_runtime::wire::Message;

/// Upper bound on a single frame payload; anything larger is a protocol
/// error (protects receivers from a corrupt or hostile length prefix).
pub const MAX_FRAME_BYTES: u32 = 16 * 1024 * 1024;

/// Size of the length prefix in bytes.
pub const PREFIX_BYTES: usize = 4;

/// Append one length-prefixed frame for `msg` to `out` (prefix + payload
/// in a single buffer, no intermediate allocation).
///
/// A payload above [`MAX_FRAME_BYTES`] is a hard error — the receiver
/// would reject the prefix anyway, and a payload at or above 4 GiB would
/// otherwise truncate in the `u32` prefix and desynchronize the stream
/// (every subsequent frame parses from a garbage boundary). On error
/// `out` is restored to its original length, so the caller's buffer
/// never holds a half-written frame.
pub fn encode_frame_into(msg: &Message, out: &mut Vec<u8>) -> Result<()> {
    let prefix_at = out.len();
    out.extend_from_slice(&[0u8; PREFIX_BYTES]);
    msg.encode_into(out);
    let payload_len = out.len() - prefix_at - PREFIX_BYTES;
    // Compare in usize: `payload_len as u32` would wrap a >= 4 GiB
    // payload back into range and let the truncated prefix through.
    if payload_len > MAX_FRAME_BYTES as usize {
        out.truncate(prefix_at);
        return Err(BloxError::Transport(format!(
            "oversized frame payload: {payload_len} bytes (max {MAX_FRAME_BYTES})"
        )));
    }
    out[prefix_at..prefix_at + PREFIX_BYTES].copy_from_slice(&(payload_len as u32).to_le_bytes());
    Ok(())
}

/// Encode one message as a length-prefixed frame.
///
/// Errors when the encoded payload exceeds [`MAX_FRAME_BYTES`]; see
/// [`encode_frame_into`].
pub fn encode_frame(msg: &Message) -> Result<Vec<u8>> {
    let mut out = Vec::with_capacity(32 + PREFIX_BYTES);
    encode_frame_into(msg, &mut out)?;
    Ok(out)
}

/// A refcounted immutable wire frame (length prefix + payload).
///
/// This is the currency of the zero-copy outbound path: the event loop's
/// per-connection queues hold `SharedFrame` chunks and hand them to
/// `writev(2)` in place, so a frame fanned out to N connections is
/// encoded and copied **once** and shared by `Arc` clone — N refcount
/// bumps instead of N encodes + N memcpys into contiguous buffers.
pub type SharedFrame = Arc<[u8]>;

/// Per-thread pool of encode scratch buffers recycled by
/// [`encode_shared`]. Hot senders (the event-loop heartbeat tick, the
/// loadgen submit path) stop paying an allocate/free per frame.
///
/// Bounded on both axes: at most [`POOL_SLOTS`] retained buffers, and a
/// buffer that grew past [`POOL_MAX_RETAIN`] (one jumbo frame) is
/// dropped rather than pinned forever.
const POOL_SLOTS: usize = 8;
const POOL_MAX_RETAIN: usize = 64 * 1024;

thread_local! {
    static ENCODE_POOL: RefCell<Vec<Vec<u8>>> = const { RefCell::new(Vec::new()) };
}

/// Encode one message into a [`SharedFrame`] using pooled scratch.
///
/// The message is encoded into a recycled thread-local buffer and copied
/// exactly once into the refcounted allocation (an `Arc<[u8]>` stores
/// its refcounts inline, so *some* copy is unavoidable — this is the
/// only one, amortized over every connection the frame is sent to).
/// Errors when the encoded payload exceeds [`MAX_FRAME_BYTES`].
pub fn encode_shared(msg: &Message) -> Result<SharedFrame> {
    let mut scratch = ENCODE_POOL
        .with(|pool| pool.borrow_mut().pop())
        .unwrap_or_else(|| Vec::with_capacity(32 + PREFIX_BYTES));
    scratch.clear();
    let result = encode_frame_into(msg, &mut scratch).map(|()| SharedFrame::from(&scratch[..]));
    if scratch.capacity() <= POOL_MAX_RETAIN {
        ENCODE_POOL.with(|pool| {
            let mut pool = pool.borrow_mut();
            if pool.len() < POOL_SLOTS {
                pool.push(scratch);
            }
        });
    }
    result
}

/// Streaming frame reassembly buffer: feed it raw socket bytes in any
/// chunking, pull complete frame payloads out.
///
/// Consumed bytes are tracked by offset and reclaimed lazily, so a
/// burst of small frames costs no per-frame memmove.
#[derive(Debug, Default)]
pub struct FrameBuf {
    buf: Vec<u8>,
    start: usize,
}

/// Reclaim threshold: once this many consumed bytes sit in front of the
/// unread region, compact the buffer.
const COMPACT_BYTES: usize = 256 * 1024;

impl FrameBuf {
    /// Empty buffer.
    pub fn new() -> Self {
        FrameBuf::default()
    }

    /// Append raw bytes read from the peer.
    pub fn extend_from_slice(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet decoded.
    pub fn pending(&self) -> usize {
        self.buf.len() - self.start
    }

    /// Try to decode one complete frame payload.
    ///
    /// Returns `Ok(None)` when no complete frame is buffered yet, and
    /// `Err` on a length prefix above [`MAX_FRAME_BYTES`] — rejected
    /// before the payload is allocated.
    pub fn try_decode(&mut self) -> Result<Option<Vec<u8>>> {
        let pending = &self.buf[self.start..];
        if pending.len() < PREFIX_BYTES {
            self.maybe_compact();
            return Ok(None);
        }
        let len = u32::from_le_bytes(pending[..PREFIX_BYTES].try_into().expect("4 bytes"));
        if len > MAX_FRAME_BYTES {
            return Err(BloxError::Transport(format!(
                "oversized frame: {len} bytes (max {MAX_FRAME_BYTES})"
            )));
        }
        let len = len as usize;
        if pending.len() < PREFIX_BYTES + len {
            self.maybe_compact();
            return Ok(None);
        }
        let payload = pending[PREFIX_BYTES..PREFIX_BYTES + len].to_vec();
        self.start += PREFIX_BYTES + len;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(payload))
    }

    fn maybe_compact(&mut self) {
        if self.start >= COMPACT_BYTES {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blox_core::ids::JobId;

    #[test]
    fn frames_roundtrip_through_framebuf_in_any_chunking() {
        let msgs: Vec<Message> = (0..20)
            .map(|i| Message::Progress {
                job: JobId(i),
                iters: i as f64 * 1.5,
            })
            .collect();
        let mut stream = Vec::new();
        for m in &msgs {
            encode_frame_into(m, &mut stream).unwrap();
        }
        for chunk in [1usize, 3, 7, 64, stream.len()] {
            let mut fb = FrameBuf::new();
            let mut out = Vec::new();
            for piece in stream.chunks(chunk) {
                fb.extend_from_slice(piece);
                while let Some(payload) = fb.try_decode().unwrap() {
                    out.push(Message::decode(&payload).unwrap());
                }
            }
            assert_eq!(out, msgs, "chunk size {chunk}");
            assert_eq!(fb.pending(), 0);
        }
    }

    #[test]
    fn oversized_prefix_is_rejected_without_allocation() {
        let mut fb = FrameBuf::new();
        fb.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(fb.try_decode().is_err());
        // The 4 prefix bytes are all that was ever buffered.
        assert_eq!(fb.pending(), 4);
    }

    #[test]
    fn oversized_payload_fails_encode_and_leaves_buffer_clean() {
        // A payload one byte past the cap must be refused at encode
        // time: the old `payload_len as u32` comparison would only have
        // caught this in debug builds, and a >= 4 GiB payload would have
        // wrapped past the check entirely and written a truncated prefix
        // that desynchronizes every later frame on the stream.
        let msg = Message::Launch {
            job: JobId(1),
            local_gpus: vec![0u8; MAX_FRAME_BYTES as usize + 1],
            iter_time_s: 1.0,
            start_iters: 0.0,
            total_iters: 1.0,
            warmup_s: 0.0,
            is_rank0: true,
        };
        assert!(encode_frame(&msg).is_err());
        // And a buffer with a good frame already in it is rolled back to
        // exactly that frame — no half-written bytes appended.
        let mut buf = Vec::new();
        encode_frame_into(&Message::Ack, &mut buf).unwrap();
        let good_len = buf.len();
        assert!(encode_frame_into(&msg, &mut buf).is_err());
        assert_eq!(buf.len(), good_len);
        let mut fb = FrameBuf::new();
        fb.extend_from_slice(&buf);
        let payload = fb.try_decode().unwrap().expect("good frame intact");
        assert_eq!(Message::decode(&payload).unwrap(), Message::Ack);
        assert_eq!(fb.pending(), 0);
    }

    #[test]
    fn shared_frames_match_plain_encoding_and_recycle_scratch() {
        let msg = Message::Progress {
            job: JobId(7),
            iters: 42.5,
        };
        // Byte-identical to the unpooled path: the pool must never change
        // what goes on the wire.
        let shared = encode_shared(&msg).unwrap();
        assert_eq!(&shared[..], &encode_frame(&msg).unwrap()[..]);
        // Fan-out is refcount bumps, not copies: the clones alias.
        let a = shared.clone();
        assert!(std::ptr::eq(a.as_ptr(), shared.as_ptr()));
        // An oversized message errors the same way as encode_frame and
        // leaves the pool usable for the next frame.
        let jumbo = Message::Launch {
            job: JobId(1),
            local_gpus: vec![0u8; MAX_FRAME_BYTES as usize + 1],
            iter_time_s: 1.0,
            start_iters: 0.0,
            total_iters: 1.0,
            warmup_s: 0.0,
            is_rank0: true,
        };
        assert!(encode_shared(&jumbo).is_err());
        let again = encode_shared(&msg).unwrap();
        assert_eq!(&again[..], &shared[..]);
    }

    #[test]
    fn partial_frame_waits_for_more_bytes() {
        let frame = encode_frame(&Message::Ack).unwrap();
        let mut fb = FrameBuf::new();
        fb.extend_from_slice(&frame[..frame.len() - 1]);
        assert_eq!(fb.try_decode().unwrap(), None);
        fb.extend_from_slice(&frame[frame.len() - 1..]);
        let payload = fb.try_decode().unwrap().expect("complete frame");
        assert_eq!(Message::decode(&payload).unwrap(), Message::Ack);
    }
}
