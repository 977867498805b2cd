//! Byte-stream framing shared by the stream-oriented transports.
//!
//! Unix sockets (and any future TCP transport) deliver a byte *stream*;
//! the wire protocol deals in self-contained *frames*. This module pins
//! down the mapping:
//!
//! * each direction of a stream starts with a 4-byte preamble
//!   ([`PREAMBLE`]): the ASCII magic `GRD` plus [`TRANSPORT_VERSION`], so
//!   version skew is detected at connection time instead of surfacing as
//!   garbled frames mid-session;
//! * each frame is a little-endian `u32` length prefix followed by that
//!   many payload bytes.
//!
//! [`FrameDecoder`] is a pure incremental reassembler: feed it the chunks
//! the OS hands you — however the kernel split them — and it yields
//! complete frames. Keeping it free of I/O makes the reassembly logic
//! property-testable over adversarial splits (see the proptests below),
//! which is exactly the code path a hostile tenant controls.
//!
//! Frames come out as [`FrameView`]s: refcounted slices into the frozen
//! receive block, so a 64-launch batch costs zero per-frame copies. The
//! blocks themselves recycle through a [`BufPool`], so a session in
//! steady state allocates nothing on its receive path.

use super::TransportError;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::ops::Range;
use std::sync::{Arc, Weak};

/// Version of the stream framing (independent of
/// [`crate::proto::PROTO_VERSION`], which versions frame *contents*).
pub const TRANSPORT_VERSION: u8 = 2;

/// High bit of the length prefix marking a *batch* frame: the payload is
/// a concatenation of `[u32 sub-length][sub-payload]` entries, flushed by
/// the sender as one transport write. Safe to steal because
/// [`MAX_FRAME`] (and every per-connection limit derived from it) is far
/// below 2³¹, so a legitimate plain length never has this bit set.
pub const BATCH_FLAG: u32 = 1 << 31;

/// Magic bytes opening each direction of a framed stream.
pub const PREAMBLE: [u8; 4] = [b'G', b'R', b'D', TRANSPORT_VERSION];

/// Default per-frame size limit. Large enough for any realistic fatbin
/// or H2D payload, small enough that a hostile length prefix cannot make
/// the manager allocate unbounded memory.
pub const MAX_FRAME: u32 = 64 << 20;

/// Buffers retained per [`BufPool`]; excess retirements simply free.
const POOL_MAX_BUFS: usize = 8;

/// Buffers whose capacity grew beyond this are freed instead of pooled,
/// so one giant fatbin passing through cannot pin megabytes for the
/// connection's remaining lifetime.
const POOL_MAX_CAPACITY: usize = 1 << 20;

/// A recycling pool of byte buffers for receive-path blocks.
///
/// Retired blocks return their storage here (capacity intact) instead of
/// freeing, so a steady-state receive loop reuses the same few
/// allocations forever. The pool is held via [`Weak`] by outstanding
/// blocks: when the owning connection dies, the pool dies with it and
/// in-flight blocks free normally — a view can never write into (or
/// resurrect) a retired pool.
pub struct BufPool {
    bufs: Mutex<Vec<Vec<u8>>>,
}

impl BufPool {
    /// A fresh, empty pool.
    pub fn new() -> Arc<Self> {
        Arc::new(BufPool {
            bufs: Mutex::new(Vec::new()),
        })
    }

    /// Take a cleared buffer, recycled when one is available.
    pub fn take(&self) -> Vec<u8> {
        self.bufs.lock().pop().unwrap_or_default()
    }

    /// Return a buffer to the pool (bounded; oversized or surplus
    /// buffers are dropped).
    fn put(&self, mut buf: Vec<u8>) {
        if buf.capacity() == 0 || buf.capacity() > POOL_MAX_CAPACITY {
            return;
        }
        buf.clear();
        let mut bufs = self.bufs.lock();
        if bufs.len() < POOL_MAX_BUFS {
            bufs.push(buf);
        }
    }

    /// Number of buffers currently parked in the pool.
    pub fn parked(&self) -> usize {
        self.bufs.lock().len()
    }
}

/// A frozen receive block: immutable bytes plus a weak edge back to the
/// pool that recycles the storage when the last view drops.
struct PoolBlock {
    data: Vec<u8>,
    pool: Weak<BufPool>,
}

impl Drop for PoolBlock {
    fn drop(&mut self) {
        if let Some(pool) = self.pool.upgrade() {
            pool.put(std::mem::take(&mut self.data));
        }
    }
}

/// A refcounted, immutable slice of a received frame.
///
/// Views borrow from a shared frozen block, so decoding a 64-frame batch
/// produces 64 views into one buffer instead of 64 copies. A view made
/// [`From`] a `Vec<u8>` owns its bytes via the same representation (one
/// small refcount allocation, no copy), so every consumer handles both
/// shapes identically.
pub struct FrameView {
    block: Arc<PoolBlock>,
    start: usize,
    end: usize,
}

impl FrameView {
    fn shared(block: &Arc<PoolBlock>, span: Range<usize>) -> Self {
        debug_assert!(span.start <= span.end && span.end <= block.data.len());
        FrameView {
            block: Arc::clone(block),
            start: span.start,
            end: span.end,
        }
    }

    /// A sub-view of this view (`range` is relative to `self`). Shares
    /// the underlying block — no copy.
    ///
    /// # Panics
    ///
    /// When `range` exceeds the view — an internal logic error, not a
    /// wire-input condition (callers bounds-check wire lengths first).
    pub fn slice(&self, range: Range<usize>) -> FrameView {
        assert!(range.start <= range.end && range.end <= self.end - self.start);
        FrameView {
            block: Arc::clone(&self.block),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }

    /// Recover an owned `Vec<u8>`, without copying when this view is the
    /// sole owner of a block it fully spans.
    pub fn into_vec(self) -> Vec<u8> {
        if self.start == 0 && self.end == self.block.data.len() {
            match Arc::try_unwrap(self.block) {
                Ok(mut block) => {
                    // Detach from the pool so the drop below doesn't
                    // recycle an empty husk.
                    block.pool = Weak::new();
                    return std::mem::take(&mut block.data);
                }
                Err(block) => return block.data.clone(),
            }
        }
        self[..].to_vec()
    }
}

impl From<Vec<u8>> for FrameView {
    fn from(data: Vec<u8>) -> Self {
        let end = data.len();
        FrameView {
            block: Arc::new(PoolBlock {
                data,
                pool: Weak::new(),
            }),
            start: 0,
            end,
        }
    }
}

impl FrameView {
    /// A view over `data` whose storage retires into `pool` when the
    /// last view drops (used by transports that fill their own receive
    /// buffers, e.g. the shm ring).
    pub fn pooled(data: Vec<u8>, pool: &Arc<BufPool>) -> Self {
        let end = data.len();
        FrameView {
            block: Arc::new(PoolBlock {
                data,
                pool: Arc::downgrade(pool),
            }),
            start: 0,
            end,
        }
    }
}

impl Clone for FrameView {
    fn clone(&self) -> Self {
        FrameView {
            block: Arc::clone(&self.block),
            start: self.start,
            end: self.end,
        }
    }
}

impl std::ops::Deref for FrameView {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.block.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for FrameView {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl std::fmt::Debug for FrameView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "FrameView({:02x?})", &self[..])
    }
}

impl PartialEq for FrameView {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for FrameView {}

impl PartialEq<[u8]> for FrameView {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl PartialEq<Vec<u8>> for FrameView {
    fn eq(&self, other: &Vec<u8>) -> bool {
        &self[..] == other.as_slice()
    }
}

impl<const N: usize> PartialEq<[u8; N]> for FrameView {
    fn eq(&self, other: &[u8; N]) -> bool {
        &self[..] == other
    }
}

/// Validate a received preamble.
///
/// # Errors
///
/// [`TransportError::Io`] when the magic bytes are wrong (the peer is not
/// speaking this protocol at all), [`TransportError::VersionMismatch`]
/// when the magic matches but the version differs.
pub fn check_preamble(got: &[u8; 4]) -> Result<(), TransportError> {
    if got[..3] != PREAMBLE[..3] {
        return Err(TransportError::Io {
            op: "handshake",
            kind: std::io::ErrorKind::InvalidData,
            detail: format!("bad preamble magic {:02x?}", &got[..3]),
        });
    }
    if got[3] != TRANSPORT_VERSION {
        return Err(TransportError::VersionMismatch {
            got: got[3],
            want: TRANSPORT_VERSION,
        });
    }
    Ok(())
}

/// Encode one frame: length prefix + payload.
///
/// # Errors
///
/// [`TransportError::FrameTooLarge`] when the payload exceeds
/// `max_frame` — checked on the *sending* side so an oversized frame
/// fails locally instead of poisoning the stream for the peer.
pub fn encode_frame(payload: &[u8], max_frame: u32) -> Result<Vec<u8>, TransportError> {
    if payload.len() as u64 > max_frame as u64 {
        return Err(TransportError::FrameTooLarge {
            len: payload.len() as u64,
            max: max_frame as u64,
        });
    }
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    Ok(buf)
}

/// Concatenate `frames` into one batch body: `[u32 sub-len][payload]` per
/// frame. The caller prefixes the body with `(body.len() | BATCH_FLAG)`
/// and sends it as a single transport write.
pub fn batch_body(frames: &[Vec<u8>]) -> Vec<u8> {
    let total: usize = frames.iter().map(|f| 4 + f.len()).sum();
    let mut body = Vec::with_capacity(total);
    for f in frames {
        body.extend_from_slice(&(f.len() as u32).to_le_bytes());
        body.extend_from_slice(f);
    }
    body
}

fn bad_batch(detail: String) -> TransportError {
    TransportError::Io {
        op: "recv",
        kind: std::io::ErrorKind::InvalidData,
        detail,
    }
}

/// Walk a batch body, appending each sub-frame's payload span (offset by
/// `base`) to `spans`. All-or-nothing: on error, `spans` is restored to
/// its length at entry.
///
/// # Errors
///
/// As [`split_batch`].
fn scan_batch(
    body: &[u8],
    base: usize,
    max_frame: u32,
    spans: &mut Vec<Range<usize>>,
) -> Result<(), TransportError> {
    let mark = spans.len();
    let mut pos = 0usize;
    while pos < body.len() {
        if body.len() - pos < 4 {
            spans.truncate(mark);
            return Err(bad_batch(format!(
                "batch truncated: {} trailing bytes",
                body.len() - pos
            )));
        }
        let len_bytes: [u8; 4] = body[pos..pos + 4].try_into().expect("4-byte slice");
        let len = u32::from_le_bytes(len_bytes);
        if len & BATCH_FLAG != 0 {
            spans.truncate(mark);
            return Err(bad_batch("nested batch frame".into()));
        }
        if len > max_frame {
            spans.truncate(mark);
            return Err(TransportError::FrameTooLarge {
                len: len as u64,
                max: max_frame as u64,
            });
        }
        pos += 4;
        if body.len() - pos < len as usize {
            spans.truncate(mark);
            return Err(bad_batch(format!(
                "batch sub-frame of {len} bytes overruns body ({} left)",
                body.len() - pos
            )));
        }
        spans.push(base + pos..base + pos + len as usize);
        pos += len as usize;
    }
    Ok(())
}

/// Split a batch body back into owned sub-frames.
///
/// # Errors
///
/// [`TransportError::Io`] (`InvalidData`) when the walk is inconsistent:
/// a truncated sub-header, a sub-length overrunning the body, or a
/// sub-length with [`BATCH_FLAG`] set (batches do not nest);
/// [`TransportError::FrameTooLarge`] when a sub-frame exceeds
/// `max_frame`.
pub fn split_batch(body: &[u8], max_frame: u32) -> Result<Vec<Vec<u8>>, TransportError> {
    let mut spans = Vec::new();
    scan_batch(body, 0, max_frame, &mut spans)?;
    Ok(spans.into_iter().map(|s| body[s].to_vec()).collect())
}

/// Split a batch-body *view* into zero-copy sub-frame views, appended to
/// `out`. All-or-nothing, like [`split_batch`].
///
/// # Errors
///
/// As [`split_batch`].
pub fn split_batch_views(
    body: &FrameView,
    max_frame: u32,
    out: &mut VecDeque<FrameView>,
) -> Result<(), TransportError> {
    let mut spans = Vec::new();
    scan_batch(body, 0, max_frame, &mut spans)?;
    out.extend(spans.into_iter().map(|s| body.slice(s)));
    Ok(())
}

/// Incremental frame reassembler for a length-prefixed byte stream.
///
/// Push bytes in whatever chunks arrive; pull complete frames out as
/// [`FrameView`]s. Internally the decoder stages bytes in a pooled
/// buffer; once at least one complete frame is present, the staging
/// buffer is *frozen* into a shared block (the partial tail, if any, is
/// carried into a fresh pooled buffer) and every complete frame —
/// including each sub-frame of a batch — becomes a view into it.
///
/// A plain frame longer than one of the transport's reads (`read_size`)
/// is not staged: once its length word arrives the decoder gives it an
/// exact-size buffer of its own ([`FrameDecoder::in_place`]) that the
/// transport reads the rest of the frame straight into, so a bulk
/// payload is never chunk-copied, regrown, or copied out again — its
/// view is the whole buffer, and [`FrameView::into_vec`] is a move.
/// The decoder carries at most one partial frame plus unconsumed input,
/// so memory stays bounded by `max_frame` + the largest chunk pushed.
pub struct FrameDecoder {
    max_frame: u32,
    /// Bytes the transport reads at a time; longer plain frames are
    /// received in place.
    read_size: usize,
    /// The plain frame being received in place: allocated with exactly
    /// the frame's length as capacity, complete when full.
    in_place: Option<Vec<u8>>,
    pool: Arc<BufPool>,
    /// Staging buffer for unconsumed stream bytes (from `pool`).
    buf: Vec<u8>,
    /// Read cursor into `buf` (nonzero only after consuming frames that
    /// produced no views, e.g. empty batches).
    pos: usize,
    /// Complete frames frozen out of the stream, in arrival order.
    ready: VecDeque<FrameView>,
    /// Scratch span list reused across freezes.
    spans: Vec<Range<usize>>,
    /// First framing violation encountered; the stream is untrusted from
    /// that point on, so the error repeats and no later bytes decode.
    poisoned: Option<TransportError>,
}

impl FrameDecoder {
    /// A decoder enforcing `max_frame` as the per-frame size limit that
    /// stages every frame (for streams fed by [`FrameDecoder::push`]
    /// alone).
    pub fn new(max_frame: u32) -> Self {
        Self::with_read_size(max_frame, usize::MAX)
    }

    /// A decoder for a transport that reads `read_size` bytes at a time:
    /// a plain frame that cannot arrive in one read is received in place
    /// (see [`FrameDecoder::in_place`]).
    pub fn with_read_size(max_frame: u32, read_size: usize) -> Self {
        let pool = BufPool::new();
        let buf = pool.take();
        FrameDecoder {
            max_frame,
            read_size,
            in_place: None,
            pool,
            buf,
            pos: 0,
            ready: VecDeque::new(),
            spans: Vec::new(),
            poisoned: None,
        }
    }

    /// The decoder's recycling pool (shared with the blocks it freezes).
    pub fn pool(&self) -> &Arc<BufPool> {
        &self.pool
    }

    /// The buffer of the frame being received in place, if any: the
    /// transport appends the frame's next bytes to it, never beyond its
    /// capacity (which is exactly the frame's length).
    pub fn in_place(&mut self) -> Option<&mut Vec<u8>> {
        self.in_place.as_mut()
    }

    /// Queue the in-place frame once its buffer is full.
    fn complete_in_place(&mut self) {
        if self
            .in_place
            .as_ref()
            .is_some_and(|b| b.len() == b.capacity())
        {
            let frame = self.in_place.take().expect("checked above");
            self.ready.push_back(FrameView::from(frame));
        }
    }

    /// Feed stream bytes into the decoder, exactly as received.
    pub fn push(&mut self, mut chunk: &[u8]) {
        if let Some(frame) = &mut self.in_place {
            let n = chunk.len().min(frame.capacity() - frame.len());
            frame.extend_from_slice(&chunk[..n]);
            chunk = &chunk[n..];
            self.complete_in_place();
            if chunk.is_empty() {
                return;
            }
        }
        // Compact before growing: everything before `pos` is consumed.
        if self.pos > 0 && self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        } else if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Scan the staging buffer for complete frames; freeze them into
    /// views when any are found.
    fn scan(&mut self) {
        if self.poisoned.is_some() || self.in_place.is_some() {
            return;
        }
        let mut pos = self.pos;
        let mut err = None;
        loop {
            let avail = self.buf.len() - pos;
            if avail < 4 {
                break;
            }
            let len_bytes: [u8; 4] = self.buf[pos..pos + 4].try_into().expect("4-byte slice");
            let word = u32::from_le_bytes(len_bytes);
            let len = word & !BATCH_FLAG;
            if len > self.max_frame {
                err = Some(TransportError::FrameTooLarge {
                    len: len as u64,
                    max: self.max_frame as u64,
                });
                break;
            }
            let total = 4 + len as usize;
            if avail < total {
                if word & BATCH_FLAG == 0 && total > self.read_size {
                    // Too long for one read: everything staged from here
                    // on is this frame's; move it into the frame's own
                    // buffer, which the rest is read straight into.
                    let mut frame = Vec::with_capacity(len as usize);
                    frame.extend_from_slice(&self.buf[pos + 4..]);
                    self.in_place = Some(frame);
                    pos = self.buf.len();
                }
                break;
            }
            if word & BATCH_FLAG == 0 {
                self.spans.push(pos + 4..pos + total);
            } else if let Err(e) = scan_batch(
                &self.buf[pos + 4..pos + total],
                pos + 4,
                self.max_frame,
                &mut self.spans,
            ) {
                err = Some(e);
                break;
            }
            pos += total;
        }
        if self.spans.is_empty() {
            // Nothing to freeze; remember how far consumption got (empty
            // batches advance the cursor without yielding frames).
            self.pos = pos;
        } else {
            // Freeze: the partial tail moves to a fresh pooled buffer,
            // the scanned prefix becomes an immutable shared block.
            let mut fresh = self.pool.take();
            fresh.extend_from_slice(&self.buf[pos..]);
            let frozen = std::mem::replace(&mut self.buf, fresh);
            self.pos = 0;
            let block = Arc::new(PoolBlock {
                data: frozen,
                pool: Arc::downgrade(&self.pool),
            });
            self.ready
                .extend(self.spans.drain(..).map(|s| FrameView::shared(&block, s)));
        }
        self.poisoned = err;
    }

    /// Try to extract the next complete frame.
    ///
    /// Returns `Ok(None)` when more bytes are needed.
    ///
    /// # Errors
    ///
    /// [`TransportError::FrameTooLarge`] when a length prefix exceeds the
    /// limit, [`TransportError::Io`] on malformed batch framing. The
    /// decoder is poisoned at that point — the stream can no longer be
    /// trusted — so callers should drop the connection. Frames completed
    /// *before* the violation are still yielded first.
    pub fn next_frame(&mut self) -> Result<Option<FrameView>, TransportError> {
        self.complete_in_place();
        if self.ready.is_empty() {
            self.scan();
        }
        if let Some(f) = self.ready.pop_front() {
            return Ok(Some(f));
        }
        match &self.poisoned {
            Some(e) => Err(e.clone()),
            None => Ok(None),
        }
    }

    /// Whether the decoder holds a partially received frame (or stray
    /// bytes). Used to distinguish clean EOF from mid-frame truncation.
    /// Fully received but not-yet-pulled frames do *not* count — they
    /// are complete frames, not truncation.
    pub fn mid_frame(&mut self) -> bool {
        self.complete_in_place();
        if self.ready.is_empty() {
            self.scan();
        }
        self.in_place.is_some() || self.pos < self.buf.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn collect(dec: &mut FrameDecoder) -> Vec<Vec<u8>> {
        let mut out = Vec::new();
        while let Some(f) = dec.next_frame().unwrap() {
            out.push(f.into_vec());
        }
        out
    }

    #[test]
    fn frames_reassemble_across_any_split() {
        let frames: Vec<Vec<u8>> = vec![vec![], vec![7], vec![1, 2, 3], vec![0xAB; 300]];
        let mut stream = Vec::new();
        for f in &frames {
            stream.extend_from_slice(&encode_frame(f, MAX_FRAME).unwrap());
        }
        // Feed one byte at a time: the worst-case split.
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut out = Vec::new();
        for b in &stream {
            dec.push(std::slice::from_ref(b));
            out.extend(collect(&mut dec));
        }
        assert_eq!(out, frames);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn oversized_length_prefix_is_rejected_not_allocated() {
        let mut dec = FrameDecoder::new(1024);
        // u32::MAX carries BATCH_FLAG; the *masked* length is what gets
        // bounds-checked (and rejected) before any allocation.
        dec.push(&u32::MAX.to_le_bytes());
        assert_eq!(
            dec.next_frame().map(|f| f.map(|v| v.into_vec())),
            Err(TransportError::FrameTooLarge {
                len: (!BATCH_FLAG) as u64,
                max: 1024,
            })
        );
    }

    #[test]
    fn oversized_send_fails_locally() {
        let payload = vec![0u8; 10];
        assert!(matches!(
            encode_frame(&payload, 4),
            Err(TransportError::FrameTooLarge { len: 10, max: 4 })
        ));
    }

    #[test]
    fn preamble_validation() {
        assert!(check_preamble(&PREAMBLE).is_ok());
        assert_eq!(
            check_preamble(&[b'G', b'R', b'D', 99]),
            Err(TransportError::VersionMismatch {
                got: 99,
                want: TRANSPORT_VERSION
            })
        );
        assert!(matches!(
            check_preamble(&[0, 0, 0, TRANSPORT_VERSION]),
            Err(TransportError::Io {
                op: "handshake",
                ..
            })
        ));
    }

    #[test]
    fn truncated_stream_reports_mid_frame() {
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let enc = encode_frame(&[1, 2, 3, 4], MAX_FRAME).unwrap();
        dec.push(&enc[..enc.len() - 1]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.mid_frame());
    }

    fn encode_batch(frames: &[Vec<u8>]) -> Vec<u8> {
        let body = batch_body(frames);
        let mut buf = Vec::with_capacity(4 + body.len());
        buf.extend_from_slice(&(body.len() as u32 | BATCH_FLAG).to_le_bytes());
        buf.extend_from_slice(&body);
        buf
    }

    #[test]
    fn batch_round_trips_through_the_decoder() {
        let frames: Vec<Vec<u8>> = vec![vec![], vec![7], vec![1, 2, 3], vec![0xAB; 300]];
        let mut dec = FrameDecoder::new(MAX_FRAME);
        dec.push(&encode_batch(&frames));
        assert_eq!(collect(&mut dec), frames);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn empty_batch_is_consumed_silently() {
        let mut dec = FrameDecoder::new(MAX_FRAME);
        dec.push(&encode_batch(&[]));
        dec.push(&encode_frame(&[9], MAX_FRAME).unwrap());
        assert_eq!(collect(&mut dec), vec![vec![9]]);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn nested_batch_is_rejected() {
        // A batch whose sub-length carries BATCH_FLAG: hostile framing.
        let mut body = Vec::new();
        body.extend_from_slice(&(1u32 | BATCH_FLAG).to_le_bytes());
        body.push(0);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32 | BATCH_FLAG).to_le_bytes());
        buf.extend_from_slice(&body);
        let mut dec = FrameDecoder::new(MAX_FRAME);
        dec.push(&buf);
        assert!(matches!(
            dec.next_frame(),
            Err(TransportError::Io { op: "recv", .. })
        ));
    }

    #[test]
    fn truncated_batch_body_is_rejected() {
        // Batch body of 2 bytes cannot hold a 4-byte sub-header.
        let mut buf = Vec::new();
        buf.extend_from_slice(&(2u32 | BATCH_FLAG).to_le_bytes());
        buf.extend_from_slice(&[0, 0]);
        let mut dec = FrameDecoder::new(MAX_FRAME);
        dec.push(&buf);
        assert!(matches!(
            dec.next_frame(),
            Err(TransportError::Io { op: "recv", .. })
        ));
    }

    #[test]
    fn batch_sub_frame_overrunning_body_is_rejected() {
        // Sub-header claims 100 bytes but the body ends after 1.
        let mut body = Vec::new();
        body.extend_from_slice(&100u32.to_le_bytes());
        body.push(0);
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32 | BATCH_FLAG).to_le_bytes());
        buf.extend_from_slice(&body);
        let mut dec = FrameDecoder::new(MAX_FRAME);
        dec.push(&buf);
        assert!(matches!(
            dec.next_frame(),
            Err(TransportError::Io { op: "recv", .. })
        ));
    }

    #[test]
    fn oversized_batch_sub_frame_is_rejected() {
        // A small container whose sub-header *claims* a giant frame: the
        // lie is caught as FrameTooLarge, never as an allocation.
        let mut body = Vec::new();
        body.extend_from_slice(&(1u32 << 24).to_le_bytes());
        let mut buf = Vec::new();
        buf.extend_from_slice(&(body.len() as u32 | BATCH_FLAG).to_le_bytes());
        buf.extend_from_slice(&body);
        let mut dec = FrameDecoder::new(4096);
        dec.push(&buf);
        assert!(matches!(
            dec.next_frame(),
            Err(TransportError::FrameTooLarge { len, .. }) if len == 1 << 24
        ));
    }

    #[test]
    fn frames_before_a_framing_violation_still_deliver() {
        let mut dec = FrameDecoder::new(1024);
        let mut stream = encode_frame(&[1, 2], 1024).unwrap();
        stream.extend_from_slice(&u32::MAX.to_le_bytes());
        dec.push(&stream);
        assert_eq!(dec.next_frame().unwrap().unwrap(), [1u8, 2][..]);
        assert!(dec.next_frame().is_err());
        // The poison is sticky: the stream never decodes further.
        assert!(dec.next_frame().is_err());
        assert!(dec.mid_frame());
    }

    #[test]
    fn views_share_one_block_and_recycle_it_through_the_pool() {
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let frames: Vec<Vec<u8>> = (0..8).map(|i| vec![i as u8; 16]).collect();
        dec.push(&encode_batch(&frames));
        let views: Vec<FrameView> = {
            let mut v = Vec::new();
            while let Some(f) = dec.next_frame().unwrap() {
                v.push(f);
            }
            v
        };
        assert_eq!(views.len(), frames.len());
        // Zero-copy: every view points into one shared block.
        let base = views[0].as_ptr() as usize;
        for (i, v) in views.iter().enumerate() {
            assert_eq!(&v[..], frames[i].as_slice());
            let off = v.as_ptr() as usize - base;
            assert!(off < 8 * (16 + 4) + 4, "view left the shared block");
        }
        // Dropping every view retires the block's storage to the pool...
        assert_eq!(dec.pool().parked(), 0);
        drop(views);
        assert_eq!(dec.pool().parked(), 1);
        // ...and the next freeze reuses it: steady state allocates no
        // fresh blocks.
        dec.push(&encode_frame(&[42], MAX_FRAME).unwrap());
        let v = dec.next_frame().unwrap().unwrap();
        assert_eq!(v, [42u8][..]);
        assert_eq!(dec.pool().parked(), 0);
    }

    #[test]
    fn views_survive_decoder_death_and_pool_dies_cleanly() {
        // Session death with frames still in flight: the views must stay
        // readable (no use-after-retire), and their eventual drop must
        // not resurrect the retired pool.
        let mut dec = FrameDecoder::new(MAX_FRAME);
        dec.push(&encode_frame(&[7, 7, 7], MAX_FRAME).unwrap());
        let view = dec.next_frame().unwrap().unwrap();
        drop(dec); // kill -9 equivalent: connection and decoder are gone
        assert_eq!(view, [7u8, 7, 7][..]);
        let copy = view.clone();
        drop(view);
        assert_eq!(copy, [7u8, 7, 7][..]);
        drop(copy); // block frees here; the Weak pool edge upgrades to None
    }

    #[test]
    fn into_vec_is_move_not_copy_for_sole_whole_block_views() {
        // An Owned view round-trips its exact allocation.
        let data = vec![1u8, 2, 3, 4];
        let ptr = data.as_ptr() as usize;
        let view = FrameView::from(data);
        let back = view.into_vec();
        assert_eq!(back.as_ptr() as usize, ptr);
        assert_eq!(back, vec![1, 2, 3, 4]);
    }

    #[test]
    fn long_frame_is_received_in_place_and_moves_out() {
        let mut dec = FrameDecoder::with_read_size(MAX_FRAME, 64);
        let long: Vec<u8> = (0..1000u32).map(|i| i as u8).collect();
        // A short frame, then the long one's length word and 10 bytes.
        let mut stream = encode_frame(&[5], MAX_FRAME).unwrap();
        stream.extend_from_slice(&encode_frame(&long, MAX_FRAME).unwrap());
        stream.extend_from_slice(&encode_frame(&[6, 6], MAX_FRAME).unwrap());
        dec.push(&stream[..5 + 4 + 10]);
        assert_eq!(dec.next_frame().unwrap().unwrap(), [5u8][..]);
        assert!(dec.next_frame().unwrap().is_none());
        assert!(dec.mid_frame());
        // The long frame has an exact-size buffer of its own, holding
        // the bytes that arrived with its length word.
        let buf = dec.in_place().expect("received in place");
        assert_eq!((buf.len(), buf.capacity()), (10, 1000));
        let addr = buf.as_ptr() as usize;
        // The transport reads the rest straight in; a later push carries
        // the next frame behind it.
        buf.extend_from_slice(&long[10..990]);
        dec.push(&stream[5 + 4 + 990..]);
        assert!(dec.in_place().is_none());
        let frame = dec.next_frame().unwrap().unwrap();
        assert_eq!(frame, long);
        let owned = frame.into_vec();
        assert_eq!(owned.as_ptr() as usize, addr, "moved, not copied");
        assert_eq!(dec.next_frame().unwrap().unwrap(), [6u8, 6][..]);
        assert!(!dec.mid_frame());
    }

    #[test]
    fn batches_and_one_read_frames_stay_staged() {
        // A long batch, and a plain frame that fits one read, are staged
        // as before: only a plain frame longer than a read goes in place.
        let mut dec = FrameDecoder::with_read_size(MAX_FRAME, 64);
        let batch = encode_batch(&[vec![1; 100], vec![2; 100]]);
        dec.push(&batch[..8]);
        assert!(dec.in_place().is_none());
        dec.push(&batch[8..]);
        let plain = encode_frame(&[3; 60], MAX_FRAME).unwrap();
        dec.push(&plain[..6]);
        assert!(dec.in_place().is_none());
        dec.push(&plain[6..]);
        assert_eq!(
            collect(&mut dec),
            vec![vec![1; 100], vec![2; 100], vec![3; 60]]
        );
    }

    #[test]
    fn claimed_max_frame_then_trickle_then_eof_is_mid_frame() {
        // A hostile length word at the limit: the decoder reserves the
        // frame's buffer (address space, not memory — nothing touches it
        // until bytes arrive) and reports truncation at EOF.
        let mut dec = FrameDecoder::with_read_size(MAX_FRAME, 16 * 1024);
        dec.push(&MAX_FRAME.to_le_bytes());
        for _ in 0..3 {
            dec.push(&[0xAA; 7]);
            assert!(dec.next_frame().unwrap().is_none());
        }
        let buf = dec.in_place().expect("received in place");
        assert_eq!((buf.len(), buf.capacity()), (21, MAX_FRAME as usize));
        assert!(dec.mid_frame());
        // One byte over the limit is refused outright, with no buffer.
        let mut dec = FrameDecoder::with_read_size(MAX_FRAME, 16 * 1024);
        dec.push(&(MAX_FRAME + 1).to_le_bytes());
        assert!(dec.next_frame().is_err());
        assert!(dec.in_place().is_none());
    }
}

#[cfg(test)]
mod proptests {
    //! The satellite property: frame reassembly over adversarial partial
    //! reads / split writes round-trips every `proto` message on the uds
    //! codec. The split points are drawn by proptest, so shrinking finds
    //! the minimal pathological split when a regression appears.

    use super::*;
    use crate::proto::{ConnectInfo, Request, Response};
    use proptest::collection::vec as pvec;
    use proptest::prelude::*;
    use proptest::strategy::BoxedStrategy;

    fn arb_request() -> BoxedStrategy<Request> {
        prop_oneof![
            any::<u64>()
                .prop_map(|mem_requirement| Request::Connect {
                    mem_requirement,
                    hint: None,
                    qos: (mem_requirement % 2) as u8,
                })
                .boxed(),
            Just(Request::Disconnect).boxed(),
            pvec(any::<u8>(), 0..300)
                .prop_map(|bytes| Request::RegisterFatbin {
                    bytes: bytes.into()
                })
                .boxed(),
            any::<u64>()
                .prop_map(|bytes| Request::Malloc { bytes })
                .boxed(),
            (any::<u64>(), pvec(any::<u8>(), 0..300))
                .prop_map(|(dst, data)| Request::MemcpyH2DAsync {
                    dst,
                    data: data.into()
                })
                .boxed(),
            (
                pvec(0x20u8..0x7F, 0..24),
                pvec(any::<u8>(), 0..128),
                any::<bool>()
            )
                .prop_map(|(name, args, driver_level)| Request::Launch {
                    kernel: name.into_iter().map(char::from).collect::<String>().into(),
                    cfg: gpu_sim::LaunchConfig::linear(1, 32),
                    args: args.into(),
                    driver_level,
                })
                .boxed(),
            Just(Request::Sync).boxed(),
            Just(Request::Stats).boxed(),
        ]
        .boxed()
    }

    fn arb_response() -> BoxedStrategy<Response> {
        prop_oneof![
            Just(Response::Unit).boxed(),
            ((any::<u32>(), any::<u64>()), (any::<u64>(), any::<u64>()))
                .prop_map(|((client, base), (size, ghz_bits))| {
                    Response::Connected(ConnectInfo {
                        client,
                        clock_ghz: f64::from_bits(ghz_bits),
                        partition_base: base,
                        partition_size: size,
                        deferred_launch: client % 2 == 0,
                        device: client % 3,
                        lease_mem: base ^ size,
                        lease_ttl_ms: size.rotate_left(7),
                        qos: (client % 2) as u8,
                    })
                })
                .boxed(),
            any::<u64>().prop_map(Response::Ptr).boxed(),
            pvec(0x20u8..0x7F, 0..300)
                .prop_map(|msg| {
                    let msg = msg.into_iter().map(char::from).collect();
                    Response::Error(cuda_rt::CudaError::Rejected(msg))
                })
                .boxed(),
            any::<u64>().prop_map(Response::Cycles).boxed(),
        ]
        .boxed()
    }

    /// Split `stream` at the given (wrapped) cut points and push the
    /// chunks one by one, collecting every completed frame.
    fn reassemble(stream: &[u8], cuts: &[u16]) -> Vec<FrameView> {
        let mut points: Vec<usize> = cuts
            .iter()
            .map(|&i| i as usize % (stream.len() + 1))
            .collect();
        points.push(0);
        points.push(stream.len());
        points.sort_unstable();
        points.dedup();
        let mut dec = FrameDecoder::new(MAX_FRAME);
        let mut out = Vec::new();
        for w in points.windows(2) {
            dec.push(&stream[w[0]..w[1]]);
            while let Some(f) = dec.next_frame().expect("well-formed stream") {
                out.push(f);
            }
        }
        assert!(!dec.mid_frame(), "bytes left over after full stream");
        out
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(192))]

        /// A run of proto requests survives encode → arbitrary stream
        /// splits → reassemble → zero-copy decode, message for message.
        #[test]
        fn requests_round_trip_any_split(
            reqs in pvec(arb_request(), 1..8),
            cuts in pvec(any::<u16>(), 0..24),
        ) {
            let mut stream = Vec::new();
            for req in &reqs {
                stream.extend_from_slice(&encode_frame(&req.encode(), MAX_FRAME).unwrap());
            }
            let frames = reassemble(&stream, &cuts);
            prop_assert_eq!(frames.len(), reqs.len());
            for (frame, req) in frames.iter().zip(&reqs) {
                prop_assert_eq!(
                    &Request::decode_view(frame).expect("decode_view"),
                    req
                );
            }
        }

        /// Same law for responses (covers float payloads: frame bytes
        /// compare exactly, NaN-safe).
        #[test]
        fn responses_round_trip_any_split(
            resps in pvec(arb_response(), 1..8),
            cuts in pvec(any::<u16>(), 0..24),
        ) {
            let mut stream = Vec::new();
            let mut expect = Vec::new();
            for resp in &resps {
                let payload = resp.encode();
                stream.extend_from_slice(&encode_frame(&payload, MAX_FRAME).unwrap());
                expect.push(payload);
            }
            let frames = reassemble(&stream, &cuts);
            prop_assert_eq!(frames.len(), expect.len());
            for (frame, payload) in frames.iter().zip(&expect) {
                prop_assert_eq!(&frame[..], payload.as_slice());
                Response::decode(frame).expect("decode");
            }
        }

        /// Garbage bytes never panic the decoder: it either yields frames
        /// (which `proto` then rejects in its own total decoder) or a
        /// framing error, but no allocation blow-up or slice panic.
        #[test]
        fn decoder_total_on_garbage(
            chunks in pvec(pvec(any::<u8>(), 0..64), 0..8),
        ) {
            let mut dec = FrameDecoder::new(4096);
            for c in &chunks {
                dec.push(c);
                while let Ok(Some(_)) = dec.next_frame() {}
            }
        }

        /// One connection mixing plain frames and frames coalesced into
        /// batch frames reassembles across arbitrary stream splits, and
        /// every frame decodes zero-copy to the request that was encoded
        /// — what a batching client and a batching manager exchange.
        #[test]
        fn plain_and_batched_frames_round_trip_any_split(
            reqs in pvec(arb_request(), 1..10),
            groups in pvec(1usize..4, 1..10),
            cuts in pvec(any::<u16>(), 0..24),
        ) {
            let payloads: Vec<Vec<u8>> = reqs.iter().map(Request::encode).collect();
            // Group consecutive payloads: groups of one go out as plain
            // frames, larger groups as batch frames.
            let mut stream = Vec::new();
            let mut it = payloads.iter().peekable();
            let mut gi = 0;
            while it.peek().is_some() {
                let n = groups[gi % groups.len()];
                gi += 1;
                let group: Vec<Vec<u8>> = it.by_ref().take(n).cloned().collect();
                if group.len() == 1 {
                    stream.extend_from_slice(&encode_frame(&group[0], MAX_FRAME).unwrap());
                } else {
                    let body = batch_body(&group);
                    stream.extend_from_slice(&(body.len() as u32 | BATCH_FLAG).to_le_bytes());
                    stream.extend_from_slice(&body);
                }
            }
            let frames = reassemble(&stream, &cuts);
            prop_assert_eq!(frames.len(), payloads.len());
            for (frame, payload) in frames.iter().zip(&payloads) {
                prop_assert_eq!(&frame[..], payload.as_slice());
            }
            for (frame, req) in frames.iter().zip(&reqs) {
                prop_assert_eq!(
                    &Request::decode_view(frame).expect("decode_view"),
                    req
                );
            }
        }

        /// Receiving long frames in place yields exactly the frames the
        /// staging path does, over adversarial splits around the length
        /// word and the read-size threshold, plain and batch frames
        /// mixed: each step either reads `cut` bytes straight into the
        /// in-place buffer (as the uds transport does) or pushes a chunk
        /// of at most one read — which may finish an in-place frame and
        /// carry the next frame's bytes.
        #[test]
        fn in_place_reads_yield_the_staged_frames(
            frames in pvec((0usize..700, any::<u8>()), 1..10),
            groups in pvec(1usize..4, 1..10),
            read_size in prop_oneof![Just(8usize), Just(64), Just(300), Just(4096)],
            cuts in pvec(1usize..900, 1..40),
        ) {
            let payloads: Vec<Vec<u8>> =
                frames.iter().map(|&(len, b)| vec![b; len]).collect();
            let mut stream = Vec::new();
            let mut it = payloads.iter().peekable();
            let mut gi = 0;
            while it.peek().is_some() {
                let group: Vec<Vec<u8>> =
                    it.by_ref().take(groups[gi % groups.len()]).cloned().collect();
                gi += 1;
                if group.len() == 1 {
                    stream.extend_from_slice(&encode_frame(&group[0], MAX_FRAME).unwrap());
                } else {
                    let body = batch_body(&group);
                    stream.extend_from_slice(&(body.len() as u32 | BATCH_FLAG).to_le_bytes());
                    stream.extend_from_slice(&body);
                }
            }
            let mut staged = FrameDecoder::new(MAX_FRAME);
            staged.push(&stream);
            let mut want = Vec::new();
            while let Some(f) = staged.next_frame().unwrap() {
                want.push(f.into_vec());
            }
            prop_assert_eq!(&want, &payloads);

            let mut dec = FrameDecoder::with_read_size(MAX_FRAME, read_size);
            let mut got = Vec::new();
            let (mut pos, mut step) = (0, 0);
            while pos < stream.len() {
                let cut = cuts[step % cuts.len()];
                step += 1;
                let n = match dec.in_place().filter(|_| cut % 2 == 0) {
                    Some(buf) => {
                        let n = cut.min(buf.capacity() - buf.len()).min(stream.len() - pos);
                        buf.extend_from_slice(&stream[pos..pos + n]);
                        n
                    }
                    None => {
                        let n = cut.min(read_size).min(stream.len() - pos);
                        dec.push(&stream[pos..pos + n]);
                        n
                    }
                };
                pos += n;
                while let Some(f) = dec.next_frame().unwrap() {
                    got.push(f.into_vec());
                }
            }
            prop_assert!(!dec.mid_frame());
            prop_assert_eq!(got, want);
        }

        /// `split_batch` is total on hostile bodies: any byte soup either
        /// splits cleanly or errors — no panic, no runaway allocation.
        #[test]
        fn split_batch_total_on_garbage(body in pvec(any::<u8>(), 0..256)) {
            let _ = split_batch(&body, 4096);
        }

        /// batch_body/split_batch are inverses for any frame set.
        #[test]
        fn batch_body_round_trips(frames in pvec(pvec(any::<u8>(), 0..64), 0..8)) {
            let body = batch_body(&frames);
            prop_assert_eq!(split_batch(&body, MAX_FRAME).unwrap(), frames);
        }

        /// View-splitting a batch body agrees with the owned splitter on
        /// every input — including hostile ones, where both must reject.
        #[test]
        fn split_batch_views_matches_owned(body in pvec(any::<u8>(), 0..256)) {
            let owned = split_batch(&body, 4096);
            let view = FrameView::from(body.clone());
            let mut out = VecDeque::new();
            match (owned, split_batch_views(&view, 4096, &mut out)) {
                (Ok(frames), Ok(())) => {
                    prop_assert_eq!(frames.len(), out.len());
                    for (f, v) in frames.iter().zip(&out) {
                        prop_assert_eq!(f.as_slice(), &v[..]);
                    }
                }
                (Err(_), Err(_)) => {}
                (a, b) => prop_assert!(false, "splitters disagree: {:?} vs {:?}", a.is_ok(), b.is_ok()),
            }
        }
    }
}
