//! The transfer window: one sealed shared-memory region per connection
//! that carries every bulk copy.
//!
//! The daemon creates it at the transport handshake — a memfd sealed
//! against shrinking, growing and further sealing
//! ([`sys::sealed_memfd`]) — maps it, and hands the descriptor to the
//! client, which maps it too. Both close the descriptor once mapped. A
//! `MemcpyH2D` or `MemcpyD2H` frame then carries only `(addr, len)`: the
//! bytes sit at offset 0 of the window. The client copies an H2D payload
//! in and a D2H result out; the device reads the one and writes the
//! other in place. A copy costs one memcpy on each side, and the socket
//! carries only small frames.
//!
//! The window holds bytes only. Every length and address comes from the
//! frame and is checked by the session before any copy, so a tenant that
//! rewrites its window mid-copy changes only bytes bound for its own
//! partition or its own reply. All of the window's `unsafe` is in this
//! module, and no reference into the mapping outlives one copy.

use super::sys::{self, SharedMap};
use std::fs::File;
use std::io;
use std::sync::Arc;

/// Bytes in every connection's window: the largest frame, so copies are
/// split where frame-carried copies were.
const WINDOW_LEN: usize = super::frame::MAX_FRAME as usize;

/// One connection's transfer window, mapped into this process. Shared
/// by `Arc` between the connection and whatever copy is using it.
pub struct Window {
    map: SharedMap,
}

impl Window {
    /// A fresh window, and the sealed descriptor that hands it to the
    /// peer (close it once sent).
    pub(crate) fn create() -> io::Result<(Window, File)> {
        let file = sys::sealed_memfd(c"grd-window", WINDOW_LEN as u64)?;
        Ok((Window::open(&file)?, file))
    }

    /// Map the window the peer created and sent as `file`.
    pub(crate) fn open(file: &File) -> io::Result<Window> {
        Ok(Window {
            map: SharedMap::new(file, WINDOW_LEN)?,
        })
    }

    /// The window's size in bytes: the largest single copy.
    pub fn size(&self) -> usize {
        self.map.len()
    }

    /// Copy `src` to the start of the window (the client's half of an
    /// H2D copy).
    ///
    /// # Panics
    ///
    /// If `src` is longer than the window.
    pub(crate) fn write(&self, src: &[u8]) {
        assert!(src.len() <= self.size(), "copy larger than the window");
        // SAFETY: `src.len()` bytes fit the live mapping. `src` cannot
        // overlap it: this type never lends a reference into the
        // mapping beyond one copy, so no caller holds one.
        unsafe { std::ptr::copy_nonoverlapping(src.as_ptr(), self.map.ptr(), src.len()) }
    }

    /// Append the window's first `len` bytes to `out` (the client's
    /// half of a D2H copy).
    ///
    /// # Panics
    ///
    /// If `len` is longer than the window.
    pub(crate) fn read_append(&self, len: usize, out: &mut Vec<u8>) {
        assert!(len <= self.size(), "copy larger than the window");
        // SAFETY: `len` bytes lie in the live mapping, and the slice
        // lives only for this one copy.
        out.extend_from_slice(unsafe { std::slice::from_raw_parts(self.map.ptr(), len) });
    }

    /// The window's first `len` bytes, for the device to read (H2D) or
    /// write (D2H) in one copy, or `None` if `len` exceeds the window.
    pub(crate) fn span(self: &Arc<Self>, len: u64) -> Option<WindowSpan> {
        let len = usize::try_from(len).ok().filter(|&n| n <= self.size())?;
        Some(WindowSpan {
            window: self.clone(),
            len,
        })
    }
}

/// The first `len` bytes of a window, lent as a slice for the duration
/// of one copy into or out of it.
pub(crate) struct WindowSpan {
    window: Arc<Window>,
    len: usize,
}

impl AsRef<[u8]> for WindowSpan {
    fn as_ref(&self) -> &[u8] {
        // SAFETY: `len` was checked against the mapping at construction,
        // and the `Arc` keeps the mapping alive for the borrow. The
        // device borrows it for one copy, while the session waits for
        // that copy before it replies, so the client in this connection
        // does not write the window meanwhile. A tenant that writes it
        // anyway, from its own process, changes only which bytes this
        // copy moves into its own partition.
        unsafe { std::slice::from_raw_parts(self.window.map.ptr(), self.len) }
    }
}

impl AsMut<[u8]> for WindowSpan {
    fn as_mut(&mut self) -> &mut [u8] {
        // SAFETY: as for `as_ref`. The session lends one span per
        // connection at a time and the client reads the window only
        // after the reply, so nothing in this process aliases the slice;
        // a tenant touching it from its own process changes only its own
        // reply.
        unsafe { std::slice::from_raw_parts_mut(self.window.map.ptr(), self.len) }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Both mappings of one window see the same bytes, and a length past
    /// the window is refused where the session asks for it.
    #[test]
    fn two_mappings_share_bytes_and_lengths_are_bounded() {
        let (server, fd) = Window::create().unwrap();
        let server = Arc::new(server);
        let client = Window::open(&fd).unwrap();
        drop(fd);
        client.write(b"payload");
        assert_eq!(server.span(7).unwrap().as_ref(), b"payload");
        server.span(3).unwrap().as_mut().copy_from_slice(b"out");
        let mut got = vec![b'>'];
        client.read_append(3, &mut got);
        assert_eq!(got, b">out");
        let len = server.size() as u64;
        assert!(server.span(len).is_some());
        assert!(server.span(len + 1).is_none() && server.span(u64::MAX).is_none());
    }
}
