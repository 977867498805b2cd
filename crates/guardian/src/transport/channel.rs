//! In-process channel transport: two `crossbeam` byte-frame channels per
//! connection. The cheapest carrier — no copies beyond the frame itself,
//! no syscalls — used by tests, benches, and single-process deployments.
//! The two halves of a connection share one mapping of its window.

use super::{Connection, Dialer, Listener, TransportError, Window};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::sync::Arc;

/// In-process connection half: a pair of byte-frame channels.
pub struct ChannelConnection {
    tx: Sender<Vec<u8>>,
    rx: Receiver<Vec<u8>>,
    window: Arc<Window>,
}

impl Connection for ChannelConnection {
    fn send(&self, frame: Vec<u8>) -> Result<(), TransportError> {
        self.tx
            .send(frame)
            .map_err(|_| TransportError::Disconnected)
    }

    fn window(&self) -> Option<Arc<Window>> {
        Some(self.window.clone())
    }

    fn recv(&self) -> Result<Vec<u8>, TransportError> {
        self.rx.recv().map_err(|_| TransportError::Disconnected)
    }
}

/// In-process listener: receives server halves from [`ChannelDialer`]s.
pub struct ChannelListener {
    incoming: Receiver<ChannelConnection>,
}

impl Listener for ChannelListener {
    fn accept(&self) -> Result<Box<dyn Connection>, TransportError> {
        self.incoming
            .recv()
            .map(|c| Box::new(c) as Box<dyn Connection>)
            .map_err(|_| TransportError::Disconnected)
    }
}

/// In-process dialer: builds a duplex channel pair per connection and
/// hands the server half to the listener.
pub struct ChannelDialer {
    // Mutex so the dialer is Sync regardless of the channel Sender's own
    // Sync-ness (the shim wraps std::sync::mpsc).
    to_listener: Mutex<Sender<ChannelConnection>>,
}

impl Dialer for ChannelDialer {
    fn dial(&self) -> Result<Box<dyn Connection>, TransportError> {
        let (c2s_tx, c2s_rx) = unbounded();
        let (s2c_tx, s2c_rx) = unbounded();
        // One process, one mapping: the descriptor is not needed past it.
        let (window, _fd) = Window::create().map_err(|e| TransportError::from_io("dial", &e))?;
        let window = Arc::new(window);
        let server = ChannelConnection {
            tx: s2c_tx,
            rx: c2s_rx,
            window: window.clone(),
        };
        let client = ChannelConnection {
            tx: c2s_tx,
            rx: s2c_rx,
            window,
        };
        self.to_listener
            .lock()
            .send(server)
            .map_err(|_| TransportError::Disconnected)?;
        Ok(Box::new(client))
    }
}

/// Create a connected in-process listener/dialer pair.
///
/// Dropping the dialer closes the listener (its `accept` starts failing),
/// which is how the manager's acceptor thread learns to shut down.
pub fn channel_transport() -> (ChannelListener, ChannelDialer) {
    let (tx, rx) = unbounded();
    (
        ChannelListener { incoming: rx },
        ChannelDialer {
            to_listener: Mutex::new(tx),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip_in_order() {
        let (listener, dialer) = channel_transport();
        let client = dialer.dial().unwrap();
        let server = listener.accept().unwrap();
        client.send(vec![1]).unwrap();
        client.send(vec![2, 2]).unwrap();
        assert_eq!(server.recv().unwrap(), vec![1]);
        assert_eq!(server.recv().unwrap(), vec![2, 2]);
        server.send(vec![3]).unwrap();
        assert_eq!(client.recv().unwrap(), vec![3]);
    }

    #[test]
    fn connections_are_independent() {
        let (listener, dialer) = channel_transport();
        let c1 = dialer.dial().unwrap();
        let c2 = dialer.dial().unwrap();
        let s1 = listener.accept().unwrap();
        let s2 = listener.accept().unwrap();
        c2.send(vec![2]).unwrap();
        c1.send(vec![1]).unwrap();
        assert_eq!(s1.recv().unwrap(), vec![1]);
        assert_eq!(s2.recv().unwrap(), vec![2]);
    }

    #[test]
    fn drop_propagates_as_disconnect() {
        let (listener, dialer) = channel_transport();
        let client = dialer.dial().unwrap();
        let server = listener.accept().unwrap();
        drop(client);
        assert_eq!(server.recv(), Err(TransportError::Disconnected));
        drop(dialer);
        assert!(listener.accept().is_err());
    }
}
