//! Metered duplex links.
//!
//! A [`Link`] moves [`Message`]s between two endpoints while counting
//! every byte and message. Two implementations: crossbeam channels (in
//! process) and TCP (length-prefixed frames over `std::net`). Both are
//! constructed in pairs — one end per party — and both share the same
//! metering, so experiments can swap transports without touching protocol
//! code.

use crate::wire::{Message, WireError};
use bytes::{Buf, BufMut, BytesMut};
use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Transport errors.
#[derive(Debug)]
pub enum NetError {
    /// Peer hung up.
    Disconnected,
    /// Socket failure.
    Io(io::Error),
    /// Undecodable frame.
    Wire(WireError),
    /// Multiplexer protocol violation (duplicate query slot, reply for a
    /// finished query, pump died).
    Mux(&'static str),
    /// A specific remote node is confirmed down (its link's pump died or
    /// the registry declared it dead). Distinct from [`NetError::Wire`] /
    /// tamper so callers can tell crash from corruption.
    NodeDown {
        /// Human-readable node label (e.g. `"d0/s2"` or `"announcer"`).
        node: String,
    },
    /// A bounded wait (keep-alive probe, registry attach) expired.
    Timeout,
    /// A peer announced a frame longer than [`TcpLink`] accepts; nothing
    /// was allocated or read for it.
    FrameTooLarge {
        /// The announced body length.
        len: usize,
    },
    /// A delta upload's rows `[start, start + added)` do not lie inside
    /// the adopted setup's domain (adopt the grown setup first); nothing
    /// was recorded or sent.
    DeltaOutsideDomain {
        /// First global row of the delta.
        start: usize,
        /// Rows the delta carries.
        added: usize,
        /// The adopted setup's domain size.
        domain: usize,
    },
}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl From<WireError> for NetError {
    fn from(e: WireError) -> Self {
        NetError::Wire(e)
    }
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Disconnected => write!(f, "peer disconnected"),
            NetError::Io(e) => write!(f, "io error: {e}"),
            NetError::Wire(e) => write!(f, "wire error: {e}"),
            NetError::Mux(why) => write!(f, "multiplexer error: {why}"),
            NetError::NodeDown { node } => write!(f, "node down: {node}"),
            NetError::Timeout => write!(f, "timed out"),
            NetError::FrameTooLarge { len } => write!(
                f,
                "frame of {len} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
            ),
            NetError::DeltaOutsideDomain {
                start,
                added,
                domain,
            } => write!(
                f,
                "delta rows [{start}, {start} + {added}) lie outside the adopted {domain}-row domain"
            ),
        }
    }
}

impl std::error::Error for NetError {}

/// Shared byte/message counters for one link direction pair.
#[derive(Debug, Default)]
pub struct LinkStats {
    /// Bytes sent from this endpoint.
    pub bytes_sent: AtomicU64,
    /// Messages sent from this endpoint.
    pub msgs_sent: AtomicU64,
}

impl LinkStats {
    /// Snapshot (bytes, messages).
    pub fn snapshot(&self) -> (u64, u64) {
        (
            self.bytes_sent.load(Ordering::Relaxed),
            self.msgs_sent.load(Ordering::Relaxed),
        )
    }
}

/// A duplex, metered message link endpoint.
///
/// Links are `Sync` and **full-duplex**: `send` and `recv` may be called
/// from different threads at the same time (the multiplexer's pump thread
/// owns `recv` while query threads `send`). Concurrent `send`s serialize
/// internally so frames never interleave; concurrent `recv`s are allowed
/// but deliver each message to exactly one caller.
pub trait Link: Send + Sync {
    /// Send one message.
    fn send(&self, msg: &Message) -> Result<(), NetError>;
    /// Block for the next message.
    fn recv(&self) -> Result<Message, NetError>;
    /// This endpoint's send-side stats.
    fn stats(&self) -> Arc<LinkStats>;
}

/// In-process channel link endpoint. It models the topology, not the
/// bytes: a hop carries the [`Message`] itself, and the receiver gets what
/// decoding the sender's encoding would have given it — an equal message in
/// wire-pool buffers, or the decoder's error — while the meters count the
/// exact bytes that encoding would have had. The codec itself runs only on
/// [`TcpLink`]s.
pub struct ChannelLink {
    tx: Sender<Result<Message, WireError>>,
    rx: Receiver<Result<Message, WireError>>,
    stats: Arc<LinkStats>,
}

/// Create a connected pair of channel links.
pub fn channel_pair() -> (ChannelLink, ChannelLink) {
    let (tx_a, rx_b) = unbounded();
    let (tx_b, rx_a) = unbounded();
    (
        ChannelLink {
            tx: tx_a,
            rx: rx_a,
            stats: Arc::new(LinkStats::default()),
        },
        ChannelLink {
            tx: tx_b,
            rx: rx_b,
            stats: Arc::new(LinkStats::default()),
        },
    )
}

impl Link for ChannelLink {
    fn send(&self, msg: &Message) -> Result<(), NetError> {
        // One copy per hop, into the buffers the receiver's decode would
        // have drawn; a shape the decoder refuses fails at `recv`, as it
        // would over TCP.
        let delivered = msg.received_copy();
        self.stats
            .bytes_sent
            .fetch_add(msg.encoded_len() as u64, Ordering::Relaxed);
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        self.tx.send(delivered).map_err(|_| NetError::Disconnected)
    }

    fn recv(&self) -> Result<Message, NetError> {
        let delivered = self.rx.recv().map_err(|_| NetError::Disconnected)?;
        Ok(delivered?)
    }

    fn stats(&self) -> Arc<LinkStats> {
        Arc::clone(&self.stats)
    }
}

/// Largest frame body a [`TcpLink`] will receive. The length prefix comes
/// from the peer — on the attach port, from anyone who can dial it — so it
/// is checked before a byte is allocated for the body. The largest frame
/// anything in this repository puts on a socket is the benchmark's
/// `tcp_wide_serial` Phase-1 `BulkUpload` (3 columns × 100 000 cells × 8 B
/// ≈ 2.4 MB; its round-2 `RunBatch` is the same size, replies are 800 KB;
/// every test, example and `exp_harness` TCP config is ≤ 4 096 cells per
/// frame). 64 MiB is ~27× that — one 8 M-cell column, or a full
/// seven-column upload of a 1 M-cell domain — and 1/64 of what the
/// prefix could otherwise demand.
const MAX_FRAME_BYTES: usize = 64 << 20;

/// TCP link endpoint: 4-byte little-endian length prefix per frame.
///
/// The stream is split into independently locked reader and writer halves
/// (`TcpStream::try_clone` shares one socket), so a blocked `recv` — the
/// multiplexer's pump parked in `read_exact` — never stalls a concurrent
/// `send` on the same link.
pub struct TcpLink {
    reader: Mutex<TcpStream>,
    writer: Mutex<TcpStream>,
    stats: Arc<LinkStats>,
}

impl TcpLink {
    /// Wrap an accepted/connected stream. Fails only if the OS refuses to
    /// duplicate the socket handle for the reader half.
    pub fn new(stream: TcpStream) -> io::Result<TcpLink> {
        stream.set_nodelay(true).ok();
        let reader = stream.try_clone()?;
        Ok(TcpLink {
            reader: Mutex::new(reader),
            writer: Mutex::new(stream),
            stats: Arc::new(LinkStats::default()),
        })
    }

    /// Dial `addr`, retrying with a fixed `backoff` until `timeout` has
    /// elapsed. Cluster bring-up is racy by nature — a worker may start a
    /// beat before the registry listener is bound — so every attach path
    /// dials through this instead of a bare `TcpStream::connect`.
    pub fn connect_retry(
        addr: std::net::SocketAddr,
        timeout: std::time::Duration,
        backoff: std::time::Duration,
    ) -> Result<TcpLink, NetError> {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            match TcpStream::connect(addr) {
                Ok(stream) => return Ok(TcpLink::new(stream)?),
                Err(_) if std::time::Instant::now() < deadline => {
                    std::thread::sleep(backoff);
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Shut down both socket halves. Any peer blocked in `recv` observes
    /// EOF immediately — this is how tests and the example kill a worker
    /// without waiting for process teardown.
    pub fn shutdown(&self) {
        self.writer.lock().shutdown(std::net::Shutdown::Both).ok();
    }

    /// Create a connected pair over loopback (test/demo convenience).
    pub fn loopback_pair() -> io::Result<(TcpLink, TcpLink)> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let client = TcpStream::connect(addr)?;
        let (server, _) = listener.accept()?;
        Ok((TcpLink::new(client)?, TcpLink::new(server)?))
    }
}

impl Link for TcpLink {
    fn send(&self, msg: &Message) -> Result<(), NetError> {
        // Build prefix and body in one exactly-sized buffer so each send is
        // a single allocation and a single write_all.
        let body_len = msg.encoded_len();
        let mut frame = BytesMut::with_capacity(4 + body_len);
        frame.put_u32_le(body_len as u32);
        msg.encode_into(&mut frame);
        debug_assert_eq!(frame.len(), 4 + body_len);
        let mut stream = self.writer.lock();
        stream.write_all(&frame)?;
        self.stats
            .bytes_sent
            .fetch_add(frame.len() as u64, Ordering::Relaxed);
        self.stats.msgs_sent.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn recv(&self) -> Result<Message, NetError> {
        let mut stream = self.reader.lock();
        let mut len_buf = [0u8; 4];
        stream.read_exact(&mut len_buf)?;
        let len = (&len_buf[..]).get_u32_le() as usize;
        if len > MAX_FRAME_BYTES {
            return Err(NetError::FrameTooLarge { len });
        }
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body)?;
        Ok(Message::decode(&body)?)
    }

    fn stats(&self) -> Arc<LinkStats> {
        Arc::clone(&self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Column, Op};

    fn exercise(a: &dyn Link, b: &dyn Link) {
        let msgs = vec![
            Message::BulkUpload {
                owner: 1,
                columns: vec![(Column::Ok, vec![1, 2, 3])],
            },
            Message::RunBatch(prism_protocol::engine::BatchQuery {
                zs: vec![],
                items: vec![prism_protocol::engine::BatchItem::plain(Op::Psi)],
                threads: 2,
                range: None,
            }),
            Message::Outputs(vec![vec![9; 50]]),
            Message::Ack,
        ];
        for m in &msgs {
            a.send(m).unwrap();
        }
        for m in &msgs {
            assert_eq!(&b.recv().unwrap(), m);
        }
        // Reply direction.
        b.send(&Message::Shutdown).unwrap();
        assert_eq!(a.recv().unwrap(), Message::Shutdown);
        let (bytes, count) = a.stats().snapshot();
        assert_eq!(count, 4);
        assert!(bytes > 0);
    }

    #[test]
    fn channel_link_roundtrip() {
        let (a, b) = channel_pair();
        exercise(&a, &b);
    }

    #[test]
    fn tcp_link_roundtrip() {
        let (a, b) = TcpLink::loopback_pair().unwrap();
        exercise(&a, &b);
    }

    #[test]
    fn channel_disconnect_detected() {
        let (a, b) = channel_pair();
        drop(b);
        assert!(matches!(
            a.send(&Message::Ack).unwrap_err(),
            NetError::Disconnected
        ));
    }

    #[test]
    fn tcp_large_frame() {
        let (a, b) = TcpLink::loopback_pair().unwrap();
        let big = Message::Outputs(vec![(0..100_000).collect()]);
        let h = std::thread::spawn(move || b.recv().unwrap());
        a.send(&big).unwrap();
        assert_eq!(h.join().unwrap(), big);
    }

    #[test]
    fn tcp_oversized_length_prefix_is_refused_before_the_body() {
        // Any dialer can write four bytes. A hostile prefix must fail
        // typed, at once — the peer stays connected and sends no body, so
        // a recv that tried to read (or allocate) one would hang — and
        // must leave the bytes after the prefix unread.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut raw = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let link = TcpLink::new(listener.accept().unwrap().0).unwrap();
        raw.write_all(&u32::MAX.to_le_bytes()).unwrap();
        raw.write_all(b"xyz").unwrap();
        match link.recv().unwrap_err() {
            NetError::FrameTooLarge { len } => assert_eq!(len, u32::MAX as usize),
            other => panic!("expected FrameTooLarge, got {other:?}"),
        }
        let mut rest = [0u8; 3];
        link.reader.lock().read_exact(&mut rest).unwrap();
        assert_eq!(&rest, b"xyz", "body bytes were consumed");
    }

    #[test]
    fn tcp_send_proceeds_while_recv_blocks() {
        // Full duplex: a parked recv (the multiplexer pump's steady
        // state) must not hold the lock a concurrent send needs.
        let (a, b) = TcpLink::loopback_pair().unwrap();
        let a = std::sync::Arc::new(a);
        let pump = {
            let a = std::sync::Arc::clone(&a);
            std::thread::spawn(move || a.recv().unwrap())
        };
        // Give the pump time to park inside read_exact, then send from
        // the same endpoint; b echoes so the pump can finish.
        std::thread::sleep(std::time::Duration::from_millis(20));
        let pong = Message::Pong {
            seq: 3,
            generation: 0,
        };
        a.send(&Message::Ping { seq: 3 }).unwrap();
        assert_eq!(b.recv().unwrap(), Message::Ping { seq: 3 });
        b.send(&pong).unwrap();
        assert_eq!(pump.join().unwrap(), pong);
    }

    #[test]
    fn connect_retry_waits_for_listener() {
        // Reserve a port, drop the listener, then rebind it from a delayed
        // thread: connect_retry must ride out the gap instead of failing
        // on the first refused dial.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        drop(listener);
        let h = std::thread::spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(60));
            let listener = TcpListener::bind(addr).unwrap();
            let (server, _) = listener.accept().unwrap();
            TcpLink::new(server).unwrap()
        });
        let client = TcpLink::connect_retry(
            addr,
            std::time::Duration::from_secs(10),
            std::time::Duration::from_millis(5),
        )
        .unwrap();
        let server = h.join().unwrap();
        client.send(&Message::Ack).unwrap();
        assert_eq!(server.recv().unwrap(), Message::Ack);
    }

    #[test]
    fn tcp_shutdown_unblocks_recv() {
        let (_a, b) = TcpLink::loopback_pair().unwrap();
        let b = std::sync::Arc::new(b);
        let h = {
            let b = std::sync::Arc::clone(&b);
            std::thread::spawn(move || b.recv())
        };
        std::thread::sleep(std::time::Duration::from_millis(20));
        b.shutdown();
        assert!(h.join().unwrap().is_err());
    }

    #[test]
    fn byte_counts_match_encoding() {
        let (a, b) = channel_pair();
        let m = Message::Outputs(vec![vec![0; 10]]);
        a.send(&m).unwrap();
        let _ = b.recv().unwrap();
        let (bytes, _) = a.stats().snapshot();
        assert_eq!(bytes, m.encode().len() as u64);
    }
}
