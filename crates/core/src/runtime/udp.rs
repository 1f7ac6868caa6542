//! The wire layer of the socket backends, and the `udp` backend itself.
//!
//! P2PSAP wire segments leave the process here: every peer owns a
//! [`std::net::UdpSocket`] bound to an ephemeral localhost port and segments
//! travel as genuine UDP datagrams through the kernel's network stack.
//! Everything scheme- and protocol-related lives in the shared
//! [`PeerEngine`](crate::runtime::engine::PeerEngine), and the one socket
//! drive loop lives in [`crate::runtime::reactor`] — this module provides
//! what goes over the wire:
//!
//! * **Framing / reassembly** — a P2PSAP segment can exceed a safe datagram
//!   size (boundary planes grow with the grid), so segments are split into
//!   fragments of at most [`MAX_FRAGMENT_PAYLOAD`] bytes, each carrying a
//!   `(sender, message id, fragment index / count)` header, and reassembled
//!   at the receiver (out-of-order tolerant, stale partials evicted by
//!   count and by the slots they reserve). Each fragment is its own UDP
//!   datagram, but a segment's fragments cross the kernel together, as a
//!   *fragment train*: laid end to end, sent with one [`send_train`] and —
//!   on a socket that [`accept_trains`] — read back with one
//!   [`recv_train`]. The `sys` submodule holds that kernel boundary and
//!   every `unsafe` line of the socket backends.
//! * **Bootstrap** — peers discover each other over the socket itself: a
//!   bootstrap service owned by the run (served on the run's calling
//!   thread, which would otherwise only wait) binds its own port, every
//!   peer announces `HELLO(rank)` from its freshly bound socket (retrying
//!   until answered), and once all ranks have announced, the service
//!   replies with the full rank→port table. No addresses are configured up
//!   front.
//! * **Loss / reorder shim** — [`LossShim`] wraps the socket's send path
//!   with a deterministic [`ChaCha8Rng`] seeded from the experiment seed,
//!   dropping or swapping datagrams with configured probabilities, so the
//!   congestion-control and protocol-adaptation paths are exercised over
//!   genuinely lossy delivery rather than only netsim's model. It decides
//!   fragment by fragment: a train leaves without the fragments it lost,
//!   and one it held back follows the train alone.
//! * **Transport** — `UdpTransport`, the [`PeerTransport`] every socket
//!   peer drives its engine through: in-place framing, wall-clock protocol
//!   timers, the asynchronous pacing gate and the control broadcasts.
//!
//! The `udp` backend (`run_sockets`) is the reactor at one event loop per
//! provisioned peer: the thread-per-peer shape of a small real-socket run,
//! on the same state machine that multiplexes thousands.
//!
//! Latency is whatever the kernel's loopback path provides (microseconds);
//! the topology only contributes the cluster split that the hybrid scheme's
//! wait rule and the Table I controller consume. Runs are therefore *not*
//! deterministic in elapsed time — but synchronous-scheme relaxation counts
//! still match the other runtimes, which is what the cross-runtime
//! agreement tests assert.

use crate::runtime::driver::TaskFactory;
use crate::runtime::engine::{PeerTransport, TimerKey, Wire};
use crate::runtime::host::{PacingGate, Polled};
use crate::runtime::reactor::{run_iterative_reactor, SocketRunOutcome};
use crate::runtime::RunConfig;
use bytes::Bytes;
use netsim::Topology;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::net::{Ipv4Addr, SocketAddr, SocketAddrV4, UdpSocket};
use std::time::{Duration, Instant};

mod sys;

pub(crate) use sys::grow_socket_buffers;
pub use sys::{accept_trains, recv_train, send_train, TrainPath};

/// Magic tag opening every datagram of this runtime (stray traffic on a
/// reused port is discarded instead of corrupting a run).
pub const DATAGRAM_MAGIC: u16 = 0x5A7D;

/// Largest fragment payload put into one datagram. Conservative (well under
/// the loopback MTU) so that realistic boundary planes exercise the
/// fragmentation path instead of always fitting into one datagram.
pub const MAX_FRAGMENT_PAYLOAD: usize = 1200;

/// Size of the fragment header:
/// magic(2) kind(1) from(2) msg_id(4) frag_index(2) frag_count(2) len(2).
pub const FRAGMENT_HEADER_BYTES: usize = 15;

/// Bytes from one fragment datagram to the next in a fragment train: every
/// fragment of a segment but the last is exactly this long.
pub const TRAIN_STRIDE: usize = FRAGMENT_HEADER_BYTES + MAX_FRAGMENT_PAYLOAD;

/// Partial messages kept per receiver before the oldest is evicted. Stale
/// partials accumulate only when fragments are lost on an unreliable
/// channel; the reliable channel retransmits under a fresh message id.
const MAX_PARTIAL_MESSAGES: usize = 256;

/// Fragment slots the partial messages of one receiver may reserve between
/// them before the oldest is evicted — ≈ 19 MiB of honest payload in flight
/// to one peer (the largest message in the tree is 441 fragments). A
/// fragment's `frag_count` is the sender's claim, and the slots are reserved
/// on the first fragment: without this bound, 256 fifteen-byte datagrams
/// that each claim 65 535 fragments pin ≈ 400 MiB.
const MAX_RESERVED_SLOTS: usize = 16_384;

const KIND_FRAGMENT: u8 = 0;
const KIND_STOP: u8 = 1;
const KIND_HELLO: u8 = 2;
const KIND_TABLE: u8 = 3;
const KIND_ROLLBACK: u8 = 4;
const KIND_GOSSIP: u8 = 5;

/// A decoded runtime datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Datagram {
    /// One fragment of a framed P2PSAP segment.
    Fragment {
        /// Sender rank.
        from: usize,
        /// Per-sender message counter the fragments reassemble under.
        msg_id: u32,
        /// Index of this fragment within the message.
        frag_index: u16,
        /// Total fragments of the message.
        frag_count: u16,
        /// Fragment payload.
        payload: Vec<u8>,
    },
    /// The termination broadcast.
    Stop {
        /// Sender rank.
        from: usize,
    },
    /// Bootstrap: a peer announcing its rank from its bound socket.
    Hello {
        /// Announcing rank.
        rank: usize,
    },
    /// Bootstrap: the full rank→port table (ranks are the vector indices).
    Table {
        /// UDP port of every rank, in rank order.
        ports: Vec<u16>,
    },
    /// Synchronous rollback broadcast from a recovered peer: every peer
    /// restarts from the common checkpointed iteration.
    Rollback {
        /// Sender rank (the recovered peer).
        from: usize,
        /// The iteration every peer rolls back to.
        to_iteration: u64,
        /// The new report generation.
        generation: u32,
    },
    /// A gossip control-plane message ([`crate::gossip::GossipMessage`]
    /// encoding): SWIM probes/acks with piggy-backed rumors and convergence
    /// digest rows. Carried only under
    /// [`ControlPlane::Gossip`](crate::runtime::ControlPlane).
    Gossip {
        /// Sender rank.
        from: usize,
        /// The encoded [`crate::gossip::GossipMessage`].
        payload: Vec<u8>,
    },
}

/// Encode one fragment datagram (header + payload chunk) into `out`, which
/// is cleared first. Shared by [`Datagram::encode`] and the transport's send
/// path, which lays a segment's fragments end to end in a pooled buffer —
/// sharing the writer keeps the two byte-identical.
pub fn encode_fragment_into(
    out: &mut Vec<u8>,
    from: usize,
    msg_id: u32,
    frag_index: u16,
    frag_count: u16,
    payload: &[u8],
) {
    out.clear();
    append_fragment(out, from, msg_id, frag_index, frag_count, payload);
}

/// [`encode_fragment_into`] without the clear: the fragment datagram goes
/// behind whatever `out` holds.
fn append_fragment(
    out: &mut Vec<u8>,
    from: usize,
    msg_id: u32,
    frag_index: u16,
    frag_count: u16,
    payload: &[u8],
) {
    out.reserve(FRAGMENT_HEADER_BYTES + payload.len());
    out.extend_from_slice(&DATAGRAM_MAGIC.to_be_bytes());
    out.push(KIND_FRAGMENT);
    out.extend_from_slice(&(from as u16).to_be_bytes());
    out.extend_from_slice(&msg_id.to_be_bytes());
    out.extend_from_slice(&frag_index.to_be_bytes());
    out.extend_from_slice(&frag_count.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    out.extend_from_slice(payload);
}

impl Datagram {
    /// Exact encoded size in bytes (what [`Datagram::encode`] pre-reserves).
    pub fn encoded_len(&self) -> usize {
        match self {
            Datagram::Fragment { payload, .. } => FRAGMENT_HEADER_BYTES + payload.len(),
            Datagram::Stop { .. } | Datagram::Hello { .. } => 5,
            Datagram::Table { ports } => 5 + 2 * ports.len(),
            Datagram::Rollback { .. } => 17,
            Datagram::Gossip { payload, .. } => 7 + payload.len(),
        }
    }

    /// Encode to the on-wire byte representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        if let Datagram::Fragment {
            from,
            msg_id,
            frag_index,
            frag_count,
            payload,
        } = self
        {
            encode_fragment_into(&mut out, *from, *msg_id, *frag_index, *frag_count, payload);
            return out;
        }
        out.extend_from_slice(&DATAGRAM_MAGIC.to_be_bytes());
        match self {
            Datagram::Fragment { .. } => unreachable!("encoded above"),
            Datagram::Stop { from } => {
                out.push(KIND_STOP);
                out.extend_from_slice(&(*from as u16).to_be_bytes());
            }
            Datagram::Hello { rank } => {
                out.push(KIND_HELLO);
                out.extend_from_slice(&(*rank as u16).to_be_bytes());
            }
            Datagram::Table { ports } => {
                out.push(KIND_TABLE);
                out.extend_from_slice(&(ports.len() as u16).to_be_bytes());
                for port in ports {
                    out.extend_from_slice(&port.to_be_bytes());
                }
            }
            Datagram::Rollback {
                from,
                to_iteration,
                generation,
            } => {
                out.push(KIND_ROLLBACK);
                out.extend_from_slice(&(*from as u16).to_be_bytes());
                out.extend_from_slice(&to_iteration.to_be_bytes());
                out.extend_from_slice(&generation.to_be_bytes());
            }
            Datagram::Gossip { from, payload } => {
                out.push(KIND_GOSSIP);
                out.extend_from_slice(&(*from as u16).to_be_bytes());
                out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
                out.extend_from_slice(payload);
            }
        }
        out
    }

    /// Decode from bytes received off the socket; `None` for foreign or
    /// truncated traffic.
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        let u16_at = |i: usize| -> Option<u16> {
            Some(u16::from_be_bytes([*bytes.get(i)?, *bytes.get(i + 1)?]))
        };
        if u16_at(0)? != DATAGRAM_MAGIC {
            return None;
        }
        match *bytes.get(2)? {
            KIND_FRAGMENT => {
                let (from, msg_id, frag_index, frag_count, payload) = Self::fragment_fields(bytes)?;
                Some(Datagram::Fragment {
                    from,
                    msg_id,
                    frag_index,
                    frag_count,
                    payload: payload.to_vec(),
                })
            }
            KIND_STOP => Some(Datagram::Stop {
                from: u16_at(3)? as usize,
            }),
            KIND_HELLO => Some(Datagram::Hello {
                rank: u16_at(3)? as usize,
            }),
            KIND_TABLE => {
                let count = u16_at(3)? as usize;
                let mut ports = Vec::with_capacity(count);
                for i in 0..count {
                    ports.push(u16_at(5 + 2 * i)?);
                }
                Some(Datagram::Table { ports })
            }
            KIND_ROLLBACK => {
                let from = u16_at(3)? as usize;
                let to_iteration = u64::from_be_bytes([
                    *bytes.get(5)?,
                    *bytes.get(6)?,
                    *bytes.get(7)?,
                    *bytes.get(8)?,
                    *bytes.get(9)?,
                    *bytes.get(10)?,
                    *bytes.get(11)?,
                    *bytes.get(12)?,
                ]);
                let generation = u32::from_be_bytes([
                    *bytes.get(13)?,
                    *bytes.get(14)?,
                    *bytes.get(15)?,
                    *bytes.get(16)?,
                ]);
                Some(Datagram::Rollback {
                    from,
                    to_iteration,
                    generation,
                })
            }
            KIND_GOSSIP => {
                let from = u16_at(3)? as usize;
                let len = u16_at(5)? as usize;
                let payload = bytes.get(7..7 + len)?.to_vec();
                Some(Datagram::Gossip { from, payload })
            }
            _ => None,
        }
    }

    /// The control datagram that carries `wire` from rank `from`; `None` for
    /// a segment, which travels as a train of [`Datagram::Fragment`]s.
    pub fn from_wire(from: usize, wire: Wire) -> Option<Self> {
        match wire {
            Wire::Segment(_) => None,
            Wire::Stop => Some(Datagram::Stop { from }),
            Wire::Rollback(to_iteration, generation) => Some(Datagram::Rollback {
                from,
                to_iteration,
                generation,
            }),
            Wire::Gossip(payload) => Some(Datagram::Gossip { from, payload }),
        }
    }

    /// The sender and the [`Wire`] a control datagram carries. `None` for
    /// the bootstrap handshake, which is the socket substrate's own, and for
    /// a fragment, which is a piece of a wire (see [`Reassembler`]).
    pub fn into_wire(self) -> Option<(usize, Wire)> {
        match self {
            Datagram::Stop { from } => Some((from, Wire::Stop)),
            Datagram::Rollback {
                from,
                to_iteration,
                generation,
            } => Some((from, Wire::Rollback(to_iteration, generation))),
            Datagram::Gossip { from, payload } => Some((from, Wire::Gossip(payload))),
            Datagram::Fragment { .. } | Datagram::Hello { .. } | Datagram::Table { .. } => None,
        }
    }

    /// Parse a fragment datagram without copying the payload: returns
    /// `(from, msg_id, frag_index, frag_count, payload)` borrowed from
    /// `bytes`, or `None` for anything that is not a well-formed fragment.
    /// The receive hot path uses this with [`Reassembler::push_ref`] so a
    /// datagram's payload is copied once, into a pooled reassembly buffer.
    pub fn fragment_fields(bytes: &[u8]) -> Option<(usize, u32, u16, u16, &[u8])> {
        let u16_at = |i: usize| -> Option<u16> {
            Some(u16::from_be_bytes([*bytes.get(i)?, *bytes.get(i + 1)?]))
        };
        if u16_at(0)? != DATAGRAM_MAGIC || *bytes.get(2)? != KIND_FRAGMENT {
            return None;
        }
        let from = u16_at(3)? as usize;
        let msg_id = u32::from_be_bytes([
            *bytes.get(5)?,
            *bytes.get(6)?,
            *bytes.get(7)?,
            *bytes.get(8)?,
        ]);
        let frag_index = u16_at(9)?;
        let frag_count = u16_at(11)?;
        let len = u16_at(13)? as usize;
        let payload = bytes.get(FRAGMENT_HEADER_BYTES..FRAGMENT_HEADER_BYTES + len)?;
        Some((from, msg_id, frag_index, frag_count, payload))
    }
}

/// Split one P2PSAP wire segment into fragment datagrams of at most
/// [`MAX_FRAGMENT_PAYLOAD`] payload bytes each.
pub fn frame_segment(from: usize, msg_id: u32, segment: &[u8]) -> Vec<Datagram> {
    let chunks: Vec<&[u8]> = if segment.is_empty() {
        vec![&[]]
    } else {
        segment.chunks(MAX_FRAGMENT_PAYLOAD).collect()
    };
    let frag_count = chunks.len() as u16;
    chunks
        .into_iter()
        .enumerate()
        .map(|(i, chunk)| Datagram::Fragment {
            from,
            msg_id,
            frag_index: i as u16,
            frag_count,
            payload: chunk.to_vec(),
        })
        .collect()
}

/// Reassembles framed segments from fragment datagrams, tolerating
/// out-of-order and duplicate delivery. At most 256 partial messages,
/// reserving at most 16 384 fragment slots between them, are buffered;
/// beyond either bound the oldest is evicted (stale partials correspond to
/// fragments lost on an unreliable channel — or to a hostile sender).
#[derive(Debug, Default)]
pub struct Reassembler {
    partial: HashMap<(usize, u32), Partial>,
    /// Monotone admission counter used for oldest-first eviction.
    admitted: u64,
    /// Fragment slots reserved across `partial`.
    reserved: usize,
    /// Spare fragment buffers, kept warm across messages: in steady state a
    /// fragment's payload is copied into a recycled buffer instead of a
    /// fresh allocation (only the assembled segment handed to the engine is
    /// allocated per message — delivery inherently needs it).
    pool: Vec<Vec<u8>>,
}

#[derive(Debug)]
struct Partial {
    fragments: Vec<Option<Vec<u8>>>,
    received: usize,
    admitted_at: u64,
}

impl Reassembler {
    /// An empty reassembler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of partially reassembled messages currently buffered.
    pub fn pending(&self) -> usize {
        self.partial.len()
    }

    /// Fragment slots those messages reserve between them (received or not).
    pub fn reserved_slots(&self) -> usize {
        self.reserved
    }

    /// Feed one fragment; returns the complete segment (with its sender)
    /// when this fragment finishes a message.
    pub fn push(&mut self, datagram: Datagram) -> Option<(usize, Bytes)> {
        let Datagram::Fragment {
            from,
            msg_id,
            frag_index,
            frag_count,
            payload,
        } = datagram
        else {
            return None;
        };
        self.push_ref(from, msg_id, frag_index, frag_count, &payload)
    }

    /// Feed one fragment by reference (the receive hot path, paired with
    /// [`Datagram::fragment_fields`]): the payload is copied into a pooled
    /// buffer instead of requiring an owned `Vec` per datagram. Returns the
    /// complete segment when this fragment finishes a message.
    pub fn push_ref(
        &mut self,
        from: usize,
        msg_id: u32,
        frag_index: u16,
        frag_count: u16,
        payload: &[u8],
    ) -> Option<(usize, Bytes)> {
        let slots = frag_count as usize;
        if frag_count == 0 || frag_index >= frag_count || slots > MAX_RESERVED_SLOTS {
            return None;
        }
        // Single-fragment fast path: nothing to buffer; the copy is the
        // delivered segment itself.
        if frag_count == 1 {
            return Some((from, Bytes::from(payload.to_vec())));
        }
        let key = (from, msg_id);
        let admitted = match self.partial.get(&key) {
            Some(existing) if existing.fragments.len() == slots => true,
            // A message id reused with a different shape restarts the
            // message.
            Some(_) => {
                self.evict(key);
                false
            }
            None => false,
        };
        if !admitted {
            // Make room, oldest first. Terminates: with nothing buffered
            // nothing is reserved, and `slots` alone fits the budget.
            while self.partial.len() >= MAX_PARTIAL_MESSAGES
                || self.reserved + slots > MAX_RESERVED_SLOTS
            {
                let oldest = self
                    .partial
                    .iter()
                    .min_by_key(|(_, p)| p.admitted_at)
                    .map(|(k, _)| *k)
                    .expect("over a bound with nothing buffered");
                self.evict(oldest);
            }
            self.admitted += 1;
            self.reserved += slots;
            self.partial.insert(
                key,
                Partial {
                    fragments: vec![None; slots],
                    received: 0,
                    admitted_at: self.admitted,
                },
            );
        }
        let mut buf = self.pool.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(payload);
        let entry = self.partial.get_mut(&key).expect("admitted above");
        let slot = &mut entry.fragments[frag_index as usize];
        if slot.is_none() {
            *slot = Some(buf);
            entry.received += 1;
        } else {
            // Duplicate delivery: the buffer goes straight back.
            self.pool.push(buf);
        }
        if entry.received < entry.fragments.len() {
            return None;
        }
        let complete = self.partial.remove(&key).expect("checked above");
        self.reserved -= complete.fragments.len();
        let total: usize = complete
            .fragments
            .iter()
            .map(|f| f.as_ref().expect("all fragments received").len())
            .sum();
        let mut segment = Vec::with_capacity(total);
        for fragment in complete.fragments {
            let fragment = fragment.expect("all fragments received");
            segment.extend_from_slice(&fragment);
            self.pool.push(fragment);
        }
        Some((from, Bytes::from(segment)))
    }

    /// Abandon the partial message under `key`: its slots are released and
    /// its fragment buffers go back to the pool.
    fn evict(&mut self, key: (usize, u32)) {
        if let Some(evicted) = self.partial.remove(&key) {
            self.reserved -= evicted.fragments.len();
            self.pool.extend(evicted.fragments.into_iter().flatten());
        }
    }
}

/// Deterministic loss / reorder shim on a socket's send path.
///
/// Seeded from the experiment RNG, it drops a datagram with probability
/// `loss` and, with probability `reorder`, holds a datagram back so it is
/// emitted *after* the next one (a one-slot swap — the classic reordering a
/// real network produces). Bootstrap and stop datagrams bypass the shim.
#[derive(Debug)]
pub struct LossShim {
    rng: ChaCha8Rng,
    loss: f64,
    reorder: f64,
    held: Option<(Vec<u8>, SocketAddr)>,
    /// What the draws left of the train being sent (reused across trains).
    survivors: Vec<u8>,
    /// Datagrams dropped so far (observability for tests and benches).
    pub dropped: u64,
    /// Datagram pairs swapped so far.
    pub reordered: u64,
}

impl LossShim {
    /// A shim with the given probabilities, seeded deterministically.
    pub fn new(seed: u64, loss: f64, reorder: f64) -> Self {
        Self {
            rng: ChaCha8Rng::seed_from_u64(seed),
            loss,
            reorder,
            held: None,
            survivors: Vec::new(),
            dropped: 0,
            reordered: 0,
        }
    }

    fn chance(&mut self, p: f64) -> bool {
        p > 0.0 && (self.rng.next_u64() as f64 / u64::MAX as f64) < p
    }

    /// Send `buf` to `addr` through the shim: a train of one.
    pub fn send_to(&mut self, socket: &UdpSocket, buf: &[u8], addr: SocketAddr) {
        self.send_train(socket, buf, buf.len().max(1), addr);
    }

    /// Send the datagrams of `train` (see [`send_train`]) to `addr` through
    /// the shim. Each datagram gets its own draws, in order — loss first,
    /// then reorder unless one is already held — so a seed's `dropped` and
    /// `reordered` do not depend on how datagrams are grouped into trains.
    /// The survivors leave as one train; a held datagram that one of them
    /// releases follows the train alone.
    pub fn send_train(
        &mut self,
        socket: &UdpSocket,
        train: &[u8],
        stride: usize,
        addr: SocketAddr,
    ) {
        if self.loss <= 0.0 && self.reorder <= 0.0 {
            let _ = send_train(socket, train, stride, addr);
            return;
        }
        self.survivors.clear();
        let mut released = Vec::new();
        for datagram in train.chunks(stride) {
            if self.chance(self.loss) {
                self.dropped += 1;
            } else if self.held.is_none() && self.chance(self.reorder) {
                self.held = Some((datagram.to_vec(), addr));
            } else {
                self.survivors.extend_from_slice(datagram);
                if let Some(held) = self.held.take() {
                    self.reordered += 1;
                    released.push(held);
                }
            }
        }
        if !self.survivors.is_empty() {
            let _ = send_train(socket, &self.survivors, stride, addr);
        }
        for (held_buf, held_addr) in released {
            let _ = socket.send_to(&held_buf, held_addr);
        }
    }

    /// Emit a held-back datagram, if any (end of run, stop broadcast).
    pub fn flush(&mut self, socket: &UdpSocket) {
        if let Some((buf, addr)) = self.held.take() {
            let _ = socket.send_to(&buf, addr);
        }
    }
}

/// The run of the `udp` backend: the reactor's peer state machine at one
/// event loop (one OS thread) per provisioned peer, with its socket-level
/// detail (bound ports, per-loop stats) still attached. Reads the
/// loss/reorder shim probabilities from
/// [`BackendExtras::Udp`](crate::BackendExtras). Link latencies are not
/// emulated — the kernel's loopback path provides the real ones; the
/// topology still drives the peer count, the hybrid wait rule and Table I.
/// The shim draws its randomness from the shared `seed`.
pub(crate) fn run_sockets(config: &RunConfig, task_factory: TaskFactory<'_>) -> SocketRunOutcome {
    run_iterative_reactor(config, task_factory, config.provisioned_peers())
}

/// The [`PeerTransport`] of the socket backends.
pub struct UdpTransport {
    pub(crate) rank: usize,
    pub(crate) start: Instant,
    pub(crate) socket: UdpSocket,
    /// Rank → address table obtained from bootstrap.
    pub(crate) addrs: Vec<SocketAddr>,
    pub(crate) shim: LossShim,
    /// Per-sender message counter for framing.
    pub(crate) next_msg_id: u32,
    /// Timers by wall-clock deadline (ns since `start`); the pending sweep.
    pub(crate) polled: Polled,
    /// Topology (for the asynchronous pacing gate's serialization rate).
    pub(crate) topology: Topology,
    pub(crate) pacing: PacingGate,
    /// Reused buffer for the outgoing fragment train: a segment's fragments
    /// are written into it end to end, header and payload chunk in place,
    /// so the steady-state send path performs no heap allocation.
    pub(crate) send_frame: Vec<u8>,
}

impl UdpTransport {
    /// The transport of `rank` over `socket`, on a clock that started at
    /// `start`; `addrs` is the rank → address book (port 0 marks a rank
    /// that has not announced yet).
    pub fn new(
        rank: usize,
        start: Instant,
        socket: UdpSocket,
        addrs: Vec<SocketAddr>,
        shim: LossShim,
        topology: Topology,
    ) -> Self {
        Self {
            rank,
            start,
            socket,
            addrs,
            shim,
            next_msg_id: 0,
            polled: Polled::default(),
            pacing: PacingGate::new(topology.len()),
            topology,
            send_frame: Vec::new(),
        }
    }

    /// Send one encoded control datagram to rank `to` — past the loss shim:
    /// stop and rollback are the coordinator's reliable path, and gossip *is*
    /// the failure-detection path (a dropped probe must look like a dead
    /// peer, not like shim noise). Dormant ranks (port 0) are skipped.
    fn send_control(&self, to: usize, datagram: &[u8]) {
        if let Some(addr) = self.addrs.get(to).filter(|addr| addr.port() != 0) {
            let _ = self.socket.send_to(datagram, addr);
        }
    }
}

impl PeerTransport for UdpTransport {
    fn now_ns(&mut self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }

    /// Frame a segment and send it to rank `to` as one fragment train: the
    /// same datagrams as [`frame_segment`] + [`Datagram::encode`] (the tests
    /// pin it), laid end to end in the reused send buffer and handed to the
    /// kernel together (see [`send_train`]; a single-fragment segment is a
    /// train of one, a plain `send_to`). The loss shim still decides per
    /// fragment, and send errors are ignored as they always were: a train
    /// the kernel did not take is a lost segment, which the reliable channel
    /// retransmits and the unreliable one tolerates. Any other wire is one
    /// control datagram.
    fn transmit(&mut self, to: usize, wire: Wire) {
        let segment = match wire {
            Wire::Segment(segment) => segment,
            control => {
                if let Some(datagram) = Datagram::from_wire(self.rank, control) {
                    self.send_control(to, &datagram.encode());
                }
                return;
            }
        };
        // A pre-provisioned join rank that has not announced yet shows as
        // port 0: nothing to send to (the reliable channel retransmits once
        // the bootstrap republishes the table with its real port).
        if self.addrs[to].port() == 0 {
            return;
        }
        let msg_id = self.next_msg_id;
        self.next_msg_id = self.next_msg_id.wrapping_add(1);
        let frag_count = if segment.is_empty() {
            1
        } else {
            segment.len().div_ceil(MAX_FRAGMENT_PAYLOAD)
        } as u16;
        self.send_frame.clear();
        for frag_index in 0..frag_count {
            let at = frag_index as usize * MAX_FRAGMENT_PAYLOAD;
            let chunk = &segment[at..(at + MAX_FRAGMENT_PAYLOAD).min(segment.len())];
            append_fragment(
                &mut self.send_frame,
                self.rank,
                msg_id,
                frag_index,
                frag_count,
                chunk,
            );
        }
        self.shim
            .send_train(&self.socket, &self.send_frame, TRAIN_STRIDE, self.addrs[to]);
    }

    fn arm_timer(&mut self, key: TimerKey, delay_ns: u64) {
        let deadline = self.now_ns() + delay_ns;
        self.polled.timers.arm(key, deadline);
    }

    fn cancel_timer(&mut self, key: TimerKey) {
        self.polled.timers.cancel(key);
    }

    fn schedule_compute(&mut self, _work_points: u64) {
        // No compute model: the completion is the next drive-loop turn,
        // after that turn's deliveries (an asynchronous peer's sweep runs
        // in it, for real).
        self.polled.compute_pending = true;
    }

    fn broadcast(&mut self, wire: &Wire) {
        // In-flight reordered data must not outlive a stop or a rollback.
        self.shim.flush(&self.socket);
        let Some(datagram) = Datagram::from_wire(self.rank, wire.clone()) else {
            return;
        };
        let datagram = datagram.encode();
        for rank in (0..self.addrs.len()).filter(|&rank| rank != self.rank) {
            self.send_control(rank, &datagram);
        }
    }

    fn pacing_gate(&mut self, to: usize, wire_bytes: usize) -> bool {
        let now = self.now_ns();
        self.pacing
            .admit(&self.topology, self.rank, to, wire_bytes, now)
    }
}

/// The localhost address of `port` (port 0 binds an ephemeral one; in a
/// rank→address table it marks a join rank that has not announced yet).
pub(crate) fn localhost_addr(port: u16) -> SocketAddr {
    SocketAddr::V4(SocketAddrV4::new(Ipv4Addr::LOCALHOST, port))
}

/// The address book a received [`Datagram::Table`] publishes, if it covers
/// exactly the `expected` provisioned ranks (a table of any other length is
/// not from this run's bootstrap).
pub(crate) fn table_addrs(ports: &[u16], expected: usize) -> Option<Vec<SocketAddr>> {
    (ports.len() == expected).then(|| ports.iter().copied().map(localhost_addr).collect())
}

/// Bootstrap service: collects one `HELLO(rank)` from every *initial* peer
/// on the run's rendezvous `socket`, then publishes the full `total`-slot
/// table (pre-provisioned join ranks appear as port 0 until they announce).
/// A hello that changes the table — the one that completes it, a joiner's,
/// a revived peer's new port — is answered by broadcasting the table to
/// every announced peer, so every running peer learns the address mid-run;
/// a repeated hello whose port the table already holds (a discovering
/// peer's retry) only by the table to its sender. Broadcasting on every
/// hello sent n tables per retry — quadratic in the peers at start-up,
/// where loops that take longer than the retry interval to bind resend
/// all their hellos. Serves on the calling thread until `done()` holds;
/// whoever makes it hold sends [`wake_bootstrap`], so the blocked receive
/// returns at once — the read timeout is only the safety net behind that
/// one droppable datagram.
pub(crate) fn bootstrap_service(
    socket: &UdpSocket,
    initial: usize,
    total: usize,
    done: impl Fn() -> bool,
) {
    socket
        .set_read_timeout(Some(Duration::from_millis(20)))
        .expect("set bootstrap read timeout");
    let mut ports: Vec<Option<u16>> = vec![None; total];
    let mut buf = [0u8; 64];
    while !done() {
        let Ok((len, from_addr)) = socket.recv_from(&mut buf) else {
            continue;
        };
        let Some(Datagram::Hello { rank }) = Datagram::decode(&buf[..len]) else {
            continue;
        };
        if rank >= total {
            continue;
        }
        let changed = ports[rank].replace(from_addr.port()) != Some(from_addr.port());
        if !ports.iter().take(initial).all(|p| p.is_some()) {
            continue;
        }
        let table = Datagram::Table {
            ports: ports.iter().map(|p| p.unwrap_or(0)).collect(),
        }
        .encode();
        if changed {
            for port in ports.iter().flatten() {
                let _ = socket.send_to(&table, localhost_addr(*port));
            }
        } else {
            let _ = socket.send_to(&table, from_addr);
        }
    }
}

/// Wake the [`bootstrap_service`] at `addr` out of its blocking receive with
/// one empty datagram, so it re-checks its `done()` condition now.
pub(crate) fn wake_bootstrap(addr: SocketAddr) {
    if let Ok(waker) = UdpSocket::bind(localhost_addr(0)) {
        let _ = waker.send_to(&[], addr);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::engine::testing::RampTask;
    use crate::runtime::DriverOutcome;
    use p2psap::Scheme;

    const RAMP: u64 = 10;

    fn run_sockets(config: &RunConfig) -> SocketRunOutcome {
        let peers = config.topology.len();
        super::run_sockets(config, &|rank| Box::new(RampTask::line(rank, peers, RAMP)))
    }

    fn run(config: &RunConfig) -> DriverOutcome {
        run_sockets(config).outcome
    }

    /// The bootstrap answers a hello that changes the table by
    /// broadcasting it (n datagrams) and a repeated one by a unicast to its
    /// sender (1 datagram). Three initial ranks and one join slot: the
    /// initial hellos, one retry, rank 2 rebinding after a crash, then the
    /// joiner — whose table names rank 2's new port.
    #[test]
    fn bootstrap_broadcasts_only_a_changed_table() {
        use std::sync::atomic::{AtomicBool, Ordering};

        let (initial, total) = (3, 4);
        let service = UdpSocket::bind(localhost_addr(0)).expect("bind service");
        let service_addr = service.local_addr().expect("service addr");
        let bind = || {
            let socket = UdpSocket::bind(localhost_addr(0)).expect("bind peer");
            socket
                .set_read_timeout(Some(Duration::from_secs(5)))
                .expect("set peer timeout");
            socket
        };
        let port = |socket: &UdpSocket| socket.local_addr().expect("peer addr").port();
        let stop = AtomicBool::new(false);
        // Stops the service when the test body ends, failed assertions
        // included, so a failure is reported instead of hanging the scope.
        struct StopOnDrop<'a>(&'a AtomicBool, SocketAddr);
        impl Drop for StopOnDrop<'_> {
            fn drop(&mut self) {
                self.0.store(true, Ordering::Release);
                wake_bootstrap(self.1);
            }
        }
        // The tables a socket has been sent, up to and including the first
        // that equals `until` (datagrams from one sender arrive in order).
        let tables_until = |socket: &UdpSocket, until: &[u16]| -> usize {
            let mut buf = [0u8; 64];
            let mut count = 0;
            loop {
                let (len, _) = socket.recv_from(&mut buf).expect("a table");
                let Some(Datagram::Table { ports }) = Datagram::decode(&buf[..len]) else {
                    panic!("the bootstrap only sends tables");
                };
                count += 1;
                if ports == until {
                    return count;
                }
            }
        };
        let nothing_pending = |socket: &UdpSocket| {
            socket.set_nonblocking(true).expect("nonblocking");
            let empty = socket.recv_from(&mut [0u8; 64]).is_err();
            socket.set_nonblocking(false).expect("blocking");
            empty
        };
        std::thread::scope(|scope| {
            let _stop = StopOnDrop(&stop, service_addr);
            scope.spawn(|| {
                bootstrap_service(&service, initial, total, || stop.load(Ordering::Acquire))
            });
            let hello = |socket: &UdpSocket, rank| {
                let datagram = Datagram::Hello { rank }.encode();
                socket.send_to(&datagram, service_addr).expect("hello");
            };
            let peers: Vec<UdpSocket> = (0..initial).map(|_| bind()).collect();
            for (rank, peer) in peers.iter().enumerate() {
                hello(peer, rank);
            }
            // The third hello completes the table: one to every peer.
            let first: Vec<u16> = peers.iter().map(port).chain([0]).collect();
            for peer in &peers {
                assert_eq!(tables_until(peer, &first), 1);
            }
            // A retry: one table, to the retrying peer only.
            hello(&peers[1], 1);
            // Rank 2 rebinds: a changed table, to every peer.
            let moved = bind();
            hello(&moved, 2);
            let second = vec![first[0], first[1], port(&moved), 0];
            assert_eq!(tables_until(&peers[0], &second), 1);
            assert_eq!(tables_until(&peers[1], &second), 2, "the retry's unicast");
            assert_eq!(tables_until(&moved, &second), 1);
            // The joiner: its table names the moved port, and so does the
            // broadcast every peer gets — the dead port gets nothing.
            let joiner = bind();
            hello(&joiner, 3);
            let third = vec![first[0], first[1], port(&moved), port(&joiner)];
            for peer in [&peers[0], &peers[1], &moved, &joiner] {
                assert_eq!(tables_until(peer, &third), 1);
            }
            assert!(nothing_pending(&peers[2]), "a table went to the dead port");
        });
    }

    #[test]
    fn fragment_datagram_round_trip() {
        let datagram = Datagram::Fragment {
            from: 3,
            msg_id: 77,
            frag_index: 2,
            frag_count: 5,
            payload: vec![1, 2, 3, 4],
        };
        assert_eq!(Datagram::decode(&datagram.encode()), Some(datagram));
        let stop = Datagram::Stop { from: 9 };
        assert_eq!(Datagram::decode(&stop.encode()), Some(stop));
        let hello = Datagram::Hello { rank: 4 };
        assert_eq!(Datagram::decode(&hello.encode()), Some(hello));
        let table = Datagram::Table {
            ports: vec![4000, 4001, 4002],
        };
        assert_eq!(Datagram::decode(&table.encode()), Some(table));
        let rollback = Datagram::Rollback {
            from: 2,
            to_iteration: 40,
            generation: 1,
        };
        assert_eq!(Datagram::decode(&rollback.encode()), Some(rollback));
    }

    proptest::proptest! {
        /// Rollback datagrams round-trip bit-exactly and reject every strict
        /// prefix and wrong-magic garbage (matching the `UpdateMsg` and
        /// `Checkpoint` proptests).
        #[test]
        fn rollback_datagram_round_trips_and_rejects_truncation(
            from in 0usize..1024,
            to_iteration in proptest::prelude::any::<u64>(),
            generation in proptest::prelude::any::<u32>(),
        ) {
            let datagram = Datagram::Rollback { from, to_iteration, generation };
            let bytes = datagram.encode();
            proptest::prop_assert_eq!(Datagram::decode(&bytes), Some(datagram));
            for cut in 0..bytes.len() {
                proptest::prop_assert_eq!(Datagram::decode(&bytes[..cut]), None);
            }
            let mut garbage = bytes.clone();
            garbage[0] ^= 0xFF; // break the magic
            proptest::prop_assert_eq!(Datagram::decode(&garbage), None);
        }

        /// Gossip datagrams round-trip bit-exactly and reject every strict
        /// prefix and wrong-magic garbage (same guarantees as the rollback
        /// datagram above; the inner `GossipMessage` encoding has its own
        /// proptest in `crate::gossip::rumor`).
        #[test]
        fn gossip_datagram_round_trips_and_rejects_truncation(
            from in 0usize..1024,
            len in 0usize..64,
            fill in proptest::prelude::any::<u8>(),
        ) {
            let datagram = Datagram::Gossip { from, payload: vec![fill; len] };
            let bytes = datagram.encode();
            proptest::prop_assert_eq!(bytes.len(), datagram.encoded_len());
            proptest::prop_assert_eq!(Datagram::decode(&bytes), Some(datagram));
            for cut in 0..bytes.len() {
                proptest::prop_assert_eq!(Datagram::decode(&bytes[..cut]), None);
            }
            let mut garbage = bytes.clone();
            garbage[0] ^= 0xFF; // break the magic
            proptest::prop_assert_eq!(Datagram::decode(&garbage), None);
        }
    }

    /// Every control datagram is the socket framing of a [`Wire`] the
    /// channel backends carry as is; the bootstrap handshake and a fragment
    /// (a piece of a wire) are no wire.
    #[test]
    fn control_datagrams_map_to_the_wires_every_backend_carries() {
        for wire in [
            Wire::Stop,
            Wire::Rollback(12, 3),
            Wire::Gossip(vec![1, 2, 3]),
        ] {
            let datagram = Datagram::from_wire(5, wire.clone()).expect("a control wire");
            let received = Datagram::decode(&datagram.encode()).expect("round trip");
            assert_eq!(received.into_wire(), Some((5, wire)));
        }
        assert_eq!(Datagram::from_wire(5, Wire::Segment(Bytes::new())), None);
        for datagram in [
            Datagram::Hello { rank: 1 },
            Datagram::Table { ports: vec![9; 2] },
            frame_segment(0, 0, b"data").remove(0),
        ] {
            assert_eq!(datagram.into_wire(), None);
        }
    }

    #[test]
    fn foreign_and_truncated_datagrams_rejected() {
        assert_eq!(Datagram::decode(b"not ours"), None);
        assert_eq!(Datagram::decode(&[]), None);
        let encoded = Datagram::Fragment {
            from: 0,
            msg_id: 1,
            frag_index: 0,
            frag_count: 1,
            payload: vec![0; 32],
        }
        .encode();
        assert_eq!(Datagram::decode(&encoded[..encoded.len() - 1]), None);
    }

    #[test]
    fn framing_reassembly_round_trip_multi_fragment() {
        // A segment larger than two fragments, reassembled out of order.
        let segment: Vec<u8> = (0..3 * MAX_FRAGMENT_PAYLOAD + 17)
            .map(|i| (i % 251) as u8)
            .collect();
        let mut datagrams = frame_segment(6, 9, &segment);
        assert_eq!(datagrams.len(), 4);
        datagrams.reverse();
        let mut reassembler = Reassembler::new();
        let mut out = None;
        for datagram in datagrams {
            if let Some(done) = reassembler.push(datagram) {
                assert!(out.is_none(), "exactly one completion");
                out = Some(done);
            }
        }
        let (from, bytes) = out.expect("reassembled");
        assert_eq!(from, 6);
        assert_eq!(bytes.as_ref(), &segment[..]);
        assert_eq!(reassembler.pending(), 0);
    }

    #[test]
    fn reassembly_tolerates_duplicates_and_interleaving() {
        let seg_a: Vec<u8> = vec![0xAA; MAX_FRAGMENT_PAYLOAD + 1];
        let seg_b: Vec<u8> = vec![0xBB; MAX_FRAGMENT_PAYLOAD + 2];
        let frags_a = frame_segment(1, 0, &seg_a);
        let frags_b = frame_segment(2, 0, &seg_b);
        let mut reassembler = Reassembler::new();
        // Interleave senders and duplicate the first fragment of A.
        assert!(reassembler.push(frags_a[0].clone()).is_none());
        assert!(reassembler.push(frags_b[0].clone()).is_none());
        assert!(reassembler.push(frags_a[0].clone()).is_none());
        let (from_b, bytes_b) = reassembler.push(frags_b[1].clone()).expect("b done");
        assert_eq!((from_b, bytes_b.len()), (2, seg_b.len()));
        let (from_a, bytes_a) = reassembler.push(frags_a[1].clone()).expect("a done");
        assert_eq!((from_a, bytes_a.len()), (1, seg_a.len()));
    }

    #[test]
    fn empty_segment_frames_to_one_datagram() {
        let frags = frame_segment(0, 0, &[]);
        assert_eq!(frags.len(), 1);
        let mut reassembler = Reassembler::new();
        let (_, bytes) = reassembler.push(frags[0].clone()).expect("delivered");
        assert!(bytes.is_empty());
    }

    #[test]
    fn loss_shim_is_deterministic_and_drops() {
        let socket = UdpSocket::bind("127.0.0.1:0").unwrap();
        let sink = UdpSocket::bind("127.0.0.1:0").unwrap();
        let addr = sink.local_addr().unwrap();
        let mut a = LossShim::new(7, 0.5, 0.0);
        let mut b = LossShim::new(7, 0.5, 0.0);
        for _ in 0..200 {
            a.send_to(&socket, &[0u8; 8], addr);
            b.send_to(&socket, &[0u8; 8], addr);
        }
        assert_eq!(a.dropped, b.dropped, "same seed, same drops");
        assert!(a.dropped > 50 && a.dropped < 150, "dropped {}", a.dropped);
    }

    #[test]
    fn loss_shim_reorders_but_loses_nothing() {
        let tx = UdpSocket::bind("127.0.0.1:0").unwrap();
        let rx = UdpSocket::bind("127.0.0.1:0").unwrap();
        rx.set_read_timeout(Some(Duration::from_millis(500)))
            .unwrap();
        let addr = rx.local_addr().unwrap();
        let mut shim = LossShim::new(11, 0.0, 0.5);
        let count = 50u8;
        for i in 0..count {
            shim.send_to(&tx, &[i], addr);
        }
        shim.flush(&tx);
        let mut seen = Vec::new();
        let mut buf = [0u8; 8];
        for _ in 0..count {
            let (len, _) = rx.recv_from(&mut buf).expect("all datagrams arrive");
            assert_eq!(len, 1);
            seen.push(buf[0]);
        }
        assert!(shim.reordered > 0, "the shim swapped at least one pair");
        let mut sorted = seen.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..count).collect::<Vec<_>>(), "nothing lost");
        assert_ne!(seen, sorted, "delivery order was perturbed");
    }

    /// The segment sizes the train tests walk: empty, one byte, exactly one
    /// fragment, one byte over, `obstacle-lockstep`'s ghost plane (nine
    /// fragments) and one byte more than the 53 fragments one train holds.
    const TRAIN_SEGMENT_BYTES: [usize; 6] = [
        0,
        1,
        MAX_FRAGMENT_PAYLOAD,
        MAX_FRAGMENT_PAYLOAD + 1,
        10_414,
        53 * MAX_FRAGMENT_PAYLOAD + 1,
    ];

    fn test_segment(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8).collect()
    }

    fn test_socket() -> UdpSocket {
        let socket = UdpSocket::bind(localhost_addr(0)).expect("bind test socket");
        socket
            .set_read_timeout(Some(Duration::from_secs(5)))
            .expect("set test socket timeout");
        socket
    }

    /// Rank 0's transport in a two-rank run whose rank 1 is `peer`.
    fn transport_to(peer: &UdpSocket, shim: LossShim) -> UdpTransport {
        UdpTransport::new(
            0,
            Instant::now(),
            test_socket(),
            vec![localhost_addr(0), peer.local_addr().unwrap()],
            shim,
            RunConfig::quick(Scheme::Synchronous, 2).topology,
        )
    }

    /// Say in the test log which way this kernel moves a two-datagram
    /// train. The train tests hold on either path — they assert that a train
    /// is the datagrams it replaces, never that the fast path ran — so a
    /// silent fallback shows here and nowhere else.
    fn report_train_paths(test: &str) {
        let (tx, rx) = (test_socket(), test_socket());
        let accepted = accept_trains(&rx);
        let sent = send_train(&tx, &[0u8; 4], 2, rx.local_addr().unwrap()).expect("probe train");
        let mut buf = [0u8; 16];
        let read = recv_train(&rx, &mut buf)
            .expect("probe train arrives")
            .len();
        eprintln!(
            "{test}: send path {sent:?}; UDP_GRO accepted: {accepted}; \
             first read of a 2-datagram train held {read} datagram(s)"
        );
    }

    /// What is left to read on `socket`, which must be nothing.
    fn assert_drained(socket: &UdpSocket) {
        socket.set_nonblocking(true).unwrap();
        let mut buf = [0u8; 16];
        assert!(socket.recv_from(&mut buf).is_err(), "a stray datagram");
    }

    /// A receiver that never heard of trains reads, datagram for datagram,
    /// the bytes `frame_segment` + `Datagram::encode` produce.
    #[test]
    fn train_to_a_plain_socket_is_the_framed_datagrams() {
        report_train_paths("train_to_a_plain_socket_is_the_framed_datagrams");
        let sink = test_socket();
        let mut transport = transport_to(&sink, LossShim::new(0, 0.0, 0.0));
        let mut buf = vec![0u8; 65536];
        for (msg_id, bytes) in TRAIN_SEGMENT_BYTES.into_iter().enumerate() {
            let segment = test_segment(bytes);
            transport.transmit(1, Wire::Segment(Bytes::from(segment.clone())));
            for expected in frame_segment(0, msg_id as u32, &segment) {
                let (len, _) = sink.recv_from(&mut buf).expect("every fragment arrives");
                assert_eq!(
                    &buf[..len],
                    &expected.encode()[..],
                    "{bytes}-byte segment, {expected:?}"
                );
            }
        }
        assert_drained(&sink);
    }

    /// The same segments into a socket that accepts trains, through
    /// `recv_train` and the reassembler: the original bytes, in reads of at
    /// most the 53 fragments one train holds.
    #[test]
    fn train_into_a_gro_socket_reassembles_to_the_segment() {
        report_train_paths("train_into_a_gro_socket_reassembles_to_the_segment");
        let rx = test_socket();
        accept_trains(&rx);
        let mut transport = transport_to(&rx, LossShim::new(0, 0.0, 0.0));
        let mut buf = vec![0u8; 65536];
        for bytes in TRAIN_SEGMENT_BYTES {
            let segment = test_segment(bytes);
            transport.transmit(1, Wire::Segment(Bytes::from(segment.clone())));
            let mut reassembler = Reassembler::new();
            let mut reads = Vec::new();
            let (from, reassembled) = loop {
                let train = recv_train(&rx, &mut buf).expect("the segment arrives");
                assert!(train.len() <= 53, "a read of {} datagrams", train.len());
                reads.push(train.len());
                let mut complete = None;
                for datagram in train {
                    let (from, msg_id, frag_index, frag_count, payload) =
                        Datagram::fragment_fields(datagram).expect("a fragment");
                    let done = reassembler.push_ref(from, msg_id, frag_index, frag_count, payload);
                    complete = complete.or(done);
                }
                if let Some(complete) = complete {
                    break complete;
                }
            };
            eprintln!("{bytes}-byte segment: reads of {reads:?} datagram(s)");
            assert_eq!(from, 0);
            assert_eq!(reassembled.as_ref(), &segment[..], "{bytes}-byte segment");
        }
        assert_drained(&rx);
    }

    /// The shim as it was before trains — one datagram, one decision, one
    /// `send_to` — recording what it would have put on the wire.
    struct PerDatagramShim {
        rng: ChaCha8Rng,
        loss: f64,
        reorder: f64,
        held: Option<Vec<u8>>,
        dropped: u64,
        reordered: u64,
        delivered: Vec<Vec<u8>>,
    }

    impl PerDatagramShim {
        fn chance(&mut self, p: f64) -> bool {
            p > 0.0 && (self.rng.next_u64() as f64 / u64::MAX as f64) < p
        }

        fn send(&mut self, datagram: &[u8]) {
            if self.chance(self.loss) {
                self.dropped += 1;
            } else if self.held.is_none() && self.chance(self.reorder) {
                self.held = Some(datagram.to_vec());
            } else {
                self.delivered.push(datagram.to_vec());
                if let Some(held) = self.held.take() {
                    self.reordered += 1;
                    self.delivered.push(held);
                }
            }
        }
    }

    proptest::proptest! {
        /// Grouping datagrams into trains moves neither the shim's draws nor
        /// what it delivers: for any `(seed, loss, reorder)`, sending trains
        /// reports the `dropped` / `reordered` of the per-datagram shim fed
        /// the same datagrams, and the same multiset of datagrams arrives.
        #[test]
        fn train_grouping_moves_neither_the_shim_draws_nor_the_deliveries(
            seed in proptest::prelude::any::<u64>(),
            loss in 0.0f64..0.6,
            reorder in 0.0f64..0.6,
            datagrams in 1usize..24,
        ) {
            let stride = 8;
            // Two trains, the last datagram of each shorter than the rest: a
            // datagram held at the end of the first is released by the second.
            let trains: Vec<Vec<u8>> = (0..2u8)
                .map(|t| (0..datagrams * stride - 3).map(|i| t ^ i as u8).collect())
                .collect();
            let (tx, rx) = (test_socket(), test_socket());
            let addr = rx.local_addr().unwrap();
            let mut shim = LossShim::new(seed, loss, reorder);
            let mut oracle = PerDatagramShim {
                rng: ChaCha8Rng::seed_from_u64(seed),
                loss,
                reorder,
                held: None,
                dropped: 0,
                reordered: 0,
                delivered: Vec::new(),
            };
            for train in &trains {
                shim.send_train(&tx, train, stride, addr);
                train.chunks(stride).for_each(|datagram| oracle.send(datagram));
            }
            proptest::prop_assert_eq!(
                (shim.dropped, shim.reordered),
                (oracle.dropped, oracle.reordered)
            );
            shim.flush(&tx);
            oracle.delivered.extend(oracle.held.take());
            let mut buf = [0u8; 16];
            let mut arrived: Vec<Vec<u8>> = oracle
                .delivered
                .iter()
                .map(|_| {
                    let (len, _) = rx.recv_from(&mut buf).expect("a delivered datagram arrives");
                    buf[..len].to_vec()
                })
                .collect();
            assert_drained(&rx);
            arrived.sort_unstable();
            oracle.delivered.sort_unstable();
            proptest::prop_assert_eq!(arrived, oracle.delivered);
        }
    }

    /// Fifteen-byte fragments that claim huge messages reserve slots only up
    /// to the budget — the oldest claims go — and an honest message as large
    /// as any in the tree (`reactor_cluster`'s 441-fragment plane) still
    /// reassembles next to them.
    #[test]
    fn hostile_fragment_counts_reserve_no_more_than_the_slot_budget() {
        let mut reassembler = Reassembler::new();
        for msg_id in 0..256 {
            assert!(reassembler.push_ref(9, msg_id, 0, u16::MAX, &[]).is_none());
            assert!(reassembler.push_ref(9, msg_id, 0, 4096, &[]).is_none());
            assert!(reassembler.reserved_slots() <= MAX_RESERVED_SLOTS);
        }
        assert_eq!(reassembler.pending(), MAX_RESERVED_SLOTS / 4096);
        let segment = test_segment(440 * MAX_FRAGMENT_PAYLOAD + 77);
        let mut complete = None;
        for datagram in frame_segment(1, 0, &segment) {
            let done = reassembler.push(datagram);
            assert!(reassembler.reserved_slots() <= MAX_RESERVED_SLOTS);
            complete = complete.or(done);
        }
        let (from, reassembled) = complete.expect("the honest message reassembles");
        assert_eq!(from, 1);
        assert_eq!(reassembled.as_ref(), &segment[..]);
    }

    #[test]
    fn synchronous_scheme_over_udp_runs_in_lockstep() {
        let mut config = RunConfig::quick(Scheme::Synchronous, 3);
        config.tolerance = 0.5;
        let SocketRunOutcome {
            outcome, mut ports, ..
        } = run_sockets(&config);
        assert!(outcome.measurement.converged);
        // Lockstep counts: the convergence iteration is the ramp length;
        // before the stop lands a wall-clock peer can overshoot it by at
        // most the topology diameter (it only waits on direct neighbours).
        for &count in &outcome.measurement.relaxations_per_peer {
            assert!(
                (RAMP..RAMP + 3).contains(&count),
                "lockstep violated: {count} vs ramp {RAMP}"
            );
        }
        assert_eq!(
            outcome
                .measurement
                .relaxations_per_peer
                .iter()
                .min()
                .copied(),
            Some(RAMP),
            "the detecting peer stops at exactly the convergence iteration"
        );
        assert_eq!(outcome.results.len(), 3);
        // Bootstrap assigned a distinct real port to every peer.
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 3);
        assert!(ports.iter().all(|&p| p != 0));
    }

    /// A loop's busy time is its own shard's work: every event loop keeps
    /// the contiguous rank shard it was spawned with, so a slow rank 0
    /// (15 ms sweeps) loads loop 0 for the whole run — on the udp backend,
    /// the reactor at one event loop per *provisioned* peer (dormant join
    /// slot included), and on a two-loop reactor where rank 0 shares loop 0
    /// with rank 1.
    #[test]
    fn a_loops_busy_time_is_its_own_shards_work() {
        use crate::churn::ChurnPlan;

        let peers = 3;
        // A scheduled join provisions a fourth slot; RAMP relaxations never
        // reach its trigger, so the slot stays dormant to the end.
        let mut config = RunConfig::quick(Scheme::Synchronous, peers)
            .with_churn(ChurnPlan::new(vec![]).with_join(0, u64::MAX));
        config.tolerance = 0.5;
        let relax_cost = Duration::from_millis(15);
        let factory = |rank| -> Box<dyn crate::app::IterativeTask> {
            let mut task = RampTask::line(rank, peers, RAMP);
            if rank == 0 {
                task.relax_cost = relax_cost;
            }
            Box::new(task)
        };
        for (loops, run) in [
            (peers + 1, super::run_sockets(&config, &factory)),
            (2, run_iterative_reactor(&config, &factory, 2)),
        ] {
            assert!(run.outcome.measurement.converged, "{loops} loops");
            assert_eq!(run.loops.loops(), loops);
            // Rank 0's loop was busy for every one of its slow relaxations.
            let busy = &run.loops.busy_ns_final;
            assert!(
                busy[0] >= RAMP * relax_cost.as_nanos() as u64,
                "{loops} loops: rank 0's loop measured {busy:?}"
            );
            // The other loops only shuffled tiny datagrams.
            let others = busy[1..].iter().copied().max().unwrap_or(0);
            assert!(busy[0] > 2 * others, "{loops} loops: busy time {busy:?}");
            assert_eq!(run.loops.migrations, 0);
        }
    }

    #[test]
    fn asynchronous_scheme_over_udp_converges() {
        let mut config = RunConfig::quick(Scheme::Asynchronous, 3);
        config.tolerance = 0.5;
        let outcome = run(&config);
        assert!(outcome.measurement.converged);
        for &count in &outcome.measurement.relaxations_per_peer {
            assert!(count >= RAMP, "peer finished early: {count} < {RAMP}");
        }
    }

    #[test]
    fn hybrid_scheme_over_udp_converges_across_two_clusters() {
        let mut config = RunConfig::quick_two_clusters(Scheme::Hybrid, 4);
        config.tolerance = 0.5;
        let outcome = run(&config);
        assert!(outcome.measurement.converged);
        assert_eq!(outcome.results.len(), 4);
    }

    #[test]
    fn synchronous_scheme_survives_a_lossy_link() {
        // The reliable synchronous channel retransmits dropped segments, so
        // the run still converges in lockstep over a 10%-loss path.
        let mut config =
            RunConfig::quick(Scheme::Synchronous, 2).with_extras(crate::BackendExtras::Udp {
                loss_probability: 0.1,
                reorder_probability: 0.1,
            });
        config.tolerance = 0.5;
        let outcome = run(&config);
        assert!(outcome.measurement.converged);
        for &count in &outcome.measurement.relaxations_per_peer {
            assert!(
                (RAMP..=RAMP + 1).contains(&count),
                "lockstep violated under loss: {count} vs ramp {RAMP}"
            );
        }
        assert!(
            outcome.datagrams_dropped > 0,
            "the shim must actually have dropped traffic"
        );
    }
}
