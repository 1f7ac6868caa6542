//! `p2psap` — the Peer-To-Peer Self-Adaptive communication Protocol.
//!
//! P2PSAP (Section II of the paper) is a configurable transport protocol
//! built on the Cactus micro-protocol framework. It exposes a socket-like
//! API and is organised in two channels:
//!
//! * the **control channel** ([`control`]) opens and closes sessions,
//!   monitors the context (scheme of computation, topology, latency, load),
//!   decides the data-channel configuration with the Table I rules, and
//!   coordinates reconfiguration with the remote peer;
//! * the **data channel** ([`data`]) carries application data through a
//!   physical layer and a transport layer composed from micro-protocols:
//!   communication modes (synchronous / asynchronous), buffer management,
//!   reliability, ordering and congestion control (TCP New-Reno, H-TCP,
//!   TCP-Tahoe, SCP).
//!
//! The central property reproduced here is **self-adaptation**: the
//! programmer only chooses a *scheme of computation*; the protocol derives
//! the communication mode per connection from the context and can switch it
//! at run time by substituting micro-protocols, without any change to the
//! application's `P2P_Send` / `P2P_Receive` calls.
//!
//! The composition is a decision taken when a socket opens and at each
//! reconfiguration, not per segment. A [`Session`] therefore resolves the
//! composition its [`ChannelConfig`] names into typed state and straight-line
//! send / receive / timer code ([`session`]); the Cactus composition of the
//! same protocol ([`data::build_transport`] over `crates/cactus`) is kept,
//! public and held to the same behaviour, as the **reference implementation**:
//! `tests/properties.rs` drives both with the same scripts and requires the
//! same wire bytes, timers, deliveries and completions after every step, and
//! `repro table1`, `repro ablation` and the `protocol_adaptation` bench
//! exercise it directly.

#![warn(missing_docs)]

pub mod config;
pub mod control;
pub mod data;
pub mod session;
pub mod socket;

pub use config::{
    ChannelConfig, CommunicationMode, CongestionAlgorithm, PhysicalNetwork, Reliability, Scheme,
};
pub use control::{
    ContextMonitor, ContextSnapshot, ControlMessage, Controller, CoordinationOutcome, Coordinator,
    Rule,
};
pub use session::{
    Session, SessionOutput, ACK_DELAY_NS, ACK_TIMER_TAG, PHYSICAL_LAYER, TRANSPORT_LAYER,
};
pub use socket::{Socket, SocketOption, SocketOutput, SocketState};
