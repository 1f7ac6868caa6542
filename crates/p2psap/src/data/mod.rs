//! The data channel of P2PSAP: wire format, transport micro-protocols,
//! congestion control, physical layer adapters and the transport builder.
//!
//! [`wire`] and [`congestion`] are used by [`crate::Session`] on every
//! segment. [`micros`], [`physical`] and the builders of [`transport`] are the
//! Cactus composition of the same protocol: the reference the session is
//! tested against, off the data path.

pub mod congestion;
pub mod micros;
pub mod physical;
pub mod transport;
pub mod wire;

pub use congestion::{make_congestion, CongestionControl, HTcp, NewReno, Scp, Tahoe};
pub use micros::{
    AsynchronousMode, BufferManagement, CongestionMicro, OrderingMicro, ReliabilityMicro,
    SegmentTx, SynchronousMode, ACK_OWED, ATTR_ENFORCE, ATTR_NOW, DATA_IN, SET_ORDERING,
};
pub use physical::{adapter_name, build_physical, PhysicalAdapter};
pub use transport::{
    apply_reconfiguration, build_transport, plan_reconfiguration, priorities, ReconfigAction,
};
pub use wire::{
    frame_checksum, Ack, AckBlock, SegmentKind, WireSegment, ACK_BYTES, MAX_ACKS_PER_SEGMENT,
    SEGMENT_CHECKSUM_BYTES, SEGMENT_HEADER_BYTES,
};
