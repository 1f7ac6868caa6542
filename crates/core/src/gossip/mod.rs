//! Decentralized control plane: SWIM-style gossip membership plus gossip
//! aggregation of convergence evidence.
//!
//! The layering mirrors malachite's network specs (SNIPPETS Snippet 2 —
//! Peer Discovery and the Gossip protocol), which keep discovery,
//! dissemination and the consensus payload as separable concerns:
//!
//! - [`rumor`] — the wire vocabulary: membership [`Rumor`]s, convergence
//!   [`DigestRow`]s, and the [`GossipMessage`] envelope carried as one
//!   datagram/wire-frame kind on every backend.
//! - [`membership`] — the [`GossipNode`] SWIM state machine: probes on a
//!   schedule every node shares (each member probed once per period), ack
//!   timeouts, indirect probes, suspicion, death verdicts and
//!   incarnation-based refutation, plus the digest pushes that run on their
//!   own, faster cadence and at once when a node's own row starts to meet
//!   the stop criterion.
//! - [`aggregation`] — the [`ConvergenceDigest`]: per-rank evidence rows
//!   merged as a join-semilattice, over which every peer evaluates the
//!   stop criterion locally instead of reporting into the central fold.
//!
//! Drivers opt in per run via
//! [`ControlPlane::Gossip`](crate::runtime::ControlPlane); the default
//! remains the centralized ping-server + detector fold.

pub mod aggregation;
pub mod membership;
pub mod rumor;

pub use aggregation::{ConvergenceDigest, SweepSummary};
pub use membership::{stats, GossipNode, GossipTiming};
pub use rumor::{DigestRow, GossipKind, GossipMessage, MemberStatus, Rumor};
