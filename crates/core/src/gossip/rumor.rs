//! Wire encoding of the gossip control plane: membership rumors and
//! convergence-evidence digest rows, carried piggy-backed on every probe and
//! ack (see [`crate::gossip::membership`]).
//!
//! The encoding follows the datagram layer's conventions
//! ([`crate::runtime::udp::Datagram`]): big-endian fixed-width fields, `u16`
//! ranks, strict validation on decode — truncated or foreign bytes decode to
//! `None` instead of a partially-filled message. The socket backends wrap an
//! encoded [`GossipMessage`] in a dedicated datagram kind; the deterministic
//! backends carry the same bytes through their in-process wires so the wire
//! discipline is exercised on every substrate.

use crate::load_balance::PeerLoad;

/// SWIM membership verdict a rumor disseminates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MemberStatus {
    /// The rank answers probes (or refuted a suspicion with a newer
    /// incarnation).
    Alive,
    /// The rank missed a direct probe; indirect probes are in flight.
    Suspect,
    /// The rank missed direct and indirect probes for the full suspicion
    /// window: declared failed.
    Dead,
}

impl MemberStatus {
    fn to_byte(self) -> u8 {
        match self {
            MemberStatus::Alive => 0,
            MemberStatus::Suspect => 1,
            MemberStatus::Dead => 2,
        }
    }

    fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(MemberStatus::Alive),
            1 => Some(MemberStatus::Suspect),
            2 => Some(MemberStatus::Dead),
            _ => None,
        }
    }
}

/// One membership rumor: `subject` is in `status`, as of `incarnation`.
/// Standard SWIM refutation order: a higher incarnation always wins; at equal
/// incarnations `Dead > Suspect > Alive` (a verdict can only be overturned by
/// the subject itself bumping its incarnation).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rumor {
    /// The rank the rumor is about.
    pub subject: u16,
    /// The subject's incarnation the verdict applies to.
    pub incarnation: u32,
    /// The verdict.
    pub status: MemberStatus,
}

impl Rumor {
    /// Whether this rumor supersedes `other` (same subject assumed).
    pub fn supersedes(&self, other: &Rumor) -> bool {
        (self.incarnation, self.status.to_byte()) > (other.incarnation, other.status.to_byte())
    }
}

/// One rank's convergence evidence, authored only by that rank and merged
/// last-writer-wins everywhere else (see [`DigestRow::supersedes`]). The row
/// states: "every sweep in `[clean_since, latest]` had local difference at or
/// below the tolerance" (`clean_since == u64::MAX` when the latest sweep was
/// dirty), plus the stability streak the asynchronous criterion folds and the
/// cumulative load the gossiped placement weights come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DigestRow {
    /// Authoring rank.
    pub rank: u16,
    /// Rollback generation the evidence belongs to.
    pub generation: u32,
    /// Author-side epoch, bumped on recovery so post-restart evidence
    /// supersedes the dead incarnation's rows even though the restored
    /// iteration counter went backwards.
    pub epoch: u32,
    /// Latest iteration the author reported (0 = no sweep yet).
    pub latest: u64,
    /// First iteration of the author's current at-or-below-tolerance streak
    /// (`u64::MAX`: the latest sweep was dirty).
    pub clean_since: u64,
    /// Consecutive stable sweeps (the asynchronous criterion's streak).
    pub stable_streak: u32,
    /// Bit flags: bit 0 = the latest sweep was stable, bit 1 = the author
    /// has asynchronous neighbours (the hybrid criterion needs its
    /// stability).
    pub flags: u8,
    /// Cumulative grid points relaxed (gossiped load estimate).
    pub points: u64,
    /// Cumulative busy nanoseconds (gossiped load estimate).
    pub busy_ns: u64,
}

/// [`DigestRow::flags`] bit 0: the latest sweep was stable.
pub const ROW_STABLE: u8 = 1;
/// [`DigestRow::flags`] bit 1: the author has asynchronous neighbours.
pub const ROW_HAS_ASYNC: u8 = 2;

impl DigestRow {
    /// An empty row for `rank` (no evidence yet).
    pub fn empty(rank: usize) -> Self {
        Self {
            rank: rank as u16,
            generation: 0,
            epoch: 0,
            latest: 0,
            clean_since: u64::MAX,
            stable_streak: 0,
            flags: 0,
            points: 0,
            busy_ns: 0,
        }
    }

    /// Last-writer-wins merge order for rows of the same rank: newer
    /// generation beats older, then newer author epoch, then later iteration.
    pub fn supersedes(&self, other: &DigestRow) -> bool {
        (self.generation, self.epoch, self.latest) > (other.generation, other.epoch, other.latest)
    }

    /// The load estimate this row gossips.
    pub fn load(&self) -> PeerLoad {
        PeerLoad {
            points: self.points,
            busy_seconds: self.busy_ns as f64 / 1e9,
        }
    }
}

/// The three SWIM exchanges of the probe cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GossipKind {
    /// Direct liveness probe (expects an [`GossipKind::Ack`]).
    Probe,
    /// Liveness confirmation of `subject` (the prober itself, or a rank
    /// probed indirectly on a requester's behalf).
    Ack,
    /// Indirect probe request: "probe `subject` for me" — the step before a
    /// suspicion hardens into a death verdict.
    ProbeReq,
}

impl GossipKind {
    fn to_byte(self) -> u8 {
        match self {
            GossipKind::Probe => 0,
            GossipKind::Ack => 1,
            GossipKind::ProbeReq => 2,
        }
    }

    fn from_byte(byte: u8) -> Option<Self> {
        match byte {
            0 => Some(GossipKind::Probe),
            1 => Some(GossipKind::Ack),
            2 => Some(GossipKind::ProbeReq),
            _ => None,
        }
    }
}

/// One gossip exchange: a probe/ack/probe-req with piggy-backed rumors and
/// digest rows. Every message doubles as an anti-entropy round — receiving
/// *any* message refreshes the sender's liveness and merges its evidence.
#[derive(Debug, Clone, PartialEq)]
pub struct GossipMessage {
    /// The exchange step.
    pub kind: GossipKind,
    /// Sending rank.
    pub from: u16,
    /// Sender's incarnation (receivers refresh their member table with it).
    pub incarnation: u32,
    /// [`GossipKind::Ack`]: the rank confirmed alive; [`GossipKind::ProbeReq`]:
    /// the rank to probe on the sender's behalf; [`GossipKind::Probe`]: unused
    /// (equals `from`).
    pub subject: u16,
    /// Piggy-backed membership rumors.
    pub rumors: Vec<Rumor>,
    /// Piggy-backed convergence-evidence rows.
    pub digest: Vec<DigestRow>,
}

/// Fixed header: kind(1) from(2) incarnation(4) subject(2) rumors(2) rows(2).
const HEADER_BYTES: usize = 13;
/// Encoded size of one [`Rumor`]: subject(2) incarnation(4) status(1).
const RUMOR_BYTES: usize = 7;
/// Encoded size of one [`DigestRow`]:
/// rank(2) generation(4) epoch(4) latest(8) clean_since(8) streak(4)
/// flags(1) points(8) busy_ns(8).
const ROW_BYTES: usize = 47;
/// Trailing integrity checksum (`p2psap::data::frame_checksum`, the one the
/// data segments carry) over header + rumors + rows. Gossip
/// frames cross lossy links; a flipped byte must fail decode rather than
/// merge a phantom rumor or digest row into the member table.
const CHECKSUM_BYTES: usize = 4;

impl GossipMessage {
    /// Exact encoded size in bytes.
    pub fn encoded_len(&self) -> usize {
        HEADER_BYTES
            + RUMOR_BYTES * self.rumors.len()
            + ROW_BYTES * self.digest.len()
            + CHECKSUM_BYTES
    }

    /// Encode to the on-wire byte representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.encoded_len());
        out.push(self.kind.to_byte());
        out.extend_from_slice(&self.from.to_be_bytes());
        out.extend_from_slice(&self.incarnation.to_be_bytes());
        out.extend_from_slice(&self.subject.to_be_bytes());
        out.extend_from_slice(&(self.rumors.len() as u16).to_be_bytes());
        out.extend_from_slice(&(self.digest.len() as u16).to_be_bytes());
        for rumor in &self.rumors {
            out.extend_from_slice(&rumor.subject.to_be_bytes());
            out.extend_from_slice(&rumor.incarnation.to_be_bytes());
            out.push(rumor.status.to_byte());
        }
        for row in &self.digest {
            out.extend_from_slice(&row.rank.to_be_bytes());
            out.extend_from_slice(&row.generation.to_be_bytes());
            out.extend_from_slice(&row.epoch.to_be_bytes());
            out.extend_from_slice(&row.latest.to_be_bytes());
            out.extend_from_slice(&row.clean_since.to_be_bytes());
            out.extend_from_slice(&row.stable_streak.to_be_bytes());
            out.push(row.flags);
            out.extend_from_slice(&row.points.to_be_bytes());
            out.extend_from_slice(&row.busy_ns.to_be_bytes());
        }
        let checksum = p2psap::data::frame_checksum(&out);
        out.extend_from_slice(&checksum.to_be_bytes());
        out
    }

    /// Decode from received bytes; `None` for truncated, oversized, corrupted
    /// or foreign traffic (checksum mismatch, unknown kind/status bytes,
    /// trailing garbage).
    pub fn decode(bytes: &[u8]) -> Option<Self> {
        if bytes.len() < HEADER_BYTES + CHECKSUM_BYTES {
            return None;
        }
        let body_len = bytes.len() - CHECKSUM_BYTES;
        let checksum = u32::from_be_bytes([
            bytes[body_len],
            bytes[body_len + 1],
            bytes[body_len + 2],
            bytes[body_len + 3],
        ]);
        if checksum != p2psap::data::frame_checksum(&bytes[..body_len]) {
            return None;
        }
        let kind = GossipKind::from_byte(bytes[0])?;
        let from = u16::from_be_bytes([bytes[1], bytes[2]]);
        let incarnation = u32::from_be_bytes([bytes[3], bytes[4], bytes[5], bytes[6]]);
        let subject = u16::from_be_bytes([bytes[7], bytes[8]]);
        let rumor_count = u16::from_be_bytes([bytes[9], bytes[10]]) as usize;
        let row_count = u16::from_be_bytes([bytes[11], bytes[12]]) as usize;
        let expected = HEADER_BYTES + RUMOR_BYTES * rumor_count + ROW_BYTES * row_count;
        if body_len != expected {
            return None;
        }
        let mut at = HEADER_BYTES;
        let mut rumors = Vec::with_capacity(rumor_count);
        for _ in 0..rumor_count {
            rumors.push(Rumor {
                subject: u16::from_be_bytes([bytes[at], bytes[at + 1]]),
                incarnation: u32::from_be_bytes([
                    bytes[at + 2],
                    bytes[at + 3],
                    bytes[at + 4],
                    bytes[at + 5],
                ]),
                status: MemberStatus::from_byte(bytes[at + 6])?,
            });
            at += RUMOR_BYTES;
        }
        let u64_at = |i: usize| {
            u64::from_be_bytes([
                bytes[i],
                bytes[i + 1],
                bytes[i + 2],
                bytes[i + 3],
                bytes[i + 4],
                bytes[i + 5],
                bytes[i + 6],
                bytes[i + 7],
            ])
        };
        let u32_at =
            |i: usize| u32::from_be_bytes([bytes[i], bytes[i + 1], bytes[i + 2], bytes[i + 3]]);
        let mut digest = Vec::with_capacity(row_count);
        for _ in 0..row_count {
            digest.push(DigestRow {
                rank: u16::from_be_bytes([bytes[at], bytes[at + 1]]),
                generation: u32_at(at + 2),
                epoch: u32_at(at + 6),
                latest: u64_at(at + 10),
                clean_since: u64_at(at + 18),
                stable_streak: u32_at(at + 26),
                flags: bytes[at + 30],
                points: u64_at(at + 31),
                busy_ns: u64_at(at + 39),
            });
            at += ROW_BYTES;
        }
        Some(GossipMessage {
            kind,
            from,
            incarnation,
            subject,
            rumors,
            digest,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> GossipMessage {
        GossipMessage {
            kind: GossipKind::Ack,
            from: 3,
            incarnation: 7,
            subject: 5,
            rumors: vec![
                Rumor {
                    subject: 1,
                    incarnation: 2,
                    status: MemberStatus::Suspect,
                },
                Rumor {
                    subject: 9,
                    incarnation: 0,
                    status: MemberStatus::Dead,
                },
            ],
            digest: vec![DigestRow {
                rank: 4,
                generation: 1,
                epoch: 2,
                latest: 1234,
                clean_since: 1200,
                stable_streak: 3,
                flags: ROW_STABLE | ROW_HAS_ASYNC,
                points: 99,
                busy_ns: 1_000_000,
            }],
        }
    }

    #[test]
    fn round_trips_and_sizes() {
        let msg = sample();
        let bytes = msg.encode();
        assert_eq!(bytes.len(), msg.encoded_len());
        assert_eq!(GossipMessage::decode(&bytes), Some(msg));
    }

    #[test]
    fn refutation_order() {
        let suspect = Rumor {
            subject: 1,
            incarnation: 2,
            status: MemberStatus::Suspect,
        };
        let alive_same = Rumor {
            status: MemberStatus::Alive,
            ..suspect
        };
        let alive_newer = Rumor {
            incarnation: 3,
            status: MemberStatus::Alive,
            ..suspect
        };
        assert!(suspect.supersedes(&alive_same));
        assert!(alive_newer.supersedes(&suspect));
    }

    #[test]
    fn row_merge_order() {
        let base = DigestRow::empty(2);
        let later = DigestRow { latest: 5, ..base };
        let recovered = DigestRow {
            epoch: 1,
            latest: 2,
            ..base
        };
        let new_generation = DigestRow {
            generation: 1,
            latest: 1,
            ..base
        };
        assert!(later.supersedes(&base));
        // A recovered rank's restored counter went backwards, but its bumped
        // epoch still supersedes the dead incarnation's rows.
        assert!(recovered.supersedes(&later));
        assert!(new_generation.supersedes(&recovered));
    }

    proptest::proptest! {
        /// Same guarantees the `KIND_ROLLBACK` datagram proptests pin: every
        /// encoded message round-trips, every strict prefix is rejected, and
        /// flipped-header garbage is rejected.
        #[test]
        fn gossip_message_round_trips_and_rejects_truncation(
            kind in 0u8..3,
            from in 0u16..u16::MAX,
            incarnation in proptest::prelude::any::<u32>(),
            subject in 0u16..u16::MAX,
            rumor_seed in proptest::prelude::any::<u32>(),
            latest in proptest::prelude::any::<u64>(),
            clean_since in proptest::prelude::any::<u64>(),
        ) {
            let msg = GossipMessage {
                kind: GossipKind::from_byte(kind).unwrap(),
                from,
                incarnation,
                subject,
                rumors: vec![Rumor {
                    subject: rumor_seed as u16,
                    incarnation: rumor_seed,
                    status: MemberStatus::from_byte((rumor_seed % 3) as u8).unwrap(),
                }],
                digest: vec![DigestRow {
                    rank: from,
                    generation: incarnation,
                    epoch: rumor_seed,
                    latest,
                    clean_since,
                    stable_streak: rumor_seed,
                    flags: (rumor_seed % 4) as u8,
                    points: latest,
                    busy_ns: clean_since,
                }],
            };
            let bytes = msg.encode();
            proptest::prop_assert_eq!(GossipMessage::decode(&bytes), Some(msg));
            for cut in 0..bytes.len() {
                proptest::prop_assert_eq!(GossipMessage::decode(&bytes[..cut]), None);
            }
            let mut garbage = bytes.clone();
            garbage[0] = 0xFF;
            proptest::prop_assert_eq!(GossipMessage::decode(&garbage), None);
            // A single flipped bit anywhere in the frame fails the checksum.
            for at in 0..bytes.len() {
                let mut corrupted = bytes.clone();
                corrupted[at] ^= 1 << (at % 8);
                proptest::prop_assert_eq!(GossipMessage::decode(&corrupted), None);
            }
        }
    }
}
