//! Wire format of the data channel — read and written by [`crate::Session`]
//! on every segment — and the message attribute keys under which the
//! reference micro-protocols carry the same header fields
//! ([`WireSegment::into_message`] / [`WireSegment::from_message`]).

use bytes::Bytes;
use cactus::{AttrValue, Message};

/// Attribute: sequence number of a data segment.
pub const ATTR_SEQ: &str = "seq";
/// Attribute: segment kind (see [`SegmentKind`]).
pub const ATTR_KIND: &str = "kind";
/// Attribute: the receiver must acknowledge this segment.
pub const ATTR_ACK_REQUESTED: &str = "ack_requested";
/// Attribute: send timestamp in nanoseconds (for RTT estimation).
pub const ATTR_SENT_AT: &str = "sent_at_ns";
/// Attribute set by the cactus stack on timer events.
pub const ATTR_TIMER_TAG: &str = "timer_tag";
/// Attribute: the acknowledgements a segment carries, as the bytes of its
/// ack block without the count ([`ACK_BYTES`] per acknowledgement, in wire
/// order). Absent when it carries none.
pub const ATTR_ACKS: &str = "acks";

/// Kind of a data-channel segment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegmentKind {
    /// Application data.
    Data,
    /// Acknowledgement of a data segment.
    Ack,
}

impl SegmentKind {
    fn to_u8(self) -> u8 {
        match self {
            SegmentKind::Data => 0,
            SegmentKind::Ack => 1,
        }
    }
    fn from_u8(v: u8) -> Option<Self> {
        match v {
            0 => Some(SegmentKind::Data),
            1 => Some(SegmentKind::Ack),
            _ => None,
        }
    }
}

/// Most acknowledgements one segment carries. A session that owes this many
/// sends them at once in a bare [`SegmentKind::Ack`], so a data segment
/// carries at most one fewer. Sized so the ack block (1 + 8 · 16 bytes) still
/// fits the slack of a ghost plane's last fragment: `obstacle-lockstep`'s
/// 10 388-byte segment stays nine 1 200-byte fragments with a full block.
pub const MAX_ACKS_PER_SEGMENT: usize = 8;

/// Bytes of one acknowledgement in the ack block: the acknowledged
/// segment's sequence number and its echoed send time.
pub const ACK_BYTES: usize = 16;

/// Flags-byte bit: the receiver must acknowledge this segment.
const FLAG_ACK_REQUESTED: u8 = 1;
/// Flags-byte bit: an ack block follows the fixed header.
const FLAG_CARRIES_ACKS: u8 = 2;

/// The acknowledgement of one data segment: its sequence number and the send
/// time it carried, echoed so the sender can sample the round trip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ack {
    /// Sequence number of the acknowledged data segment.
    pub seq: u64,
    /// The acknowledged segment's `sent_at_ns`.
    pub sent_at_ns: u64,
}

/// Up to [`MAX_ACKS_PER_SEGMENT`] acknowledgements, stored inline: carrying
/// acks on a segment, or owing them, allocates nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct AckBlock {
    len: u8,
    acks: [Ack; MAX_ACKS_PER_SEGMENT],
}

impl AckBlock {
    /// Append `ack`; `false` (and nothing appended) when the block is full.
    pub fn push(&mut self, ack: Ack) -> bool {
        if self.is_full() {
            return false;
        }
        self.acks[self.len as usize] = ack;
        self.len += 1;
        true
    }

    /// The acknowledgements, in the order they were pushed.
    pub fn as_slice(&self) -> &[Ack] {
        &self.acks[..self.len as usize]
    }

    /// Number of acknowledgements.
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the block holds none.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Whether the block holds [`MAX_ACKS_PER_SEGMENT`].
    pub fn is_full(&self) -> bool {
        self.len() == MAX_ACKS_PER_SEGMENT
    }
}

impl PartialEq for AckBlock {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl FromIterator<Ack> for AckBlock {
    /// Collect at most [`MAX_ACKS_PER_SEGMENT`] acknowledgements; the rest
    /// are ignored.
    fn from_iter<I: IntoIterator<Item = Ack>>(iter: I) -> Self {
        let mut block = Self::default();
        for ack in iter {
            if !block.push(ack) {
                break;
            }
        }
        block
    }
}

/// A decoded data-channel segment.
#[derive(Debug, Clone, PartialEq)]
pub struct WireSegment {
    /// Segment kind.
    pub kind: SegmentKind,
    /// Sequence number (0 in a bare ack).
    pub seq: u64,
    /// Whether the receiver must acknowledge.
    pub ack_requested: bool,
    /// Send timestamp in nanoseconds (0 when unknown, and in a bare ack).
    pub sent_at_ns: u64,
    /// Acknowledgements of the remote's data segments carried along: on a
    /// data segment they ride on the payload, a bare ack consists of them.
    pub acks: AckBlock,
    /// Application payload (empty for acks).
    pub payload: Bytes,
}

/// Size in bytes of the fixed segment header.
pub const SEGMENT_HEADER_BYTES: usize = 1 + 1 + 8 + 8 + 4;

/// Size in bytes of the trailing integrity checksum ([`frame_checksum`] over
/// header and payload). Link-level corruption — a flipped byte anywhere in
/// the frame — must be rejected by this codec rather than consumed as garbage
/// boundary data, so every segment carries its own end-to-end check.
pub const SEGMENT_CHECKSUM_BYTES: usize = 4;

/// Independent accumulators of [`frame_checksum`]: one per little-endian
/// `u32` word of a 32-byte block.
const CHECKSUM_LANES: usize = 8;
/// Odd multiplier of every checksum step (the 32-bit golden-ratio prime).
const CHECKSUM_PRIME: u32 = 0x9E37_79B1;
/// Start value of the final fold; the lanes start from [`LANE_SEEDS`].
const CHECKSUM_SEED: u32 = 0x811C_9DC5;

/// `step` of [`frame_checksum`]. The rotation is there for bit 31: an odd
/// multiplier turns a flip of bit 31 into a flip of bit 31 and nothing else,
/// so it has to be moved down to where the next multiplication spreads it.
const fn checksum_step(state: u32, word: u32) -> u32 {
    (state.rotate_left(5) ^ word).wrapping_mul(CHECKSUM_PRIME)
}

/// Distinct start values, so equal words in different lanes leave different
/// lane states.
const LANE_SEEDS: [u32; CHECKSUM_LANES] = {
    let mut seeds = [0u32; CHECKSUM_LANES];
    let mut lane = 0;
    while lane < CHECKSUM_LANES {
        seeds[lane] = checksum_step(CHECKSUM_SEED, lane as u32);
        lane += 1;
    }
    seeds
};

fn le_word(word: &[u8]) -> u32 {
    u32::from_le_bytes(word.try_into().expect("a 4-byte chunk"))
}

/// The 32-bit integrity checksum of every P2PSAP segment and gossip frame.
///
/// Definition, with `step(s, w) = (rotl(s, 5) ^ w) · 0x9E3779B1 mod 2³²`: the
/// frame is read as little-endian `u32` words and word `i` updates lane
/// `i mod 8` (`lane = step(lane, word)`; lane `k` starts at
/// `step(0x811C9DC5, k)`), the whole words of the last partial block
/// included. The result is `step` chained from `0x811C9DC5` over the frame
/// length (mod 2³²), the 0–3 left-over bytes zero-padded to a word, and the
/// eight lane states in order. A 32-byte block is thus eight *independent*
/// multiplications, which the processor pipelines; a byte-serial hash chains
/// one dependent multiplication per byte.
///
/// Guarantee, by construction: two frames of equal length that differ only
/// inside one aligned 4-byte word — so any single-bit or single-byte
/// corruption — have different checksums. A rotation, an XOR with a constant
/// and a multiplication by an odd constant are each invertible modulo 2³², so
/// `step` is a bijection of `s` for a fixed `w` and of `w` for a fixed `s`.
/// The changed word enters exactly one step, which makes the lane state
/// differ; every later step of that lane and of the fold keeps a difference
/// in its `s` argument, and the fold step that absorbs the lane keeps a
/// difference in its `w` argument. Damage of any other shape (several words,
/// a swap, a different length) is caught as any 32-bit check catches it: not
/// always, but at a miss rate near 2⁻³² unless it was crafted.
pub fn frame_checksum(bytes: &[u8]) -> u32 {
    let mut lanes = LANE_SEEDS;
    let mut blocks = bytes.chunks_exact(4 * CHECKSUM_LANES);
    for block in &mut blocks {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(4)) {
            *lane = checksum_step(*lane, le_word(word));
        }
    }
    let mut words = blocks.remainder().chunks_exact(4);
    for (lane, word) in lanes.iter_mut().zip(&mut words) {
        *lane = checksum_step(*lane, le_word(word));
    }
    let mut last = [0u8; 4];
    last[..words.remainder().len()].copy_from_slice(words.remainder());
    let mut folded = checksum_step(CHECKSUM_SEED, bytes.len() as u32);
    folded = checksum_step(folded, u32::from_le_bytes(last));
    for lane in lanes {
        folded = checksum_step(folded, lane);
    }
    folded
}

/// Bytes of the ack block of a segment carrying `acks`: none without acks,
/// else the count byte and [`ACK_BYTES`] per acknowledgement.
fn ack_block_bytes(acks: usize) -> usize {
    if acks == 0 {
        0
    } else {
        1 + ACK_BYTES * acks
    }
}

/// Lay out one frame — header fields, ack block, payload, checksum — in
/// `buf` (cleared first). What [`WireSegment::encode_into`] writes, for
/// callers that hold the fields and a borrowed payload rather than a segment.
pub(crate) fn encode_frame(
    buf: &mut Vec<u8>,
    kind: SegmentKind,
    seq: u64,
    ack_requested: bool,
    sent_at_ns: u64,
    acks: &[Ack],
    payload: &[u8],
) {
    debug_assert!(acks.len() <= MAX_ACKS_PER_SEGMENT);
    buf.clear();
    buf.reserve(
        SEGMENT_HEADER_BYTES + ack_block_bytes(acks.len()) + payload.len() + SEGMENT_CHECKSUM_BYTES,
    );
    let mut flags = 0;
    if ack_requested {
        flags |= FLAG_ACK_REQUESTED;
    }
    if !acks.is_empty() {
        flags |= FLAG_CARRIES_ACKS;
    }
    buf.push(kind.to_u8());
    buf.push(flags);
    buf.extend_from_slice(&seq.to_be_bytes());
    buf.extend_from_slice(&sent_at_ns.to_be_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    if !acks.is_empty() {
        buf.push(acks.len() as u8);
        for ack in acks {
            buf.extend_from_slice(&ack.seq.to_be_bytes());
            buf.extend_from_slice(&ack.sent_at_ns.to_be_bytes());
        }
    }
    buf.extend_from_slice(payload);
    let checksum = frame_checksum(buf);
    buf.extend_from_slice(&checksum.to_be_bytes());
}

impl WireSegment {
    /// Build a data segment carrying no acknowledgements.
    pub fn data(seq: u64, ack_requested: bool, sent_at_ns: u64, payload: Bytes) -> Self {
        Self {
            kind: SegmentKind::Data,
            seq,
            ack_requested,
            sent_at_ns,
            acks: AckBlock::default(),
            payload,
        }
    }

    /// Build a bare acknowledgement segment carrying `acks`.
    pub fn bare_ack(acks: AckBlock) -> Self {
        Self {
            kind: SegmentKind::Ack,
            seq: 0,
            ack_requested: false,
            sent_at_ns: 0,
            acks,
            payload: Bytes::new(),
        }
    }

    /// Encode to the on-wire byte representation.
    pub fn encode(&self) -> Bytes {
        let mut buf = Vec::new();
        self.encode_into(&mut buf);
        Bytes::from(buf)
    }

    /// Encode into a reusable buffer (cleared first). Send paths that pool
    /// their wire buffers use this to skip the per-segment allocation once
    /// the pooled buffer has grown to segment size.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        encode_frame(
            buf,
            self.kind,
            self.seq,
            self.ack_requested,
            self.sent_at_ns,
            self.acks.as_slice(),
            &self.payload,
        );
    }

    /// Decode from the on-wire byte representation. Rejects frames whose
    /// trailing checksum does not match (corrupted in flight), that are
    /// truncated, that set an unknown flag, whose ack block is empty, larger
    /// than [`MAX_ACKS_PER_SEGMENT`] or longer than the frame, or whose
    /// declared payload length differs from the bytes left after the header
    /// and ack block.
    pub fn decode(bytes: Bytes) -> Option<Self> {
        use bytes::Buf;
        if bytes.len() < SEGMENT_HEADER_BYTES + SEGMENT_CHECKSUM_BYTES {
            return None;
        }
        let body_len = bytes.len() - SEGMENT_CHECKSUM_BYTES;
        let mut checksum_bytes = [0u8; SEGMENT_CHECKSUM_BYTES];
        checksum_bytes.copy_from_slice(&bytes[body_len..]);
        if u32::from_be_bytes(checksum_bytes) != frame_checksum(&bytes[..body_len]) {
            return None;
        }
        let mut bytes = bytes.slice(..body_len);
        let kind = SegmentKind::from_u8(bytes.get_u8())?;
        let flags = bytes.get_u8();
        if flags & !(FLAG_ACK_REQUESTED | FLAG_CARRIES_ACKS) != 0 {
            return None;
        }
        let seq = bytes.get_u64();
        let sent_at_ns = bytes.get_u64();
        let len = bytes.get_u32() as usize;
        let mut acks = AckBlock::default();
        if flags & FLAG_CARRIES_ACKS != 0 {
            if bytes.is_empty() {
                return None;
            }
            let count = bytes.get_u8() as usize;
            if count == 0 || count > MAX_ACKS_PER_SEGMENT || bytes.len() < count * ACK_BYTES {
                return None;
            }
            for _ in 0..count {
                acks.push(Ack {
                    seq: bytes.get_u64(),
                    sent_at_ns: bytes.get_u64(),
                });
            }
        }
        if bytes.len() != len {
            return None;
        }
        Some(Self {
            kind,
            seq,
            ack_requested: flags & FLAG_ACK_REQUESTED != 0,
            sent_at_ns,
            acks,
            payload: bytes,
        })
    }

    /// Convert into a cactus [`Message`] carrying the same information as
    /// attributes (used when a received segment enters the protocol stack).
    pub fn into_message(self) -> Message {
        let mut m = Message::new(self.payload);
        m.set_u64(ATTR_SEQ, self.seq);
        m.set_u64(ATTR_KIND, self.kind.to_u8() as u64);
        m.set_flag(ATTR_ACK_REQUESTED, self.ack_requested);
        m.set_u64(ATTR_SENT_AT, self.sent_at_ns);
        if !self.acks.is_empty() {
            m.set_attr(
                ATTR_ACKS,
                AttrValue::Bytes(acks_to_bytes(self.acks.as_slice())),
            );
        }
        m
    }

    /// Build a segment from a cactus [`Message`] leaving the protocol stack.
    pub fn from_message(msg: &Message) -> Self {
        let kind = match msg.u64(ATTR_KIND) {
            Some(1) => SegmentKind::Ack,
            _ => SegmentKind::Data,
        };
        Self {
            kind,
            seq: msg.u64(ATTR_SEQ).unwrap_or(0),
            ack_requested: msg.flag(ATTR_ACK_REQUESTED),
            sent_at_ns: msg.u64(ATTR_SENT_AT).unwrap_or(0),
            acks: acks_of(msg).collect(),
            payload: msg.payload().clone(),
        }
    }
}

/// The [`ATTR_ACKS`] value of a message carrying `acks`.
pub(crate) fn acks_to_bytes(acks: &[Ack]) -> Bytes {
    let mut bytes = Vec::with_capacity(ACK_BYTES * acks.len());
    for ack in acks {
        bytes.extend_from_slice(&ack.seq.to_be_bytes());
        bytes.extend_from_slice(&ack.sent_at_ns.to_be_bytes());
    }
    Bytes::from(bytes)
}

/// The acknowledgements a message carries in [`ATTR_ACKS`] (none if absent).
pub(crate) fn acks_of(msg: &Message) -> impl Iterator<Item = Ack> + '_ {
    let bytes: &[u8] = match msg.attr(ATTR_ACKS) {
        Some(AttrValue::Bytes(bytes)) => bytes,
        _ => &[],
    };
    bytes.chunks_exact(ACK_BYTES).map(|ack| Ack {
        seq: u64::from_be_bytes(ack[..8].try_into().expect("8 bytes")),
        sent_at_ns: u64::from_be_bytes(ack[8..].try_into().expect("8 bytes")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encode_decode_round_trip() {
        let seg = WireSegment::data(42, true, 123_456, Bytes::from_static(b"hello world"));
        let decoded = WireSegment::decode(seg.encode()).expect("decodes");
        assert_eq!(decoded, seg);
    }

    fn acks(count: u64) -> AckBlock {
        (0..count)
            .map(|i| Ack {
                seq: 7 + i,
                sent_at_ns: 99 * i,
            })
            .collect()
    }

    #[test]
    fn ack_round_trip() {
        let seg = WireSegment::bare_ack(acks(3));
        let bytes = seg.encode();
        assert_eq!(
            bytes.len(),
            SEGMENT_HEADER_BYTES + 1 + 3 * ACK_BYTES + SEGMENT_CHECKSUM_BYTES
        );
        let decoded = WireSegment::decode(bytes).expect("decodes");
        assert_eq!(decoded.kind, SegmentKind::Ack);
        assert_eq!(decoded.acks.as_slice(), acks(3).as_slice());
        assert!(decoded.payload.is_empty());
    }

    #[test]
    fn data_carrying_acks_round_trips_and_keeps_its_payload() {
        let seg = WireSegment {
            acks: acks(MAX_ACKS_PER_SEGMENT as u64),
            ..WireSegment::data(42, true, 5, Bytes::from_static(b"plane"))
        };
        let decoded = WireSegment::decode(seg.encode()).expect("decodes");
        assert_eq!(decoded, seg);
        assert_eq!(decoded.payload.as_ref(), b"plane");
        let back = WireSegment::from_message(&seg.clone().into_message());
        assert_eq!(back, seg);
    }

    #[test]
    fn ack_block_holds_at_most_the_cap() {
        let mut block = acks(MAX_ACKS_PER_SEGMENT as u64 - 1);
        assert!(!block.is_full());
        assert!(block.push(Ack::default()));
        assert!(block.is_full());
        assert!(!block.push(Ack::default()), "a full block refuses");
        assert_eq!(block.len(), MAX_ACKS_PER_SEGMENT);
    }

    /// The slack `MAX_ACKS_PER_SEGMENT` is sized to: a full ack block on the
    /// `obstacle-lockstep` plane's segment adds no fragment.
    #[test]
    fn a_full_ack_block_keeps_the_lockstep_plane_at_nine_fragments() {
        const FRAGMENT: usize = 1_200;
        let plain = WireSegment::data(0, true, 1, Bytes::from(vec![0; 10_388]));
        let full = WireSegment {
            acks: acks(MAX_ACKS_PER_SEGMENT as u64),
            ..plain.clone()
        };
        assert_eq!(plain.encode().len().div_ceil(FRAGMENT), 9);
        assert_eq!(full.encode().len().div_ceil(FRAGMENT), 9);
    }

    #[test]
    fn unknown_flag_rejected() {
        let mut raw = WireSegment::data(1, true, 0, Bytes::from_static(b"p"))
            .encode()
            .to_vec();
        raw[1] |= 0x80;
        let body = raw.len() - SEGMENT_CHECKSUM_BYTES;
        let checksum = frame_checksum(&raw[..body]).to_be_bytes();
        raw[body..].copy_from_slice(&checksum);
        assert!(WireSegment::decode(Bytes::from(raw)).is_none());
    }

    #[test]
    fn truncated_input_rejected() {
        let seg = WireSegment::data(1, false, 0, Bytes::from_static(b"abc"));
        let bytes = seg.encode();
        assert!(WireSegment::decode(bytes.slice(0..5)).is_none());
        assert!(WireSegment::decode(bytes.slice(0..SEGMENT_HEADER_BYTES + 1)).is_none());
    }

    #[test]
    fn message_conversion_preserves_attributes() {
        let seg = WireSegment::data(9, true, 5, Bytes::from_static(b"xy"));
        let msg = seg.clone().into_message();
        assert_eq!(msg.u64(ATTR_SEQ), Some(9));
        assert!(msg.flag(ATTR_ACK_REQUESTED));
        let back = WireSegment::from_message(&msg);
        assert_eq!(back, seg);
    }

    #[test]
    fn flipped_byte_anywhere_rejected() {
        let seg = WireSegment::data(42, true, 123_456, Bytes::from_static(b"hello world"));
        let raw = seg.encode().to_vec();
        for i in 0..raw.len() {
            let mut bad = raw.clone();
            bad[i] ^= 0x40;
            assert!(
                WireSegment::decode(Bytes::from(bad)).is_none(),
                "flip at byte {i} must be rejected"
            );
        }
    }

    /// Byte `i` of the golden-vector input.
    fn pattern(len: usize) -> Vec<u8> {
        (0..len)
            .map(|i| (i as u8).wrapping_mul(31).wrapping_add(7))
            .collect()
    }

    /// The checksum is wire format: both ends of a link must compute the
    /// same value, so any edit that moves these vectors is a protocol
    /// change. Lengths cover the empty frame, a lone tail byte, one byte
    /// either side of a block, and the frames the benchmark workloads send.
    #[test]
    fn checksum_golden_vectors_are_pinned() {
        const GOLDEN: [(usize, u32); 8] = [
            (0, 0x250D_A3B7),
            (1, 0x0A55_376F),
            (31, 0x6BDF_6619),
            (32, 0x979D_AD76),
            (33, 0x0294_9570),
            (52, 0x2AA6_C9E4),
            (1_528, 0x7A11_0448),
            (10_388, 0xFF3C_01C5),
        ];
        for (len, expected) in GOLDEN {
            let got = frame_checksum(&pattern(len));
            assert_eq!(got, expected, "{len} bytes: got {got:#010X}");
        }
    }

    /// Why `checksum_step` rotates: an odd multiplier maps a flip of bit 31
    /// onto a flip of bit 31, so without the rotation two words of one lane
    /// that differ only there could trade places unnoticed.
    #[test]
    fn swapping_same_lane_words_that_differ_in_the_top_bit_is_detected() {
        let mut frame = pattern(256);
        let word = [0x11, 0x22, 0x33, 0x44];
        frame[8..12].copy_from_slice(&word);
        frame[8 + 64..12 + 64].copy_from_slice(&[0x11, 0x22, 0x33, 0xC4]);
        let mut swapped = frame.clone();
        swapped[8..12].copy_from_slice(&frame[8 + 64..12 + 64]);
        swapped[8 + 64..12 + 64].copy_from_slice(&word);
        assert_ne!(frame_checksum(&frame), frame_checksum(&swapped));
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut raw = WireSegment::data(3, false, 1, Bytes::from_static(b"p"))
            .encode()
            .to_vec();
        raw.push(0xAB);
        assert!(WireSegment::decode(Bytes::from(raw)).is_none());
    }

    #[test]
    fn unknown_kind_rejected() {
        let mut raw = WireSegment::data(1, false, 0, Bytes::new())
            .encode()
            .to_vec();
        raw[0] = 9;
        assert!(WireSegment::decode(Bytes::from(raw)).is_none());
    }
}
