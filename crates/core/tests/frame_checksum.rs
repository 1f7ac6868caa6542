//! Corruption properties of `p2psap::data::frame_checksum`, checked through
//! the two codecs that carry it as their trailer (data segments with and
//! without an ack block): every kind of damage a
//! link can do to a frame of up to 32 KiB — one flipped bit, one changed
//! byte, two words or two 32-byte blocks trading places, a lost tail, added
//! zeros — must make `WireSegment::decode` and `GossipMessage::decode`
//! refuse the frame. One aligned word changing is refused by construction
//! (see the checksum's doc comment); the rearrangements are refused with
//! probability 1 − 2⁻³², which on the pinned case seeds means always.

use bytes::Bytes;
use p2pdc::gossip::GossipKind;
use p2pdc::runtime::stop::Evidence;
use p2pdc::{DigestRow, GossipMessage, MemberStatus, Rumor};
use p2psap::data::{Ack, AckBlock, WireSegment, MAX_ACKS_PER_SEGMENT, SEGMENT_CHECKSUM_BYTES};
use proptest::TestRng;

const MAX_FRAME_BYTES: u64 = 32 * 1024;
/// Bytes of one checksum block: eight lanes of one `u32` word each.
const BLOCK: usize = 32;

/// A data segment of up to 32 KiB carrying 0 ..= `MAX_ACKS_PER_SEGMENT`
/// acknowledgements, so the corruptions also land in the ack block.
fn segment_frame(rng: &mut TestRng) -> Vec<u8> {
    let payload = (0..rng.below(MAX_FRAME_BYTES))
        .map(|_| rng.next_u64() as u8)
        .collect::<Vec<u8>>();
    let acks: AckBlock = (0..rng.below(MAX_ACKS_PER_SEGMENT as u64 + 1))
        .map(|_| Ack {
            seq: rng.next_u64(),
            sent_at_ns: rng.next_u64(),
        })
        .collect();
    WireSegment {
        acks,
        ..WireSegment::data(rng.next_u64(), true, rng.next_u64(), Bytes::from(payload))
    }
    .encode()
    .to_vec()
}

fn segment_accepts(frame: &[u8]) -> bool {
    WireSegment::decode(Bytes::from(frame.to_vec())).is_some()
}

fn gossip_frame(rng: &mut TestRng) -> Vec<u8> {
    let status = [
        MemberStatus::Alive,
        MemberStatus::Suspect,
        MemberStatus::Dead,
    ];
    // 7 bytes a rumor, 47 a row: at most 1 400 + 30 550 bytes.
    let rumors = (0..rng.below(200))
        .map(|_| Rumor {
            subject: rng.next_u64() as u16,
            incarnation: rng.next_u64() as u32,
            status: status[rng.below(3) as usize],
        })
        .collect();
    let digest = (0..rng.below(650))
        .map(|_| DigestRow {
            rank: rng.next_u64() as u16,
            epoch: rng.next_u64() as u32,
            evidence: Evidence {
                generation: rng.next_u64() as u32,
                latest: rng.next_u64(),
                clean_since: rng.next_u64(),
                stable_streak: rng.next_u64() as u32,
                stable: rng.below(2) == 0,
                has_async: rng.below(2) == 0,
            },
            points: rng.next_u64(),
            busy_ns: rng.next_u64(),
        })
        .collect();
    GossipMessage {
        kind: [
            GossipKind::Probe,
            GossipKind::Ack,
            GossipKind::ProbeReq,
            GossipKind::Push,
        ][rng.below(4) as usize],
        from: rng.next_u64() as u16,
        incarnation: rng.next_u64() as u32,
        subject: rng.next_u64() as u16,
        rumors,
        digest,
    }
    .encode()
}

fn gossip_accepts(frame: &[u8]) -> bool {
    GossipMessage::decode(frame).is_some()
}

/// `frame` with the `width`-byte units at `a` and `b` exchanged, or `None`
/// when they hold the same bytes (the frame would not change).
fn swapped(frame: &[u8], a: usize, b: usize, width: usize) -> Option<Vec<u8>> {
    if frame[a..a + width] == frame[b..b + width] {
        return None;
    }
    let mut out = frame.to_vec();
    out[a..a + width].copy_from_slice(&frame[b..b + width]);
    out[b..b + width].copy_from_slice(&frame[a..a + width]);
    Some(out)
}

/// Damage a clean frame every way the module comment lists, sixteen draws of
/// each, and require that the codec refuses every result.
fn assert_every_corruption_is_refused(frame: &[u8], accepts: fn(&[u8]) -> bool, rng: &mut TestRng) {
    assert!(accepts(frame), "the clean frame decodes");
    let len = frame.len() as u64;
    // The checksummed body, in whole words and whole blocks.
    let body = frame.len() - SEGMENT_CHECKSUM_BYTES;
    let (words, blocks) = ((body / 4) as u64, (body / BLOCK) as u64);
    for _ in 0..16 {
        let mut flipped = frame.to_vec();
        flipped[rng.below(len) as usize] ^= 1 << rng.below(8);
        assert!(!accepts(&flipped), "single-bit flip accepted");

        let mut changed = frame.to_vec();
        changed[rng.below(len) as usize] ^= 1 + rng.below(255) as u8;
        assert!(!accepts(&changed), "single-byte change accepted");

        assert!(
            !accepts(&frame[..rng.below(len) as usize]),
            "truncated frame accepted"
        );

        let mut extended = frame.to_vec();
        extended.resize(frame.len() + 1 + rng.below(64) as usize, 0);
        assert!(!accepts(&extended), "zero-extended frame accepted");

        // Words of one lane sit a whole number of blocks apart.
        let (a, b) = (rng.below(words), rng.below(words));
        let same_lane = a + 8 * rng.below((words - a).div_ceil(8));
        let (a, b, same_lane) = (a as usize, b as usize, same_lane as usize);
        for (a, b, what) in [(a, same_lane, "same-lane"), (a, b, "any-lane")] {
            if let Some(frame) = swapped(frame, 4 * a, 4 * b, 4) {
                assert!(!accepts(&frame), "{what} word swap accepted");
            }
        }
        if blocks >= 2 {
            let (a, b) = (rng.below(blocks) as usize, rng.below(blocks) as usize);
            if let Some(frame) = swapped(frame, BLOCK * a, BLOCK * b, BLOCK) {
                assert!(!accepts(&frame), "block swap accepted");
            }
        }
    }
}

proptest::proptest! {
    #[test]
    fn corrupted_wire_segments_are_refused(seed in proptest::prelude::any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let frame = segment_frame(&mut rng);
        assert_every_corruption_is_refused(&frame, segment_accepts, &mut rng);
    }

    #[test]
    fn corrupted_gossip_frames_are_refused(seed in proptest::prelude::any::<u64>()) {
        let mut rng = TestRng::new(seed);
        let frame = gossip_frame(&mut rng);
        assert_every_corruption_is_refused(&frame, gossip_accepts, &mut rng);
    }
}
