//! End-to-end coverage of the scenario fuzzer (`p2pdc::scenario`).
//!
//! Four layers of defence, mirroring the CI `fuzz-smoke` job from inside
//! the test suite:
//!
//! 1. A pinned-seed smoke batch of generated plans must hold every oracle
//!    (the full 40-case batch runs as `repro fuzz --seed-batch ci`; the
//!    in-test subset covers one full pass of the workload × scheme ×
//!    control-plane grid in debug-build time).
//! 2. One named regression test per minimal repro the fuzzer surfaced
//!    during development, each carrying the shrunk plan verbatim.
//! 3. The cross-runtime agreement the sync-agreement oracle generalizes:
//!    a split-brain-then-heal plan converges with identical synchronous
//!    relaxation counts on both deterministic backends, for all three
//!    workloads.
//! 4. Codec corruption sweeps: every single-bit flip of a framed segment
//!    or gossip message must fail decode — never panic, never be consumed
//!    as data.
//!
//! An `#[ignore]`d known-bad plan keeps the detect-and-shrink pipeline
//! honest: an unbounded split-brain buried in noise events must be caught
//! by the oracles and shrink back down to the one load-bearing event.

use bytes::Bytes;
use p2pdc::gossip::GossipKind;
use p2pdc::runtime::udp::Datagram;
use p2pdc::scenario::{generate_case, shrink};
use p2pdc::{
    check_case, run_on, ChurnPlan, ControlPlane, FuzzCase, GossipMessage, RuntimeKind, Scheme,
    WorkloadKind,
};
use p2psap::data::wire::{Ack, AckBlock, WireSegment, MAX_ACKS_PER_SEGMENT};

/// Master seed of the pinned batch — the same one `repro fuzz
/// --seed-batch ci` uses, so an in-test failure reproduces immediately
/// under the CLI (`repro fuzz --only <index>`).
const CI_MASTER_SEED: u64 = 42;

/// One full cycle of the generator grid: 3 workloads × 3 schemes under the
/// centralized control plane, then the first gossip rows. Indices 7 and 8
/// are the corruption-retransmission repros of the development batch, so
/// the smoke subset re-runs them on every `cargo test`.
const SMOKE_CASES: usize = 12;

#[test]
fn pinned_seed_smoke_batch_holds_every_oracle() {
    for index in 0..SMOKE_CASES {
        let case = generate_case(CI_MASTER_SEED, index);
        let violations = check_case(&case);
        assert!(
            violations.is_empty(),
            "case {index} ({}) violated: {violations:?}",
            case.label()
        );
    }
}

/// Minimal repro of batch case 022 (`heat/Synchronous/central`): one
/// corruption burst on a synchronous run. The checksum layer rightly drops
/// the corrupted segments, the reliable channel retransmits them after its
/// 600 ms RTO — but the loopback driver charged the idle jump to that
/// ns-denominated deadline against the wedge guard's processed-event gap
/// and declared the run wedged before the retransmission could fire.
#[test]
fn corrupted_sync_segments_are_retransmitted_on_loopback() {
    let case = FuzzCase {
        seed: 16026397495608003567,
        workload: WorkloadKind::Heat,
        size: 11,
        peers: 4,
        scheme: Scheme::Synchronous,
        control: ControlPlane::Centralized,
        plan: ChurnPlan::new(vec![])
            .with_checkpoint_interval(4)
            .with_detection_delay_ns(1_000_000)
            .with_repartition(true)
            .with_corruption(2, 1, 3),
    };
    let violations = check_case(&case);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Minimal repro of batch case 007 (`heat/Hybrid/central`, failing through
/// its gossip counterpart): with live gossip chatter keeping the event
/// clock busy, the idle jump never reached the retransmission deadline at
/// all — 600 ms of RTO was 600 million loopback events away. Session
/// protocol timers are now mapped onto the event clock at a fixed exchange
/// rate, putting retransmissions a few thousand events out.
#[test]
fn corrupted_segments_under_gossip_chatter_still_retransmit() {
    let case = FuzzCase {
        seed: 17645127581010058897,
        workload: WorkloadKind::Heat,
        size: 12,
        peers: 3,
        scheme: Scheme::Hybrid,
        control: ControlPlane::Centralized,
        plan: ChurnPlan::new(vec![])
            .with_checkpoint_interval(3)
            .with_detection_delay_ns(1_000_000)
            .with_repartition(true)
            .with_corruption(2, 7, 3),
    };
    let violations = check_case(&case);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Minimal repro of the development batch's partition × gossip failure: a
/// healed split left both sides holding symmetric death verdicts — SWIM
/// rumors cannot refute a death at the same incarnation, the probe
/// rotation skips dead members, so no first-hand contact ever crossed the
/// healed boundary and the digest never decided. The membership layer now
/// re-probes one dead member every few rounds (the "lazarus probe").
#[test]
fn a_healed_partition_converges_under_the_gossip_control_plane() {
    let case = FuzzCase {
        seed: 8987352281580044895,
        workload: WorkloadKind::PageRank,
        size: 24,
        peers: 4,
        scheme: Scheme::Synchronous,
        control: ControlPlane::Gossip { fanout: 2 },
        plan: ChurnPlan::new(vec![])
            .with_checkpoint_interval(5)
            .with_detection_delay_ns(1_000_000)
            .with_partition(0, 4, &[0, 1], 1_500_000, 250),
    };
    let violations = check_case(&case);
    assert!(violations.is_empty(), "{violations:?}");
}

/// Minimal repro of batch case 006 (`obstacle/Hybrid`, crash + partition +
/// flapping link): after the crash victim's recovery was scheduled, a
/// stale gossip probe deadline (already escalated to indirect probes)
/// shadowed the strictly-later recovery and probe-round deadlines in the
/// loopback idle jump, ending a run that still had scheduled work with
/// zero relaxations. The gossip node now reports the post-escalation ack
/// edge and the idle jump only considers strictly-future deadlines.
#[test]
fn crash_under_partition_and_flap_still_converges_under_gossip() {
    let case = FuzzCase {
        seed: 13309400702768586487,
        workload: WorkloadKind::Obstacle,
        size: 8,
        peers: 3,
        scheme: Scheme::Hybrid,
        control: ControlPlane::Gossip { fanout: 2 },
        plan: ChurnPlan::kill(1, 9)
            .with_checkpoint_interval(3)
            .with_detection_delay_ns(1_000_000)
            .with_partition(0, 7, &[0, 2], 2_657_809, 302)
            .with_flapping_link(1, 2, 0, 556_142, 57, 2),
    };
    let violations = check_case(&case);
    assert!(violations.is_empty(), "{violations:?}");
}

/// The sync-agreement invariant, pinned explicitly for every workload: a
/// split-brain that heals within budget leaves the synchronous convergence
/// iteration problem-determined, so the virtual-time and event-count
/// backends must converge at the same minimum relaxation count.
#[test]
fn split_brain_then_heal_agrees_across_deterministic_backends() {
    for workload in WorkloadKind::ALL {
        let size = match workload {
            WorkloadKind::Obstacle => 8,
            WorkloadKind::Heat => 10,
            WorkloadKind::PageRank => 24,
        };
        let case = FuzzCase {
            seed: 9,
            workload,
            size,
            peers: 4,
            scheme: Scheme::Synchronous,
            control: ControlPlane::Centralized,
            plan: ChurnPlan::new(vec![])
                .with_detection_delay_ns(1_000_000)
                .with_partition(0, 3, &[0, 1], 1_200_000, 180),
        };
        let built = case.workload.build(case.size, case.peers);
        let config = case.config();
        let sim = run_on(built.as_ref(), &config, RuntimeKind::Sim).measurement;
        let loopback = run_on(built.as_ref(), &config, RuntimeKind::Loopback).measurement;
        assert!(sim.converged, "{workload} sim did not converge");
        assert!(loopback.converged, "{workload} loopback did not converge");
        assert_eq!(
            sim.relaxations_per_peer.iter().min(),
            loopback.relaxations_per_peer.iter().min(),
            "{workload}: sim {:?} vs loopback {:?}",
            sim.relaxations_per_peer,
            loopback.relaxations_per_peer
        );
    }
}

/// Every single-bit flip of a framed data segment must fail the trailing
/// checksum: every step of `frame_checksum` is invertible, so two
/// same-length frames differing inside one aligned word verify differently.
/// This is the property the corruption fault model leans on when it declares
/// corrupted traffic "effectively lost, never consumed".
/// The sweep runs over a plain data segment, one carrying a full ack block
/// and a bare ack, so no flip in the ack block lets a phantom
/// acknowledgement complete a send either.
#[test]
fn every_single_bit_flip_of_a_wire_segment_fails_decode() {
    let payload = Bytes::from((0u16..96).flat_map(u16::to_be_bytes).collect::<Vec<u8>>());
    let plain = WireSegment::data(7, true, 123_456_789, payload);
    let acks: AckBlock = (0..MAX_ACKS_PER_SEGMENT as u64)
        .map(|i| Ack {
            seq: 40 + i,
            sent_at_ns: 123_000_000 + i,
        })
        .collect();
    let carrying = WireSegment {
        acks,
        ..plain.clone()
    };
    for segment in [plain, carrying, WireSegment::bare_ack(acks)] {
        let frame = segment.encode();
        for at in 0..frame.len() {
            for bit in 0..8 {
                let mut corrupted = frame.to_vec();
                corrupted[at] ^= 1 << bit;
                assert!(
                    WireSegment::decode(Bytes::from(corrupted)).is_none(),
                    "{:?}: flip at byte {at} bit {bit} decoded",
                    segment.kind
                );
            }
        }
    }
}

/// The same exhaustive sweep over an encoded gossip message: a flipped
/// frame must never merge a phantom rumor or digest row.
#[test]
fn every_single_bit_flip_of_a_gossip_frame_fails_decode() {
    let message = GossipMessage {
        kind: GossipKind::Ack,
        from: 3,
        incarnation: 9,
        subject: 1,
        rumors: vec![
            p2pdc::Rumor {
                subject: 2,
                incarnation: 4,
                status: p2pdc::MemberStatus::Suspect,
            },
            p2pdc::Rumor {
                subject: 0,
                incarnation: 1,
                status: p2pdc::MemberStatus::Alive,
            },
        ],
        digest: vec![p2pdc::DigestRow {
            rank: 3,
            generation: 1,
            epoch: 2,
            latest: 40,
            clean_since: 31,
            stable_streak: 9,
            flags: 0b11,
            points: 1_024,
            busy_ns: 77_000,
        }],
    };
    let frame = message.encode();
    for at in 0..frame.len() {
        for bit in 0..8 {
            let mut corrupted = frame.clone();
            corrupted[at] ^= 1 << bit;
            assert!(
                GossipMessage::decode(&corrupted).is_none(),
                "flip at byte {at} bit {bit} decoded"
            );
        }
    }
}

/// Datagram headers carry no checksum of their own (integrity is
/// end-to-end, in the framed segment each fragment carries), so the
/// guarantee at this layer is weaker but still load-bearing: no flip may
/// panic the decoder, and a flip that still parses as a fragment must
/// never yield a segment the inner codec accepts unless the flip left the
/// segment bytes untouched.
#[test]
fn flipped_fragment_datagrams_never_smuggle_corrupted_segments() {
    let segment = WireSegment::data(3, true, 55_555, Bytes::from(vec![0xA5; 64])).encode();
    let datagram = Datagram::Fragment {
        from: 1,
        msg_id: 12,
        frag_index: 0,
        frag_count: 1,
        payload: segment.to_vec(),
    };
    let frame = datagram.encode();
    let original = WireSegment::decode(segment.clone()).expect("clean segment decodes");
    for at in 0..frame.len() {
        for bit in 0..8 {
            let mut corrupted = frame.clone();
            corrupted[at] ^= 1 << bit;
            if let Some(Datagram::Fragment { payload, .. }) = Datagram::decode(&corrupted) {
                if let Some(decoded) = WireSegment::decode(Bytes::from(payload)) {
                    assert_eq!(
                        decoded, original,
                        "flip at byte {at} bit {bit} consumed as data"
                    );
                }
            }
        }
    }
}

/// The detect-and-shrink pipeline, kept honest with a deliberately broken
/// plan: an unbounded split-brain (its heal beyond any budget) buried
/// under two harmless noise events. The oracles must flag it and greedy
/// shrinking must strip the noise down to the one load-bearing event.
/// Ignored by default: shrinking re-runs the oracle suite against a
/// non-converging plan dozens of times (minutes, not seconds).
#[test]
#[ignore = "shrinks a non-converging plan: minutes of deliberate wedge runs"]
fn a_known_bad_plan_is_caught_and_shrinks_to_its_load_bearing_event() {
    let case = FuzzCase {
        seed: 11,
        workload: WorkloadKind::Obstacle,
        size: 8,
        peers: 3,
        scheme: Scheme::Synchronous,
        control: ControlPlane::Centralized,
        plan: ChurnPlan::new(vec![])
            .with_detection_delay_ns(1_000_000)
            .with_partition(0, 2, &[0], 1 << 40, 1 << 40)
            .with_asym_latency(1, 3, 2, 2.0)
            .with_flapping_link(2, 5, 1, 400_000, 40, 2),
    };
    let violations = check_case(&case);
    assert!(
        violations.iter().any(|v| v.oracle == "converges"),
        "unbounded split-brain must be caught: {violations:?}"
    );
    let minimal = shrink(&case);
    assert!(
        minimal.plan.events.len() <= 3,
        "shrink left {} events",
        minimal.plan.events.len()
    );
    assert!(
        minimal
            .plan
            .events
            .iter()
            .any(|e| matches!(e.kind, p2pdc::ChurnEventKind::Partition { .. })),
        "the load-bearing partition must survive shrinking: {:?}",
        minimal.plan.events
    );
    assert!(
        !check_case(&minimal).is_empty(),
        "the shrunk plan must still fail"
    );
}
