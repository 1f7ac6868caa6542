//! Deterministic link-fault model: partitions, flapping edges, asymmetric
//! latency and seeded frame corruption, layered over the fabric's link
//! characteristics.
//!
//! The scenario fuzzer's `ChurnPlan` link events configure an instance of
//! [`LinkFaults`] shared (via [`SharedLinkFaults`]) between
//! the [`crate::NetworkFabric`] — which consults it for every transmit — and
//! the peer actors, which consult it for control-plane traffic that bypasses
//! the fabric (the sim backend's in-process gossip signals). All predicates
//! are pure functions of the queried virtual time, so a healed partition
//! needs no explicit heal event: `blocked` simply starts answering `false`
//! once the clock passes the heal deadline. Everything is seeded and
//! deterministic — the same fault schedule over the same traffic produces
//! the same drops, delays and byte flips on every run.

use std::sync::{Arc, Mutex};

/// One scheduled split-brain: ranks whose bit is set in `group` on one side,
/// everyone else on the other, from `from_ns` until `heal_at_ns`.
#[derive(Debug, Clone, Copy)]
struct PartitionFault {
    group: u64,
    from_ns: u64,
    heal_at_ns: u64,
}

/// One flapping edge (unordered): `cycles` down-then-up periods of
/// `half_period_ns` each, starting down at `from_ns`.
#[derive(Debug, Clone, Copy)]
struct FlapFault {
    a: usize,
    b: usize,
    from_ns: u64,
    half_period_ns: u64,
    cycles: u32,
}

/// One asymmetric-latency fault: traffic `from → to` slowed by `factor`.
#[derive(Debug, Clone, Copy)]
struct AsymFault {
    from: usize,
    to: usize,
    factor: f64,
}

/// A seeded budget of frame corruptions charged to one sender.
#[derive(Debug, Clone, Copy)]
struct CorruptionBudget {
    from: usize,
    remaining: u32,
    rng: u64,
}

/// `splitmix64` step — the dependency-free seeded generator behind the
/// corruption byte flips.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[derive(Debug, Default)]
struct FaultState {
    partitions: Vec<PartitionFault>,
    flaps: Vec<FlapFault>,
    asym: Vec<AsymFault>,
    corruption: Vec<CorruptionBudget>,
    blocked_drops: u64,
    corrupted_frames: u64,
}

/// Shared, mutex-protected link-fault schedule (see the module docs).
#[derive(Debug, Default)]
pub struct LinkFaults {
    inner: Mutex<FaultState>,
}

/// A [`LinkFaults`] instance shared between the fabric and the peer actors.
pub type SharedLinkFaults = Arc<LinkFaults>;

impl LinkFaults {
    /// An empty schedule (no faults armed).
    pub fn new() -> SharedLinkFaults {
        Arc::new(Self::default())
    }

    /// Arm a partition: `group` (rank bitmask) splits from the rest at
    /// `now_ns`, healing `heal_after_ns` later.
    pub fn partition(&self, group: u64, now_ns: u64, heal_after_ns: u64) {
        self.inner.lock().unwrap().partitions.push(PartitionFault {
            group,
            from_ns: now_ns,
            heal_at_ns: now_ns.saturating_add(heal_after_ns),
        });
    }

    /// Arm a flapping edge between `a` and `b` starting (down) at `now_ns`.
    pub fn flap(&self, a: usize, b: usize, now_ns: u64, half_period_ns: u64, cycles: u32) {
        self.inner.lock().unwrap().flaps.push(FlapFault {
            a,
            b,
            from_ns: now_ns,
            half_period_ns: half_period_ns.max(1),
            cycles,
        });
    }

    /// Arm an asymmetric-latency fault: traffic `from → to` slowed by
    /// `factor` from now on.
    pub fn asym_latency(&self, from: usize, to: usize, factor: f64) {
        self.inner
            .lock()
            .unwrap()
            .asym
            .push(AsymFault { from, to, factor });
    }

    /// Arm a corruption budget: the next `flips` frames sent by `from` each
    /// get one seeded byte flip.
    pub fn corrupt_next(&self, from: usize, flips: u32, seed: u64) {
        self.inner
            .lock()
            .unwrap()
            .corruption
            .push(CorruptionBudget {
                from,
                remaining: flips,
                rng: seed,
            });
    }

    /// Whether the directed link `from → to` is cut at `now_ns` (an
    /// un-healed partition separating the two ranks, or a flapping edge in
    /// its down half-period).
    pub fn blocked(&self, from: usize, to: usize, now_ns: u64) -> bool {
        if from == to {
            return false;
        }
        let state = self.inner.lock().unwrap();
        let side = |mask: u64, rank: usize| rank < 64 && mask & (1u64 << rank) != 0;
        for p in &state.partitions {
            if now_ns >= p.from_ns
                && now_ns < p.heal_at_ns
                && side(p.group, from) != side(p.group, to)
            {
                return true;
            }
        }
        for f in &state.flaps {
            if (f.a, f.b) != (from, to) && (f.a, f.b) != (to, from) {
                continue;
            }
            if now_ns < f.from_ns {
                continue;
            }
            let half_periods = (now_ns - f.from_ns) / f.half_period_ns;
            // Periods alternate down/up starting down; after `cycles` full
            // down-then-up cycles the edge stays up.
            if half_periods < 2 * f.cycles as u64 && half_periods.is_multiple_of(2) {
                return true;
            }
        }
        false
    }

    /// Count a drop caused by a blocked link (fabric bookkeeping).
    pub fn record_blocked_drop(&self) {
        self.inner.lock().unwrap().blocked_drops += 1;
    }

    /// Latency multiplier on the directed link `from → to` (product of
    /// armed asymmetric faults; 1.0 = unimpaired).
    pub fn latency_factor(&self, from: usize, to: usize) -> f64 {
        self.inner
            .lock()
            .unwrap()
            .asym
            .iter()
            .filter(|f| f.from == from && f.to == to)
            .map(|f| f.factor)
            .product()
    }

    /// Charge one frame sent by `from` against the corruption budgets: when
    /// a budget is armed, returns the seeded `(byte index, bit)` to flip in
    /// a frame of `len` bytes and decrements the budget.
    pub fn corrupt_frame(&self, from: usize, len: usize) -> Option<(usize, u8)> {
        if len == 0 {
            return None;
        }
        let mut state = self.inner.lock().unwrap();
        let budget = state
            .corruption
            .iter_mut()
            .find(|b| b.from == from && b.remaining > 0)?;
        budget.remaining -= 1;
        let draw = splitmix64(&mut budget.rng);
        state.corrupted_frames += 1;
        Some(((draw % len as u64) as usize, 1 << ((draw >> 32) % 8)))
    }

    /// Frames corrupted so far.
    pub fn corrupted_frames(&self) -> u64 {
        self.inner.lock().unwrap().corrupted_frames
    }

    /// Frames dropped on blocked links so far.
    pub fn blocked_drops(&self) -> u64 {
        self.inner.lock().unwrap().blocked_drops
    }

    /// The earliest future virtual time (strictly after `now_ns`) at which
    /// any armed fault changes the connectivity predicate — the next heal or
    /// flap transition. Drivers idling on a quiet network use this to jump
    /// the clock instead of deadlocking on a cut that only time can heal.
    pub fn next_transition_after(&self, now_ns: u64) -> Option<u64> {
        let state = self.inner.lock().unwrap();
        let mut next: Option<u64> = None;
        let mut consider = |t: u64| {
            if t > now_ns {
                next = Some(next.map_or(t, |n| n.min(t)));
            }
        };
        for p in &state.partitions {
            consider(p.from_ns);
            consider(p.heal_at_ns);
        }
        for f in &state.flaps {
            // The edges sit at `from + k · half` for `k` in `0..=2·cycles`;
            // the first one past `now_ns` is computed, not searched for
            // (`cycles` comes from a plan file read from disk).
            let k = match now_ns.checked_sub(f.from_ns) {
                None => 0,
                Some(since) => (since / f.half_period_ns).saturating_add(1),
            };
            // An edge past the end of the clock never comes.
            let edge = k
                .checked_mul(f.half_period_ns)
                .and_then(|offset| f.from_ns.checked_add(offset));
            if let Some(at) = edge.filter(|_| k <= 2 * f.cycles as u64) {
                consider(at);
            }
        }
        next
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn partition_blocks_across_the_cut_until_the_heal() {
        let faults = LinkFaults::new();
        faults.partition(0b0011, 1_000, 500);
        assert!(!faults.blocked(0, 2, 999), "not armed yet");
        assert!(faults.blocked(0, 2, 1_000));
        assert!(faults.blocked(2, 0, 1_200), "cuts are bidirectional");
        assert!(!faults.blocked(0, 1, 1_200), "same side stays connected");
        assert!(!faults.blocked(2, 3, 1_200), "other side too");
        assert!(!faults.blocked(0, 2, 1_500), "healed");
        assert_eq!(faults.next_transition_after(1_100), Some(1_500));
    }

    #[test]
    fn flap_alternates_down_and_up_then_stays_up() {
        let faults = LinkFaults::new();
        faults.flap(1, 2, 0, 100, 2);
        assert!(faults.blocked(1, 2, 0), "first half-period: down");
        assert!(faults.blocked(2, 1, 50));
        assert!(!faults.blocked(1, 2, 100), "second: up");
        assert!(faults.blocked(1, 2, 250), "third: down again");
        assert!(!faults.blocked(1, 2, 350));
        assert!(!faults.blocked(1, 2, 400), "cycles exhausted: stays up");
        assert!(!faults.blocked(1, 2, 10_000));
        assert!(!faults.blocked(0, 2, 50), "other edges unaffected");
    }

    #[test]
    fn next_flap_edge_is_computed_not_walked() {
        // The walk this replaced, as the oracle on small cases.
        let walk = |from: u64, half: u64, cycles: u32, now: u64| {
            (0..=2 * cycles as u64)
                .map(|k| from + k * half)
                .find(|&t| t > now)
        };
        for (from, half, cycles) in [(0, 100, 2), (50, 7, 3), (10, 1, 0), (10, 1, 5)] {
            let faults = LinkFaults::new();
            faults.flap(1, 2, from, half, cycles);
            for now in 0..from + 2 * cycles as u64 * half + 3 {
                assert_eq!(
                    faults.next_transition_after(now),
                    walk(from, half, cycles, now),
                    "from {from} half {half} cycles {cycles} now {now}"
                );
            }
        }
        // A hostile plan: 2³³ edges one tick apart answer at once, and
        // nothing overflows at the end of the clock.
        let faults = LinkFaults::new();
        faults.flap(1, 2, 5, 1, u32::MAX);
        assert_eq!(faults.next_transition_after(0), Some(5));
        assert_eq!(faults.next_transition_after(1 << 32), Some((1 << 32) + 1));
        let last = 5 + 2 * u32::MAX as u64;
        assert_eq!(faults.next_transition_after(last - 1), Some(last));
        assert_eq!(faults.next_transition_after(last), None);
        assert_eq!(faults.next_transition_after(u64::MAX), None);
        let late = LinkFaults::new();
        late.flap(1, 2, u64::MAX - 1, u64::MAX, 2);
        assert_eq!(late.next_transition_after(u64::MAX - 1), None);
    }

    #[test]
    fn asym_latency_slows_one_direction_only() {
        let faults = LinkFaults::new();
        faults.asym_latency(3, 1, 4.0);
        assert_eq!(faults.latency_factor(3, 1), 4.0);
        assert_eq!(faults.latency_factor(1, 3), 1.0);
        assert_eq!(faults.latency_factor(3, 2), 1.0);
    }

    #[test]
    fn corruption_budget_is_seeded_and_finite() {
        let faults = LinkFaults::new();
        faults.corrupt_next(0, 2, 42);
        let first = faults.corrupt_frame(0, 100).expect("budget armed");
        assert!(first.0 < 100);
        assert!(
            faults.corrupt_frame(1, 100).is_none(),
            "other senders clean"
        );
        assert!(faults.corrupt_frame(0, 100).is_some());
        assert!(faults.corrupt_frame(0, 100).is_none(), "budget exhausted");
        assert_eq!(faults.corrupted_frames(), 2);
        // Same seed, same draws.
        let again = LinkFaults::new();
        again.corrupt_next(0, 2, 42);
        assert_eq!(again.corrupt_frame(0, 100), Some(first));
    }
}
