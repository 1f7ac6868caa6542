//! SWIM-style gossip membership.
//!
//! Every peer runs one [`GossipNode`] on two cadences. The *probe* cadence
//! is the failure detector: once per probe period the node probes one
//! member, and a member that misses a direct probe is probed indirectly
//! through `fanout` helpers; only when the suspicion survives the full
//! window is it declared *dead* — the death rumor is
//! disseminated and the driver feeds it into the run's volatility
//! coordinator ([`crate::churn::VolatilityState::grant`]), which is exactly
//! where the centralized `TopologyManager::evictions_since` sweep used to
//! hand over (the recovery path downstream of the verdict is unchanged).
//! The ack and suspicion windows follow the probe round trip the node
//! measures, in its own clock units (RFC 6298's estimator; [`GossipTiming`]
//! is their initial value and ceiling).
//!
//! **Who probes whom.** The direct probe target is not drawn at random:
//! every node follows one schedule, computed alike everywhere from the run
//! seed (SWIM's round-robin target selection, Das, Gupta and Motivala, DSN
//! 2002 §4.3, made collective). In probe window `k` node `r` probes the
//! first eligible member at `(r + off(k) + s) mod n`, `s = 0, 1, …`, where
//! the offset `off(k)` in `1..n` is a hash of the seed and `k`. So while
//! every member is alive each one is probed directly by exactly one node
//! per window, and a crashed member is probed within two probe periods of
//! its crash; with independent random targets a member went unprobed in
//! 37 % of the rounds of a 32-node run and the wait for the first probe of
//! a crashed member was geometric. Node `r` runs window `k` at
//! `k·P + r·P/n` (the rounds are staggered over the period), the window
//! index comes from that grid rather than from a round counter so a late or
//! revived node stays on the schedule. The first round runs at the first
//! poll (an extra one when that comes before the node's first window
//! start), so every node has a round-trip sample before an early crash.
//! Past that, the schedule sends one direct probe per node per period, as
//! random selection did: the probe rate, which the false-verdict rate
//! scales with, is unchanged.
//!
//! The *push* cadence is dissemination: [`PUSHES_PER_PROBE`] times per
//! probe period the node pushes its membership rumors and convergence
//! digest rows ([`crate::gossip::aggregation`]) to one seeded random
//! member, which merges them and answers nothing; and the poll in which
//! the node's own row starts to meet the stop criterion
//! ([`Evidence::meets_stop_criterion`](crate::runtime::stop::Evidence::meets_stop_criterion))
//! pushes it to `fanout` members at once instead of waiting for the next
//! push instant. Probes, acks and probe-reqs carry the same piggy-back, so
//! every message is an anti-entropy round.
//!
//! The node is sans-io like the engine: `poll`/`on_message` return the
//! messages to send and the driver owns delivery, so the same state machine
//! runs over real sockets (reactor) and the deterministic substrates
//! (sim/loopback), where the seeded fanout makes same-seed runs replay
//! exactly.

use crate::gossip::aggregation::{ConvergenceDigest, SweepSummary};
use crate::gossip::rumor::{DigestRow, GossipKind, GossipMessage, MemberStatus, Rumor};
use crate::load_balance::PeerLoad;
use p2psap::Scheme;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;

/// Rumor retransmissions per subject scale with `log2` of the membership so
/// dissemination stays whp-complete as runs grow.
const RETRANSMIT_FACTOR: u32 = 3;

/// Rumors piggy-backed per message (the freshest-budget ones go first).
const MAX_RUMORS_PER_MESSAGE: usize = 16;

/// Every this-many probe rounds the node also probes one member it holds a
/// *death verdict* for. A network partition hardens symmetric false verdicts
/// (each side declares the other dead), and since dead members are excluded
/// from the regular probe rotation, no traffic would ever cross the healed
/// boundary again: neither side can learn the other is back, the digest's
/// evidence gate stays shut and the stop decision never fires. Direct
/// contact is the one path that beats a Dead rumor at the same incarnation
/// (`heard_from`/`confirm_alive` are first-hand evidence), so the
/// occasional "lazarus" probe is what lets a falsely-dead member rejoin —
/// the same escape hatch memberlist ships as gossip-to-the-dead. Probes to
/// genuinely dead members go unanswered and cost one datagram per period.
const DEAD_REPROBE_PERIOD: u64 = 4;

/// Digest pushes per probe period. The stop decision waits for every
/// rank's post-convergence digest row to reach the decider, and on probes
/// and acks alone a row crosses one hop per probe period — the gossip stop
/// trailed the central fold by ≈ 32 relaxations on `gossip-churn`. A push
/// is dissemination only: it arms no ack deadline and draws no reply, so
/// the failure detector (probe period, windows, suspicion ladder) is
/// exactly what it was. Probing faster would spread rows as fast, but
/// every extra probe is one more chance for a stalled peer to miss an ack
/// and raise a false suspicion (memberlist, likewise, gossips on an
/// interval 5× shorter than its probe interval).
pub const PUSHES_PER_PROBE: u64 = 5;

/// Digest rows piggy-backed per message. Every probe, ack and push carries
/// rows, so this bounds the steady-state gossip bandwidth: at 64+ peers a full
/// digest on every datagram saturates localhost socket buffers under the
/// data-plane load and the resulting kernel drops read as missed acks (mass
/// false suspicion). A seeded 32-row subset per message keeps datagrams
/// ~1.5 KiB and anti-entropy completes across successive exchanges.
const MAX_ROWS_PER_MESSAGE: usize = 32;

/// Mixed into the run seed for the probe schedule's offsets, so they do not
/// correlate with any other stream derived from the seed.
const SCHEDULE_SALT: u64 = 0x5c4e_d01e_0ff5_e7a1;

/// SplitMix64's finalizer: a well-mixed 64-bit hash of `x`, the same on
/// every node.
fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The gossip cadence and failure-detection windows, in the driving
/// substrate's clock units (wall nanoseconds, virtual nanoseconds, or
/// loopback event counts).
///
/// The two windows are the *initial value and ceiling* of what the node
/// uses: once it has measured a probe round trip, its ack window is the
/// RFC 6298 timeout `srtt + 4·rttvar` of those measurements (at least one
/// clock unit, at most `ack_timeout`), and its suspicion window keeps the
/// `suspect_timeout : ack_timeout` ratio to it.
#[derive(Debug, Clone, Copy)]
pub struct GossipTiming {
    /// Interval between probe rounds.
    pub probe_period: u64,
    /// Direct-probe ack deadline before a member is suspected: the initial
    /// value and ceiling of the derived ack window.
    pub ack_timeout: u64,
    /// Suspicion window (indirect probes in flight) before a death verdict:
    /// the initial value and ceiling of the derived suspicion window.
    pub suspect_timeout: u64,
}

impl GossipTiming {
    /// Wall-clock defaults for the socket backend. The windows are
    /// what a node uses until its first probe is acknowledged, and the cap
    /// of what it derives afterwards. On `gossip-churn` (32 reactor peers
    /// on 2 event loops, 2 cores) 25–34 k direct probe → ack round trips
    /// measured p50 0.46–0.51 ms, p99 1.4–1.8 ms, p99.9 7.9–9.0 ms and
    /// 21 ms at most: a 25 ms ack window is about 50 median round trips and
    /// above the slowest one seen, so before its first sample a node waits
    /// out any round trip measured there. After it, the derived windows
    /// take over (a crashed peer is declared dead in ≈ 15 ms instead of
    /// ≈ 110 ms).
    pub fn wall_clock() -> Self {
        Self {
            probe_period: 10_000_000,
            ack_timeout: 25_000_000,
            suspect_timeout: 50_000_000,
        }
    }

    /// Virtual-time defaults for the simulated backend (the wall-clock
    /// values). Sim gossip bypasses the fabric, so every round trip it
    /// measures is 0 and after the first ack the windows sit at their
    /// one-unit floor: a silent member is declared dead a few gossip ticks
    /// after its first unanswered probe.
    pub fn virtual_time() -> Self {
        Self::wall_clock()
    }

    /// Event-count defaults for the loopback backend, scaled to the round
    /// length so one probe round spans a couple of drive sweeps over all
    /// `peers` ranks. Loopback probe round trips (measured p50 19 events
    /// at 4 peers, 91 at 16) keep `srtt + 4·rttvar` above these windows
    /// nearly always, so the derived windows mostly stay at them.
    pub fn event_count(peers: usize) -> Self {
        let round = (2 * peers.max(2)) as u64;
        Self {
            probe_period: round,
            ack_timeout: 2 * round,
            suspect_timeout: 4 * round,
        }
    }

    /// Interval between digest pushes: a [`PUSHES_PER_PROBE`]th of the
    /// probe period, at least one clock unit.
    pub fn push_period(&self) -> u64 {
        (self.probe_period / PUSHES_PER_PROBE).max(1)
    }

    /// The windows a node uses once it has measured `rtt`: the ack window
    /// is the estimate's timeout clamped to `1 ..= ack_timeout` (the
    /// one-unit floor is RFC 6298's clock-granularity term `G`, so a
    /// zero-RTT path cannot escalate a probe at the instant it was sent),
    /// and the suspicion window scales with it. `None` (no sample yet)
    /// gives the configured windows.
    fn windows(&self, rtt: Option<RttEstimate>) -> (u64, u64) {
        let Some(rtt) = rtt else {
            return (self.ack_timeout, self.suspect_timeout);
        };
        let ack = rtt.timeout().min(self.ack_timeout).max(1);
        // ack ≤ ack_timeout, so the quotient is ≤ suspect_timeout and fits.
        let suspect = u128::from(ack) * u128::from(self.suspect_timeout)
            / u128::from(self.ack_timeout.max(1));
        (ack, suspect as u64)
    }
}

/// The smoothed probe round trip and its variation, in the integer form of
/// RFC 6298 (*Computing TCP's Retransmission Timer*), saturating instead of
/// overflowing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct RttEstimate {
    srtt: u64,
    rttvar: u64,
}

impl RttEstimate {
    /// Fold one round-trip sample `r` into `estimate`: the first sample
    /// sets `srtt = r`, `rttvar = r/2`; later ones update `rttvar` to
    /// `¾·rttvar + ¼·|srtt − r|`, then `srtt` to `⅞·srtt + ⅛·r`.
    fn sample(estimate: Option<Self>, r: u64) -> Self {
        match estimate {
            None => Self {
                srtt: r,
                rttvar: r / 2,
            },
            Some(Self { srtt, rttvar }) => Self {
                rttvar: rttvar.saturating_mul(3).saturating_add(srtt.abs_diff(r)) / 4,
                srtt: srtt.saturating_mul(7).saturating_add(r) / 8,
            },
        }
    }

    /// RFC 6298's retransmission timeout without its floor and ceiling:
    /// `srtt + 4·rttvar`.
    fn timeout(self) -> u64 {
        self.srtt.saturating_add(self.rttvar.saturating_mul(4))
    }
}

#[derive(Debug, Clone, Copy)]
struct MemberState {
    incarnation: u32,
    status: MemberStatus,
    /// Pre-provisioned join ranks start unborn: never probed, outside the
    /// decision universe, until their first sign of life.
    born: bool,
    probe_sent_at: Option<u64>,
    suspect_since: Option<u64>,
    indirect_asked: bool,
}

/// One peer's SWIM membership + aggregation state.
pub struct GossipNode {
    rank: usize,
    fanout: usize,
    timing: GossipTiming,
    /// The run's master seed: the probe schedule's offsets are a hash of it
    /// (the same on every node), the seeded stream below is derived from it
    /// per rank.
    seed: u64,
    /// The scheme whose stop criterion the eager push watches; `None`
    /// (a node built without [`GossipNode::with_scheme`]) pushes on the
    /// cadence only.
    scheme: Option<Scheme>,
    /// Whether this node's own row met the stop criterion at the last poll
    /// (the eager push fires on the transition).
    own_row_ready: bool,
    /// The direct-probe round trip, pooled over every member: one estimate
    /// per node, not per member, because a node probes one member per
    /// period and a per-member estimate would see less than one sample per
    /// member per solve. Pooling assumes every member is equally far away.
    /// That holds wherever gossip runs: the reactor's peers share one host,
    /// `sim` gossip bypasses the fabric and loopback has no latency. `None`
    /// until the first sample.
    rtt: Option<RttEstimate>,
    rng: ChaCha8Rng,
    incarnation: u32,
    members: Vec<MemberState>,
    /// Rumor queue: `(rumor, remaining piggy-back budget)`, one per subject.
    rumors: Vec<(Rumor, u32)>,
    /// Indirect probes in flight on behalf of others: subject → requesters.
    pending_indirect: HashMap<u16, Vec<u16>>,
    digest: ConvergenceDigest,
    next_probe_at: u64,
    /// Next instant of the push cadence (see [`PUSHES_PER_PROBE`]).
    next_push_at: u64,
    /// Probe rounds run (drives the [`DEAD_REPROBE_PERIOD`] cadence; the
    /// probe schedule's window index comes from the clock, not from this).
    rounds: u64,
    /// Scratch for fanout selection.
    eligible: Vec<usize>,
}

impl GossipNode {
    /// Create the node for `rank` of a run with `alpha` initial peers over a
    /// substrate provisioned for `capacity` ranks (`capacity - alpha` are
    /// pre-provisioned join slots). `seed` is the run's master seed — every
    /// rank derives its own stream, so same-seed runs pick the same fanout.
    pub fn new(
        rank: usize,
        alpha: usize,
        capacity: usize,
        fanout: usize,
        seed: u64,
        timing: GossipTiming,
    ) -> Self {
        let members = (0..capacity)
            .map(|r| MemberState {
                incarnation: 0,
                status: MemberStatus::Alive,
                born: r < alpha,
                probe_sent_at: None,
                suspect_since: None,
                indirect_asked: false,
            })
            .collect();
        Self {
            rank,
            fanout: fanout.max(1),
            timing,
            seed,
            scheme: None,
            own_row_ready: false,
            rtt: None,
            rng: ChaCha8Rng::seed_from_u64(seed ^ 0x6055_1790_0000_0000 ^ rank as u64),
            incarnation: 0,
            members,
            rumors: vec![(
                Rumor {
                    subject: rank as u16,
                    incarnation: 0,
                    status: MemberStatus::Alive,
                },
                RETRANSMIT_FACTOR,
            )],
            pending_indirect: HashMap::new(),
            digest: ConvergenceDigest::new(capacity),
            next_probe_at: 0,
            next_push_at: 0,
            rounds: 0,
            eligible: Vec::new(),
        }
    }

    /// Watch `scheme`'s stop criterion: the poll in which this node's own
    /// digest row starts to meet it pushes the row to `fanout` members at
    /// once (see
    /// [`Evidence::meets_stop_criterion`](crate::runtime::stop::Evidence::meets_stop_criterion)).
    pub fn with_scheme(mut self, scheme: Scheme) -> Self {
        self.scheme = Some(scheme);
        self
    }

    /// This node's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The live decision universe: initial ranks plus every join slot that
    /// has shown a sign of life.
    pub fn universe(&self) -> usize {
        self.members
            .iter()
            .enumerate()
            .filter(|(_, m)| m.born)
            .map(|(r, _)| r + 1)
            .max()
            .unwrap_or(0)
    }

    /// The merged convergence digest (read-only).
    pub fn digest(&self) -> &ConvergenceDigest {
        &self.digest
    }

    /// Fold this rank's own sweep into its digest row.
    pub fn record_sweep(&mut self, sweep: &SweepSummary) {
        self.digest.record_local(self.rank, sweep);
    }

    /// Evaluate the stop decision over the merged digest: the central fold's
    /// criterion, gated on members whose evidence is currently trustworthy
    /// (alive — a suspected or dead rank's rows are one failure away from
    /// being stale).
    pub fn decide(&self, scheme: Scheme, generation: u32) -> bool {
        let universe = self.universe();
        self.digest.decision(scheme, universe, generation, |rank| {
            rank == self.rank || self.members[rank].status == MemberStatus::Alive
        })
    }

    /// Gossiped per-rank load estimates over `peers` ranks (the recovery and
    /// joiner-placement weights under the gossip control plane).
    pub fn gossiped_loads(&self, peers: usize) -> Vec<PeerLoad> {
        self.digest.loads(peers)
    }

    /// Ranks currently under a death verdict (level-triggered: the driver
    /// retries `VolatilityState::grant` for each until the grant lands or
    /// the rank refutes).
    pub fn dead_ranks(&self) -> Vec<usize> {
        self.members
            .iter()
            .enumerate()
            .filter(|(r, m)| *r != self.rank && m.born && m.status == MemberStatus::Dead)
            .map(|(r, _)| r)
            .collect()
    }

    /// This peer recovered from a crash: refute the (correct) death verdict
    /// with a bumped incarnation so the membership converges back to alive,
    /// and forget every probe outstanding at the crash — their acks died
    /// with the old incarnation's socket, so keeping them would escalate a
    /// live member at the first poll and time the outage as a round trip.
    /// Suspicions stand: they are evidence about the member, not the probe.
    pub fn on_recovered(&mut self) {
        self.incarnation = self.incarnation.wrapping_add(1);
        for member in &mut self.members {
            member.probe_sent_at = None;
            member.indirect_asked = false;
        }
        self.pending_indirect.clear();
        let me = self.rank;
        self.members[me].status = MemberStatus::Alive;
        self.members[me].incarnation = self.incarnation;
        self.members[me].suspect_since = None;
        let rumor = Rumor {
            subject: me as u16,
            incarnation: self.incarnation,
            status: MemberStatus::Alive,
        };
        self.queue_rumor(rumor);
    }

    /// The earliest instant `poll` has scheduled work for: the next probe
    /// round or push, a pending ack deadline, or a suspicion expiry.
    /// Event-count drivers jump their clock here when every peer is
    /// otherwise idle.
    pub fn next_deadline(&self) -> u64 {
        let (ack_window, suspect_window) = self.timing.windows(self.rtt);
        let mut deadline = self.next_probe_at.min(self.next_push_at);
        for member in &self.members {
            if member.status == MemberStatus::Alive {
                if let Some(sent_at) = member.probe_sent_at {
                    // Once the missed direct ack has escalated into indirect
                    // probes, the next actionable edge is the *second* ack
                    // window (suspicion), not the first — reporting the
                    // already-acted-on edge hands idle-jumping drivers a
                    // deadline in the past, which reads as "nothing left to
                    // wait for" and ends the run under a live schedule.
                    let edge = if member.indirect_asked {
                        2 * ack_window
                    } else {
                        ack_window
                    };
                    deadline = deadline.min(sent_at + edge);
                }
            }
            if member.status == MemberStatus::Suspect {
                if let Some(since) = member.suspect_since {
                    deadline = deadline.min(since + suspect_window);
                }
            }
        }
        deadline
    }

    /// Drive both cadences: escalate a missed direct ack into indirect
    /// probes, harden targets that answered neither path into disseminated
    /// suspicions, and suspicions that survived the window into death
    /// verdicts; emit the scheduled probe when this node's window is due
    /// and the push when due; and push at once to `fanout` members when
    /// this node's own row has just started to meet the stop criterion.
    /// Both windows are derived from the measured probe round trip (see
    /// [`GossipTiming`]). Returns the messages to send.
    pub fn poll(&mut self, now: u64) -> Vec<(usize, GossipMessage)> {
        let (ack_window, suspect_window) = self.timing.windows(self.rtt);
        let mut out = Vec::new();
        // Ack deadlines. A missed direct ack is NOT yet a suspicion: first
        // the target is probed indirectly through `fanout` helpers, and only
        // when a second ack window passes with the helpers silent too does
        // the node mark it Suspect and disseminate the rumor. Broadcasting
        // on the first missed ack lets every receiver start its own death
        // countdown, so a percent of scheduling-delayed acks amplifies into
        // a cluster-wide false-verdict storm; requiring two independent
        // probe paths to fail first keeps local hiccups local.
        for target in 0..self.members.len() {
            let member = self.members[target];
            if let Some(sent_at) = member.probe_sent_at {
                if member.status == MemberStatus::Alive {
                    if !member.indirect_asked && now.saturating_sub(sent_at) >= ack_window {
                        self.members[target].indirect_asked = true;
                        let helpers = self.pick_targets(Some(target));
                        for helper in helpers {
                            stats::count_indirect_probe();
                            out.push((helper, self.message(GossipKind::ProbeReq, target as u16)));
                        }
                    } else if member.indirect_asked && now.saturating_sub(sent_at) >= 2 * ack_window
                    {
                        self.members[target].status = MemberStatus::Suspect;
                        self.members[target].suspect_since = Some(now);
                        let rumor = Rumor {
                            subject: target as u16,
                            incarnation: member.incarnation,
                            status: MemberStatus::Suspect,
                        };
                        self.queue_rumor(rumor);
                    }
                }
            }
            if self.members[target].status == MemberStatus::Suspect {
                // A suspicion adopted from a rumor (rather than grown from
                // this node's own probes) still gets one indirect round so
                // the suspect can be vouched for before the window expires.
                if !self.members[target].indirect_asked {
                    self.members[target].indirect_asked = true;
                    let helpers = self.pick_targets(Some(target));
                    for helper in helpers {
                        stats::count_indirect_probe();
                        out.push((helper, self.message(GossipKind::ProbeReq, target as u16)));
                    }
                }
                let since = self.members[target].suspect_since.unwrap_or(now);
                if now.saturating_sub(since) >= suspect_window {
                    self.members[target].status = MemberStatus::Dead;
                    self.members[target].probe_sent_at = None;
                    stats::count_death_verdict();
                    let rumor = Rumor {
                        subject: target as u16,
                        incarnation: self.members[target].incarnation,
                        status: MemberStatus::Dead,
                    };
                    self.queue_rumor(rumor);
                    let floor = self.digest.epoch_of(target).wrapping_add(1);
                    self.digest.void_below_epoch(target, floor);
                }
            }
        }
        // The probe round proper: this node's window of the shared schedule,
        // one direct target per period.
        if now >= self.next_probe_at {
            // The first poll may come before this node's first window
            // start: that round is an extra one, and window 0 still runs.
            let window = self.window_at(now);
            let start = self.window_start(window);
            self.next_probe_at = if now < start {
                start
            } else {
                self.window_start(window.saturating_add(1))
            };
            self.rounds = self.rounds.wrapping_add(1);
            if let Some(target) = self.scheduled_target(window) {
                stats::count_probe();
                if self.members[target].probe_sent_at.is_none() {
                    self.members[target].probe_sent_at = Some(now);
                }
                out.push((target, self.message(GossipKind::Probe, self.rank as u16)));
            }
            // Lazarus probe (see [`DEAD_REPROBE_PERIOD`]): without it a
            // healed partition leaves both sides holding symmetric death
            // verdicts forever. No ack deadline is armed — a genuinely dead
            // target staying silent must not restart the suspicion ladder.
            if self.rounds.is_multiple_of(DEAD_REPROBE_PERIOD) {
                self.eligible.clear();
                for (r, member) in self.members.iter().enumerate() {
                    if r != self.rank && member.born && member.status == MemberStatus::Dead {
                        self.eligible.push(r);
                    }
                }
                if !self.eligible.is_empty() {
                    let pick = (self.rng.next_u64() % self.eligible.len() as u64) as usize;
                    let target = self.eligible[pick];
                    stats::count_probe();
                    out.push((target, self.message(GossipKind::Probe, self.rank as u16)));
                }
            }
        }
        // The push cadence (see [`PUSHES_PER_PROBE`]): rumors and rows to
        // one member, no ack deadline armed.
        if now >= self.next_push_at {
            self.next_push_at = now + self.timing.push_period();
            for target in self.pick_targets_n(None, 1) {
                stats::count_push();
                out.push((target, self.message(GossipKind::Push, self.rank as u16)));
            }
        }
        // The eager push: the decision waits for every rank's row to meet
        // the criterion, so the row that just started to is pushed now
        // rather than at the next push instant.
        let own = self.digest.row(self.rank).evidence;
        let ready = self
            .scheme
            .is_some_and(|scheme| own.meets_stop_criterion(scheme));
        if ready && !self.own_row_ready {
            for target in self.pick_targets(None) {
                stats::count_push();
                out.push((target, self.message(GossipKind::Push, self.rank as u16)));
            }
        }
        self.own_row_ready = ready;
        out
    }

    /// Where node `rank`'s probe windows start: window `k` at
    /// `k·P + rank·P/n`, so the `n` nodes' rounds are spread over the
    /// period.
    fn window_start(&self, window: u64) -> u64 {
        let period = self.timing.probe_period;
        let stagger = u128::from(period) * self.rank as u128 / self.members.len() as u128;
        window.saturating_mul(period).saturating_add(stagger as u64)
    }

    /// The window of the schedule grid `now` falls in (window 0 until this
    /// node's first window start).
    fn window_at(&self, now: u64) -> u64 {
        now.saturating_sub(self.window_start(0)) / self.timing.probe_period.max(1)
    }

    /// This node's direct probe target in `window`: the first eligible
    /// member (born, not dead, not self) at `(rank + off + s) mod n` for
    /// `s = 0, 1, …`, where the offset `off` in `1..n` is a hash of the run
    /// seed and the window, the same on every node — so each live member
    /// has exactly one scheduled prober per window, and a dead or unborn
    /// member's prober walks on to the next eligible one.
    fn scheduled_target(&self, window: u64) -> Option<usize> {
        let n = self.members.len();
        if n < 2 {
            return None;
        }
        let offset = 1 + (splitmix64(self.seed ^ SCHEDULE_SALT ^ window) % (n as u64 - 1)) as usize;
        (0..n)
            .map(|step| (self.rank + offset + step) % n)
            .find(|&r| {
                let member = &self.members[r];
                r != self.rank && member.born && member.status != MemberStatus::Dead
            })
    }

    /// Handle one received gossip message; returns the replies/forwards to
    /// send (none for a push). Receiving anything from a rank is proof of
    /// life.
    pub fn on_message(&mut self, msg: &GossipMessage, now: u64) -> Vec<(usize, GossipMessage)> {
        let from = msg.from as usize;
        if from >= self.members.len() || from == self.rank {
            return Vec::new();
        }
        // A member's own ack to an outstanding probe is a round-trip sample
        // — also after the probe escalated: sampling only the acks that beat
        // the window would never see the tail, and the window would ratchet
        // down into false suspicion. Relayed acks (subject ≠ sender) time
        // two hops through a helper and are not samples.
        if msg.kind == GossipKind::Ack && msg.subject == msg.from {
            if let Some(sent_at) = self.members[from].probe_sent_at {
                self.rtt = Some(RttEstimate::sample(self.rtt, now.saturating_sub(sent_at)));
            }
        }
        self.heard_from(from, msg.incarnation);
        for row in &msg.digest {
            if self.digest.merge_row(row) {
                stats::count_row_merge();
            }
        }
        for rumor in &msg.rumors {
            stats::count_rumor_received();
            self.apply_rumor(rumor);
        }
        let mut out = Vec::new();
        match msg.kind {
            GossipKind::Push => {}
            GossipKind::Probe => {
                out.push((from, self.message(GossipKind::Ack, self.rank as u16)));
            }
            GossipKind::ProbeReq => {
                let subject = msg.subject as usize;
                if subject < self.members.len() && subject != self.rank {
                    self.pending_indirect
                        .entry(msg.subject)
                        .or_default()
                        .push(msg.from);
                    stats::count_probe();
                    if self.members[subject].probe_sent_at.is_none() {
                        self.members[subject].probe_sent_at = Some(now);
                    }
                    out.push((subject, self.message(GossipKind::Probe, self.rank as u16)));
                }
            }
            GossipKind::Ack => {
                let subject = msg.subject as usize;
                if subject < self.members.len() {
                    self.confirm_alive(subject);
                    // Answer every requester whose indirect probe this ack
                    // resolves.
                    if let Some(requesters) = self.pending_indirect.remove(&msg.subject) {
                        for requester in requesters {
                            let requester = requester as usize;
                            if requester != self.rank && requester < self.members.len() {
                                out.push((requester, self.message(GossipKind::Ack, msg.subject)));
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Any traffic from `rank` (gossip or piggy-backed observation) is proof
    /// of life at `incarnation`.
    fn heard_from(&mut self, rank: usize, incarnation: u32) {
        let member = &mut self.members[rank];
        member.born = true;
        if incarnation >= member.incarnation {
            member.incarnation = incarnation;
            if member.status != MemberStatus::Alive {
                member.status = MemberStatus::Alive;
                let rumor = Rumor {
                    subject: rank as u16,
                    incarnation,
                    status: MemberStatus::Alive,
                };
                self.queue_rumor(rumor);
            }
        }
        self.members[rank].probe_sent_at = None;
        self.members[rank].suspect_since = None;
        self.members[rank].indirect_asked = false;
    }

    /// An ack vouched for `rank` (possibly relayed): clear any suspicion at
    /// the current incarnation.
    fn confirm_alive(&mut self, rank: usize) {
        let member = &mut self.members[rank];
        member.born = true;
        member.probe_sent_at = None;
        member.suspect_since = None;
        member.indirect_asked = false;
        if member.status != MemberStatus::Alive {
            member.status = MemberStatus::Alive;
            let rumor = Rumor {
                subject: rank as u16,
                incarnation: member.incarnation,
                status: MemberStatus::Alive,
            };
            self.queue_rumor(rumor);
        }
    }

    fn apply_rumor(&mut self, rumor: &Rumor) {
        let subject = rumor.subject as usize;
        if subject >= self.members.len() {
            return;
        }
        if subject == self.rank {
            // A rumor declaring *us* suspect/dead: refute with a bumped
            // incarnation (we are demonstrably alive).
            if rumor.status != MemberStatus::Alive && rumor.incarnation >= self.incarnation {
                self.incarnation = rumor.incarnation.wrapping_add(1);
                self.members[subject].incarnation = self.incarnation;
                let refutation = Rumor {
                    subject: rumor.subject,
                    incarnation: self.incarnation,
                    status: MemberStatus::Alive,
                };
                self.queue_rumor(refutation);
            }
            return;
        }
        let member = self.members[subject];
        let known = Rumor {
            subject: rumor.subject,
            incarnation: member.incarnation,
            status: member.status,
        };
        if !member.born || rumor.supersedes(&known) {
            self.members[subject].born = true;
            self.members[subject].incarnation = rumor.incarnation;
            let was = self.members[subject].status;
            self.members[subject].status = rumor.status;
            match rumor.status {
                MemberStatus::Alive => {
                    self.members[subject].probe_sent_at = None;
                    self.members[subject].suspect_since = None;
                    self.members[subject].indirect_asked = false;
                }
                MemberStatus::Suspect => {
                    if self.members[subject].suspect_since.is_none() {
                        self.members[subject].suspect_since = Some(self.next_probe_at);
                    }
                }
                MemberStatus::Dead => {
                    if was != MemberStatus::Dead {
                        stats::count_death_verdict();
                        let floor = self.digest.epoch_of(subject).wrapping_add(1);
                        self.digest.void_below_epoch(subject, floor);
                    }
                }
            }
            self.queue_rumor(*rumor);
        }
    }

    /// Queue a rumor for piggy-backed dissemination (one slot per subject;
    /// a superseding verdict replaces the queued one and refreshes the
    /// budget).
    fn queue_rumor(&mut self, rumor: Rumor) {
        let budget = RETRANSMIT_FACTOR
            * (usize::BITS - self.members.len().leading_zeros()).max(1)
            * self.fanout.max(1) as u32;
        if let Some(slot) = self
            .rumors
            .iter_mut()
            .find(|(r, _)| r.subject == rumor.subject)
        {
            if rumor.supersedes(&slot.0) || rumor == slot.0 {
                *slot = (rumor, budget);
            }
            return;
        }
        self.rumors.push((rumor, budget));
    }

    /// Pick up to `fanout` distinct probe-eligible targets (born, not dead,
    /// not self, not `exclude`) with the node's seeded stream: the indirect
    /// probe helpers and the eager push.
    fn pick_targets(&mut self, exclude: Option<usize>) -> Vec<usize> {
        self.pick_targets_n(exclude, self.fanout)
    }

    /// As [`Self::pick_targets`] but with an explicit count: the cadence
    /// push goes to one member (`fanout` governs indirect-probe helpers and
    /// the eager push, not the base rates, which would otherwise scale the
    /// gossip plane's packet rate by `fanout` and drown the data plane at
    /// large peer counts).
    fn pick_targets_n(&mut self, exclude: Option<usize>, count: usize) -> Vec<usize> {
        self.eligible.clear();
        for (r, member) in self.members.iter().enumerate() {
            if r != self.rank
                && Some(r) != exclude
                && member.born
                && member.status != MemberStatus::Dead
            {
                self.eligible.push(r);
            }
        }
        let mut picked = Vec::with_capacity(count);
        let take = count.min(self.eligible.len());
        for i in 0..take {
            let j = i + (self.rng.next_u64() % (self.eligible.len() - i) as u64) as usize;
            self.eligible.swap(i, j);
            picked.push(self.eligible[i]);
        }
        picked
    }

    /// Assemble one outgoing message: header plus piggy-backed rumors (the
    /// highest remaining budgets first) and digest rows.
    fn message(&mut self, kind: GossipKind, subject: u16) -> GossipMessage {
        self.rumors
            .sort_by_key(|&(_, budget)| std::cmp::Reverse(budget));
        let mut rumors = Vec::new();
        for (rumor, budget) in self
            .rumors
            .iter_mut()
            .take(MAX_RUMORS_PER_MESSAGE)
            .filter(|(_, budget)| *budget > 0)
        {
            *budget -= 1;
            rumors.push(*rumor);
            stats::count_rumor_sent();
        }
        self.rumors.retain(|(_, budget)| *budget > 0);
        let digest: Vec<DigestRow> = if self.digest.capacity() <= MAX_ROWS_PER_MESSAGE {
            self.digest.rows().to_vec()
        } else {
            // Oversized runs: a seeded subset per message; anti-entropy
            // completes across successive exchanges.
            let start = (self.rng.next_u64() % self.digest.capacity() as u64) as usize;
            (0..MAX_ROWS_PER_MESSAGE)
                .map(|i| self.digest.rows()[(start + i) % self.digest.capacity()])
                .collect()
        };
        GossipMessage {
            kind,
            from: self.rank as u16,
            incarnation: self.incarnation,
            subject,
            rumors,
            digest,
        }
    }
}

/// Run-wide gossip counters (always on: the gossip path is the control
/// plane, far off the relaxation hot path). The bench grid snapshots them
/// per cell, mirroring the `contention` counters' reset/snapshot idiom.
pub mod stats {
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A snapshot of the counters.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct Counters {
        /// Direct + indirect probes sent.
        pub probes_sent: u64,
        /// Digest pushes sent (not probes: they arm no ack deadline).
        pub pushes_sent: u64,
        /// Probe-req fan-outs (indirect probe requests).
        pub indirect_probes: u64,
        /// Rumors piggy-backed onto outgoing messages.
        pub rumors_sent: u64,
        /// Rumors received (before supersession filtering).
        pub rumors_received: u64,
        /// Digest-row merges that superseded local evidence.
        pub row_merges: u64,
        /// Death verdicts declared or adopted.
        pub death_verdicts: u64,
    }

    static PROBES: AtomicU64 = AtomicU64::new(0);
    static PUSHES: AtomicU64 = AtomicU64::new(0);
    static INDIRECT: AtomicU64 = AtomicU64::new(0);
    static RUMORS_SENT: AtomicU64 = AtomicU64::new(0);
    static RUMORS_RECEIVED: AtomicU64 = AtomicU64::new(0);
    static ROW_MERGES: AtomicU64 = AtomicU64::new(0);
    static DEATHS: AtomicU64 = AtomicU64::new(0);

    macro_rules! bump {
        ($name:ident, $counter:ident) => {
            /// Count one event.
            #[inline]
            pub fn $name() {
                $counter.fetch_add(1, Ordering::Relaxed);
            }
        };
    }
    bump!(count_probe, PROBES);
    bump!(count_push, PUSHES);
    bump!(count_indirect_probe, INDIRECT);
    bump!(count_rumor_sent, RUMORS_SENT);
    bump!(count_rumor_received, RUMORS_RECEIVED);
    bump!(count_row_merge, ROW_MERGES);
    bump!(count_death_verdict, DEATHS);

    /// Zero all counters (call before a measured run).
    pub fn reset() {
        for counter in [
            &PROBES,
            &PUSHES,
            &INDIRECT,
            &RUMORS_SENT,
            &RUMORS_RECEIVED,
            &ROW_MERGES,
            &DEATHS,
        ] {
            counter.store(0, Ordering::Relaxed);
        }
    }

    /// Read all counters.
    pub fn snapshot() -> Counters {
        Counters {
            probes_sent: PROBES.load(Ordering::Relaxed),
            pushes_sent: PUSHES.load(Ordering::Relaxed),
            indirect_probes: INDIRECT.load(Ordering::Relaxed),
            rumors_sent: RUMORS_SENT.load(Ordering::Relaxed),
            rumors_received: RUMORS_RECEIVED.load(Ordering::Relaxed),
            row_merges: ROW_MERGES.load(Ordering::Relaxed),
            death_verdicts: DEATHS.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exchange(nodes: &mut [GossipNode], queue: Vec<(usize, usize, GossipMessage)>, now: u64) {
        exchange_blocking(nodes, queue, now, None);
    }

    fn exchange_blocking(
        nodes: &mut [GossipNode],
        mut queue: Vec<(usize, usize, GossipMessage)>,
        now: u64,
        blocked: Option<usize>,
    ) {
        // Deliver until quiescent (in-memory, zero latency). `blocked`
        // models a crashed rank: nothing addressed to it is delivered.
        while let Some((from, to, msg)) = queue.pop() {
            debug_assert_eq!(from, msg.from as usize);
            if Some(to) == blocked {
                continue;
            }
            for (next_to, reply) in nodes[to].on_message(&msg, now) {
                queue.push((to, next_to, reply));
            }
        }
    }

    fn poll_into(
        nodes: &mut [GossipNode],
        rank: usize,
        now: u64,
    ) -> Vec<(usize, usize, GossipMessage)> {
        nodes[rank]
            .poll(now)
            .into_iter()
            .map(|(to, msg)| (rank, to, msg))
            .collect()
    }

    fn cluster(n: usize, seed: u64) -> Vec<GossipNode> {
        (0..n)
            .map(|r| GossipNode::new(r, n, n, 2, seed, GossipTiming::wall_clock()))
            .collect()
    }

    /// The windows `node` would use now.
    fn windows(node: &GossipNode) -> (u64, u64) {
        node.timing.windows(node.rtt)
    }

    /// The kinds of a `poll` / `on_message` batch, in order.
    fn kinds(batch: &[(usize, GossipMessage)]) -> Vec<GossipKind> {
        batch.iter().map(|(_, msg)| msg.kind).collect()
    }

    /// The latency of one message `(nodes, from, to, msg)` on a
    /// [`LatencyNet`]; `None` drops it.
    type Latency<'a> = dyn FnMut(&[GossipNode], usize, usize, &GossipMessage) -> Option<u64> + 'a;

    /// The in-memory exchange with latency: a message sent at `t` arrives
    /// at `t + latency`, messages arrive in arrival order (replies
    /// included), and every tick each live node polls.
    struct LatencyNet {
        nodes: Vec<GossipNode>,
        /// `(arrival instant, to, message)` in send order.
        flight: Vec<(u64, usize, GossipMessage)>,
        now: u64,
    }

    impl LatencyNet {
        fn new(nodes: Vec<GossipNode>) -> Self {
            Self {
                nodes,
                flight: Vec::new(),
                now: 0,
            }
        }

        fn send(&mut self, from: usize, batch: Vec<(usize, GossipMessage)>, latency: &mut Latency) {
            for (to, msg) in batch {
                if let Some(delay) = latency(&self.nodes, from, to, &msg) {
                    self.flight.push((self.now + delay, to, msg));
                }
            }
        }

        /// Deliver everything that arrives within the next `tick`, then
        /// poll every rank of `live` at the tick's end.
        fn step(&mut self, tick: u64, live: &[usize], latency: &mut Latency) {
            let until = self.now + tick;
            while let Some(next) = (0..self.flight.len())
                .filter(|&i| self.flight[i].0 <= until)
                .min_by_key(|&i| self.flight[i].0)
            {
                let (at, to, msg) = self.flight.remove(next);
                self.now = at;
                let replies = self.nodes[to].on_message(&msg, at);
                self.send(to, replies, latency);
            }
            self.now = until;
            for &rank in live {
                let batch = self.nodes[rank].poll(until);
                self.send(rank, batch, latency);
            }
        }
    }

    #[test]
    fn responsive_members_stay_alive_and_digests_spread() {
        let mut nodes = cluster(4, 7);
        nodes[2].record_sweep(&SweepSummary::sample(5, 5, 1));
        let period = GossipTiming::wall_clock().probe_period;
        for round in 0..6u64 {
            let now = round * period;
            for rank in 0..4 {
                let batch = poll_into(&mut nodes, rank, now);
                exchange(&mut nodes, batch, now);
            }
        }
        for node in &nodes {
            assert!(node.dead_ranks().is_empty());
            assert_eq!(node.digest().row(2).evidence.latest, 5, "row propagated");
        }
    }

    #[test]
    fn silent_member_is_suspected_then_declared_dead_and_refutes_on_return() {
        let mut nodes = cluster(3, 11);
        let timing = GossipTiming::wall_clock();
        // Rank 2 goes silent: drop everything addressed to it and poll only
        // ranks 0 and 1 until the verdict hardens.
        let mut now = 0;
        let mut dead_seen = false;
        for _ in 0..40 {
            now += timing.probe_period;
            for rank in 0..2 {
                let batch = poll_into(&mut nodes, rank, now);
                exchange_blocking(&mut nodes, batch, now, Some(2));
            }
            if nodes[0].dead_ranks() == vec![2] && nodes[1].dead_ranks() == vec![2] {
                dead_seen = true;
                break;
            }
        }
        assert!(dead_seen, "silent rank was never declared dead");
        // The rank comes back (recovery): its bumped incarnation refutes the
        // verdict everywhere it gossips.
        nodes[2].on_recovered();
        now += timing.probe_period;
        let batch = poll_into(&mut nodes, 2, now);
        assert!(!batch.is_empty(), "recovered rank probes again");
        exchange(&mut nodes, batch, now);
        assert!(nodes[0].dead_ranks().is_empty() || nodes[1].dead_ranks().is_empty());
    }

    /// A partition hardens *symmetric* false death verdicts: each side
    /// declares the other dead while the link is cut. Because the regular
    /// probe rotation skips dead members, only the periodic lazarus probe
    /// can carry first-hand proof of life across the healed boundary — this
    /// is the wedge the scenario fuzzer found (a healed split left the
    /// gossip stop decision unfireable forever).
    #[test]
    fn healed_partition_refutes_symmetric_false_deaths() {
        let mut nodes = cluster(4, 23);
        let timing = GossipTiming::wall_clock();
        let cut = |rank: usize| rank == 3;
        // Deliver only messages that stay on one side of the cut — replies
        // spawned during delivery must respect it too.
        let deliver_cut =
            |nodes: &mut [GossipNode], mut queue: Vec<(usize, usize, GossipMessage)>, now: u64| {
                while let Some((from, to, msg)) = queue.pop() {
                    if cut(from) != cut(to) {
                        continue;
                    }
                    for (next_to, reply) in nodes[to].on_message(&msg, now) {
                        queue.push((to, next_to, reply));
                    }
                }
            };
        let mut now = 0;
        for _ in 0..40 {
            now += timing.probe_period;
            for rank in 0..4 {
                let batch = poll_into(&mut nodes, rank, now);
                deliver_cut(&mut nodes, batch, now);
            }
            let majority_sees_3_dead = (0..3).all(|rank| nodes[rank].dead_ranks().contains(&3));
            let isolated_sees_rest_dead = nodes[3].dead_ranks() == vec![0, 1, 2];
            if majority_sees_3_dead && isolated_sees_rest_dead {
                break;
            }
        }
        assert_eq!(nodes[3].dead_ranks(), vec![0, 1, 2], "split never hardened");
        // Heal: full delivery again. The lazarus probes must re-establish
        // contact and refute every false verdict on both sides.
        for _ in 0..6 * DEAD_REPROBE_PERIOD {
            now += timing.probe_period;
            for rank in 0..4 {
                let batch = poll_into(&mut nodes, rank, now);
                exchange(&mut nodes, batch, now);
            }
        }
        for (rank, node) in nodes.iter().enumerate() {
            assert!(
                node.dead_ranks().is_empty(),
                "rank {rank} still holds false verdicts {:?} after the heal",
                node.dead_ranks()
            );
        }
    }

    #[test]
    fn same_seed_same_fanout_choices() {
        let mut a = cluster(8, 42);
        let mut b = cluster(8, 42);
        for round in 1..5u64 {
            let now = round * GossipTiming::wall_clock().probe_period;
            for rank in 0..8 {
                let ta: Vec<usize> = a[rank].poll(now).into_iter().map(|(to, _)| to).collect();
                let tb: Vec<usize> = b[rank].poll(now).into_iter().map(|(to, _)| to).collect();
                assert_eq!(ta, tb);
            }
        }
    }

    #[test]
    fn unborn_join_slots_stay_outside_probe_and_universe_until_heard() {
        let mut nodes: Vec<GossipNode> = (0..3)
            .map(|r| GossipNode::new(r, 2, 3, 3, 9, GossipTiming::wall_clock()))
            .collect();
        assert_eq!(nodes[0].universe(), 2);
        let targets = nodes[0].poll(0);
        assert!(targets.iter().all(|(to, _)| *to != 2), "unborn not probed");
        // The joiner announces itself by probing.
        let batch = poll_into(&mut nodes, 2, 10);
        assert!(!batch.is_empty());
        exchange(&mut nodes, batch, 10);
        assert_eq!(nodes[0].universe(), 3);
    }

    #[test]
    fn rtt_estimate_follows_rfc_6298_integer_arithmetic() {
        // (sample, srtt, rttvar) after folding it in: the first sample sets
        // srtt = R, rttvar = R/2; later ones update rttvar from the old
        // srtt, then srtt, both rounded down.
        let script = [
            (101, 101, 50),
            (201, 113, 62), // (3·50 + 100)/4 = 62, (7·101 + 201)/8 = 113
            (50, 105, 62),  // (3·62 + 63)/4 = 62, (7·113 + 50)/8 = 105
            (50, 98, 60),   // (3·62 + 55)/4 = 60, (7·105 + 50)/8 = 98
            (98, 98, 45),   // (3·60 + 0)/4 = 45, (7·98 + 98)/8 = 98
            (0, 85, 58),    // (3·45 + 98)/4 = 58, (7·98 + 0)/8 = 85
        ];
        let mut estimate = None;
        for (sample, srtt, rttvar) in script {
            let next = RttEstimate::sample(estimate, sample);
            assert_eq!(next, RttEstimate { srtt, rttvar }, "after sample {sample}");
            assert_eq!(next.timeout(), srtt + 4 * rttvar);
            estimate = Some(next);
        }
    }

    #[test]
    fn windows_start_at_the_configured_values_and_never_exceed_them() {
        for timing in [GossipTiming::wall_clock(), GossipTiming::event_count(8)] {
            let configured = (timing.ack_timeout, timing.suspect_timeout);
            assert_eq!(timing.windows(None), configured, "before any sample");
            let mut estimate = None;
            for sample in [3, timing.ack_timeout, 10 * timing.ack_timeout, 7, 1, 0] {
                estimate = Some(RttEstimate::sample(estimate, sample));
                let (ack, suspect) = timing.windows(estimate);
                assert!((1..=timing.ack_timeout).contains(&ack), "ack window {ack}");
                assert!(
                    suspect <= timing.suspect_timeout,
                    "suspicion window {suspect}"
                );
                assert_eq!(suspect, ack * timing.suspect_timeout / timing.ack_timeout);
            }
        }
        // A fresh node reads the configured windows; a sample far above the
        // ceiling still leaves it at the ceiling.
        let mut nodes = cluster(2, 3);
        let timing = GossipTiming::wall_clock();
        assert_eq!(
            windows(&nodes[0]),
            (timing.ack_timeout, timing.suspect_timeout)
        );
        let probe = poll_into(&mut nodes, 0, 0);
        let late = 4 * timing.ack_timeout;
        let mut acks = Vec::new();
        for (_, to, msg) in probe {
            acks.extend(nodes[to].on_message(&msg, late));
        }
        for (to, ack) in acks {
            nodes[to].on_message(&ack, late);
        }
        assert!(nodes[0].rtt.is_some(), "the late ack was sampled");
        assert_eq!(
            windows(&nodes[0]),
            (timing.ack_timeout, timing.suspect_timeout)
        );
    }

    #[test]
    fn zero_rtt_gives_a_one_unit_window_and_no_escalation_at_the_probe_instant() {
        let mut nodes = cluster(3, 5);
        let period = GossipTiming::wall_clock().probe_period;
        // Zero-latency delivery: node 0's first probe is acked at the
        // instant it was sent.
        let batch = poll_into(&mut nodes, 0, 0);
        exchange(&mut nodes, batch, 0);
        assert_eq!(nodes[0].rtt, Some(RttEstimate { srtt: 0, rttvar: 0 }));
        assert_eq!(windows(&nodes[0]), (1, 2));
        // The next probe goes unanswered: polling again at the instant it
        // left must not escalate it; one unit later the indirect round runs.
        // The push that leaves with it arms nothing.
        let probe = nodes[0].poll(period);
        assert_eq!(kinds(&probe), [GossipKind::Probe, GossipKind::Push]);
        let (target, _) = probe[0];
        assert!(
            nodes[0].poll(period).is_empty(),
            "escalated at the probe's own instant"
        );
        assert!(!nodes[0].members[target].indirect_asked);
        let escalation = nodes[0].poll(period + 1);
        assert!(nodes[0].members[target].indirect_asked);
        assert!(escalation
            .iter()
            .all(|(to, msg)| msg.kind == GossipKind::ProbeReq && *to != target));
        assert!(!escalation.is_empty(), "the helper was asked");
    }

    /// The push cadence: one push per push period, between and alongside
    /// the probes; a push arms no ack deadline, moves `next_deadline` to
    /// its own instant, and its receiver merges the rows and answers
    /// nothing. Rank 0 pushes: its probe windows start on the period grid
    /// (a rank's are staggered by `rank·P/n`).
    #[test]
    fn one_push_per_push_period_arms_nothing_and_draws_no_reply() {
        let mut nodes = cluster(3, 13);
        let timing = GossipTiming::wall_clock();
        let push = timing.push_period();
        assert_eq!(push, timing.probe_period / PUSHES_PER_PROBE);
        nodes[0].record_sweep(&SweepSummary::sample(9, 7, 2));
        let armed = |node: &GossipNode| node.members.iter().map(|m| m.probe_sent_at).collect();
        let mut probed = vec![None; 3];
        for k in 0..2 * PUSHES_PER_PROBE {
            let batch = nodes[0].poll(k * push);
            let expected: &[GossipKind] = if k % PUSHES_PER_PROBE == 0 {
                &[GossipKind::Probe, GossipKind::Push]
            } else {
                &[GossipKind::Push]
            };
            assert_eq!(kinds(&batch), expected, "at push instant {k}");
            // Nothing is delivered back, so every probe stays outstanding —
            // and only the probes: no push armed a deadline.
            for (to, msg) in &batch {
                if msg.kind == GossipKind::Probe {
                    probed[*to].get_or_insert(k * push);
                }
            }
            let outstanding: Vec<Option<u64>> = armed(&nodes[0]);
            assert_eq!(outstanding, probed, "at push instant {k}");
            assert!(nodes[0].poll(k * push + push / 2).is_empty());
            assert_eq!(nodes[0].next_deadline(), (k + 1) * push);
            let (to, msg) = batch.last().expect("a push");
            assert_ne!(*to, 0, "a node never pushes to itself");
            assert_eq!((msg.from, msg.subject), (0, 0));
            assert_eq!(msg.digest, nodes[0].digest().rows());
            // The receiver merges the rows and answers nothing.
            assert!(nodes[*to].on_message(msg, k * push).is_empty());
            assert_eq!(nodes[*to].digest().row(0).evidence.latest, 9);
            let receiver: Vec<Option<u64>> = armed(&nodes[*to]);
            assert_eq!(receiver, [None; 3]);
        }
    }

    #[test]
    fn max_sized_sample_saturates_instead_of_overflowing() {
        let first = RttEstimate::sample(None, u64::MAX);
        assert_eq!(
            first,
            RttEstimate {
                srtt: u64::MAX,
                rttvar: u64::MAX / 2
            }
        );
        assert_eq!(first.timeout(), u64::MAX);
        let again = RttEstimate::sample(Some(first), u64::MAX);
        let small = RttEstimate::sample(Some(again), 0);
        for timing in [GossipTiming::wall_clock(), GossipTiming::event_count(4)] {
            for estimate in [first, again, small] {
                assert_eq!(
                    timing.windows(Some(estimate)),
                    (timing.ack_timeout, timing.suspect_timeout)
                );
            }
        }
    }

    /// The estimate must see the tail: a direct ack that arrives after the
    /// probe escalated into the indirect round is a sample, while an ack a
    /// helper relays (two hops, subject ≠ sender) is not.
    #[test]
    fn direct_ack_after_escalation_is_sampled_and_relayed_ack_is_not() {
        let ack_timeout = GossipTiming::wall_clock().ack_timeout;
        // Node 0's probe and push at 0; at the ack deadline the probe-req,
        // the next round's probe and the next push.
        let escalated = |nodes: &mut Vec<GossipNode>| {
            let probe = nodes[0].poll(0);
            assert_eq!(kinds(&probe), [GossipKind::Probe, GossipKind::Push]);
            let (target, ref msg) = probe[0];
            let req = nodes[0].poll(ack_timeout);
            assert_eq!(
                kinds(&req),
                [GossipKind::ProbeReq, GossipKind::Probe, GossipKind::Push]
            );
            assert!(nodes[0].members[target].indirect_asked, "escalated");
            (target, msg.clone(), req)
        };
        // Direct: the target answers the original probe late.
        let mut nodes = cluster(3, 17);
        let (target, probe, _) = escalated(&mut nodes);
        let late = ack_timeout + 1_000;
        let reply = nodes[target].on_message(&probe, late);
        assert_eq!(reply.len(), 1);
        assert_eq!(reply[0].1.kind, GossipKind::Ack);
        nodes[0].on_message(&reply[0].1, late);
        assert_eq!(nodes[0].rtt, Some(RttEstimate::sample(None, late)));
        assert!(
            !nodes[0].members[target].indirect_asked,
            "the ack resolved the probe"
        );
        // Relayed: only the helper's answer reaches node 0.
        let mut nodes = cluster(3, 17);
        let (target, _, req) = escalated(&mut nodes);
        let (helper, ref req) = req[0];
        let probe = nodes[helper].on_message(req, ack_timeout);
        assert_eq!(probe[0].0, target);
        let ack = nodes[target].on_message(&probe[0].1, ack_timeout);
        let relayed = nodes[helper].on_message(&ack[0].1, ack_timeout);
        assert_eq!((relayed[0].0, relayed[0].1.subject), (0, target as u16));
        nodes[0].on_message(&relayed[0].1, ack_timeout + 1_000);
        assert_eq!(
            nodes[0].rtt, None,
            "a relayed ack is not a round-trip sample"
        );
        assert_eq!(
            nodes[0].members[target].probe_sent_at, None,
            "but it vouches"
        );
    }

    /// A revived node forgets the probes it had outstanding at the crash:
    /// their acks died with its old socket. Neither the ladder (indirect
    /// round, suspicion) nor the estimator may act on them.
    #[test]
    fn a_revived_node_forgets_the_probes_it_had_outstanding() {
        let mut nodes = cluster(3, 23);
        let period = GossipTiming::wall_clock().probe_period;
        // Warm-up: node 0's first probe is answered after 0.5 ms.
        let first = nodes[0].poll(0);
        let (warm, ref probe) = first[0];
        let ack = nodes[warm].on_message(probe, 500_000);
        nodes[0].on_message(&ack[0].1, 500_000);
        let rtt = nodes[0].rtt;
        let (ack_window, _) = windows(&nodes[0]);
        // Node 0 probes `m`, then crashes before the ack arrives and runs
        // no turn for twenty ack windows.
        let batch = nodes[0].poll(period);
        let (m, probe) = batch
            .into_iter()
            .find(|(_, msg)| msg.kind == GossipKind::Probe)
            .expect("the second round probes");
        assert!(nodes[0].members[m].probe_sent_at.is_some());
        nodes[0].on_recovered();
        // It revives in a window whose scheduled target is not `m`, so
        // nothing it sends after the revive asks `m` for an ack.
        let window = (period + 20 * ack_window).div_ceil(period)..;
        let revived_in = window
            .into_iter()
            .find(|&w| nodes[0].scheduled_target(w) != Some(m))
            .expect("a window probes the other member");
        let now = nodes[0].window_start(revived_in);
        for _ in 0..2 {
            let batch = nodes[0].poll(now);
            let escalated = batch
                .iter()
                .any(|(_, msg)| msg.kind == GossipKind::ProbeReq);
            assert!(!escalated, "{batch:?}");
        }
        assert_eq!(nodes[0].members[m].status, MemberStatus::Alive);
        // `m`'s ack to the probe of the dead incarnation is no sample.
        let late = nodes[m].on_message(&probe, now);
        nodes[0].on_message(&late[0].1, now);
        assert_eq!(nodes[0].rtt, rtt, "the outage is not a round trip");
    }

    /// After warm-up at a steady round trip `r`, detection runs on windows
    /// derived from `r`, not on the configured ones. The ladder — ack
    /// window, second ack window, suspicion window — is two suspicion
    /// windows after the first unanswered probe, which leaves within one
    /// probe period of the silence; a third window covers the poll ticks.
    #[test]
    fn silent_member_is_declared_dead_within_the_measured_windows() {
        let timing = GossipTiming::wall_clock();
        let (rtt, tick) = (500_000, 50_000);
        let mut net = LatencyNet::new(cluster(2, 29));
        let mut steady = |_: &[GossipNode], _: usize, _: usize, _: &GossipMessage| Some(rtt / 2);
        // Rank 1 starts half a period late: any message from a member
        // resolves the probe to it, so in lockstep rank 1's own probe would
        // always reach rank 0 before its ack and no round trip would count.
        while net.now < timing.probe_period / 2 {
            net.step(tick, &[0], &mut steady);
        }
        while net.now < 20 * timing.probe_period {
            net.step(tick, &[0, 1], &mut steady);
        }
        let (ack, suspect) = windows(&net.nodes[0]);
        assert!(ack <= 2 * rtt, "the window follows the round trip: {ack}");
        let silent_at = net.now;
        let mut silent = |_: &[GossipNode], from: usize, to: usize, _: &GossipMessage| {
            (from != 1 && to != 1).then_some(rtt / 2)
        };
        while net.nodes[0].dead_ranks().is_empty() {
            net.step(tick, &[0], &mut silent);
            assert!(net.now - silent_at < 1_000_000_000, "never declared dead");
        }
        let detection = net.now - silent_at;
        assert!(
            detection <= 3 * suspect + timing.probe_period,
            "declared dead {detection} ns after the silence (windows {ack} / {suspect} ns)"
        );
        assert!(detection < 2 * timing.ack_timeout + timing.suspect_timeout);
    }

    /// A member whose direct acks now and then come back late — after its
    /// probe escalated, but before the second ack window closes, when the
    /// indirect round resolves — is never suspected, let alone declared
    /// dead: the late ack clears the escalation and widens the window.
    #[test]
    fn late_acks_inside_the_indirect_round_never_harden_into_a_verdict() {
        let timing = GossipTiming::wall_clock();
        let (rtt, tick) = (500_000, 50_000);
        let slow = 3;
        let mut acks_from_slow = 0u64;
        let mut late = 0u64;
        let mut escalations = 0u64;
        let mut latency = |nodes: &[GossipNode], from: usize, to: usize, msg: &GossipMessage| {
            if msg.kind == GossipKind::ProbeReq {
                escalations += 1;
            }
            if from == slow && msg.kind == GossipKind::Ack && msg.subject == slow as u16 {
                acks_from_slow += 1;
                if acks_from_slow.is_multiple_of(3) {
                    // Arrive 1.5 ack windows after the probe left `to`.
                    late += 1;
                    return Some(3 * windows(&nodes[to]).0 / 2 - rtt / 2);
                }
            }
            Some(rtt / 2)
        };
        let mut net = LatencyNet::new(cluster(4, 31));
        while net.now < 300 * timing.probe_period {
            net.step(tick, &[0, 1, 2, 3], &mut latency);
            for node in &net.nodes {
                assert!(
                    node.members.iter().all(|m| m.status == MemberStatus::Alive),
                    "rank {} suspected a live member at {} ns",
                    node.rank,
                    net.now
                );
            }
        }
        assert!(late >= 20, "only {late} late acks");
        assert!(escalations >= 20, "only {escalations} escalations");
        for node in &net.nodes {
            assert!(node.dead_ranks().is_empty());
            assert!(
                windows(node).0 < timing.ack_timeout,
                "windows left the ceiling"
            );
        }
    }

    /// Nodes whose windows outlast any test: nothing escalates, so the
    /// probe schedule can be read off `poll` without delivering a thing.
    fn schedule_cluster(n: usize, seed: u64) -> Vec<GossipNode> {
        let period = GossipTiming::wall_clock().probe_period;
        let timing = GossipTiming {
            probe_period: period,
            ack_timeout: 1_000 * period,
            suspect_timeout: 2_000 * period,
        };
        (0..n)
            .map(|r| GossipNode::new(r, n, n, 2, seed, timing))
            .collect()
    }

    /// Poll every rank of `polling` at each of its window starts, in time
    /// order, for `windows` windows: `probes[k][m]` counts the direct
    /// probes member `m` drew in window `k` (lazarus probes of members the
    /// sender holds dead are not the schedule's and are left out).
    fn scheduled_probes(
        nodes: &mut [GossipNode],
        polling: &[usize],
        windows: u64,
    ) -> Vec<Vec<u32>> {
        let n = nodes.len();
        let mut probes = vec![vec![0u32; n]; windows as usize];
        for window in 0..windows {
            for &rank in polling {
                let node = &mut nodes[rank];
                let now = node.window_start(window);
                for (to, msg) in node.poll(now) {
                    if msg.kind == GossipKind::Probe
                        && node.members[to].status != MemberStatus::Dead
                    {
                        probes[window as usize][to] += 1;
                    }
                }
            }
        }
        probes
    }

    /// The collective schedule: while every member is alive each one is
    /// probed directly by exactly one node per window; with a member dead
    /// its prober walks on, so no member is probed more than twice; the
    /// same seed gives the same schedule and another seed another one.
    #[test]
    fn every_live_member_is_probed_once_per_window() {
        let (n, windows) = (32, 64);
        let everyone: Vec<usize> = (0..n).collect();
        let all_alive = scheduled_probes(&mut schedule_cluster(n, 42), &everyone, windows);
        for (window, counts) in all_alive.iter().enumerate() {
            assert_eq!(counts, &vec![1; n], "window {window}");
        }
        // Member 9 under a death verdict everywhere. Declared dead but
        // still running (a false verdict), it keeps probing its own
        // target, and every other member is probed once or twice.
        let dead = 9;
        let with_dead = |polling: &[usize]| {
            let mut nodes = schedule_cluster(n, 42);
            for node in nodes.iter_mut().filter(|node| node.rank != dead) {
                node.members[dead].status = MemberStatus::Dead;
            }
            scheduled_probes(&mut nodes, polling, windows)
        };
        for (window, counts) in with_dead(&everyone).iter().enumerate() {
            for (member, &count) in counts.iter().enumerate() {
                if member != dead {
                    assert!(
                        (1..=2).contains(&count),
                        "window {window}: member {member} probed {count}×"
                    );
                }
            }
        }
        // Really dead, it probes nobody: its own target is the one member a
        // window may miss, and over the windows every live member is probed.
        let survivors: Vec<usize> = (0..n).filter(|&r| r != dead).collect();
        let crashed = with_dead(&survivors);
        let mut total = vec![0u32; n];
        for (window, counts) in crashed.iter().enumerate() {
            let missed = (0..n).filter(|&m| m != dead && counts[m] == 0).count();
            assert!(
                missed <= 1,
                "window {window}: {missed} live members unprobed"
            );
            assert!(counts.iter().all(|&count| count <= 2), "window {window}");
            for member in 0..n {
                total[member] += counts[member];
            }
        }
        assert!(survivors.iter().all(|&m| total[m] > 0), "{total:?}");
        // Same seed, same schedule — target for target; another seed moves it.
        let targets = |seed| {
            let mut nodes = schedule_cluster(n, seed);
            let mut targets = Vec::new();
            for window in 0..windows {
                for node in nodes.iter_mut() {
                    let now = node.window_start(window);
                    targets.extend(
                        node.poll(now)
                            .into_iter()
                            .filter(|(_, m)| m.kind == GossipKind::Probe)
                            .map(|(to, _)| to),
                    );
                }
            }
            targets
        };
        assert_eq!(targets(42), targets(42));
        assert_ne!(targets(42), targets(43));
    }

    /// The first round runs at the first poll, whenever that is — an extra
    /// round when it comes before the node's first window start, which
    /// still runs; later rounds run at the node's window starts on the grid
    /// `k·P + rank·P/n`, also after the node missed windows (a late or
    /// revived node rejoins the schedule instead of drifting off it).
    #[test]
    fn the_first_round_runs_at_the_first_poll_and_later_ones_on_the_grid() {
        let n = 32;
        let period = GossipTiming::wall_clock().probe_period;
        let probe_targets = |batch: Vec<(usize, GossipMessage)>| -> Vec<usize> {
            batch
                .into_iter()
                .filter(|(_, m)| m.kind == GossipKind::Probe)
                .map(|(to, _)| to)
                .collect()
        };
        let mut node = schedule_cluster(n, 7).swap_remove(5);
        let stagger = 5 * period / n as u64;
        assert_eq!(node.window_start(0), stagger);
        // Polled first before its window 0 starts: it probes at once, and
        // again at the start of window 0.
        assert_eq!(probe_targets(node.poll(7)).len(), 1);
        assert_eq!(node.next_probe_at, stagger);
        assert!(probe_targets(node.poll(stagger - 1)).is_empty());
        assert_eq!(probe_targets(node.poll(stagger)).len(), 1);
        assert_eq!(node.next_probe_at, period + stagger);
        assert!(probe_targets(node.poll(period + stagger - 1)).is_empty());
        assert_eq!(probe_targets(node.poll(period + stagger)).len(), 1);
        // Windows 2–4 missed: the late poll probes window 5's scheduled
        // target — the one a punctual twin probes — and the next round
        // waits for window 6's start.
        let late = probe_targets(node.poll(5 * period + stagger + period / 2));
        assert_eq!(node.next_probe_at, 6 * period + stagger);
        let mut twin = schedule_cluster(n, 7).swap_remove(5);
        for window in 0..=4 {
            twin.poll(twin.window_start(window));
        }
        let on_time = probe_targets(twin.poll(5 * period + stagger));
        assert_eq!(late, on_time);
        assert_eq!(late, [node.scheduled_target(5).expect("a target")]);
    }

    /// The eager push: the poll in which a node's own row starts to meet
    /// the stop criterion pushes it to `fanout` distinct members; a row
    /// that stays there pushes nothing more, and only a new transition
    /// pushes again.
    #[test]
    fn a_row_that_starts_to_meet_the_stop_criterion_is_pushed_at_once() {
        let (n, fanout) = (8, 3);
        let sweep = |iteration, clean_since, stable_streak| SweepSummary {
            has_async_neighbors: true,
            ..SweepSummary::sample(iteration, clean_since, stable_streak)
        };
        let pushes = |batch: &[(usize, GossipMessage)]| -> Vec<usize> {
            batch
                .iter()
                .filter(|(_, m)| m.kind == GossipKind::Push)
                .map(|(to, _)| *to)
                .collect()
        };
        for scheme in [Scheme::Asynchronous, Scheme::Synchronous, Scheme::Hybrid] {
            let mut node =
                GossipNode::new(2, n, n, fanout, 5, GossipTiming::wall_clock()).with_scheme(scheme);
            // The first poll's own probe and cadence push; from here on the
            // polls fall between cadence instants.
            assert_eq!(pushes(&node.poll(0)).len(), 1);
            let mut now = 0;
            let mut poll_after = |node: &mut GossipNode, summary: SweepSummary| {
                node.record_sweep(&summary);
                now += 1_000;
                node.poll(now)
            };
            // Dirty, then clean but not yet stable twice.
            assert!(poll_after(&mut node, sweep(1, u64::MAX, 0)).is_empty());
            let first_clean = poll_after(&mut node, sweep(2, 2, 1));
            let expected_at = if scheme == Scheme::Asynchronous { 3 } else { 2 };
            let mut batches = vec![first_clean];
            batches.push(poll_after(&mut node, sweep(3, 2, 2)));
            batches.push(poll_after(&mut node, sweep(4, 2, 3)));
            for (i, batch) in batches.iter().enumerate() {
                let iteration = i as u64 + 2;
                let targets = pushes(batch);
                if iteration == expected_at {
                    assert_eq!(targets.len(), fanout, "{scheme:?} at {iteration}");
                    let mut distinct = targets.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(distinct.len(), fanout);
                    assert!(!targets.contains(&2), "never to itself");
                    for (_, msg) in batch {
                        assert_eq!(
                            msg.digest[2].evidence.latest, iteration,
                            "the row that just met it"
                        );
                    }
                } else {
                    assert!(
                        batch.is_empty(),
                        "{scheme:?} at {iteration}: {:?}",
                        kinds(batch)
                    );
                }
            }
            // A dirty sweep ends the streak; the next transition pushes again.
            assert!(poll_after(&mut node, sweep(5, u64::MAX, 0)).is_empty());
            assert!(
                poll_after(&mut node, sweep(6, 6, 1)).len()
                    + poll_after(&mut node, sweep(7, 6, 2)).len()
                    == fanout
            );
        }
        // A node built without a scheme pushes on the cadence only.
        let mut node = GossipNode::new(2, n, n, fanout, 5, GossipTiming::wall_clock());
        node.poll(0);
        node.record_sweep(&sweep(3, 1, 3));
        assert!(node.poll(1_000).is_empty());
    }

    /// Crash → first death verdict over 20 seeded 32-node crashes, on the
    /// clock the `sim` backend gives gossip (a 1 ms turn, zero round trip,
    /// so every derived window sits at its one-unit floor): the victim's
    /// scheduled prober reaches it within two probe periods of the crash,
    /// and the ladder — escalation, suspicion, verdict — then takes one
    /// turn per rung. With a random target per round (the schedule's
    /// predecessor) a member went unprobed in 37 % of the rounds and this
    /// wait was geometric: on these 20 seeds the slowest verdict came
    /// 29 ms after its crash (the bound is 23 ms) and the mean was 11.5 ms;
    /// on the schedule they are 19 ms and 8.3 ms.
    #[test]
    fn a_crashed_member_is_declared_dead_within_two_probe_periods_and_the_ladder() {
        let (n, tick) = (32, 1_000_000);
        let period = GossipTiming::wall_clock().probe_period;
        let ladder = 3 * tick;
        let mut slowest = 0;
        for seed in 0..20u64 {
            let victim = (seed as usize * 7 + 3) % n;
            let mut net = LatencyNet::new(cluster(n, 1_000 + seed));
            let everyone: Vec<usize> = (0..n).collect();
            let mut instant = |_: &[GossipNode], _: usize, _: usize, _: &GossipMessage| Some(0);
            // Warm up, then crash at a seeded tick of the next period.
            let crash_at = 5 * period + (seed * 3 % 10) * tick;
            while net.now < crash_at {
                net.step(tick, &everyone, &mut instant);
            }
            let survivors: Vec<usize> = (0..n).filter(|&r| r != victim).collect();
            let mut cut = |_: &[GossipNode], from: usize, to: usize, _: &GossipMessage| {
                (from != victim && to != victim).then_some(0)
            };
            while net
                .nodes
                .iter()
                .all(|node| node.members[victim].status != MemberStatus::Dead)
            {
                net.step(tick, &survivors, &mut cut);
                assert!(
                    net.now - crash_at < 100 * period,
                    "seed {seed}: never declared dead"
                );
            }
            let detection = net.now - crash_at;
            slowest = slowest.max(detection);
            assert!(
                detection <= 2 * period + ladder,
                "seed {seed}: declared dead {detection} ns after the crash"
            );
        }
        assert!(slowest > ladder, "the schedule's wait is real: {slowest}");
    }
}
