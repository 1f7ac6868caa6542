//! Netem-style network impairment.
//!
//! The paper used the Linux `netem` qdisc to inject 100 ms of latency on the
//! path between the two clusters. This module reproduces the relevant subset
//! of netem: constant extra delay, bounded uniform jitter, independent loss,
//! and duplication. An impairment is applied *on top of* a link's own
//! characteristics, exactly like a qdisc sits on top of a NIC.

use desim::{uniform01, SimDuration};
use rand::RngCore;
use serde::{Deserialize, Serialize};

/// Impairment parameters (subset of the `netem` qdisc).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Netem {
    /// Constant additional one-way delay.
    pub delay: SimDuration,
    /// Additional uniformly distributed jitter in `[0, jitter]`.
    pub jitter: SimDuration,
    /// Independent packet-loss probability in `[0, 1]`.
    pub loss: f64,
    /// Independent packet-duplication probability in `[0, 1]`.
    pub duplicate: f64,
}

impl Netem {
    /// No impairment at all.
    pub fn none() -> Self {
        Self {
            delay: SimDuration::ZERO,
            jitter: SimDuration::ZERO,
            loss: 0.0,
            duplicate: 0.0,
        }
    }

    /// The paper's configuration: a constant 100 ms delay.
    pub fn delay_100ms() -> Self {
        Self {
            delay: SimDuration::from_millis(100),
            ..Self::none()
        }
    }

    /// Builder: constant delay.
    pub fn with_delay(mut self, delay: SimDuration) -> Self {
        self.delay = delay;
        self
    }

    /// Builder: jitter bound.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Builder: loss probability.
    pub fn with_loss(mut self, loss: f64) -> Self {
        assert!((0.0..=1.0).contains(&loss));
        self.loss = loss;
        self
    }

    /// Decide the fate of one packet.
    pub fn apply<R: RngCore>(&self, rng: &mut R) -> NetemOutcome {
        if self.loss > 0.0 && uniform01(rng) < self.loss {
            return NetemOutcome::Drop;
        }
        let jitter = if self.jitter.is_zero() {
            SimDuration::ZERO
        } else {
            self.jitter.mul_f64(uniform01(rng))
        };
        let duplicate = self.duplicate > 0.0 && uniform01(rng) < self.duplicate;
        NetemOutcome::Deliver {
            extra_delay: self.delay + jitter,
            duplicate,
        }
    }
}

impl Default for Netem {
    fn default() -> Self {
        Self::none()
    }
}

/// Result of applying an impairment to one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetemOutcome {
    /// The packet is dropped.
    Drop,
    /// The packet is delivered after `extra_delay`; `duplicate` requests a
    /// second copy.
    Deliver {
        /// Additional delay beyond the link's own delay.
        extra_delay: SimDuration,
        /// Whether a duplicate copy should also be delivered.
        duplicate: bool,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use desim::RngFactory;

    #[test]
    fn none_is_transparent() {
        let mut rng = RngFactory::new(1).stream(0);
        match Netem::none().apply(&mut rng) {
            NetemOutcome::Deliver {
                extra_delay,
                duplicate,
            } => {
                assert_eq!(extra_delay, SimDuration::ZERO);
                assert!(!duplicate);
            }
            NetemOutcome::Drop => panic!("no-impairment netem must never drop"),
        }
    }

    #[test]
    fn full_loss_drops_everything() {
        let mut rng = RngFactory::new(1).stream(0);
        let netem = Netem::none().with_loss(1.0);
        for _ in 0..100 {
            assert_eq!(netem.apply(&mut rng), NetemOutcome::Drop);
        }
    }

    #[test]
    fn loss_rate_is_respected_statistically() {
        let mut rng = RngFactory::new(42).stream(3);
        let netem = Netem::none().with_loss(0.2);
        let n = 20_000;
        let drops = (0..n)
            .filter(|_| netem.apply(&mut rng) == NetemOutcome::Drop)
            .count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "observed loss rate {rate}");
    }

    #[test]
    fn delay_and_jitter_bounds_hold() {
        let mut rng = RngFactory::new(7).stream(0);
        let netem = Netem::delay_100ms().with_jitter(SimDuration::from_millis(10));
        for _ in 0..1000 {
            if let NetemOutcome::Deliver { extra_delay, .. } = netem.apply(&mut rng) {
                assert!(extra_delay >= SimDuration::from_millis(100));
                assert!(extra_delay <= SimDuration::from_millis(110));
            }
        }
    }
}
