//! Link models: latency, bandwidth, jitter and loss.

use desim::SimDuration;
use serde::{Deserialize, Serialize};

/// Static characteristics of a (directed) link between two nodes.
///
/// The delivery delay of a packet of `s` bytes is
/// `serialization(s) + propagation latency + jitter`, where serialization is
/// `s / bandwidth` and consecutive packets on the same link queue behind each
/// other (FIFO, store-and-forward).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// One-way propagation latency.
    pub latency: SimDuration,
    /// Link capacity in bits per second.
    pub bandwidth_bps: f64,
    /// Independent per-packet loss probability in [0, 1].
    pub loss_probability: f64,
    /// Maximum additional uniformly distributed jitter.
    pub jitter: SimDuration,
}

impl LinkSpec {
    /// A new link spec with no loss and no jitter.
    pub fn new(latency: SimDuration, bandwidth_bps: f64) -> Self {
        Self {
            latency,
            bandwidth_bps,
            loss_probability: 0.0,
            jitter: SimDuration::ZERO,
        }
    }

    /// 100 Mbit/s switched Ethernet with 0.1 ms latency — the NICTA testbed's
    /// intra-cluster network in the paper.
    pub fn ethernet_100mbps() -> Self {
        Self::new(SimDuration::from_micros(100), 100e6)
    }

    /// Gigabit Ethernet with 50 µs latency (used by ablation experiments).
    pub fn ethernet_1gbps() -> Self {
        Self::new(SimDuration::from_micros(50), 1e9)
    }

    /// The paper's emulated Internet path between the two clusters:
    /// netem-injected 100 ms latency. Bandwidth stays at 100 Mbit/s (netem
    /// only added delay); a small default loss rate exercises the unreliable
    /// inter-cluster mode.
    pub fn internet_100ms() -> Self {
        Self {
            latency: SimDuration::from_millis(100),
            bandwidth_bps: 100e6,
            loss_probability: 0.0,
            jitter: SimDuration::ZERO,
        }
    }

    /// Builder: set the loss probability.
    pub fn with_loss(mut self, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "loss probability must be in [0,1]"
        );
        self.loss_probability = p;
        self
    }

    /// Builder: set the jitter bound.
    pub fn with_jitter(mut self, jitter: SimDuration) -> Self {
        self.jitter = jitter;
        self
    }

    /// Time to clock `bytes` onto the wire at this link's bandwidth.
    pub fn serialization_delay(&self, bytes: usize) -> SimDuration {
        let bits = bytes as f64 * 8.0;
        SimDuration::from_secs_f64(bits / self.bandwidth_bps)
    }

    /// Nominal one-way delay for a packet of `bytes` on an idle link.
    pub fn nominal_delay(&self, bytes: usize) -> SimDuration {
        self.latency + self.serialization_delay(bytes)
    }
}

impl Default for LinkSpec {
    fn default() -> Self {
        Self::ethernet_100mbps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serialization_delay_scales_with_size() {
        let l = LinkSpec::new(SimDuration::ZERO, 100e6); // 100 Mbit/s
                                                         // 12_500 bytes = 100_000 bits => 1 ms
        assert_eq!(l.serialization_delay(12_500), SimDuration::from_millis(1));
        assert_eq!(l.serialization_delay(0), SimDuration::ZERO);
    }

    #[test]
    fn nominal_delay_adds_latency() {
        let l = LinkSpec::new(SimDuration::from_millis(10), 100e6);
        assert_eq!(l.nominal_delay(12_500), SimDuration::from_millis(11));
    }

    #[test]
    fn presets_are_sensible() {
        assert_eq!(
            LinkSpec::internet_100ms().latency,
            SimDuration::from_millis(100)
        );
        assert!(LinkSpec::ethernet_100mbps().latency < LinkSpec::internet_100ms().latency);
        assert!(
            LinkSpec::ethernet_1gbps().bandwidth_bps > LinkSpec::ethernet_100mbps().bandwidth_bps
        );
    }

    #[test]
    #[should_panic]
    fn invalid_loss_rejected() {
        let _ = LinkSpec::default().with_loss(1.5);
    }
}
