//! The physical layer of the data channel.
//!
//! The paper's data channel has two levels: a physical layer (one composite
//! protocol per network type — Ethernet, InfiniBand, Myrinet) and a transport
//! layer. Switching networks substitutes one physical composite for another.
//! In this reproduction the wire itself is the `netsim` fabric (or an
//! in-process channel in the thread runtime); the physical composite adapts
//! between the transport layer and that wire and carries the network-type
//! identity used by reconfiguration.
//!
//! The adapter forwards both ways unchanged, so [`crate::Session`], whose
//! data path is straight-line code, has nothing to run for it; the composite
//! is the bottom layer of the reference stack the session is tested against.

use crate::config::PhysicalNetwork;
use cactus::{
    events, CompositeProtocol, EventName, Message, MicroProtocol, Operations, MSG_FROM_ABOVE,
};

/// Adapter micro-protocol for one physical network type.
#[derive(Debug)]
pub struct PhysicalAdapter {
    network: PhysicalNetwork,
}

impl PhysicalAdapter {
    /// Create an adapter for `network`.
    pub fn new(network: PhysicalNetwork) -> Self {
        Self { network }
    }

    /// The network type this adapter drives.
    pub fn network(&self) -> PhysicalNetwork {
        self.network
    }
}

impl MicroProtocol for PhysicalAdapter {
    fn name(&self) -> &'static str {
        match self.network {
            PhysicalNetwork::Ethernet => "physical-ethernet",
            PhysicalNetwork::InfiniBand => "physical-infiniband",
            PhysicalNetwork::Myrinet => "physical-myrinet",
        }
    }
    fn subscriptions(&self) -> Vec<EventName> {
        vec![MSG_FROM_ABOVE, events::MSG_FROM_NET]
    }
    fn handle(&mut self, event: EventName, msg: &mut Message, ops: &mut Operations) {
        if event == MSG_FROM_ABOVE {
            ops.send_down(msg.clone());
        } else {
            ops.send_up(msg.clone());
        }
    }
}

/// Build the physical-layer composite protocol for a network type.
pub fn build_physical(network: PhysicalNetwork) -> CompositeProtocol {
    let mut c = CompositeProtocol::new("physical");
    c.add_micro(Box::new(PhysicalAdapter::new(network)));
    c
}

/// Name of the adapter micro-protocol for a network type (used by
/// reconfiguration when triggering the data channel between networks).
pub fn adapter_name(network: PhysicalNetwork) -> &'static str {
    PhysicalAdapter::new(network).name()
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    #[test]
    fn adapter_forwards_both_directions() {
        let mut c = build_physical(PhysicalNetwork::Ethernet);
        let down = c.raise(MSG_FROM_ABOVE, Message::new(Bytes::from_static(b"d")));
        assert!(matches!(down[0], cactus::Effect::SendDown(_)));
        let up = c.raise(events::MSG_FROM_NET, Message::new(Bytes::from_static(b"u")));
        assert!(matches!(up[0], cactus::Effect::SendUp(_)));
    }

    #[test]
    fn network_switch_is_a_substitution() {
        let mut c = build_physical(PhysicalNetwork::Ethernet);
        assert!(c.has_micro("physical-ethernet"));
        c.substitute(
            adapter_name(PhysicalNetwork::Ethernet),
            Box::new(PhysicalAdapter::new(PhysicalNetwork::InfiniBand)),
        );
        assert!(c.has_micro("physical-infiniband"));
        assert!(!c.has_micro("physical-ethernet"));
    }
}
