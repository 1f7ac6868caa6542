//! Construction of the transport-layer composite protocol from a
//! [`ChannelConfig`], and the reconfiguration planner that transforms one
//! configuration into another by adding, removing and substituting
//! micro-protocols (the data-channel reconfiguration of Section II.B).
//!
//! [`plan_reconfiguration`] is what [`crate::Session::reconfigure`] runs;
//! [`build_transport`] and [`apply_reconfiguration`] build and rewire the
//! reference composite the session is checked against (see
//! [`crate::data::micros`]) — they are not on the data path.

use crate::config::{ChannelConfig, CommunicationMode, Reliability};
use crate::data::congestion::make_congestion;
use crate::data::micros::{
    AsynchronousMode, BufferManagement, CongestionMicro, OrderingMicro, ReliabilityMicro,
    SegmentTx, SynchronousMode, ATTR_ENFORCE, SET_ORDERING,
};
use cactus::{CompositeProtocol, Message};

/// Priorities of the transport micro-protocols (lower runs first).
pub mod priorities {
    /// Communication mode micro-protocols.
    pub const MODE: i32 = 0;
    /// Buffer management.
    pub const BUFFER: i32 = 5;
    /// Reliability (annotates segments before transmission).
    pub const RELIABILITY: i32 = 10;
    /// Congestion control (observes annotated segments).
    pub const CONGESTION: i32 = 20;
    /// Ordering / delivery.
    pub const ORDERING: i32 = 30;
    /// Final transmission hop.
    pub const SEGMENT_TX: i32 = super::SegmentTx::PRIORITY;
}

/// Build a transport composite protocol implementing `config`.
pub fn build_transport(config: ChannelConfig) -> CompositeProtocol {
    let mut c = CompositeProtocol::new("transport");
    match config.mode {
        CommunicationMode::Synchronous => {
            c.add_micro_with_priority(Box::new(SynchronousMode::new()), priorities::MODE)
        }
        CommunicationMode::Asynchronous => {
            c.add_micro_with_priority(Box::new(AsynchronousMode::new()), priorities::MODE)
        }
    }
    c.add_micro_with_priority(Box::new(BufferManagement::new()), priorities::BUFFER);
    if config.reliability == Reliability::Reliable {
        c.add_micro_with_priority(
            Box::new(ReliabilityMicro::with_defaults()),
            priorities::RELIABILITY,
        );
    }
    c.add_micro_with_priority(
        Box::new(CongestionMicro::new(make_congestion(config.congestion))),
        priorities::CONGESTION,
    );
    c.add_micro_with_priority(
        Box::new(OrderingMicro::new(config.ordered)),
        priorities::ORDERING,
    );
    c.add_micro_with_priority(Box::new(SegmentTx::new()), priorities::SEGMENT_TX);
    c
}

/// One reconfiguration step applied to the transport composite.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigAction {
    /// Replace the communication-mode micro-protocol.
    SwitchMode(CommunicationMode),
    /// Add the reliability micro-protocol.
    AddReliability,
    /// Remove the reliability micro-protocol (releasing its resources).
    RemoveReliability,
    /// Replace the congestion-control algorithm.
    SwitchCongestion(crate::config::CongestionAlgorithm),
    /// Switch ordered delivery on or off.
    SetOrdering(bool),
}

/// Compute the minimal list of actions turning `from` into `to`.
pub fn plan_reconfiguration(from: ChannelConfig, to: ChannelConfig) -> Vec<ReconfigAction> {
    let mut actions = Vec::new();
    if from.mode != to.mode {
        actions.push(ReconfigAction::SwitchMode(to.mode));
    }
    match (from.reliability, to.reliability) {
        (Reliability::Unreliable, Reliability::Reliable) => {
            actions.push(ReconfigAction::AddReliability)
        }
        (Reliability::Reliable, Reliability::Unreliable) => {
            actions.push(ReconfigAction::RemoveReliability)
        }
        _ => {}
    }
    if from.congestion != to.congestion {
        actions.push(ReconfigAction::SwitchCongestion(to.congestion));
    }
    if from.ordered != to.ordered {
        actions.push(ReconfigAction::SetOrdering(to.ordered));
    }
    actions
}

/// Apply reconfiguration actions to a transport composite in place.
pub fn apply_reconfiguration(composite: &mut CompositeProtocol, actions: &[ReconfigAction]) {
    for action in actions {
        match action {
            ReconfigAction::SwitchMode(mode) => {
                let (old, new): (&str, Box<dyn cactus::MicroProtocol>) = match mode {
                    CommunicationMode::Synchronous => {
                        ("mode-asynchronous", Box::new(SynchronousMode::new()))
                    }
                    CommunicationMode::Asynchronous => {
                        ("mode-synchronous", Box::new(AsynchronousMode::new()))
                    }
                };
                composite.substitute(old, new);
            }
            ReconfigAction::AddReliability => {
                if !composite.has_micro("reliability") {
                    composite.add_micro_with_priority(
                        Box::new(ReliabilityMicro::with_defaults()),
                        priorities::RELIABILITY,
                    );
                }
            }
            ReconfigAction::RemoveReliability => {
                composite.remove_micro("reliability");
            }
            ReconfigAction::SwitchCongestion(algorithm) => {
                composite.substitute(
                    "congestion-control",
                    Box::new(CongestionMicro::new(make_congestion(*algorithm))),
                );
            }
            ReconfigAction::SetOrdering(enforce) => {
                // In place: the micro-protocol keeps its delivery position.
                let mut msg = Message::default();
                msg.set_flag(ATTR_ENFORCE, *enforce);
                composite.raise(SET_ORDERING, msg);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CongestionAlgorithm;

    #[test]
    fn sync_reliable_contains_expected_micros() {
        let c = build_transport(ChannelConfig::synchronous_reliable());
        assert!(c.has_micro("mode-synchronous"));
        assert!(c.has_micro("reliability"));
        assert!(c.has_micro("buffer-management"));
        assert!(c.has_micro("ordering"));
        assert!(c.has_micro("congestion-control"));
        assert!(c.has_micro("segment-tx"));
        assert_eq!(c.micro_count(), 6);
    }

    #[test]
    fn async_unreliable_has_no_reliability() {
        let c = build_transport(ChannelConfig::asynchronous_unreliable());
        assert!(c.has_micro("mode-asynchronous"));
        assert!(!c.has_micro("reliability"));
    }

    #[test]
    fn plan_is_empty_for_identical_configs() {
        let cfg = ChannelConfig::synchronous_reliable();
        assert!(plan_reconfiguration(cfg, cfg).is_empty());
    }

    #[test]
    fn plan_covers_all_differences() {
        let from = ChannelConfig::synchronous_reliable();
        let to = ChannelConfig::asynchronous_unreliable();
        let plan = plan_reconfiguration(from, to);
        assert!(plan.contains(&ReconfigAction::SwitchMode(CommunicationMode::Asynchronous)));
        assert!(plan.contains(&ReconfigAction::RemoveReliability));
        assert!(plan.contains(&ReconfigAction::SwitchCongestion(CongestionAlgorithm::HTcp)));
        assert!(plan.contains(&ReconfigAction::SetOrdering(false)));
    }

    #[test]
    fn applying_a_plan_yields_target_micro_set() {
        let from = ChannelConfig::synchronous_reliable();
        let to = ChannelConfig::asynchronous_unreliable();
        let mut composite = build_transport(from);
        apply_reconfiguration(&mut composite, &plan_reconfiguration(from, to));
        assert!(composite.has_micro("mode-asynchronous"));
        assert!(!composite.has_micro("mode-synchronous"));
        assert!(!composite.has_micro("reliability"));
        // And back again.
        apply_reconfiguration(&mut composite, &plan_reconfiguration(to, from));
        assert!(composite.has_micro("mode-synchronous"));
        assert!(composite.has_micro("reliability"));
    }
}
