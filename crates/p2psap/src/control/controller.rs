//! The controller of the control channel: the rule engine that maps context
//! to a data-channel configuration.
//!
//! The decision rules reproduce Table I of the paper:
//!
//! | scheme \ connection | intra-cluster            | inter-cluster              |
//! |---------------------|--------------------------|----------------------------|
//! | Synchronous         | synchronous, reliable    | synchronous, reliable      |
//! | Asynchronous        | asynchronous, reliable   | asynchronous, unreliable   |
//! | Hybrid              | synchronous, reliable    | asynchronous, unreliable   |
//!
//! In addition, the congestion-control micro-protocol is chosen from the
//! connection type: TCP New-Reno inside a cluster (low latency), H-TCP across
//! clusters (high speed × latency product). Rules are expressed as data so
//! that they can be extended or overridden (the paper plans a specification
//! language such as OWL or ECA for this purpose).

use crate::config::{
    ChannelConfig, CommunicationMode, CongestionAlgorithm, PhysicalNetwork, Reliability, Scheme,
};
use crate::control::monitor::ContextSnapshot;
use netsim::ConnectionType;
use serde::{Deserialize, Serialize};

/// A single decision rule: when the context matches the pattern, the
/// configuration is used. `None` fields match anything.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rule {
    /// Scheme pattern (None = any).
    pub scheme: Option<Scheme>,
    /// Connection pattern (None = any).
    pub connection: Option<ConnectionType>,
    /// Resulting data-channel configuration.
    pub config: ChannelConfig,
    /// Human-readable justification (kept for traces and documentation).
    pub rationale: String,
}

impl Rule {
    fn matches(&self, ctx: &ContextSnapshot) -> bool {
        self.scheme.is_none_or(|s| s == ctx.scheme)
            && self.connection.is_none_or(|c| c == ctx.connection)
    }
}

/// The rule-based controller.
#[derive(Debug, Clone)]
pub struct Controller {
    rules: Vec<Rule>,
}

impl Controller {
    /// Controller pre-loaded with the paper's Table I rules.
    pub fn with_table1_rules() -> Self {
        let mk = |mode, reliability, ordered, congestion| ChannelConfig {
            mode,
            reliability,
            ordered,
            congestion,
            physical: PhysicalNetwork::Ethernet,
        };
        use CommunicationMode::{Asynchronous as ModeAsync, Synchronous as ModeSync};
        use ConnectionType::{InterCluster, IntraCluster};
        use Reliability::{Reliable, Unreliable};
        let rules = vec![
            Rule {
                scheme: Some(Scheme::Synchronous),
                connection: Some(IntraCluster),
                config: mk(ModeSync, Reliable, true, CongestionAlgorithm::NewReno),
                rationale: "synchronous scheme imposes synchronous reliable communication; \
                            New-Reno suits the low-latency LAN"
                    .into(),
            },
            Rule {
                scheme: Some(Scheme::Synchronous),
                connection: Some(InterCluster),
                config: mk(ModeSync, Reliable, true, CongestionAlgorithm::HTcp),
                rationale: "synchronous scheme imposes synchronous reliable communication; \
                            H-TCP explores the high speed-latency WAN"
                    .into(),
            },
            Rule {
                scheme: Some(Scheme::Asynchronous),
                connection: Some(IntraCluster),
                config: mk(ModeAsync, Reliable, false, CongestionAlgorithm::NewReno),
                rationale: "asynchronous scheme; low intra-cluster latency makes reliability \
                            cheap and avoids extra relaxations from lost updates"
                    .into(),
            },
            Rule {
                scheme: Some(Scheme::Asynchronous),
                connection: Some(InterCluster),
                config: mk(ModeAsync, Unreliable, false, CongestionAlgorithm::HTcp),
                rationale: "asynchronous scheme; inter-cluster loss-recovery time is comparable \
                            to the update time, so retransmitted messages would be obsolete"
                    .into(),
            },
            Rule {
                scheme: Some(Scheme::Hybrid),
                connection: Some(IntraCluster),
                config: mk(ModeSync, Reliable, true, CongestionAlgorithm::NewReno),
                rationale: "hybrid scheme: balanced loads inside a cluster make synchronous \
                            communication appropriate"
                    .into(),
            },
            Rule {
                scheme: Some(Scheme::Hybrid),
                connection: Some(InterCluster),
                config: mk(ModeAsync, Unreliable, false, CongestionAlgorithm::HTcp),
                rationale: "hybrid scheme: heterogeneity, unreliability and high latency between \
                            clusters make asynchronous communication appropriate"
                    .into(),
            },
        ];
        Self { rules }
    }

    /// Empty controller (for tests and custom rule sets).
    pub fn empty() -> Self {
        Self { rules: Vec::new() }
    }

    /// Prepend a rule with the highest precedence.
    pub fn push_rule_front(&mut self, rule: Rule) {
        self.rules.insert(0, rule);
    }

    /// Number of rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// The rules, in precedence order.
    pub fn rules(&self) -> &[Rule] {
        &self.rules
    }

    /// Decide the data-channel configuration for a context snapshot. The
    /// first matching rule wins; if nothing matches, a conservative
    /// synchronous reliable configuration is used.
    pub fn decide(&self, ctx: &ContextSnapshot) -> ChannelConfig {
        self.rules
            .iter()
            .find(|r| r.matches(ctx))
            .map(|r| r.config)
            .unwrap_or_else(ChannelConfig::synchronous_reliable)
    }

    /// Decide from the two primary context dimensions (helper for callers
    /// that have no monitor instance).
    pub fn decide_for(&self, scheme: Scheme, connection: ConnectionType) -> ChannelConfig {
        self.decide(&ContextSnapshot {
            scheme,
            connection,
            srtt: None,
            loss_ratio: None,
            local_load: 0.0,
        })
    }
}

impl Default for Controller {
    fn default() -> Self {
        Self::with_table1_rules()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx(scheme: Scheme, connection: ConnectionType) -> ContextSnapshot {
        ContextSnapshot {
            scheme,
            connection,
            srtt: None,
            loss_ratio: None,
            local_load: 0.0,
        }
    }

    /// The six cells of Table I.
    #[test]
    fn table1_synchronous_rows() {
        let c = Controller::with_table1_rules();
        for conn in [ConnectionType::IntraCluster, ConnectionType::InterCluster] {
            let cfg = c.decide(&ctx(Scheme::Synchronous, conn));
            assert_eq!(cfg.mode, CommunicationMode::Synchronous);
            assert_eq!(cfg.reliability, Reliability::Reliable);
            assert!(cfg.ordered);
        }
        // Congestion control differs between LAN and WAN.
        assert_eq!(
            c.decide(&ctx(Scheme::Synchronous, ConnectionType::IntraCluster))
                .congestion,
            CongestionAlgorithm::NewReno
        );
        assert_eq!(
            c.decide(&ctx(Scheme::Synchronous, ConnectionType::InterCluster))
                .congestion,
            CongestionAlgorithm::HTcp
        );
    }

    #[test]
    fn table1_asynchronous_rows() {
        let c = Controller::with_table1_rules();
        let intra = c.decide(&ctx(Scheme::Asynchronous, ConnectionType::IntraCluster));
        assert_eq!(intra.mode, CommunicationMode::Asynchronous);
        assert_eq!(intra.reliability, Reliability::Reliable);
        let inter = c.decide(&ctx(Scheme::Asynchronous, ConnectionType::InterCluster));
        assert_eq!(inter.mode, CommunicationMode::Asynchronous);
        assert_eq!(inter.reliability, Reliability::Unreliable);
    }

    #[test]
    fn table1_hybrid_rows() {
        let c = Controller::with_table1_rules();
        let intra = c.decide(&ctx(Scheme::Hybrid, ConnectionType::IntraCluster));
        assert_eq!(intra.mode, CommunicationMode::Synchronous);
        assert_eq!(intra.reliability, Reliability::Reliable);
        let inter = c.decide(&ctx(Scheme::Hybrid, ConnectionType::InterCluster));
        assert_eq!(inter.mode, CommunicationMode::Asynchronous);
        assert_eq!(inter.reliability, Reliability::Unreliable);
    }

    #[test]
    fn unmatched_context_falls_back_to_conservative_default() {
        let c = Controller::empty();
        let cfg = c.decide(&ctx(Scheme::Hybrid, ConnectionType::IntraCluster));
        assert_eq!(cfg, ChannelConfig::synchronous_reliable());
    }

    #[test]
    fn custom_rule_takes_precedence() {
        let mut c = Controller::with_table1_rules();
        c.push_rule_front(Rule {
            scheme: None,
            connection: Some(ConnectionType::InterCluster),
            config: ChannelConfig::asynchronous_reliable(),
            rationale: "operator override".into(),
        });
        let cfg = c.decide(&ctx(Scheme::Synchronous, ConnectionType::InterCluster));
        assert_eq!(cfg, ChannelConfig::asynchronous_reliable());
        assert_eq!(c.rule_count(), 7);
    }
}
