//! Events of the micro-protocol framework.
//!
//! Cactus is event-based: micro-protocols are collections of handlers bound
//! to events; raising an event runs every bound handler. Events are
//! identified by interned static names so that new micro-protocols can
//! introduce new events (as the paper's Synchronous/Asynchronous
//! micro-protocols introduce `UserSend` and `UserReceive`) without a central
//! enum.

/// Name of an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EventName(pub &'static str);

impl std::fmt::Display for EventName {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.0)
    }
}

/// Standard events used by the transport composite protocol.
pub mod events {
    use super::EventName;

    /// Raised when the application calls the socket `send` operation
    /// (introduced by the Synchronous/Asynchronous micro-protocols).
    pub const USER_SEND: EventName = EventName("UserSend");
    /// Raised when the application calls the socket `receive` operation.
    pub const USER_RECEIVE: EventName = EventName("UserReceive");
    /// Raised when a segment arrives from the network below.
    pub const MSG_FROM_NET: EventName = EventName("MsgFromNet");
    /// Raised when a segment is about to be handed to the network below.
    pub const MSG_TO_NET: EventName = EventName("MsgToNet");
    /// Raised when a message is ready to be delivered to the application.
    pub const MSG_TO_USER: EventName = EventName("MsgToUser");
    /// Raised when an acknowledgement for a previously sent segment arrives.
    pub const SEGMENT_ACKED: EventName = EventName("SegmentAcked");
    /// Raised when a retransmission / protocol timer fires.
    pub const TIMEOUT: EventName = EventName("Timeout");
    /// Raised when a loss is detected (used by congestion control).
    pub const LOSS_DETECTED: EventName = EventName("LossDetected");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_compare_by_content() {
        assert_eq!(EventName("UserSend"), events::USER_SEND);
        assert_ne!(events::USER_SEND, events::USER_RECEIVE);
        assert_eq!(events::TIMEOUT.to_string(), "Timeout");
    }
}
