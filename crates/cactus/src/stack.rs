//! Protocol stacks: composite protocols layered on top of each other.
//!
//! Messages move through the stack by reference (no copies, per the paper's
//! modification to Cactus): a `SendDown` effect from layer *i* is re-raised as
//! [`MSG_FROM_ABOVE`] in layer *i−1*; a `SendUp` effect from layer *i*
//! is re-raised as [`events::MSG_FROM_NET`] in layer *i+1*. Effects falling
//! off the bottom or the top of the stack are returned to the stack's owner
//! (the session), which is responsible for the actual network and application
//! interfaces.

use crate::composite::{CompositeProtocol, Effect};
use crate::event::{events, EventName};
use crate::message::Message;

/// Extra event used for inter-layer traffic going towards the network.
pub const MSG_FROM_ABOVE: EventName = EventName("MsgFromAbove");

/// A timer requested by a layer of the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimerRequest {
    /// Index of the layer that armed the timer.
    pub layer: usize,
    /// Delay in nanoseconds.
    pub delay_ns: u64,
    /// Layer-chosen tag.
    pub tag: u64,
}

/// Everything that leaves the stack as the result of one injection.
#[derive(Debug, Default)]
pub struct StackOutput {
    /// Messages that fell off the bottom layer (to be put on the wire).
    pub to_net: Vec<Message>,
    /// Messages that rose above the top layer.
    pub to_user: Vec<Message>,
    /// Messages explicitly delivered to the application receive queue.
    pub delivered: Vec<Message>,
    /// Timers requested by layers.
    pub timers: Vec<TimerRequest>,
    /// Timer cancellations requested by layers (layer, tag).
    pub cancels: Vec<(usize, u64)>,
    /// Sequence numbers of synchronous sends that completed.
    pub send_completions: Vec<u64>,
}

impl StackOutput {
    fn merge(&mut self, other: StackOutput) {
        self.to_net.extend(other.to_net);
        self.to_user.extend(other.to_user);
        self.delivered.extend(other.delivered);
        self.timers.extend(other.timers);
        self.cancels.extend(other.cancels);
        self.send_completions.extend(other.send_completions);
    }

    /// True when nothing left the stack.
    pub fn is_empty(&self) -> bool {
        self.to_net.is_empty()
            && self.to_user.is_empty()
            && self.delivered.is_empty()
            && self.timers.is_empty()
            && self.cancels.is_empty()
            && self.send_completions.is_empty()
    }
}

/// A layered protocol stack. Layer 0 is the bottom (network side); the last
/// layer is the top (application side).
#[derive(Default)]
pub struct ProtocolStack {
    layers: Vec<CompositeProtocol>,
}

impl ProtocolStack {
    /// Create an empty stack.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a layer on top of the existing ones; returns its index.
    pub fn push_layer(&mut self, layer: CompositeProtocol) -> usize {
        self.layers.push(layer);
        self.layers.len() - 1
    }

    /// Mutable access to a layer (for reconfiguration).
    pub fn layer_mut(&mut self, index: usize) -> &mut CompositeProtocol {
        &mut self.layers[index]
    }

    /// Read access to a layer.
    pub fn layer(&self, index: usize) -> &CompositeProtocol {
        &self.layers[index]
    }

    /// Index of the top layer. Panics on an empty stack.
    pub fn top(&self) -> usize {
        assert!(!self.layers.is_empty(), "stack has no layers");
        self.layers.len() - 1
    }

    /// Inject an application send at the top layer.
    pub fn from_user(&mut self, msg: Message) -> StackOutput {
        let top = self.top();
        self.raise_at(top, events::USER_SEND, msg)
    }

    /// Inject a segment arriving from the network at the bottom layer.
    pub fn from_net(&mut self, msg: Message) -> StackOutput {
        self.raise_at(0, events::MSG_FROM_NET, msg)
    }

    /// Raise an arbitrary event at a layer and propagate the consequences
    /// through the stack.
    pub fn raise_at(&mut self, layer: usize, event: EventName, msg: Message) -> StackOutput {
        assert!(layer < self.layers.len(), "no such layer: {layer}");
        let mut output = StackOutput::default();
        let mut work: Vec<(usize, EventName, Message)> = vec![(layer, event, msg)];
        while let Some((layer, event, msg)) = work.pop() {
            let effects = self.layers[layer].raise(event, msg);
            let mut step = StackOutput::default();
            for effect in effects {
                match effect {
                    Effect::SendDown(m) => {
                        if layer == 0 {
                            step.to_net.push(m);
                        } else {
                            work.push((layer - 1, MSG_FROM_ABOVE, m));
                        }
                    }
                    Effect::SendUp(m) => {
                        if layer + 1 == self.layers.len() {
                            step.to_user.push(m);
                        } else {
                            work.push((layer + 1, events::MSG_FROM_NET, m));
                        }
                    }
                    Effect::DeliverToUser(m) => step.delivered.push(m),
                    Effect::SetTimer { delay_ns, tag } => step.timers.push(TimerRequest {
                        layer,
                        delay_ns,
                        tag,
                    }),
                    Effect::CancelTimer { tag } => step.cancels.push((layer, tag)),
                    Effect::NotifySendComplete { seq } => step.send_completions.push(seq),
                }
            }
            output.merge(step);
        }
        output
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::micro::{MicroProtocol, Operations};
    use bytes::Bytes;

    /// Transport-like layer: on USER_SEND pushes a header and sends down; on
    /// MSG_FROM_NET pops the header and delivers to the user.
    struct Transportish;
    impl MicroProtocol for Transportish {
        fn name(&self) -> &'static str {
            "transportish"
        }
        fn subscriptions(&self) -> Vec<EventName> {
            vec![events::USER_SEND, events::MSG_FROM_NET]
        }
        fn handle(&mut self, event: EventName, msg: &mut Message, ops: &mut Operations) {
            if event == events::USER_SEND {
                let mut out = msg.clone();
                out.push_header("t", Bytes::from_static(b"T"));
                ops.send_down(out);
            } else {
                let mut up = msg.clone();
                let _ = up.pop_header();
                ops.deliver_to_user(up);
            }
        }
    }

    /// Physical-like layer: forwards in both directions unchanged.
    struct Physicalish;
    impl MicroProtocol for Physicalish {
        fn name(&self) -> &'static str {
            "physicalish"
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

    fn two_layer_stack() -> ProtocolStack {
        let mut stack = ProtocolStack::new();
        let mut phy = CompositeProtocol::new("physical");
        phy.add_micro(Box::new(Physicalish));
        stack.push_layer(phy);
        let mut tr = CompositeProtocol::new("transport");
        tr.add_micro(Box::new(Transportish));
        stack.push_layer(tr);
        stack
    }

    #[test]
    fn send_path_traverses_all_layers() {
        let mut stack = two_layer_stack();
        let out = stack.from_user(Message::from_static(b"hello"));
        assert_eq!(out.to_net.len(), 1);
        assert_eq!(out.to_net[0].header_count(), 1);
        assert_eq!(out.to_net[0].payload().as_ref(), b"hello");
        assert!(out.to_user.is_empty());
    }

    #[test]
    fn receive_path_travels_up_and_delivers() {
        let mut stack = two_layer_stack();
        let mut wire = Message::from_static(b"data");
        wire.push_header("t", Bytes::from_static(b"T"));
        let out = stack.from_net(wire);
        assert_eq!(out.delivered.len(), 1);
        assert_eq!(out.delivered[0].header_count(), 0);
        assert_eq!(out.delivered[0].payload().as_ref(), b"data");
    }

    #[test]
    fn zero_copy_property_holds_end_to_end() {
        let mut stack = two_layer_stack();
        let payload = Bytes::from(vec![1u8; 4096]);
        let original = Message::new(payload);
        let out = stack.from_user(original.clone());
        assert!(out.to_net[0].shares_payload_with(&original));
    }

    #[test]
    fn timer_requests_carry_their_layer() {
        struct TimerSetter;
        impl MicroProtocol for TimerSetter {
            fn name(&self) -> &'static str {
                "timer-setter"
            }
            fn subscriptions(&self) -> Vec<EventName> {
                vec![events::USER_SEND]
            }
            fn handle(&mut self, _e: EventName, _m: &mut Message, ops: &mut Operations) {
                ops.set_timer(1_000, 7);
            }
        }
        let mut stack = ProtocolStack::new();
        stack.push_layer(CompositeProtocol::new("physical"));
        let mut tr = CompositeProtocol::new("transport");
        tr.add_micro(Box::new(TimerSetter));
        stack.push_layer(tr);
        let out = stack.from_user(Message::default());
        assert_eq!(
            out.timers,
            vec![TimerRequest {
                layer: 1,
                delay_ns: 1_000,
                tag: 7
            }]
        );
    }

    #[test]
    #[should_panic(expected = "no such layer")]
    fn raising_at_missing_layer_panics() {
        let mut stack = ProtocolStack::new();
        stack.push_layer(CompositeProtocol::new("only"));
        let _ = stack.raise_at(3, events::USER_SEND, Message::default());
    }
}
