//! The socket-like API of P2PSAP.
//!
//! The paper places a socket interface on top of the protocol so that an
//! application can open and close connections, send and receive data, and get
//! or change session behaviour through socket options. Session management
//! commands are directed to the control channel; data exchange commands to
//! the data channel.
//!
//! The socket is transport-agnostic: every call returns a [`SocketOutput`]
//! describing what must be put on the wire (data segments for the data
//! channel, [`ControlMessage`]s for the reliable control channel) and which
//! timers to arm; the P2PDC communication component executes these actions on
//! the simulated or threaded network.

use crate::config::{ChannelConfig, Scheme};
use crate::control::controller::Controller;
use crate::control::coordination::{ControlMessage, CoordinationOutcome, Coordinator};
use crate::control::monitor::ContextMonitor;
use crate::session::{Session, SessionOutput};
use bytes::Bytes;
use cactus::TimerRequest;
use netsim::ConnectionType;
use std::collections::VecDeque;

/// Socket life-cycle state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SocketState {
    /// The session is open and carrying data.
    Established,
    /// The session has been closed locally.
    Closed,
}

/// Socket options readable and writable through `set_option` / `get_option`
/// (the paper's `setsockoption` / `getsockoption`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SocketOption {
    /// The application-selected scheme of computation.
    Scheme(Scheme),
    /// The topology classification of this connection.
    Connection(ConnectionType),
}

/// Actions produced by a socket call, to be executed by the runtime.
#[derive(Debug, Default)]
pub struct SocketOutput {
    /// Data-channel segments to transmit.
    pub data: Vec<Bytes>,
    /// Control-channel messages to transmit (reliably).
    pub control: Vec<ControlMessage>,
    /// Timers to arm.
    pub timers: Vec<TimerRequest>,
    /// Timers to cancel.
    pub cancels: Vec<(usize, u64)>,
    /// Completed synchronous sends.
    pub completions: Vec<u64>,
}

impl SocketOutput {
    /// The socket's view of a session interaction: the session's vectors are
    /// taken over as they are, and what it delivered joins the receive queue.
    fn from_session(session_output: SessionOutput, recv_queue: &mut VecDeque<Bytes>) -> Self {
        recv_queue.extend(session_output.delivered);
        Self {
            data: session_output.wire,
            control: Vec::new(),
            timers: session_output.timers,
            cancels: session_output.cancels,
            completions: session_output.completions,
        }
    }

    /// Merge another socket output after this one.
    pub fn merge(&mut self, other: SocketOutput) {
        self.data.extend(other.data);
        self.control.extend(other.control);
        self.timers.extend(other.timers);
        self.cancels.extend(other.cancels);
        self.completions.extend(other.completions);
    }
}

/// A P2PSAP socket: one data-channel session plus its control channel
/// (context monitor, controller, coordination).
pub struct Socket {
    monitor: ContextMonitor,
    controller: Controller,
    coordinator: Coordinator,
    session: Session,
    recv_queue: VecDeque<Bytes>,
    state: SocketState,
}

impl Socket {
    /// Open a socket for a connection with the given application scheme and
    /// topology classification. The controller picks the initial data-channel
    /// configuration (Table I); no coordination is needed because both end
    /// points derive the same initial configuration from the same context.
    pub fn open(scheme: Scheme, connection: ConnectionType) -> Self {
        Self::open_with_controller(scheme, connection, Controller::with_table1_rules())
    }

    /// Open a socket with a custom rule set (used by ablation experiments).
    pub fn open_with_controller(
        scheme: Scheme,
        connection: ConnectionType,
        controller: Controller,
    ) -> Self {
        let monitor = ContextMonitor::new(scheme, connection);
        let config = controller.decide(&monitor.snapshot());
        Self {
            monitor,
            controller,
            coordinator: Coordinator::new(),
            session: Session::new(config),
            recv_queue: VecDeque::new(),
            state: SocketState::Established,
        }
    }

    /// Current data-channel configuration.
    pub fn config(&self) -> ChannelConfig {
        self.session.config()
    }

    /// Current socket state.
    pub fn state(&self) -> SocketState {
        self.state
    }

    /// Access the context monitor (for feeding observations).
    pub fn monitor_mut(&mut self) -> &mut ContextMonitor {
        &mut self.monitor
    }

    /// `P2P_Send`: send an application payload. Returns the sequence number
    /// and the actions to carry out.
    pub fn send(&mut self, payload: Bytes, now_ns: u64) -> (u64, SocketOutput) {
        assert_eq!(self.state, SocketState::Established, "socket is closed");
        self.monitor.observe_sent();
        let (seq, session_out) = self.session.send(payload, now_ns);
        let out = SocketOutput::from_session(session_out, &mut self.recv_queue);
        (seq, out)
    }

    /// `P2P_Receive`: pop the next delivered payload, if any (asynchronous
    /// receive semantics; the caller decides whether to wait).
    pub fn receive(&mut self) -> Option<Bytes> {
        self.recv_queue.pop_front()
    }

    /// Return a wire buffer to the session's pool. Runtimes that copy
    /// segments onto the wire (UDP, reactor) call this after
    /// `Bytes::try_reclaim` succeeds, so steady-state sends stop allocating.
    pub fn recycle_wire(&mut self, buf: Vec<u8>) {
        self.session.recycle_wire(buf);
    }

    /// Number of data-channel frames the session dropped because they did
    /// not decode (see [`Session::rejected_segments`]).
    pub fn rejected_segments(&self) -> u64 {
        self.session.rejected_segments()
    }

    /// Data segments the application sent and bare acknowledgements the
    /// session sent on this socket (see [`Session::bare_acks_sent`]).
    pub fn sent_segments(&self) -> (u64, u64) {
        (self.session.sent_segments(), self.session.bare_acks_sent())
    }

    /// A data-channel segment arrived from the remote peer.
    pub fn on_data(&mut self, segment: Bytes, now_ns: u64) -> SocketOutput {
        let session_out = self.session.on_wire(segment, now_ns);
        SocketOutput::from_session(session_out, &mut self.recv_queue)
    }

    /// A control-channel message arrived from the remote peer. Applying a
    /// reconfiguration may deliver payloads (see [`Session::reconfigure`]).
    pub fn on_control(&mut self, msg: ControlMessage) -> SocketOutput {
        let (apply, reply) = match self.coordinator.on_message(msg) {
            CoordinationOutcome::None => (None, None),
            CoordinationOutcome::Apply(config) => (Some(config), None),
            CoordinationOutcome::Send(reply) => (None, Some(reply)),
            CoordinationOutcome::ApplyAndSend(config, reply) => (Some(config), Some(reply)),
        };
        let session_out = apply
            .map(|config| self.session.reconfigure(config))
            .unwrap_or_default();
        let mut out = SocketOutput::from_session(session_out, &mut self.recv_queue);
        out.control.extend(reply);
        out
    }

    /// A previously armed timer fired.
    pub fn on_timer(&mut self, layer: usize, tag: u64, now_ns: u64) -> SocketOutput {
        let session_out = self.session.on_timer(layer, tag, now_ns);
        SocketOutput::from_session(session_out, &mut self.recv_queue)
    }

    /// Change a socket option; may trigger a coordinated reconfiguration of
    /// the data channel.
    pub fn set_option(&mut self, option: SocketOption) -> SocketOutput {
        match option {
            SocketOption::Scheme(scheme) => self.monitor.set_scheme(scheme),
            SocketOption::Connection(connection) => self.monitor.set_connection(connection),
        }
        self.maybe_reconfigure()
    }

    /// Read the scheme socket option.
    pub fn scheme(&self) -> Scheme {
        self.monitor.snapshot().scheme
    }

    /// Read the connection-type socket option.
    pub fn connection(&self) -> ConnectionType {
        self.monitor.snapshot().connection
    }

    /// Re-evaluate the decision rules against the current context; if the
    /// resulting configuration differs from the active one, start the
    /// coordination handshake.
    pub fn maybe_reconfigure(&mut self) -> SocketOutput {
        let mut out = SocketOutput::default();
        let target = self.controller.decide(&self.monitor.snapshot());
        if target != self.session.config() && !self.coordinator.has_pending() {
            out.control.push(self.coordinator.propose(target));
        }
        out
    }

    /// Close the socket.
    pub fn close(&mut self) {
        self.state = SocketState::Closed;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{CommunicationMode, Reliability};
    use crate::session::{ACK_TIMER_TAG, TRANSPORT_LAYER};

    /// Carry every data segment and control message from `from`'s output into
    /// `to`, returning `to`'s cumulative response.
    fn shuttle(out: &SocketOutput, to: &mut Socket, now: u64) -> SocketOutput {
        let mut response = SocketOutput::default();
        for seg in &out.data {
            response.merge(to.on_data(seg.clone(), now));
        }
        for ctrl in &out.control {
            response.merge(to.on_control(*ctrl));
        }
        response
    }

    #[test]
    fn open_picks_table1_configuration() {
        let s = Socket::open(Scheme::Asynchronous, ConnectionType::InterCluster);
        assert_eq!(s.config().mode, CommunicationMode::Asynchronous);
        assert_eq!(s.config().reliability, Reliability::Unreliable);
        let s2 = Socket::open(Scheme::Synchronous, ConnectionType::IntraCluster);
        assert_eq!(s2.config().mode, CommunicationMode::Synchronous);
        assert_eq!(s2.config().reliability, Reliability::Reliable);
    }

    #[test]
    fn data_flows_between_two_sockets() {
        let mut a = Socket::open(Scheme::Synchronous, ConnectionType::IntraCluster);
        let mut b = Socket::open(Scheme::Synchronous, ConnectionType::IntraCluster);
        let (seq, out_a) = a.send(Bytes::from_static(b"block 17"), 1_000);
        shuttle(&out_a, &mut b, 2_000);
        assert_eq!(b.receive().unwrap().as_ref(), b"block 17");
        assert!(b.receive().is_none());
        // The ack B owes — here on its delayed-ack timer, with no data of
        // its own to ride on — completes A's synchronous send.
        let out_b = b.on_timer(TRANSPORT_LAYER, ACK_TIMER_TAG, 2_500);
        let out_a2 = shuttle(&out_b, &mut a, 3_000);
        assert_eq!(out_a2.completions, vec![seq]);
        assert_eq!(a.sent_segments(), (1, 0));
        assert_eq!(b.sent_segments(), (0, 1));
    }

    #[test]
    fn same_send_call_changes_mode_after_context_change() {
        // The paper: "the same P2P_Send from peer A to peer B ... can be first
        // synchronous and then become asynchronous" when the context changes.
        let mut a = Socket::open(Scheme::Hybrid, ConnectionType::IntraCluster);
        let mut b = Socket::open(Scheme::Hybrid, ConnectionType::IntraCluster);
        assert_eq!(a.config().mode, CommunicationMode::Synchronous);

        // First send: synchronous semantics (no immediate completion).
        let (_, out1) = a.send(Bytes::from_static(b"v1"), 1);
        assert!(out1.completions.is_empty());
        let _ = shuttle(&out1, &mut b, 2);

        // Topology change: the peer is now reached across clusters.
        let reconfig = a.set_option(SocketOption::Connection(ConnectionType::InterCluster));
        assert_eq!(
            reconfig.control.len(),
            1,
            "a reconfiguration proposal is sent"
        );
        // B processes the proposal, applies and accepts; A applies on accept.
        let b_reply = shuttle(&reconfig, &mut b, 3);
        assert_eq!(b.config().mode, CommunicationMode::Asynchronous);
        let _ = shuttle(&b_reply, &mut a, 4);
        assert_eq!(a.config().mode, CommunicationMode::Asynchronous);

        // Second send through the *same* API call: now asynchronous.
        let (seq2, out2) = a.send(Bytes::from_static(b"v2"), 5);
        assert_eq!(out2.completions, vec![seq2]);
        let _ = shuttle(&out2, &mut b, 6);
        assert_eq!(b.receive().unwrap().as_ref(), b"v1");
        assert_eq!(b.receive().unwrap().as_ref(), b"v2");

        // And back: the peer is local again, the channel synchronous and
        // ordered again — from where delivery stands, in both directions.
        let reconfig = a.set_option(SocketOption::Connection(ConnectionType::IntraCluster));
        let b_reply = shuttle(&reconfig, &mut b, 7);
        let _ = shuttle(&b_reply, &mut a, 8);
        assert_eq!(a.config(), b.config());
        assert_eq!(a.config().mode, CommunicationMode::Synchronous);
        assert!(a.config().ordered);
        let v3 = |tx: &mut Socket, rx: &mut Socket| {
            let (seq3, out3) = tx.send(Bytes::from_static(b"v3"), 9);
            assert!(out3.completions.is_empty());
            shuttle(&out3, rx, 10);
            let acks = rx.on_timer(TRANSPORT_LAYER, ACK_TIMER_TAG, 10);
            assert_eq!(rx.receive().unwrap().as_ref(), b"v3");
            assert_eq!(shuttle(&acks, tx, 11).completions, vec![seq3]);
        };
        v3(&mut a, &mut b);
        v3(&mut b, &mut a);
    }

    #[test]
    fn no_reconfiguration_when_context_unchanged() {
        let mut a = Socket::open(Scheme::Synchronous, ConnectionType::IntraCluster);
        let out = a.set_option(SocketOption::Scheme(Scheme::Synchronous));
        assert!(out.control.is_empty());
        assert!(a.maybe_reconfigure().control.is_empty());
    }

    #[test]
    #[should_panic(expected = "socket is closed")]
    fn send_on_closed_socket_panics() {
        let mut a = Socket::open(Scheme::Synchronous, ConnectionType::IntraCluster);
        a.close();
        let _ = a.send(Bytes::from_static(b"x"), 1);
    }

    #[test]
    fn rtt_observations_feed_the_monitor() {
        let mut a = Socket::open(Scheme::Asynchronous, ConnectionType::InterCluster);
        a.monitor_mut().observe_rtt(0.1);
        a.monitor_mut().observe_rtt(0.2);
        assert!(a.monitor_mut().snapshot().srtt.unwrap() > 0.09);
    }
}
