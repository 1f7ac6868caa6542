//! The simulation scheduler: owns the clock, the event queue, the processes
//! and drives handler execution.

use crate::event::{EventId, EventKind, EventQueue, Payload, TimerId};
use crate::process::{Process, ProcessId};
use crate::rng::RngFactory;
use crate::time::{SimDuration, SimTime};
use crate::trace::Tracer;
use rand_chacha::ChaCha8Rng;

/// Outcome of a call to [`Simulator::run`] / [`Simulator::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained completely.
    QueueEmpty,
    /// A halt event was processed or a process requested a halt.
    Halted,
    /// The time / event-count limit was reached before the queue drained.
    LimitReached,
}

/// Handle through which process callbacks interact with the simulator.
pub struct Context<'a> {
    now: SimTime,
    me: ProcessId,
    queue: &'a mut EventQueue,
    rng: &'a mut ChaCha8Rng,
    tracer: &'a mut Tracer,
    halt: &'a mut bool,
    name: &'a str,
}

impl<'a> Context<'a> {
    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Identity of the process whose handler is running.
    pub fn me(&self) -> ProcessId {
        self.me
    }

    /// Deterministic RNG stream private to this process.
    pub fn rng(&mut self) -> &mut ChaCha8Rng {
        self.rng
    }

    /// Send a message delivered at the current instant (after already-queued
    /// events for this instant).
    pub fn send(&mut self, to: ProcessId, payload: Payload) {
        self.send_delayed(to, payload, SimDuration::ZERO);
    }

    /// Send a message delivered after `delay`.
    pub fn send_delayed(&mut self, to: ProcessId, payload: Payload, delay: SimDuration) {
        self.queue.push(
            self.now + delay,
            EventKind::Message {
                from: self.me,
                to,
                payload,
            },
        );
    }

    /// Arm a timer that fires on this process after `delay` with the given tag.
    pub fn set_timer(&mut self, delay: SimDuration, tag: u64) -> TimerId {
        let id = self.queue.push(
            self.now + delay,
            EventKind::Timer {
                to: self.me,
                timer: TimerId(0), // patched below
                tag,
            },
        );
        // The timer id mirrors the event id so cancellation is a plain queue
        // cancellation.
        let timer = TimerId(id.0);
        // Re-push with the correct timer id: cancel the placeholder and push a
        // fresh event. Cheaper: we instead rebuild the event here.
        self.queue.cancel(id);
        let id2 = self.queue.push(
            self.now + delay,
            EventKind::Timer {
                to: self.me,
                timer,
                tag,
            },
        );
        // Keep the externally visible id consistent with the queued event so
        // `cancel_timer` works.
        TimerId(id2.0)
    }

    /// Cancel a previously armed timer. Cancelling an already-fired timer is a
    /// harmless no-op.
    pub fn cancel_timer(&mut self, timer: TimerId) {
        self.queue.cancel(EventId(timer.0));
    }

    /// Stop the simulation after the current handler returns.
    pub fn halt(&mut self) {
        *self.halt = true;
    }

    /// Append a free-form trace record attributed to this process.
    pub fn trace(&mut self, message: impl Into<String>) {
        let now = self.now;
        self.tracer.log(now, self.name, message);
    }

    /// Statistics sink.
    pub fn stats(&mut self) -> &mut Tracer {
        self.tracer
    }
}

/// Deterministic discrete-event simulator.
pub struct Simulator {
    now: SimTime,
    queue: EventQueue,
    processes: Vec<Option<Box<dyn Process>>>,
    names: Vec<String>,
    rngs: Vec<ChaCha8Rng>,
    rng_factory: RngFactory,
    tracer: Tracer,
    halted: bool,
    events_processed: u64,
}

impl Simulator {
    /// Create a simulator with the given master seed (tracing log disabled).
    pub fn new(seed: u64) -> Self {
        Self::with_tracing(seed, false)
    }

    /// Create a simulator, optionally retaining the free-form trace log.
    pub fn with_tracing(seed: u64, log_enabled: bool) -> Self {
        Self {
            now: SimTime::ZERO,
            queue: EventQueue::new(),
            processes: Vec::new(),
            names: Vec::new(),
            rngs: Vec::new(),
            rng_factory: RngFactory::new(seed),
            tracer: Tracer::new(log_enabled),
            halted: false,
            events_processed: 0,
        }
    }

    /// Current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Register a process and schedule its start event at time zero.
    pub fn add_process(&mut self, process: Box<dyn Process>) -> ProcessId {
        self.add_process_at(process, SimTime::ZERO)
    }

    /// Register a process and schedule its start event at `start`.
    pub fn add_process_at(&mut self, process: Box<dyn Process>, start: SimTime) -> ProcessId {
        let id = ProcessId(self.processes.len());
        self.names.push(process.name());
        self.rngs.push(self.rng_factory.stream(id.0 as u64));
        self.processes.push(Some(process));
        self.queue.push(start, EventKind::Start { to: id });
        id
    }

    /// Inject a message from "outside" the simulation, delivered at `at`.
    pub fn inject(&mut self, to: ProcessId, payload: Payload, at: SimTime) {
        self.queue.push(
            at,
            EventKind::Message {
                from: to,
                to,
                payload,
            },
        );
    }

    /// Schedule a halt of the whole simulation at `at`.
    pub fn halt_at(&mut self, at: SimTime) {
        self.queue.push(at, EventKind::Halt);
    }

    /// Read-only access to collected statistics and traces.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Access a process after the run (e.g. to read results). Panics if the
    /// id is unknown.
    pub fn process(&self, id: ProcessId) -> &dyn Process {
        self.processes[id.0]
            .as_deref()
            .expect("process is currently executing")
    }

    fn dispatch(&mut self, ev: crate::event::ScheduledEvent) {
        self.now = ev.time;
        self.events_processed += 1;
        match ev.kind {
            EventKind::Halt => {
                self.halted = true;
            }
            EventKind::Start { to } => {
                self.with_process(to, |proc, ctx| proc.on_start(ctx));
            }
            EventKind::Message { from, to, payload } => {
                self.with_process(to, |proc, ctx| proc.on_message(ctx, from, payload));
            }
            EventKind::Timer { to, timer, tag } => {
                self.with_process(to, |proc, ctx| proc.on_timer(ctx, timer, tag));
            }
        }
    }

    fn with_process<F>(&mut self, id: ProcessId, f: F)
    where
        F: FnOnce(&mut Box<dyn Process>, &mut Context<'_>),
    {
        let idx = id.0;
        if idx >= self.processes.len() {
            return;
        }
        let mut proc = match self.processes[idx].take() {
            Some(p) => p,
            None => return,
        };
        {
            let mut ctx = Context {
                now: self.now,
                me: id,
                queue: &mut self.queue,
                rng: &mut self.rngs[idx],
                tracer: &mut self.tracer,
                halt: &mut self.halted,
                name: &self.names[idx],
            };
            f(&mut proc, &mut ctx);
        }
        self.processes[idx] = Some(proc);
    }

    /// Run until the queue drains or a halt is requested.
    pub fn run(&mut self) -> RunOutcome {
        self.run_with_limits(SimTime::MAX, u64::MAX)
    }

    /// Run until `deadline` (inclusive), the queue drains, or a halt occurs.
    pub fn run_until(&mut self, deadline: SimTime) -> RunOutcome {
        self.run_with_limits(deadline, u64::MAX)
    }

    /// Run with both a virtual-time deadline and an event-count budget.
    pub fn run_with_limits(&mut self, deadline: SimTime, max_events: u64) -> RunOutcome {
        let mut dispatched: u64 = 0;
        loop {
            if self.halted {
                return RunOutcome::Halted;
            }
            if dispatched >= max_events {
                return RunOutcome::LimitReached;
            }
            match self.queue.peek_time() {
                None => return RunOutcome::QueueEmpty,
                Some(t) if t > deadline => return RunOutcome::LimitReached,
                Some(_) => {}
            }
            let ev = self.queue.pop().expect("peeked event disappeared");
            self.dispatch(ev);
            dispatched += 1;
        }
    }

    /// Dispatch at most one event. Returns false if nothing was pending or the
    /// simulation already halted.
    pub fn step(&mut self) -> bool {
        if self.halted {
            return false;
        }
        match self.queue.pop() {
            Some(ev) => {
                self.dispatch(ev);
                true
            }
            None => false,
        }
    }

    /// Number of pending events.
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Echo {
        received: Vec<u64>,
        peer: Option<ProcessId>,
    }

    impl Process for Echo {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            if let Some(peer) = self.peer {
                ctx.send_delayed(peer, Box::new(1u64), SimDuration::from_millis(5));
            }
        }
        fn on_message(&mut self, ctx: &mut Context<'_>, from: ProcessId, payload: Payload) {
            let v = *payload.downcast::<u64>().expect("u64 payload");
            self.received.push(v);
            if v < 3 {
                ctx.send_delayed(from, Box::new(v + 1), SimDuration::from_millis(5));
            }
        }
        fn name(&self) -> String {
            "echo".into()
        }
    }

    #[test]
    fn ping_pong_advances_virtual_time() {
        let mut sim = Simulator::new(1);
        let a = sim.add_process(Box::new(Echo {
            received: vec![],
            peer: None,
        }));
        let _b = sim.add_process(Box::new(Echo {
            received: vec![],
            peer: Some(a),
        }));
        let outcome = sim.run();
        assert_eq!(outcome, RunOutcome::QueueEmpty);
        // messages 1,2,3 bounce: delivered at 5,10,15 ms
        assert_eq!(sim.now(), SimTime::from_nanos(15_000_000));
        assert_eq!(sim.events_processed(), 2 + 3); // 2 starts + 3 messages
    }

    struct TimerProc {
        fired: Vec<u64>,
        cancel_second: bool,
    }

    impl Process for TimerProc {
        fn on_start(&mut self, ctx: &mut Context<'_>) {
            ctx.set_timer(SimDuration::from_millis(1), 10);
            let t2 = ctx.set_timer(SimDuration::from_millis(2), 20);
            if self.cancel_second {
                ctx.cancel_timer(t2);
            }
        }
        fn on_message(&mut self, _ctx: &mut Context<'_>, _from: ProcessId, _payload: Payload) {}
        fn on_timer(&mut self, _ctx: &mut Context<'_>, _timer: TimerId, tag: u64) {
            self.fired.push(tag);
        }
    }

    #[test]
    fn timers_fire_and_cancel() {
        // Because the simulator owns the processes we observe behaviour through
        // counters written by a wrapper; simplest is to re-run twice and check
        // event counts.
        let mut sim = Simulator::new(7);
        sim.add_process(Box::new(TimerProc {
            fired: vec![],
            cancel_second: false,
        }));
        sim.run();
        assert_eq!(sim.events_processed(), 1 + 2); // start + 2 timers

        let mut sim2 = Simulator::new(7);
        sim2.add_process(Box::new(TimerProc {
            fired: vec![],
            cancel_second: true,
        }));
        sim2.run();
        assert_eq!(sim2.events_processed(), 1 + 1); // start + 1 timer
    }

    #[test]
    fn halt_stops_run() {
        let mut sim = Simulator::new(3);
        let a = sim.add_process(Box::new(Echo {
            received: vec![],
            peer: None,
        }));
        // Self-message loop far in the future, but halt earlier.
        sim.inject(a, Box::new(0u64), SimTime::from_secs_f64(10.0));
        sim.halt_at(SimTime::from_secs_f64(1.0));
        let outcome = sim.run();
        assert_eq!(outcome, RunOutcome::Halted);
        assert_eq!(sim.now(), SimTime::from_secs_f64(1.0));
    }

    #[test]
    fn run_until_respects_deadline() {
        let mut sim = Simulator::new(3);
        let a = sim.add_process(Box::new(Echo {
            received: vec![],
            peer: None,
        }));
        sim.inject(a, Box::new(10u64), SimTime::from_secs_f64(2.0));
        let outcome = sim.run_until(SimTime::from_secs_f64(1.0));
        assert_eq!(outcome, RunOutcome::LimitReached);
        assert!(sim.pending_events() > 0);
    }
}
