//! The simulation engine: pops events in order and hands them to a handler,
//! which may schedule more events.
//!
//! The engine is generic over the event payload `E`; the composition layer
//! (`bobw-core`) defines one enum covering BGP, data-plane and DNS events
//! and dispatches in its [`Handler`] implementation.

use crate::queue::EventQueue;
use crate::time::{SimDuration, SimTime};

/// Implemented by the simulation's dispatch layer.
pub trait Handler<E> {
    /// Processes one event at time `now`, scheduling follow-ups via `sched`.
    fn handle(&mut self, now: SimTime, event: E, sched: &mut Scheduler<'_, E>);
}

/// Restricted view of the engine handed to handlers: scheduling only, so a
/// handler cannot pop events or rewind the clock.
pub struct Scheduler<'a, E> {
    now: SimTime,
    queue: &'a mut EventQueue<E>,
}

impl<'a, E> Scheduler<'a, E> {
    /// The current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedules `event` after `delay`.
    pub fn after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
    }

    /// Schedules `event` at absolute time `at`; clamps to `now` if `at` is
    /// in the past (zero-delay processing rather than time travel).
    pub fn at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
    }
}

/// Outcome of [`Engine::run_until`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// The queue drained before the deadline; time is at the last event.
    Idle,
    /// The deadline was reached with events still pending.
    DeadlineReached,
    /// The event budget was exhausted (runaway protection).
    BudgetExhausted,
}

/// A discrete-event engine over payload type `E`.
pub struct Engine<E> {
    queue: EventQueue<E>,
    now: SimTime,
    processed: u64,
    peak_pending: usize,
}

impl<E> Default for Engine<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> Engine<E> {
    pub fn new() -> Engine<E> {
        Engine {
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            processed: 0,
            peak_pending: 0,
        }
    }

    /// An engine whose queue reserves slab pages for `cap` pending events
    /// up front (see [`EventQueue::with_capacity`]); scheduling order and
    /// results are unaffected.
    pub fn with_capacity(cap: usize) -> Engine<E> {
        Engine {
            queue: EventQueue::with_capacity(cap),
            now: SimTime::ZERO,
            processed: 0,
            peak_pending: 0,
        }
    }

    /// Pending events the queue's slab holds before it adds a page.
    pub fn queue_capacity(&self) -> usize {
        self.queue.capacity()
    }

    /// Current simulated time (time of the last processed event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Number of pending events.
    pub fn pending(&self) -> usize {
        self.queue.len()
    }

    /// High-water mark of the pending queue over the engine's lifetime.
    /// Sampled after every externally scheduled event and every handler
    /// step, so it reflects the depth the run loop actually saw. Feeds the
    /// per-cell perf instrumentation of the experiment runner.
    pub fn peak_pending(&self) -> usize {
        self.peak_pending
    }

    fn note_depth(&mut self) {
        self.peak_pending = self.peak_pending.max(self.queue.len());
    }

    /// Schedules an event at absolute time `at` (clamped to `now`).
    pub fn schedule_at(&mut self, at: SimTime, event: E) {
        self.queue.push(at.max(self.now), event);
        self.note_depth();
    }

    /// Schedules an event `delay` after the current time.
    pub fn schedule_after(&mut self, delay: SimDuration, event: E) {
        self.queue.push(self.now + delay, event);
        self.note_depth();
    }

    /// Runs until the queue is empty, the next event is later than
    /// `deadline`, or `max_events` have been processed. Events *at* the
    /// deadline still run.
    pub fn run_until<H: Handler<E>>(
        &mut self,
        handler: &mut H,
        deadline: SimTime,
        max_events: u64,
    ) -> StepOutcome {
        let mut budget = max_events;
        loop {
            let t = match self.queue.peek_time() {
                None => {
                    // Draining before a *finite* deadline still advances
                    // the clock to it: "run until T" guarantees now >= T,
                    // so callers can schedule follow-up work at absolute
                    // times past quiet periods (e.g. multi-day lifecycles).
                    if deadline < SimTime::FAR_FUTURE {
                        self.now = self.now.max(deadline);
                    }
                    return StepOutcome::Idle;
                }
                Some(t) if t > deadline => {
                    // Advance the clock to the deadline so callers observe
                    // a consistent "now" (e.g. probing windows that end
                    // while BGP timers are still pending).
                    self.now = deadline;
                    return StepOutcome::DeadlineReached;
                }
                Some(t) => t,
            };
            if budget == 0 {
                return StepOutcome::BudgetExhausted;
            }
            // One wakeup drains the whole same-timestamp run (FIFO by
            // insertion seq — including events a handler schedules *at* `t`
            // while the run is draining), so deadline/idle checks are paid
            // once per distinct timestamp, not once per event. Processing
            // order is exactly the (time, seq) order the per-event loop had.
            while budget > 0 {
                let Some((at, ev)) = self.queue.pop_if_at(t) else {
                    break;
                };
                budget -= 1;
                debug_assert!(at >= self.now, "event queue went backwards");
                self.now = at;
                self.processed += 1;
                let mut sched = Scheduler {
                    now: self.now,
                    queue: &mut self.queue,
                };
                handler.handle(at, ev, &mut sched);
                self.note_depth();
            }
        }
    }

    /// Runs until idle with an event budget; convenience for convergence
    /// ("wait one hour" in the paper becomes "run to idle").
    pub fn run_to_idle<H: Handler<E>>(&mut self, handler: &mut H, max_events: u64) -> StepOutcome {
        self.run_until(handler, SimTime::FAR_FUTURE, max_events)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A handler that records processing order and optionally re-schedules.
    struct Recorder {
        seen: Vec<(u64, u32)>,
        chain: u32,
    }

    impl Handler<u32> for Recorder {
        fn handle(&mut self, now: SimTime, event: u32, sched: &mut Scheduler<'_, u32>) {
            self.seen.push((now.as_nanos(), event));
            if event < self.chain {
                sched.after(SimDuration::from_secs(1), event + 1);
            }
        }
    }

    #[test]
    fn chain_of_events_advances_time() {
        let mut eng = Engine::new();
        let mut h = Recorder {
            seen: vec![],
            chain: 3,
        };
        eng.schedule_at(SimTime::from_secs(1), 0);
        assert_eq!(eng.run_to_idle(&mut h, 1000), StepOutcome::Idle);
        let times: Vec<u64> = h.seen.iter().map(|(t, _)| *t / 1_000_000_000).collect();
        assert_eq!(times, vec![1, 2, 3, 4]);
        assert_eq!(eng.now(), SimTime::from_secs(4));
        assert_eq!(eng.processed(), 4);
    }

    #[test]
    fn deadline_stops_and_clamps_clock() {
        let mut eng = Engine::new();
        let mut h = Recorder {
            seen: vec![],
            chain: 0,
        };
        eng.schedule_at(SimTime::from_secs(1), 1);
        eng.schedule_at(SimTime::from_secs(10), 2);
        let out = eng.run_until(&mut h, SimTime::from_secs(5), 1000);
        assert_eq!(out, StepOutcome::DeadlineReached);
        assert_eq!(h.seen.len(), 1);
        assert_eq!(eng.now(), SimTime::from_secs(5));
        assert_eq!(eng.pending(), 1);
        // Resuming picks up the remaining event.
        let out = eng.run_to_idle(&mut h, 1000);
        assert_eq!(out, StepOutcome::Idle);
        assert_eq!(h.seen.len(), 2);
    }

    #[test]
    fn event_at_deadline_still_runs() {
        let mut eng = Engine::new();
        let mut h = Recorder {
            seen: vec![],
            chain: 0,
        };
        eng.schedule_at(SimTime::from_secs(5), 7);
        let out = eng.run_until(&mut h, SimTime::from_secs(5), 1000);
        assert_eq!(out, StepOutcome::Idle);
        assert_eq!(h.seen, vec![(5_000_000_000, 7)]);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        struct Perpetual;
        impl Handler<()> for Perpetual {
            fn handle(&mut self, _now: SimTime, _e: (), sched: &mut Scheduler<'_, ()>) {
                sched.after(SimDuration::from_secs(1), ());
            }
        }
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, ());
        assert_eq!(
            eng.run_to_idle(&mut Perpetual, 100),
            StepOutcome::BudgetExhausted
        );
        assert_eq!(eng.processed(), 100);
    }

    #[test]
    fn schedule_in_past_clamps_to_now() {
        struct PastScheduler {
            fired: bool,
        }
        impl Handler<u8> for PastScheduler {
            fn handle(&mut self, now: SimTime, e: u8, sched: &mut Scheduler<'_, u8>) {
                if e == 0 {
                    // Absolute time in the past; must clamp, not panic.
                    sched.at(SimTime::ZERO, 1);
                    assert_eq!(sched.now(), now);
                } else {
                    self.fired = true;
                }
            }
        }
        let mut eng = Engine::new();
        let mut h = PastScheduler { fired: false };
        eng.schedule_at(SimTime::from_secs(3), 0);
        eng.run_to_idle(&mut h, 10);
        assert!(h.fired);
        assert_eq!(eng.now(), SimTime::from_secs(3));
    }

    #[test]
    fn idle_with_finite_deadline_advances_clock() {
        struct Nop;
        impl Handler<u8> for Nop {
            fn handle(&mut self, _: SimTime, _: u8, _: &mut Scheduler<'_, u8>) {}
        }
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), 0);
        // Queue drains at t=1; the finite deadline still pulls now to t=10.
        assert_eq!(
            eng.run_until(&mut Nop, SimTime::from_secs(10), 100),
            StepOutcome::Idle
        );
        assert_eq!(eng.now(), SimTime::from_secs(10));
        // run_to_idle (infinite deadline) must NOT move the clock.
        assert_eq!(eng.run_to_idle(&mut Nop, 100), StepOutcome::Idle);
        assert_eq!(eng.now(), SimTime::from_secs(10));
    }

    #[test]
    fn peak_pending_tracks_high_water_mark() {
        struct Nop;
        impl Handler<u8> for Nop {
            fn handle(&mut self, _: SimTime, _: u8, _: &mut Scheduler<'_, u8>) {}
        }
        let mut eng: Engine<u8> = Engine::new();
        eng.schedule_at(SimTime::from_secs(1), 0);
        eng.schedule_at(SimTime::from_secs(2), 1);
        eng.schedule_at(SimTime::from_secs(3), 2);
        assert_eq!(eng.peak_pending(), 3);
        eng.run_to_idle(&mut Nop, 10);
        // Draining never lowers the high-water mark.
        assert_eq!(eng.pending(), 0);
        assert_eq!(eng.peak_pending(), 3);
    }

    #[test]
    fn peak_pending_sees_handler_fanout() {
        /// Schedules `n` follow-ups the first time it runs.
        struct FanOut(u32);
        impl Handler<u32> for FanOut {
            fn handle(&mut self, _now: SimTime, event: u32, sched: &mut Scheduler<'_, u32>) {
                if event == 0 {
                    for i in 0..self.0 {
                        sched.after(SimDuration::from_secs(1 + i as u64), 1);
                    }
                }
            }
        }
        let mut eng = Engine::new();
        eng.schedule_at(SimTime::ZERO, 0u32);
        eng.run_to_idle(&mut FanOut(5), 100);
        assert_eq!(eng.peak_pending(), 5);
    }

    #[test]
    fn with_capacity_changes_nothing_but_the_allocation() {
        /// Deterministic little workload: each event < 8 fans out two
        /// follow-ups, recording everything it sees.
        struct Fan {
            seen: Vec<(u64, u32)>,
        }
        impl Handler<u32> for Fan {
            fn handle(&mut self, now: SimTime, e: u32, sched: &mut Scheduler<'_, u32>) {
                self.seen.push((now.as_nanos(), e));
                if e < 8 {
                    sched.after(SimDuration::from_secs(1), e * 2 + 1);
                    sched.after(SimDuration::from_secs(2), e * 2 + 2);
                }
            }
        }
        let run = |mut eng: Engine<u32>| {
            let mut h = Fan { seen: vec![] };
            eng.schedule_at(SimTime::ZERO, 0);
            eng.run_to_idle(&mut h, 1000);
            (h.seen, eng.processed(), eng.now(), eng.peak_pending())
        };
        let cold = run(Engine::new());
        let warm = run(Engine::with_capacity(cold.3));
        assert_eq!(warm, cold, "preallocation must not change behavior");

        let eng: Engine<u32> = Engine::with_capacity(32);
        assert!(eng.queue_capacity() >= 32);
    }

    #[test]
    fn empty_engine_is_idle() {
        let mut eng: Engine<()> = Engine::new();
        struct Nop;
        impl Handler<()> for Nop {
            fn handle(&mut self, _: SimTime, _: (), _: &mut Scheduler<'_, ()>) {}
        }
        assert_eq!(eng.run_to_idle(&mut Nop, 10), StepOutcome::Idle);
        assert_eq!(eng.now(), SimTime::ZERO);
    }
}
