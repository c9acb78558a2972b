//! A host-clock stamping trace sink.
//!
//! Every event the runtime and the simulated devices already emit is
//! stamped with `Instant::now()` on arrival and forwarded unchanged to the
//! program's own sinks (`trace::Recorder`, `telemetry::TelemetryCollector`).
//! Request milestones move a serve window between three host stages, and
//! the time between consecutive stamps is charged to the stage in force,
//! so the stages partition the window's wall time exactly:
//!
//! * **admit** — from `Enqueue` or `BatchJoin` to the cache outcome
//!   (`CacheHit`/`CacheMiss`): fingerprint, plan lookup or build, and the
//!   functional execution of the kernel. A fused batch has no cache
//!   outcome, so its execution stays in admit until its `Dispatch`.
//! * **replay** — from the cache outcome to `Dispatch`: placing the
//!   measured launch on the simulated device timeline.
//! * **complete** — from `Dispatch` to the next `Enqueue`: completion
//!   bookkeeping, and after the last request, the serve's aggregation.
//!
//! The time before the first event of a window (request sorting) counts
//! as admit.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use trace::{RequestPhase, TraceEvent, TraceSink};

/// A host stage of one serve window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Admission through functional execution.
    Admit = 0,
    /// Device-timeline replay.
    Replay = 1,
    /// Completion bookkeeping.
    Complete = 2,
}

/// The stage an event opens, if it opens one.
pub fn stage_opened_by(ev: &TraceEvent) -> Option<Stage> {
    match ev {
        TraceEvent::Request { phase, .. } => match phase {
            RequestPhase::Enqueue | RequestPhase::BatchJoin => Some(Stage::Admit),
            RequestPhase::CacheHit | RequestPhase::CacheMiss => Some(Stage::Replay),
            _ => None,
        },
        TraceEvent::Dispatch { .. } => Some(Stage::Complete),
        _ => None,
    }
}

/// Per-stage host time of one window, indexed by [`Stage`].
pub type StageTimes = [Duration; 3];

/// Charges the time between consecutive stamps to the stage in force.
#[derive(Debug, Default)]
pub struct StageClock {
    open: Option<(Instant, Stage)>,
    totals: StageTimes,
}

impl StageClock {
    /// Open a window at `at`; time until the first event counts as admit.
    pub fn begin(&mut self, at: Instant) {
        self.totals = StageTimes::default();
        self.open = Some((at, Stage::Admit));
    }

    /// Charge the time since the last stamp, then switch to the stage the
    /// event opens (if any). Events outside an open window are ignored.
    pub fn observe(&mut self, opens: Option<Stage>, at: Instant) {
        if let Some((last, stage)) = self.open {
            self.totals[stage as usize] += at.saturating_duration_since(last);
            self.open = Some((at, opens.unwrap_or(stage)));
        }
    }

    /// Close the window at `at` and return its per-stage times.
    pub fn end(&mut self, at: Instant) -> StageTimes {
        self.observe(None, at);
        self.open = None;
        std::mem::take(&mut self.totals)
    }
}

/// The benchmark's sink: stamps every event, attributes serve-window
/// stages, and forwards to the program's sinks.
#[derive(Debug)]
pub struct StampSink {
    clock: Mutex<StageClock>,
    events: AtomicU64,
    downstream: Vec<Arc<dyn TraceSink>>,
}

impl StampSink {
    /// A sink fanned out to a fresh `Recorder` and `TelemetryCollector`.
    pub fn with_program_sinks() -> Self {
        Self {
            clock: Mutex::new(StageClock::default()),
            events: AtomicU64::new(0),
            downstream: vec![
                Arc::new(trace::Recorder::new()),
                Arc::new(telemetry::TelemetryCollector::default()),
            ],
        }
    }

    /// Time `f` as one serve window and return its result, its wall time
    /// and the wall time's partition into stages.
    pub fn window<R>(&self, f: impl FnOnce() -> R) -> (R, Duration, StageTimes) {
        let t0 = Instant::now();
        self.clock.lock().expect("stage clock poisoned").begin(t0);
        let out = f();
        let t1 = Instant::now();
        let stages = self.clock.lock().expect("stage clock poisoned").end(t1);
        (out, t1 - t0, stages)
    }

    /// Events stamped so far.
    pub fn events(&self) -> u64 {
        self.events.load(Ordering::Relaxed)
    }
}

impl TraceSink for StampSink {
    fn event(&self, ev: &TraceEvent) {
        // Stamp under the lock so stamps stay monotonic in arrival order.
        let mut clock = self.clock.lock().expect("stage clock poisoned");
        clock.observe(stage_opened_by(ev), Instant::now());
        drop(clock);
        self.events.fetch_add(1, Ordering::Relaxed);
        for sink in &self.downstream {
            sink.event(ev);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(phase: RequestPhase) -> TraceEvent {
        TraceEvent::Request {
            id: 0,
            phase,
            ts_ms: 0.0,
        }
    }

    fn dispatch() -> TraceEvent {
        TraceEvent::Dispatch {
            id: 0,
            device: 0,
            stream: 0,
            start_ms: 0.0,
            end_ms: 0.0,
            batched: false,
        }
    }

    #[test]
    fn stages_partition_a_synthetic_window() {
        let t0 = Instant::now();
        let ms = |n: u64| t0 + Duration::from_millis(n);
        let counter = TraceEvent::Counter {
            counter: trace::CounterKind::QueueDepth,
            ts_ms: 0.0,
            value: 0.0,
        };
        // (event, stamp in ms): a solo request, then a two-member batch
        // whose fused launch has no cache outcome.
        let script = [
            (request(RequestPhase::Enqueue), 2),    // 0..2 admit (sorting)
            (counter, 3),                           // 2..3 admit
            (request(RequestPhase::CacheMiss), 10), // 3..10 admit
            (dispatch(), 14),                       // 10..14 replay
            (request(RequestPhase::Enqueue), 15),   // 14..15 complete
            (request(RequestPhase::BatchJoin), 16), // 15..16 admit
            (request(RequestPhase::Enqueue), 17),   // 16..17 admit
            (request(RequestPhase::BatchJoin), 18), // 17..18 admit
            (dispatch(), 30),                       // 18..30 admit (fused run)
            (dispatch(), 31),                       // 30..31 complete
        ];
        let mut clock = StageClock::default();
        clock.begin(t0);
        for (ev, at) in &script {
            clock.observe(stage_opened_by(ev), ms(*at));
        }
        let stages = clock.end(ms(40)); // 31..40 complete (aggregation)
        assert_eq!(
            stages[Stage::Admit as usize],
            Duration::from_millis(2 + 1 + 7 + 1 + 1 + 1 + 12)
        );
        assert_eq!(stages[Stage::Replay as usize], Duration::from_millis(4));
        assert_eq!(
            stages[Stage::Complete as usize],
            Duration::from_millis(1 + 1 + 9)
        );
        assert_eq!(stages.iter().sum::<Duration>(), Duration::from_millis(40));
    }

    #[test]
    fn events_outside_a_window_are_not_charged() {
        let t0 = Instant::now();
        let mut clock = StageClock::default();
        clock.observe(Some(Stage::Replay), t0 + Duration::from_millis(5));
        clock.begin(t0 + Duration::from_millis(10));
        let stages = clock.end(t0 + Duration::from_millis(13));
        assert_eq!(
            stages,
            [Duration::from_millis(3), Duration::ZERO, Duration::ZERO]
        );
    }

    #[test]
    fn sink_window_partitions_its_wall_time() {
        let sink = StampSink::with_program_sinks();
        let ((), wall, stages) = sink.window(|| {
            sink.event(&request(RequestPhase::Enqueue));
            sink.event(&request(RequestPhase::CacheHit));
            sink.event(&dispatch());
        });
        assert_eq!(stages.iter().sum::<Duration>(), wall);
        assert_eq!(sink.events(), 3);
    }
}
