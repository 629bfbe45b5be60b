//! Execution tracing.
//!
//! When enabled, the engine records a bounded log of structural events —
//! message deliveries, timer firings, actor spawns and kills, dead
//! letters — that tests and debuggers can inspect. Because the engine is
//! deterministic, a trace doubles as a golden record: identical seeds must
//! produce identical traces.

use std::collections::VecDeque;
use std::fmt::{self, Write as _};

use crate::engine::ActorId;
use crate::net::NodeId;
use crate::time::SimTime;

/// One recorded engine event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// An actor was spawned on a node.
    Spawned {
        /// The new actor.
        actor: ActorId,
        /// Its node.
        node: NodeId,
    },
    /// An actor was killed.
    Killed {
        /// The dead actor.
        actor: ActorId,
    },
    /// A message was delivered.
    Delivered {
        /// Sender.
        src: ActorId,
        /// Receiver.
        dst: ActorId,
    },
    /// A message addressed a dead actor.
    DeadLetter {
        /// Sender.
        src: ActorId,
        /// The dead destination.
        dst: ActorId,
    },
    /// A timer fired.
    TimerFired {
        /// The actor whose timer fired.
        actor: ActorId,
        /// The token it was scheduled with.
        token: u64,
    },
    /// A node crashed (fault injection): its actors died and their pending
    /// timers were cancelled.
    NodeDown {
        /// The crashed node.
        node: NodeId,
    },
    /// A crashed node came back up (its former actors stay dead; recovery
    /// layers spawn replacements).
    NodeUp {
        /// The restarted node.
        node: NodeId,
    },
    /// A message was dropped because its destination node was down or
    /// partitioned away from the sender.
    Unreachable {
        /// Sender.
        src: ActorId,
        /// The unreachable destination.
        dst: ActorId,
    },
}

/// A timestamped trace entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

impl fmt::Display for TraceEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ", self.at)?;
        match &self.event {
            TraceEvent::Spawned { actor, node } => write!(f, "spawn {actor} on {node}"),
            TraceEvent::Killed { actor } => write!(f, "kill {actor}"),
            TraceEvent::Delivered { src, dst } => write!(f, "deliver {src} -> {dst}"),
            TraceEvent::DeadLetter { src, dst } => write!(f, "dead-letter {src} -> {dst}"),
            TraceEvent::TimerFired { actor, token } => write!(f, "timer {actor} token={token}"),
            TraceEvent::NodeDown { node } => write!(f, "node-down {node}"),
            TraceEvent::NodeUp { node } => write!(f, "node-up {node}"),
            TraceEvent::Unreachable { src, dst } => write!(f, "unreachable {src} -> {dst}"),
        }
    }
}

/// A bounded event log. Disabled (and free) by default.
#[derive(Debug, Default)]
pub struct Trace {
    enabled: bool,
    capacity: usize,
    entries: VecDeque<TraceEntry>,
    dropped: u64,
}

impl Trace {
    /// Creates a disabled trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Enables recording, keeping at most `capacity` most-recent entries.
    pub fn enable(&mut self, capacity: usize) {
        self.enabled = true;
        self.capacity = capacity.max(1);
    }

    /// Disables recording (existing entries are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Returns `true` if recording.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an entry (a no-op while disabled), evicting the oldest one
    /// at capacity. The engine records every structural event it executes.
    pub fn record(&mut self, at: SimTime, event: TraceEvent) {
        if !self.enabled {
            return;
        }
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
            self.dropped += 1;
        }
        self.entries.push_back(TraceEntry { at, event });
    }

    /// The recorded entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &TraceEntry> {
        self.entries.iter()
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Entries evicted by the capacity bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Renders the whole trace, one entry per line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.entries {
            writeln!(out, "{e}").expect("writing to a String never fails");
        }
        out
    }

    /// Clears retained entries (the drop counter survives).
    pub fn clear(&mut self) {
        self.entries.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(nanos: u64, token: u64) -> (SimTime, TraceEvent) {
        (
            SimTime::from_nanos(nanos),
            TraceEvent::TimerFired {
                actor: ActorId::from_raw(1),
                token,
            },
        )
    }

    #[test]
    fn disabled_trace_records_nothing() {
        let mut t = Trace::new();
        let (at, ev) = entry(1, 1);
        t.record(at, ev);
        assert!(t.is_empty());
        assert!(!t.is_enabled());
    }

    #[test]
    fn capacity_bound_evicts_oldest() {
        let mut t = Trace::new();
        t.enable(3);
        for i in 0..5 {
            let (at, ev) = entry(i, i);
            t.record(at, ev);
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let first = t.entries().next().expect("nonempty");
        assert_eq!(first.at, SimTime::from_nanos(2));
    }

    #[test]
    fn render_is_line_per_entry() {
        let mut t = Trace::new();
        t.enable(10);
        t.record(
            SimTime::ZERO,
            TraceEvent::Spawned {
                actor: ActorId::from_raw(3),
                node: NodeId::from_raw(1),
            },
        );
        t.record(
            SimTime::from_nanos(5),
            TraceEvent::DeadLetter {
                src: ActorId::from_raw(3),
                dst: ActorId::from_raw(9),
            },
        );
        let s = t.render();
        assert_eq!(s.lines().count(), 2);
        assert!(s.contains("spawn actor:3"));
        assert!(s.contains("dead-letter"));
    }

    #[test]
    fn clear_keeps_drop_count() {
        let mut t = Trace::new();
        t.enable(1);
        for i in 0..3 {
            let (at, ev) = entry(i, i);
            t.record(at, ev);
        }
        assert_eq!(t.dropped(), 2);
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 2);
    }
}
