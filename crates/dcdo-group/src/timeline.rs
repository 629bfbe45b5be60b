//! The epoch timeline: a per-group table of proposals, commits, and
//! replica adoptions reconstructed from a span log — the view
//! `dcdo-inspect epochs` renders.

use dcdo_sim::{SpanEvent, SpanKind};

/// What happened at one point of a group's epoch history.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EpochEventKind {
    /// A round was proposed (value = joined-delta digest).
    Proposed,
    /// A round committed (value = config digest).
    Committed,
    /// A replica adopted the epoch (value = replica id).
    Adopted,
}

/// One row of the timeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochEvent {
    /// Nanoseconds since simulation start.
    pub at_ns: u64,
    /// The group.
    pub group: u64,
    /// The epoch concerned.
    pub epoch: u64,
    /// What happened.
    pub kind: EpochEventKind,
    /// Kind-specific value (see [`EpochEventKind`]).
    pub value: u64,
}

/// Extracts the epoch timeline from a span log, in log order (the log is
/// already deterministically ordered, so the table is replay-stable).
pub fn epoch_timeline(events: &[SpanEvent]) -> Vec<EpochEvent> {
    let mut out = Vec::new();
    for e in events {
        let (group, epoch, kind, value) = match e.kind {
            SpanKind::EpochProposed {
                group,
                epoch,
                config,
            } => (group, u64::from(epoch), EpochEventKind::Proposed, config),
            SpanKind::EpochCommitted {
                group,
                epoch,
                config,
            } => (group, u64::from(epoch), EpochEventKind::Committed, config),
            SpanKind::ReplicaEpoch {
                group,
                replica,
                epoch,
            } => (group, epoch, EpochEventKind::Adopted, u64::from(replica)),
            _ => continue,
        };
        out.push(EpochEvent {
            at_ns: e.at_ns,
            group,
            epoch,
            kind,
            value,
        });
    }
    out
}

/// Renders the timeline as a fixed-width table.
pub fn render_timeline(rows: &[EpochEvent]) -> String {
    let mut s = String::new();
    s.push_str(&format!(
        "{:>14}  {:>6}  {:>6}  {:<10}  {}\n",
        "t (ns)", "group", "epoch", "event", "value"
    ));
    for r in rows {
        let (kind, value) = match r.kind {
            EpochEventKind::Proposed => ("proposed", format!("delta={:016x}", r.value)),
            EpochEventKind::Committed => ("committed", format!("config={:016x}", r.value)),
            EpochEventKind::Adopted => ("adopted", format!("replica={}", r.value)),
        };
        s.push_str(&format!(
            "{:>14}  {:>6}  {:>6}  {:<10}  {}\n",
            r.at_ns, r.group, r.epoch, kind, value
        ));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdo_sim::TraceLog;

    #[test]
    fn timeline_extracts_epoch_events_in_log_order() {
        let mut log = TraceLog::new();
        log.enable();
        log.emit(
            10,
            0,
            None,
            SpanKind::EpochProposed {
                group: 7,
                epoch: 1,
                config: 0xabc,
            },
        );
        log.emit(
            20,
            0,
            None,
            SpanKind::EpochCommitted {
                group: 7,
                epoch: 1,
                config: 0xdef,
            },
        );
        log.emit(
            30,
            1,
            None,
            SpanKind::ReplicaEpoch {
                group: 7,
                replica: 2,
                epoch: 1,
            },
        );
        log.emit(35, 1, None, SpanKind::NodeCrashed { node: 3 });
        let rows = epoch_timeline(log.events());
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].kind, EpochEventKind::Proposed);
        assert_eq!(rows[1].kind, EpochEventKind::Committed);
        assert_eq!(rows[2].kind, EpochEventKind::Adopted);
        assert_eq!(rows[2].value, 2);
        let table = render_timeline(&rows);
        assert!(table.contains("committed"));
        assert!(table.contains("replica=2"));
    }
}
