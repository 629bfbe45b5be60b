//! The trace-invariant checker: replays a finished log and verifies
//! system-wide conformance properties.
//!
//! Seven invariant classes are checked (see DESIGN.md §9 and §14):
//!
//! 1. **Delivery conformance** — no message is delivered to a node that the
//!    trace shows as crashed at delivery time, and no send is planned for
//!    delivery across a traced partition or toward a traced-down node.
//!    (In-flight messages sent *before* a partition may legally land after
//!    it; only the send-time verdict is checked against topology.)
//! 2. **Flow termination** — every flow id starts once and meets one
//!    matching `FlowCompleted` or `FlowAborted`; flows never leak. A flow
//!    whose *owner's* node crashes dies with its actor and is not leaked
//!    (mirroring the retry-chain rule below).
//! 3. **Generation monotonicity** — `GenerationStamp`s are non-decreasing
//!    per object.
//! 4. **Retry-chain resolution** — every call with an `RpcAttempt`
//!    terminates in an `RpcCompleted` (success or a typed fault); chains
//!    never dangle, and no call completes twice. A chain whose *caller's*
//!    node crashes dies with the caller and is not dangling. A completion
//!    with no attempt is legal (legion's binding-query timeouts emit one).
//! 5. **Recovery re-registration** — after a `Recover` flow starts for an
//!    object, the object serves no call until its binding is re-registered.
//! 6. **Epoch monotonicity** — committed epochs are strictly increasing per
//!    group, and each replica's adopted epoch is non-decreasing.
//! 7. **No mixed-epoch serving** — once an epoch commits, no replica of the
//!    group serves at an older epoch (stale replicas are fenced until they
//!    catch up).

use std::fmt;

use crate::hash::IdMap;
use crate::log::TraceLog;
use crate::span::{FlowKind, SpanId, SpanKind};

/// One invariant violation found by [`check`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// A message was delivered to a node the trace shows as crashed.
    DeliveredToDeadNode {
        /// The offending event.
        span: SpanId,
        /// The dead destination node.
        dst_node: u32,
    },
    /// A send was planned for delivery although the traced topology says the
    /// endpoints cannot reach each other.
    SentAcrossFault {
        /// The offending event.
        span: SpanId,
        /// Source node of the send.
        src_node: u32,
        /// Destination node of the send.
        dst_node: u32,
    },
    /// A flow started but never completed or aborted.
    LeakedFlow {
        /// The leaked flow id.
        flow: u64,
        /// The object the flow concerned.
        object: u64,
    },
    /// A flow completed or aborted more than once, or without starting.
    SpuriousFlowEnd {
        /// The offending event.
        span: SpanId,
        /// The flow id.
        flow: u64,
    },
    /// A flow id started a second time.
    DuplicateFlowStart {
        /// The offending event.
        span: SpanId,
        /// The flow id.
        flow: u64,
    },
    /// An object's generation stamp went backwards.
    GenerationRegressed {
        /// The object.
        object: u64,
        /// The previously observed generation.
        from: u64,
        /// The regressed stamp.
        to: u64,
    },
    /// An RPC retry chain never terminated.
    DanglingRetryChain {
        /// The unresolved call id.
        call: u64,
    },
    /// An RPC call completed a second time.
    DuplicateRpcCompletion {
        /// The offending event.
        span: SpanId,
        /// The call id.
        call: u64,
    },
    /// A recovered object served a call before re-registering its binding.
    ServedBeforeReregister {
        /// The offending event.
        span: SpanId,
        /// The object that served too early.
        object: u64,
    },
    /// A group's epoch went backwards: a commit at or below the last
    /// committed epoch, or a replica adopting an epoch below one it already
    /// held.
    EpochRegressed {
        /// The offending event.
        span: SpanId,
        /// The group.
        group: u64,
        /// The previously observed epoch.
        from: u64,
        /// The regressed epoch.
        to: u64,
    },
    /// A replica served a call at an epoch older than the group's committed
    /// epoch: stale replicas must refuse to serve until they catch up.
    MixedEpochServing {
        /// The offending event.
        span: SpanId,
        /// The group.
        group: u64,
        /// The stale-serving replica.
        replica: u64,
        /// The epoch the call was served at.
        serving: u64,
        /// The group's committed epoch at serve time.
        committed: u64,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::DeliveredToDeadNode { span, dst_node } => {
                write!(f, "{span}: delivered to crashed node {dst_node}")
            }
            Violation::SentAcrossFault {
                span,
                src_node,
                dst_node,
            } => write!(
                f,
                "{span}: send {src_node}->{dst_node} planned for delivery across a traced fault"
            ),
            Violation::LeakedFlow { flow, object } => {
                write!(f, "flow {flow} (object {object}) never terminated")
            }
            Violation::SpuriousFlowEnd { span, flow } => {
                write!(f, "{span}: flow {flow} ended without being open")
            }
            Violation::DuplicateFlowStart { span, flow } => {
                write!(f, "{span}: flow {flow} started again")
            }
            Violation::GenerationRegressed { object, from, to } => {
                write!(f, "object {object}: generation regressed {from} -> {to}")
            }
            Violation::DanglingRetryChain { call } => {
                write!(f, "call {call}: retry chain never resolved")
            }
            Violation::DuplicateRpcCompletion { span, call } => {
                write!(f, "{span}: call {call} completed again")
            }
            Violation::ServedBeforeReregister { span, object } => {
                write!(
                    f,
                    "{span}: object {object} served a call before re-registering after recovery"
                )
            }
            Violation::EpochRegressed {
                span,
                group,
                from,
                to,
            } => {
                write!(f, "{span}: group {group}: epoch regressed {from} -> {to}")
            }
            Violation::MixedEpochServing {
                span,
                group,
                replica,
                serving,
                committed,
            } => write!(
                f,
                "{span}: group {group} replica {replica} served at epoch {serving} \
                 after epoch {committed} committed"
            ),
        }
    }
}

/// Replayed topology state: which nodes are down and how they are grouped.
#[derive(Default)]
struct Topology {
    /// Indexed by node; nodes past the end are up.
    down: Vec<bool>,
    groups: Vec<u32>,
}

impl Topology {
    fn is_down(&self, node: u32) -> bool {
        self.down.get(node as usize).copied().unwrap_or(false)
    }

    fn set_down(&mut self, node: u32, down: bool) {
        let node = node as usize;
        if node >= self.down.len() {
            if !down {
                return;
            }
            self.down.resize(node + 1, false);
        }
        self.down[node] = down;
    }

    fn group_of(&self, node: u32) -> u32 {
        self.groups.get(node as usize).copied().unwrap_or(0)
    }

    fn reachable(&self, src: u32, dst: u32) -> bool {
        if src == dst {
            return true;
        }
        if self.is_down(src) || self.is_down(dst) {
            return false;
        }
        self.group_of(src) == self.group_of(dst)
    }
}

#[cfg(test)]
thread_local! {
    /// Times [`check`] ran on this thread: the checker is a full sweep, so
    /// callers holding its verdict must not trigger it again.
    pub(crate) static CHECK_CALLS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Replays a finished log and returns every invariant violation found, in
/// trace order (terminal "never happened" violations — leaked flows,
/// dangling retry chains — come last).
pub fn check(log: &TraceLog) -> Vec<Violation> {
    #[cfg(test)]
    CHECK_CALLS.with(|c| c.set(c.get() + 1));
    let mut violations = Vec::new();
    let mut topo = Topology::default();
    // flow id -> (object, open?, node the flow started on)
    let mut flows: IdMap<u64, (u64, bool, u32)> = IdMap::default();
    let mut generations: IdMap<u64, u64> = IdMap::default();
    // call id -> (resolved?, completed?, caller node of the latest attempt)
    let mut calls: IdMap<u64, (bool, bool, u32)> = IdMap::default();
    // object -> recover flow awaiting re-registration
    let mut recovering: IdMap<u64, u64> = IdMap::default();
    // group -> last committed epoch
    let mut committed: IdMap<u64, u64> = IdMap::default();
    // (group, replica) -> last adopted epoch
    let mut adopted: IdMap<(u64, u64), u64> = IdMap::default();

    for e in log.events() {
        match &e.kind {
            SpanKind::NodeCrashed { node } => {
                topo.set_down(*node, true);
                // Retry chains whose caller just died terminate with it.
                for (resolved, _, caller) in calls.values_mut() {
                    if *caller == *node {
                        *resolved = true;
                    }
                }
                // Flows die with the actor that owned them.
                for (_, open, owner) in flows.values_mut() {
                    if *owner == *node {
                        *open = false;
                    }
                }
            }
            SpanKind::NodeRestarted { node } => {
                topo.set_down(*node, false);
            }
            SpanKind::PartitionChanged { groups } => {
                topo.groups = log.groups(*groups).to_vec();
            }
            SpanKind::PartitionHealed => {
                topo.groups.clear();
            }
            SpanKind::MsgSent {
                src_node,
                dst_node,
                verdict,
                ..
            } if verdict.delivers() && !topo.reachable(*src_node, *dst_node) => {
                violations.push(Violation::SentAcrossFault {
                    span: e.id,
                    src_node: *src_node,
                    dst_node: *dst_node,
                });
            }
            SpanKind::MsgDelivered { dst_node, .. } if topo.is_down(*dst_node) => {
                violations.push(Violation::DeliveredToDeadNode {
                    span: e.id,
                    dst_node: *dst_node,
                });
            }
            SpanKind::FlowStarted { flow, object, kind } => {
                if flows.insert(*flow, (*object, true, e.node)).is_some() {
                    violations.push(Violation::DuplicateFlowStart {
                        span: e.id,
                        flow: *flow,
                    });
                }
                if *kind == FlowKind::Recover {
                    recovering.insert(*object, *flow);
                }
            }
            SpanKind::FlowCompleted { flow } | SpanKind::FlowAborted { flow } => {
                match flows.get_mut(flow) {
                    Some((object, open, _)) if *open => {
                        *open = false;
                        // An aborted recovery no longer gates serving: the
                        // object stays dead until a fresh recovery flow runs.
                        if matches!(e.kind, SpanKind::FlowAborted { .. })
                            && recovering.get(object) == Some(flow)
                        {
                            recovering.remove(object);
                        }
                    }
                    _ => violations.push(Violation::SpuriousFlowEnd {
                        span: e.id,
                        flow: *flow,
                    }),
                }
            }
            SpanKind::GenerationStamp { object, generation } => {
                let last = generations.entry(*object).or_insert(*generation);
                if *generation < *last {
                    violations.push(Violation::GenerationRegressed {
                        object: *object,
                        from: *last,
                        to: *generation,
                    });
                } else {
                    *last = *generation;
                }
            }
            SpanKind::RpcAttempt { call, .. } => {
                let entry = calls.entry(*call).or_insert((false, false, e.node));
                entry.2 = e.node;
            }
            SpanKind::RpcCompleted { call, .. } => {
                if let Some((_, true, _)) = calls.insert(*call, (true, true, e.node)) {
                    violations.push(Violation::DuplicateRpcCompletion {
                        span: e.id,
                        call: *call,
                    });
                }
            }
            SpanKind::BindingRegistered { object, .. } => {
                recovering.remove(object);
            }
            SpanKind::CallServed { object, .. } if recovering.contains_key(object) => {
                violations.push(Violation::ServedBeforeReregister {
                    span: e.id,
                    object: *object,
                });
            }
            SpanKind::EpochCommitted { group, epoch, .. } => {
                match committed.get(group) {
                    // Commits must advance strictly: re-committing the same
                    // epoch would let two different configs claim one epoch.
                    Some(&last) if *epoch <= last => {
                        violations.push(Violation::EpochRegressed {
                            span: e.id,
                            group: *group,
                            from: last,
                            to: *epoch,
                        });
                    }
                    _ => {
                        committed.insert(*group, *epoch);
                    }
                }
            }
            SpanKind::ReplicaEpoch {
                group,
                replica,
                epoch,
            } => {
                let last = adopted.entry((*group, *replica)).or_insert(*epoch);
                // Adoption below the group's commit is legal (catch-up in
                // progress); only the replica's own history must not rewind.
                if *epoch < *last {
                    violations.push(Violation::EpochRegressed {
                        span: e.id,
                        group: *group,
                        from: *last,
                        to: *epoch,
                    });
                } else {
                    *last = *epoch;
                }
            }
            SpanKind::EpochServed {
                group,
                replica,
                epoch,
                ..
            } => {
                if let Some(&current) = committed.get(group) {
                    if *epoch < current {
                        violations.push(Violation::MixedEpochServing {
                            span: e.id,
                            group: *group,
                            replica: *replica as u64,
                            serving: *epoch,
                            committed: current,
                        });
                    }
                }
            }
            _ => {}
        }
    }

    let mut leaked: Vec<(u64, u64)> = flows
        .iter()
        .filter(|(_, (_, open, _))| *open)
        .map(|(flow, (object, _, _))| (*flow, *object))
        .collect();
    leaked.sort_unstable();
    for (flow, object) in leaked {
        violations.push(Violation::LeakedFlow { flow, object });
    }

    let mut dangling: Vec<u64> = calls
        .iter()
        .filter(|(_, (resolved, _, _))| !*resolved)
        .map(|(call, _)| *call)
        .collect();
    dangling.sort_unstable();
    for call in dangling {
        violations.push(Violation::DanglingRetryChain { call });
    }

    violations
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{RpcOutcome, SendVerdict, NO_NODE};

    fn log() -> TraceLog {
        let mut l = TraceLog::new();
        l.enable();
        l
    }

    fn sent(src_node: u32, dst_node: u32, verdict: SendVerdict) -> SpanKind {
        SpanKind::MsgSent {
            src: 0,
            dst: 1,
            src_node,
            dst_node,
            verdict,
            bytes: 64,
        }
    }

    #[test]
    fn clean_log_has_no_violations() {
        let mut l = log();
        let f = SpanKind::FlowStarted {
            flow: 1,
            object: 9,
            kind: FlowKind::Update,
        };
        l.emit(0, 0, None, f);
        l.emit(
            1,
            0,
            None,
            SpanKind::RpcAttempt {
                call: 5,
                object: 9,
                attempt: 1,
                dst: 2,
            },
        );
        l.emit(2, 0, None, sent(0, 1, SendVerdict::Sent));
        l.emit(
            3,
            1,
            None,
            SpanKind::MsgDelivered {
                src: 0,
                dst: 1,
                dst_node: 1,
            },
        );
        l.emit(
            4,
            0,
            None,
            SpanKind::RpcCompleted {
                call: 5,
                outcome: RpcOutcome::Ok,
            },
        );
        l.emit(
            5,
            0,
            None,
            SpanKind::GenerationStamp {
                object: 9,
                generation: 3,
            },
        );
        l.emit(
            6,
            0,
            None,
            SpanKind::GenerationStamp {
                object: 9,
                generation: 4,
            },
        );
        l.emit(7, 0, None, SpanKind::FlowCompleted { flow: 1 });
        assert_eq!(check(&l), vec![]);
    }

    #[test]
    fn catches_delivery_to_dead_node() {
        let mut l = log();
        l.emit(0, NO_NODE, None, SpanKind::NodeCrashed { node: 3 });
        l.emit(
            1,
            3,
            None,
            SpanKind::MsgDelivered {
                src: 0,
                dst: 1,
                dst_node: 3,
            },
        );
        assert!(matches!(
            check(&l)[..],
            [Violation::DeliveredToDeadNode { dst_node: 3, .. }]
        ));
        // After a restart the same delivery is fine.
        let mut l2 = log();
        l2.emit(0, NO_NODE, None, SpanKind::NodeCrashed { node: 3 });
        l2.emit(1, NO_NODE, None, SpanKind::NodeRestarted { node: 3 });
        l2.emit(
            2,
            3,
            None,
            SpanKind::MsgDelivered {
                src: 0,
                dst: 1,
                dst_node: 3,
            },
        );
        assert_eq!(check(&l2), vec![]);
    }

    /// Installs a partition with the given per-node groups in `l`.
    fn partition(l: &mut TraceLog, groups: &[u32]) {
        let groups = l.intern_groups(groups);
        l.emit(0, NO_NODE, None, SpanKind::PartitionChanged { groups });
    }

    #[test]
    fn catches_send_planned_across_partition() {
        let mut l = log();
        partition(&mut l, &[1, 2]);
        l.emit(1, 0, None, sent(0, 1, SendVerdict::Sent));
        assert!(matches!(
            check(&l)[..],
            [Violation::SentAcrossFault {
                src_node: 0,
                dst_node: 1,
                ..
            }]
        ));
        // The honest verdict is fine, and so is a send after healing.
        let mut l2 = log();
        partition(&mut l2, &[1, 2]);
        l2.emit(1, 0, None, sent(0, 1, SendVerdict::Unreachable));
        l2.emit(2, NO_NODE, None, SpanKind::PartitionHealed);
        l2.emit(3, 0, None, sent(0, 1, SendVerdict::Sent));
        assert_eq!(check(&l2), vec![]);
    }

    #[test]
    fn catches_leaked_flow() {
        let mut l = log();
        l.emit(
            0,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 42,
                object: 7,
                kind: FlowKind::Checkpoint,
            },
        );
        assert_eq!(
            check(&l),
            vec![Violation::LeakedFlow {
                flow: 42,
                object: 7
            }]
        );
    }

    #[test]
    fn flow_dies_with_its_owners_node() {
        // A flow whose owner node crashes is not leaked — its actor (and the
        // flow state with it) died. A flow on a surviving node still leaks.
        let mut l = log();
        l.emit(
            0,
            3,
            None,
            SpanKind::FlowStarted {
                flow: 42,
                object: 7,
                kind: FlowKind::Config,
            },
        );
        l.emit(
            1,
            5,
            None,
            SpanKind::FlowStarted {
                flow: 43,
                object: 8,
                kind: FlowKind::Update,
            },
        );
        l.emit(2, NO_NODE, None, SpanKind::NodeCrashed { node: 3 });
        assert_eq!(
            check(&l),
            vec![Violation::LeakedFlow {
                flow: 43,
                object: 8
            }]
        );
    }

    #[test]
    fn catches_double_flow_end() {
        let mut l = log();
        l.emit(
            0,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 1,
                object: 7,
                kind: FlowKind::Create,
            },
        );
        l.emit(1, 0, None, SpanKind::FlowCompleted { flow: 1 });
        l.emit(2, 0, None, SpanKind::FlowAborted { flow: 1 });
        assert!(matches!(
            check(&l)[..],
            [Violation::SpuriousFlowEnd { flow: 1, .. }]
        ));
    }

    #[test]
    fn catches_generation_regression() {
        let mut l = log();
        l.emit(
            0,
            0,
            None,
            SpanKind::GenerationStamp {
                object: 7,
                generation: 10,
            },
        );
        l.emit(
            1,
            0,
            None,
            SpanKind::GenerationStamp {
                object: 7,
                generation: 9,
            },
        );
        // A different object at a lower generation is not a regression.
        l.emit(
            2,
            0,
            None,
            SpanKind::GenerationStamp {
                object: 8,
                generation: 1,
            },
        );
        assert_eq!(
            check(&l),
            vec![Violation::GenerationRegressed {
                object: 7,
                from: 10,
                to: 9
            }]
        );
    }

    #[test]
    fn catches_dangling_retry_chain() {
        let mut l = log();
        for attempt in 1..=3 {
            l.emit(
                attempt as u64,
                0,
                None,
                SpanKind::RpcAttempt {
                    call: 77,
                    object: 9,
                    attempt,
                    dst: 2,
                },
            );
        }
        assert_eq!(check(&l), vec![Violation::DanglingRetryChain { call: 77 }]);
        // A typed Unreachable terminal resolves the chain.
        l.emit(
            4,
            0,
            None,
            SpanKind::RpcCompleted {
                call: 77,
                outcome: RpcOutcome::Unreachable,
            },
        );
        assert_eq!(check(&l), vec![]);
    }

    #[test]
    fn catches_duplicate_rpc_completion() {
        // Negative control: call 77 resolves, then resolves again.
        let attempt = SpanKind::RpcAttempt {
            call: 77,
            object: 9,
            attempt: 1,
            dst: 2,
        };
        let done = |outcome| SpanKind::RpcCompleted { call: 77, outcome };
        let mut l = log();
        l.emit(0, 0, None, attempt);
        l.emit(1, 0, None, done(RpcOutcome::Ok));
        assert_eq!(check(&l), vec![]);
        l.emit(2, 0, None, done(RpcOutcome::Timeout));
        assert!(matches!(
            check(&l)[..],
            [Violation::DuplicateRpcCompletion { call: 77, .. }]
        ));
        // A completion without any attempt (a binding-query timeout) is
        // legal, and so is one after the caller's node crashed.
        let mut l2 = log();
        l2.emit(0, 0, None, done(RpcOutcome::Timeout));
        let mut l3 = log();
        l3.emit(0, 4, None, attempt);
        l3.emit(1, NO_NODE, None, SpanKind::NodeCrashed { node: 4 });
        l3.emit(2, 0, None, done(RpcOutcome::Unreachable));
        assert_eq!((check(&l2), check(&l3)), (vec![], vec![]));
    }

    #[test]
    fn catches_duplicate_flow_start() {
        // Negative control: flow 1 ends, then its id starts again.
        let started = SpanKind::FlowStarted {
            flow: 1,
            object: 7,
            kind: FlowKind::Update,
        };
        let mut l = log();
        l.emit(0, 0, None, started);
        l.emit(1, 0, None, SpanKind::FlowCompleted { flow: 1 });
        assert_eq!(check(&l), vec![]);
        l.emit(2, 0, None, started);
        l.emit(3, 0, None, SpanKind::FlowCompleted { flow: 1 });
        assert!(matches!(
            check(&l)[..],
            [Violation::DuplicateFlowStart { flow: 1, .. }]
        ));
    }

    #[test]
    fn caller_crash_terminates_its_retry_chains() {
        // The caller on node 4 dies mid-chain: the chain dies with it and
        // is not dangling. A chain from a surviving node still is.
        let mut l = log();
        l.emit(
            0,
            4,
            None,
            SpanKind::RpcAttempt {
                call: 70,
                object: 9,
                attempt: 1,
                dst: 2,
            },
        );
        l.emit(
            1,
            0,
            None,
            SpanKind::RpcAttempt {
                call: 71,
                object: 9,
                attempt: 1,
                dst: 2,
            },
        );
        l.emit(2, NO_NODE, None, SpanKind::NodeCrashed { node: 4 });
        assert_eq!(check(&l), vec![Violation::DanglingRetryChain { call: 71 }]);
    }

    #[test]
    fn catches_serving_before_reregistration() {
        let mut l = log();
        l.emit(
            0,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 1,
                object: 7,
                kind: FlowKind::Recover,
            },
        );
        l.emit(1, 0, None, SpanKind::CallServed { object: 7, call: 5 });
        l.emit(
            2,
            0,
            None,
            SpanKind::BindingRegistered { object: 7, dst: 3 },
        );
        l.emit(3, 0, None, SpanKind::CallServed { object: 7, call: 6 });
        l.emit(4, 0, None, SpanKind::FlowCompleted { flow: 1 });
        assert!(matches!(
            check(&l)[..],
            [Violation::ServedBeforeReregister { object: 7, .. }]
        ));
    }

    #[test]
    fn catches_epoch_regression() {
        // Negative control: a planted commit regression must surface as the
        // exact typed violation.
        let mut l = log();
        l.emit(
            0,
            0,
            None,
            SpanKind::EpochCommitted {
                group: 7,
                epoch: 3,
                config: 0xa,
            },
        );
        l.emit(
            1,
            0,
            None,
            SpanKind::EpochCommitted {
                group: 7,
                epoch: 2,
                config: 0xb,
            },
        );
        // A different group at a lower epoch is independent, not a
        // regression.
        l.emit(
            2,
            0,
            None,
            SpanKind::EpochCommitted {
                group: 8,
                epoch: 1,
                config: 0xc,
            },
        );
        assert!(matches!(
            check(&l)[..],
            [Violation::EpochRegressed {
                group: 7,
                from: 3,
                to: 2,
                ..
            }]
        ));
        // Re-committing the SAME epoch is also a regression: two configs
        // must never claim one epoch.
        let mut l2 = log();
        for config in [0xa, 0xb] {
            l2.emit(
                config,
                0,
                None,
                SpanKind::EpochCommitted {
                    group: 7,
                    epoch: 3,
                    config,
                },
            );
        }
        assert!(matches!(
            check(&l2)[..],
            [Violation::EpochRegressed {
                group: 7,
                from: 3,
                to: 3,
                ..
            }]
        ));
    }

    #[test]
    fn catches_replica_epoch_rewind() {
        let mut l = log();
        for epoch in [4, 5, 3] {
            l.emit(
                epoch,
                1,
                None,
                SpanKind::ReplicaEpoch {
                    group: 7,
                    replica: 1,
                    epoch,
                },
            );
        }
        assert!(matches!(
            check(&l)[..],
            [Violation::EpochRegressed {
                group: 7,
                from: 5,
                to: 3,
                ..
            }]
        ));
    }

    #[test]
    fn catches_mixed_epoch_serving() {
        // Negative control: replica 2 keeps serving at epoch 1 after the
        // group committed epoch 2 — the exact typed violation must surface.
        let mut l = log();
        l.emit(
            0,
            2,
            None,
            SpanKind::EpochServed {
                group: 7,
                replica: 2,
                epoch: 1,
                call: 100,
            },
        );
        l.emit(
            1,
            0,
            None,
            SpanKind::EpochCommitted {
                group: 7,
                epoch: 2,
                config: 0xa,
            },
        );
        l.emit(
            2,
            2,
            None,
            SpanKind::EpochServed {
                group: 7,
                replica: 2,
                epoch: 1,
                call: 101,
            },
        );
        assert!(matches!(
            check(&l)[..],
            [Violation::MixedEpochServing {
                group: 7,
                replica: 2,
                serving: 1,
                committed: 2,
                ..
            }]
        ));
        // Serving at the committed epoch (a caught-up replica) is clean.
        let mut l2 = log();
        l2.emit(
            0,
            0,
            None,
            SpanKind::EpochCommitted {
                group: 7,
                epoch: 2,
                config: 0xa,
            },
        );
        l2.emit(
            1,
            2,
            None,
            SpanKind::ReplicaEpoch {
                group: 7,
                replica: 2,
                epoch: 2,
            },
        );
        l2.emit(
            2,
            2,
            None,
            SpanKind::EpochServed {
                group: 7,
                replica: 2,
                epoch: 2,
                call: 100,
            },
        );
        assert_eq!(check(&l2), vec![]);
    }

    #[test]
    fn aborted_recovery_stops_gating_service() {
        let mut l = log();
        l.emit(
            0,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 1,
                object: 7,
                kind: FlowKind::Recover,
            },
        );
        l.emit(1, 0, None, SpanKind::FlowAborted { flow: 1 });
        l.emit(2, 0, None, SpanKind::CallServed { object: 7, call: 5 });
        assert_eq!(check(&l), vec![]);
    }
}
