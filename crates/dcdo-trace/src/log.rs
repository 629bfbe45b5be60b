//! The per-run structured trace log: recording, queries, digest.

use std::cell::RefCell;

use crate::hash::{Fold, IdMap};
use crate::span::{FnRef, GroupsRef, SpanArena, SpanEvent, SpanId, SpanKind};

/// A deterministic, append-only log of [`SpanEvent`]s for one run.
///
/// Disabled by default: [`TraceLog::emit`] then costs one branch and records
/// nothing, which is what lets the instrumented engine stay within its
/// throughput budget when nobody is watching. Enable with
/// [`TraceLog::enable`] before the run starts to capture everything.
///
/// Events enter the log through two doors: [`TraceLog::emit`] mints the next
/// dense id itself, while [`TraceLog::push_event`] appends a pre-built event
/// whose id the producer chose (the simulation engine allocates per-lane
/// ids, so a node's span ids do not depend on what other nodes emit).
///
/// Recording is a plain `Vec` push of a 48-byte `Copy` record and does no
/// hashing; a partition's group vector and a VM function's hash go into the
/// log's [`SpanArena`] through [`TraceLog::intern_groups`] and
/// [`TraceLog::intern_function`], and the span carries a handle. The
/// id → position index behind [`TraceLog::get`] is built on the first
/// lookup and extended by the spans recorded since on each later one, so a
/// run that never looks a span up by id never pays for the index.
///
/// Every post-run reader is a forward-only fold over the finished log's
/// spans — [`SpanDigest`], [`Checker`](crate::Checker),
/// [`TailSampler`](crate::TailSampler) — so one read can feed them all (the
/// scenario runner's post-run sweep does). [`TraceLog::digest`],
/// [`check`](crate::check), [`tail_sample`](crate::tail_sample) and
/// [`TraceLog::spans_for_flow`] are one-read drivers of the same folds.
/// Flow extraction is O(spans + retained output) and relies on the log's
/// ordering contract: a parent is recorded before its children. A child
/// recorded ahead of its parent is not counted as a descendant.
#[derive(Debug, Default, Clone)]
pub struct TraceLog {
    enabled: bool,
    next_id: u64,
    events: Vec<SpanEvent>,
    arena: SpanArena,
    index: RefCell<IdIndex>,
}

/// The lazily built id → position index (see [`TraceLog::get`]).
#[derive(Debug, Default, Clone)]
struct IdIndex {
    /// Raw span id → index in `events`, for `events[..covered]`.
    positions: IdMap<u64, usize>,
    covered: usize,
}

#[cfg(test)]
thread_local! {
    /// Work done by [`FlowTrees`] on this thread: one per span observed
    /// plus one per position emitted (the scaling test's gauge).
    pub(crate) static SWEEP_VISITS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

impl TraceLog {
    /// Creates a disabled log.
    pub fn new() -> Self {
        TraceLog::default()
    }

    /// Wraps an already recorded span list and the arena its handles point
    /// into (a finished run's `RunArtifacts::spans` and `span_arena`, say)
    /// as a disabled log, without copying either.
    pub fn from_events(events: Vec<SpanEvent>, arena: SpanArena) -> Self {
        TraceLog {
            events,
            arena,
            ..TraceLog::default()
        }
    }

    /// Starts recording.
    pub fn enable(&mut self) {
        self.enabled = true;
    }

    /// Stops recording (already-captured events are kept).
    pub fn disable(&mut self) {
        self.enabled = false;
    }

    /// Returns `true` if the log is recording.
    #[inline(always)]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Drops all captured events and resets the id sequence.
    pub fn clear(&mut self) {
        self.events.clear();
        self.arena.clear();
        let index = self.index.get_mut();
        index.positions.clear();
        index.covered = 0;
        self.next_id = 0;
    }

    /// Moves the captured events and their arena out, leaving the log
    /// empty (and its enabled state unchanged). The id sequence continues,
    /// so spans emitted afterwards never collide with the ones taken.
    pub fn take_events(&mut self) -> (Vec<SpanEvent>, SpanArena) {
        // The index describes the departing events: a stale `covered` would
        // underflow in `get`.
        *self.index.get_mut() = IdIndex::default();
        (
            std::mem::take(&mut self.events),
            std::mem::take(&mut self.arena),
        )
    }

    /// Stores a partition's group vector in the log's arena and returns the
    /// handle a [`SpanKind::PartitionChanged`] span carries. Callers gate on
    /// [`is_enabled`](TraceLog::is_enabled), as for the span itself.
    pub fn intern_groups(&mut self, groups: &[u32]) -> GroupsRef {
        self.arena.push(groups)
    }

    /// The group vector behind a [`SpanKind::PartitionChanged`] handle of
    /// this log.
    pub fn groups(&self, groups: GroupsRef) -> &[u32] {
        self.arena.get(groups)
    }

    /// Stores a VM function's hash in the log's arena, once per distinct
    /// hash, and returns the handle a [`SpanKind::VmCost`] span carries.
    /// Callers gate on [`is_enabled`](TraceLog::is_enabled), as for the
    /// span itself.
    ///
    /// # Panics
    ///
    /// Refuses a 2^16th distinct hash ([`SpanArena::intern_function`]).
    pub fn intern_function(&mut self, hash: u64) -> FnRef {
        self.arena.intern_function(hash)
    }

    /// The function hash behind a [`SpanKind::VmCost`] handle of this log.
    pub fn function(&self, function: FnRef) -> u64 {
        self.arena.function(function)
    }

    /// Records an event, returning its id — or `None` when disabled.
    ///
    /// `at_ns` is the simulated time; `node` is the node the event happened
    /// on ([`NO_NODE`](crate::NO_NODE) if not attributable); `parent` is the
    /// span that causally triggered this one.
    #[inline]
    pub fn emit(
        &mut self,
        at_ns: u64,
        node: u32,
        parent: Option<SpanId>,
        kind: SpanKind,
    ) -> Option<SpanId> {
        if !self.enabled {
            return None;
        }
        self.next_id += 1;
        let id = SpanId::from_raw(self.next_id).expect("span ids start at 1");
        self.events
            .push(SpanEvent::new(id, parent, at_ns, node, kind));
        Some(id)
    }

    /// Appends a pre-built event carrying a producer-allocated id. Unlike
    /// [`TraceLog::emit`], the id sequence is not advanced — the producer
    /// owns id uniqueness. The engine records its lane-minted spans here.
    pub fn push_event(&mut self, ev: SpanEvent) {
        self.events.push(ev);
    }

    /// All captured events in emit order.
    pub fn events(&self) -> &[SpanEvent] {
        &self.events
    }

    /// Number of captured events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if nothing has been captured.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Looks an event up by id. The first call indexes the whole log; a
    /// later call indexes only what was recorded since the previous one.
    pub fn get(&self, id: SpanId) -> Option<&SpanEvent> {
        let index = &mut *self.index.borrow_mut();
        index.positions.reserve(self.events.len() - index.covered);
        for (pos, e) in self.events.iter().enumerate().skip(index.covered) {
            index.positions.insert(e.id().as_raw(), pos);
        }
        index.covered = self.events.len();
        self.events.get(*index.positions.get(&id.as_raw())?)
    }

    /// Every event belonging to a flow: events that name the flow id
    /// directly, plus all causal descendants of those events (the RPCs,
    /// timers, and deliveries the flow fanned out into), in emit order.
    /// One read of the log, through the tail sampler's tree-membership
    /// fold.
    pub fn spans_for_flow(&self, flow: u64) -> Vec<&SpanEvent> {
        let mut trees = FlowTrees::default();
        for e in &self.events {
            trees.observe(e);
        }
        trees.finish(&[flow])[0]
            .iter()
            .map(|&pos| &self.events[pos])
            .collect()
    }

    /// The arena the log's handles point into.
    pub(crate) fn arena(&self) -> &SpanArena {
        &self.arena
    }

    /// The extraction [`FlowTrees`] replaced, kept as the differential
    /// oracle: breadth-first from the flow's own spans, one
    /// rescan of the log's remainder per span found.
    #[cfg(test)]
    pub(crate) fn flow_tree_oracle(&self, flow: u64) -> Vec<usize> {
        use std::collections::VecDeque;
        let index: IdMap<u64, usize> = self
            .events
            .iter()
            .enumerate()
            .map(|(pos, e)| (e.id().as_raw(), pos))
            .collect();
        let mut member = vec![false; self.events.len()];
        let mut queue = VecDeque::new();
        for (i, e) in self.events.iter().enumerate() {
            if e.kind.flow_id() == Some(flow) {
                member[i] = true;
                queue.push_back(e.id());
            }
        }
        while let Some(parent) = queue.pop_front() {
            // First candidate child position: just past the parent itself.
            let start = index.get(&parent.as_raw()).map_or(0, |&pos| pos + 1);
            for (i, e) in self.events.iter().enumerate().skip(start) {
                if !member[i] && e.parent == Some(parent) {
                    member[i] = true;
                    queue.push_back(e.id());
                }
            }
        }
        (0..self.events.len()).filter(|&i| member[i]).collect()
    }

    /// A build-independent [`Fold`] digest of the whole log: one
    /// [`SpanDigest`] over every span.
    pub fn digest(&self) -> u64 {
        let mut digest = SpanDigest::new(self);
        for e in &self.events {
            digest.observe(e);
        }
        digest.finish()
    }

    /// The parent's digest — byte-serial FNV-1a over the same words, no
    /// count — kept as the re-pin oracle.
    #[cfg(test)]
    pub(crate) fn legacy_digest(&self) -> u64 {
        let mut h = crate::hash::Fnv1a::new();
        for e in &self.events {
            digest_words(e, &self.arena, |w| h.write_u64(w));
        }
        h.finish()
    }
}

/// The span digest as a forward-only fold: the span count, then per span
/// its id, parent (0 for none), time, node, variant code and fields in
/// declaration order, one word each, and a `PartitionChanged`'s groups.
/// [`TraceLog::digest`] is the batch driver; the scenario runner feeds the
/// same fold from its one post-run read of the log.
///
/// Only integers enter the fold, so the digest is identical across debug
/// and release builds and across machines — the cross-build determinism
/// witness. The count goes in first, so the fold needs the finished log's
/// length up front.
///
/// `GenerationStamp` values are excluded: generation numbers come from a
/// process-global counter, so their absolute values differ between runs
/// sharing a process. Their monotonicity is the invariant checker's job;
/// the digest still covers the stamps' order, objects, and causality.
pub struct SpanDigest<'a> {
    fold: Fold,
    arena: &'a SpanArena,
}

impl<'a> SpanDigest<'a> {
    /// A digest of `log`, which has to be fed every one of its spans in
    /// log order.
    pub fn new(log: &'a TraceLog) -> Self {
        SpanDigest {
            fold: Fold::new(log.len() as u64),
            arena: &log.arena,
        }
    }

    /// Folds in the next span of the log.
    #[inline]
    pub fn observe(&mut self, e: &SpanEvent) {
        let fold = &mut self.fold;
        digest_words(e, self.arena, |w| fold.word(w));
    }

    /// The digest.
    pub fn finish(self) -> u64 {
        self.fold.finish()
    }
}

/// Feeds `word` everything the digest covers of span `e`, in order.
#[inline(always)]
fn digest_words(e: &SpanEvent, arena: &SpanArena, mut word: impl FnMut(u64)) {
    word(e.id().as_raw());
    word(e.parent.map_or(0, SpanId::as_raw));
    word(e.at_ns);
    word(u64::from(e.node()));
    word(e.kind.code());
    if let SpanKind::GenerationStamp { object, .. } = &e.kind {
        word(*object);
    } else {
        e.kind.for_each_field(arena, |_, v| word(v));
    }
    if let SpanKind::PartitionChanged { groups } = e.kind {
        for &g in arena.get(groups) {
            word(g as u64);
        }
    }
}

/// Causal-tree membership of every flow of a log, as a forward-only fold.
///
/// A span belongs to the trees its parent belongs to, plus the tree of the
/// flow it names itself; parents precede children in log order, so the
/// parent's answer is known when the child is reached. Which flows a
/// caller wants is known only after the log ends (the tail sampler picks
/// them by outcome and duration), so the fold keeps the membership of
/// every flow: one table entry per span inside some flow's tree, holding
/// its membership set and its log position. [`FlowTrees::finish`] reads the
/// wanted trees off that table, not off the log.
#[derive(Debug, Default)]
pub(crate) struct FlowTrees {
    /// Flow id → its slot, assigned at the flow's first mention.
    slot_of: IdMap<u64, u32>,
    /// Membership sets of more than one slot, as lists of slots: a span
    /// naming one flow beneath the tree of another needs the union. A set
    /// id below [`UNION`] is the one-slot set of that slot; `UNION + i` is
    /// `unions[i]`.
    unions: Vec<Vec<u32>>,
    /// Raw id of each span inside some tree → (its membership set, its log
    /// position). Positions fit `u32`: a log of 2^32 48-byte spans would
    /// hold 192 GiB.
    member: IdMap<u64, (u32, u32)>,
    /// `(set, position)` of member spans whose id a later member reused
    /// (`push_event` leaves id uniqueness to the producer).
    shadowed: Vec<(u32, u32)>,
    /// Spans observed so far: the next span's log position.
    seen: u32,
}

/// The first set id that names an entry of [`FlowTrees::unions`].
const UNION: u32 = 1 << 31;

impl FlowTrees {
    /// The slots of membership set `set`.
    fn slots<'a>(&'a self, set: &'a u32) -> &'a [u32] {
        match set.checked_sub(UNION) {
            Some(i) => &self.unions[i as usize],
            None => std::slice::from_ref(set),
        }
    }

    /// Records the next span of the log.
    #[inline]
    pub(crate) fn observe(&mut self, e: &SpanEvent) {
        #[cfg(test)]
        SWEEP_VISITS.with(|v| v.set(v.get() + 1));
        let pos = self.seen;
        self.seen += 1;
        let own = e.kind.flow_id().map(|flow| {
            let next = self.slot_of.len() as u32;
            *self.slot_of.entry(flow).or_insert(next)
        });
        let inherited = e
            .parent
            .and_then(|p| self.member.get(&p.as_raw()).map(|&(set, _)| set));
        let set = match (inherited, own) {
            (None, None) => return,
            (None, Some(slot)) => slot,
            (Some(set), None) => set,
            (Some(set), Some(slot)) if self.slots(&set).contains(&slot) => set,
            (Some(set), Some(slot)) => {
                let mut union = self.slots(&set).to_vec();
                union.push(slot);
                self.unions.push(union);
                UNION + self.unions.len() as u32 - 1
            }
        };
        if let Some(earlier) = self.member.insert(e.id().as_raw(), (set, pos)) {
            self.shadowed.push(earlier);
        }
    }

    /// The causal trees of the `wanted` flows (distinct ids): for each, the
    /// log positions of its [`TraceLog::spans_for_flow`] events, ascending.
    pub(crate) fn finish(self, wanted: &[u64]) -> Vec<Vec<usize>> {
        const NOT_WANTED: u32 = u32::MAX;
        let mut out_of = vec![NOT_WANTED; self.slot_of.len()];
        for (out, flow) in wanted.iter().enumerate() {
            if let Some(&slot) = self.slot_of.get(flow) {
                out_of[slot as usize] = out as u32;
            }
        }
        let mut trees = vec![Vec::new(); wanted.len()];
        for (set, pos) in self.member.values().chain(&self.shadowed) {
            for &slot in self.slots(set) {
                let out = out_of[slot as usize];
                if out != NOT_WANTED {
                    #[cfg(test)]
                    SWEEP_VISITS.with(|v| v.set(v.get() + 1));
                    trees[out as usize].push(*pos as usize);
                }
            }
        }
        for tree in &mut trees {
            tree.sort_unstable();
        }
        trees
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::{FlowKind, NO_NODE};

    fn sample_log() -> TraceLog {
        let mut log = TraceLog::new();
        log.enable();
        let root = log.emit(
            10,
            0,
            None,
            SpanKind::FlowStarted {
                flow: 7,
                object: 99,
                kind: FlowKind::Update,
            },
        );
        let sent = log.emit(
            20,
            0,
            root,
            SpanKind::MsgSent {
                src: 1,
                dst: 2,
                src_node: 0,
                dst_node: 1,
                verdict: crate::SendVerdict::Sent,
                bytes: 64,
            },
        );
        log.emit(
            30,
            1,
            sent,
            SpanKind::MsgDelivered {
                src: 1,
                dst: 2,
                dst_node: 1,
            },
        );
        log.emit(40, 0, root, SpanKind::FlowCompleted { flow: 7 });
        log.emit(50, 2, None, SpanKind::TimerFired { actor: 5, token: 1 });
        log
    }

    #[test]
    fn disabled_log_records_nothing() {
        let mut log = TraceLog::new();
        assert!(!log.is_enabled());
        assert_eq!(log.emit(0, NO_NODE, None, SpanKind::PartitionHealed), None);
        assert!(log.is_empty());
    }

    #[test]
    fn ids_are_dense_and_lookup_by_id_works() {
        let log = sample_log();
        assert_eq!(log.len(), 5);
        for (i, e) in log.events().iter().enumerate() {
            assert_eq!(e.id().as_raw(), i as u64 + 1);
            assert_eq!(log.get(e.id()), Some(e));
        }
    }

    #[test]
    fn spans_for_flow_on_empty_log_is_empty() {
        let empty = TraceLog::new();
        assert!(empty.spans_for_flow(0).is_empty());
        assert!(empty.spans_for_flow(7).is_empty());
        let mut enabled_but_empty = TraceLog::new();
        enabled_but_empty.enable();
        assert!(enabled_but_empty.spans_for_flow(7).is_empty());
    }

    #[test]
    fn spans_for_flow_includes_causal_descendants() {
        let log = sample_log();
        let flow: Vec<u64> = log
            .spans_for_flow(7)
            .iter()
            .map(|e| e.id().as_raw())
            .collect();
        // Flow events 1 and 4, plus descendants 2 (MsgSent) and 3
        // (MsgDelivered); the unrelated timer (5) is excluded.
        assert_eq!(flow, vec![1, 2, 3, 4]);
        assert!(log.spans_for_flow(8).is_empty());
    }

    #[test]
    fn digest_is_deterministic_and_sensitive() {
        let a = sample_log();
        let b = sample_log();
        assert_eq!(a.digest(), b.digest());
        let mut c = sample_log();
        c.emit(60, 0, None, SpanKind::PartitionHealed);
        assert_ne!(a.digest(), c.digest());
        assert_ne!(TraceLog::new().digest(), a.digest());
        assert_eq!(a.digest(), 0x3406_cb96_8400_84c3);
        // The value the parent pinned, from the same walk over the log.
        assert_eq!(a.legacy_digest(), 0x9916_cecf_acb4_8300);
    }

    #[test]
    fn push_event_with_sparse_ids_supports_lookup_and_flows() {
        // The engine's lane-allocated ids are huge and non-dense; get() and
        // spans_for_flow must still work.
        let mut log = TraceLog::new();
        log.enable();
        let big = |raw: u64| SpanId::from_raw(raw).expect("nonzero");
        log.push_event(SpanEvent::new(
            big(1 << 48),
            None,
            5,
            0,
            SpanKind::FlowStarted {
                flow: 3,
                object: 1,
                kind: FlowKind::Create,
            },
        ));
        log.push_event(SpanEvent::new(
            big((2 << 48) | 7),
            Some(big(1 << 48)),
            6,
            1,
            SpanKind::FlowCompleted { flow: 3 },
        ));
        assert_eq!(log.len(), 2);
        assert_eq!(log.get(big(1 << 48)).expect("indexed").at_ns, 5);
        assert_eq!(log.get(big((2 << 48) | 7)).expect("indexed").at_ns, 6);
        assert!(log.get(big(42)).is_none());
        assert_eq!(log.spans_for_flow(3).len(), 2);
        // A later emit() still mints dense ids independent of pushed ones.
        let id = log
            .emit(7, 0, None, SpanKind::PartitionHealed)
            .expect("enabled");
        assert_eq!(id.as_raw(), 1);
        assert_eq!(log.get(id).expect("indexed").at_ns, 7);
    }

    #[test]
    fn spans_for_flow_keeps_every_span_of_a_reused_id() {
        // `push_event` leaves id uniqueness to the producer: a tree member
        // whose id a later member reuses still belongs to its tree.
        let id = SpanId::from_raw(5).expect("nonzero");
        let step =
            |at_ns, flow| SpanEvent::new(id, None, at_ns, 0, SpanKind::FlowStep { flow, step: 0 });
        let log = TraceLog::from_events(vec![step(1, 7), step(2, 8)], SpanArena::default());
        let at = |flow| -> Vec<u64> { log.spans_for_flow(flow).iter().map(|e| e.at_ns).collect() };
        assert_eq!((at(7), at(8)), (vec![1], vec![2]));
    }

    #[test]
    fn get_stays_correct_across_emit_push_and_clear() {
        let mut log = sample_log();
        let first = log.events()[0];
        // First lookup builds the index.
        assert_eq!(log.get(first.id()), Some(&first));
        let emitted = log
            .emit(60, 0, None, SpanKind::PartitionHealed)
            .expect("enabled");
        let pushed = SpanEvent::new(
            SpanId::from_raw((3 << 48) | 9).expect("nonzero"),
            Some(emitted),
            70,
            1,
            SpanKind::FlowAborted { flow: 7 },
        );
        log.push_event(pushed);
        // Spans recorded after the index was built resolve, and the old
        // ones still do.
        assert_eq!(log.get(emitted).expect("indexed").at_ns, 60);
        assert_eq!(log.get(pushed.id()), Some(&pushed));
        assert_eq!(log.get(first.id()), Some(&first));
        // A clone carries a usable index of its own.
        assert_eq!(log.clone().get(pushed.id()), Some(&pushed));
        log.clear();
        assert_eq!(log.get(first.id()), None, "clear drops the index too");
        assert_eq!(log.get(pushed.id()), None);
        let reused = log
            .emit(80, 2, None, SpanKind::PartitionHealed)
            .expect("enabled");
        assert_eq!(reused, first.id(), "dense ids restart after clear");
        assert_eq!(log.get(reused).expect("indexed").at_ns, 80);
    }

    #[test]
    fn take_events_empties_the_log_and_its_index() {
        let mut log = sample_log();
        let groups = log.intern_groups(&[1, 2]);
        log.emit(55, 0, None, SpanKind::PartitionChanged { groups });
        let old = log.events().to_vec();
        // Build the index first, so the take has something stale to drop.
        assert_eq!(log.get(old[4].id()), Some(&old[4]));
        let (events, arena) = log.take_events();
        assert_eq!(events, old);
        assert_eq!(arena.get(groups), &[1, 2], "the arena leaves with them");
        assert_eq!(log.len(), 0);
        for e in &old {
            assert_eq!(log.get(e.id()), None);
        }
        let next = log
            .emit(60, 0, None, SpanKind::PartitionHealed)
            .expect("still enabled");
        assert_eq!(next.as_raw(), 7, "the id sequence continues");
        assert_eq!(log.get(next).expect("indexed").at_ns, 60);
        assert_eq!(log.get(old[0].id()), None);
    }

    #[test]
    fn from_events_wraps_a_span_list_without_enabling() {
        let events = sample_log().events().to_vec();
        let mut log = TraceLog::from_events(events.clone(), SpanArena::default());
        assert!(!log.is_enabled());
        assert_eq!(log.events(), &events[..]);
        assert_eq!(log.digest(), sample_log().digest());
        assert_eq!(log.get(events[2].id()), Some(&events[2]));
        assert_eq!(log.spans_for_flow(7).len(), 4);
        assert_eq!(log.emit(0, 0, None, SpanKind::PartitionHealed), None);
    }

    #[test]
    fn clear_resets_ids() {
        let mut log = sample_log();
        log.clear();
        assert!(log.is_empty());
        let id = log
            .emit(0, 0, None, SpanKind::PartitionHealed)
            .expect("enabled");
        assert_eq!(id.as_raw(), 1);
    }

    mod sweep_props {
        use super::*;
        use proptest::prelude::*;

        /// Flow ids the generated spans name; 9 never occurs.
        const FLOWS: [u64; 5] = [1, 2, 3, 4, 9];

        /// Lane-style sparse id of the `i`-th span, as the engine mints them.
        fn lane_id(i: usize) -> SpanId {
            SpanId::from_raw((((i % 3) as u64 + 1) << 48) | i as u64).expect("nonzero")
        }

        /// Builds a random forest. Per span: `link` picks the parent — none
        /// (a new root), an earlier span, a later span (a child pushed before
        /// its parent) or an id absent from the log; `what` picks a
        /// flow-naming kind of flow 1–4 (so flows get several roots, and a
        /// span of flow G lands beneath flow F) or a plain timer.
        fn forest(spec: &[(u8, u16, u8)]) -> TraceLog {
            let n = spec.len();
            let events = spec
                .iter()
                .enumerate()
                .map(|(i, &(link, pick, what))| {
                    let pick = pick as usize;
                    let parent = match link {
                        0 => None,
                        1..=5 if i > 0 => Some(lane_id(pick % i)),
                        6 if i + 1 < n => Some(lane_id(i + 1 + pick % (n - i - 1))),
                        7 => Some(lane_id(n + pick)),
                        _ => None,
                    };
                    let flow = what as u64 % 4 + 1;
                    let kind = match what / 4 {
                        0 => SpanKind::FlowStarted {
                            flow,
                            object: 1,
                            kind: FlowKind::Update,
                        },
                        1 => SpanKind::FlowStep { flow, step: 0 },
                        2 => SpanKind::FlowCompleted { flow },
                        _ => SpanKind::TimerFired { actor: 1, token: 0 },
                    };
                    SpanEvent::new(lane_id(i), parent, i as u64, 0, kind)
                })
                .collect();
            TraceLog::from_events(events, SpanArena::default())
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// The one-sweep extraction returns exactly the position lists
            /// of the per-flow rescanning oracle, for every flow at once and
            /// for each flow alone.
            #[test]
            fn sweep_matches_rescanning_oracle(
                spec in prop::collection::vec((0u8..8, any::<u16>(), 0u8..24), 0..48),
            ) {
                let log = forest(&spec);
                let mut trees = FlowTrees::default();
                for e in log.events() {
                    trees.observe(e);
                }
                let together = trees.finish(&FLOWS);
                for (slot, &flow) in FLOWS.iter().enumerate() {
                    let want = log.flow_tree_oracle(flow);
                    prop_assert_eq!(&together[slot], &want, "flow {} in the joint sweep", flow);
                    let ids: Vec<SpanId> = want.iter().map(|&pos| log.events()[pos].id()).collect();
                    let got: Vec<SpanId> = log.spans_for_flow(flow).iter().map(|e| e.id()).collect();
                    prop_assert_eq!(got, ids);
                }
            }
        }
    }
}
