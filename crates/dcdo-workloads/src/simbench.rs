//! Sim-core throughput workloads.
//!
//! Four canonical event-mix shapes used by the `sim_throughput` criterion
//! suite and the `sim_bench` JSON emitter to track engine events/sec across
//! PRs. Each runs a self-contained simulation over the real Legion [`Msg`]
//! wire type so the measured cost includes payload handling (cloning ops for
//! broadcast/resend, wire-size accounting) and not just queue mechanics:
//!
//! - **ping-pong** — two objects volley an `Invoke`/`Reply` pair over the
//!   jittered centurion network: the latency-bound RPC shape.
//! - **fan-out** — a hub broadcasts one control op to every spoke each round
//!   on the instant network: the same-tick burst shape (every delivery lands
//!   at the current instant).
//! - **timer-heavy** — actors run schedule-two-cancel-one timer chains: the
//!   retry-timer shape that dominates the RPC layer's bookkeeping.
//! - **transfer-heavy** — a source replicates an implementation component
//!   (descriptor-bearing control op plus its encoded bytes) to many sinks:
//!   the implementation-download shape, dominated by payload size
//!   accounting and bulk-data ownership.

use bytes::Bytes;
use dcdo_sim::{Actor, ActorId, Ctx, NetConfig, NodeId, SimDuration, Simulation, TimerId};
use dcdo_types::{CallId, ObjectId};
use dcdo_vm::{ComponentBinary, Value};
use legion_substrate::{control_payload, ControlOp, Msg};

use crate::{ComponentSuite, SuiteSpec};

/// A broadcastable control op carrying a flat data block (models a
/// descriptor-sized configuration payload).
#[derive(Debug, Clone)]
pub struct BenchBlast {
    /// Opaque payload words.
    pub data: Vec<u64>,
}

control_payload!(
    BenchBlast,
    "bench-blast",
    wire_size = |op| 16 + 8 * op.data.len() as u64
);

/// A component-replication control op: the component (whose transferable
/// size prices the wire) plus its encoded form (the bulk bytes a sink
/// would incorporate from).
#[derive(Debug, Clone)]
pub struct BenchTransfer {
    /// The component being replicated.
    pub component: ComponentBinary,
    /// Its encoded form.
    pub encoded: Bytes,
}

control_payload!(
    BenchTransfer,
    "bench-transfer",
    wire_size = |op| 64 + op.component.size_bytes()
);

/// A minimal ack reply.
#[derive(Debug, Clone)]
pub struct BenchAck;

control_payload!(BenchAck, "bench-ack");

// ---------------------------------------------------------------------------
// ping-pong

struct Pinger {
    peer: ActorId,
    remaining: u64,
}

impl Pinger {
    fn fire(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.remaining -= 1;
        let call = CallId::from_raw(ctx.fresh_u64());
        ctx.send(
            self.peer,
            Msg::Invoke {
                call,
                target: ObjectId::from_raw(2),
                function: "ping".into(),
                args: vec![Value::Int(self.remaining as i64)],
            },
        );
    }
}

impl Actor<Msg> for Pinger {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
        if matches!(msg, Msg::Reply { .. }) && self.remaining > 0 {
            self.fire(ctx);
        }
    }

    fn name(&self) -> &str {
        "bench-pinger"
    }
}

struct Ponger;

impl Actor<Msg> for Ponger {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        if let Msg::Invoke { call, args, .. } = msg {
            let echo = args.into_iter().next().unwrap_or(Value::Unit);
            ctx.send(
                from,
                Msg::Reply {
                    call,
                    result: Ok(echo),
                },
            );
        }
    }

    fn name(&self) -> &str {
        "bench-ponger"
    }
}

/// Builds the ping-pong simulation without running it. Returns the sim and
/// the event budget to run it with — callers may enable span tracing on the
/// sim first (the invariant suite does).
pub fn ping_pong_sim(rounds: u64) -> (Simulation<Msg>, u64) {
    let mut sim = Simulation::new(NetConfig::centurion(), 17);
    let ponger = sim.spawn(NodeId::from_raw(1), Ponger);
    let pinger = sim.spawn(
        NodeId::from_raw(0),
        Pinger {
            peer: ponger,
            remaining: rounds,
        },
    );
    sim.post(
        pinger,
        pinger,
        Msg::Reply {
            call: CallId::from_raw(0),
            result: Ok(Value::Unit),
        },
    );
    (sim, rounds * 4 + 16)
}

/// Runs `rounds` invoke/reply volleys between two nodes of the centurion
/// network. Returns events processed.
pub fn ping_pong(rounds: u64) -> u64 {
    let (mut sim, budget) = ping_pong_sim(rounds);
    sim.run_with_budget(budget)
}

// ---------------------------------------------------------------------------
// fan-out

struct BlastHub {
    spokes: Vec<ActorId>,
    op: ControlOp,
    rounds_remaining: u64,
    acks_pending: u32,
}

impl BlastHub {
    fn broadcast(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.rounds_remaining -= 1;
        self.acks_pending = self.spokes.len() as u32;
        let call = CallId::from_raw(ctx.fresh_u64());
        let spokes = std::mem::take(&mut self.spokes);
        for &s in &spokes {
            // The broadcast/resend path: each destination gets its own copy
            // of the held op, exactly as the RPC retry machinery does.
            ctx.send(
                s,
                Msg::Control {
                    call,
                    target: ObjectId::from_raw(100),
                    op: self.op.clone(),
                },
            );
        }
        self.spokes = spokes;
    }
}

impl Actor<Msg> for BlastHub {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, _msg: Msg) {
        self.acks_pending -= 1;
        if self.acks_pending == 0 && self.rounds_remaining > 0 {
            self.broadcast(ctx);
        }
    }

    fn name(&self) -> &str {
        "bench-hub"
    }
}

struct AckSpoke;

impl Actor<Msg> for AckSpoke {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        if let Msg::Control { call, .. } = msg {
            ctx.send(
                from,
                Msg::ControlReply {
                    call,
                    result: Ok(ControlOp::new(BenchAck)),
                },
            );
        }
    }

    fn name(&self) -> &str {
        "bench-spoke"
    }
}

/// Builds the fan-out simulation without running it; see [`ping_pong_sim`].
pub fn fan_out_sim(rounds: u64, spokes: u32, payload_words: usize) -> (Simulation<Msg>, u64) {
    let mut sim = Simulation::new(NetConfig::instant(), 19);
    let hub = sim.spawn(
        NodeId::from_raw(0),
        BlastHub {
            spokes: Vec::new(),
            op: ControlOp::new(BenchBlast {
                data: (0..payload_words as u64).collect(),
            }),
            rounds_remaining: rounds,
            acks_pending: 1,
        },
    );
    let ids: Vec<ActorId> = (0..spokes)
        .map(|i| sim.spawn(NodeId::from_raw(i % 16), AckSpoke))
        .collect();
    sim.actor_mut::<BlastHub>(hub).expect("alive").spokes = ids;
    sim.post(
        hub,
        hub,
        Msg::ControlReply {
            call: CallId::from_raw(0),
            result: Ok(ControlOp::new(BenchAck)),
        },
    );
    (sim, rounds * u64::from(spokes) * 2 + u64::from(spokes) + 16)
}

/// Runs `rounds` broadcast rounds from a hub to `spokes` spokes on the
/// instant network; the op payload carries `payload_words` words of data.
/// Returns events processed.
pub fn fan_out(rounds: u64, spokes: u32, payload_words: usize) -> u64 {
    let (mut sim, budget) = fan_out_sim(rounds, spokes, payload_words);
    sim.run_with_budget(budget)
}

// ---------------------------------------------------------------------------
// fan-out-wide (many concurrent clusters)

/// Builds the wide fan-out simulation: one `BlastHub` per centurion node
/// (16 independent broadcast clusters running concurrently), with the
/// `spokes` ack spokes dealt round-robin across the hubs and every spoke
/// placed on a *different* node than its hub.
///
/// Unlike [`fan_out_sim`] — a single hub on the instant network, which is
/// an inherently serial event stream — the 16 clusters make progress
/// independently over the centurion network's link latency, so many
/// lanes have events pending at once.
pub fn fan_out_wide_sim(rounds: u64, spokes: u32, payload_words: usize) -> (Simulation<Msg>, u64) {
    const HUBS: u32 = 16;
    let mut sim = Simulation::new(NetConfig::centurion(), 31);
    let hubs: Vec<ActorId> = (0..HUBS)
        .map(|h| {
            sim.spawn(
                NodeId::from_raw(h),
                BlastHub {
                    spokes: Vec::new(),
                    op: ControlOp::new(BenchBlast {
                        data: (0..payload_words as u64).collect(),
                    }),
                    rounds_remaining: rounds,
                    acks_pending: 1,
                },
            )
        })
        .collect();
    for i in 0..spokes {
        let h = i % HUBS;
        // Spokes sit on nodes other than their hub's, so every broadcast
        // and every ack crosses the network (and a lane).
        let node = (h + 1 + i / HUBS) % HUBS;
        let spoke = sim.spawn(NodeId::from_raw(node), AckSpoke);
        sim.actor_mut::<BlastHub>(hubs[h as usize])
            .expect("alive")
            .spokes
            .push(spoke);
    }
    for &hub in &hubs {
        sim.post(
            hub,
            hub,
            Msg::ControlReply {
                call: CallId::from_raw(0),
                result: Ok(ControlOp::new(BenchAck)),
            },
        );
    }
    (sim, rounds * u64::from(spokes) * 2 + u64::from(spokes) + 64)
}

/// Runs `rounds` broadcast rounds across 16 per-node hub clusters sharing
/// `spokes` spokes on the centurion network. Returns events processed.
pub fn fan_out_wide(rounds: u64, spokes: u32, payload_words: usize) -> u64 {
    let (mut sim, budget) = fan_out_wide_sim(rounds, spokes, payload_words);
    sim.run_with_budget(budget)
}

// ---------------------------------------------------------------------------
// timer-heavy

struct TimerChurn {
    fires_remaining: u64,
    decoy: Option<TimerId>,
}

impl Actor<Msg> for TimerChurn {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, _msg: Msg) {
        ctx.schedule_timer(SimDuration::from_micros(1), 0);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if let Some(decoy) = self.decoy.take() {
            ctx.cancel_timer(decoy);
        }
        if self.fires_remaining == 0 {
            return;
        }
        self.fires_remaining -= 1;
        let step = SimDuration::from_micros(1 + token % 7);
        ctx.schedule_timer(step, token + 1);
        // The decoy is the connect-timeout pattern: armed per attempt,
        // cancelled when the (faster) reply lands.
        let decoy = ctx.schedule_timer(step * 3, token + 1_000_000);
        self.decoy = Some(decoy);
    }

    fn name(&self) -> &str {
        "bench-timer-churn"
    }
}

/// Builds the timer-heavy simulation without running it; see
/// [`ping_pong_sim`].
pub fn timer_heavy_sim(actors: u32, fires_per_actor: u64) -> (Simulation<Msg>, u64) {
    let mut sim = Simulation::new(NetConfig::instant(), 23);
    let ids: Vec<ActorId> = (0..actors)
        .map(|i| {
            sim.spawn(
                NodeId::from_raw(i % 16),
                TimerChurn {
                    fires_remaining: fires_per_actor,
                    decoy: None,
                },
            )
        })
        .collect();
    for &a in &ids {
        sim.post(
            a,
            a,
            Msg::Progress {
                call: CallId::from_raw(0),
            },
        );
    }
    (sim, u64::from(actors) * (fires_per_actor + 4) * 4 + 16)
}

/// Runs `actors` parallel schedule-two-cancel-one timer chains, each firing
/// `fires_per_actor` times, on the instant network. Returns events
/// processed.
pub fn timer_heavy(actors: u32, fires_per_actor: u64) -> u64 {
    let (mut sim, budget) = timer_heavy_sim(actors, fires_per_actor);
    sim.run_with_budget(budget)
}

// ---------------------------------------------------------------------------
// transfer-heavy

struct TransferSource {
    sinks: Vec<ActorId>,
    op: ControlOp,
    rounds_remaining: u64,
    acks_pending: u32,
}

impl TransferSource {
    fn replicate(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.rounds_remaining -= 1;
        self.acks_pending = self.sinks.len() as u32;
        let call = CallId::from_raw(ctx.fresh_u64());
        let sinks = std::mem::take(&mut self.sinks);
        for &s in &sinks {
            ctx.send(
                s,
                Msg::Control {
                    call,
                    target: ObjectId::from_raw(200),
                    op: self.op.clone(),
                },
            );
        }
        self.sinks = sinks;
    }
}

impl Actor<Msg> for TransferSource {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, _msg: Msg) {
        self.acks_pending -= 1;
        if self.acks_pending == 0 && self.rounds_remaining > 0 {
            self.replicate(ctx);
        }
    }

    fn name(&self) -> &str {
        "bench-transfer-source"
    }
}

struct TransferSink;

impl Actor<Msg> for TransferSink {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        if let Msg::Control { call, op, .. } = msg {
            // A sink keeps its own handle on the bulk bytes (what a host
            // does before incorporating) — with shared payloads this is a
            // refcount bump, not a copy.
            let retained = op
                .as_any()
                .downcast_ref::<BenchTransfer>()
                .map(|t| t.encoded.clone());
            debug_assert!(retained.is_some());
            drop(retained);
            ctx.send(
                from,
                Msg::ControlReply {
                    call,
                    result: Ok(ControlOp::new(BenchAck)),
                },
            );
        }
    }

    fn name(&self) -> &str {
        "bench-transfer-sink"
    }
}

/// Builds the replicated component: a mid-sized suite component with
/// static-data padding approximating the paper's ≈550 KB small native
/// implementation.
pub(crate) fn transfer_component() -> ComponentBinary {
    let spec = SuiteSpec {
        total_functions: 24,
        components: 1,
        work_nanos: 0,
        static_data_size: 550_000,
        first_component_id: 7_000,
    };
    let suite = ComponentSuite::generate(&spec);
    suite.components()[0].clone()
}

/// Builds the transfer-heavy simulation without running it; see
/// [`ping_pong_sim`].
pub fn transfer_heavy_sim(rounds: u64, sinks: u32) -> (Simulation<Msg>, u64) {
    let component = transfer_component();
    let encoded = component.encode();
    let mut sim = Simulation::new(NetConfig::centurion(), 29);
    let source = sim.spawn(
        NodeId::from_raw(0),
        TransferSource {
            sinks: Vec::new(),
            op: ControlOp::new(BenchTransfer { component, encoded }),
            rounds_remaining: rounds,
            acks_pending: 1,
        },
    );
    let ids: Vec<ActorId> = (0..sinks)
        .map(|i| sim.spawn(NodeId::from_raw(1 + i % 15), TransferSink))
        .collect();
    sim.actor_mut::<TransferSource>(source)
        .expect("alive")
        .sinks = ids;
    sim.post(
        source,
        source,
        Msg::ControlReply {
            call: CallId::from_raw(0),
            result: Ok(ControlOp::new(BenchAck)),
        },
    );
    (sim, rounds * u64::from(sinks) * 2 + u64::from(sinks) + 16)
}

/// Runs `rounds` replication rounds of one encoded component from a source
/// to `sinks` sinks over the centurion network. Returns events processed.
pub fn transfer_heavy(rounds: u64, sinks: u32) -> u64 {
    let (mut sim, budget) = transfer_heavy_sim(rounds, sinks);
    sim.run_with_budget(budget)
}

/// Verifies the component suite used by `transfer_heavy` doesn't silently
/// shrink (the bench is only meaningful while the payload stays big).
pub fn transfer_component_size() -> u64 {
    transfer_component().size_bytes()
}

// ---------------------------------------------------------------------------
// vm-spin (VM profiling-overhead probe)

/// The spin component's id (outside the canonical service range).
const VM_SPIN_ID: dcdo_types::ComponentId = dcdo_types::ComponentId::from_raw(9_900);

/// Builds the spin component: exported `spin(n)` runs a counted loop that
/// crosses a function boundary every iteration (`bump`, an internal
/// increment), so both the per-instruction and the per-call profiling hooks
/// sit on the hot path.
pub fn vm_spin_component() -> ComponentBinary {
    dcdo_vm::ComponentBuilder::new(VM_SPIN_ID, "vm-spin")
        .exported("spin(int) -> int", |b| {
            let top = b.new_label();
            let end = b.new_label();
            b.locals(2)
                // l0 = acc = 0; l1 = n
                .push_int(0)
                .store_local(0)
                .load_arg(0)
                .store_local(1)
                .bind(top)
                .load_local(1)
                .push_int(0)
                .gt()
                .jump_if_false(end)
                .load_local(0)
                .call_dyn("bump", 1)
                .store_local(0)
                .load_local(1)
                .push_int(1)
                .sub()
                .store_local(1)
                .jump(top)
                .bind(end)
                .load_local(0)
                .ret()
        })
        .expect("spin")
        .internal("bump(int) -> int", |b| {
            b.load_arg(0).push_int(1).add().ret()
        })
        .expect("bump")
        .build()
        .expect("valid component")
}

/// How `vm_spin_with` executes the spin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VmSpinMode {
    /// The legacy single-step interpreter (the differential oracle and the
    /// benchmark "before" build).
    Legacy,
    /// The threaded dispatch loop over pre-decoded code, without
    /// superinstruction fusion.
    Unfused,
    /// The threaded dispatch loop with superinstructions (the default
    /// production configuration).
    Fused,
}

/// Runs `spin(iters)` to completion on a frozen resolver, with the VM's
/// per-thread cost profile enabled or not — the probe behind the
/// "profiling is free when disabled" claim (`sim_bench` times both and
/// reports the overhead fraction). Returns the spin result (== `iters`).
pub fn vm_spin(iters: i64, profiled: bool) -> u64 {
    vm_spin_with(iters, profiled, VmSpinMode::Fused).0
}

/// `vm_spin` with an explicit execution mode; returns
/// `(spin result, (retired, fused) original-opcode counts)`. The retired
/// counts are zero in [`VmSpinMode::Legacy`] (the legacy stepper does not
/// count retirement).
pub fn vm_spin_with(iters: i64, profiled: bool, mode: VmSpinMode) -> (u64, (u64, u64)) {
    use dcdo_vm::{CallOrigin, NativeRegistry, RunOutcome, StaticResolver, ValueStore, VmThread};
    let component = vm_spin_component();
    let mut resolver = StaticResolver::new().with_fusion(mode == VmSpinMode::Fused);
    for f in component.functions() {
        resolver.insert(f.code().clone(), component.id());
    }
    let mut globals = ValueStore::new();
    let mut thread = VmThread::call(
        &mut resolver,
        &"spin".into(),
        vec![Value::Int(iters)],
        CallOrigin::External,
    )
    .expect("spin starts");
    thread.set_legacy_stepper(mode == VmSpinMode::Legacy);
    if profiled {
        thread.enable_profiling();
    }
    let fuel = (iters as u64) * 24 + 64;
    match thread.run(
        &mut resolver,
        &NativeRegistry::standard(),
        &mut globals,
        fuel,
    ) {
        RunOutcome::Completed(Value::Int(v)) => (v as u64, thread.retired_counts()),
        other => panic!("spin must complete: {other:?}"),
    }
}

/// Runs a fused spin, then re-installs the spin component (a configuration
/// operation: the cached decodes are invalidated and rebuilt, outstanding
/// call tokens expire) and spins again — measuring superinstruction
/// coverage and decode-cache hit/invalidation behavior across a
/// reconfiguration. Returns the retired/fused totals (no profile) and the
/// decode cache's counters across the whole probe (two decodes per
/// function: initial install + the reconfiguration's re-install).
pub fn vm_spin_fusion_probe(iters: i64) -> (dcdo_vm::VmTotals, dcdo_vm::DecodeCacheStats) {
    use dcdo_vm::{CallOrigin, NativeRegistry, RunOutcome, StaticResolver, ValueStore, VmThread};
    let component = vm_spin_component();
    let mut resolver = StaticResolver::new().with_fusion(true);
    for f in component.functions() {
        resolver.insert(f.code().clone(), component.id());
    }
    let mut totals = dcdo_vm::VmTotals::default();
    for round in 0..2 {
        if round == 1 {
            // The reconfiguration: re-incorporating the component replaces
            // (and re-decodes) both functions and bumps the generation.
            for f in component.functions() {
                resolver.insert(f.code().clone(), component.id());
            }
        }
        let mut globals = ValueStore::new();
        let mut thread = VmThread::call(
            &mut resolver,
            &"spin".into(),
            vec![Value::Int(iters)],
            CallOrigin::External,
        )
        .expect("spin starts");
        match thread.run(
            &mut resolver,
            &NativeRegistry::standard(),
            &mut globals,
            (iters as u64) * 24 + 64,
        ) {
            RunOutcome::Completed(Value::Int(v)) => assert_eq!(v, iters, "spin result"),
            other => panic!("spin must complete: {other:?}"),
        }
        let (retired, fused) = thread.retired_counts();
        totals.retired += retired;
        totals.fused += fused;
    }
    (totals, resolver.decode_stats())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ping_pong_processes_expected_events() {
        // Kick + rounds * (invoke deliver + reply deliver).
        assert_eq!(ping_pong(10), 1 + 10 * 2);
    }

    #[test]
    fn fan_out_processes_expected_events() {
        // Kick + rounds * spokes * (control + reply).
        assert_eq!(fan_out(3, 4, 16), 1 + 3 * 4 * 2);
    }

    #[test]
    fn fan_out_wide_processes_expected_events() {
        // 16 kicks + rounds * spokes * (control + reply). Every hub has
        // spokes (32 >= 16), so all 16 clusters run all their rounds.
        assert_eq!(fan_out_wide(3, 32, 16), 16 + 3 * 32 * 2);
    }

    #[test]
    fn timer_heavy_drains() {
        let events = timer_heavy(4, 50);
        // Per actor: 1 kick + >= fires (cancelled decoys may or may not
        // count as events depending on the queue implementation).
        assert!(events >= 4 * (1 + 50));
    }

    #[test]
    fn transfer_heavy_processes_expected_events() {
        assert_eq!(transfer_heavy(2, 3), 1 + 2 * 3 * 2);
    }

    #[test]
    fn vm_spin_spins_profiled_or_not() {
        assert_eq!(vm_spin(1_000, false), 1_000);
        assert_eq!(vm_spin(1_000, true), 1_000);
    }

    #[test]
    fn vm_spin_modes_agree_and_fusion_covers_the_loop() {
        let (legacy, legacy_counts) = vm_spin_with(500, false, VmSpinMode::Legacy);
        let (unfused, unfused_counts) = vm_spin_with(500, false, VmSpinMode::Unfused);
        let (fused, fused_counts) = vm_spin_with(500, false, VmSpinMode::Fused);
        assert_eq!(legacy, 500);
        assert_eq!(unfused, 500);
        assert_eq!(fused, 500);
        assert_eq!(legacy_counts, (0, 0), "legacy stepper does not count");
        assert_eq!(unfused_counts.1, 0, "no fusion without the fuse pass");
        // Fusion must retire the same original-opcode total, with a large
        // share inside superinstructions (the spin body is built from
        // fusable shapes).
        assert_eq!(fused_counts.0, unfused_counts.0);
        assert!(
            fused_counts.1 * 2 > fused_counts.0,
            "expected >50% fused coverage on vm_spin, got {}/{}",
            fused_counts.1,
            fused_counts.0
        );
    }

    #[test]
    fn vm_spin_probe_sees_reconfiguration_invalidations() {
        let (totals, stats) = vm_spin_fusion_probe(200);
        assert!(totals.coverage() > 0.5, "coverage {}", totals.coverage());
        // Two installs of two functions: 4 decodes, 2 of them replacing
        // (invalidating) the first round's cached decodes.
        assert_eq!(stats.decodes, 4);
        assert_eq!(stats.invalidations, 2);
        // Every CallDyn resolution in both rounds was served from the
        // pre-decoded cache.
        assert!(stats.hits >= 400);
    }

    #[test]
    fn transfer_component_is_paper_sized() {
        let size = transfer_component_size();
        assert!(size > 550_000, "bulk padding must dominate: {size}");
    }
}
