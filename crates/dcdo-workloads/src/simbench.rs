//! Sim-core event-mix shapes.
//!
//! Each `*_sim` builder returns a self-contained simulation, not yet run,
//! over the real Legion [`Msg`] wire type, plus the event budget to run it
//! with. The declared episode scenarios, the trace-invariant suite, the
//! golden-parity direct runs and the repo benchmark's engine-floor kernel
//! drive them, so payload handling (cloning ops for broadcast/resend,
//! wire-size accounting) is exercised and not just queue mechanics:
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
use legion_substrate::{control_ops, ControlOp, Msg, OpTable};

use crate::{ComponentSuite, SuiteSpec};

/// A broadcastable control op carrying a flat data block (models a
/// descriptor-sized configuration payload).
#[derive(Debug, Clone)]
pub struct BenchBlast {
    /// Opaque payload words.
    pub data: Vec<u64>,
}

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

/// A minimal ack reply.
#[derive(Debug, Clone)]
pub struct BenchAck;

control_ops! {
    /// The ops the fan-out and transfer sinks take.
    pub enum BenchOp {
        BenchBlast = "bench-blast", |op| 16 + 8 * op.data.len() as u64;
        BenchTransfer = "bench-transfer", |op| 64 + op.component.size_bytes();
    }

    /// The sinks' reply.
    pub enum BenchReply { BenchAck = "bench-ack", 64; }
}

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
            let retained = match BenchOp::decode(&op) {
                Some(BenchOp::BenchTransfer(t)) => Some(t.encoded.clone()),
                _ => None,
            };
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

// ---------------------------------------------------------------------------
// vm-spin (the VM hot loop the `dispatch` bench's `vm_spin` group times)

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

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a built shape to its budget; returns events processed.
    fn run((mut sim, budget): (Simulation<Msg>, u64)) -> u64 {
        sim.run_with_budget(budget)
    }

    #[test]
    fn ping_pong_processes_expected_events() {
        // Kick + rounds * (invoke deliver + reply deliver).
        assert_eq!(run(ping_pong_sim(10)), 1 + 10 * 2);
    }

    #[test]
    fn fan_out_processes_expected_events() {
        // Kick + rounds * spokes * (control + reply).
        assert_eq!(run(fan_out_sim(3, 4, 16)), 1 + 3 * 4 * 2);
    }

    #[test]
    fn fan_out_wide_processes_expected_events() {
        // 16 kicks + rounds * spokes * (control + reply). Every hub has
        // spokes (32 >= 16), so all 16 clusters run all their rounds.
        assert_eq!(run(fan_out_wide_sim(3, 32, 16)), 16 + 3 * 32 * 2);
    }

    #[test]
    fn timer_heavy_drains() {
        let events = run(timer_heavy_sim(4, 50));
        // Per actor: 1 kick + >= fires (cancelled decoys may or may not
        // count as events depending on the queue implementation).
        assert!(events >= 4 * (1 + 50));
    }

    #[test]
    fn transfer_heavy_processes_expected_events() {
        assert_eq!(run(transfer_heavy_sim(2, 3)), 1 + 2 * 3 * 2);
    }

    #[test]
    fn transfer_component_is_paper_sized() {
        // The transfer shape is only meaningful while the payload stays big.
        let size = transfer_component().size_bytes();
        assert!(size > 550_000, "bulk padding must dominate: {size}");
    }
}
