//! The shared execution runtime of an active Legion object.
//!
//! Both normal (monolithic) objects and DCDOs embed an [`ObjectRuntime`]:
//! it accepts incoming invocations, runs [`VmThread`]s against the owner's
//! [`CallResolver`] (static table or DFM), charges the consumed simulated
//! compute time by *deferring* the next externally visible action (reply or
//! outcall) with a timer, parks threads suspended on remote outcalls, and
//! resumes them when the owner's [`RpcClient`] completes the call.
//!
//! Threads suspended here are exactly the state of §3.1's disappearing
//! function/component problems: configuration operations arriving while a
//! thread is parked can invalidate what the thread needs on resume.
//!
//! Beside the runtime sits the Legion object protocol every addressed
//! actor speaks, written once: [`LegionObject`]'s hooks say what an object
//! serves, and [`deliver`] and [`fire`] apply the rules around them (a
//! misaddressed request is `NoSuchObject`, a function not exported is
//! `NoSuchFunction`, an unknown control op is one refusal, and replies and
//! RPC timers take one path). An object names the op table it serves
//! ([`LegionObject::Ops`]), and `deliver` decodes each op once against it.
//! `deliver` also answers the three [`StateOp`]s every active object must
//! serve for migration (§3.5): capture, restore and deactivate.

use bytes::Bytes;
use dcdo_sim::{fn_hash, Actor, ActorId, Ctx, IdMap, SimDuration, SpanKind};
use dcdo_types::{CallId, ComponentId, FunctionName, ObjectId};
use dcdo_vm::{
    CallOrigin, CallResolver, NativeRegistry, OutcallRequest, RunOutcome, Value, ValueStore,
    VmError, VmThread, VmTotals,
};

use crate::msg::{Ack, InvocationFault, Msg, OpTable};
use crate::rpc::{Handled, RpcClient, RpcCompletion};

/// What an object's control hook made of an op addressed to it.
#[derive(Debug)]
pub enum Served {
    /// Answer the caller with this reply.
    Reply(Msg),
    /// The hook sent the reply itself, or will once the operation ends.
    Later,
}

/// The hooks of an addressed Legion object. [`deliver`] and [`fire`] call
/// them under the protocol's rules, so no object writes those rules out.
pub trait LegionObject: Actor<Msg> {
    /// The table of control ops the object serves.
    type Ops<'a>: OpTable<'a>;

    /// The LOID this object answers to.
    fn object_id(&self) -> ObjectId;

    /// Serves one of the object's control ops.
    fn control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        op: Self::Ops<'_>,
    ) -> Served;

    /// The persistent state of an active object, on which [`deliver`]
    /// serves the [`StateOp`]s. Other objects have none.
    fn state(&mut self) -> Option<&mut ValueStore> {
        None
    }

    /// Serves an invocation addressed to this object, or hands `function`
    /// back if the object exports no such function. By default it exports
    /// none.
    fn invoke(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        function: FunctionName,
        args: Vec<Value>,
    ) -> Result<(), FunctionName> {
        let _ = (ctx, from, call, args);
        Err(function)
    }

    /// The client the object makes its own calls with, if it has one.
    fn rpc(&mut self) -> Option<&mut RpcClient> {
        None
    }

    /// One of the object's own calls completed.
    fn completed(&mut self, ctx: &mut Ctx<'_, Msg>, completion: RpcCompletion) {
        let _ = (ctx, completion);
    }

    /// A `Reply`, `ControlReply` or `Progress`. By default it goes to the
    /// object's RPC client, and a call it completes to
    /// [`completed`](LegionObject::completed); an object without a client
    /// drops it.
    fn reply(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) {
        let Some(rpc) = self.rpc() else {
            return;
        };
        if let Handled::Completed(completion) = rpc.handle_message(ctx, msg) {
            self.completed(ctx, completion);
        }
    }

    /// A timer that is not the RPC client's (see [`fire`]).
    fn timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        let _ = (ctx, token);
    }
}

/// Hands a message to `object`. A `Control` or `Invoke` for a LOID other
/// than the object's gets `NoSuchObject`, the fault on which a caller's
/// [`RpcClient`] rebinds; an `Invoke` of a function the object does not
/// export gets `NoSuchFunction`. A control op of the object's table goes
/// to [`control`](LegionObject::control), a [`StateOp`] to an object with
/// [`state`](LegionObject::state) is served here, and any other op gets
/// "`<name>` does not understand `<op>`", named by [`Actor::name`].
/// Everything else is a reply.
pub fn deliver<O: LegionObject>(object: &mut O, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
    match msg {
        Msg::Invoke {
            call,
            target,
            function,
            args,
        } => {
            let fault = if target != object.object_id() {
                InvocationFault::NoSuchObject(target)
            } else {
                match object.invoke(ctx, from, call, function, args) {
                    Ok(()) => return,
                    Err(function) => InvocationFault::NoSuchFunction(function),
                }
            };
            ctx.send(
                from,
                Msg::Reply {
                    call,
                    result: Err(fault),
                },
            );
        }
        Msg::Control { call, target, op } => {
            let reply = if target != object.object_id() {
                Msg::refused(call, InvocationFault::NoSuchObject(target))
            } else if let Some(served) = O::Ops::decode(&op) {
                match object.control(ctx, from, call, served) {
                    Served::Reply(reply) => reply,
                    Served::Later => return,
                }
            } else if let (Some(state_op), Some(state)) = (StateOp::decode(&op), object.state()) {
                serve_state(ctx, state, call, state_op)
            } else {
                let why = format!("{} does not understand {}", object.name(), op.describe());
                Msg::refused(call, why)
            };
            ctx.send(from, reply);
        }
        reply => object.reply(ctx, reply),
    }
}

/// Hands a fired timer to `object`: an RPC timer to its client (a call it
/// ends goes to [`completed`](LegionObject::completed)), any other to
/// [`timer`](LegionObject::timer).
pub fn fire<O: LegionObject>(object: &mut O, ctx: &mut Ctx<'_, Msg>, token: u64) {
    if let Some(rpc) = object.rpc().filter(|rpc| rpc.owns_timer(token)) {
        if let Some(completion) = rpc.handle_timer(ctx, token) {
            object.completed(ctx, completion);
        }
        return;
    }
    object.timer(ctx, token);
}

/// Control op: capture the object's state for migration/evolution.
#[derive(Debug, Clone)]
pub struct CaptureState;

/// Control reply: the captured state blob.
#[derive(Debug, Clone)]
pub struct StateBlob {
    /// The serialized [`ValueStore`].
    pub bytes: Bytes,
}

/// Control op: restore previously captured state into the object.
#[derive(Debug, Clone)]
pub struct RestoreState {
    /// The serialized [`ValueStore`] produced by [`CaptureState`].
    pub bytes: Bytes,
}

/// Control op: deactivate the object (its process exits).
#[derive(Debug, Clone)]
pub struct Deactivate;

crate::control_ops! {
    /// The ops every active object serves for migration (§3.5).
    pub enum StateOp {
        CaptureState = "capture-state", 64;
        RestoreState = "restore-state", |op| 32 + op.bytes.len() as u64;
        Deactivate = "deactivate", 64;
    }

    /// The state ops' own reply (the others answer [`Ack`]).
    pub enum StateReply { StateBlob = "state-blob", |op| 32 + op.bytes.len() as u64; }
}

/// Answers a state op against the object's persistent `state`: a
/// [`RestoreState`] whose blob does not decode is refused.
fn serve_state(
    ctx: &mut Ctx<'_, Msg>,
    state: &mut ValueStore,
    call: CallId,
    op: StateOp<'_>,
) -> Msg {
    match op {
        StateOp::CaptureState(_) => Msg::control_ok(
            call,
            StateBlob {
                bytes: state.capture(),
            },
        ),
        StateOp::RestoreState(restore) => match ValueStore::restore(restore.bytes.clone()) {
            Ok(restored) => {
                *state = restored;
                Msg::control_ok(call, Ack)
            }
            Err(e) => Msg::refused(call, format!("bad state blob: {e}")),
        },
        StateOp::Deactivate(_) => {
            let me = ctx.self_id();
            ctx.kill(me);
            Msg::control_ok(call, Ack)
        }
    }
}

/// Per-run instruction budget for one thread activation.
pub const DEFAULT_FUEL: u64 = 10_000_000;

struct ThreadEntry {
    /// Boxed: a thread carries its profile inline (about half a
    /// kilobyte), so the live and spare tables hold pointers and a thread
    /// moves between them without a copy.
    thread: Box<VmThread>,
    reply_to: ActorId,
    call: CallId,
}

enum Deferred {
    SendReply {
        to: ActorId,
        call: CallId,
        result: Result<Value, InvocationFault>,
    },
    IssueOutcall {
        token: u64,
        request: OutcallRequest,
    },
    ResumeThread {
        token: u64,
    },
}

/// Most finished threads a runtime keeps for reuse.
const SPARE_THREADS: usize = 16;

/// Invocations a runtime must have served before it keeps finished
/// threads. Many objects serve one call and are never called again (a
/// DCDO migrated away stays alive), and a kept thread holds its buffers,
/// about 2 KiB, for the object's life.
const SPARE_AFTER: u64 = 1;

/// The invocation-execution engine embedded in every active object actor.
pub struct ObjectRuntime {
    object: ObjectId,
    fuel: u64,
    threads: IdMap<u64, ThreadEntry>,
    deferred: IdMap<u64, Deferred>,
    outcalls: IdMap<u64, u64>,
    invocations_served: u64,
    /// Finished threads, restarted for the next invocations so their
    /// frame, stack and profile buffers are reused, not reallocated (from
    /// the runtime's second invocation on, see [`SPARE_AFTER`]). Kept
    /// boxed: a thread moves between here and `threads` as its box, where
    /// unboxing would copy it and reboxing allocate.
    #[allow(clippy::vec_box)]
    spare: Vec<Box<VmThread>>,
    /// `fn_hash` of each function name a `VmCost` span has carried,
    /// computed at first sight; names sharing an allocation match by
    /// pointer.
    fn_hashes: Vec<(FunctionName, u64)>,
}

impl ObjectRuntime {
    /// Creates a runtime for the object with the given identity.
    pub fn new(object: ObjectId) -> Self {
        ObjectRuntime {
            object,
            fuel: DEFAULT_FUEL,
            threads: IdMap::default(),
            deferred: IdMap::default(),
            outcalls: IdMap::default(),
            invocations_served: 0,
            spare: Vec::new(),
            fn_hashes: Vec::new(),
        }
    }

    /// The object identity this runtime serves.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// Total invocations that have entered the object.
    pub fn invocations_served(&self) -> u64 {
        self.invocations_served
    }

    /// Number of threads currently live (running or suspended) inside the
    /// object.
    pub fn live_threads(&self) -> usize {
        self.threads.len()
    }

    /// Returns the tokens of live threads that have a frame in `component` —
    /// the check behind the disappearing-component protections (§3.2).
    pub fn threads_in_component(&self, component: ComponentId) -> Vec<u64> {
        self.threads
            .iter()
            .filter(|(_, e)| e.thread.components_on_stack().contains(&component))
            .map(|(t, _)| *t)
            .collect()
    }

    /// Aborts a live thread: unwinds it (resolver exits fire), harvests its
    /// cost profile as a finished thread's, fails its pending invocation
    /// with [`InvocationFault::ExecutionFault`], and forgets it. Used by the
    /// forced-removal (time-out) policy of §3.2.
    pub fn abort_thread(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        resolver: &mut dyn CallResolver,
        token: u64,
        reason: &str,
    ) -> bool {
        let Some(mut entry) = self.threads.remove(&token) else {
            return false;
        };
        let err = entry.thread.abort(resolver, reason);
        self.finish_thread(ctx, entry.thread);
        ctx.send(
            entry.reply_to,
            Msg::Reply {
                call: entry.call,
                result: Err(InvocationFault::ExecutionFault(err)),
            },
        );
        true
    }

    /// Handles an incoming [`Msg::Invoke`]: spawns a thread and runs it.
    #[allow(clippy::too_many_arguments)]
    pub fn handle_invoke(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        function: FunctionName,
        args: Vec<Value>,
        resolver: &mut dyn CallResolver,
        natives: &NativeRegistry,
        globals: &mut ValueStore,
    ) {
        self.invocations_served += 1;
        let mut thread = self.spare.pop().unwrap_or_default();
        match thread.restart(resolver, &function, args, CallOrigin::External) {
            Ok(()) => {
                // Cost attribution piggybacks on tracing: when spans are
                // recording, each thread counts per-function costs and the
                // totals surface as `VmCost` spans at thread completion.
                if ctx.tracing_enabled() {
                    thread.enable_profiling();
                }
                let token = ctx.fresh_u64();
                self.threads.insert(
                    token,
                    ThreadEntry {
                        thread,
                        reply_to: from,
                        call,
                    },
                );
                self.run_thread(ctx, token, resolver, natives, globals);
            }
            Err(err) => {
                self.spare.push(thread);
                ctx.send(
                    from,
                    Msg::Reply {
                        call,
                        result: Err(err.into()),
                    },
                );
            }
        }
    }

    fn run_thread(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        token: u64,
        resolver: &mut dyn CallResolver,
        natives: &NativeRegistry,
        globals: &mut ValueStore,
    ) {
        let entry = self.threads.get_mut(&token).expect("thread exists");
        let (retired, fused) = entry.thread.retired_counts();
        let outcome = entry.thread.run(resolver, natives, globals, self.fuel);
        // Every run's retirement counts now, so a thread whose actor dies
        // while it is parked is not lost from the world's totals.
        let (retired_now, fused_now) = entry.thread.retired_counts();
        let totals = ctx.totals::<VmTotals>();
        totals.retired += retired_now - retired;
        totals.fused += fused_now - fused;
        let consumed = SimDuration::from_nanos(entry.thread.take_consumed_nanos());
        match outcome {
            RunOutcome::Completed(value) => {
                let entry = self.threads.remove(&token).expect("thread exists");
                self.finish_thread(ctx, entry.thread);
                self.defer(
                    ctx,
                    consumed,
                    Deferred::SendReply {
                        to: entry.reply_to,
                        call: entry.call,
                        result: Ok(value),
                    },
                );
            }
            RunOutcome::Faulted(err) => {
                let entry = self.threads.remove(&token).expect("thread exists");
                self.finish_thread(ctx, entry.thread);
                self.defer(
                    ctx,
                    consumed,
                    Deferred::SendReply {
                        to: entry.reply_to,
                        call: entry.call,
                        result: Err(err.into()),
                    },
                );
            }
            RunOutcome::Suspended(request) => {
                self.defer(ctx, consumed, Deferred::IssueOutcall { token, request });
            }
        }
    }

    /// Harvests a finished thread's cost profile — one `VmCost` span per
    /// function touched (enriching the thread's `CallServed` span), and
    /// the counters folded into the world's [`VmTotals`] — then keeps the
    /// thread for reuse.
    fn finish_thread(&mut self, ctx: &mut Ctx<'_, Msg>, thread: Box<VmThread>) {
        if let Some(profile) = thread.profile() {
            for f in &profile.functions {
                let hash = self.fn_hash(&f.name);
                ctx.emit_span(SpanKind::vm_cost(
                    hash,
                    f.stats.calls,
                    f.stats.instructions,
                    f.stats.work_nanos,
                ));
            }
            ctx.totals::<VmTotals>().profile.merge(profile);
        }
        if self.invocations_served > SPARE_AFTER && self.spare.len() < SPARE_THREADS {
            self.spare.push(thread);
        }
    }

    /// `fn_hash(name)`, computed once per name this runtime has seen.
    fn fn_hash(&mut self, name: &FunctionName) -> u64 {
        if let Some((_, hash)) = self.fn_hashes.iter().find(|(n, _)| n == name) {
            return *hash;
        }
        let hash = fn_hash(name.as_str());
        self.fn_hashes.push((name.clone(), hash));
        hash
    }

    fn defer(&mut self, ctx: &mut Ctx<'_, Msg>, after: SimDuration, action: Deferred) {
        let timer_token = ctx.fresh_u64();
        self.deferred.insert(timer_token, action);
        ctx.schedule_timer(after, timer_token);
    }

    /// Returns `true` if the runtime owns this timer token.
    pub fn owns_timer(&self, token: u64) -> bool {
        self.deferred.contains_key(&token)
    }

    /// Handles a fired timer. Returns `true` if the timer was ours.
    pub fn handle_timer(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        token: u64,
        resolver: &mut dyn CallResolver,
        natives: &NativeRegistry,
        globals: &mut ValueStore,
        rpc: &mut RpcClient,
    ) -> bool {
        let Some(action) = self.deferred.remove(&token) else {
            return false;
        };
        match action {
            Deferred::SendReply { to, call, result } => {
                ctx.send(to, Msg::Reply { call, result });
            }
            Deferred::IssueOutcall { token, request } => {
                // The thread may have been aborted while the outcall was
                // deferred (forced component removal).
                if !self.threads.contains_key(&token) {
                    return true;
                }
                let rpc_call = rpc.invoke(ctx, request.target, request.function, request.args);
                self.outcalls.insert(rpc_call.as_raw(), token);
            }
            Deferred::ResumeThread { token } => {
                if self.threads.contains_key(&token) {
                    self.run_thread(ctx, token, resolver, natives, globals);
                }
            }
        }
        true
    }

    /// Returns `true` if this RPC completion answers one of our outcalls.
    pub fn owns_completion(&self, completion: &RpcCompletion) -> bool {
        self.outcalls.contains_key(&completion.call.as_raw())
    }

    /// Feeds an outcall completion back into the suspended thread and
    /// reschedules it.
    pub fn handle_outcall_completion(&mut self, ctx: &mut Ctx<'_, Msg>, completion: RpcCompletion) {
        let Some(token) = self.outcalls.remove(&completion.call.as_raw()) else {
            return;
        };
        let Some(entry) = self.threads.get_mut(&token) else {
            return; // thread was aborted while the outcall was in flight
        };
        match completion.result {
            Ok(payload) => {
                let value = payload.into_value().unwrap_or(Value::Unit);
                entry.thread.resume(value);
            }
            Err(fault) => {
                entry
                    .thread
                    .resume_err(VmError::RemoteCallFailed(fault.to_string()));
            }
        }
        // Re-entry costs nothing extra; the thread's own Work/dispatch
        // charges apply on the next run.
        self.defer(ctx, SimDuration::ZERO, Deferred::ResumeThread { token });
    }
}

impl std::fmt::Debug for ObjectRuntime {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ObjectRuntime")
            .field("object", &self.object)
            .field("live_threads", &self.threads.len())
            .field("deferred", &self.deferred.len())
            .field("invocations_served", &self.invocations_served)
            .finish()
    }
}
