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

use dcdo_sim::{fn_hash, ActorId, Ctx, IdMap, SimDuration, SpanKind};
use dcdo_types::{CallId, ComponentId, FunctionName, ObjectId};
use dcdo_vm::{
    CallOrigin, CallResolver, NativeRegistry, OutcallRequest, RunOutcome, Value, ValueStore,
    VmError, VmProfile, VmThread,
};

use crate::msg::{InvocationFault, Msg};
use crate::rpc::{RpcClient, RpcCompletion};

/// Per-run instruction budget for one thread activation.
pub const DEFAULT_FUEL: u64 = 10_000_000;

struct ThreadEntry {
    thread: VmThread,
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

/// The invocation-execution engine embedded in every active object actor.
pub struct ObjectRuntime {
    object: ObjectId,
    fuel: u64,
    threads: IdMap<u64, ThreadEntry>,
    deferred: IdMap<u64, Deferred>,
    outcalls: IdMap<u64, u64>,
    invocations_served: u64,
    vm_profile: VmProfile,
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
            vm_profile: VmProfile::new(),
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

    /// Aborts a live thread: unwinds it (resolver exits fire), fails its
    /// pending invocation with [`InvocationFault::ExecutionFault`], and
    /// forgets it. Used by the forced-removal (time-out) policy of §3.2.
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
        ctx.metrics().incr("object.threads_aborted");
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
        rpc: &mut RpcClient,
    ) {
        self.invocations_served += 1;
        match VmThread::call(resolver, &function, args, CallOrigin::External) {
            Ok(mut thread) => {
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
                self.run_thread(ctx, token, resolver, natives, globals, rpc);
            }
            Err(err) => {
                ctx.metrics().incr("object.invoke_rejected");
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

    #[allow(clippy::too_many_arguments)]
    fn run_thread(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        token: u64,
        resolver: &mut dyn CallResolver,
        natives: &NativeRegistry,
        globals: &mut ValueStore,
        rpc: &mut RpcClient,
    ) {
        let entry = self.threads.get_mut(&token).expect("thread exists");
        let outcome = entry.thread.run(resolver, natives, globals, self.fuel);
        let consumed = SimDuration::from_nanos(entry.thread.take_consumed_nanos());
        match outcome {
            RunOutcome::Completed(value) => {
                let mut entry = self.threads.remove(&token).expect("thread exists");
                self.finish_profile(ctx, &mut entry);
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
                let mut entry = self.threads.remove(&token).expect("thread exists");
                self.finish_profile(ctx, &mut entry);
                ctx.metrics().incr("object.threads_faulted");
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
                let _ = rpc;
                self.defer(ctx, consumed, Deferred::IssueOutcall { token, request });
            }
        }
    }

    /// Harvests a finished thread's cost profile: emits one `VmCost` span
    /// per function touched (enriching the thread's `CallServed` span) and
    /// folds the counters into the runtime-lifetime aggregate.
    fn finish_profile(&mut self, ctx: &mut Ctx<'_, Msg>, entry: &mut ThreadEntry) {
        let Some(profile) = entry.thread.take_profile() else {
            return;
        };
        for f in &profile.functions {
            ctx.emit_span(SpanKind::vm_cost(
                fn_hash(f.name.as_str()),
                f.stats.calls,
                f.stats.instructions,
                f.stats.work_nanos,
            ));
        }
        self.vm_profile.merge(&profile);
        dcdo_vm::record_global_vm_profile(&profile);
    }

    /// The merged VM cost profile of every profiled thread that finished in
    /// this runtime (empty unless tracing was on).
    pub fn vm_profile(&self) -> &VmProfile {
        &self.vm_profile
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
                    self.run_thread(ctx, token, resolver, natives, globals, rpc);
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
    #[allow(clippy::too_many_arguments)]
    pub fn handle_outcall_completion(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        completion: RpcCompletion,
        resolver: &mut dyn CallResolver,
        natives: &NativeRegistry,
        globals: &mut ValueStore,
        rpc: &mut RpcClient,
    ) {
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
        let _ = (resolver, natives, globals, rpc);
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
