//! Client-side remote invocation with binding caching and stale-binding
//! discovery.
//!
//! [`RpcClient`] is the machinery every caller (clients, objects making
//! outcalls, class objects, DCDO managers) embeds to talk to other objects
//! by [`ObjectId`]:
//!
//! 1. look up the target's physical address in the local **binding cache**;
//! 2. send the invocation and arm a connect timer;
//! 3. on timeout, retry against the same address with jittered backoff up to
//!    the configured attempt budget — this is the 25–35 second window the
//!    paper measures for a client to "realize that a local binding contains
//!    a physical address that the object is no longer using" (§4);
//! 4. then drop the cached binding, query the **binding agent**, and resend
//!    to the fresh address;
//! 5. give up with [`InvocationFault::Timeout`] at the overall deadline —
//!    or earlier with [`InvocationFault::Unreachable`] once the retry
//!    budget is exhausted: more than `max_rebinds` rebind cycles, or
//!    `max_unanswered_queries` consecutive binding queries the agent never
//!    answered (each re-query backs off exponentially, clamped to the time
//!    left before the deadline).
//!
//! A reply of [`InvocationFault::NoSuchObject`] (the address is alive but
//! hosts someone else) short-circuits straight to rebinding.

use dcdo_sim::{ActorId, Ctx, IdMap, RpcOutcome, SimDuration, SimTime, SpanKind, TimerId};
use dcdo_types::{CallId, FunctionName, ObjectId};
use dcdo_vm::Value;

use crate::binding::{BindingReply, QueryBinding};
use crate::cost::CostModel;
use crate::msg::{ControlOp, ControlPayload, InvocationFault, Msg, OpTable};

/// Where the binding agent lives.
#[derive(Debug, Clone, Copy)]
pub struct AgentAddress {
    /// The agent's actor (assumed stable; agents do not migrate here).
    pub actor: ActorId,
    /// The agent's object identity.
    pub object: ObjectId,
}

/// The operation being performed, kept for resends.
#[derive(Debug, Clone)]
enum RpcOp {
    Invoke {
        function: FunctionName,
        args: Vec<Value>,
    },
    Control {
        op: ControlOp,
    },
}

/// A successfully delivered reply payload.
#[derive(Debug)]
pub enum ReplyPayload {
    /// Reply to a user-level invocation.
    Value(Value),
    /// Reply to a control operation.
    Control(ControlOp),
}

impl ReplyPayload {
    /// Returns the value, if this answers a user-level invocation.
    pub fn into_value(self) -> Option<Value> {
        match self {
            ReplyPayload::Value(v) => Some(v),
            ReplyPayload::Control(_) => None,
        }
    }

    /// A control reply as a concrete payload type, if it is one.
    pub fn control_as<T: ControlPayload>(&self) -> Option<&T> {
        match self {
            ReplyPayload::Control(op) => op.downcast_ref::<T>(),
            ReplyPayload::Value(_) => None,
        }
    }
}

/// A finished call: delivered result or terminal fault, plus discovery
/// statistics.
#[derive(Debug)]
pub struct RpcCompletion {
    /// The call that finished.
    pub call: CallId,
    /// The object it addressed.
    pub target: ObjectId,
    /// The outcome.
    pub result: Result<ReplyPayload, InvocationFault>,
    /// Wall-clock (simulated) time from issue to completion.
    pub elapsed: SimDuration,
    /// How many times the call fell back to the binding agent.
    pub rebinds: u32,
    /// Total send attempts made.
    pub attempts: u32,
}

/// What [`RpcClient::handle_message`] did with a message.
#[derive(Debug)]
pub enum Handled {
    /// The message completed one of our calls.
    Completed(RpcCompletion),
    /// The message advanced one of our calls (e.g. a binding arrived and the
    /// operation was re-sent); nothing for the owner to do.
    InProgress,
    /// The message was a stale duplicate of an already-completed call.
    Stale,
    /// The message does not belong to this client; the owner should process
    /// it.
    NotMine(Msg),
}

#[derive(Debug)]
enum Phase {
    /// Transient state while the call is being (re)routed.
    Idle,
    AwaitReply {
        timer: TimerId,
        address: ActorId,
    },
    AwaitBinding {
        timer: TimerId,
        query: CallId,
    },
}

#[derive(Debug)]
struct Pending {
    target: ObjectId,
    op: RpcOp,
    started: SimTime,
    deadline: SimTime,
    /// Attempts against the current address (drives the retry policy).
    attempts: u32,
    /// Attempts across all addresses (reported in the completion).
    total_attempts: u32,
    rebinds: u32,
    /// Consecutive binding queries the agent never answered.
    unanswered_queries: u32,
    phase: Phase,
}

/// Client-side invocation machinery with a binding cache.
#[derive(Debug)]
pub struct RpcClient {
    agent: AgentAddress,
    cost: CostModel,
    cache: IdMap<ObjectId, ActorId>,
    pending: IdMap<u64, Pending>,
    // binding-query call raw -> original call raw
    binding_queries: IdMap<u64, u64>,
}

impl RpcClient {
    /// Creates a client that resolves bindings through `agent` and times out
    /// per `cost`. The agent's own binding is pre-seeded (its address is
    /// well-known infrastructure).
    pub fn new(agent: AgentAddress, cost: CostModel) -> Self {
        let mut cache = IdMap::default();
        cache.insert(agent.object, agent.actor);
        RpcClient {
            agent,
            cost,
            cache,
            pending: IdMap::default(),
            binding_queries: IdMap::default(),
        }
    }

    /// Pre-populates the binding cache (e.g. from a directory handed out at
    /// startup).
    pub fn seed_binding(&mut self, object: ObjectId, address: ActorId) {
        self.cache.insert(object, address);
    }

    /// Returns the cached address for an object, if any.
    pub fn cached_binding(&self, object: ObjectId) -> Option<ActorId> {
        self.cache.get(&object).copied()
    }

    /// Number of calls currently in flight.
    pub fn in_flight(&self) -> usize {
        self.pending.len()
    }

    /// Returns `true` if this client owns the given timer token.
    pub fn owns_timer(&self, token: u64) -> bool {
        self.pending.contains_key(&token)
    }

    /// Starts a user-level invocation of `function` on `target`.
    pub fn invoke(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        target: ObjectId,
        function: impl Into<FunctionName>,
        args: Vec<Value>,
    ) -> CallId {
        self.start(
            ctx,
            target,
            RpcOp::Invoke {
                function: function.into(),
                args,
            },
        )
    }

    /// Starts a control operation on `target`.
    pub fn control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        target: ObjectId,
        op: impl Into<ControlOp>,
    ) -> CallId {
        self.start(ctx, target, RpcOp::Control { op: op.into() })
    }

    fn start(&mut self, ctx: &mut Ctx<'_, Msg>, target: ObjectId, op: RpcOp) -> CallId {
        let call = CallId::from_raw(ctx.fresh_u64());
        let now = ctx.now();
        let mut pending = Pending {
            target,
            op,
            started: now,
            deadline: now + self.cost.invocation_deadline,
            attempts: 0,
            total_attempts: 0,
            rebinds: 0,
            unanswered_queries: 0,
            phase: Phase::Idle,
        };
        match self.cache.get(&target).copied() {
            Some(address) => {
                if ctx.tracing_enabled() {
                    ctx.emit_span(SpanKind::BindingHit {
                        object: target.as_raw(),
                        dst: address.as_raw(),
                    });
                }
                self.send_attempt(ctx, call, &mut pending, address);
            }
            None => {
                if ctx.tracing_enabled() {
                    ctx.emit_span(SpanKind::BindingMiss {
                        object: target.as_raw(),
                    });
                }
                self.query_binding(ctx, call, &mut pending);
            }
        }
        self.pending.insert(call.as_raw(), pending);
        call
    }

    fn send_attempt(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        call: CallId,
        pending: &mut Pending,
        address: ActorId,
    ) {
        pending.attempts += 1;
        pending.total_attempts += 1;
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::rpc_attempt(
                call.as_raw(),
                pending.target.as_raw(),
                pending.total_attempts,
                address.as_raw(),
            ));
        }
        let msg = match &pending.op {
            RpcOp::Invoke { function, args } => Msg::Invoke {
                call,
                target: pending.target,
                function: function.clone(),
                args: args.clone(),
            },
            RpcOp::Control { op } => Msg::Control {
                call,
                target: pending.target,
                op: op.clone(),
            },
        };
        ctx.send(address, msg);
        let factor = ctx
            .rng()
            .range_f64(1.0, self.cost.binding_backoff_jitter.max(1.0) + 1e-9);
        let timeout = self.cost.binding_connect_timeout.mul_f64(factor);
        let timer = ctx.schedule_timer(timeout, call.as_raw());
        pending.phase = Phase::AwaitReply { timer, address };
    }

    fn query_binding(&mut self, ctx: &mut Ctx<'_, Msg>, call: CallId, pending: &mut Pending) {
        self.query_binding_with_timeout(ctx, call, pending, self.cost.binding_connect_timeout);
    }

    fn query_binding_with_timeout(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        call: CallId,
        pending: &mut Pending,
        timeout: SimDuration,
    ) {
        let query = CallId::from_raw(ctx.fresh_u64());
        ctx.send(
            self.agent.actor,
            Msg::Control {
                call: query,
                target: self.agent.object,
                op: ControlOp::new(QueryBinding {
                    object: pending.target,
                }),
            },
        );
        self.binding_queries.insert(query.as_raw(), call.as_raw());
        let timer = ctx.schedule_timer(timeout, call.as_raw());
        pending.phase = Phase::AwaitBinding { timer, query };
    }

    /// Feeds an incoming message to the client.
    pub fn handle_message(&mut self, ctx: &mut Ctx<'_, Msg>, msg: Msg) -> Handled {
        match msg {
            Msg::Reply { call, result } => self.settle(ctx, call, result.map(ReplyPayload::Value)),
            Msg::ControlReply { call, result } => {
                // Binding-query answers come back as ControlReply too.
                if let Some(original) = self.binding_queries.remove(&call.as_raw()) {
                    return self.handle_binding_reply(ctx, original, result);
                }
                self.settle(ctx, call, result.map(ReplyPayload::Control))
            }
            Msg::Progress { call } => {
                // The server accepted a long-running operation: the address
                // is live, so stand down the connect-timeout retries and
                // wait out the overall deadline.
                let Some(pending) = self.pending.get_mut(&call.as_raw()) else {
                    return Handled::Stale;
                };
                if let Phase::AwaitReply { timer, address } = pending.phase {
                    ctx.cancel_timer(timer);
                    let remaining = pending.deadline.duration_since(ctx.now());
                    let timer = ctx.schedule_timer(remaining, call.as_raw());
                    // Freeze retries by marking the attempt budget spent more
                    // than the retry check allows.
                    pending.attempts = u32::MAX;
                    pending.phase = Phase::AwaitReply { timer, address };
                }
                Handled::InProgress
            }
            other => Handled::NotMine(other),
        }
    }

    /// Settles an incoming reply against the pending table: completes the
    /// call, or — on `NoSuchObject` — drops the binding and rebinds.
    fn settle(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        call: CallId,
        result: Result<ReplyPayload, InvocationFault>,
    ) -> Handled {
        let Some(mut pending) = self.pending.remove(&call.as_raw()) else {
            return Handled::Stale;
        };
        self.cancel_phase_timer(ctx, &pending.phase);
        if let Err(InvocationFault::NoSuchObject(_)) = &result {
            // Alive address, wrong occupant: rebind immediately.
            self.cache.remove(&pending.target);
            if ctx.tracing_enabled() {
                ctx.emit_span(SpanKind::BindingInvalidated {
                    object: pending.target.as_raw(),
                });
            }
            pending.rebinds += 1;
            if pending.rebinds > self.cost.max_rebinds {
                ctx.metrics().incr("rpc.unreachable");
                return Handled::Completed(self.complete(
                    ctx,
                    call,
                    pending,
                    Err(InvocationFault::Unreachable),
                ));
            }
            self.query_binding(ctx, call, &mut pending);
            self.pending.insert(call.as_raw(), pending);
            return Handled::InProgress;
        }
        Handled::Completed(self.complete(ctx, call, pending, result))
    }

    fn handle_binding_reply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        original: u64,
        result: Result<ControlOp, InvocationFault>,
    ) -> Handled {
        let Some(mut pending) = self.pending.remove(&original) else {
            return Handled::Stale;
        };
        self.cancel_phase_timer(ctx, &pending.phase);
        let call = CallId::from_raw(original);
        // The agent is alive — only *unanswered* queries count toward the
        // Unreachable budget.
        pending.unanswered_queries = 0;
        let address = match result.as_ref().ok().and_then(BindingReply::decode) {
            Some(BindingReply::BindingResult(b)) => b.address,
            _ => None,
        };
        match address {
            Some(address) => {
                self.cache.insert(pending.target, address);
                self.send_attempt(ctx, call, &mut pending, address);
                self.pending.insert(original, pending);
                Handled::InProgress
            }
            None => {
                // Not currently bound (mid-migration or deleted). Re-query
                // after a timeout unless past the deadline.
                if ctx.now() >= pending.deadline {
                    return Handled::Completed(self.complete(
                        ctx,
                        call,
                        pending,
                        Err(InvocationFault::Timeout),
                    ));
                }
                let timer = ctx.schedule_timer(self.cost.binding_connect_timeout, original);
                pending.phase = Phase::AwaitBinding {
                    timer,
                    query: CallId::from_raw(u64::MAX),
                };
                self.pending.insert(original, pending);
                Handled::InProgress
            }
        }
    }

    /// Feeds a fired timer to the client. Returns a completion if the call
    /// terminally timed out, `None` if the timer was not ours or the call
    /// was advanced (retry / rebind).
    pub fn handle_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) -> Option<RpcCompletion> {
        let mut pending = self.pending.remove(&token)?;
        let call = CallId::from_raw(token);
        if ctx.now() >= pending.deadline {
            return Some(self.complete(ctx, call, pending, Err(InvocationFault::Timeout)));
        }
        match pending.phase {
            Phase::AwaitReply { address, .. } => {
                if pending.attempts < self.cost.binding_attempts {
                    // Retry against the same (possibly stale) address.
                    if ctx.tracing_enabled() {
                        ctx.emit_span(SpanKind::RpcRetry {
                            call: call.as_raw(),
                            attempt: pending.total_attempts,
                        });
                    }
                    self.send_attempt(ctx, call, &mut pending, address);
                } else {
                    // Give up on the cached binding; consult the agent.
                    self.cache.remove(&pending.target);
                    if ctx.tracing_enabled() {
                        ctx.emit_span(SpanKind::BindingInvalidated {
                            object: pending.target.as_raw(),
                        });
                    }
                    pending.rebinds += 1;
                    if pending.rebinds > self.cost.max_rebinds {
                        // Every address the agent hands out times out:
                        // declare the target unreachable instead of cycling
                        // until the deadline.
                        ctx.metrics().incr("rpc.unreachable");
                        return Some(self.complete(
                            ctx,
                            call,
                            pending,
                            Err(InvocationFault::Unreachable),
                        ));
                    }
                    pending.attempts = 0;
                    self.query_binding(ctx, call, &mut pending);
                }
                self.pending.insert(token, pending);
                None
            }
            Phase::AwaitBinding { query, .. } => {
                if query.as_raw() == u64::MAX {
                    // The agent answered "not bound" earlier; keep polling
                    // at the base cadence until the deadline resolves it.
                    self.query_binding(ctx, call, &mut pending);
                } else {
                    // A real query went unanswered: the agent (or the path
                    // to it) is down. Back off exponentially and give up
                    // early once the budget is spent.
                    self.binding_queries.remove(&query.as_raw());
                    pending.unanswered_queries += 1;
                    if pending.unanswered_queries >= self.cost.max_unanswered_queries {
                        ctx.metrics().incr("rpc.unreachable");
                        return Some(self.complete(
                            ctx,
                            call,
                            pending,
                            Err(InvocationFault::Unreachable),
                        ));
                    }
                    let shift = pending.unanswered_queries.min(6);
                    let backoff = self.cost.binding_connect_timeout * (1u64 << shift);
                    let remaining = pending.deadline.duration_since(ctx.now());
                    self.query_binding_with_timeout(
                        ctx,
                        call,
                        &mut pending,
                        backoff.min(remaining),
                    );
                }
                self.pending.insert(token, pending);
                None
            }
            Phase::Idle => unreachable!("idle calls hold no timers"),
        }
    }

    fn cancel_phase_timer(&self, ctx: &mut Ctx<'_, Msg>, phase: &Phase) {
        match phase {
            Phase::AwaitReply { timer, .. } | Phase::AwaitBinding { timer, .. } => {
                ctx.cancel_timer(*timer);
            }
            Phase::Idle => {}
        }
    }

    fn complete(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        call: CallId,
        pending: Pending,
        result: Result<ReplyPayload, InvocationFault>,
    ) -> RpcCompletion {
        let elapsed = ctx.now().duration_since(pending.started);
        if ctx.tracing_enabled() {
            let outcome = match &result {
                Ok(_) => RpcOutcome::Ok,
                Err(InvocationFault::Unreachable) => RpcOutcome::Unreachable,
                Err(InvocationFault::Timeout) => RpcOutcome::Timeout,
                Err(_) => RpcOutcome::Fault,
            };
            ctx.emit_span(SpanKind::RpcCompleted {
                call: call.as_raw(),
                outcome,
            });
        }
        RpcCompletion {
            call,
            target: pending.target,
            result,
            elapsed,
            rebinds: pending.rebinds,
            attempts: pending.total_attempts,
        }
    }
}
