//! Client load drivers.
//!
//! [`ClosedLoopClient`] issues a fixed number of sequential invocations of
//! one function against one object — the next request leaves when the
//! previous reply arrives (optionally after a think time) — and records
//! per-call latency. No experiment uses it: it is the background call
//! traffic of the end-to-end tests (`tests/full_stack.rs`,
//! `tests/churn.rs`).

use dcdo_sim::{Actor, ActorId, Ctx, SimDuration, SimTime};
use dcdo_types::ObjectId;
use dcdo_vm::Value;
use legion_substrate::{AgentAddress, CostModel, Handled, InvocationFault, Msg, RpcClient};

/// One observed call.
#[derive(Debug, Clone)]
pub struct CallRecord {
    /// When the call was issued.
    pub issued_at: SimTime,
    /// Round-trip latency.
    pub latency: SimDuration,
    /// Whether the call succeeded.
    pub ok: bool,
    /// Rebinds the call needed (stale-binding recoveries).
    pub rebinds: u32,
}

/// A closed-loop caller: `count` sequential invocations with think time.
pub struct ClosedLoopClient {
    object: ObjectId,
    rpc: RpcClient,
    target: ObjectId,
    function: String,
    args: Vec<Value>,
    remaining: u64,
    think: SimDuration,
    in_flight: Option<(dcdo_types::CallId, SimTime)>,
    records: Vec<CallRecord>,
    faults: Vec<InvocationFault>,
}

/// Timer token used for think-time wakeups.
const THINK_TOKEN: u64 = u64::MAX - 1;

impl ClosedLoopClient {
    /// Creates a client that will issue `count` calls of
    /// `function(args...)` on `target`, pausing `think` between calls.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        object: ObjectId,
        agent: AgentAddress,
        cost: CostModel,
        target: ObjectId,
        function: impl Into<String>,
        args: Vec<Value>,
        count: u64,
        think: SimDuration,
    ) -> Self {
        ClosedLoopClient {
            object,
            rpc: RpcClient::new(agent, cost),
            target,
            function: function.into(),
            args,
            remaining: count,
            think,
            in_flight: None,
            records: Vec::new(),
            faults: Vec::new(),
        }
    }

    /// The client's object identity.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// Starts the loop (driver-side, via `with_actor`).
    pub fn start(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.fire(ctx);
    }

    /// Completed-call records.
    pub fn records(&self) -> &[CallRecord] {
        &self.records
    }

    /// Faults observed (also reflected in `records` with `ok = false`).
    pub fn faults(&self) -> &[InvocationFault] {
        &self.faults
    }

    /// Returns `true` when all calls have completed.
    pub fn is_done(&self) -> bool {
        self.remaining == 0 && self.in_flight.is_none()
    }

    fn fire(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.remaining == 0 || self.in_flight.is_some() {
            return;
        }
        self.remaining -= 1;
        let call = self
            .rpc
            .invoke(ctx, self.target, self.function.as_str(), self.args.clone());
        self.in_flight = Some((call, ctx.now()));
    }

    fn complete(&mut self, ctx: &mut Ctx<'_, Msg>, completion: legion_substrate::RpcCompletion) {
        let Some((call, issued_at)) = self.in_flight else {
            return;
        };
        if completion.call != call {
            return;
        }
        self.in_flight = None;
        let ok = completion.result.is_ok();
        if let Err(fault) = completion.result {
            self.faults.push(fault);
        }
        self.records.push(CallRecord {
            issued_at,
            latency: completion.elapsed,
            ok,
            rebinds: completion.rebinds,
        });
        if self.remaining > 0 {
            if self.think.is_zero() {
                self.fire(ctx);
            } else {
                ctx.schedule_timer(self.think, THINK_TOKEN);
            }
        }
    }
}

impl Actor<Msg> for ClosedLoopClient {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, _from: ActorId, msg: Msg) {
        if let Handled::Completed(completion) = self.rpc.handle_message(ctx, msg) {
            self.complete(ctx, completion);
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if token == THINK_TOKEN {
            self.fire(ctx);
            return;
        }
        if self.rpc.owns_timer(token) {
            if let Some(completion) = self.rpc.handle_timer(ctx, token) {
                self.complete(ctx, completion);
            }
        }
    }

    fn name(&self) -> &str {
        "closed-loop-client"
    }
}

impl std::fmt::Debug for ClosedLoopClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ClosedLoopClient")
            .field("target", &self.target)
            .field("function", &self.function)
            .field("remaining", &self.remaining)
            .field("records", &self.records.len())
            .finish()
    }
}
