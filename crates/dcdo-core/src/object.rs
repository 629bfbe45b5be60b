//! Dynamically configurable distributed objects (§2, §2.2).
//!
//! A [`DcdoObject`] is an active Legion object whose implementation is a
//! set of incorporated components dispatched through a [`Dfm`]. Its
//! external interface has the three categories of §2.2:
//!
//! - **configuration functions** (`incorporateComponent`, `removeComponent`,
//!   `enableFunction`, `disableFunction`, protections, dependencies, and the
//!   bulk [`ApplyDfmDescriptor`] used by managers) evolve the implementation
//!   *while the object keeps serving invocations*;
//! - **status reporting functions** (`QueryInterface`,
//!   `QueryImplementation`, `QueryFunctionStatus`) describe it;
//! - **user-defined dynamic functions** are whatever the incorporated
//!   components implement.
//!
//! Incorporating a component is a staged pipeline: consult the local host's
//! component cache; on a miss, read the data from the component's ICO
//! (transfer-costed) and store it in the host cache; then map it
//! (≈200 µs when cached — the paper's number). Removal is gated by thread
//! activity monitoring (§3.2) under a configurable [`RemovalPolicy`], and
//! disables are postponed while active threads of dependent functions would
//! be stranded.

use std::collections::VecDeque;

use bytes::Bytes;
use dcdo_sim::{
    cfg_step, Actor, ActorId, Ctx, FlowKind as TraceFlowKind, IdMap, SimDuration, SimTime, SpanKind,
};
use dcdo_types::{
    Architecture, CallId, ComponentId, FunctionName, ImplementationType, ObjectId, VersionId,
};
use dcdo_vm::{ComponentBinary, NativeRegistry, Value, ValueStore};
use legion_substrate::host::{ComponentData, FetchComponentData, StoreComponentData};
use legion_substrate::monolithic::{CaptureState, Deactivate, RestoreState, StateBlob};
use legion_substrate::{
    Ack, ControlOp, CostModel, Handled, InvocationFault, Msg, RpcClient, RpcCompletion,
};

use crate::dfm::Dfm;
use crate::error::{ack_or_refuse, ConfigError};
use crate::ops::{
    AddFunctionDependency, ApplyDfmDescriptor, CheckVersion, DisableFunction, EnableFunction,
    FunctionStatusReport, ImplementationReport, IncorporateComponent, InterfaceReport, LazyCheck,
    QueryFunctionStatus, QueryImplementation, QueryInterface, ReadComponent,
    ReadComponentDescriptor, RemovalPolicy, RemoveComponent, RemoveFunctionDependency,
    SetFunctionProtection, SetLazyCheck, SetRemovalPolicy, VersionCheckReply,
};

/// Interval at which delayed removals re-check thread activity.
const IDLE_RECHECK: SimDuration = SimDuration::from_millis(50);

#[derive(Debug)]
enum FetchStage {
    /// Reading the component descriptor from the ICO (size unknown yet).
    Descriptor { ico: ObjectId },
    /// Asking the local host cache.
    HostCheck {
        component: ComponentId,
        ico: ObjectId,
    },
    /// Downloading from the ICO.
    IcoRead { component: ComponentId },
    /// Writing into the local host cache.
    HostStore { binary: ComponentBinary },
    /// Mapping into the address space (timer).
    MapTimer { binary: ComponentBinary },
}

#[derive(Debug)]
enum FlowKind {
    /// `incorporateComponent()`: incorporate staged components (disabled).
    Incorporate,
    /// Bulk evolution toward a full target descriptor.
    Apply {
        target: crate::descriptor::DfmDescriptor,
    },
    /// `removeComponent()` gated by thread activity.
    Remove { component: ComponentId },
    /// `disableFunction()` postponed while dependent threads are active.
    Disable { function: FunctionName },
}

/// One component still to pull: its ICO, and — when the caller already
/// knows it (Apply flows, from the target descriptor) — the component id,
/// which lets the fetch skip the ICO metadata roundtrip and go straight to
/// the local host cache.
#[derive(Debug, Clone, Copy)]
struct FetchItem {
    ico: ObjectId,
    component: Option<ComponentId>,
}

#[derive(Debug)]
struct ConfigFlow {
    reply: Option<(ActorId, CallId)>,
    kind: FlowKind,
    to_fetch: VecDeque<FetchItem>,
    fetching: Option<FetchStage>,
    started: SimTime,
    force_deadline: Option<SimTime>,
}

/// How an invocation is parked while the object synchronizes with its
/// manager (lazy update policies).
#[derive(Debug)]
struct ParkedInvocation {
    from: ActorId,
    call: CallId,
    function: FunctionName,
    args: Vec<Value>,
}

/// An active DCDO.
pub struct DcdoObject {
    object: ObjectId,
    manager: ObjectId,
    host: ObjectId,
    host_arch: Architecture,
    impl_type: ImplementationType,
    dfm: Dfm,
    runtime: legion_substrate::ObjectRuntime,
    natives: NativeRegistry,
    rpc: RpcClient,
    state: ValueStore,
    cost: CostModel,
    removal_policy: RemovalPolicy,
    lazy: LazyCheck,
    calls_since_check: u32,
    last_check: SimTime,
    check_in_flight: bool,
    parked: Vec<ParkedInvocation>,
    flows: IdMap<u64, ConfigFlow>,
    rpc_routes: IdMap<u64, u64>,
    timer_routes: IdMap<u64, u64>,
    config_ops_applied: u64,
}

impl DcdoObject {
    /// Creates a DCDO with an empty implementation at the given version.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        object: ObjectId,
        manager: ObjectId,
        host: ObjectId,
        host_arch: Architecture,
        version: VersionId,
        cost: CostModel,
        rpc: RpcClient,
        seed: u64,
    ) -> Self {
        let dfm = Dfm::new(
            version,
            (cost.dfm_dispatch_min, cost.dfm_dispatch_max),
            seed,
        );
        DcdoObject {
            object,
            manager,
            host,
            host_arch,
            impl_type: ImplementationType::portable_bytecode(),
            dfm,
            runtime: legion_substrate::ObjectRuntime::new(object),
            natives: NativeRegistry::standard(),
            rpc,
            state: ValueStore::new(),
            cost,
            removal_policy: RemovalPolicy::Refuse,
            lazy: LazyCheck::Never,
            calls_since_check: 0,
            last_check: SimTime::ZERO,
            check_in_flight: false,
            parked: Vec::new(),
            flows: IdMap::default(),
            rpc_routes: IdMap::default(),
            timer_routes: IdMap::default(),
            config_ops_applied: 0,
        }
    }

    /// The DCDO's identity.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// The DCDO's manager.
    pub fn manager_id(&self) -> ObjectId {
        self.manager
    }

    /// The native architecture of the host this DCDO runs on.
    pub fn host_arch(&self) -> Architecture {
        self.host_arch
    }

    /// The DFM (driver-side inspection).
    pub fn dfm(&self) -> &Dfm {
        &self.dfm
    }

    /// The current implementation version.
    pub fn version(&self) -> &VersionId {
        self.dfm.version()
    }

    /// The object's persistent state.
    pub fn state(&self) -> &ValueStore {
        &self.state
    }

    /// Invocations served so far.
    pub fn invocations_served(&self) -> u64 {
        self.runtime.invocations_served()
    }

    /// Configuration operations applied so far.
    pub fn config_ops_applied(&self) -> u64 {
        self.config_ops_applied
    }

    /// Configuration flows still in progress.
    pub fn flows_in_flight(&self) -> usize {
        self.flows.len()
    }

    /// Sets the lazy check mode (driver-side; also settable over the wire).
    pub fn set_lazy_check(&mut self, mode: LazyCheck) {
        self.lazy = mode;
    }

    /// Sets the removal policy (driver-side; also settable over the wire).
    pub fn set_removal_policy(&mut self, policy: RemovalPolicy) {
        self.removal_policy = policy;
    }

    // ---- lazy update checking (§3.4) -----------------------------------

    fn lazy_check_due(&self, now: SimTime) -> bool {
        match self.lazy {
            LazyCheck::Never => false,
            LazyCheck::EveryCall => true,
            LazyCheck::EveryKCalls(k) => self.calls_since_check + 1 >= k.max(1),
            LazyCheck::Every(period) => now.duration_since(self.last_check) >= period,
        }
    }

    fn start_version_check(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.check_in_flight = true;
        self.calls_since_check = 0;
        self.last_check = ctx.now();
        let call = self.rpc.control(
            ctx,
            self.manager,
            ControlOp::new(CheckVersion {
                object: self.object,
                current: self.dfm.version().clone(),
            }),
        );
        // Route the reply to the pseudo-flow id 0.
        self.rpc_routes.insert(call.as_raw(), 0);
        ctx.metrics().incr("dcdo.lazy_checks");
    }

    fn unpark_all(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let parked = std::mem::take(&mut self.parked);
        for p in parked {
            if ctx.tracing_enabled() {
                ctx.emit_span(SpanKind::CallServed {
                    object: self.object.as_raw(),
                    call: p.call.as_raw(),
                });
            }
            self.runtime.handle_invoke(
                ctx,
                p.from,
                p.call,
                p.function,
                p.args,
                &mut self.dfm,
                &self.natives,
                &mut self.state,
                &mut self.rpc,
            );
        }
    }

    // ---- configuration flows -------------------------------------------

    /// Emits a `FlowStarted` span for a freshly inserted object-local flow.
    /// Object flows carry the trace kind `Config`, distinguishing them from
    /// the manager's lifecycle flows.
    fn trace_flow_started(&self, ctx: &mut Ctx<'_, Msg>, flow_id: u64) {
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::FlowStarted {
                flow: flow_id,
                object: self.object.as_raw(),
                kind: TraceFlowKind::Config,
            });
        }
    }

    /// Emits a `FlowStep` span for a flow that just entered `step` (one of
    /// the [`cfg_step`] codes).
    fn trace_step(ctx: &mut Ctx<'_, Msg>, flow_id: u64, step: u32) {
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::FlowStep {
                flow: flow_id,
                step,
            });
        }
    }

    fn start_flow(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        kind: FlowKind,
        to_fetch: VecDeque<FetchItem>,
    ) -> u64 {
        let flow_id = ctx.fresh_u64();
        if let Some((reply_to, call)) = reply {
            ctx.send(reply_to, Msg::Progress { call });
        }
        let flow = ConfigFlow {
            reply,
            kind,
            to_fetch,
            fetching: None,
            started: ctx.now(),
            force_deadline: None,
        };
        self.flows.insert(flow_id, flow);
        self.trace_flow_started(ctx, flow_id);
        self.advance_flow(ctx, flow_id);
        flow_id
    }

    /// Drives a flow forward: fetch the next component, or run the
    /// completion gate.
    fn advance_flow(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64) {
        let Some(flow) = self.flows.get_mut(&flow_id) else {
            return;
        };
        if flow.fetching.is_some() {
            return;
        }
        if let Some(item) = flow.to_fetch.pop_front() {
            match item.component {
                Some(component) if self.dfm.is_loaded(component) => {
                    self.advance_flow(ctx, flow_id);
                }
                Some(component) => {
                    flow.fetching = Some(FetchStage::HostCheck {
                        component,
                        ico: item.ico,
                    });
                    Self::trace_step(ctx, flow_id, cfg_step::HOST_CHECK);
                    let call = self.rpc.control(
                        ctx,
                        self.host,
                        ControlOp::new(FetchComponentData { component }),
                    );
                    self.rpc_routes.insert(call.as_raw(), flow_id);
                }
                None => {
                    flow.fetching = Some(FetchStage::Descriptor { ico: item.ico });
                    Self::trace_step(ctx, flow_id, cfg_step::DESCRIPTOR);
                    let call =
                        self.rpc
                            .control(ctx, item.ico, ControlOp::new(ReadComponentDescriptor));
                    self.rpc_routes.insert(call.as_raw(), flow_id);
                }
            }
            return;
        }
        self.finish_gate(ctx, flow_id);
    }

    /// All data staged: apply the flow's semantic step, honoring the
    /// thread-activity policy for anything that removes code.
    fn finish_gate(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64) {
        let Some(flow) = self.flows.get(&flow_id) else {
            return;
        };
        Self::trace_step(ctx, flow_id, cfg_step::GATE);
        let busy: Vec<(ComponentId, u32)> = match &flow.kind {
            FlowKind::Remove { component } => {
                let n = self.dfm.component_active_threads(*component);
                if n > 0 {
                    vec![(*component, n)]
                } else {
                    vec![]
                }
            }
            FlowKind::Apply { target } => {
                let diff = self.dfm.descriptor().diff_components(target);
                diff.remove
                    .iter()
                    .map(|c| (*c, self.dfm.component_active_threads(*c)))
                    .filter(|(_, n)| *n > 0)
                    .collect()
            }
            FlowKind::Disable { function } => {
                if self.dfm.dependents_active(function) {
                    vec![(ComponentId::from_raw(0), 1)]
                } else {
                    vec![]
                }
            }
            FlowKind::Incorporate => vec![],
        };
        if !busy.is_empty() {
            match self.removal_policy {
                RemovalPolicy::Refuse => {
                    let (component, active_threads) = busy[0];
                    self.fail_flow(
                        ctx,
                        flow_id,
                        ConfigError::ComponentBusy {
                            component,
                            active_threads: active_threads as usize,
                        },
                    );
                }
                RemovalPolicy::DelayUntilIdle => {
                    ctx.metrics().incr("dcdo.removals_delayed");
                    self.schedule_flow_timer(ctx, flow_id, IDLE_RECHECK);
                }
                RemovalPolicy::ForceAfter(grace) => {
                    let now = ctx.now();
                    let flow = self.flows.get_mut(&flow_id).expect("flow exists");
                    let deadline = *flow.force_deadline.get_or_insert(now + grace);
                    if now >= deadline {
                        // Grace expired: abort the stragglers and proceed.
                        for (component, _) in &busy {
                            for token in self.runtime.threads_in_component(*component) {
                                self.runtime.abort_thread(
                                    ctx,
                                    &mut self.dfm,
                                    token,
                                    "component removal forced after grace period",
                                );
                            }
                        }
                        self.apply_flow_semantics(ctx, flow_id);
                    } else {
                        self.schedule_flow_timer(ctx, flow_id, IDLE_RECHECK);
                    }
                }
            }
            return;
        }
        self.apply_flow_semantics(ctx, flow_id);
    }

    /// Executes the flow's actual configuration change and replies.
    fn apply_flow_semantics(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64) {
        let flow = self.flows.remove(&flow_id).expect("flow exists");
        Self::trace_step(ctx, flow_id, cfg_step::APPLY);
        let result: Result<(), ConfigError> = match flow.kind {
            FlowKind::Incorporate => Ok(()), // staged components were incorporated during mapping
            FlowKind::Apply { target } => {
                let outcome = self.dfm.apply_descriptor(target);
                if outcome.is_ok() {
                    let elapsed = ctx.now().duration_since(flow.started);
                    ctx.metrics().incr("dcdo.evolutions");
                    ctx.metrics()
                        .sample_duration("dcdo.evolution_time", elapsed);
                }
                outcome
            }
            FlowKind::Remove { component } => self.dfm.remove_component(component),
            FlowKind::Disable { function } => self.dfm.disable_function(&function),
        };
        if ctx.tracing_enabled() {
            if result.is_ok() {
                ctx.emit_span(SpanKind::FlowCompleted { flow: flow_id });
            } else {
                ctx.emit_span(SpanKind::FlowAborted { flow: flow_id });
            }
        }
        if result.is_ok() {
            self.config_ops_applied += 1;
            if ctx.tracing_enabled() {
                ctx.emit_span(SpanKind::GenerationStamp {
                    object: self.object.as_raw(),
                    generation: self.dfm.generation(),
                });
            }
        }
        if self.check_in_flight {
            // A lazy-triggered evolution just finished; resume service and
            // tell the manager where we landed (fire-and-forget).
            self.check_in_flight = false;
            if result.is_ok() {
                let call = self.rpc.control(
                    ctx,
                    self.manager,
                    ControlOp::new(crate::ops::ReportVersion {
                        object: self.object,
                        version: self.dfm.version().clone(),
                    }),
                );
                // Route nowhere: the Ack settles the rpc entry and is
                // discarded by the generic completion path.
                let _ = call;
            }
            self.unpark_all(ctx);
        }
        if let Some((reply_to, call)) = flow.reply {
            ctx.send(reply_to, ack_or_refuse(call, result));
        }
    }

    fn fail_flow(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64, err: ConfigError) {
        let Some(flow) = self.flows.remove(&flow_id) else {
            return;
        };
        ctx.metrics().incr("dcdo.config_failed");
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::FlowAborted { flow: flow_id });
        }
        if self.check_in_flight {
            self.check_in_flight = false;
            self.unpark_all(ctx);
        }
        if let Some((reply_to, call)) = flow.reply {
            ctx.send(reply_to, Msg::refused(call, err));
        }
    }

    fn schedule_flow_timer(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64, delay: SimDuration) {
        let token = ctx.fresh_u64();
        self.timer_routes.insert(token, flow_id);
        ctx.schedule_timer(delay, token);
    }

    /// Handles an RPC completion belonging to a flow's fetch pipeline.
    fn handle_flow_completion(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow_id: u64,
        completion: RpcCompletion,
    ) {
        // flow_id 0 is the lazy version check.
        if flow_id == 0 {
            self.handle_check_reply(ctx, completion);
            return;
        }
        let Some(flow) = self.flows.get_mut(&flow_id) else {
            return;
        };
        let stage = flow.fetching.take();
        let payload = match completion.result {
            Ok(p) => p,
            Err(fault) => {
                self.fail_flow(
                    ctx,
                    flow_id,
                    ConfigError::BadComponent(format!("fetch failed: {fault}")),
                );
                return;
            }
        };
        match stage {
            Some(FetchStage::Descriptor { ico }) => {
                let Some(reply) = payload.control_as::<crate::ops::ComponentDescriptorReply>()
                else {
                    self.fail_flow(
                        ctx,
                        flow_id,
                        ConfigError::BadComponent("bad descriptor reply".into()),
                    );
                    return;
                };
                let component = reply.descriptor.id;
                if self.dfm.is_loaded(component) {
                    // Already have the code; nothing to fetch.
                    self.advance_flow(ctx, flow_id);
                    return;
                }
                let flow = self.flows.get_mut(&flow_id).expect("flow exists");
                flow.fetching = Some(FetchStage::HostCheck { component, ico });
                Self::trace_step(ctx, flow_id, cfg_step::HOST_CHECK);
                let call = self.rpc.control(
                    ctx,
                    self.host,
                    ControlOp::new(FetchComponentData { component }),
                );
                self.rpc_routes.insert(call.as_raw(), flow_id);
            }
            Some(FetchStage::HostCheck { component, ico }) => {
                let cached = payload
                    .control_as::<ComponentData>()
                    .and_then(|d| d.bytes.clone());
                match cached {
                    Some(bytes) => {
                        ctx.metrics().incr("dcdo.component_cache_hits");
                        self.map_component(ctx, flow_id, bytes, true);
                    }
                    None => {
                        ctx.metrics().incr("dcdo.component_cache_misses");
                        let flow = self.flows.get_mut(&flow_id).expect("flow exists");
                        flow.fetching = Some(FetchStage::IcoRead { component });
                        Self::trace_step(ctx, flow_id, cfg_step::ICO_READ);
                        let call = self.rpc.control(ctx, ico, ControlOp::new(ReadComponent));
                        self.rpc_routes.insert(call.as_raw(), flow_id);
                    }
                }
            }
            Some(FetchStage::IcoRead { component }) => {
                let Some(data) = payload.control_as::<crate::ops::ComponentPayload>() else {
                    self.fail_flow(
                        ctx,
                        flow_id,
                        ConfigError::BadComponent("bad component payload".into()),
                    );
                    return;
                };
                let bytes = data.bytes.clone();
                // Store into the local host cache, then map (non-cached).
                let binary = match ComponentBinary::decode(bytes.clone()) {
                    Ok(b) => b,
                    Err(e) => {
                        self.fail_flow(ctx, flow_id, ConfigError::BadComponent(e.to_string()));
                        return;
                    }
                };
                let flow = self.flows.get_mut(&flow_id).expect("flow exists");
                flow.fetching = Some(FetchStage::HostStore { binary });
                Self::trace_step(ctx, flow_id, cfg_step::HOST_STORE);
                let call = self.rpc.control(
                    ctx,
                    self.host,
                    ControlOp::new(StoreComponentData { component, bytes }),
                );
                self.rpc_routes.insert(call.as_raw(), flow_id);
            }
            Some(FetchStage::HostStore { binary }) => {
                self.begin_map(ctx, flow_id, binary, false);
            }
            Some(FetchStage::MapTimer { .. }) | None => {
                // Unexpected; drop the payload.
            }
        }
    }

    fn map_component(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64, bytes: Bytes, cached: bool) {
        match ComponentBinary::decode(bytes) {
            Ok(binary) => self.begin_map(ctx, flow_id, binary, cached),
            Err(e) => self.fail_flow(ctx, flow_id, ConfigError::BadComponent(e.to_string())),
        }
    }

    fn begin_map(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow_id: u64,
        binary: ComponentBinary,
        cached: bool,
    ) {
        // §2.1: implementation types gate mapping — architecture-specific
        // code cannot be mapped into a process on the wrong architecture.
        if !binary.impl_type().compatible_with_host(self.host_arch) {
            let err = ConfigError::IncompatibleArchitecture {
                component: binary.id(),
                component_arch: binary.impl_type().architecture().to_string(),
                host_arch: self.host_arch.to_string(),
            };
            self.fail_flow(ctx, flow_id, err);
            return;
        }
        let functions = binary.functions().len();
        let delay = self.cost.component_incorporation(functions, cached);
        ctx.metrics()
            .sample_duration("dcdo.component_map_time", delay);
        let flow = self.flows.get_mut(&flow_id).expect("flow exists");
        let _ = cached;
        flow.fetching = Some(FetchStage::MapTimer { binary });
        Self::trace_step(ctx, flow_id, cfg_step::MAP);
        self.schedule_flow_timer(ctx, flow_id, delay);
    }

    /// A flow timer fired: either a map completed or a removal gate
    /// re-checks.
    fn handle_flow_timer(&mut self, ctx: &mut Ctx<'_, Msg>, flow_id: u64) {
        let Some(flow) = self.flows.get_mut(&flow_id) else {
            return;
        };
        match flow.fetching.take() {
            Some(FetchStage::MapTimer { binary }) => {
                let is_apply = matches!(flow.kind, FlowKind::Apply { .. });
                let outcome = if is_apply {
                    self.dfm.stage_component(&binary)
                } else {
                    self.dfm.incorporate_component(&binary, None)
                };
                ctx.metrics().incr("dcdo.components_mapped");
                match outcome {
                    Ok(()) => self.advance_flow(ctx, flow_id),
                    Err(e) => self.fail_flow(ctx, flow_id, e),
                }
            }
            Some(other) => {
                // Not a map timer; restore the stage and treat the timer as
                // a removal-gate recheck.
                let flow = self.flows.get_mut(&flow_id).expect("flow exists");
                flow.fetching = Some(other);
            }
            None => {
                // Removal-gate recheck.
                self.finish_gate(ctx, flow_id);
            }
        }
    }

    fn handle_check_reply(&mut self, ctx: &mut Ctx<'_, Msg>, completion: RpcCompletion) {
        let reply = completion
            .result
            .ok()
            .and_then(|p| p.control_as::<VersionCheckReply>().cloned());
        match reply {
            Some(VersionCheckReply {
                up_to_date: false,
                descriptor: Some(target),
            }) => {
                ctx.metrics().incr("dcdo.lazy_updates_triggered");
                self.begin_apply(ctx, None, target);
            }
            _ => {
                // Up to date (or the check failed): resume service.
                self.check_in_flight = false;
                self.unpark_all(ctx);
            }
        }
    }

    fn begin_apply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        target: crate::descriptor::DfmDescriptor,
    ) {
        let diff = self.dfm.descriptor().diff_components(&target);
        let mut to_fetch = VecDeque::new();
        for (component, record) in &diff.add {
            if self.dfm.is_loaded(*component) {
                continue;
            }
            match record.ico {
                Some(ico) => to_fetch.push_back(FetchItem {
                    ico,
                    component: Some(*component),
                }),
                None => {
                    let err = ConfigError::BadComponent(format!(
                        "component {component} has no ICO to fetch from"
                    ));
                    if let Some((reply_to, call)) = reply {
                        ctx.send(reply_to, Msg::refused(call, err));
                    }
                    return;
                }
            }
        }
        self.start_flow(ctx, reply, FlowKind::Apply { target }, to_fetch);
    }

    // ---- control dispatch ------------------------------------------------

    fn handle_control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        op: ControlOp,
    ) {
        // Multi-step configuration functions.
        if let Some(inc) = op.as_any().downcast_ref::<IncorporateComponent>() {
            let mut to_fetch = VecDeque::new();
            to_fetch.push_back(FetchItem {
                ico: inc.ico,
                component: None,
            });
            self.start_flow(ctx, Some((from, call)), FlowKind::Incorporate, to_fetch);
            return;
        }
        if let Some(apply) = op.as_any().downcast_ref::<ApplyDfmDescriptor>() {
            self.begin_apply(ctx, Some((from, call)), apply.descriptor.clone());
            return;
        }
        if let Some(rm) = op.as_any().downcast_ref::<RemoveComponent>() {
            let kind = FlowKind::Remove {
                component: rm.component,
            };
            self.start_flow(ctx, Some((from, call)), kind, VecDeque::new());
            return;
        }
        if let Some(dis) = op.as_any().downcast_ref::<DisableFunction>() {
            let kind = FlowKind::Disable {
                function: dis.function.clone(),
            };
            self.start_flow(ctx, Some((from, call)), kind, VecDeque::new());
            return;
        }

        // Synchronous configuration and status functions.
        let reply = if let Some(en) = op.as_any().downcast_ref::<EnableFunction>() {
            let r = self.dfm.enable_function(&en.function, en.component);
            self.config_reply(ctx, call, r)
        } else if let Some(p) = op.as_any().downcast_ref::<SetFunctionProtection>() {
            let r = self.dfm_descriptor_mut(|d| d.set_protection(&p.function, p.protection));
            self.config_reply(ctx, call, r)
        } else if let Some(d) = op.as_any().downcast_ref::<AddFunctionDependency>() {
            let r = self.dfm_descriptor_mut(|desc| desc.add_dependency(d.dependency.clone()));
            self.config_reply(ctx, call, r)
        } else if let Some(d) = op.as_any().downcast_ref::<RemoveFunctionDependency>() {
            let r = self.dfm_descriptor_mut(|desc| {
                desc.remove_dependency(&d.dependency);
                Ok(())
            });
            self.config_reply(ctx, call, r)
        } else if let Some(p) = op.as_any().downcast_ref::<SetRemovalPolicy>() {
            self.removal_policy = p.policy;
            Msg::control_ok(call, Ack)
        } else if let Some(l) = op.as_any().downcast_ref::<SetLazyCheck>() {
            self.lazy = l.mode;
            Msg::control_ok(call, Ack)
        } else if op.as_any().downcast_ref::<QueryInterface>().is_some() {
            Msg::control_ok(
                call,
                InterfaceReport {
                    functions: self
                        .dfm
                        .descriptor()
                        .exported_interface()
                        .into_iter()
                        .map(|(sig, prot)| (sig.to_string(), prot))
                        .collect(),
                },
            )
        } else if op.as_any().downcast_ref::<QueryImplementation>().is_some() {
            Msg::control_ok(
                call,
                ImplementationReport {
                    version: self.dfm.version().clone(),
                    components: self.dfm.descriptor().components().map(|(c, _)| c).collect(),
                    impl_type: self.impl_type,
                    function_count: self.dfm.descriptor().function_count(),
                },
            )
        } else if let Some(q) = op.as_any().downcast_ref::<QueryFunctionStatus>() {
            let record = self.dfm.descriptor().function(&q.function);
            let implementations = record.map(|r| r.impls().to_vec()).unwrap_or_default();
            let active_threads = implementations
                .iter()
                .map(|c| self.dfm.active_threads(&q.function, *c))
                .sum();
            Msg::control_ok(
                call,
                FunctionStatusReport {
                    function: q.function.clone(),
                    present: record.is_some(),
                    enabled: record.and_then(|r| r.enabled()),
                    visibility: record.map(|r| r.visibility()),
                    protection: record.map(|r| r.protection()),
                    active_threads,
                    implementations,
                },
            )
        } else if op.as_any().downcast_ref::<CaptureState>().is_some() {
            Msg::control_ok(
                call,
                StateBlob {
                    bytes: self.state.capture(),
                },
            )
        } else if let Some(restore) = op.as_any().downcast_ref::<RestoreState>() {
            match ValueStore::restore(restore.bytes.clone()) {
                Ok(state) => {
                    self.state = state;
                    Msg::control_ok(call, Ack)
                }
                Err(e) => Msg::refused(call, format!("bad state blob: {e}")),
            }
        } else if op.as_any().downcast_ref::<Deactivate>().is_some() {
            let me = ctx.self_id();
            ctx.kill(me);
            Msg::control_ok(call, Ack)
        } else {
            Msg::refused(call, format!("DCDO does not understand {}", op.describe()))
        };
        ctx.send(from, reply);
    }

    fn dfm_descriptor_mut(
        &mut self,
        f: impl FnOnce(&mut crate::descriptor::DfmDescriptor) -> Result<(), ConfigError>,
    ) -> Result<(), ConfigError> {
        // The Dfm owns the descriptor; expose a scoped mutation.
        self.dfm.with_descriptor_mut(f)
    }

    /// Replies to a synchronous configuration function, stamping the new
    /// generation if it took effect.
    fn config_reply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        call: CallId,
        r: Result<(), ConfigError>,
    ) -> Msg {
        if r.is_ok() {
            self.config_ops_applied += 1;
            if ctx.tracing_enabled() {
                ctx.emit_span(SpanKind::GenerationStamp {
                    object: self.object.as_raw(),
                    generation: self.dfm.generation(),
                });
            }
        }
        ack_or_refuse(call, r)
    }
}

impl Actor<Msg> for DcdoObject {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::Invoke {
                call,
                target,
                function,
                args,
            } => {
                if target != self.object {
                    ctx.send(
                        from,
                        Msg::Reply {
                            call,
                            result: Err(InvocationFault::NoSuchObject(target)),
                        },
                    );
                    return;
                }
                let now = ctx.now();
                if self.check_in_flight {
                    self.parked.push(ParkedInvocation {
                        from,
                        call,
                        function,
                        args,
                    });
                    return;
                }
                self.calls_since_check += 1;
                if self.lazy_check_due(now) {
                    self.parked.push(ParkedInvocation {
                        from,
                        call,
                        function,
                        args,
                    });
                    self.start_version_check(ctx);
                    return;
                }
                if ctx.tracing_enabled() {
                    ctx.emit_span(SpanKind::CallServed {
                        object: self.object.as_raw(),
                        call: call.as_raw(),
                    });
                }
                self.runtime.handle_invoke(
                    ctx,
                    from,
                    call,
                    function,
                    args,
                    &mut self.dfm,
                    &self.natives,
                    &mut self.state,
                    &mut self.rpc,
                );
            }
            Msg::Control { call, target, op } => {
                if target != self.object {
                    ctx.send(
                        from,
                        Msg::refused(call, InvocationFault::NoSuchObject(target)),
                    );
                    return;
                }
                self.handle_control(ctx, from, call, op);
            }
            reply => match self.rpc.handle_message(ctx, reply) {
                Handled::Completed(completion) => {
                    if self.runtime.owns_completion(&completion) {
                        self.runtime.handle_outcall_completion(
                            ctx,
                            completion,
                            &mut self.dfm,
                            &self.natives,
                            &mut self.state,
                            &mut self.rpc,
                        );
                    } else if let Some(flow_id) = self.rpc_routes.remove(&completion.call.as_raw())
                    {
                        self.handle_flow_completion(ctx, flow_id, completion);
                    }
                }
                Handled::InProgress | Handled::Stale | Handled::NotMine(_) => {}
            },
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if self.rpc.owns_timer(token) {
            if let Some(completion) = self.rpc.handle_timer(ctx, token) {
                if self.runtime.owns_completion(&completion) {
                    self.runtime.handle_outcall_completion(
                        ctx,
                        completion,
                        &mut self.dfm,
                        &self.natives,
                        &mut self.state,
                        &mut self.rpc,
                    );
                } else if let Some(flow_id) = self.rpc_routes.remove(&completion.call.as_raw()) {
                    self.handle_flow_completion(ctx, flow_id, completion);
                }
            }
            return;
        }
        if let Some(flow_id) = self.timer_routes.remove(&token) {
            self.handle_flow_timer(ctx, flow_id);
            return;
        }
        self.runtime.handle_timer(
            ctx,
            token,
            &mut self.dfm,
            &self.natives,
            &mut self.state,
            &mut self.rpc,
        );
    }

    fn name(&self) -> &str {
        "dcdo"
    }
}

impl std::fmt::Debug for DcdoObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DcdoObject")
            .field("object", &self.object)
            .field("version", self.dfm.version())
            .field("components", &self.dfm.descriptor().component_count())
            .field("flows_in_flight", &self.flows.len())
            .finish()
    }
}
