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
//! Every multi-step configuration function is one plan walked by the plan
//! driver (`legion_substrate::plan`): per component still to pull,
//! Descriptor (read from the ICO, unless the id is known) → HostCheck (the
//! local host's component cache) → IcoRead and HostStore (on a miss: read
//! the data from the ICO, transfer-costed, and store it in the host cache)
//! → Map (≈200 µs when cached — the paper's number); then Gate → Apply. A
//! component already loaded drops its fetch steps. The Gate enforces thread
//! activity monitoring (§3.2) under a configurable [`RemovalPolicy`], and
//! postpones disables while active threads of dependent functions would be
//! stranded.

use std::rc::Rc;

use dcdo_sim::{cfg_step, Actor, ActorId, Ctx, FlowKind, SimDuration, SimTime, SpanKind};
use dcdo_types::{
    Architecture, CallId, ComponentId, FunctionName, ImplementationType, ObjectId, VersionId,
};
use dcdo_vm::{ComponentBinary, NativeRegistry, Value, ValueStore};
use legion_substrate::host::{ComponentData, FetchComponentData, StoreComponentData};
use legion_substrate::object::{self, LegionObject, Served};
use legion_substrate::plan::{answer, Action, Flow, Kind, PlanOwner, Plans, Reply};
use legion_substrate::{Ack, ControlOp, CostModel, Msg, RpcClient, RpcCompletion};

use crate::descriptor::DfmDescriptor;
use crate::dfm::Dfm;
use crate::error::{ack_or_refuse, ConfigError};
use crate::ops::{
    CheckVersion, DcdoOp, FunctionStatusReport, ImplementationReport, InterfaceReport, LazyCheck,
    ReadComponent, ReadComponentDescriptor, RemovalPolicy, VersionCheckReply,
};

/// Interval at which delayed removals re-check thread activity.
const IDLE_RECHECK: SimDuration = SimDuration::from_millis(50);

/// One step of a configuration flow. The discriminant is the step's
/// wire-stable `FlowStep` code ([`cfg_step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u32)]
enum CfgStep {
    Descriptor = cfg_step::DESCRIPTOR,
    HostCheck = cfg_step::HOST_CHECK,
    IcoRead = cfg_step::ICO_READ,
    HostStore = cfg_step::HOST_STORE,
    Map = cfg_step::MAP,
    Gate = cfg_step::GATE,
    Apply = cfg_step::APPLY,
}

impl From<CfgStep> for u32 {
    fn from(step: CfgStep) -> u32 {
        step as u32
    }
}

/// The fetch steps a configuration flow walks once per component.
const FETCH: [CfgStep; 5] = {
    use CfgStep::{Descriptor, HostCheck, HostStore, IcoRead, Map};
    [Descriptor, HostCheck, IcoRead, HostStore, Map]
};

/// Every configuration flow walks one plan: the [`FETCH`] steps once per
/// component still to pull (`items` of them), then the gate and the change
/// itself.
#[derive(Debug, Clone, Copy)]
struct Config {
    items: usize,
}

impl Kind for Config {
    type Step = CfgStep;

    fn trace(self) -> FlowKind {
        FlowKind::Config
    }

    fn step(self, at: usize) -> Option<CfgStep> {
        match at.checked_sub(FETCH.len() * self.items) {
            None => Some(FETCH[at % FETCH.len()]),
            Some(tail) => [CfgStep::Gate, CfgStep::Apply].get(tail).copied(),
        }
    }
}

/// The component a configuration flow's fetch steps are at.
fn item(flow: &ConfigFlow) -> usize {
    flow.at() / FETCH.len()
}

/// The configuration change a flow makes once its components are in.
#[derive(Debug)]
enum ConfigOp {
    /// `incorporateComponent()`: incorporate staged components (disabled).
    Incorporate,
    /// Bulk evolution toward a full target descriptor.
    Apply { target: Rc<DfmDescriptor> },
    /// `removeComponent()` gated by thread activity.
    Remove { component: ComponentId },
    /// `disableFunction()` postponed while dependent threads are active.
    Disable { function: FunctionName },
}

/// What a component's fetch has brought in so far.
#[derive(Debug, Default)]
enum Staged {
    /// Nothing yet.
    #[default]
    Nothing,
    /// Downloaded from the ICO, still to store in the host cache.
    Downloaded(Rc<ComponentBinary>),
    /// Ready to map; `true` if the host cache had it.
    Ready(Rc<ComponentBinary>, bool),
}

/// One component still to pull: its ICO, and its id when the caller knows
/// it (Apply flows, from the target descriptor), which skips the ICO
/// metadata roundtrip.
#[derive(Debug)]
struct FetchItem {
    ico: ObjectId,
    component: Option<ComponentId>,
    staged: Staged,
}

/// The configuration change a flow makes, and the components it pulls
/// first.
#[derive(Debug)]
struct Change {
    op: ConfigOp,
    items: Vec<FetchItem>,
    force_deadline: Option<SimTime>,
}

type ConfigFlow = Flow<Config, Change>;

/// An invocation to serve, or parked while the object synchronizes with its
/// manager (lazy update policies).
#[derive(Debug)]
struct Invocation {
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
    rpc: RpcClient,
    state: ValueStore,
    cost: CostModel,
    removal_policy: RemovalPolicy,
    lazy: LazyCheck,
    calls_since_check: u32,
    last_check: SimTime,
    check_in_flight: bool,
    parked: Vec<Invocation>,
    plans: Plans<Config, Change>,
    /// The lazy version check in flight, by call id.
    check_call: Option<CallId>,
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
            rpc,
            state: ValueStore::new(),
            cost,
            removal_policy: RemovalPolicy::Refuse,
            lazy: LazyCheck::Never,
            calls_since_check: 0,
            last_check: SimTime::ZERO,
            check_in_flight: false,
            parked: Vec::new(),
            plans: Plans::default(),
            check_call: None,
            config_ops_applied: 0,
        }
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
        self.plans.in_flight()
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
        self.check_call = Some(call);
    }

    fn unpark_all(&mut self, ctx: &mut Ctx<'_, Msg>) {
        for p in std::mem::take(&mut self.parked) {
            self.serve(ctx, p);
        }
    }

    fn serve(&mut self, ctx: &mut Ctx<'_, Msg>, p: Invocation) {
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
            &NativeRegistry,
            &mut self.state,
        );
    }

    // ---- configuration flows -------------------------------------------

    /// Opens a configuration flow that pulls `items`, then makes `op`.
    fn start_config(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        op: ConfigOp,
        items: Vec<FetchItem>,
    ) {
        let change = Change {
            op,
            items,
            force_deadline: None,
        };
        let kind = Config {
            items: change.items.len(),
        };
        self.open_flow(ctx, kind, reply, Some(self.object), Ok(change));
    }

    /// §2.1: implementation types gate mapping — architecture-specific
    /// code cannot be mapped into a process on the wrong architecture.
    fn mappable(&self, binary: &ComponentBinary) -> Result<(), ConfigError> {
        if binary.impl_type().compatible_with_host(self.host_arch) {
            return Ok(());
        }
        Err(ConfigError::IncompatibleArchitecture {
            component: binary.id(),
            component_arch: binary.impl_type().architecture().to_string(),
            host_arch: self.host_arch.to_string(),
        })
    }

    /// The Gate step: with every component in, waits out (or refuses, or
    /// forces past) the threads still running code the change removes.
    fn gate(&mut self, ctx: &mut Ctx<'_, Msg>, change: &mut Change) -> Result<Action, ConfigError> {
        let threads = |c: &ComponentId| (*c, self.dfm.component_active_threads(*c));
        let mut busy: Vec<(ComponentId, u32)> = match &change.op {
            ConfigOp::Remove { component } => vec![threads(component)],
            ConfigOp::Apply { target } => {
                let diff = self.dfm.descriptor().diff_components(target);
                diff.remove().map(|c| threads(&c)).collect()
            }
            ConfigOp::Disable { function } => self.dfm.active_dependents(function).collect(),
            ConfigOp::Incorporate => vec![],
        };
        busy.retain(|(_, n)| *n > 0);
        let Some(&(component, active_threads)) = busy.first() else {
            return Ok(Action::Done);
        };
        match self.removal_policy {
            RemovalPolicy::Refuse => Err(ConfigError::ComponentBusy {
                component,
                active_threads: active_threads as usize,
            }),
            RemovalPolicy::DelayUntilIdle => Ok(Action::Recheck(IDLE_RECHECK)),
            RemovalPolicy::ForceAfter(grace) => {
                let now = ctx.now();
                let deadline = *change.force_deadline.get_or_insert(now + grace);
                if now < deadline {
                    return Ok(Action::Recheck(IDLE_RECHECK));
                }
                // Grace expired: abort the stragglers and proceed.
                let why = "component removal forced after grace period";
                for (component, _) in &busy {
                    for token in self.runtime.threads_in_component(*component) {
                        self.runtime.abort_thread(ctx, &mut self.dfm, token, why);
                    }
                }
                Ok(Action::Done)
            }
        }
    }

    /// The Apply step: makes the flow's configuration change.
    fn apply_change(&mut self, flow: &mut ConfigFlow) -> Result<(), ConfigError> {
        match std::mem::replace(&mut flow.data.op, ConfigOp::Incorporate) {
            // Staged components were incorporated as they were mapped.
            ConfigOp::Incorporate => Ok(()),
            ConfigOp::Apply { target } => self.dfm.apply_descriptor(target),
            ConfigOp::Remove { component } => self.dfm.remove_component(component),
            ConfigOp::Disable { function } => self.dfm.disable_function(&function),
        }
    }

    /// Counts a configuration change that took effect and stamps the new
    /// generation.
    fn applied(&mut self, ctx: &mut Ctx<'_, Msg>) {
        self.config_ops_applied += 1;
        if ctx.tracing_enabled() {
            ctx.emit_span(SpanKind::GenerationStamp {
                object: self.object.as_raw(),
                generation: self.dfm.generation(),
            });
        }
    }

    /// A lazy-triggered evolution ended: resume service.
    fn end_lazy_check(&mut self, ctx: &mut Ctx<'_, Msg>) {
        if self.check_in_flight {
            self.check_in_flight = false;
            self.unpark_all(ctx);
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
                self.begin_apply(ctx, None, target);
            }
            // Up to date (or the check failed): resume service.
            _ => self.end_lazy_check(ctx),
        }
    }

    fn begin_apply(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        reply: Option<(ActorId, CallId)>,
        target: Rc<DfmDescriptor>,
    ) {
        let diff = self.dfm.descriptor().diff_components(&target);
        let mut items = Vec::new();
        for (component, record) in diff.add() {
            if self.dfm.is_loaded(component) {
                continue;
            }
            let Some(ico) = record.ico else {
                let err = ConfigError::BadComponent(format!(
                    "component {component} has no ICO to fetch from"
                ));
                return answer(ctx, reply, |call| Msg::refused(call, err));
            };
            items.push(FetchItem {
                ico,
                component: Some(component),
                staged: Staged::Nothing,
            });
        }
        self.start_config(ctx, reply, ConfigOp::Apply { target }, items);
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
            self.applied(ctx);
        }
        ack_or_refuse(call, r)
    }
}

impl PlanOwner<Config, Change> for DcdoObject {
    type Error = ConfigError;

    fn plans(&mut self) -> &mut Plans<Config, Change> {
        &mut self.plans
    }

    /// Descriptor is dropped when the component is already known, IcoRead
    /// and HostStore on a host-cache hit, and every fetch step once the
    /// component is loaded.
    fn skip(&self, flow: &ConfigFlow, step: CfgStep) -> bool {
        let Some(item) = flow.data.items.get(item(flow)) else {
            return false;
        };
        let loaded = item.component.is_some_and(|c| self.dfm.is_loaded(c));
        match step {
            CfgStep::Descriptor => item.component.is_some(),
            CfgStep::IcoRead | CfgStep::HostStore => {
                loaded || matches!(item.staged, Staged::Ready(_, true))
            }
            _ => loaded,
        }
    }

    fn action(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow: &mut ConfigFlow,
        step: CfgStep,
    ) -> Result<Action, ConfigError> {
        let item = match step {
            CfgStep::Gate => return self.gate(ctx, &mut flow.data),
            CfgStep::Apply => return self.apply_change(flow).map(|()| Action::Done),
            _ => &flow.data.items[item(flow)],
        };
        let component = || item.component.expect("component known");
        let (target, op) = match (step, &item.staged) {
            (CfgStep::Descriptor, _) => (item.ico, ControlOp::new(ReadComponentDescriptor)),
            (CfgStep::HostCheck, _) => {
                let fetch = FetchComponentData {
                    component: component(),
                };
                (self.host, ControlOp::new(fetch))
            }
            (CfgStep::IcoRead, _) => (item.ico, ControlOp::new(ReadComponent)),
            (CfgStep::HostStore, Staged::Downloaded(binary)) => {
                let store = StoreComponentData {
                    binary: Rc::clone(binary),
                };
                (self.host, ControlOp::new(store))
            }
            (CfgStep::Map, Staged::Ready(binary, cached)) => {
                let functions = binary.functions().len();
                let delay = self.cost.component_incorporation(functions, *cached);
                return Ok(Action::Timer(delay));
            }
            (step, staged) => unreachable!("{step:?} entered with {staged:?}"),
        };
        Ok(Action::Rpc(self.rpc.control(ctx, target, op)))
    }

    /// Keeps what a fetch step brought in — the component id, the host's
    /// cached copy, or the ICO's (then stored) — or, once the Map step's
    /// delay is over, maps the component in.
    fn done(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        flow: &mut ConfigFlow,
        step: CfgStep,
        reply: Option<Reply>,
    ) -> Result<(), ConfigError> {
        let bad = ConfigError::BadComponent;
        let i = item(flow);
        let item = &mut flow.data.items[i];
        let Some(reply) = reply else {
            // Map is the only timer step.
            let Staged::Ready(binary, _) = std::mem::take(&mut item.staged) else {
                unreachable!("Map follows a fetch");
            };
            let outcome = if matches!(flow.data.op, ConfigOp::Apply { .. }) {
                self.dfm.stage_component(&binary)
            } else {
                self.dfm.incorporate_component(&binary, None)
            };
            ctx.metrics().incr("dcdo.components_mapped");
            return outcome;
        };
        let payload = reply.map_err(|fault| bad(format!("fetch failed: {fault}")))?;
        match step {
            CfgStep::Descriptor => {
                let reply = payload
                    .control_as::<crate::ops::ComponentDescriptorReply>()
                    .ok_or_else(|| bad("bad descriptor reply".into()))?;
                item.component = Some(reply.descriptor.id);
            }
            CfgStep::HostCheck => {
                let cached = payload
                    .control_as::<ComponentData>()
                    .and_then(|d| d.binary.clone());
                let Some(binary) = cached else {
                    return Ok(());
                };
                self.mappable(&binary)?;
                item.staged = Staged::Ready(binary, true);
            }
            CfgStep::IcoRead => {
                let data = payload
                    .control_as::<crate::ops::ComponentPayload>()
                    .ok_or_else(|| bad("bad component payload".into()))?;
                item.staged = Staged::Downloaded(Rc::clone(&data.binary));
            }
            CfgStep::HostStore => {
                let Staged::Downloaded(binary) = std::mem::take(&mut item.staged) else {
                    unreachable!("HostStore follows a download");
                };
                self.mappable(&binary)?;
                item.staged = Staged::Ready(binary, false);
            }
            _ => {}
        }
        Ok(())
    }

    fn finish(&mut self, ctx: &mut Ctx<'_, Msg>, flow: ConfigFlow) {
        self.applied(ctx);
        if self.check_in_flight {
            // A lazy-triggered evolution just finished: tell the manager
            // where we landed (fire-and-forget; the Ack settles the rpc
            // entry and is dropped unrouted).
            let report = crate::ops::ReportVersion {
                object: self.object,
                version: self.dfm.version().clone(),
            };
            self.rpc.control(ctx, self.manager, ControlOp::new(report));
            self.end_lazy_check(ctx);
        }
        answer(ctx, flow.reply, |call| Msg::control_ok(call, Ack));
    }

    fn fail(&mut self, ctx: &mut Ctx<'_, Msg>, flow: ConfigFlow, err: ConfigError) {
        self.end_lazy_check(ctx);
        answer(ctx, flow.reply, |call| Msg::refused(call, err));
    }
}

impl LegionObject for DcdoObject {
    type Ops<'a> = DcdoOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    /// The multi-step configuration functions open a flow; the rest are
    /// answered at once.
    fn control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        op: DcdoOp<'_>,
    ) -> Served {
        let flow = Some((from, call));
        let reply = match op {
            DcdoOp::IncorporateComponent(inc) => {
                let item = FetchItem {
                    ico: inc.ico,
                    component: None,
                    staged: Staged::Nothing,
                };
                self.start_config(ctx, flow, ConfigOp::Incorporate, vec![item]);
                return Served::Later;
            }
            DcdoOp::ApplyDfmDescriptor(apply) => {
                self.begin_apply(ctx, flow, apply.descriptor.clone());
                return Served::Later;
            }
            DcdoOp::RemoveComponent(rm) => {
                let remove = ConfigOp::Remove {
                    component: rm.component,
                };
                self.start_config(ctx, flow, remove, Vec::new());
                return Served::Later;
            }
            DcdoOp::DisableFunction(dis) => {
                let disable = ConfigOp::Disable {
                    function: dis.function.clone(),
                };
                self.start_config(ctx, flow, disable, Vec::new());
                return Served::Later;
            }
            DcdoOp::EnableFunction(en) => {
                let r = self.dfm.enable_function(&en.function, en.component);
                self.config_reply(ctx, call, r)
            }
            DcdoOp::SetFunctionProtection(p) => {
                let r = self
                    .dfm
                    .with_descriptor_mut(|d| d.set_protection(&p.function, p.protection));
                self.config_reply(ctx, call, r)
            }
            DcdoOp::AddFunctionDependency(d) => {
                let r = self
                    .dfm
                    .with_descriptor_mut(|desc| desc.add_dependency(d.dependency.clone()));
                self.config_reply(ctx, call, r)
            }
            DcdoOp::RemoveFunctionDependency(d) => {
                let r = self.dfm.with_descriptor_mut(|desc| {
                    desc.remove_dependency(&d.dependency);
                    Ok(())
                });
                self.config_reply(ctx, call, r)
            }
            DcdoOp::SetRemovalPolicy(p) => {
                self.removal_policy = p.policy;
                Msg::control_ok(call, Ack)
            }
            DcdoOp::SetLazyCheck(l) => {
                self.lazy = l.mode;
                Msg::control_ok(call, Ack)
            }
            DcdoOp::QueryInterface(_) => Msg::control_ok(
                call,
                InterfaceReport {
                    descriptor: self.dfm.shared_descriptor(),
                },
            ),
            DcdoOp::QueryImplementation(_) => Msg::control_ok(
                call,
                ImplementationReport {
                    version: self.dfm.version().clone(),
                    components: self.dfm.descriptor().components().map(|(c, _)| c).collect(),
                    impl_type: self.impl_type,
                    function_count: self.dfm.descriptor().function_count(),
                },
            ),
            DcdoOp::QueryFunctionStatus(q) => {
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
            }
        };
        Served::Reply(reply)
    }

    fn state(&mut self) -> Option<&mut ValueStore> {
        Some(&mut self.state)
    }

    /// Serves the call, parks it behind a lazy version check in flight, or
    /// parks it and starts one.
    fn invoke(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        function: FunctionName,
        args: Vec<Value>,
    ) -> Result<(), FunctionName> {
        let invocation = Invocation {
            from,
            call,
            function,
            args,
        };
        if self.check_in_flight {
            self.parked.push(invocation);
        } else {
            self.calls_since_check += 1;
            if self.lazy_check_due(ctx.now()) {
                self.parked.push(invocation);
                self.start_version_check(ctx);
            } else {
                self.serve(ctx, invocation);
            }
        }
        Ok(())
    }

    fn rpc(&mut self) -> Option<&mut RpcClient> {
        Some(&mut self.rpc)
    }

    /// An outcall of a running thread, a flow step, or the lazy version
    /// check.
    fn completed(&mut self, ctx: &mut Ctx<'_, Msg>, completion: RpcCompletion) {
        if self.runtime.owns_completion(&completion) {
            self.runtime.handle_outcall_completion(ctx, completion);
        } else if let Some(completion) = self.plan_reply(ctx, completion) {
            if self.check_call.take_if(|c| *c == completion.call).is_some() {
                self.handle_check_reply(ctx, completion);
            }
        }
    }

    fn timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        if !self.plan_timer(ctx, token) {
            self.runtime.handle_timer(
                ctx,
                token,
                &mut self.dfm,
                &NativeRegistry,
                &mut self.state,
                &mut self.rpc,
            );
        }
    }
}

impl Actor<Msg> for DcdoObject {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        object::fire(self, ctx, token);
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
            .field("flows_in_flight", &self.plans.in_flight())
            .finish()
    }
}
