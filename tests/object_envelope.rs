//! The Legion object protocol every addressed actor speaks
//! (`legion::object::deliver`), checked on all eleven of them: the
//! envelope rules, the state ops both active object kinds answer alike,
//! and a conformance matrix that sends every op of every `control_ops!`
//! table to each of them. Beside it, the tables' vocabulary: wire names
//! unique, wire sizes pinned, and the size of a queued message.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};

use dcdo::core::ops::{DcdoOp, DcdoReply, IcoOp, IcoReply, ManagerOp, ManagerReply};
use dcdo::core::{DcdoManager, DcdoObject, HostDirectory, Ico, UpdatePropagation, VersionPolicy};
use dcdo::group::protocol::{CoordinatorOp, GroupReply, ReplicaOp};
use dcdo::group::{GroupConfig, GroupCoordinator, GroupReplica};
use dcdo::legion::binding::{BindingAgent, BindingOp, BindingReply};
use dcdo::legion::class::{ClassObject, ClassOp, ClassReply};
use dcdo::legion::host::{HostObject, HostOp, HostReply};
use dcdo::legion::monolithic::{ExecutableImage, MonolithicObject, MonolithicOp, MonolithicReply};
use dcdo::legion::naming::{ContextSpace, NamingOp, NamingReply};
use dcdo::legion::object::{
    self, CaptureState, Deactivate, LegionObject, RestoreState, Served, StateBlob, StateOp,
    StateReply,
};
use dcdo::legion::vault::{Vault, VaultOp, VaultReply};
use dcdo::legion::{
    control_ops, Ack, AckReply, AgentAddress, ControlOp, CostModel, InvocationFault, Msg, OpTable,
    RpcClient,
};
use dcdo::sim::{Actor, ActorId, Ctx, NetConfig, NodeId, Simulation};
use dcdo::types::{Architecture, CallId, ClassId, ComponentId, HostId, ObjectId, VersionId};
use dcdo::vm::{ComponentBuilder, Value, ValueStore};
use dcdo::workloads::simbench::{BenchOp, BenchReply};

/// A control op no object understands.
#[derive(Debug)]
struct Bogus;

control_ops! {
    /// A control op no object understands.
    enum BogusOps {
        Bogus = "bogus-op", 64;
    }
}

/// What came back for one call.
#[derive(Debug)]
enum Answer {
    Invoke(Result<Value, InvocationFault>),
    Control(Result<ControlOp, InvocationFault>),
}

/// Records every answer by call id.
#[derive(Default)]
struct Probe {
    answers: HashMap<u64, Answer>,
}

impl Actor<Msg> for Probe {
    fn on_message(&mut self, _: &mut Ctx<'_, Msg>, _: ActorId, msg: Msg) {
        let (call, answer) = match msg {
            Msg::Reply { call, result } => (call, Answer::Invoke(result)),
            Msg::ControlReply { call, result } => (call, Answer::Control(result)),
            _ => return,
        };
        self.answers.insert(call.as_raw(), answer);
    }
}

fn invoke(call: u64, target: ObjectId, function: &str) -> Msg {
    Msg::Invoke {
        call: CallId::from_raw(call),
        target,
        function: function.into(),
        args: vec![],
    }
}

fn control(call: u64, target: ObjectId, op: impl Into<ControlOp>) -> Msg {
    Msg::Control {
        call: CallId::from_raw(call),
        target,
        op: op.into(),
    }
}

fn agent() -> AgentAddress {
    AgentAddress {
        actor: ActorId::from_raw(0),
        object: ObjectId::from_raw(1),
    }
}

fn rpc() -> RpcClient {
    RpcClient::new(agent(), CostModel::instant())
}

fn image() -> ExecutableImage {
    ExecutableImage::new(1, vec![], 0)
}

fn monolithic(object: ObjectId) -> MonolithicObject {
    MonolithicObject::new(object, &image(), &CostModel::instant(), rpc())
}

fn dcdo(object: ObjectId) -> DcdoObject {
    DcdoObject::new(
        object,
        ObjectId::from_raw(2),
        ObjectId::from_raw(3),
        Architecture::X86,
        VersionId::root(),
        CostModel::instant(),
        rpc(),
        7,
    )
}

/// An addressed actor kind: its name, how to build one, whether it serves
/// an `Invoke` of any function (only a group replica does), and the wire
/// names of the control ops it serves.
struct Kind {
    name: &'static str,
    make: Box<dyn Fn(ObjectId) -> Box<dyn Actor<Msg>>>,
    serves_any: bool,
    serves: Vec<&'static str>,
}

/// The wire names of the table `O` serves.
fn table<O: LegionObject + 'static>() -> Vec<&'static str> {
    <O::Ops<'static> as OpTable<'static>>::NAMES.to_vec()
}

/// Every addressed actor kind.
fn kinds() -> Vec<Kind> {
    fn kind<O: LegionObject + 'static>(
        name: &'static str,
        make: impl Fn(ObjectId) -> O + 'static,
    ) -> Kind {
        Kind {
            name,
            make: Box::new(move |object| Box::new(make(object))),
            serves_any: false,
            serves: table::<O>(),
        }
    }
    let cost = CostModel::instant();
    let component = ComponentBuilder::new(ComponentId::from_raw(1), "served")
        .exported("f() -> unit", |b| b.ret())
        .expect("f")
        .build()
        .expect("valid");
    let group = GroupConfig::initial([0], 1);
    let class_cost = cost.clone();
    let manager_cost = cost.clone();
    let replica_group = group.clone();
    let mut kinds = vec![
        kind("context-space", ContextSpace::new),
        kind("vault", Vault::new),
        kind("host", |object| {
            HostObject::new(
                object,
                HostId::from_raw(0),
                NodeId::from_raw(0),
                Architecture::X86,
            )
        }),
        kind("binding-agent", BindingAgent::new),
        kind("class-object", move |object| {
            ClassObject::new(
                object,
                ClassId::from_raw(1),
                image(),
                class_cost.clone(),
                agent(),
            )
        }),
        kind("monolithic-object", monolithic),
        kind("ico", move |object| {
            Ico::new(object, &component, cost.clone())
        }),
        kind("dcdo-manager", move |object| {
            DcdoManager::new(
                object,
                ClassId::from_raw(1),
                manager_cost.clone(),
                agent(),
                HostDirectory::new(),
                VersionPolicy::SingleVersion,
                UpdatePropagation::Explicit,
            )
        }),
        kind("dcdo", dcdo),
        kind("group-replica", move |object| {
            GroupReplica::new(1, 0, object, replica_group.clone())
        }),
        kind("group-coordinator", move |object| {
            GroupCoordinator::new(1, object, group.clone(), BTreeMap::new())
        }),
    ];
    for k in &mut kinds {
        match k.name {
            "group-replica" => k.serves_any = true,
            "monolithic-object" | "dcdo" => k.serves.extend(StateOp::NAMES),
            _ => {}
        }
    }
    kinds
}

#[test]
fn every_addressed_actor_answers_the_envelope_rules() {
    let object = ObjectId::from_raw(40);
    let elsewhere = ObjectId::from_raw(41);
    let mut sim = Simulation::new(NetConfig::instant(), 1);
    let probe = sim.spawn(NodeId::from_raw(1), Probe::default());
    let mut rows = Vec::new();
    for (row, kind) in kinds().into_iter().enumerate() {
        let dst = sim.spawn_boxed(NodeId::from_raw(0), (kind.make)(object));
        let base = 10 * row as u64;
        sim.post(probe, dst, control(base + 1, elsewhere, Ack));
        sim.post(probe, dst, invoke(base + 2, elsewhere, "f"));
        sim.post(probe, dst, control(base + 3, object, Bogus));
        sim.post(probe, dst, invoke(base + 4, object, "not_exported"));
        rows.push((kind.name, base, kind.serves_any));
    }
    sim.run_until_idle();
    let answers = &sim.actor::<Probe>(probe).expect("alive").answers;
    let mut wrong = Vec::new();
    for (kind, base, serves_any) in rows {
        let unknown = format!("{kind} does not understand bogus-op");
        let cases = [
            ("misaddressed Control", base + 1),
            ("misaddressed Invoke", base + 2),
            ("unknown op", base + 3),
            ("unexported Invoke", base + 4),
        ];
        for (case, call) in cases {
            let answer = answers.get(&call);
            let right = match (call - base, answer) {
                (1, Some(Answer::Control(Err(InvocationFault::NoSuchObject(o))))) => {
                    *o == elsewhere
                }
                (2, Some(Answer::Invoke(Err(InvocationFault::NoSuchObject(o))))) => *o == elsewhere,
                (3, Some(Answer::Control(Err(InvocationFault::Refused(why))))) => *why == unknown,
                (4, Some(Answer::Invoke(Ok(_)))) => serves_any,
                (4, Some(Answer::Invoke(Err(InvocationFault::NoSuchFunction(f))))) => {
                    !serves_any && f.as_str() == "not_exported"
                }
                _ => false,
            };
            if !right {
                wrong.push(format!("{kind}: {case} answered {answer:?}"));
            }
        }
    }
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// Sends each of `msgs` to a fresh object on its own and returns the
/// answers, and whether the object is still alive.
fn answers_of(actor: Box<dyn Actor<Msg>>, msgs: Vec<Msg>) -> (Vec<Answer>, bool) {
    let mut sim = Simulation::new(NetConfig::instant(), 1);
    let probe = sim.spawn(NodeId::from_raw(1), Probe::default());
    let dst = sim.spawn_boxed(NodeId::from_raw(0), actor);
    let calls: Vec<u64> = msgs.iter().map(|m| m.call_id().as_raw()).collect();
    for msg in msgs {
        sim.post(probe, dst, msg);
        sim.run_until_idle();
    }
    let answers = &mut sim.actor_mut::<Probe>(probe).expect("alive").answers;
    let answers = calls
        .iter()
        .map(|c| answers.remove(c).expect("every op is answered"))
        .collect();
    (answers, sim.is_alive(dst))
}

/// An answer as comparable text: a state blob by its bytes, anything else
/// by its debug form.
fn render(answer: &Answer) -> String {
    match answer {
        Answer::Control(Ok(op)) => match StateReply::decode(op) {
            Some(StateReply::StateBlob(StateBlob { bytes })) => {
                format!("state-blob {:?}", bytes.as_ref())
            }
            None => op.describe().to_owned(),
        },
        other => format!("{other:?}"),
    }
}

#[test]
fn both_object_kinds_answer_the_state_ops_alike() {
    let object = ObjectId::from_raw(40);
    let mut state = ValueStore::new();
    state.set("count", Value::Int(7));
    state.set("name", Value::str("kept"));
    let blob = state.capture();
    let truncated = blob.slice(..blob.len() - 1);
    let ops = || {
        vec![
            control(
                1,
                object,
                RestoreState {
                    bytes: blob.clone(),
                },
            ),
            control(2, object, CaptureState),
            control(
                3,
                object,
                RestoreState {
                    bytes: truncated.clone(),
                },
            ),
            control(4, object, CaptureState),
            control(5, object, Deactivate),
        ]
    };
    let (mono, mono_alive) = answers_of(Box::new(monolithic(object)), ops());
    let (dcdo, dcdo_alive) = answers_of(Box::new(dcdo(object)), ops());
    let mono: Vec<String> = mono.iter().map(render).collect();
    let dcdo: Vec<String> = dcdo.iter().map(render).collect();
    assert_eq!(mono, dcdo, "the two object kinds answer differently");
    let captured = format!("state-blob {:?}", blob.as_ref());
    assert_eq!(mono[0], "ack");
    // The restored state round-trips, and a truncated blob changes nothing.
    assert_eq!(mono[1], captured);
    assert!(
        mono[2].starts_with("Control(Err(Refused(\"bad state blob: "),
        "a truncated blob is a typed refusal: {}",
        mono[2]
    );
    assert_eq!(mono[3], captured);
    assert_eq!(mono[4], "ack");
    assert!(!mono_alive && !dcdo_alive, "Deactivate ends the process");
}

/// Every table's wire names, by table.
fn tables() -> Vec<(&'static str, &'static [&'static str])> {
    vec![
        ("AckReply", AckReply::NAMES),
        ("StateOp", StateOp::NAMES),
        ("StateReply", StateReply::NAMES),
        ("BindingOp", BindingOp::NAMES),
        ("BindingReply", BindingReply::NAMES),
        ("NamingOp", NamingOp::NAMES),
        ("NamingReply", NamingReply::NAMES),
        ("VaultOp", VaultOp::NAMES),
        ("VaultReply", VaultReply::NAMES),
        ("HostOp", HostOp::NAMES),
        ("HostReply", HostReply::NAMES),
        ("ClassOp", ClassOp::NAMES),
        ("ClassReply", ClassReply::NAMES),
        ("MonolithicOp", MonolithicOp::NAMES),
        ("MonolithicReply", MonolithicReply::NAMES),
        ("IcoOp", IcoOp::NAMES),
        ("IcoReply", IcoReply::NAMES),
        ("DcdoOp", DcdoOp::NAMES),
        ("DcdoReply", DcdoReply::NAMES),
        ("ManagerOp", ManagerOp::NAMES),
        ("ManagerReply", ManagerReply::NAMES),
        ("CoordinatorOp", CoordinatorOp::NAMES),
        ("ReplicaOp", ReplicaOp::NAMES),
        ("GroupReply", GroupReply::NAMES),
        ("BenchOp", BenchOp::NAMES),
        ("BenchReply", BenchReply::NAMES),
    ]
}

/// One sample of every control payload, each with enough content that a
/// size rule scaling with it is exercised.
#[rustfmt::skip]
fn samples() -> Vec<ControlOp> {
    use std::rc::Rc;

    use dcdo::core::DfmDescriptor;
    use dcdo::core::ops::*;
    use dcdo::group::protocol::*;
    use dcdo::group::{ConfigDelta, GroupConfig};
    use dcdo::legion::binding::*;
    use dcdo::legion::class::*;
    use dcdo::legion::host::*;
    use dcdo::legion::monolithic::{ExecutableImage, QueryVersion, VersionReport};
    use dcdo::legion::naming::*;
    use dcdo::legion::object::{CaptureState, Deactivate, RestoreState, StateBlob};
    use dcdo::legion::vault::*;
    use dcdo::sim::SimDuration;
    use dcdo::types::{Dependency, DependencyEnd, ImplementationType, Protection, Visibility};
    use dcdo::workloads::simbench::{BenchAck, BenchBlast, BenchTransfer};

    let o = ObjectId::from_raw;
    let (node, actor, class) = (NodeId::from_raw(1), ActorId::from_raw(2), ClassId::from_raw(3));
    let c = ComponentId::from_raw(4);
    let v = VersionId::root().child(1);
    let binary = ComponentBuilder::new(c, "sample")
        .exported("f() -> unit", |b| b.ret())
        .expect("f")
        .exported("g(int) -> int", |b| b.load_arg(0).ret())
        .expect("g")
        .static_data_size(1000)
        .build()
        .expect("valid");
    let component = binary.descriptor();
    let mut descriptor = DfmDescriptor::new(v.clone());
    descriptor
        .incorporate_component(&component, Some(o(5)))
        .expect("incorporates");
    for f in ["f", "g"] {
        descriptor.enable_function(&f.into(), c).expect("enables");
    }
    let descriptor = Rc::new(descriptor);
    let path: ContextPath = "/a/b".parse().expect("path");
    let dependency = Dependency::new(DependencyEnd::any_impl("f"), DependencyEnd::any_impl("g"));
    let delta = ConfigDelta::new().with_version(2).adding(3);
    vec![
        Ack.into(),
        CaptureState.into(),
        StateBlob { bytes: vec![7; 100].into() }.into(),
        RestoreState { bytes: vec![7; 100].into() }.into(),
        Deactivate.into(),
        RegisterBinding { object: o(6), address: actor }.into(),
        UnregisterBinding { object: o(6) }.into(),
        InvalidateBindings { addresses: vec![actor, actor] }.into(),
        InvalidatedBindings { removed: vec![o(6), o(7), o(8)] }.into(),
        QueryBinding { object: o(6) }.into(),
        BindingResult { object: o(6), address: Some(actor) }.into(),
        BindName { path: path.clone(), object: o(6) }.into(),
        UnbindName { path: path.clone() }.into(),
        LookupName { path: path.clone() }.into(),
        NameResult { path: path.clone(), object: Some(o(6)) }.into(),
        ListContext { context: path.clone() }.into(),
        ContextListing { entries: vec![(path.clone(), o(6)), (path, o(7))] }.into(),
        SaveState { owner: o(6), bytes: vec![7; 100].into() }.into(),
        LoadState { owner: o(6) }.into(),
        LoadedState { owner: o(6), bytes: Some(vec![7; 100].into()) }.into(),
        StoreComponentData { binary: Rc::new(binary.clone()) }.into(),
        FetchComponentData { component: c }.into(),
        ComponentData { component: c, binary: Some(Rc::new(binary.clone())) }.into(),
        HasComponent { component: c }.into(),
        CachedReply { cached: true }.into(),
        StoreExecutable { class, version: 2 }.into(),
        HasExecutable { class, version: 2 }.into(),
        CreateInstance { node }.into(),
        InstanceCreated { object: o(6), address: actor, version: 2 }.into(),
        SetCurrentImage { image: ExecutableImage::new(2, vec![], 5000) }.into(),
        EvolveInstance { object: o(6) }.into(),
        MigrateInstance { object: o(6), to: node }.into(),
        CheckpointInstance { object: o(6) }.into(),
        CheckpointDone { object: o(6) }.into(),
        ReactivateInstance { object: o(6), node }.into(),
        LifecycleDone { object: o(6), address: actor, version: 2 }.into(),
        ListInstances.into(),
        InstanceTable { entries: vec![(o(6), node, 2)] }.into(),
        QueryVersion.into(),
        VersionReport { version: 2, functions: 3 }.into(),
        ReadComponent.into(),
        ComponentPayload { binary: Rc::new(binary.clone()) }.into(),
        ReadComponentDescriptor.into(),
        ComponentDescriptorReply { descriptor: component }.into(),
        IncorporateComponent { ico: o(5) }.into(),
        RemoveComponent { component: c }.into(),
        EnableFunction { function: "f".into(), component: c }.into(),
        DisableFunction { function: "f".into() }.into(),
        SetFunctionProtection { function: "f".into(), protection: Protection::Mandatory }.into(),
        AddFunctionDependency { dependency: dependency.clone() }.into(),
        RemoveFunctionDependency { dependency }.into(),
        ApplyDfmDescriptor { descriptor: descriptor.clone() }.into(),
        SetRemovalPolicy { policy: RemovalPolicy::ForceAfter(SimDuration::from_secs(1)) }.into(),
        SetLazyCheck { mode: LazyCheck::EveryKCalls(3) }.into(),
        QueryInterface.into(),
        InterfaceReport { descriptor: descriptor.clone() }.into(),
        QueryImplementation.into(),
        ImplementationReport {
            version: v.clone(),
            components: vec![c],
            impl_type: ImplementationType::portable_bytecode(),
            function_count: 2,
        }
        .into(),
        QueryFunctionStatus { function: "f".into() }.into(),
        FunctionStatusReport {
            function: "f".into(),
            present: true,
            enabled: Some(c),
            visibility: Some(Visibility::Exported),
            protection: Some(Protection::Mandatory),
            active_threads: 1,
            implementations: vec![c],
        }
        .into(),
        DeriveVersion { from: v.clone() }.into(),
        DerivedVersion { version: v.clone() }.into(),
        ConfigureVersion {
            version: v.clone(),
            op: VersionConfigOp::DisableFunction { function: "f".into() },
        }
        .into(),
        MarkInstantiable { version: v.clone() }.into(),
        SetCurrentVersion { version: v.clone() }.into(),
        CreateDcdo { node }.into(),
        DcdoCreated { object: o(6), address: actor, version: v.clone() }.into(),
        UpdateInstance { object: o(6), to: Some(v.clone()) }.into(),
        UpdateDone { object: o(6), version: v.clone() }.into(),
        CheckVersion { object: o(6), current: VersionId::root() }.into(),
        VersionCheckReply { up_to_date: false, descriptor: Some(descriptor.clone()) }.into(),
        MigrateDcdo { object: o(6), to: node }.into(),
        MigrateDone { object: o(6), address: actor, version: v.clone() }.into(),
        DeactivateDcdo { object: o(6) }.into(),
        ActivateDcdo { object: o(6), node: Some(node) }.into(),
        ReportVersion { object: o(6), version: v.clone() }.into(),
        ListDcdos.into(),
        DcdoTable {
            entries: vec![(o(6), v.clone(), ImplementationType::portable_bytecode()); 2],
        }
        .into(),
        ListVersions.into(),
        VersionTable { entries: vec![(v.clone(), true, 1, 2); 3], current: v.clone() }.into(),
        QueryVersionInfo { version: v.clone() }.into(),
        VersionInfo { version: v.clone(), instantiable: true, descriptor }.into(),
        CheckpointDcdo { object: o(6) }.into(),
        DcdoCheckpointed { object: o(6), version: v }.into(),
        NodeFailed { node }.into(),
        NodeFailureReport { crashed: vec![o(6)], aborted: vec![o(6), o(7)] }.into(),
        NodeRecovered { node }.into(),
        RecoveryStarted { objects: vec![o(6), o(7)] }.into(),
        SetGroupEpoch { group: 1, epoch: 2, fence: true }.into(),
        GroupEpochReport { group: 1, epoch: 2, fenced: true, refused_while_fenced: 0 }.into(),
        ProposeConfig { group: 1, delta: delta.clone() }.into(),
        ProposalResult { committed: true, epoch: 2, config_digest: 3 }.into(),
        EpochPrepare { group: 1, epoch: 2, joined_digest: delta.digest() }.into(),
        EpochPrepareAck { member: 0, epoch: 2, joined_digest: 3 }.into(),
        EpochCommit { config: GroupConfig::initial([0], 1).apply(&delta) }.into(),
        EpochAbort { group: 1, epoch: 2 }.into(),
        ProbeReplica.into(),
        ReplicaStatus {
            member: 0,
            epoch: 2,
            version: 1,
            healthy: true,
            served: 4,
            refused: 5,
            config_digest: 6,
        }
        .into(),
        BenchBlast { data: vec![1, 2, 3] }.into(),
        BenchTransfer { encoded: binary.encode(), component: binary }.into(),
        BenchAck.into(),
    ]
}

/// Each sample as `name wire_size`, taken from the per-type
/// `ControlPayload` impls the tables replaced. Wire sizes set simulated
/// time, so a slip in a table row moves a golden; scenarios do not send
/// every op, so this list is what catches one.
const WIRE: &str = "\
ack 64\n\
capture-state 64\n\
state-blob 132\n\
restore-state 132\n\
deactivate 64\n\
register-binding 64\n\
unregister-binding 64\n\
invalidate-bindings 32\n\
invalidated-bindings 40\n\
query-binding 64\n\
binding-result 64\n\
bind-name 64\n\
unbind-name 64\n\
lookup-name 64\n\
name-result 64\n\
list-context 64\n\
context-listing 56\n\
save-state 132\n\
load-state 64\n\
loaded-state 132\n\
store-component-data 125\n\
fetch-component-data 64\n\
component-data 125\n\
has-component 64\n\
cached-reply 64\n\
store-executable 64\n\
has-executable 64\n\
create-instance 64\n\
instance-created 64\n\
set-current-image 5064\n\
evolve-instance 64\n\
migrate-instance 64\n\
checkpoint-instance 64\n\
checkpoint-done 64\n\
reactivate-instance 64\n\
lifecycle-done 64\n\
list-instances 64\n\
instance-table 64\n\
query-version 64\n\
version-report 64\n\
read-component 64\n\
component-payload 64\n\
read-component-descriptor 64\n\
component-descriptor-reply 352\n\
incorporate-component 64\n\
remove-component 64\n\
enable-function 64\n\
disable-function 64\n\
set-function-protection 64\n\
add-function-dependency 64\n\
remove-function-dependency 64\n\
apply-dfm-descriptor 416\n\
set-removal-policy 64\n\
set-lazy-check 64\n\
query-interface 64\n\
interface-report 104\n\
query-implementation 64\n\
implementation-report 64\n\
query-function-status 64\n\
function-status-report 64\n\
derive-version 64\n\
derived-version 64\n\
configure-version 64\n\
mark-instantiable 64\n\
set-current-version 64\n\
create-dcdo 64\n\
dcdo-created 64\n\
update-instance 64\n\
update-done 64\n\
check-version 64\n\
version-check-reply 224\n\
migrate-dcdo 64\n\
migrate-done 64\n\
deactivate-dcdo 64\n\
activate-dcdo 64\n\
report-version 64\n\
list-dcdos 64\n\
dcdo-table 160\n\
list-versions 64\n\
version-table 160\n\
query-version-info 64\n\
version-info 160\n\
checkpoint-dcdo 64\n\
dcdo-checkpointed 64\n\
node-failed 64\n\
node-failure-report 80\n\
node-recovered 64\n\
recovery-started 64\n\
set-group-epoch 64\n\
group-epoch-report 64\n\
propose-config 64\n\
proposal-result 64\n\
epoch-prepare 64\n\
epoch-prepare-ack 64\n\
epoch-commit 64\n\
epoch-abort 64\n\
probe-replica 64\n\
replica-status 64\n\
bench-blast 40\n\
bench-transfer 1157\n\
bench-ack 64\n\
";

#[test]
fn every_wire_name_is_unique_across_tables() {
    let mut seen = HashMap::new();
    let mut clashes = Vec::new();
    for (table, names) in tables() {
        for name in names {
            if let Some(first) = seen.insert(*name, table) {
                clashes.push(format!("{name} in {first} and {table}"));
            }
        }
    }
    assert!(clashes.is_empty(), "{}", clashes.join("\n"));
    assert_eq!(seen.len(), 101);
}

#[test]
fn the_samples_cover_every_table_row_once() {
    let named: HashSet<&str> = tables().into_iter().flat_map(|(_, n)| n.to_vec()).collect();
    let sampled: Vec<&str> = samples().iter().map(|op| op.describe()).collect();
    let distinct: HashSet<&str> = sampled.iter().copied().collect();
    assert_eq!(distinct.len(), sampled.len(), "a payload sampled twice");
    let mut missing: Vec<_> = named.difference(&distinct).collect();
    missing.sort();
    assert!(missing.is_empty(), "rows without a sample: {missing:?}");
    let mut extra: Vec<_> = distinct.difference(&named).collect();
    extra.sort();
    assert!(extra.is_empty(), "samples in no table: {extra:?}");
}

#[test]
fn every_payload_keeps_its_wire_name_and_size() {
    let rendered: String = samples()
        .iter()
        .map(|op| format!("{} {}\n", op.describe(), op.wire_size()))
        .collect();
    assert_eq!(rendered, WIRE);
}

/// A queued message is a `Msg`: a tag on `ControlOp` must not grow it.
#[test]
#[cfg(target_pointer_width = "64")]
fn a_message_stays_56_bytes() {
    assert_eq!(std::mem::size_of::<Msg>(), 56);
}

/// Sends every sample, alone, to a fresh `kind` in a fresh world and steps
/// it until idle. Returns a line for each sample that panicked, went
/// unanswered, was refused as not understood though `kind` serves it, or
/// was served though it does not.
fn conformance(kind: &Kind) -> Vec<String> {
    let object = ObjectId::from_raw(40);
    let mut wrong = Vec::new();
    for op in samples() {
        let name = op.describe();
        let answer = catch_unwind(AssertUnwindSafe(|| {
            let mut sim = Simulation::new(NetConfig::instant(), 1);
            let probe = sim.spawn(NodeId::from_raw(1), Probe::default());
            let dst = sim.spawn_boxed(NodeId::from_raw(0), (kind.make)(object));
            sim.post(probe, dst, control(1, object, op));
            sim.run_until_idle();
            sim.actor_mut::<Probe>(probe)
                .expect("alive")
                .answers
                .remove(&1)
        }));
        let unknown = format!("{} does not understand {name}", kind.name);
        let served = kind.serves.contains(&name);
        let fault = match answer {
            Err(_) => "panicked",
            Ok(None) => "left unanswered",
            Ok(Some(Answer::Control(Err(InvocationFault::Refused(why))))) if why == unknown => {
                if !served {
                    continue;
                }
                "refused although served"
            }
            Ok(Some(Answer::Control(_))) if served => continue,
            Ok(Some(Answer::Control(_))) => "answered although not served",
            Ok(Some(Answer::Invoke(_))) => "answered as an invocation",
        };
        wrong.push(format!("{}: {name} {fault}", kind.name));
    }
    wrong
}

#[test]
fn every_object_answers_every_op_as_its_table_says() {
    let wrong: Vec<String> = kinds().iter().flat_map(conformance).collect();
    assert!(wrong.is_empty(), "{}", wrong.join("\n"));
}

/// A vault stand-in that breaks the protocol on `load-state`: it panics,
/// or it never answers.
struct Planted {
    object: ObjectId,
    panics: bool,
}

impl LegionObject for Planted {
    type Ops<'a> = VaultOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    fn control(
        &mut self,
        _: &mut Ctx<'_, Msg>,
        _: ActorId,
        call: CallId,
        op: VaultOp<'_>,
    ) -> Served {
        match op {
            VaultOp::SaveState(_) => Served::Reply(Msg::control_ok(call, Ack)),
            VaultOp::LoadState(_) if self.panics => panic!("planted handler panic"),
            VaultOp::LoadState(_) => Served::Later,
        }
    }
}

impl Actor<Msg> for Planted {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn name(&self) -> &str {
        "planted"
    }
}

fn planted(panics: bool) -> Kind {
    Kind {
        name: "planted",
        make: Box::new(move |object| Box::new(Planted { object, panics })),
        serves_any: false,
        serves: table::<Planted>(),
    }
}

#[test]
fn the_matrix_catches_a_handler_that_panics() {
    assert_eq!(
        conformance(&planted(true)),
        ["planted: load-state panicked"]
    );
}

#[test]
fn the_matrix_catches_a_handler_that_drops_an_op() {
    assert_eq!(
        conformance(&planted(false)),
        ["planted: load-state left unanswered"]
    );
}
