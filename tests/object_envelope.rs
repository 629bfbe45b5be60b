//! The Legion object protocol every addressed actor speaks
//! (`legion::object::deliver`), checked on all eleven of them, and the
//! state ops both active object kinds answer alike.

use std::collections::{BTreeMap, HashMap};

use dcdo::core::{DcdoManager, DcdoObject, HostDirectory, Ico, UpdatePropagation, VersionPolicy};
use dcdo::group::{GroupConfig, GroupCoordinator, GroupReplica};
use dcdo::legion::binding::BindingAgent;
use dcdo::legion::class::ClassObject;
use dcdo::legion::host::HostObject;
use dcdo::legion::monolithic::{ExecutableImage, MonolithicObject};
use dcdo::legion::naming::ContextSpace;
use dcdo::legion::object::{CaptureState, Deactivate, RestoreState, StateBlob};
use dcdo::legion::vault::Vault;
use dcdo::legion::{
    control_payload, Ack, AgentAddress, ControlOp, CostModel, InvocationFault, Msg, RpcClient,
};
use dcdo::sim::{Actor, ActorId, Ctx, NetConfig, NodeId, Simulation};
use dcdo::types::{Architecture, CallId, ClassId, ComponentId, HostId, ObjectId, VersionId};
use dcdo::vm::{ComponentBuilder, Value, ValueStore};

/// A control op no object understands.
#[derive(Debug)]
struct Bogus;

control_payload!(Bogus, "bogus-op");

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

/// Every addressed actor, its name, and whether it
/// serves an `Invoke` of any function (only a group replica does).
fn actors(object: ObjectId) -> Vec<(&'static str, Box<dyn Actor<Msg>>, bool)> {
    let cost = CostModel::instant();
    let component = ComponentBuilder::new(ComponentId::from_raw(1), "served")
        .exported("f() -> unit", |b| b.ret())
        .expect("f")
        .build()
        .expect("valid");
    let group = GroupConfig::initial([0], 1);
    vec![
        ("context-space", Box::new(ContextSpace::new(object)), false),
        ("vault", Box::new(Vault::new(object)), false),
        (
            "host",
            Box::new(HostObject::new(
                object,
                HostId::from_raw(0),
                NodeId::from_raw(0),
                Architecture::X86,
            )),
            false,
        ),
        ("binding-agent", Box::new(BindingAgent::new(object)), false),
        (
            "class-object",
            Box::new(ClassObject::new(
                object,
                ClassId::from_raw(1),
                image(),
                cost.clone(),
                agent(),
            )),
            false,
        ),
        ("monolithic-object", Box::new(monolithic(object)), false),
        (
            "ico",
            Box::new(Ico::new(object, &component, cost.clone())),
            false,
        ),
        (
            "dcdo-manager",
            Box::new(DcdoManager::new(
                object,
                ClassId::from_raw(1),
                cost,
                agent(),
                HostDirectory::new(),
                VersionPolicy::SingleVersion,
                UpdatePropagation::Explicit,
            )),
            false,
        ),
        ("dcdo", Box::new(dcdo(object)), false),
        (
            "group-replica",
            Box::new(GroupReplica::new(1, 0, object, group.clone())),
            true,
        ),
        (
            "group-coordinator",
            Box::new(GroupCoordinator::new(1, object, group, BTreeMap::new())),
            false,
        ),
    ]
}

#[test]
fn every_addressed_actor_answers_the_envelope_rules() {
    let object = ObjectId::from_raw(40);
    let elsewhere = ObjectId::from_raw(41);
    let mut sim = Simulation::new(NetConfig::instant(), 1);
    let probe = sim.spawn(NodeId::from_raw(1), Probe::default());
    let mut rows = Vec::new();
    for (row, (kind, actor, serves_any)) in actors(object).into_iter().enumerate() {
        let dst = sim.spawn_boxed(NodeId::from_raw(0), actor);
        let base = 10 * row as u64;
        sim.post(probe, dst, control(base + 1, elsewhere, Ack));
        sim.post(probe, dst, invoke(base + 2, elsewhere, "f"));
        sim.post(probe, dst, control(base + 3, object, Bogus));
        sim.post(probe, dst, invoke(base + 4, object, "not_exported"));
        rows.push((kind, base, serves_any));
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
        Answer::Control(Ok(op)) => match op.downcast_ref::<StateBlob>() {
            Some(blob) => format!("state-blob {:?}", blob.bytes.as_ref()),
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
