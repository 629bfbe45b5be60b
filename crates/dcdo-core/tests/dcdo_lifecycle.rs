//! End-to-end DCDO scenarios: the manager version workflow, on-the-fly
//! evolution of live objects under client traffic, reproduction of the
//! §3.1 failure modes, and the §3.2 restriction machinery preventing them.

use std::collections::HashMap;

use dcdo_core::ops::{
    AddFunctionDependency, ApplyDfmDescriptor, CheckVersion, CheckpointDcdo, ConfigureVersion,
    CreateDcdo, DcdoCheckpointed, DcdoCreated, DcdoTable, DeriveVersion, DerivedVersion,
    DisableFunction, ImplementationReport, IncorporateComponent, InterfaceReport, LazyCheck,
    ListDcdos, MarkInstantiable, NodeFailed, NodeFailureReport, NodeRecovered, QueryImplementation,
    QueryInterface, RecoveryStarted, RemovalPolicy, RemoveComponent, SetCurrentVersion,
    SetLazyCheck, SetRemovalPolicy, UpdateDone, UpdateInstance, VersionConfigOp,
};
use dcdo_core::{ConfigError, DcdoManager, HostDirectory, Ico, UpdatePropagation, VersionPolicy};
use dcdo_sim::{fn_hash, SimDuration, SpanKind};
use dcdo_types::{CallId, ClassId, ComponentId, Dependency, ObjectId, VersionId};
use dcdo_vm::{ComponentBinary, ComponentBuilder, FunctionBuilder, Value, VmTotals};
use legion_substrate::harness::{Class, Testbed};
use legion_substrate::monolithic::ExecutableImage;
use legion_substrate::{ControlOp, InvocationFault, Msg};

// ---- scenario components ----------------------------------------------------

/// The counter service: `incr` calls the internal `step` through the DFM.
fn counter_core(auto_deps: bool) -> ComponentBinary {
    let incr = {
        let mut b = FunctionBuilder::parse("incr() -> int").expect("sig");
        let has = b.new_label();
        b.global_get("count")
            .dup()
            .push(())
            .eq()
            .jump_if_false(has)
            .pop()
            .push_int(0)
            .bind(has)
            .call_dyn("step", 0)
            .add()
            .dup()
            .global_set("count")
            .ret();
        b.build().expect("valid")
    };
    let get = {
        let mut b = FunctionBuilder::parse("get() -> int").expect("sig");
        let has = b.new_label();
        b.global_get("count")
            .dup()
            .push(())
            .eq()
            .jump_if_false(has)
            .pop()
            .push_int(0)
            .bind(has)
            .ret();
        b.build().expect("valid")
    };
    let step = FunctionBuilder::parse("step() -> int")
        .expect("sig")
        .push_int(1)
        .ret()
        .build()
        .expect("valid");
    let mut b = ComponentBuilder::new(ComponentId::from_raw(1), "counter-core")
        .exported_fn(incr)
        .exported_fn(get)
        .internal_fn(step);
    if auto_deps {
        b = b.auto_structural_deps();
    }
    b.build().expect("valid component")
}

/// A replacement internal `step` that advances by ten.
fn step_ten() -> ComponentBinary {
    ComponentBuilder::new(ComponentId::from_raw(2), "step-ten")
        .internal("step() -> int", |b| b.push_int(10).ret())
        .expect("step")
        .build()
        .expect("valid component")
}

/// An exported relay that outcalls a peer's `slow()` (for suspension tests).
fn relay_component() -> ComponentBinary {
    ComponentBuilder::new(ComponentId::from_raw(3), "relay")
        .exported("relay(objref) -> int", |b| {
            b.load_arg(0).call_remote("slow", 0).ret()
        })
        .expect("relay")
        .build()
        .expect("valid component")
}

// ---- scenario wiring ---------------------------------------------------------

struct Scenario {
    bed: Testbed,
    manager_obj: ObjectId,
    manager_actor: dcdo_sim::ActorId,
    icos: HashMap<u64, ObjectId>,
    client: dcdo_sim::ActorId,
}

impl Scenario {
    fn new(seed: u64, policy: VersionPolicy, propagation: UpdatePropagation) -> Self {
        let mut bed = Testbed::centurion(seed);
        let hosts = HostDirectory::from_testbed(&bed);
        let manager_obj = bed.fresh_object_id();
        let manager = DcdoManager::new(
            manager_obj,
            ClassId::from_raw(1),
            bed.cost.clone(),
            bed.agent,
            hosts,
            policy,
            propagation,
        )
        .with_vault(bed.vault_object);
        let manager_actor = bed.sim.spawn(bed.nodes[0], manager);
        bed.register(manager_obj, manager_actor);
        let (_, client) = bed.spawn_client(bed.nodes[15]);
        Scenario {
            bed,
            manager_obj,
            manager_actor,
            icos: HashMap::new(),
            client,
        }
    }

    fn publish_component(&mut self, binary: &ComponentBinary, node: usize) -> ObjectId {
        let ico_obj = self.bed.fresh_object_id();
        let node = self.bed.nodes[node];
        let actor = self
            .bed
            .sim
            .spawn(node, Ico::new(ico_obj, binary, self.bed.cost.clone()));
        self.bed.register(ico_obj, actor);
        self.icos.insert(binary.id().as_raw(), ico_obj);
        ico_obj
    }

    fn mgr_ok(&mut self, op: ControlOp) {
        let completion = self.bed.control_and_wait(self.client, self.manager_obj, op);
        completion.result.expect("manager op succeeds");
    }

    fn mgr_err(&mut self, op: ControlOp) -> InvocationFault {
        let completion = self.bed.control_and_wait(self.client, self.manager_obj, op);
        completion.result.expect_err("manager op should fail")
    }

    fn derive(&mut self, from: &str) -> VersionId {
        let completion = self.bed.control_and_wait(
            self.client,
            self.manager_obj,
            ControlOp::new(DeriveVersion {
                from: from.parse().expect("version"),
            }),
        );
        completion
            .result
            .expect("derive succeeds")
            .control_as::<DerivedVersion>()
            .expect("derived-version reply")
            .version
            .clone()
    }

    fn configure(&mut self, version: &VersionId, op: VersionConfigOp) {
        self.mgr_ok(ControlOp::new(ConfigureVersion {
            version: version.clone(),
            op,
        }));
    }

    fn mark_and_set_current(&mut self, version: &VersionId) {
        self.mgr_ok(ControlOp::new(MarkInstantiable {
            version: version.clone(),
        }));
        self.mgr_ok(ControlOp::new(SetCurrentVersion {
            version: version.clone(),
        }));
    }

    fn create_dcdo(&mut self, node: usize) -> (ObjectId, dcdo_sim::ActorId) {
        let node = self.bed.nodes[node];
        let completion = self.bed.control_and_wait(
            self.client,
            self.manager_obj,
            ControlOp::new(CreateDcdo { node }),
        );
        let payload = completion.result.expect("creation succeeds");
        let created = payload.control_as::<DcdoCreated>().expect("dcdo-created");
        (created.object, created.address)
    }

    fn call(
        &mut self,
        target: ObjectId,
        function: &str,
        args: Vec<Value>,
    ) -> Result<Value, InvocationFault> {
        let completion = self.bed.call_and_wait(self.client, target, function, args);
        completion
            .result
            .map(|p| p.into_value().expect("value reply"))
    }

    /// Standard setup: counter-core published and live in version 1.1 as
    /// the current version, one DCDO created.
    fn with_counter(seed: u64, auto_deps: bool) -> (Scenario, ObjectId, VersionId) {
        let mut s = Scenario::new(
            seed,
            VersionPolicy::SingleVersion,
            UpdatePropagation::Explicit,
        );
        let core = counter_core(auto_deps);
        let ico = s.publish_component(&core, 1);
        let v = s.derive("1");
        s.configure(&v, VersionConfigOp::IncorporateComponent { ico });
        // Enable dependency targets before their sources: the auto-analyzed
        // Type A dependency [incr, c1] -> [step] would otherwise be violated
        // the moment incr is enabled.
        for f in ["step", "get", "incr"] {
            s.configure(
                &v,
                VersionConfigOp::EnableFunction {
                    function: f.into(),
                    component: ComponentId::from_raw(1),
                },
            );
        }
        s.mark_and_set_current(&v);
        let (dcdo, _) = s.create_dcdo(4);
        (s, dcdo, v)
    }
}

// ---- tests --------------------------------------------------------------------

#[test]
fn manager_version_workflow_and_first_invocations() {
    let (mut s, dcdo, v) = Scenario::with_counter(1, false);
    assert_eq!(v.to_string(), "1.1");
    for expected in 1..=3 {
        assert_eq!(
            s.call(dcdo, "incr", vec![]).expect("incr"),
            Value::Int(expected)
        );
    }
    assert_eq!(s.call(dcdo, "get", vec![]).expect("get"), Value::Int(3));
    // Internal functions are not externally callable (§2).
    assert!(matches!(
        s.call(dcdo, "step", vec![]),
        Err(InvocationFault::NotExported(_))
    ));
}

#[test]
fn cannot_instantiate_or_evolve_to_configurable_versions() {
    let mut s = Scenario::new(2, VersionPolicy::SingleVersion, UpdatePropagation::Explicit);
    // Root "1" is configurable, not instantiable: creation must fail.
    let err = s.mgr_err(ControlOp::new(CreateDcdo {
        node: s.bed.nodes[1],
    }));
    assert!(err.to_string().contains("not marked instantiable"), "{err}");
    // SetCurrentVersion to a configurable version also fails.
    let err = s.mgr_err(ControlOp::new(SetCurrentVersion {
        version: "1".parse().expect("version"),
    }));
    assert!(err.to_string().contains("not marked instantiable"), "{err}");
}

#[test]
fn instantiable_versions_are_frozen() {
    let (mut s, _dcdo, v) = Scenario::with_counter(3, false);
    let completion = s.bed.control_and_wait(
        s.client,
        s.manager_obj,
        ControlOp::new(ConfigureVersion {
            version: v,
            op: VersionConfigOp::DisableFunction {
                function: "get".into(),
            },
        }),
    );
    let err = completion.result.expect_err("frozen version refuses");
    assert!(err.to_string().contains("frozen"), "{err}");
}

#[test]
fn evolution_replaces_internal_function_on_the_fly() {
    let (mut s, dcdo, v1) = Scenario::with_counter(4, false);
    assert_eq!(s.call(dcdo, "incr", vec![]).expect("incr"), Value::Int(1));

    // Publish the replacement step and build the next version.
    let ten = step_ten();
    let ico = s.publish_component(&ten, 2);
    let v2 = s.derive(&v1.to_string());
    s.configure(&v2, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v2,
        VersionConfigOp::EnableFunction {
            function: "step".into(),
            component: ComponentId::from_raw(2),
        },
    );
    s.mark_and_set_current(&v2);

    // Evolve the live instance explicitly.
    let completion = s.bed.control_and_wait(
        s.client,
        s.manager_obj,
        ControlOp::new(UpdateInstance {
            object: dcdo,
            to: None,
        }),
    );
    let payload = completion.result.expect("update succeeds");
    let done = payload.control_as::<UpdateDone>().expect("update-done");
    assert_eq!(done.version, v2);

    // Same object, same address (no rebinds!), new behavior, kept state.
    let completion = s.bed.call_and_wait(s.client, dcdo, "incr", vec![]);
    assert_eq!(
        completion.rebinds, 0,
        "evolution never invalidates bindings"
    );
    assert_eq!(
        completion
            .result
            .expect("incr")
            .into_value()
            .expect("value"),
        Value::Int(11),
        "1 (kept state) + 10 (new step)"
    );
}

#[test]
fn reconfiguration_only_evolution_is_fast_and_component_evolution_is_cheap() {
    let (mut s, dcdo, v1) = Scenario::with_counter(5, false);
    s.call(dcdo, "incr", vec![]).expect("warm");

    // (a) Reconfiguration-only: disable `get` in the next version.
    let v2 = s.derive(&v1.to_string());
    s.configure(
        &v2,
        VersionConfigOp::DisableFunction {
            function: "get".into(),
        },
    );
    s.mark_and_set_current(&v2);
    let completion = s.bed.control_and_wait(
        s.client,
        s.manager_obj,
        ControlOp::new(UpdateInstance {
            object: dcdo,
            to: None,
        }),
    );
    assert!(completion.result.is_ok());
    let t = completion.elapsed.as_secs_f64();
    assert!(
        t < 0.5,
        "reconfiguration-only evolution took {t}s (paper: less than half a second)"
    );

    // (b) Evolution adding one small component stays far below the
    // monolithic pipeline (~tens of seconds).
    let ten = step_ten();
    let ico = s.publish_component(&ten, 2);
    let v3 = s.derive(&v2.to_string());
    s.configure(&v3, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v3,
        VersionConfigOp::EnableFunction {
            function: "step".into(),
            component: ComponentId::from_raw(2),
        },
    );
    s.mark_and_set_current(&v3);
    let completion = s.bed.control_and_wait(
        s.client,
        s.manager_obj,
        ControlOp::new(UpdateInstance {
            object: dcdo,
            to: None,
        }),
    );
    assert!(completion.result.is_ok());
    let t = completion.elapsed.as_secs_f64();
    assert!(t < 2.0, "one-component evolution took {t}s");
}

#[test]
fn dcdo_evolution_beats_monolithic_evolution_dramatically() {
    // The headline comparison (§4 "Cost"): evolve a DCDO vs replace a
    // monolithic executable, both changing one internal function.
    let (mut s, dcdo, v1) = Scenario::with_counter(6, false);
    s.call(dcdo, "incr", vec![]).expect("warm");
    let ten = step_ten();
    let ico = s.publish_component(&ten, 2);
    let v2 = s.derive(&v1.to_string());
    s.configure(&v2, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v2,
        VersionConfigOp::EnableFunction {
            function: "step".into(),
            component: ComponentId::from_raw(2),
        },
    );
    s.mark_and_set_current(&v2);
    let dcdo_completion = s.bed.control_and_wait(
        s.client,
        s.manager_obj,
        ControlOp::new(UpdateInstance {
            object: dcdo,
            to: None,
        }),
    );
    let dcdo_time = dcdo_completion.elapsed;
    assert!(dcdo_completion.result.is_ok());

    // Baseline: a monolithic object with the same functions.
    let counter = [counter_core(false)];
    let class = Class::spawn(
        &mut s.bed,
        ExecutableImage::of_components(1, &counter, 550_000),
    );
    let node = s.bed.nodes[4];
    let instance = class.create(&mut s.bed, node);
    let image_v2 = ExecutableImage::of_components(2, &counter, 550_000);
    let mono_completion = class.replace(&mut s.bed, instance, image_v2);
    let mono_time = mono_completion.elapsed;
    assert!(mono_completion.result.is_ok());

    let speedup = mono_time.as_secs_f64() / dcdo_time.as_secs_f64().max(1e-9);
    assert!(
        speedup > 3.0,
        "DCDO evolution {dcdo_time} vs monolithic {mono_time} (speedup {speedup:.1}x)"
    );
    // And the monolithic client additionally pays 25-35s of stale-binding
    // discovery, which the DCDO path avoids entirely (asserted in the
    // legion substrate tests).
}

#[test]
fn missing_internal_function_problem_reproduced_without_restrictions() {
    // §3.1: incr calls step; without dependencies, a version that disables
    // step can be marked instantiable, and the call fails at runtime.
    let (mut s, dcdo, v1) = Scenario::with_counter(7, false);
    let v2 = s.derive(&v1.to_string());
    s.configure(
        &v2,
        VersionConfigOp::DisableFunction {
            function: "step".into(),
        },
    );
    s.mark_and_set_current(&v2);
    s.mgr_ok(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: None,
    }));
    let err = s.call(dcdo, "incr", vec![]).expect_err("incr breaks");
    // The fault names *step* — the internal callee that disappeared out
    // from under incr — not incr itself.
    assert!(
        matches!(&err, InvocationFault::FunctionDisabled(f) if f.as_str() == "step"),
        "the missing internal function problem manifests: {err}"
    );
}

#[test]
fn structural_dependencies_prevent_the_missing_function_problem() {
    // Same scenario, but the component ships auto-analyzed Type A deps
    // ([incr, c1] -> [step]): the manager refuses to configure the broken
    // version.
    let (mut s, _dcdo, v1) = Scenario::with_counter(8, true);
    let v2 = s.derive(&v1.to_string());
    let completion = s.bed.control_and_wait(
        s.client,
        s.manager_obj,
        ControlOp::new(ConfigureVersion {
            version: v2,
            op: VersionConfigOp::DisableFunction {
                function: "step".into(),
            },
        }),
    );
    let err = completion.result.expect_err("dependency blocks disable");
    assert!(
        err.to_string().contains("dependency"),
        "refusal cites the dependency: {err}"
    );
}

#[test]
fn mandatory_protection_survives_derivation() {
    let (mut s, _dcdo, v1) = Scenario::with_counter(9, false);
    // Mark incr mandatory in a derived version, freeze it.
    let v2 = s.derive(&v1.to_string());
    s.configure(
        &v2,
        VersionConfigOp::SetProtection {
            function: "incr".into(),
            protection: dcdo_types::Protection::Mandatory,
        },
    );
    s.mark_and_set_current(&v2);
    // A child of v2 that disables incr cannot be configured that way...
    let v3 = s.derive(&v2.to_string());
    let completion = s.bed.control_and_wait(
        s.client,
        s.manager_obj,
        ControlOp::new(ConfigureVersion {
            version: v3.clone(),
            op: VersionConfigOp::DisableFunction {
                function: "incr".into(),
            },
        }),
    );
    assert!(completion.result.is_err(), "mandatory blocks the disable");
    // ...and it can still be marked instantiable with incr intact.
    s.mgr_ok(ControlOp::new(MarkInstantiable { version: v3 }));
}

#[test]
fn disappearing_exported_function_as_seen_by_a_client() {
    // §3.1: the client reads the interface, then the function is disabled
    // before its invocation arrives.
    let (mut s, dcdo, _v) = Scenario::with_counter(10, false);
    let completion = s
        .bed
        .control_and_wait(s.client, dcdo, ControlOp::new(QueryInterface));
    let payload = completion.result.expect("interface");
    let report = payload.control_as::<InterfaceReport>().expect("report");
    assert!(report
        .functions()
        .any(|(sig, _)| sig.name().as_str() == "get"));

    // Disable get() directly on the live object (a configuration function
    // of the DCDO's own interface, §2.2).
    s.bed
        .control_and_wait(
            s.client,
            dcdo,
            ControlOp::new(DisableFunction {
                function: "get".into(),
            }),
        )
        .result
        .expect("disable succeeds");

    let err = s.call(dcdo, "get", vec![]).expect_err("call now fails");
    assert!(matches!(err, InvocationFault::FunctionDisabled(_)), "{err}");
}

#[test]
fn incorporate_component_directly_on_live_object() {
    let (mut s, dcdo, _v) = Scenario::with_counter(11, false);
    let relay = relay_component();
    let ico = s.publish_component(&relay, 3);
    // incorporateComponent() on the DCDO itself (§2.2).
    s.bed
        .control_and_wait(s.client, dcdo, ControlOp::new(IncorporateComponent { ico }))
        .result
        .expect("incorporation succeeds");
    // The function is present but not yet enabled.
    let completion = s
        .bed
        .control_and_wait(s.client, dcdo, ControlOp::new(QueryImplementation));
    let payload = completion.result.expect("implementation");
    let report = payload
        .control_as::<ImplementationReport>()
        .expect("report");
    assert!(report.components.contains(&ComponentId::from_raw(3)));
    let err = s.call(dcdo, "relay", vec![]).expect_err("disabled");
    assert!(matches!(err, InvocationFault::FunctionDisabled(_)));
}

/// Incorporating a component the DCDO already holds reads its descriptor,
/// then the plan's skip rule drops the rest of that component's fetch.
#[test]
fn incorporating_a_loaded_component_again_skips_its_fetch() {
    use dcdo_sim::{cfg_step, FlowKind, SpanKind};
    let (mut s, dcdo, _v) = Scenario::with_counter(11, false);
    s.bed.sim.spans_mut().enable();
    let ico = s.publish_component(&relay_component(), 3);
    let mapped = |s: &Scenario| s.bed.sim.metrics().counter("dcdo.components_mapped");
    let before = mapped(&s);
    for _ in 0..2 {
        let incorporate = ControlOp::new(IncorporateComponent { ico });
        let done = s.bed.control_and_wait(s.client, dcdo, incorporate);
        done.result.expect("incorporation succeeds");
    }
    let mut config: Vec<(u64, Vec<u32>)> = Vec::new();
    for e in s.bed.sim.spans().events() {
        match e.kind {
            SpanKind::FlowStarted {
                flow,
                kind: FlowKind::Config,
                ..
            } => {
                config.push((flow, vec![]));
            }
            SpanKind::FlowStep { flow, step } => {
                if let Some(f) = config.iter_mut().find(|f| f.0 == flow) {
                    f.1.push(step);
                }
            }
            _ => {}
        }
    }
    use cfg_step::{APPLY, DESCRIPTOR, GATE, HOST_CHECK, HOST_STORE, ICO_READ, MAP};
    let first = vec![
        DESCRIPTOR, HOST_CHECK, ICO_READ, HOST_STORE, MAP, GATE, APPLY,
    ];
    let steps: Vec<Vec<u32>> = config.into_iter().map(|(_, steps)| steps).collect();
    assert_eq!(steps, [first, vec![DESCRIPTOR, GATE, APPLY]]);
    assert_eq!(mapped(&s) - before, 1);
}

#[test]
fn thread_activity_monitoring_gates_component_removal() {
    // A thread suspends inside relay() waiting on a slow peer; removal of
    // the relay component is governed by the removal policy (§3.2).
    let (mut s, dcdo, v1) = Scenario::with_counter(12, false);

    // Build a slow monolithic peer: slow() works for 2 simulated seconds.
    let slow_code = FunctionBuilder::parse("slow() -> int")
        .expect("sig")
        .work(2_000_000_000)
        .push_int(5)
        .ret()
        .build()
        .expect("valid");
    let image = ExecutableImage::new(1, vec![slow_code], 100_000);
    let node = s.bed.nodes[2];
    let peer = Class::spawn(&mut s.bed, image).create(&mut s.bed, node);

    // Add the relay component to the current version and evolve the DCDO.
    let relay = relay_component();
    let ico = s.publish_component(&relay, 3);
    let v2 = s.derive(&v1.to_string());
    s.configure(&v2, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v2,
        VersionConfigOp::EnableFunction {
            function: "relay".into(),
            component: ComponentId::from_raw(3),
        },
    );
    s.mark_and_set_current(&v2);
    s.mgr_ok(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: None,
    }));

    // Fire a relay call; it suspends inside the relay component.
    let pending = s
        .bed
        .client_call(s.client, dcdo, "relay", vec![Value::ObjRef(peer)]);
    s.bed.run_for(SimDuration::from_millis(200));

    // Policy 1: Refuse — removal fails with ComponentBusy.
    let completion = s.bed.control_and_wait(
        s.client,
        dcdo,
        ControlOp::new(RemoveComponent {
            component: ComponentId::from_raw(3),
        }),
    );
    let err = completion.result.expect_err("refused while busy");
    assert!(err.to_string().contains("active threads"), "{err}");

    // Policy 2: DelayUntilIdle — removal waits for the thread to finish,
    // then succeeds; the relay call still completes correctly.
    s.bed
        .control_and_wait(
            s.client,
            dcdo,
            ControlOp::new(SetRemovalPolicy {
                policy: RemovalPolicy::DelayUntilIdle,
            }),
        )
        .result
        .expect("policy set");
    let removal = s.bed.client_control(
        s.client,
        dcdo,
        ControlOp::new(RemoveComponent {
            component: ComponentId::from_raw(3),
        }),
    );
    let relay_result = s.bed.wait_for(s.client, pending);
    assert_eq!(
        relay_result
            .result
            .expect("relay")
            .into_value()
            .expect("value"),
        Value::Int(5),
        "the suspended thread completed despite the pending removal"
    );
    let removal_result = s.bed.wait_for(s.client, removal);
    assert!(removal_result.result.is_ok(), "removal proceeded once idle");
}

#[test]
fn forced_removal_aborts_suspended_threads() {
    let (mut s, dcdo, v1) = Scenario::with_counter(13, false);
    // Traced, so every served thread is profiled — the aborted one too.
    s.bed.sim.spans_mut().enable();
    // Slow peer that takes 30 simulated seconds (so it outlives the grace).
    let slow_code = FunctionBuilder::parse("slow() -> int")
        .expect("sig")
        .work(30_000_000_000)
        .push_int(5)
        .ret()
        .build()
        .expect("valid");
    let image = ExecutableImage::new(1, vec![slow_code], 100_000);
    let node = s.bed.nodes[2];
    let peer = Class::spawn(&mut s.bed, image).create(&mut s.bed, node);
    let relay = relay_component();
    let ico = s.publish_component(&relay, 3);
    let v2 = s.derive(&v1.to_string());
    s.configure(&v2, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v2,
        VersionConfigOp::EnableFunction {
            function: "relay".into(),
            component: ComponentId::from_raw(3),
        },
    );
    s.mark_and_set_current(&v2);
    s.mgr_ok(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: None,
    }));

    let pending = s
        .bed
        .client_call(s.client, dcdo, "relay", vec![Value::ObjRef(peer)]);
    s.bed.run_for(SimDuration::from_millis(200));
    s.bed
        .control_and_wait(
            s.client,
            dcdo,
            ControlOp::new(SetRemovalPolicy {
                policy: RemovalPolicy::ForceAfter(SimDuration::from_secs(1)),
            }),
        )
        .result
        .expect("policy set");
    let removal = s.bed.client_control(
        s.client,
        dcdo,
        ControlOp::new(RemoveComponent {
            component: ComponentId::from_raw(3),
        }),
    );
    let removal_result = s.bed.wait_for(s.client, removal);
    assert!(
        removal_result.result.is_ok(),
        "forced removal proceeds after the grace period"
    );
    // The suspended thread was aborted; its caller sees an execution fault.
    let relay_result = s.bed.wait_for(s.client, pending);
    let err = relay_result.result.expect_err("aborted");
    assert!(
        matches!(
            err,
            InvocationFault::ExecutionFault(dcdo_vm::VmError::Aborted(_))
        ),
        "{err}"
    );
    // The aborted thread's cost is harvested like a finished thread's: a
    // `VmCost` span for relay, and relay in the world's VM totals.
    let spans = s.bed.sim.spans();
    let relay_cost = spans.events().iter().any(|e| {
        matches!(e.kind, SpanKind::VmCost { function, calls: 1, .. }
            if spans.function(function) == fn_hash("relay"))
    });
    assert!(relay_cost, "the aborted thread emitted its VmCost span");
    let totals = s
        .bed
        .sim
        .totals::<VmTotals>()
        .expect("profiled threads ran");
    let relay = totals
        .profile
        .function("relay")
        .expect("relay in the VM totals");
    assert_eq!(relay.calls, 1);
}

/// A relay thread suspended on a 30 s peer, in a relay that is now
/// disabled but declared dependent on `get` (`[relay, c3] -> [get]`):
/// disabling `get` would strand it. Returns the scenario, the DCDO and the
/// relay call still pending.
fn relay_parked_on_get(seed: u64) -> (Scenario, ObjectId, CallId) {
    let (mut s, dcdo, v1) = Scenario::with_counter(seed, false);
    let slow_code = FunctionBuilder::parse("slow() -> int")
        .expect("sig")
        .work(30_000_000_000)
        .push_int(5)
        .ret()
        .build()
        .expect("valid");
    let image = ExecutableImage::new(1, vec![slow_code], 100_000);
    let node = s.bed.nodes[2];
    let peer = Class::spawn(&mut s.bed, image).create(&mut s.bed, node);
    let ico = s.publish_component(&relay_component(), 3);
    let v2 = s.derive(&v1.to_string());
    s.configure(&v2, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v2,
        VersionConfigOp::EnableFunction {
            function: "relay".into(),
            component: ComponentId::from_raw(3),
        },
    );
    s.mark_and_set_current(&v2);
    s.mgr_ok(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: None,
    }));
    let dependency = Dependency::type_a("relay", ComponentId::from_raw(3), "get");
    let pending = s
        .bed
        .client_call(s.client, dcdo, "relay", vec![Value::ObjRef(peer)]);
    s.bed.run_for(SimDuration::from_millis(200));
    for op in [
        ControlOp::new(AddFunctionDependency { dependency }),
        ControlOp::new(DisableFunction {
            function: "relay".into(),
        }),
    ] {
        let completion = s.bed.control_and_wait(s.client, dcdo, op);
        completion.result.expect("config op succeeds");
    }
    (s, dcdo, pending)
}

#[test]
fn refused_disable_names_the_dependent_component() {
    let (mut s, dcdo, _pending) = relay_parked_on_get(14);
    let disable = ControlOp::new(DisableFunction {
        function: "get".into(),
    });
    let err = s
        .bed
        .control_and_wait(s.client, dcdo, disable)
        .result
        .expect_err("refused while a dependent thread is active");
    let busy = ConfigError::ComponentBusy {
        component: ComponentId::from_raw(3),
        active_threads: 1,
    };
    assert_eq!(err, InvocationFault::Refused(busy.to_string()));
}

#[test]
fn forced_disable_aborts_dependent_threads() {
    let (mut s, dcdo, pending) = relay_parked_on_get(15);
    s.bed
        .control_and_wait(
            s.client,
            dcdo,
            ControlOp::new(SetRemovalPolicy {
                policy: RemovalPolicy::ForceAfter(SimDuration::from_secs(1)),
            }),
        )
        .result
        .expect("policy set");
    let disable = s.bed.client_control(
        s.client,
        dcdo,
        ControlOp::new(DisableFunction {
            function: "get".into(),
        }),
    );
    let relay_result = s.bed.wait_for(s.client, pending);
    let err = relay_result.result.expect_err("aborted");
    assert!(
        matches!(
            err,
            InvocationFault::ExecutionFault(dcdo_vm::VmError::Aborted(_))
        ),
        "{err}"
    );
    let disabled = s.bed.wait_for(s.client, disable);
    assert!(
        disabled.result.is_ok(),
        "forced disable proceeds after the grace period"
    );
    assert!(s.call(dcdo, "get", vec![]).is_err(), "get is disabled");
}

#[test]
fn lazy_every_call_updates_before_serving() {
    // §3.4 lazy update, strict-consistency variant: the DCDO consults its
    // manager on every invocation.
    let (mut s, dcdo, v1) = Scenario::with_counter(14, false);
    s.bed
        .control_and_wait(
            s.client,
            dcdo,
            ControlOp::new(SetLazyCheck {
                mode: LazyCheck::EveryCall,
            }),
        )
        .result
        .expect("lazy set");

    // Publish a new current version (explicit propagation: no push).
    let ten = step_ten();
    let ico = s.publish_component(&ten, 2);
    let v2 = s.derive(&v1.to_string());
    s.configure(&v2, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v2,
        VersionConfigOp::EnableFunction {
            function: "step".into(),
            component: ComponentId::from_raw(2),
        },
    );
    s.mark_and_set_current(&v2);

    // The very next call self-updates first, then runs with new behavior.
    assert_eq!(
        s.call(dcdo, "incr", vec![]).expect("incr"),
        Value::Int(10),
        "0 + 10: the lazy check pulled the new version before serving"
    );
    // The manager's table reflects the self-update (ReportVersion).
    let completion = s
        .bed
        .control_and_wait(s.client, s.manager_obj, ControlOp::new(ListDcdos));
    let payload = completion.result.expect("list");
    let table = payload.control_as::<DcdoTable>().expect("table");
    assert_eq!(table.entries[0].1, v2);
}

#[test]
fn proactive_propagation_updates_all_instances() {
    // §3.4 proactive policy: designating a new current version triggers an
    // immediate attempt to update all existing instances.
    let mut s = Scenario::new(
        15,
        VersionPolicy::SingleVersion,
        UpdatePropagation::Proactive,
    );
    let core = counter_core(false);
    let ico = s.publish_component(&core, 1);
    let v1 = s.derive("1");
    s.configure(&v1, VersionConfigOp::IncorporateComponent { ico });
    for f in ["step", "get", "incr"] {
        s.configure(
            &v1,
            VersionConfigOp::EnableFunction {
                function: f.into(),
                component: ComponentId::from_raw(1),
            },
        );
    }
    s.mark_and_set_current(&v1);
    let instances: Vec<ObjectId> = (0..4).map(|i| s.create_dcdo(i + 2).0).collect();

    let ten = step_ten();
    let ico = s.publish_component(&ten, 2);
    let v2 = s.derive(&v1.to_string());
    s.configure(&v2, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v2,
        VersionConfigOp::EnableFunction {
            function: "step".into(),
            component: ComponentId::from_raw(2),
        },
    );
    s.mark_and_set_current(&v2);
    // Let the proactive fan-out complete.
    s.bed.sim.run_until_idle();

    let mgr = s
        .bed
        .sim
        .actor::<DcdoManager>(s.manager_actor)
        .expect("manager alive");
    for (obj, version, _) in mgr.instances() {
        assert_eq!(version, v2, "instance {obj} was proactively updated");
    }
    // And they behave accordingly.
    for obj in instances {
        assert_eq!(s.call(obj, "incr", vec![]).expect("incr"), Value::Int(10));
    }
}

#[test]
fn increasing_version_policy_refuses_cross_branch_evolution() {
    // §3.5: a version 1.1.1 DCDO can evolve to 1.1.1.x but not to 1.2.
    let mut s = Scenario::new(
        16,
        VersionPolicy::MultiIncreasingVersion,
        UpdatePropagation::Explicit,
    );
    let core = counter_core(false);
    let ico = s.publish_component(&core, 1);
    let v11 = s.derive("1");
    s.configure(&v11, VersionConfigOp::IncorporateComponent { ico });
    for f in ["step", "get", "incr"] {
        s.configure(
            &v11,
            VersionConfigOp::EnableFunction {
                function: f.into(),
                component: ComponentId::from_raw(1),
            },
        );
    }
    s.mark_and_set_current(&v11);
    let (dcdo, _) = s.create_dcdo(3);

    // A sibling branch 1.2 (not derived from 1.1; the empty root makes it
    // trivially instantiable).
    let v12 = s.derive("1");
    s.mgr_ok(ControlOp::new(MarkInstantiable {
        version: v12.clone(),
    }));
    let err = s.mgr_err(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: Some(v12),
    }));
    assert!(err.to_string().contains("derive"), "{err}");

    // A child of 1.1 is fine.
    let v111 = s.derive(&v11.to_string());
    s.configure(
        &v111,
        VersionConfigOp::DisableFunction {
            function: "get".into(),
        },
    );
    s.mgr_ok(ControlOp::new(MarkInstantiable {
        version: v111.clone(),
    }));
    s.mgr_ok(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: Some(v111),
    }));
}

#[test]
fn no_update_policy_freezes_existing_instances() {
    let mut s = Scenario::new(
        17,
        VersionPolicy::MultiNoUpdate,
        UpdatePropagation::Explicit,
    );
    let core = counter_core(false);
    let ico = s.publish_component(&core, 1);
    let v1 = s.derive("1");
    s.configure(&v1, VersionConfigOp::IncorporateComponent { ico });
    for f in ["step", "get", "incr"] {
        s.configure(
            &v1,
            VersionConfigOp::EnableFunction {
                function: f.into(),
                component: ComponentId::from_raw(1),
            },
        );
    }
    s.mark_and_set_current(&v1);
    let (dcdo, _) = s.create_dcdo(2);
    let v2 = s.derive(&v1.to_string());
    s.configure(
        &v2,
        VersionConfigOp::DisableFunction {
            function: "get".into(),
        },
    );
    s.mark_and_set_current(&v2);
    let err = s.mgr_err(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: None,
    }));
    assert!(err.to_string().contains("never evolve"), "{err}");
    // New instances use the new current version, old ones keep working.
    let (fresh, _) = s.create_dcdo(3);
    assert!(s.call(fresh, "get", vec![]).is_err(), "v2 has get disabled");
    assert!(s.call(dcdo, "get", vec![]).is_ok(), "v1 instance untouched");
}

#[test]
fn check_version_answers_lazy_pollers() {
    let (mut s, dcdo, v1) = Scenario::with_counter(18, false);
    // An up-to-date DCDO is told so.
    let completion = s.bed.control_and_wait(
        s.client,
        s.manager_obj,
        ControlOp::new(CheckVersion {
            object: dcdo,
            current: v1.clone(),
        }),
    );
    let payload = completion.result.expect("check");
    let reply = payload
        .control_as::<dcdo_core::ops::VersionCheckReply>()
        .expect("reply");
    assert!(reply.up_to_date);
    assert!(reply.descriptor.is_none());
}

#[test]
fn apply_descriptor_rejects_component_without_ico() {
    // A descriptor naming a component that was never published cannot be
    // applied to a live object.
    let (mut s, dcdo, _v) = Scenario::with_counter(19, false);
    let mut target = dcdo_core::DfmDescriptor::new("9".parse().expect("v"));
    let phantom = ComponentBuilder::new(ComponentId::from_raw(99), "phantom")
        .exported("ghost() -> unit", |b| b.ret())
        .expect("ghost")
        .build()
        .expect("valid");
    target
        .incorporate_component(&phantom.descriptor(), None)
        .expect("descriptor-level ok");
    let completion = s.bed.control_and_wait(
        s.client,
        dcdo,
        ControlOp::new(ApplyDfmDescriptor {
            descriptor: target.into(),
        }),
    );
    let err = completion.result.expect_err("refused");
    assert!(err.to_string().contains("no ICO"), "{err}");
}

#[test]
fn dcdo_migration_preserves_state_and_updates_the_table() {
    let (mut s, dcdo, _v) = Scenario::with_counter(20, false);
    for _ in 0..4 {
        s.call(dcdo, "incr", vec![]).expect("incr");
    }
    // Prime a client's binding cache before the move.
    let (_, watcher) = s.bed.spawn_client(s.bed.nodes[10]);
    s.bed
        .call_and_wait(watcher, dcdo, "get", vec![])
        .result
        .expect("pre-migration call");

    let to = s.bed.nodes[8];
    let completion = s.bed.control_and_wait(
        s.client,
        s.manager_obj,
        ControlOp::new(dcdo_core::ops::MigrateDcdo { object: dcdo, to }),
    );
    let payload = completion.result.expect("migration succeeds");
    let done = payload
        .control_as::<dcdo_core::ops::MigrateDone>()
        .expect("migrate-done reply");
    assert_eq!(done.object, dcdo);

    // The manager's table reflects the new placement and the components
    // were re-fetched onto the new host.
    let mgr = s
        .bed
        .sim
        .actor::<DcdoManager>(s.manager_actor)
        .expect("manager alive");
    assert_eq!(mgr.instance_count(), 1);

    // State survived: a fresh client sees the counter continue.
    let (_, fresh) = s.bed.spawn_client(s.bed.nodes[3]);
    let count = s
        .bed
        .call_and_wait(fresh, dcdo, "incr", vec![])
        .result
        .expect("post-migration call")
        .into_value()
        .expect("value");
    assert_eq!(count, dcdo_vm::Value::Int(5));

    // The watcher's old binding is stale; its next call pays the
    // 25-35 s discovery and then succeeds against the new address.
    let completion = s.bed.call_and_wait(watcher, dcdo, "get", vec![]);
    assert_eq!(
        completion.rebinds, 1,
        "migration moved the physical address"
    );
    let discovery = completion.elapsed.as_secs_f64();
    assert!(
        (25.0..=40.0).contains(&discovery),
        "stale-binding discovery after migration took {discovery}s"
    );
}

#[test]
fn native_components_cannot_map_onto_the_wrong_architecture() {
    // §2.1: implementation types exist so a heterogeneous system can use
    // compiled, architecture-specific code. A native x86 component maps on
    // an x86 host but is refused on an Alpha host; portable bytecode maps
    // anywhere.
    use dcdo_types::{Architecture, ImplementationType};

    let mut s = Scenario::new(
        21,
        VersionPolicy::SingleVersion,
        UpdatePropagation::Explicit,
    );
    // Re-declare node 8 as a DEC Alpha in the manager's host directory.
    let mut bed2 = Testbed::centurion(22);
    let mut hosts = HostDirectory::from_testbed(&bed2);
    hosts.set_arch(bed2.nodes[8], Architecture::Alpha);
    let manager_obj = bed2.fresh_object_id();
    let manager = DcdoManager::new(
        manager_obj,
        ClassId::from_raw(2),
        bed2.cost.clone(),
        bed2.agent,
        hosts,
        VersionPolicy::SingleVersion,
        UpdatePropagation::Explicit,
    );
    let manager_actor = bed2.sim.spawn(bed2.nodes[0], manager);
    bed2.register(manager_obj, manager_actor);
    s.bed = bed2;
    s.manager_obj = manager_obj;
    s.manager_actor = manager_actor;
    let (_, client) = s.bed.spawn_client(s.bed.nodes[15]);
    s.client = client;

    // A native x86 component.
    let native = dcdo_vm::ComponentBuilder::new(ComponentId::from_raw(5), "native-x86")
        .impl_type(ImplementationType::native(Architecture::X86))
        .exported("f() -> int", |b| b.push_int(1).ret())
        .expect("f")
        .build()
        .expect("valid");
    let ico = s.publish_component(&native, 1);
    let v = s.derive("1");
    s.configure(&v, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v,
        VersionConfigOp::EnableFunction {
            function: "f".into(),
            component: ComponentId::from_raw(5),
        },
    );
    s.mark_and_set_current(&v);

    // Creation on an x86 host works...
    let (x86_dcdo, _) = s.create_dcdo(4);
    assert_eq!(
        s.call(x86_dcdo, "f", vec![]).expect("runs"),
        dcdo_vm::Value::Int(1)
    );

    // ...but on the Alpha node the mapping is refused.
    let node = s.bed.nodes[8];
    let completion =
        s.bed
            .control_and_wait(s.client, s.manager_obj, ControlOp::new(CreateDcdo { node }));
    let err = completion.result.expect_err("creation fails on Alpha");
    assert!(
        err.to_string().contains("cannot run on a alpha host"),
        "refusal names the architecture: {err}"
    );
}

#[test]
fn deactivation_parks_state_and_reactivation_restores_it() {
    // Legion objects are constantly *available*, not constantly resident:
    // deactivate a DCDO (state parks in the manager's table, the process
    // exits, the binding disappears), then reactivate it on another node.
    let (mut s, dcdo, _v) = Scenario::with_counter(23, false);
    for _ in 0..7 {
        s.call(dcdo, "incr", vec![]).expect("incr");
    }

    let completion = s.bed.control_and_wait(
        s.client,
        s.manager_obj,
        ControlOp::new(dcdo_core::ops::DeactivateDcdo { object: dcdo }),
    );
    completion.result.expect("deactivation succeeds");

    // While deactivated: calls cannot reach it, and updates are refused.
    let err = s.mgr_err(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: None,
    }));
    assert!(err.to_string().contains("deactivated"), "{err}");
    let err = s.mgr_err(ControlOp::new(dcdo_core::ops::DeactivateDcdo {
        object: dcdo,
    }));
    assert!(err.to_string().contains("already deactivated"), "{err}");

    // Reactivate on a different node.
    let node = s.bed.nodes[11];
    let completion = s.bed.control_and_wait(
        s.client,
        s.manager_obj,
        ControlOp::new(dcdo_core::ops::ActivateDcdo {
            object: dcdo,
            node: Some(node),
        }),
    );
    let payload = completion.result.expect("activation succeeds");
    assert!(payload.control_as::<DcdoCreated>().is_some());

    // The counter resumes where it left off.
    let (_, fresh) = s.bed.spawn_client(s.bed.nodes[2]);
    let count = s
        .bed
        .call_and_wait(fresh, dcdo, "incr", vec![])
        .result
        .expect("post-activation call")
        .into_value()
        .expect("value");
    assert_eq!(count, dcdo_vm::Value::Int(8));

    // Activating an active instance is refused.
    let err = s.mgr_err(ControlOp::new(dcdo_core::ops::ActivateDcdo {
        object: dcdo,
        node: None,
    }));
    assert!(err.to_string().contains("not deactivated"), "{err}");
}

#[test]
fn invocations_during_a_slow_evolution_see_the_old_version_until_the_swap() {
    // The atomic-swap consistency property: while an Apply flow is still
    // downloading a big component, invocations keep being served by the old
    // configuration; after the swap they see the new one.
    let (mut s, dcdo, v1) = Scenario::with_counter(24, false);
    s.call(dcdo, "incr", vec![]).expect("warm");

    // A big (padded) replacement step component: the download takes seconds.
    let big_step = {
        use dcdo_vm::ComponentBuilder;
        ComponentBuilder::new(ComponentId::from_raw(2), "big-step")
            .internal("step() -> int", |b| b.push_int(10).ret())
            .expect("step")
            .static_data_size(1_000_000)
            .build()
            .expect("valid")
    };
    let ico = s.publish_component(&big_step, 2);
    let v2 = s.derive(&v1.to_string());
    s.configure(&v2, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v2,
        VersionConfigOp::EnableFunction {
            function: "step".into(),
            component: ComponentId::from_raw(2),
        },
    );
    s.mark_and_set_current(&v2);

    // Kick off the update but only run 1 simulated second (the ~4s
    // component download is still in flight).
    let update = s.bed.client_control(
        s.client,
        s.manager_obj,
        ControlOp::new(UpdateInstance {
            object: dcdo,
            to: None,
        }),
    );
    s.bed.run_for(SimDuration::from_secs(1));
    let mid = s
        .bed
        .call_and_wait(s.client, dcdo, "incr", vec![])
        .result
        .expect("served during evolution")
        .into_value()
        .expect("value");
    assert_eq!(mid, dcdo_vm::Value::Int(2), "old step (+1) still in force");

    // Let the update finish; the next call uses the new step.
    let done = s.bed.wait_for(s.client, update);
    assert!(done.result.is_ok());
    let after = s
        .bed
        .call_and_wait(s.client, dcdo, "incr", vec![])
        .result
        .expect("served after evolution")
        .into_value()
        .expect("value");
    assert_eq!(
        after,
        dcdo_vm::Value::Int(12),
        "new step (+10) after the swap"
    );
}

/// A big (padded) replacement step component: the download takes seconds,
/// leaving a window to crash the host mid-reconfiguration.
fn big_step() -> ComponentBinary {
    ComponentBuilder::new(ComponentId::from_raw(2), "big-step")
        .internal("step() -> int", |b| b.push_int(10).ret())
        .expect("step")
        .static_data_size(1_000_000)
        .build()
        .expect("valid")
}

#[test]
fn crash_during_reconfiguration_aborts_cleanly_and_recovers_from_vault() {
    let (mut s, dcdo, v1) = Scenario::with_counter(31, false);
    let node = s.bed.nodes[4];
    for expected in 1..=2 {
        assert_eq!(
            s.call(dcdo, "incr", vec![]).expect("incr"),
            Value::Int(expected)
        );
    }

    // Persist a snapshot (count = 2) before courting disaster.
    let cp = s
        .bed
        .control_and_wait(
            s.client,
            s.manager_obj,
            ControlOp::new(CheckpointDcdo { object: dcdo }),
        )
        .result
        .expect("checkpoint succeeds");
    let cp = cp.control_as::<DcdoCheckpointed>().expect("checkpointed");
    assert_eq!(cp.version, v1);
    assert!(s.bed.sim.metrics().counter("vault.saves") >= 1);

    // Build the next version and start an explicit update, then crash the
    // instance's host while the big component is still downloading.
    let ico = s.publish_component(&big_step(), 2);
    let v2 = s.derive(&v1.to_string());
    s.configure(&v2, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v2,
        VersionConfigOp::EnableFunction {
            function: "step".into(),
            component: ComponentId::from_raw(2),
        },
    );
    s.mark_and_set_current(&v2);
    let update = s.bed.client_control(
        s.client,
        s.manager_obj,
        ControlOp::new(UpdateInstance {
            object: dcdo,
            to: None,
        }),
    );
    s.bed.run_for(SimDuration::from_secs(1));
    s.bed.sim.crash_node(node);

    // NodeFailed marks the instance crashed and aborts the in-flight flow;
    // the explicit caller gets a clean Refused instead of a hung Progress.
    let report = s
        .bed
        .control_and_wait(s.client, s.manager_obj, ControlOp::new(NodeFailed { node }))
        .result
        .expect("failure report");
    let report = report
        .control_as::<NodeFailureReport>()
        .expect("node-failure-report");
    assert_eq!(report.crashed, vec![dcdo]);
    assert!(report.aborted.contains(&dcdo), "update flow aborted");
    let aborted = s.bed.wait_for(s.client, update);
    let err = aborted.result.expect_err("interrupted update refused");
    assert!(err.to_string().contains("failed mid-Update"), "{err}");

    // Reconfiguration is refused while the host is down.
    let err = s.mgr_err(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: None,
    }));
    assert!(err.to_string().contains("crashed"), "{err}");

    // Host returns (with its host daemon revived); NodeRecovered rebuilds
    // the instance from its snapshot.
    s.bed.sim.restart_node(node);
    s.bed.revive_host(node);
    let started = s
        .bed
        .control_and_wait(
            s.client,
            s.manager_obj,
            ControlOp::new(NodeRecovered { node }),
        )
        .result
        .expect("recovery starts");
    let started = started
        .control_as::<RecoveryStarted>()
        .expect("recovery-started");
    assert_eq!(started.objects, vec![dcdo]);
    s.bed.run_for(SimDuration::from_secs(30));
    assert_eq!(s.bed.sim.metrics().counter("manager.recoveries"), 1);
    assert!(s.bed.sim.metrics().counter("vault.loads") >= 1);

    // The client's stale binding heals and the restored state (count = 2)
    // is served; the re-issued update then lands v2's +10 step.
    assert_eq!(s.call(dcdo, "incr", vec![]).expect("incr"), Value::Int(3));
    s.mgr_ok(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: None,
    }));
    assert_eq!(s.call(dcdo, "incr", vec![]).expect("incr"), Value::Int(13));
}

#[test]
fn proactive_push_interrupted_by_crash_resumes_after_recovery() {
    let mut s = Scenario::new(
        32,
        VersionPolicy::SingleVersion,
        UpdatePropagation::Proactive,
    );
    let core = counter_core(false);
    let ico = s.publish_component(&core, 1);
    let v1 = s.derive("1");
    s.configure(&v1, VersionConfigOp::IncorporateComponent { ico });
    for f in ["step", "get", "incr"] {
        s.configure(
            &v1,
            VersionConfigOp::EnableFunction {
                function: f.into(),
                component: ComponentId::from_raw(1),
            },
        );
    }
    s.mark_and_set_current(&v1);
    let (dcdo, _) = s.create_dcdo(4);
    let node = s.bed.nodes[4];
    assert_eq!(s.call(dcdo, "incr", vec![]).expect("incr"), Value::Int(1));
    s.bed
        .control_and_wait(
            s.client,
            s.manager_obj,
            ControlOp::new(CheckpointDcdo { object: dcdo }),
        )
        .result
        .expect("checkpoint succeeds");

    // Designating v2 current starts an internal (supervised) push; crash
    // the host while the big component is mid-download.
    let ico = s.publish_component(&big_step(), 2);
    let v2 = s.derive(&v1.to_string());
    s.configure(&v2, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v2,
        VersionConfigOp::EnableFunction {
            function: "step".into(),
            component: ComponentId::from_raw(2),
        },
    );
    s.mark_and_set_current(&v2);
    s.bed.run_for(SimDuration::from_secs(1));
    s.bed.sim.crash_node(node);
    s.bed
        .control_and_wait(s.client, s.manager_obj, ControlOp::new(NodeFailed { node }))
        .result
        .expect("failure report");
    {
        let mgr = s
            .bed
            .sim
            .actor::<DcdoManager>(s.manager_actor)
            .expect("manager alive");
        assert_eq!(mgr.crashed_instances(), vec![dcdo]);
        assert_eq!(mgr.interrupted_update_count(), 1, "push remembered");
    }

    // Recovery rebuilds the instance at v1, then the remembered push
    // resumes and lands v2 without any further operator action.
    s.bed.sim.restart_node(node);
    s.bed.revive_host(node);
    s.bed
        .control_and_wait(
            s.client,
            s.manager_obj,
            ControlOp::new(NodeRecovered { node }),
        )
        .result
        .expect("recovery starts");
    s.bed.run_for(SimDuration::from_secs(60));
    {
        let mgr = s
            .bed
            .sim
            .actor::<DcdoManager>(s.manager_actor)
            .expect("manager alive");
        assert!(mgr.crashed_instances().is_empty());
        assert_eq!(mgr.interrupted_update_count(), 0, "push resumed");
        let instances = mgr.instances();
        assert_eq!(instances.len(), 1);
        assert_eq!(instances[0].1, v2, "resumed update landed v2");
    }
    // Snapshot state (count = 1) restored, v2's +10 step in force.
    assert_eq!(s.call(dcdo, "incr", vec![]).expect("incr"), Value::Int(11));
}

#[test]
fn group_epoch_gate_fences_evolution_until_commit() {
    use dcdo_core::ops::{GroupEpochReport, SetGroupEpoch};

    let (mut s, dcdo, _v) = Scenario::with_counter(31, false);

    // Enrol the manager: prepare epoch 1 of group 7 (fenced).
    let report = s
        .bed
        .control_and_wait(
            s.client,
            s.manager_obj,
            ControlOp::new(SetGroupEpoch {
                group: 7,
                epoch: 1,
                fence: true,
            }),
        )
        .result
        .expect("prepare accepted")
        .control_as::<GroupEpochReport>()
        .expect("group-epoch-report")
        .clone();
    assert_eq!((report.group, report.epoch, report.fenced), (7, 1, true));

    // While fenced, evolution is refused with a typed fault — even a no-op
    // update to the current version.
    let fault = s.mgr_err(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: None,
    }));
    assert!(
        matches!(&fault, InvocationFault::Refused(why) if why.contains("fencing")),
        "expected a fencing refusal, got {fault:?}"
    );

    // Application traffic is NOT gated: only reconfiguration is.
    assert_eq!(s.call(dcdo, "incr", vec![]).expect("incr"), Value::Int(1));

    // Stale epochs and foreign groups are refused outright.
    let stale = s.mgr_err(ControlOp::new(SetGroupEpoch {
        group: 7,
        epoch: 0,
        fence: false,
    }));
    assert!(matches!(&stale, InvocationFault::Refused(why) if why.contains("stale")));
    let foreign = s.mgr_err(ControlOp::new(SetGroupEpoch {
        group: 8,
        epoch: 5,
        fence: true,
    }));
    assert!(matches!(&foreign, InvocationFault::Refused(why) if why.contains("enrolled")));

    // Commit epoch 1: the gate opens and reports the refusal it absorbed.
    let committed = s
        .bed
        .control_and_wait(
            s.client,
            s.manager_obj,
            ControlOp::new(SetGroupEpoch {
                group: 7,
                epoch: 1,
                fence: false,
            }),
        )
        .result
        .expect("commit accepted")
        .control_as::<GroupEpochReport>()
        .expect("group-epoch-report")
        .clone();
    assert!(!committed.fenced);
    assert_eq!(committed.refused_while_fenced, 1);

    // Re-fencing an adopted epoch is stale; fencing the next one works.
    let refence = s.mgr_err(ControlOp::new(SetGroupEpoch {
        group: 7,
        epoch: 1,
        fence: true,
    }));
    assert!(matches!(&refence, InvocationFault::Refused(why) if why.contains("stale")));

    // Unfenced, evolution proceeds again.
    s.mgr_ok(ControlOp::new(UpdateInstance {
        object: dcdo,
        to: None,
    }));
    let mgr = s
        .bed
        .sim
        .actor::<DcdoManager>(s.manager_actor)
        .expect("manager alive");
    assert_eq!(mgr.group_epoch(), Some((7, 1, false)));
    assert_eq!(mgr.group_fence_refusals(), 1);
}

#[test]
fn every_flow_kind_walks_its_declared_steps() {
    use dcdo_core::ops::{ActivateDcdo, DeactivateDcdo, MigrateDcdo};
    use dcdo_sim::{FlowKind, SpanKind};

    let (mut s, dcdo, v1) = Scenario::with_counter(41, false);
    s.bed.sim.spans_mut().enable();
    let home = s.bed.nodes[9];

    // One flow of every kind, in this order. `dcdo` ends up checkpointed on
    // `home`; `bare` lives there with no snapshot in the vault.
    let (bare, _) = s.create_dcdo(9);
    s.mgr_ok(ControlOp::new(CheckpointDcdo { object: dcdo }));
    let ico = s.publish_component(&step_ten(), 2);
    let v2 = s.derive(&v1.to_string());
    s.configure(&v2, VersionConfigOp::IncorporateComponent { ico });
    s.configure(
        &v2,
        VersionConfigOp::EnableFunction {
            function: "step".into(),
            component: ComponentId::from_raw(2),
        },
    );
    s.mark_and_set_current(&v2);
    let update = UpdateInstance {
        object: dcdo,
        to: None,
    };
    s.mgr_ok(ControlOp::new(update));
    let migrate = MigrateDcdo {
        object: dcdo,
        to: home,
    };
    s.mgr_ok(ControlOp::new(migrate));
    s.mgr_ok(ControlOp::new(DeactivateDcdo { object: dcdo }));
    let activate = ActivateDcdo {
        object: dcdo,
        node: None,
    };
    s.mgr_ok(ControlOp::new(activate));
    s.bed.sim.crash_node(home);
    s.mgr_ok(ControlOp::new(NodeFailed { node: home }));
    s.bed.sim.restart_node(home);
    s.bed.revive_host(home);
    s.mgr_ok(ControlOp::new(NodeRecovered { node: home }));
    s.bed.run_for(SimDuration::from_secs(60));
    assert!(dcdo < bare, "recovery starts flows in object order");
    assert_eq!(
        s.bed
            .sim
            .metrics()
            .counter("manager.recoveries_without_snapshot"),
        1
    );

    // Per manager flow, in start order: kind, the FlowStep codes it left,
    // and how many FlowCompleted spans closed it.
    let mut flows: Vec<(u64, FlowKind, Vec<u32>, u32)> = Vec::new();
    for e in s.bed.sim.spans().events() {
        match &e.kind {
            SpanKind::FlowStarted { flow, kind, .. } if *kind != FlowKind::Config => {
                flows.push((*flow, *kind, Vec::new(), 0));
            }
            SpanKind::FlowStep { flow, step } => {
                if let Some(f) = flows.iter_mut().find(|f| f.0 == *flow) {
                    f.2.push(*step);
                }
            }
            SpanKind::FlowCompleted { flow } => {
                if let Some(f) = flows.iter_mut().find(|f| f.0 == *flow) {
                    f.3 += 1;
                }
            }
            SpanKind::FlowAborted { flow } => {
                assert!(flows.iter().all(|f| f.0 != *flow), "flow {flow} aborted");
            }
            _ => {}
        }
    }
    let walked: Vec<(FlowKind, &[u32], u32)> = flows
        .iter()
        .map(|(_, kind, steps, completed)| (*kind, steps.as_slice(), *completed))
        .collect();
    // The first step of a plan is implied by FlowStarted and leaves no
    // FlowStep — except Update's lone Apply, which has always been marked.
    let expected: [(FlowKind, &[u32], u32); 8] = [
        (FlowKind::Create, &[4, 5], 1),
        (FlowKind::Checkpoint, &[7], 1),
        (FlowKind::Update, &[5], 1),
        (FlowKind::Migrate, &[1, 3, 5, 6, 4], 1),
        (FlowKind::Deactivate, &[1, 2], 1),
        (FlowKind::Activate, &[5, 6, 4], 1),
        (FlowKind::Recover, &[5, 8, 6, 4], 1),
        // No snapshot in the vault: Restore is skipped.
        (FlowKind::Recover, &[5, 8, 4], 1),
    ];
    assert_eq!(walked, expected);
}

/// Records what the manager sends back, and when.
#[derive(Default)]
struct ReplyProbe {
    progress: u32,
    replies: Vec<(dcdo_sim::SimTime, Result<ControlOp, InvocationFault>)>,
}

impl dcdo_sim::Actor<Msg> for ReplyProbe {
    fn on_message(&mut self, ctx: &mut dcdo_sim::Ctx<'_, Msg>, _from: dcdo_sim::ActorId, msg: Msg) {
        match msg {
            Msg::ControlReply { result, .. } => self.replies.push((ctx.now(), result)),
            Msg::Progress { .. } => self.progress += 1,
            _ => {}
        }
    }
}

#[test]
fn flows_on_a_parked_or_crashed_instance_are_refused_at_admission() {
    use dcdo_core::ops::{DeactivateDcdo, MigrateDcdo};

    let (mut s, dcdo, _v) = Scenario::with_counter(42, false);
    let (to, home) = (s.bed.nodes[8], s.bed.nodes[4]);
    // The probe shares the manager's node: delivery takes exactly
    // `local_delivery` each way, so a request refused in the handler that
    // received it is answered exactly two local hops after it was posted.
    let probe = s.bed.sim.spawn(s.bed.nodes[0], ReplyProbe::default());
    let hop = dcdo_sim::NetConfig::centurion().local_delivery;
    let mut next_call = 0;
    let mut refused = |s: &mut Scenario, op: ControlOp, expect: &str| {
        next_call += 1;
        let failed_before = s.bed.sim.metrics().counter("manager.flows_failed");
        let posted = s.bed.sim.now();
        let msg = Msg::Control {
            call: dcdo_types::CallId::from_raw(next_call),
            target: s.manager_obj,
            op,
        };
        s.bed.sim.post(probe, s.manager_actor, msg);
        s.bed.run_for(SimDuration::from_secs(1));
        let p = s.bed.sim.actor::<ReplyProbe>(probe).expect("probe alive");
        assert_eq!(p.progress, 0, "a refused request is never acknowledged");
        assert_eq!(p.replies.len(), next_call as usize);
        let (at, result) = p.replies.last().expect("answered");
        assert_eq!(*at, posted + hop + hop, "refused in the receiving handler");
        let fault = result.as_ref().expect_err("refused");
        assert!(
            matches!(fault, InvocationFault::Refused(why) if why.contains(expect)),
            "expected {expect:?}, got {fault:?}"
        );
        let mgr = s.bed.sim.actor::<DcdoManager>(s.manager_actor);
        assert_eq!(mgr.expect("manager alive").flows_in_flight(), 0);
        assert_eq!(
            s.bed.sim.metrics().counter("manager.flows_failed"),
            failed_before
        );
    };

    // Deactivated: there is no process to capture state from.
    s.mgr_ok(ControlOp::new(DeactivateDcdo { object: dcdo }));
    let migrate = || ControlOp::new(MigrateDcdo { object: dcdo, to });
    refused(&mut s, migrate(), "is deactivated");

    // Crashed: same, for migration and for deactivation.
    s.mgr_ok(ControlOp::new(dcdo_core::ops::ActivateDcdo {
        object: dcdo,
        node: None,
    }));
    s.bed.sim.crash_node(home);
    s.mgr_ok(ControlOp::new(NodeFailed { node: home }));
    refused(&mut s, migrate(), "host crashed");
    let deactivate = ControlOp::new(DeactivateDcdo { object: dcdo });
    refused(&mut s, deactivate, "host crashed");
}
