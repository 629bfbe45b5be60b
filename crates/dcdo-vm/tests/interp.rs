//! End-to-end interpreter tests: arithmetic, control flow, recursion,
//! suspension at outcalls, fault unwinding, and resolver bookkeeping.

use std::collections::HashMap;

use dcdo_types::{ComponentId, FunctionName, ObjectId};
use dcdo_vm::{
    CallOrigin, CallResolver, CodeBlock, FunctionBuilder, NativeRegistry, ResolveError,
    ResolvedCall, RunOutcome, StaticResolver, ThreadStatus, Value, ValueStore, VmError, VmThread,
};

const FUEL: u64 = 1_000_000;

fn natives() -> NativeRegistry {
    NativeRegistry::standard()
}

fn globals() -> ValueStore {
    ValueStore::new()
}

/// Resolver that wraps a StaticResolver and counts enter/exit pairs —
/// a miniature of the DFM's thread-activity monitoring.
#[derive(Default)]
struct CountingResolver {
    inner: StaticResolver,
    active: HashMap<u32, i64>,
    max_seen: i64,
}

impl CountingResolver {
    fn insert(&mut self, code: CodeBlock) {
        self.inner.insert(code, ComponentId::from_raw(1));
    }

    /// Threads inside `function`'s implementation.
    fn active_in(&mut self, function: &str) -> i64 {
        let activity = self
            .inner
            .resolve(&function.into(), CallOrigin::Internal)
            .expect("installed")
            .activity;
        self.active.get(&activity).copied().unwrap_or(0)
    }

    fn all_idle(&self) -> bool {
        self.active.values().all(|&n| n == 0)
    }
}

impl CallResolver for CountingResolver {
    fn resolve(
        &mut self,
        function: &FunctionName,
        origin: CallOrigin,
    ) -> Result<ResolvedCall, ResolveError> {
        self.inner.resolve(function, origin)
    }

    fn enter(&mut self, activity: u32) {
        let n = self.active.entry(activity).or_insert(0);
        *n += 1;
        self.max_seen = self.max_seen.max(*n);
    }

    fn exit(&mut self, activity: u32) {
        let n = self.active.entry(activity).or_insert(0);
        *n -= 1;
        assert!(
            *n >= 0,
            "exit without matching enter for implementation {activity}"
        );
    }
}

fn run_to_completion(resolver: &mut dyn CallResolver, name: &str, args: Vec<Value>) -> Value {
    let mut thread =
        VmThread::call(resolver, &name.into(), args, CallOrigin::External).expect("call starts");
    match thread.run(resolver, &natives(), &mut globals(), FUEL) {
        RunOutcome::Completed(v) => v,
        other => panic!("expected completion, got {other:?}"),
    }
}

fn fib_code() -> CodeBlock {
    // fib(n) = n < 2 ? n : fib(n-1) + fib(n-2)
    let mut b = FunctionBuilder::parse("fib(int) -> int").expect("signature");
    let recurse = b.new_label();
    b.load_arg(0)
        .push_int(2)
        .lt()
        .jump_if_false(recurse)
        .load_arg(0)
        .ret()
        .bind(recurse)
        .load_arg(0)
        .push_int(1)
        .sub()
        .call_dyn("fib", 1)
        .load_arg(0)
        .push_int(2)
        .sub()
        .call_dyn("fib", 1)
        .add()
        .ret();
    b.build().expect("valid")
}

#[test]
fn arithmetic_and_control_flow() {
    let mut r = StaticResolver::new();
    // sum of 1..=n by loop
    let mut b = FunctionBuilder::parse("sum_to(int) -> int").expect("signature");
    b.locals(2);
    let top = b.new_label();
    let done = b.new_label();
    b.push_int(0)
        .store_local(0) // acc
        .push_int(1)
        .store_local(1) // i
        .bind(top)
        .load_local(1)
        .load_arg(0)
        .le()
        .jump_if_false(done)
        .load_local(0)
        .load_local(1)
        .add()
        .store_local(0)
        .load_local(1)
        .push_int(1)
        .add()
        .store_local(1)
        .jump(top)
        .bind(done)
        .load_local(0)
        .ret();
    r.insert(b.build().expect("valid"), ComponentId::from_raw(1));
    assert_eq!(
        run_to_completion(&mut r, "sum_to", vec![Value::Int(100)]),
        Value::Int(5050)
    );
}

#[test]
fn recursion_through_the_resolver() {
    let mut r = CountingResolver::default();
    r.insert(fib_code());
    assert_eq!(
        run_to_completion(&mut r, "fib", vec![Value::Int(15)]),
        Value::Int(610)
    );
    assert!(r.all_idle(), "all enters matched by exits");
    assert!(
        r.max_seen > 1,
        "recursion nests frames in the same function"
    );
}

#[test]
fn native_intrinsics_from_bytecode() {
    let mut r = StaticResolver::new();
    let code = FunctionBuilder::parse("norm(str) -> str")
        .expect("signature")
        .load_arg(0)
        .call_native("str_upper", 1)
        .ret()
        .build()
        .expect("valid");
    r.insert(code, ComponentId::from_raw(1));
    assert_eq!(
        run_to_completion(&mut r, "norm", vec![Value::str("abc")]),
        Value::str("ABC")
    );
}

#[test]
fn list_operations() {
    let mut r = StaticResolver::new();
    let code = FunctionBuilder::parse("second(list) -> any")
        .expect("signature")
        .load_arg(0)
        .push_int(1)
        .instr(dcdo_vm::Instr::ListGet)
        .ret()
        .build()
        .expect("valid");
    r.insert(code, ComponentId::from_raw(1));
    let list = Value::List(vec![Value::Int(10), Value::str("x")]);
    assert_eq!(
        run_to_completion(&mut r, "second", vec![list]),
        Value::str("x")
    );
}

#[test]
fn missing_function_faults_with_the_papers_error() {
    let mut r = CountingResolver::default();
    let code = FunctionBuilder::parse("f() -> unit")
        .expect("signature")
        .call_dyn("ghost", 0)
        .pop()
        .ret()
        .build()
        .expect("valid");
    r.insert(code);
    let mut thread =
        VmThread::call(&mut r, &"f".into(), vec![], CallOrigin::External).expect("starts");
    let outcome = thread.run(&mut r, &natives(), &mut globals(), FUEL);
    assert_eq!(
        outcome,
        RunOutcome::Faulted(VmError::MissingFunction("ghost".into()))
    );
    assert_eq!(thread.status(), ThreadStatus::Done);
    assert!(r.all_idle(), "fault unwound the enter of f");
}

#[test]
fn suspension_and_resume_at_remote_outcall() {
    let mut r = CountingResolver::default();
    // f(peer) = remote peer.double(21) + 1
    let code = FunctionBuilder::parse("f(objref) -> int")
        .expect("signature")
        .load_arg(0)
        .push_int(21)
        .call_remote("double", 1)
        .push_int(1)
        .add()
        .ret()
        .build()
        .expect("valid");
    r.insert(code);
    let peer = ObjectId::from_raw(77);
    let mut thread = VmThread::call(
        &mut r,
        &"f".into(),
        vec![Value::ObjRef(peer)],
        CallOrigin::External,
    )
    .expect("starts");
    let outcome = thread.run(&mut r, &natives(), &mut globals(), FUEL);
    let req = match outcome {
        RunOutcome::Suspended(req) => req,
        other => panic!("expected suspension, got {other:?}"),
    };
    assert_eq!(req.target, peer);
    assert_eq!(req.function, "double".into());
    assert_eq!(req.args, vec![Value::Int(21)]);
    assert_eq!(thread.status(), ThreadStatus::Suspended);
    // While suspended the thread is still *inside* f (activity monitoring).
    assert_eq!(r.active_in("f"), 1);
    assert_eq!(thread.functions_on_stack(), vec![FunctionName::new("f")]);

    thread.resume(Value::Int(42));
    match thread.run(&mut r, &natives(), &mut globals(), FUEL) {
        RunOutcome::Completed(v) => assert_eq!(v, Value::Int(43)),
        other => panic!("expected completion, got {other:?}"),
    }
    assert!(r.all_idle());
}

#[test]
fn resume_err_faults_and_unwinds() {
    let mut r = CountingResolver::default();
    let code = FunctionBuilder::parse("f(objref) -> int")
        .expect("signature")
        .load_arg(0)
        .push_int(1)
        .call_remote("g", 1)
        .ret()
        .build()
        .expect("valid");
    r.insert(code);
    let mut thread = VmThread::call(
        &mut r,
        &"f".into(),
        vec![Value::ObjRef(ObjectId::from_raw(1))],
        CallOrigin::External,
    )
    .expect("starts");
    assert!(matches!(
        thread.run(&mut r, &natives(), &mut globals(), FUEL),
        RunOutcome::Suspended(_)
    ));
    thread.resume_err(VmError::RemoteCallFailed("peer died".into()));
    assert_eq!(
        thread.run(&mut r, &natives(), &mut globals(), FUEL),
        RunOutcome::Faulted(VmError::RemoteCallFailed("peer died".into()))
    );
    assert!(r.all_idle());
}

#[test]
fn abort_unwinds_suspended_thread() {
    let mut r = CountingResolver::default();
    let code = FunctionBuilder::parse("f(objref) -> unit")
        .expect("signature")
        .load_arg(0)
        .call_remote("g", 0)
        .pop()
        .ret()
        .build()
        .expect("valid");
    r.insert(code);
    let mut thread = VmThread::call(
        &mut r,
        &"f".into(),
        vec![Value::ObjRef(ObjectId::from_raw(1))],
        CallOrigin::External,
    )
    .expect("starts");
    assert!(matches!(
        thread.run(&mut r, &natives(), &mut globals(), FUEL),
        RunOutcome::Suspended(_)
    ));
    assert_eq!(r.active_in("f"), 1);
    let err = thread.abort(&mut r, "component removal timed out");
    assert!(matches!(err, VmError::Aborted(_)));
    assert_eq!(thread.status(), ThreadStatus::Done);
    assert!(r.all_idle());
}

#[test]
fn fuel_exhaustion_faults() {
    let mut r = StaticResolver::new();
    // infinite loop
    let mut b = FunctionBuilder::parse("spin() -> unit").expect("signature");
    let top = b.new_label();
    b.bind(top).jump(top);
    r.insert(b.build().expect("valid"), ComponentId::from_raw(1));
    let mut thread =
        VmThread::call(&mut r, &"spin".into(), vec![], CallOrigin::External).expect("starts");
    assert_eq!(
        thread.run(&mut r, &natives(), &mut globals(), 1_000),
        RunOutcome::Faulted(VmError::FuelExhausted)
    );
}

#[test]
fn call_depth_limit_faults() {
    let mut r = StaticResolver::new();
    // f() = f()  — unbounded recursion
    let code = FunctionBuilder::parse("f() -> unit")
        .expect("signature")
        .call_dyn("f", 0)
        .ret()
        .build()
        .expect("valid");
    r.insert(code, ComponentId::from_raw(1));
    let mut thread =
        VmThread::call(&mut r, &"f".into(), vec![], CallOrigin::External).expect("starts");
    assert_eq!(
        thread.run(&mut r, &natives(), &mut globals(), FUEL),
        RunOutcome::Faulted(VmError::CallDepthExceeded(dcdo_vm::MAX_CALL_DEPTH))
    );
}

#[test]
fn arity_and_type_errors_fail_fast() {
    let mut r = StaticResolver::new();
    let code = FunctionBuilder::parse("pair(int, str) -> list")
        .expect("signature")
        .load_arg(0)
        .load_arg(1)
        .make_list(2)
        .ret()
        .build()
        .expect("valid");
    r.insert(code, ComponentId::from_raw(1));
    // Wrong arity.
    let err = VmThread::call(
        &mut r,
        &"pair".into(),
        vec![Value::Int(1)],
        CallOrigin::External,
    )
    .unwrap_err();
    assert!(matches!(
        err,
        VmError::ArityMismatch {
            expected: 2,
            found: 1,
            ..
        }
    ));
    // Wrong type.
    let err = VmThread::call(
        &mut r,
        &"pair".into(),
        vec![Value::str("x"), Value::str("y")],
        CallOrigin::External,
    )
    .unwrap_err();
    assert!(matches!(err, VmError::ArgumentType { position: 0, .. }));
}

#[test]
fn return_type_is_checked() {
    let mut r = StaticResolver::new();
    let code = FunctionBuilder::parse("lie() -> int")
        .expect("signature")
        .push("not an int")
        .ret()
        .build()
        .expect("valid");
    r.insert(code, ComponentId::from_raw(1));
    let mut thread =
        VmThread::call(&mut r, &"lie".into(), vec![], CallOrigin::External).expect("starts");
    assert!(matches!(
        thread.run(&mut r, &natives(), &mut globals(), FUEL),
        RunOutcome::Faulted(VmError::ReturnType { .. })
    ));
}

#[test]
fn divide_by_zero_faults() {
    let mut r = StaticResolver::new();
    let code = FunctionBuilder::parse("div(int, int) -> int")
        .expect("signature")
        .load_arg(0)
        .load_arg(1)
        .div()
        .ret()
        .build()
        .expect("valid");
    r.insert(code, ComponentId::from_raw(1));
    let mut thread = VmThread::call(
        &mut r,
        &"div".into(),
        vec![Value::Int(1), Value::Int(0)],
        CallOrigin::External,
    )
    .expect("starts");
    assert_eq!(
        thread.run(&mut r, &natives(), &mut globals(), FUEL),
        RunOutcome::Faulted(VmError::DivideByZero)
    );
}

#[test]
fn implicit_return_of_unit() {
    let mut r = StaticResolver::new();
    let code = CodeBlock::new("noop() -> unit".parse().expect("signature"), 0, vec![]);
    r.insert(code, ComponentId::from_raw(1));
    assert_eq!(run_to_completion(&mut r, "noop", vec![]), Value::Unit);
}

#[test]
fn work_instruction_accumulates_compute_time() {
    let mut r = StaticResolver::new();
    let code = FunctionBuilder::parse("busy() -> unit")
        .expect("signature")
        .work(5_000)
        .work(7_000)
        .ret()
        .build()
        .expect("valid");
    r.insert(code, ComponentId::from_raw(1));
    let mut thread =
        VmThread::call(&mut r, &"busy".into(), vec![], CallOrigin::External).expect("starts");
    assert!(matches!(
        thread.run(&mut r, &natives(), &mut globals(), FUEL),
        RunOutcome::Completed(Value::Unit)
    ));
    assert_eq!(thread.take_consumed_nanos(), 12_000);
    assert_eq!(thread.take_consumed_nanos(), 0, "drained");
}

#[test]
fn dispatch_cost_is_charged_per_dynamic_call() {
    let mut r = StaticResolver::new().with_dispatch_cost_nanos(10_000);
    let helper = FunctionBuilder::parse("helper() -> unit")
        .expect("signature")
        .ret()
        .build()
        .expect("valid");
    let code = FunctionBuilder::parse("f() -> unit")
        .expect("signature")
        .call_dyn("helper", 0)
        .pop()
        .call_dyn("helper", 0)
        .pop()
        .ret()
        .build()
        .expect("valid");
    r.insert(helper, ComponentId::from_raw(1));
    r.insert(code, ComponentId::from_raw(1));
    let mut thread =
        VmThread::call(&mut r, &"f".into(), vec![], CallOrigin::External).expect("starts");
    assert!(matches!(
        thread.run(&mut r, &natives(), &mut globals(), FUEL),
        RunOutcome::Completed(_)
    ));
    // Root call + two dynamic calls = 3 dispatches.
    assert_eq!(thread.take_consumed_nanos(), 30_000);
}

#[test]
fn components_on_stack_reports_suspended_location() {
    let mut r = StaticResolver::new();
    let code = FunctionBuilder::parse("f(objref) -> unit")
        .expect("signature")
        .load_arg(0)
        .call_remote("g", 0)
        .pop()
        .ret()
        .build()
        .expect("valid");
    r.insert(code, ComponentId::from_raw(42));
    let mut thread = VmThread::call(
        &mut r,
        &"f".into(),
        vec![Value::ObjRef(ObjectId::from_raw(1))],
        CallOrigin::External,
    )
    .expect("starts");
    assert!(matches!(
        thread.run(&mut r, &natives(), &mut globals(), FUEL),
        RunOutcome::Suspended(_)
    ));
    assert_eq!(
        thread.components_on_stack(),
        vec![ComponentId::from_raw(42)]
    );
    assert_eq!(thread.depth(), 1);
}

#[test]
fn helper_results_flow_between_frames() {
    let mut r = StaticResolver::new();
    let double = FunctionBuilder::parse("double(int) -> int")
        .expect("signature")
        .load_arg(0)
        .push_int(2)
        .mul()
        .ret()
        .build()
        .expect("valid");
    let quad = FunctionBuilder::parse("quad(int) -> int")
        .expect("signature")
        .load_arg(0)
        .call_dyn("double", 1)
        .call_dyn("double", 1)
        .ret()
        .build()
        .expect("valid");
    r.insert(double, ComponentId::from_raw(1));
    r.insert(quad, ComponentId::from_raw(2));
    assert_eq!(
        run_to_completion(&mut r, "quad", vec![Value::Int(5)]),
        Value::Int(20)
    );
}

#[test]
fn string_operations() {
    let mut r = StaticResolver::new();
    let code = FunctionBuilder::parse("greet(str) -> str")
        .expect("signature")
        .push("hello, ")
        .load_arg(0)
        .instr(dcdo_vm::Instr::StrConcat)
        .ret()
        .build()
        .expect("valid");
    r.insert(code, ComponentId::from_raw(1));
    assert_eq!(
        run_to_completion(&mut r, "greet", vec![Value::str("world")]),
        Value::str("hello, world")
    );
}
