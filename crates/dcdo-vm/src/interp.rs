//! The resumable interpreter.
//!
//! A [`VmThread`] models one Legion thread executing inside an object. It
//! runs bytecode until it completes, faults, or *suspends* at a remote
//! outcall ([`Instr::CallRemote`](crate::Instr::CallRemote)); a suspended
//! thread's entire state — call frames, operand stacks, locals — is parked
//! inside the `VmThread` and resumes when the owner delivers the reply. This
//! is exactly the "thread blocked on an outcall" state in which the paper's
//! disappearing function and disappearing component problems arise (§3.1):
//! configuration operations execute between suspension and resumption, and
//! when the thread wakes it may find the function or component it needs gone.
//!
//! All intra-object calls resolve through the owner's [`CallResolver`] at
//! call time, and entry/exit of every frame is reported to the resolver — by
//! the resolved call's activity index, carried in the frame — so a DFM can
//! maintain the per-implementation active-thread counters used for thread
//! activity monitoring (§3.2).
//!
//! # Dispatch
//!
//! Execution runs over the resolver's pre-decoded
//! [`DecodedCode`](crate::DecodedCode) stream: a direct-threaded loop whose
//! inner hot path holds the current frame's fields and the fuel in locals,
//! never touches the code `Rc`'s refcount per activation, and dispatches
//! merged opcodes — including the superinstructions the decode-time peephole
//! selector fused. Fuel and profiling are charged **per original opcode, in
//! original program order**, inside every superinstruction, so the
//! profiler's accounting and all fault ordering are bit-identical to unfused
//! execution.
//!
//! The original single-step interpreter is retained as the *legacy stepper*
//! ([`VmThread::set_legacy_stepper`]): it walks the undecoded instruction
//! stream one `step()` at a time and serves as the differential oracle for
//! the threaded path (and as the "before" build for benchmarks).

use std::fmt;
use std::rc::Rc;

use dcdo_types::{ComponentId, FunctionName, ObjectId, TypeTag};

use crate::decoded::{ArithKind, DecodedCode, DecodedOp, Operand};
use crate::error::VmError;
use crate::instr::Instr;
use crate::native::NativeRegistry;
use crate::profile::{ThreadProfile, VmProfile};
use crate::resolver::{CallOrigin, CallResolver, CallToken, ResolveError, ResolvedCall};
use crate::store::ValueStore;
use crate::value::Value;

/// Maximum call-stack depth.
pub const MAX_CALL_DEPTH: usize = 128;

/// One call frame of a running thread.
#[derive(Debug, Clone)]
struct Frame {
    code: Rc<crate::decoded::DecodedCode>,
    component: ComponentId,
    /// The resolver's activity index for this implementation, handed back
    /// to [`CallResolver::exit`] when the frame pops.
    activity: u32,
    pc: usize,
    args: Vec<Value>,
    locals: Vec<Value>,
    stack: Vec<Value>,
    /// Per-call-site inline-cache slots, indexed by the decoded `CallDyn`
    /// op's `site`: each slot holds the generation-stamped [`CallToken`]
    /// that exact site last redeemed (plus, for leaf-shaped callees, the
    /// pre-extracted leaf summary). Sized from the decode (empty for
    /// call-free code), so the threaded path never hashes to find its
    /// cache entry.
    sites: Vec<SiteState>,
}

/// One call site's inline-cache state.
#[derive(Debug, Clone, Default)]
struct SiteState {
    /// The generation-stamped token this site last redeemed.
    token: Option<CallToken>,
    /// Pre-extracted summary of a leaf-shaped callee (whole body one fused
    /// arith-return, no locals), valid exactly as long as `leaf.token`'s
    /// generation still matches the resolver's.
    leaf: Option<LeafCall>,
}

/// Everything the inline leaf-call path needs, extracted once per
/// (site, configuration generation) so steady-state leaf calls skip the
/// slot-table fetch, the callee-shape inspection, and the full
/// argument-check walk.
#[derive(Debug, Clone)]
struct LeafCall {
    token: CallToken,
    a: Operand,
    b: Operand,
    op: ArithKind,
    activity: u32,
    param: TypeTag,
    ret: TypeTag,
}

impl Frame {
    fn function(&self) -> &FunctionName {
        self.code.signature().name()
    }
}

/// Most buffers of each kind a thread keeps for reuse: one frame's worth
/// per call level.
const POOL_CAP: usize = MAX_CALL_DEPTH;

/// A thread's recycled frame buffers. Every frame's arguments, locals and
/// operand stack come from `values` and its call-site table from `sites`;
/// a popped frame hands them back cleared. With a host that restarts
/// finished threads ([`VmThread::restart`]), steady-state call/return
/// cycles allocate nothing.
#[derive(Debug, Default)]
struct FramePool {
    values: Vec<Vec<Value>>,
    sites: Vec<Vec<SiteState>>,
}

impl FramePool {
    fn values(&mut self) -> Vec<Value> {
        self.values.pop().unwrap_or_default()
    }

    fn frame(&mut self, resolved: ResolvedCall, args: Vec<Value>) -> Frame {
        let mut locals = Vec::new();
        if resolved.code.locals() > 0 {
            locals = self.values();
            locals.resize(resolved.code.locals() as usize, Value::Unit);
        }
        let mut sites = Vec::new();
        if resolved.code.call_sites() > 0 {
            sites = self.sites.pop().unwrap_or_default();
            sites.resize(resolved.code.call_sites(), SiteState::default());
        }
        Frame {
            code: resolved.code,
            component: resolved.component,
            activity: resolved.activity,
            pc: 0,
            args,
            locals,
            stack: self.values(),
            sites,
        }
    }

    /// Keeps a buffer that has capacity (an empty one costs nothing to
    /// make anew).
    fn recycle_values(&mut self, mut values: Vec<Value>) {
        if values.capacity() > 0 && self.values.len() < 3 * POOL_CAP {
            values.clear();
            self.values.push(values);
        }
    }

    fn recycle(&mut self, frame: Frame) {
        let Frame {
            args,
            locals,
            stack,
            mut sites,
            ..
        } = frame;
        self.recycle_values(args);
        self.recycle_values(locals);
        self.recycle_values(stack);
        if sites.capacity() > 0 && self.sites.len() < POOL_CAP {
            sites.clear();
            self.sites.push(sites);
        }
    }
}

/// A pending remote invocation produced by a suspended thread.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutcallRequest {
    /// The object to invoke.
    pub target: ObjectId,
    /// The exported function to invoke on the target.
    pub function: FunctionName,
    /// The arguments.
    pub args: Vec<Value>,
}

/// The observable status of a thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ThreadStatus {
    /// Ready to run (fresh or just resumed).
    Runnable,
    /// Parked at a remote outcall awaiting a reply.
    Suspended,
    /// Finished (completed or faulted); may not run again.
    #[default]
    Done,
}

/// The result of running a thread until it can run no further.
#[derive(Debug, Clone, PartialEq)]
pub enum RunOutcome {
    /// The root function returned this value.
    Completed(Value),
    /// The thread suspended at a remote outcall; deliver the reply with
    /// [`VmThread::resume`] (or abort with [`VmThread::resume_err`]) and run
    /// again.
    Suspended(OutcallRequest),
    /// The thread faulted; its frames have been unwound (the resolver saw
    /// matching exits for every enter).
    Faulted(VmError),
}

/// What the inner dispatch loop hands back to the frame-boundary handler.
enum FrameEvent {
    /// The current frame returned `value` (explicit `Ret` or fell off the
    /// end).
    Return(Value),
    /// A `CallDyn` resolved; push a frame for it.
    Call {
        resolved: ResolvedCall,
        args: Vec<Value>,
    },
    /// A `CallRemote` suspended the thread.
    Suspend(OutcallRequest),
    /// An instruction faulted.
    Fault(VmError),
}

/// A (possibly suspended) thread executing dynamic-function code.
///
/// A finished thread can be started again with [`VmThread::restart`],
/// which keeps its buffers: a host that recycles its finished threads
/// serves a call with no per-call allocation in the interpreter.
/// `VmThread::default()` is a finished thread with no buffers yet.
#[derive(Default)]
pub struct VmThread {
    frames: Vec<Frame>,
    status: ThreadStatus,
    consumed_nanos: u64,
    pending_resume: Option<Result<Value, VmError>>,
    /// Legacy-stepper inline cache: the callee name's identity key and the
    /// generation-stamped [`CallToken`] the resolver issued last time that
    /// site resolved, scanned linearly (a thread calls a handful of
    /// names). The threaded path uses the per-frame `sites` table instead.
    call_cache: Vec<(usize, CallToken)>,
    /// Opt-in cost attribution; off (the default) costs one predicted
    /// branch per retired instruction.
    profiling: bool,
    profile: ThreadProfile,
    /// Recycled frame buffers (arguments, locals, stacks, call-site tables).
    pool: FramePool,
    /// When set, runs the original single-step interpreter over the
    /// undecoded instruction stream — the differential oracle.
    legacy: bool,
    /// Original opcodes retired by this thread's threaded runs.
    total_retired: u64,
    /// The subset retired inside superinstructions.
    fused_retired: u64,
}

impl VmThread {
    /// Starts a thread by resolving and calling `function` with `args`.
    ///
    /// `origin` selects the visibility rule: [`CallOrigin::External`] for
    /// invocations arriving from other objects (only exported functions),
    /// [`CallOrigin::Internal`] for locally initiated work.
    ///
    /// # Errors
    ///
    /// Fails fast — without creating a thread — if resolution, arity, or
    /// argument types fail. The resolver's `enter` is called on success.
    pub fn call<R: CallResolver + ?Sized>(
        resolver: &mut R,
        function: &FunctionName,
        args: Vec<Value>,
        origin: CallOrigin,
    ) -> Result<VmThread, VmError> {
        let mut thread = VmThread::default();
        thread.restart(resolver, function, args, origin)?;
        Ok(thread)
    }

    /// Starts this finished thread over as a fresh [`VmThread::call`],
    /// keeping its buffers. Everything else — status, consumed time,
    /// retirement counts, inline caches, the stepper mode and profiling —
    /// starts as `call` would leave it.
    ///
    /// # Errors
    ///
    /// Fails exactly as [`VmThread::call`] does; the thread is then left
    /// finished (and still reusable).
    ///
    /// # Panics
    ///
    /// Panics if the thread is not finished.
    pub fn restart<R: CallResolver + ?Sized>(
        &mut self,
        resolver: &mut R,
        function: &FunctionName,
        args: Vec<Value>,
        origin: CallOrigin,
    ) -> Result<(), VmError> {
        assert_eq!(
            self.status,
            ThreadStatus::Done,
            "restart on a thread that has not finished"
        );
        debug_assert!(self.frames.is_empty(), "a finished thread has no frames");
        let resolved = resolve_checked(resolver, function, origin)?;
        check_args(&resolved.code, function, &args)?;
        self.status = ThreadStatus::Runnable;
        self.consumed_nanos = resolver.dispatch_cost_nanos();
        self.pending_resume = None;
        self.call_cache.clear();
        self.profiling = false;
        self.profile.clear();
        self.legacy = false;
        self.total_retired = 0;
        self.fused_retired = 0;
        resolver.enter(resolved.activity);
        let frame = self.pool.frame(resolved, args);
        self.frames.push(frame);
        Ok(())
    }

    /// Returns the thread's status.
    pub fn status(&self) -> ThreadStatus {
        self.status
    }

    /// Returns the current call depth.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Selects the legacy single-step interpreter (`true`) or the threaded
    /// dispatch loop (`false`, the default). The legacy stepper is kept as
    /// the differential-testing oracle and the benchmark "before" build.
    ///
    /// # Panics
    ///
    /// Panics if the thread has already started executing — the two modes
    /// interpret the saved program counter differently (original vs decoded
    /// indices), so the mode must be fixed before the first run.
    pub fn set_legacy_stepper(&mut self, legacy: bool) {
        assert!(
            self.frames.iter().all(|f| f.pc == 0 && f.stack.is_empty()),
            "stepper mode must be selected before the thread executes"
        );
        self.legacy = legacy;
    }

    /// `(total, fused)` original opcodes retired by this thread's threaded
    /// runs so far — what a host folds, run by run, into its world's
    /// [`VmTotals`](crate::VmTotals). The legacy stepper does not count (it
    /// retires nothing fused by definition).
    pub fn retired_counts(&self) -> (u64, u64) {
        (self.total_retired, self.fused_retired)
    }

    /// The components with at least one frame on this thread's stack.
    pub fn components_on_stack(&self) -> Vec<ComponentId> {
        let mut v: Vec<ComponentId> = self.frames.iter().map(|f| f.component).collect();
        v.sort();
        v.dedup();
        v
    }

    /// The functions with at least one frame on this thread's stack,
    /// innermost last.
    pub fn functions_on_stack(&self) -> Vec<FunctionName> {
        self.frames.iter().map(|f| f.function().clone()).collect()
    }

    /// Drains the simulated compute time accumulated since the last call
    /// (from `Work` instructions and dispatch costs).
    pub fn take_consumed_nanos(&mut self) -> u64 {
        std::mem::take(&mut self.consumed_nanos)
    }

    /// Turns on cost attribution for this thread: per-function call /
    /// instruction / `Work`-nanosecond counters plus a per-opcode aggregate.
    ///
    /// Frames already on the stack (typically just the root, when called
    /// right after [`VmThread::call`]) are counted as entered. Idempotent —
    /// enabling twice keeps the existing counters.
    pub fn enable_profiling(&mut self) {
        if self.profiling {
            return;
        }
        self.profiling = true;
        for frame in &self.frames {
            self.profile.enter(frame.function());
        }
    }

    /// Returns `true` if cost attribution is on.
    pub fn is_profiling(&self) -> bool {
        self.profiling
    }

    /// The accumulated cost report, borrowed in place, or `None` if
    /// profiling was never enabled. It stays readable after the thread
    /// finishes, until the thread is restarted.
    pub fn profile(&self) -> Option<&VmProfile> {
        self.profiling.then(|| self.profile.report())
    }

    /// Delivers the reply for the outcall this thread is suspended on.
    ///
    /// # Panics
    ///
    /// Panics if the thread is not suspended.
    pub fn resume(&mut self, value: Value) {
        assert_eq!(
            self.status,
            ThreadStatus::Suspended,
            "resume on a thread that is not suspended"
        );
        self.pending_resume = Some(Ok(value));
        self.status = ThreadStatus::Runnable;
    }

    /// Delivers a failure for the outcall this thread is suspended on; the
    /// next run faults the thread with the error (after unwinding).
    ///
    /// # Panics
    ///
    /// Panics if the thread is not suspended.
    pub fn resume_err(&mut self, error: VmError) {
        assert_eq!(
            self.status,
            ThreadStatus::Suspended,
            "resume_err on a thread that is not suspended"
        );
        self.pending_resume = Some(Err(error));
        self.status = ThreadStatus::Runnable;
    }

    /// Aborts the thread, unwinding all frames (reporting exits to the
    /// resolver). Used when an owner forcibly removes a component with the
    /// time-out policy of §3.2.
    pub fn abort<R: CallResolver + ?Sized>(&mut self, resolver: &mut R, reason: &str) -> VmError {
        let err = VmError::Aborted(reason.to_owned());
        self.unwind(resolver);
        self.status = ThreadStatus::Done;
        err
    }

    fn unwind<R: CallResolver + ?Sized>(&mut self, resolver: &mut R) {
        while let Some(frame) = self.frames.pop() {
            resolver.exit(frame.activity);
            if self.profiling {
                self.profile.exit();
            }
            self.pool.recycle(frame);
        }
    }

    /// Runs the thread until it completes, suspends, or faults, executing at
    /// most `fuel` instructions. `globals` is the owning object's persistent
    /// state, read and written by `GlobalGet`/`GlobalSet`.
    ///
    /// # Panics
    ///
    /// Panics if the thread is suspended (deliver the reply first) or done.
    pub fn run<R: CallResolver + ?Sized>(
        &mut self,
        resolver: &mut R,
        natives: &NativeRegistry,
        globals: &mut ValueStore,
        fuel: u64,
    ) -> RunOutcome {
        assert_eq!(
            self.status,
            ThreadStatus::Runnable,
            "run on a thread that is not runnable"
        );
        if let Some(pending) = self.pending_resume.take() {
            match pending {
                Ok(value) => {
                    let frame = self.frames.last_mut().expect("suspended thread has frames");
                    frame.stack.push(value);
                }
                Err(err) => return self.fault(resolver, err),
            }
        }
        if self.legacy {
            self.run_legacy(resolver, natives, globals, fuel)
        } else {
            self.run_threaded(resolver, natives, globals, fuel)
        }
    }

    /// The direct-threaded dispatch loop. The inner loop executes one frame
    /// with the frame's fields, fuel, and retirement counters held in
    /// locals; frame boundaries (call, return, suspend, fault) break out to
    /// the outer loop, which is the only place the frame stack changes.
    fn run_threaded<R: CallResolver + ?Sized>(
        &mut self,
        resolver: &mut R,
        natives: &NativeRegistry,
        globals: &mut ValueStore,
        fuel: u64,
    ) -> RunOutcome {
        let mut remaining = fuel;
        let mut retired: u64 = 0;
        let mut fused: u64 = 0;
        let outcome = 'thread: loop {
            // Disjoint field borrows: the current frame's fields (split so
            // the ops slice can be borrowed while the stack and locals are
            // mutated — no `Rc` refcount traffic per activation), the
            // profile, and the consumed-nanos accumulator are all live
            // across the inner loop.
            let depth = self.frames.len();
            let profiling = self.profiling;
            let profile = &mut self.profile;
            let consumed_nanos = &mut self.consumed_nanos;
            let pool = &mut self.pool;
            let Frame {
                code,
                component: _,
                activity: _,
                pc,
                args: frame_args,
                locals,
                stack,
                sites,
            } = self.frames.last_mut().expect("running thread has frames");
            let ops = code.ops();

            let event = 'ops: loop {
                /// Breaks the dispatch loop with a fault.
                macro_rules! fault {
                    ($e:expr) => {
                        break 'ops FrameEvent::Fault($e)
                    };
                }
                /// Unwraps a `Result` or faults.
                macro_rules! tr {
                    ($e:expr) => {
                        match $e {
                            Ok(v) => v,
                            Err(e) => fault!(e),
                        }
                    };
                }
                /// Charges fuel and profiling for one original opcode —
                /// exactly the legacy order: fuel check, decrement, then
                /// the profiling hook, then execution. Superinstructions
                /// invoke this once per constituent.
                macro_rules! charge {
                    ($opc:expr, $work:expr, $in_fused:expr) => {{
                        if remaining == 0 {
                            fault!(VmError::FuelExhausted);
                        }
                        remaining -= 1;
                        retired += 1;
                        if $in_fused {
                            fused += 1;
                        }
                        if profiling {
                            profile.instruction($opc, $work);
                        }
                    }};
                }
                /// `tr!` for a superinstruction's bulk-charged fast path:
                /// on a fault, refunds the constituents the legacy order
                /// would not yet have charged, so retirement counts match
                /// per-constituent execution exactly even on faulting
                /// programs.
                macro_rules! trf {
                    ($e:expr, $undo:expr) => {
                        match $e {
                            Ok(v) => v,
                            Err(e) => {
                                retired -= $undo;
                                fused -= $undo;
                                fault!(e)
                            }
                        }
                    };
                }

                let cur = *pc;
                let Some(op) = ops.get(cur) else {
                    // Implicit unit return when execution falls off the
                    // end: consumes one fuel unit (the legacy run loop
                    // charges before stepping) but retires no instruction.
                    if remaining == 0 {
                        fault!(VmError::FuelExhausted);
                    }
                    remaining -= 1;
                    break 'ops FrameEvent::Return(Value::Unit);
                };
                *pc = cur + 1;
                match op {
                    DecodedOp::Push(v) => {
                        charge!(0, 0, false);
                        stack.push(v.clone());
                    }
                    DecodedOp::Pop => {
                        charge!(1, 0, false);
                        tr!(pop(stack));
                    }
                    DecodedOp::Dup => {
                        charge!(2, 0, false);
                        let v = tr!(stack.last().cloned().ok_or(VmError::StackUnderflow));
                        stack.push(v);
                    }
                    DecodedOp::Swap => {
                        charge!(3, 0, false);
                        let b = tr!(pop(stack));
                        let a = tr!(pop(stack));
                        stack.push(b);
                        stack.push(a);
                    }
                    DecodedOp::LoadArg(n) => {
                        charge!(4, 0, false);
                        let v = tr!(frame_args
                            .get(*n as usize)
                            .cloned()
                            .ok_or(VmError::StackUnderflow));
                        stack.push(v);
                    }
                    DecodedOp::LoadLocal(n) => {
                        charge!(5, 0, false);
                        let v = tr!(locals
                            .get(*n as usize)
                            .cloned()
                            .ok_or(VmError::StackUnderflow));
                        stack.push(v);
                    }
                    DecodedOp::StoreLocal(n) => {
                        charge!(6, 0, false);
                        let v = tr!(pop(stack));
                        let slot = tr!(locals.get_mut(*n as usize).ok_or(VmError::StackUnderflow));
                        *slot = v;
                    }
                    DecodedOp::Add => {
                        charge!(7, 0, false);
                        tr!(int_binop(stack, |a, b| Ok(a.wrapping_add(b))));
                    }
                    DecodedOp::Sub => {
                        charge!(8, 0, false);
                        tr!(int_binop(stack, |a, b| Ok(a.wrapping_sub(b))));
                    }
                    DecodedOp::Mul => {
                        charge!(9, 0, false);
                        tr!(int_binop(stack, |a, b| Ok(a.wrapping_mul(b))));
                    }
                    DecodedOp::Div => {
                        charge!(10, 0, false);
                        tr!(int_binop(stack, |a, b| {
                            if b == 0 {
                                Err(VmError::DivideByZero)
                            } else {
                                Ok(a.wrapping_div(b))
                            }
                        }));
                    }
                    DecodedOp::Rem => {
                        charge!(11, 0, false);
                        tr!(int_binop(stack, |a, b| {
                            if b == 0 {
                                Err(VmError::DivideByZero)
                            } else {
                                Ok(a.wrapping_rem(b))
                            }
                        }));
                    }
                    DecodedOp::Neg => {
                        charge!(12, 0, false);
                        let a = tr!(pop_int(stack));
                        stack.push(Value::Int(a.wrapping_neg()));
                    }
                    DecodedOp::Not => {
                        charge!(13, 0, false);
                        let a = tr!(pop_bool(stack));
                        stack.push(Value::Bool(!a));
                    }
                    DecodedOp::And => {
                        charge!(14, 0, false);
                        let b = tr!(pop_bool(stack));
                        let a = tr!(pop_bool(stack));
                        stack.push(Value::Bool(a && b));
                    }
                    DecodedOp::Or => {
                        charge!(15, 0, false);
                        let b = tr!(pop_bool(stack));
                        let a = tr!(pop_bool(stack));
                        stack.push(Value::Bool(a || b));
                    }
                    DecodedOp::Eq => {
                        charge!(16, 0, false);
                        let b = tr!(pop(stack));
                        let a = tr!(pop(stack));
                        stack.push(Value::Bool(a == b));
                    }
                    DecodedOp::Ne => {
                        charge!(17, 0, false);
                        let b = tr!(pop(stack));
                        let a = tr!(pop(stack));
                        stack.push(Value::Bool(a != b));
                    }
                    DecodedOp::Lt => {
                        charge!(18, 0, false);
                        tr!(int_cmp(stack, |a, b| a < b));
                    }
                    DecodedOp::Le => {
                        charge!(19, 0, false);
                        tr!(int_cmp(stack, |a, b| a <= b));
                    }
                    DecodedOp::Gt => {
                        charge!(20, 0, false);
                        tr!(int_cmp(stack, |a, b| a > b));
                    }
                    DecodedOp::Ge => {
                        charge!(21, 0, false);
                        tr!(int_cmp(stack, |a, b| a >= b));
                    }
                    DecodedOp::Jump(t) => {
                        charge!(22, 0, false);
                        *pc = *t as usize;
                    }
                    DecodedOp::JumpIfFalse(t) => {
                        charge!(23, 0, false);
                        if !tr!(pop_bool(stack)) {
                            *pc = *t as usize;
                        }
                    }
                    DecodedOp::JumpIfTrue(t) => {
                        charge!(24, 0, false);
                        if tr!(pop_bool(stack)) {
                            *pc = *t as usize;
                        }
                    }
                    DecodedOp::CallDyn {
                        function,
                        argc,
                        site,
                    } => {
                        charge!(25, 0, false);
                        if depth >= MAX_CALL_DEPTH {
                            fault!(VmError::CallDepthExceeded(MAX_CALL_DEPTH));
                        }
                        let n = *argc as usize;
                        if stack.len() < n {
                            fault!(VmError::StackUnderflow);
                        }
                        let mut args = pool.values();
                        let at = stack.len() - n;
                        args.extend(stack.drain(at..));
                        // Inline cache: redeem the token this exact call
                        // site cached, if the resolver's configuration
                        // generation still matches.
                        let cached = sites[*site as usize].token;
                        let resolved = match cached.and_then(|token| resolver.resolve_token(token))
                        {
                            Some(resolved) => resolved,
                            None => {
                                let (resolved, token) = tr!(resolve_with_token_checked(
                                    resolver,
                                    function,
                                    CallOrigin::Internal
                                ));
                                sites[*site as usize].token = token;
                                resolved
                            }
                        };
                        tr!(check_args(&resolved.code, function, &args));
                        *consumed_nanos += resolver.dispatch_cost_nanos();
                        resolver.enter(resolved.activity);
                        if profiling {
                            profile.enter(function);
                        }
                        break 'ops FrameEvent::Call { resolved, args };
                    }
                    DecodedOp::CallNative { function, argc } => {
                        charge!(26, 0, false);
                        let args = tr!(pop_n(stack, *argc as usize));
                        let result = tr!(natives.call(function, &args));
                        stack.push(result);
                    }
                    DecodedOp::CallRemote { function, argc } => {
                        charge!(27, 0, false);
                        let args = tr!(pop_n(stack, *argc as usize));
                        let target = tr!(pop(stack));
                        let Some(target) = target.as_obj_ref() else {
                            fault!(VmError::TypeMismatch {
                                expected: TypeTag::ObjRef,
                                found: target.type_tag(),
                            });
                        };
                        break 'ops FrameEvent::Suspend(OutcallRequest {
                            target,
                            function: function.clone(),
                            args,
                        });
                    }
                    DecodedOp::Ret => {
                        charge!(28, 0, false);
                        let value = stack.pop().unwrap_or(Value::Unit);
                        break 'ops FrameEvent::Return(value);
                    }
                    DecodedOp::MakeList(n) => {
                        charge!(29, 0, false);
                        let items = tr!(pop_n(stack, *n as usize));
                        stack.push(Value::List(items));
                    }
                    DecodedOp::ListGet => {
                        charge!(30, 0, false);
                        let index = tr!(pop_int(stack));
                        let list = tr!(pop_list(stack));
                        let item = tr!(usize::try_from(index)
                            .ok()
                            .and_then(|i| list.get(i).cloned())
                            .ok_or(VmError::IndexOutOfRange {
                                index,
                                len: list.len(),
                            }));
                        stack.push(item);
                    }
                    DecodedOp::ListSet => {
                        charge!(31, 0, false);
                        let value = tr!(pop(stack));
                        let index = tr!(pop_int(stack));
                        let mut list = tr!(pop_list(stack));
                        let len = list.len();
                        let slot = tr!(usize::try_from(index)
                            .ok()
                            .and_then(|i| list.get_mut(i))
                            .ok_or(VmError::IndexOutOfRange { index, len }));
                        *slot = value;
                        stack.push(Value::List(list));
                    }
                    DecodedOp::ListLen => {
                        charge!(32, 0, false);
                        let list = tr!(pop_list(stack));
                        stack.push(Value::Int(list.len() as i64));
                    }
                    DecodedOp::ListPush => {
                        charge!(33, 0, false);
                        let value = tr!(pop(stack));
                        let mut list = tr!(pop_list(stack));
                        list.push(value);
                        stack.push(Value::List(list));
                    }
                    DecodedOp::StrConcat => {
                        charge!(34, 0, false);
                        let b = tr!(pop_str(stack));
                        let a = tr!(pop_str(stack));
                        stack.push(Value::str(format!("{a}{b}")));
                    }
                    DecodedOp::StrLen => {
                        charge!(35, 0, false);
                        let s = tr!(pop_str(stack));
                        stack.push(Value::Int(s.len() as i64));
                    }
                    DecodedOp::Work(nanos) => {
                        // Folded into the dispatch table: the work amount
                        // reaches the profiler through the hook argument,
                        // with no pre-dispatch branch on the hot path.
                        charge!(36, *nanos, false);
                        *consumed_nanos += *nanos;
                    }
                    DecodedOp::GlobalGet(key) => {
                        charge!(37, 0, false);
                        stack.push(globals.get(key.as_str()));
                    }
                    DecodedOp::GlobalSet(key) => {
                        charge!(38, 0, false);
                        let v = tr!(pop(stack));
                        globals.assign(key.as_str(), v);
                    }
                    // ---- superinstructions. With profiling off and ample
                    // fuel, the whole fused op charges in one bulk update
                    // (fault paths refund via `trf!` so retirement stays
                    // exact). Near the fuel boundary or with profiling on,
                    // the per-constituent path charges fuel and fires the
                    // profiling hook for each original opcode in program
                    // order, so fuel exhaustion and per-opcode accounting
                    // land on exactly the constituent the unfused program
                    // would have reached.
                    DecodedOp::BinBr {
                        a,
                        b,
                        cmp,
                        when,
                        target,
                    } => {
                        if !profiling && remaining >= 4 {
                            remaining -= 4;
                            retired += 4;
                            fused += 4;
                            let va = trf!(fetch(locals, frame_args, a), 3);
                            let vb = trf!(fetch(locals, frame_args, b), 2);
                            let flag = trf!(cmp.eval(&va, &vb), 1);
                            if flag == *when {
                                *pc = *target as usize;
                            }
                        } else {
                            charge!(a.opcode(), 0, true);
                            let va = tr!(fetch(locals, frame_args, a));
                            charge!(b.opcode(), 0, true);
                            let vb = tr!(fetch(locals, frame_args, b));
                            charge!(cmp.opcode(), 0, true);
                            let flag = tr!(cmp.eval(&va, &vb));
                            charge!(if *when { 24 } else { 23 }, 0, true);
                            if flag == *when {
                                *pc = *target as usize;
                            }
                        }
                    }
                    DecodedOp::BinStore { a, b, op, dst } => {
                        if !profiling && remaining >= 4 {
                            remaining -= 4;
                            retired += 4;
                            fused += 4;
                            let va = trf!(fetch(locals, frame_args, a), 3);
                            let vb = trf!(fetch(locals, frame_args, b), 2);
                            let r = trf!(op.eval(&va, &vb), 1);
                            let slot = trf!(
                                locals.get_mut(*dst as usize).ok_or(VmError::StackUnderflow),
                                0
                            );
                            *slot = Value::Int(r);
                        } else {
                            charge!(a.opcode(), 0, true);
                            let va = tr!(fetch(locals, frame_args, a));
                            charge!(b.opcode(), 0, true);
                            let vb = tr!(fetch(locals, frame_args, b));
                            charge!(op.opcode(), 0, true);
                            let r = tr!(op.eval(&va, &vb));
                            charge!(6, 0, true);
                            let slot =
                                tr!(locals.get_mut(*dst as usize).ok_or(VmError::StackUnderflow));
                            *slot = Value::Int(r);
                        }
                    }
                    DecodedOp::BinStoreJmp {
                        a,
                        b,
                        op,
                        dst,
                        target,
                    } => {
                        if !profiling && remaining >= 5 {
                            remaining -= 5;
                            retired += 5;
                            fused += 5;
                            let va = trf!(fetch(locals, frame_args, a), 4);
                            let vb = trf!(fetch(locals, frame_args, b), 3);
                            let r = trf!(op.eval(&va, &vb), 2);
                            let slot = trf!(
                                locals.get_mut(*dst as usize).ok_or(VmError::StackUnderflow),
                                1
                            );
                            *slot = Value::Int(r);
                            *pc = *target as usize;
                        } else {
                            charge!(a.opcode(), 0, true);
                            let va = tr!(fetch(locals, frame_args, a));
                            charge!(b.opcode(), 0, true);
                            let vb = tr!(fetch(locals, frame_args, b));
                            charge!(op.opcode(), 0, true);
                            let r = tr!(op.eval(&va, &vb));
                            charge!(6, 0, true);
                            let slot =
                                tr!(locals.get_mut(*dst as usize).ok_or(VmError::StackUnderflow));
                            *slot = Value::Int(r);
                            charge!(22, 0, true);
                            *pc = *target as usize;
                        }
                    }
                    DecodedOp::BinRet { a, b, op } => {
                        if !profiling && remaining >= 4 {
                            remaining -= 4;
                            retired += 4;
                            fused += 4;
                            let va = trf!(fetch(locals, frame_args, a), 3);
                            let vb = trf!(fetch(locals, frame_args, b), 2);
                            let r = trf!(op.eval(&va, &vb), 1);
                            break 'ops FrameEvent::Return(Value::Int(r));
                        } else {
                            charge!(a.opcode(), 0, true);
                            let va = tr!(fetch(locals, frame_args, a));
                            charge!(b.opcode(), 0, true);
                            let vb = tr!(fetch(locals, frame_args, b));
                            charge!(op.opcode(), 0, true);
                            let r = tr!(op.eval(&va, &vb));
                            charge!(28, 0, true);
                            break 'ops FrameEvent::Return(Value::Int(r));
                        }
                    }
                    DecodedOp::BinPush { a, b, op } => {
                        if !profiling && remaining >= 3 {
                            remaining -= 3;
                            retired += 3;
                            fused += 3;
                            let va = trf!(fetch(locals, frame_args, a), 2);
                            let vb = trf!(fetch(locals, frame_args, b), 1);
                            let r = trf!(op.eval(&va, &vb), 0);
                            stack.push(Value::Int(r));
                        } else {
                            charge!(a.opcode(), 0, true);
                            let va = tr!(fetch(locals, frame_args, a));
                            charge!(b.opcode(), 0, true);
                            let vb = tr!(fetch(locals, frame_args, b));
                            charge!(op.opcode(), 0, true);
                            let r = tr!(op.eval(&va, &vb));
                            stack.push(Value::Int(r));
                        }
                    }
                    DecodedOp::OpStore { src, dst } => {
                        if !profiling && remaining >= 2 {
                            remaining -= 2;
                            retired += 2;
                            fused += 2;
                            let v = trf!(fetch(locals, frame_args, src), 1);
                            let slot = trf!(
                                locals.get_mut(*dst as usize).ok_or(VmError::StackUnderflow),
                                0
                            );
                            *slot = v;
                        } else {
                            charge!(src.opcode(), 0, true);
                            let v = tr!(fetch(locals, frame_args, src));
                            charge!(6, 0, true);
                            let slot =
                                tr!(locals.get_mut(*dst as usize).ok_or(VmError::StackUnderflow));
                            *slot = v;
                        }
                    }
                    DecodedOp::OpRet { src } => {
                        if !profiling && remaining >= 2 {
                            remaining -= 2;
                            retired += 2;
                            fused += 2;
                            let v = trf!(fetch(locals, frame_args, src), 1);
                            break 'ops FrameEvent::Return(v);
                        } else {
                            charge!(src.opcode(), 0, true);
                            let v = tr!(fetch(locals, frame_args, src));
                            charge!(28, 0, true);
                            break 'ops FrameEvent::Return(v);
                        }
                    }
                    DecodedOp::CallDyn1 {
                        arg,
                        function,
                        site,
                    } => {
                        // [operand, call_dyn f/1]: the argument reads
                        // straight from a local/arg/constant, skipping the
                        // operand-stack round trip of the unfused pair.
                        let v;
                        if !profiling && remaining >= 2 {
                            remaining -= 2;
                            retired += 2;
                            fused += 2;
                            v = trf!(fetch(locals, frame_args, arg), 1);
                        } else {
                            charge!(arg.opcode(), 0, true);
                            v = tr!(fetch(locals, frame_args, arg));
                            charge!(25, 0, true);
                        }
                        if depth >= MAX_CALL_DEPTH {
                            fault!(VmError::CallDepthExceeded(MAX_CALL_DEPTH));
                        }
                        let slot = &mut sites[*site as usize];
                        // Steady-state leaf fast path: this exact site
                        // already proved (at the current configuration
                        // generation) that its callee is one fused
                        // arith-return with no locals. A cheap generation
                        // revalidation — counted by the resolver exactly
                        // like a full redemption — then licenses executing
                        // the callee inline: no slot-table fetch, no frame
                        // push/pop. Fuel, retirement, the enter/exit pair,
                        // and every fault match the framed execution
                        // bit-for-bit.
                        if !profiling && remaining >= 4 {
                            let mut stale = false;
                            if let Some(leaf) = &slot.leaf {
                                if resolver.revalidate_token(leaf.token) {
                                    if !leaf.param.accepts(v.type_tag()) {
                                        fault!(VmError::ArgumentType {
                                            function: function.clone(),
                                            position: 0,
                                            expected: leaf.param,
                                            found: v.type_tag(),
                                        });
                                    }
                                    *consumed_nanos += resolver.dispatch_cost_nanos();
                                    resolver.enter(leaf.activity);
                                    remaining -= 4;
                                    retired += 4;
                                    fused += 4;
                                    let largs = std::slice::from_ref(&v);
                                    let va = match fetch(&[], largs, &leaf.a) {
                                        Ok(x) => x,
                                        Err(e) => {
                                            retired -= 3;
                                            fused -= 3;
                                            resolver.exit(leaf.activity);
                                            fault!(e);
                                        }
                                    };
                                    let vb = match fetch(&[], largs, &leaf.b) {
                                        Ok(x) => x,
                                        Err(e) => {
                                            retired -= 2;
                                            fused -= 2;
                                            resolver.exit(leaf.activity);
                                            fault!(e);
                                        }
                                    };
                                    let r = match leaf.op.eval(&va, &vb) {
                                        Ok(x) => x,
                                        Err(e) => {
                                            retired -= 1;
                                            fused -= 1;
                                            resolver.exit(leaf.activity);
                                            fault!(e);
                                        }
                                    };
                                    resolver.exit(leaf.activity);
                                    if !leaf.ret.accepts(TypeTag::Int) {
                                        fault!(VmError::ReturnType {
                                            function: function.clone(),
                                            expected: leaf.ret,
                                            found: TypeTag::Int,
                                        });
                                    }
                                    stack.push(Value::Int(r));
                                    continue 'ops;
                                }
                                stale = true;
                            }
                            if stale {
                                slot.leaf = None;
                            }
                        }
                        let resolved =
                            match slot.token.and_then(|token| resolver.resolve_token(token)) {
                                Some(resolved) => resolved,
                                None => {
                                    let (resolved, token) = tr!(resolve_with_token_checked(
                                        resolver,
                                        function,
                                        CallOrigin::Internal
                                    ));
                                    slot.token = token;
                                    resolved
                                }
                            };
                        tr!(check_args(
                            &resolved.code,
                            function,
                            std::slice::from_ref(&v)
                        ));
                        // First framed pass through a leaf-shaped callee
                        // records the leaf summary; later calls at this site
                        // take the inline path above until a configuration
                        // change invalidates the token.
                        if let Some(token) = slot.token {
                            if resolved.code.locals() == 0 {
                                if let [DecodedOp::BinRet { a, b, op }] = resolved.code.ops() {
                                    slot.leaf = Some(LeafCall {
                                        token,
                                        a: a.clone(),
                                        b: b.clone(),
                                        op: *op,
                                        activity: resolved.activity,
                                        param: resolved.code.signature().params()[0],
                                        ret: resolved.code.signature().ret(),
                                    });
                                }
                            }
                        }
                        *consumed_nanos += resolver.dispatch_cost_nanos();
                        resolver.enter(resolved.activity);
                        let mut args = pool.values();
                        args.push(v);
                        if profiling {
                            profile.enter(function);
                        }
                        break 'ops FrameEvent::Call { resolved, args };
                    }
                }
            };

            match event {
                FrameEvent::Call { resolved, args } => {
                    let frame = self.pool.frame(resolved, args);
                    self.frames.push(frame);
                }
                FrameEvent::Return(value) => {
                    let frame = self.frames.pop().expect("returning thread has a frame");
                    resolver.exit(frame.activity);
                    if self.profiling {
                        self.profile.exit();
                    }
                    let expected = frame.code.signature().ret();
                    let mismatch =
                        (!expected.accepts(value.type_tag())).then(|| VmError::ReturnType {
                            function: frame.function().clone(),
                            expected,
                            found: value.type_tag(),
                        });
                    self.pool.recycle(frame);
                    if let Some(err) = mismatch {
                        break 'thread self.fault(resolver, err);
                    }
                    match self.frames.last_mut() {
                        Some(caller) => caller.stack.push(value),
                        None => {
                            self.status = ThreadStatus::Done;
                            break 'thread RunOutcome::Completed(value);
                        }
                    }
                }
                FrameEvent::Suspend(req) => {
                    self.status = ThreadStatus::Suspended;
                    break 'thread RunOutcome::Suspended(req);
                }
                FrameEvent::Fault(err) => break 'thread self.fault(resolver, err),
            }
        };
        self.total_retired += retired;
        self.fused_retired += fused;
        outcome
    }

    /// The original fuel loop over the single-step interpreter.
    fn run_legacy<R: CallResolver + ?Sized>(
        &mut self,
        resolver: &mut R,
        natives: &NativeRegistry,
        globals: &mut ValueStore,
        fuel: u64,
    ) -> RunOutcome {
        let mut remaining = fuel;
        loop {
            if remaining == 0 {
                return self.fault(resolver, VmError::FuelExhausted);
            }
            remaining -= 1;
            match self.step(resolver, natives, globals) {
                Ok(StepOutcome::Continue) => {}
                Ok(StepOutcome::Returned(value)) => {
                    self.status = ThreadStatus::Done;
                    return RunOutcome::Completed(value);
                }
                Ok(StepOutcome::Suspend(req)) => {
                    self.status = ThreadStatus::Suspended;
                    return RunOutcome::Suspended(req);
                }
                Err(err) => return self.fault(resolver, err),
            }
        }
    }

    fn fault<R: CallResolver + ?Sized>(&mut self, resolver: &mut R, err: VmError) -> RunOutcome {
        self.unwind(resolver);
        self.status = ThreadStatus::Done;
        RunOutcome::Faulted(err)
    }

    /// One step of the legacy interpreter, over the undecoded instruction
    /// stream.
    fn step<R: CallResolver + ?Sized>(
        &mut self,
        resolver: &mut R,
        natives: &NativeRegistry,
        globals: &mut ValueStore,
    ) -> Result<StepOutcome, VmError> {
        // Implicit return of unit when execution falls off the end.
        let (code, pc, depth) = {
            let frame = self.frames.last_mut().expect("running thread has frames");
            if frame.pc >= frame.code.block().len() {
                return self.do_return(resolver, Value::Unit);
            }
            let pc = frame.pc;
            frame.pc += 1;
            (Rc::clone(&frame.code), pc, self.frames.len())
        };
        // Borrow the instruction from the (cheaply cloned) shared code block
        // rather than deep-cloning it every step.
        let instr = &code.block().instrs()[pc];
        if self.profiling {
            let work = if let Instr::Work(nanos) = instr {
                *nanos
            } else {
                0
            };
            self.profile.instruction(instr.opcode(), work);
        }
        let frame = self.frames.last_mut().expect("frame exists");
        match instr {
            Instr::Push(v) => frame.stack.push(v.clone()),
            Instr::Pop => {
                pop(&mut frame.stack)?;
            }
            Instr::Dup => {
                let v = frame.stack.last().ok_or(VmError::StackUnderflow)?.clone();
                frame.stack.push(v);
            }
            Instr::Swap => {
                let b = pop(&mut frame.stack)?;
                let a = pop(&mut frame.stack)?;
                frame.stack.push(b);
                frame.stack.push(a);
            }
            Instr::LoadArg(n) => {
                let v = frame
                    .args
                    .get(*n as usize)
                    .ok_or(VmError::StackUnderflow)?
                    .clone();
                frame.stack.push(v);
            }
            Instr::LoadLocal(n) => {
                let v = frame
                    .locals
                    .get(*n as usize)
                    .ok_or(VmError::StackUnderflow)?
                    .clone();
                frame.stack.push(v);
            }
            Instr::StoreLocal(n) => {
                let v = pop(&mut frame.stack)?;
                let slot = frame
                    .locals
                    .get_mut(*n as usize)
                    .ok_or(VmError::StackUnderflow)?;
                *slot = v;
            }
            Instr::Add => int_binop(&mut frame.stack, |a, b| Ok(a.wrapping_add(b)))?,
            Instr::Sub => int_binop(&mut frame.stack, |a, b| Ok(a.wrapping_sub(b)))?,
            Instr::Mul => int_binop(&mut frame.stack, |a, b| Ok(a.wrapping_mul(b)))?,
            Instr::Div => int_binop(&mut frame.stack, |a, b| {
                if b == 0 {
                    Err(VmError::DivideByZero)
                } else {
                    Ok(a.wrapping_div(b))
                }
            })?,
            Instr::Rem => int_binop(&mut frame.stack, |a, b| {
                if b == 0 {
                    Err(VmError::DivideByZero)
                } else {
                    Ok(a.wrapping_rem(b))
                }
            })?,
            Instr::Neg => {
                let a = pop_int(&mut frame.stack)?;
                frame.stack.push(Value::Int(a.wrapping_neg()));
            }
            Instr::Not => {
                let a = pop_bool(&mut frame.stack)?;
                frame.stack.push(Value::Bool(!a));
            }
            Instr::And => {
                let b = pop_bool(&mut frame.stack)?;
                let a = pop_bool(&mut frame.stack)?;
                frame.stack.push(Value::Bool(a && b));
            }
            Instr::Or => {
                let b = pop_bool(&mut frame.stack)?;
                let a = pop_bool(&mut frame.stack)?;
                frame.stack.push(Value::Bool(a || b));
            }
            Instr::Eq => {
                let b = pop(&mut frame.stack)?;
                let a = pop(&mut frame.stack)?;
                frame.stack.push(Value::Bool(a == b));
            }
            Instr::Ne => {
                let b = pop(&mut frame.stack)?;
                let a = pop(&mut frame.stack)?;
                frame.stack.push(Value::Bool(a != b));
            }
            Instr::Lt => int_cmp(&mut frame.stack, |a, b| a < b)?,
            Instr::Le => int_cmp(&mut frame.stack, |a, b| a <= b)?,
            Instr::Gt => int_cmp(&mut frame.stack, |a, b| a > b)?,
            Instr::Ge => int_cmp(&mut frame.stack, |a, b| a >= b)?,
            Instr::Jump(t) => frame.pc = *t as usize,
            Instr::JumpIfFalse(t) => {
                if !pop_bool(&mut frame.stack)? {
                    frame.pc = *t as usize;
                }
            }
            Instr::JumpIfTrue(t) => {
                if pop_bool(&mut frame.stack)? {
                    frame.pc = *t as usize;
                }
            }
            Instr::CallDyn { function, argc } => {
                if depth >= MAX_CALL_DEPTH {
                    return Err(VmError::CallDepthExceeded(MAX_CALL_DEPTH));
                }
                let args = pop_n(&mut frame.stack, *argc as usize)?;
                // Inline cache: redeem the token this call site cached, if
                // the resolver's configuration generation still matches.
                let site = function.identity_key();
                let cached = self.call_cache.iter().position(|(key, _)| *key == site);
                let resolved = match cached
                    .and_then(|i| resolver.resolve_token(self.call_cache[i].1))
                {
                    Some(resolved) => resolved,
                    None => {
                        let (resolved, token) =
                            resolve_with_token_checked(resolver, function, CallOrigin::Internal)?;
                        match (cached, token) {
                            (Some(i), Some(token)) => self.call_cache[i].1 = token,
                            (None, Some(token)) => self.call_cache.push((site, token)),
                            (Some(i), None) => {
                                self.call_cache.swap_remove(i);
                            }
                            (None, None) => {}
                        }
                        resolved
                    }
                };
                check_args(&resolved.code, function, &args)?;
                self.consumed_nanos += resolver.dispatch_cost_nanos();
                resolver.enter(resolved.activity);
                if self.profiling {
                    self.profile.enter(function);
                }
                let frame = self.pool.frame(resolved, args);
                self.frames.push(frame);
            }
            Instr::CallNative { function, argc } => {
                let args = pop_n(&mut frame.stack, *argc as usize)?;
                let result = natives.call(function, &args)?;
                frame.stack.push(result);
            }
            Instr::CallRemote { function, argc } => {
                let args = pop_n(&mut frame.stack, *argc as usize)?;
                let target = pop(&mut frame.stack)?;
                let Some(target) = target.as_obj_ref() else {
                    return Err(VmError::TypeMismatch {
                        expected: TypeTag::ObjRef,
                        found: target.type_tag(),
                    });
                };
                return Ok(StepOutcome::Suspend(OutcallRequest {
                    target,
                    function: function.clone(),
                    args,
                }));
            }
            Instr::Ret => {
                let value = frame.stack.pop().unwrap_or(Value::Unit);
                return self.do_return(resolver, value);
            }
            Instr::MakeList(n) => {
                let items = pop_n(&mut frame.stack, *n as usize)?;
                frame.stack.push(Value::List(items));
            }
            Instr::ListGet => {
                let index = pop_int(&mut frame.stack)?;
                let list = pop_list(&mut frame.stack)?;
                let item = usize::try_from(index)
                    .ok()
                    .and_then(|i| list.get(i).cloned())
                    .ok_or(VmError::IndexOutOfRange {
                        index,
                        len: list.len(),
                    })?;
                frame.stack.push(item);
            }
            Instr::ListSet => {
                let value = pop(&mut frame.stack)?;
                let index = pop_int(&mut frame.stack)?;
                let mut list = pop_list(&mut frame.stack)?;
                let len = list.len();
                let slot = usize::try_from(index)
                    .ok()
                    .and_then(|i| list.get_mut(i))
                    .ok_or(VmError::IndexOutOfRange { index, len })?;
                *slot = value;
                frame.stack.push(Value::List(list));
            }
            Instr::ListLen => {
                let list = pop_list(&mut frame.stack)?;
                frame.stack.push(Value::Int(list.len() as i64));
            }
            Instr::ListPush => {
                let value = pop(&mut frame.stack)?;
                let mut list = pop_list(&mut frame.stack)?;
                list.push(value);
                frame.stack.push(Value::List(list));
            }
            Instr::StrConcat => {
                let b = pop_str(&mut frame.stack)?;
                let a = pop_str(&mut frame.stack)?;
                frame.stack.push(Value::str(format!("{a}{b}")));
            }
            Instr::StrLen => {
                let s = pop_str(&mut frame.stack)?;
                frame.stack.push(Value::Int(s.len() as i64));
            }
            Instr::Work(nanos) => {
                self.consumed_nanos += *nanos;
            }
            Instr::GlobalGet(key) => {
                frame.stack.push(globals.get(key.as_str()));
            }
            Instr::GlobalSet(key) => {
                let v = pop(&mut frame.stack)?;
                globals.assign(key.as_str(), v);
            }
        }
        Ok(StepOutcome::Continue)
    }

    fn do_return<R: CallResolver + ?Sized>(
        &mut self,
        resolver: &mut R,
        value: Value,
    ) -> Result<StepOutcome, VmError> {
        let frame = self.frames.pop().expect("returning thread has a frame");
        resolver.exit(frame.activity);
        if self.profiling {
            self.profile.exit();
        }
        let expected = frame.code.signature().ret();
        let mismatch = (!expected.accepts(value.type_tag())).then(|| VmError::ReturnType {
            function: frame.function().clone(),
            expected,
            found: value.type_tag(),
        });
        self.pool.recycle(frame);
        if let Some(err) = mismatch {
            return Err(err);
        }
        match self.frames.last_mut() {
            Some(caller) => {
                caller.stack.push(value);
                Ok(StepOutcome::Continue)
            }
            None => Ok(StepOutcome::Returned(value)),
        }
    }
}

impl fmt::Debug for VmThread {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VmThread")
            .field("status", &self.status)
            .field("depth", &self.frames.len())
            .field(
                "stack",
                &self
                    .frames
                    .iter()
                    .map(|fr| fr.function().as_str().to_owned())
                    .collect::<Vec<_>>(),
            )
            .finish()
    }
}

enum StepOutcome {
    Continue,
    Returned(Value),
    Suspend(OutcallRequest),
}

/// Reads a fused operand without touching the operand stack. Out-of-range
/// local/arg slots report `StackUnderflow`, exactly as the unfused
/// `LoadLocal`/`LoadArg` would.
#[inline]
fn fetch(locals: &[Value], args: &[Value], operand: &Operand) -> Result<Value, VmError> {
    match operand {
        Operand::Local(n) => locals
            .get(*n as usize)
            .cloned()
            .ok_or(VmError::StackUnderflow),
        Operand::Arg(n) => args
            .get(*n as usize)
            .cloned()
            .ok_or(VmError::StackUnderflow),
        Operand::Imm(v) => Ok(v.clone()),
    }
}

fn resolve_error_to_vm(e: ResolveError, function: &FunctionName) -> VmError {
    match e {
        ResolveError::Missing => VmError::MissingFunction(function.clone()),
        ResolveError::Disabled => VmError::FunctionDisabled(function.clone()),
        ResolveError::NotExported => VmError::NotExported(function.clone()),
    }
}

fn resolve_checked<R: CallResolver + ?Sized>(
    resolver: &mut R,
    function: &FunctionName,
    origin: CallOrigin,
) -> Result<ResolvedCall, VmError> {
    resolver
        .resolve(function, origin)
        .map_err(|e| resolve_error_to_vm(e, function))
}

fn resolve_with_token_checked<R: CallResolver + ?Sized>(
    resolver: &mut R,
    function: &FunctionName,
    origin: CallOrigin,
) -> Result<(ResolvedCall, Option<CallToken>), VmError> {
    resolver
        .resolve_with_token(function, origin)
        .map_err(|e| resolve_error_to_vm(e, function))
}

fn check_args(code: &DecodedCode, function: &FunctionName, args: &[Value]) -> Result<(), VmError> {
    let params = code.signature().params();
    if params.len() != args.len() {
        return Err(VmError::ArityMismatch {
            function: function.clone(),
            expected: params.len(),
            found: args.len(),
        });
    }
    for (position, (param, arg)) in params.iter().zip(args).enumerate() {
        if !param.accepts(arg.type_tag()) {
            return Err(VmError::ArgumentType {
                function: function.clone(),
                position,
                expected: *param,
                found: arg.type_tag(),
            });
        }
    }
    Ok(())
}

fn pop(stack: &mut Vec<Value>) -> Result<Value, VmError> {
    stack.pop().ok_or(VmError::StackUnderflow)
}

fn pop_n(stack: &mut Vec<Value>, n: usize) -> Result<Vec<Value>, VmError> {
    if stack.len() < n {
        return Err(VmError::StackUnderflow);
    }
    Ok(stack.split_off(stack.len() - n))
}

fn pop_int(stack: &mut Vec<Value>) -> Result<i64, VmError> {
    let v = pop(stack)?;
    v.as_int().ok_or(VmError::TypeMismatch {
        expected: TypeTag::Int,
        found: v.type_tag(),
    })
}

fn pop_bool(stack: &mut Vec<Value>) -> Result<bool, VmError> {
    let v = pop(stack)?;
    v.as_bool().ok_or(VmError::TypeMismatch {
        expected: TypeTag::Bool,
        found: v.type_tag(),
    })
}

fn pop_str(stack: &mut Vec<Value>) -> Result<std::rc::Rc<str>, VmError> {
    let v = pop(stack)?;
    match v {
        Value::Str(s) => Ok(s),
        other => Err(VmError::TypeMismatch {
            expected: TypeTag::Str,
            found: other.type_tag(),
        }),
    }
}

fn pop_list(stack: &mut Vec<Value>) -> Result<Vec<Value>, VmError> {
    let v = pop(stack)?;
    match v {
        Value::List(l) => Ok(l),
        other => Err(VmError::TypeMismatch {
            expected: TypeTag::List,
            found: other.type_tag(),
        }),
    }
}

fn int_binop(
    stack: &mut Vec<Value>,
    f: impl Fn(i64, i64) -> Result<i64, VmError>,
) -> Result<(), VmError> {
    let b = pop_int(stack)?;
    let a = pop_int(stack)?;
    stack.push(Value::Int(f(a, b)?));
    Ok(())
}

fn int_cmp(stack: &mut Vec<Value>, f: impl Fn(i64, i64) -> bool) -> Result<(), VmError> {
    let b = pop_int(stack)?;
    let a = pop_int(stack)?;
    stack.push(Value::Bool(f(a, b)));
    Ok(())
}
