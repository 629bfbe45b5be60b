//! Normal Legion objects: static monolithic executables.
//!
//! This is the baseline the paper compares DCDOs against. A monolithic
//! object's implementation is one [`ExecutableImage`] fixed at link time:
//! every function is implicitly exported and enabled, calls dispatch through
//! a frozen [`StaticResolver`], and the *only* way to change behavior is to
//! replace the whole executable — deactivate, capture state, download the
//! new binary, create a new process, restore state, re-register the binding
//! (§4 "Cost"). Clients holding the old address then pay the 25–35 s
//! stale-binding discovery.

use bytes::Bytes;
use dcdo_sim::{Actor, ActorId, Ctx};
use dcdo_types::{ComponentId, ObjectId};
use dcdo_vm::{CodeBlock, NativeRegistry, StaticResolver, ValueStore};

use crate::control_payload;
use crate::cost::CostModel;
use crate::msg::{Ack, ControlOp, InvocationFault, Msg};
use crate::object::ObjectRuntime;
use crate::rpc::{Handled, RpcClient};

/// A statically linked executable: the complete implementation of a normal
/// Legion object.
#[derive(Debug, Clone)]
pub struct ExecutableImage {
    version: u32,
    functions: Vec<CodeBlock>,
    size_bytes: u64,
}

impl ExecutableImage {
    /// Creates an image. `size_bytes` is the binary's on-disk size (the
    /// paper's moderately sized Legion implementations are ≈5.1 MB; small
    /// ones ≈550 KB).
    pub fn new(version: u32, functions: Vec<CodeBlock>, size_bytes: u64) -> Self {
        ExecutableImage {
            version,
            functions,
            size_bytes,
        }
    }

    /// The image's version number (monotonic per class).
    pub fn version(&self) -> u32 {
        self.version
    }

    /// The functions linked into the image.
    pub fn functions(&self) -> &[CodeBlock] {
        &self.functions
    }

    /// The binary size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Builds the frozen call table for a process running this image.
    ///
    /// [`StaticResolver`] uses the same slot-table + generation-stamped
    /// token machinery as the DFM, so monolithic call sites enjoy the same
    /// inline-cache hits; the table being frozen just means the generation
    /// never changes after this method returns.
    pub fn resolver(&self, cost: &CostModel) -> StaticResolver {
        let mut r = StaticResolver::new().with_dispatch_cost_nanos(cost.static_dispatch.as_nanos());
        // A monolithic executable is logically one big component.
        let component = ComponentId::from_raw(0);
        for code in &self.functions {
            r.insert(code.clone(), component);
        }
        r
    }
}

/// Control op: capture the object's state for migration/evolution.
#[derive(Debug, Clone)]
pub struct CaptureState;

control_payload!(CaptureState, "capture-state");

/// Control reply: the captured state blob.
#[derive(Debug, Clone)]
pub struct StateBlob {
    /// The serialized [`ValueStore`].
    pub bytes: Bytes,
}

control_payload!(
    StateBlob,
    "state-blob",
    wire_size = |b| 32 + b.bytes.len() as u64
);

/// Control op: restore previously captured state into the object.
#[derive(Debug, Clone)]
pub struct RestoreState {
    /// The serialized [`ValueStore`] produced by [`CaptureState`].
    pub bytes: Bytes,
}

control_payload!(
    RestoreState,
    "restore-state",
    wire_size = |b| 32 + b.bytes.len() as u64
);

/// Control op: report the implementation version the object runs.
#[derive(Debug, Clone)]
pub struct QueryVersion;

control_payload!(QueryVersion, "query-version");

/// Control reply to [`QueryVersion`].
#[derive(Debug, Clone)]
pub struct VersionReport {
    /// The executable image version (monolithic) or encoded DCDO version.
    pub version: u32,
    /// Number of functions in the interface.
    pub functions: usize,
}

control_payload!(VersionReport, "version-report");

/// Control op: deactivate the object (its process exits).
#[derive(Debug, Clone)]
pub struct Deactivate;

control_payload!(Deactivate, "deactivate");

/// An active normal Legion object: one process running one monolithic
/// executable.
pub struct MonolithicObject {
    object: ObjectId,
    runtime: ObjectRuntime,
    resolver: StaticResolver,
    natives: NativeRegistry,
    rpc: RpcClient,
    state: ValueStore,
    image_version: u32,
    function_count: usize,
}

impl MonolithicObject {
    /// Creates an active object running `image`.
    pub fn new(
        object: ObjectId,
        image: &ExecutableImage,
        cost: &CostModel,
        rpc: RpcClient,
    ) -> Self {
        MonolithicObject {
            object,
            runtime: ObjectRuntime::new(object),
            resolver: image.resolver(cost),
            natives: NativeRegistry::standard(),
            rpc,
            state: ValueStore::new(),
            image_version: image.version(),
            function_count: image.functions().len(),
        }
    }

    /// The object's identity.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// The image version this process runs.
    pub fn image_version(&self) -> u32 {
        self.image_version
    }

    /// The object's persistent state (driver-side inspection).
    pub fn state(&self) -> &ValueStore {
        &self.state
    }

    /// Mutable state access for scenario setup.
    pub fn state_mut(&mut self) -> &mut ValueStore {
        &mut self.state
    }

    /// Invocations served so far.
    pub fn invocations_served(&self) -> u64 {
        self.runtime.invocations_served()
    }

    fn handle_control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: dcdo_types::CallId,
        op: ControlOp,
    ) {
        let reply = if op.as_any().downcast_ref::<CaptureState>().is_some() {
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
        } else if op.as_any().downcast_ref::<QueryVersion>().is_some() {
            Msg::control_ok(
                call,
                VersionReport {
                    version: self.image_version,
                    functions: self.function_count,
                },
            )
        } else if op.as_any().downcast_ref::<Deactivate>().is_some() {
            let me = ctx.self_id();
            ctx.kill(me);
            Msg::control_ok(call, Ack)
        } else {
            Msg::refused(
                call,
                format!("monolithic object does not understand {}", op.describe()),
            )
        };
        ctx.send(from, reply);
    }
}

impl Actor<Msg> for MonolithicObject {
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
                self.runtime.handle_invoke(
                    ctx,
                    from,
                    call,
                    function,
                    args,
                    &mut self.resolver,
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
                            &mut self.resolver,
                            &self.natives,
                            &mut self.state,
                            &mut self.rpc,
                        );
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
                        &mut self.resolver,
                        &self.natives,
                        &mut self.state,
                        &mut self.rpc,
                    );
                }
            }
            return;
        }
        self.runtime.handle_timer(
            ctx,
            token,
            &mut self.resolver,
            &self.natives,
            &mut self.state,
            &mut self.rpc,
        );
    }

    fn name(&self) -> &str {
        "monolithic-object"
    }
}

impl std::fmt::Debug for MonolithicObject {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MonolithicObject")
            .field("object", &self.object)
            .field("image_version", &self.image_version)
            .field("functions", &self.function_count)
            .finish()
    }
}
