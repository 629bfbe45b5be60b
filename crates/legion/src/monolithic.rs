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

use dcdo_sim::{Actor, ActorId, Ctx};
use dcdo_types::{CallId, ComponentId, FunctionName, ObjectId};
use dcdo_vm::{CodeBlock, ComponentBinary, NativeRegistry, StaticResolver, Value, ValueStore};

use crate::cost::CostModel;
use crate::msg::Msg;
use crate::object::{self, LegionObject, ObjectRuntime, Served};
use crate::rpc::{RpcClient, RpcCompletion};

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

    /// An image linking every function of `components` (the monolithic
    /// twin of a DCDO built from them).
    pub fn of_components(version: u32, components: &[ComponentBinary], size_bytes: u64) -> Self {
        let functions = components
            .iter()
            .flat_map(|c| c.functions().iter().map(|f| f.code().clone()))
            .collect();
        ExecutableImage::new(version, functions, size_bytes)
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

/// Control op: report the implementation version the object runs.
#[derive(Debug, Clone)]
pub struct QueryVersion;

/// Control reply to [`QueryVersion`].
#[derive(Debug, Clone)]
pub struct VersionReport {
    /// The executable image version (monolithic) or encoded DCDO version.
    pub version: u32,
    /// Number of functions in the interface.
    pub functions: usize,
}

crate::control_ops! {
    /// The op a normal object serves beside the [`StateOp`](crate::object::StateOp)s.
    pub enum MonolithicOp { QueryVersion = "query-version", 64; }

    /// A normal object's reply.
    pub enum MonolithicReply { VersionReport = "version-report", 64; }
}

/// An active normal Legion object: one process running one monolithic
/// executable.
pub struct MonolithicObject {
    object: ObjectId,
    runtime: ObjectRuntime,
    resolver: StaticResolver,
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
            rpc,
            state: ValueStore::new(),
            image_version: image.version(),
            function_count: image.functions().len(),
        }
    }

    /// The image version this process runs.
    pub fn image_version(&self) -> u32 {
        self.image_version
    }

    /// The object's persistent state (driver-side inspection).
    pub fn state(&self) -> &ValueStore {
        &self.state
    }

    /// Invocations served so far.
    pub fn invocations_served(&self) -> u64 {
        self.runtime.invocations_served()
    }
}

impl LegionObject for MonolithicObject {
    type Ops<'a> = MonolithicOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    fn control(
        &mut self,
        _: &mut Ctx<'_, Msg>,
        _: ActorId,
        call: CallId,
        op: MonolithicOp<'_>,
    ) -> Served {
        let MonolithicOp::QueryVersion(_) = op;
        let report = VersionReport {
            version: self.image_version,
            functions: self.function_count,
        };
        Served::Reply(Msg::control_ok(call, report))
    }

    fn state(&mut self) -> Option<&mut ValueStore> {
        Some(&mut self.state)
    }

    fn invoke(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        from: ActorId,
        call: CallId,
        function: FunctionName,
        args: Vec<Value>,
    ) -> Result<(), FunctionName> {
        self.runtime.handle_invoke(
            ctx,
            from,
            call,
            function,
            args,
            &mut self.resolver,
            &NativeRegistry,
            &mut self.state,
        );
        Ok(())
    }

    fn rpc(&mut self) -> Option<&mut RpcClient> {
        Some(&mut self.rpc)
    }

    fn completed(&mut self, ctx: &mut Ctx<'_, Msg>, completion: RpcCompletion) {
        if self.runtime.owns_completion(&completion) {
            self.runtime.handle_outcall_completion(ctx, completion);
        }
    }

    fn timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        self.runtime.handle_timer(
            ctx,
            token,
            &mut self.resolver,
            &NativeRegistry,
            &mut self.state,
            &mut self.rpc,
        );
    }
}

impl Actor<Msg> for MonolithicObject {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Msg>, token: u64) {
        object::fire(self, ctx, token);
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
