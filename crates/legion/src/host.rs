//! Host objects: the machines of the testbed as Legion objects.
//!
//! A host object represents one node: its architecture and its local
//! file-system caches — downloaded implementation components (for DCDOs)
//! and monolithic executables (for normal objects). Whether a component is
//! already cached on the DCDO's host decides between the ≈200 µs cached
//! incorporation and the download-dominated path (§4).

use std::collections::{HashMap, HashSet};

use bytes::Bytes;
use dcdo_sim::{Actor, ActorId, Ctx, NodeId};
use dcdo_types::{Architecture, ClassId, ComponentId, HostId, ObjectId};

use crate::control_payload;
use crate::msg::{Ack, InvocationFault, Msg};

/// Control op: store component data in the host's cache.
#[derive(Debug, Clone)]
pub struct StoreComponentData {
    /// The component.
    pub component: ComponentId,
    /// Its encoded bytes.
    pub bytes: Bytes,
}

control_payload!(
    StoreComponentData,
    "store-component-data",
    wire_size = |op| { 32 + op.bytes.len() as u64 }
);

/// Control op: fetch component data from the host's cache.
#[derive(Debug, Clone)]
pub struct FetchComponentData {
    /// The component wanted.
    pub component: ComponentId,
}

control_payload!(FetchComponentData, "fetch-component-data");

/// Control reply to [`FetchComponentData`].
#[derive(Debug, Clone)]
pub struct ComponentData {
    /// The component asked about.
    pub component: ComponentId,
    /// Its bytes, if cached.
    pub bytes: Option<Bytes>,
}

control_payload!(
    ComponentData,
    "component-data",
    wire_size = |op| { 32 + op.bytes.as_ref().map_or(0, |b| b.len() as u64) }
);

/// Control op: does the host cache this component?
#[derive(Debug, Clone)]
pub struct HasComponent {
    /// The component asked about.
    pub component: ComponentId,
}

control_payload!(HasComponent, "has-component");

/// Control reply to [`HasComponent`] / [`HasExecutable`].
#[derive(Debug, Clone)]
pub struct CachedReply {
    /// Whether the item is in the host cache.
    pub cached: bool,
}

control_payload!(CachedReply, "cached-reply");

/// Control op: record that an executable image version is on this host.
#[derive(Debug, Clone)]
pub struct StoreExecutable {
    /// The class whose executable was downloaded.
    pub class: ClassId,
    /// The image version.
    pub version: u32,
}

control_payload!(StoreExecutable, "store-executable");

/// Control op: does the host have this executable version?
#[derive(Debug, Clone)]
pub struct HasExecutable {
    /// The class asked about.
    pub class: ClassId,
    /// The image version.
    pub version: u32,
}

control_payload!(HasExecutable, "has-executable");

/// A testbed machine as a Legion object.
#[derive(Debug)]
pub struct HostObject {
    object: ObjectId,
    host: HostId,
    node: NodeId,
    arch: Architecture,
    components: HashMap<ComponentId, Bytes>,
    executables: HashSet<(ClassId, u32)>,
}

impl HostObject {
    /// Creates a host object for the machine at `node`.
    pub fn new(object: ObjectId, host: HostId, node: NodeId, arch: Architecture) -> Self {
        HostObject {
            object,
            host,
            node,
            arch,
            components: HashMap::new(),
            executables: HashSet::new(),
        }
    }

    /// The host's object identity.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// The host identifier.
    pub fn host_id(&self) -> HostId {
        self.host
    }

    /// The network node this host is.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The host's native architecture.
    pub fn architecture(&self) -> Architecture {
        self.arch
    }

    /// Direct cache check (driver-side).
    pub fn has_component(&self, component: ComponentId) -> bool {
        self.components.contains_key(&component)
    }

    /// Direct cache insert (driver-side pre-warming).
    pub fn store_component(&mut self, component: ComponentId, bytes: Bytes) {
        self.components.insert(component, bytes);
    }

    /// Direct executable-cache check (driver-side).
    pub fn has_executable(&self, class: ClassId, version: u32) -> bool {
        self.executables.contains(&(class, version))
    }

    /// Number of cached components.
    pub fn cached_components(&self) -> usize {
        self.components.len()
    }

    /// Evicts everything from both caches.
    pub fn clear_caches(&mut self) {
        self.components.clear();
        self.executables.clear();
    }
}

impl Actor<Msg> for HostObject {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        match msg {
            Msg::Control { call, target, op } => {
                if target != self.object {
                    ctx.send(
                        from,
                        Msg::refused(call, InvocationFault::NoSuchObject(target)),
                    );
                    return;
                }
                let reply = if let Some(store) = op.as_any().downcast_ref::<StoreComponentData>() {
                    self.components.insert(store.component, store.bytes.clone());
                    ctx.metrics().incr("host.components_stored");
                    Msg::control_ok(call, Ack)
                } else if let Some(fetch) = op.as_any().downcast_ref::<FetchComponentData>() {
                    Msg::control_ok(
                        call,
                        ComponentData {
                            component: fetch.component,
                            bytes: self.components.get(&fetch.component).cloned(),
                        },
                    )
                } else if let Some(has) = op.as_any().downcast_ref::<HasComponent>() {
                    Msg::control_ok(
                        call,
                        CachedReply {
                            cached: self.components.contains_key(&has.component),
                        },
                    )
                } else if let Some(store) = op.as_any().downcast_ref::<StoreExecutable>() {
                    self.executables.insert((store.class, store.version));
                    Msg::control_ok(call, Ack)
                } else if let Some(has) = op.as_any().downcast_ref::<HasExecutable>() {
                    Msg::control_ok(
                        call,
                        CachedReply {
                            cached: self.executables.contains(&(has.class, has.version)),
                        },
                    )
                } else {
                    Msg::refused(call, format!("host does not understand {}", op.describe()))
                };
                ctx.send(from, reply);
            }
            Msg::Invoke { call, function, .. } => {
                ctx.send(
                    from,
                    Msg::Reply {
                        call,
                        result: Err(InvocationFault::NoSuchFunction(function)),
                    },
                );
            }
            Msg::Reply { .. } | Msg::ControlReply { .. } | Msg::Progress { .. } => {}
        }
    }

    fn name(&self) -> &str {
        "host"
    }
}
