//! Host objects: the machines of the testbed as Legion objects.
//!
//! A host object represents one node: its architecture and its local
//! file-system caches — downloaded implementation components (for DCDOs)
//! and monolithic executables (for normal objects). Whether a component is
//! already cached on the DCDO's host decides between the ≈200 µs cached
//! incorporation and the download-dominated path (§4).

use std::collections::{HashMap, HashSet};
use std::rc::Rc;

use dcdo_sim::{Actor, ActorId, Ctx, NodeId};
use dcdo_types::{Architecture, CallId, ClassId, ComponentId, HostId, ObjectId};
use dcdo_vm::ComponentBinary;

use crate::msg::{Ack, Msg};
use crate::object::{self, LegionObject, Served};

/// Control op: store component data in the host's cache. It travels as its
/// encoded form: the wire size counts the encoded length.
#[derive(Debug, Clone)]
pub struct StoreComponentData {
    /// The component.
    pub binary: Rc<ComponentBinary>,
}

/// Control op: fetch component data from the host's cache.
#[derive(Debug, Clone)]
pub struct FetchComponentData {
    /// The component wanted.
    pub component: ComponentId,
}

/// Control reply to [`FetchComponentData`].
#[derive(Debug, Clone)]
pub struct ComponentData {
    /// The component asked about.
    pub component: ComponentId,
    /// The component, if cached.
    pub binary: Option<Rc<ComponentBinary>>,
}

/// Control op: does the host cache this component?
#[derive(Debug, Clone)]
pub struct HasComponent {
    /// The component asked about.
    pub component: ComponentId,
}

/// Control reply to [`HasComponent`] / [`HasExecutable`].
#[derive(Debug, Clone)]
pub struct CachedReply {
    /// Whether the item is in the host cache.
    pub cached: bool,
}

/// Control op: record that an executable image version is on this host.
#[derive(Debug, Clone)]
pub struct StoreExecutable {
    /// The class whose executable was downloaded.
    pub class: ClassId,
    /// The image version.
    pub version: u32,
}

/// Control op: does the host have this executable version?
#[derive(Debug, Clone)]
pub struct HasExecutable {
    /// The class asked about.
    pub class: ClassId,
    /// The image version.
    pub version: u32,
}

crate::control_ops! {
    /// The ops a host object serves.
    pub enum HostOp {
        StoreComponentData = "store-component-data", |op| 32 + op.binary.encoded_len();
        FetchComponentData = "fetch-component-data", 64;
        HasComponent = "has-component", 64;
        StoreExecutable = "store-executable", 64;
        HasExecutable = "has-executable", 64;
    }

    /// A host object's replies.
    pub enum HostReply {
        ComponentData = "component-data",
            |op| 32 + op.binary.as_ref().map_or(0, |b| b.encoded_len());
        CachedReply = "cached-reply", 64;
    }
}

/// A testbed machine as a Legion object.
#[derive(Debug)]
pub struct HostObject {
    object: ObjectId,
    host: HostId,
    node: NodeId,
    arch: Architecture,
    components: HashMap<ComponentId, Rc<ComponentBinary>>,
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

    /// Direct cache insert (driver-side pre-warming).
    pub fn store_component(&mut self, binary: Rc<ComponentBinary>) {
        self.components.insert(binary.id(), binary);
    }
}

impl LegionObject for HostObject {
    type Ops<'a> = HostOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    fn control(
        &mut self,
        _: &mut Ctx<'_, Msg>,
        _: ActorId,
        call: CallId,
        op: HostOp<'_>,
    ) -> Served {
        Served::Reply(match op {
            HostOp::StoreComponentData(store) => {
                self.store_component(Rc::clone(&store.binary));
                Msg::control_ok(call, Ack)
            }
            HostOp::FetchComponentData(fetch) => Msg::control_ok(
                call,
                ComponentData {
                    component: fetch.component,
                    binary: self.components.get(&fetch.component).cloned(),
                },
            ),
            HostOp::HasComponent(has) => Msg::control_ok(
                call,
                CachedReply {
                    cached: self.components.contains_key(&has.component),
                },
            ),
            HostOp::StoreExecutable(store) => {
                self.executables.insert((store.class, store.version));
                Msg::control_ok(call, Ack)
            }
            HostOp::HasExecutable(has) => Msg::control_ok(
                call,
                CachedReply {
                    cached: self.executables.contains(&(has.class, has.version)),
                },
            ),
        })
    }
}

impl Actor<Msg> for HostObject {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn name(&self) -> &str {
        "host"
    }
}

#[cfg(test)]
mod tests {
    use dcdo_vm::ComponentBuilder;

    use super::*;
    use crate::msg::ControlPayload;

    #[test]
    fn host_cache_messages_weigh_the_encoded_component() {
        let binary = ComponentBuilder::new(ComponentId::from_raw(1), "padded")
            .exported("f() -> unit", |b| b.ret())
            .expect("f")
            .static_data_size(550_000)
            .build()
            .expect("valid");
        let wire = 32 + binary.encode().len() as u64;
        let binary = Rc::new(binary);
        let store = StoreComponentData {
            binary: Rc::clone(&binary),
        };
        assert_eq!(store.wire_size(), wire);
        let cached = ComponentData {
            component: binary.id(),
            binary: Some(binary),
        };
        assert_eq!(cached.wire_size(), wire);
        let missing = ComponentData {
            component: ComponentId::from_raw(1),
            binary: None,
        };
        assert_eq!(missing.wire_size(), 32);
    }
}
