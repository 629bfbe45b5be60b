//! System layers and the actor/node → layer classification map.

use std::collections::HashMap;

use dcdo_trace::{SpanEvent, SpanKind};

/// The system layer a slice of critical-path time is attributed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Layer {
    /// Wire time: serialization, propagation, and egress contention.
    Network,
    /// Manager-side flow orchestration.
    Manager,
    /// Vault capture/restore work.
    Vault,
    /// VM compute inside a served object (deferred-reply timers).
    Vm,
    /// Host services: component cache, spawning, class management.
    Host,
    /// Client-side think/driver time.
    Client,
    /// Anything not classified by the caller's map.
    Other,
}

/// All layers in stable report order.
pub const LAYERS: [Layer; 7] = [
    Layer::Network,
    Layer::Manager,
    Layer::Vault,
    Layer::Vm,
    Layer::Host,
    Layer::Client,
    Layer::Other,
];

impl Layer {
    /// A stable short name (report keys).
    pub const fn name(self) -> &'static str {
        match self {
            Layer::Network => "network",
            Layer::Manager => "manager",
            Layer::Vault => "vault",
            Layer::Vm => "vm",
            Layer::Host => "host",
            Layer::Client => "client",
            Layer::Other => "other",
        }
    }
}

/// Maps engine-level identities onto [`Layer`]s.
///
/// The trace itself only carries raw actor and node ids; the caller — who
/// built the testbed and knows which actor is the manager, which the vault,
/// and so on — populates this map so the profiler can attribute time.
/// Actor entries take precedence; node entries catch events that only carry
/// a node (a whole node dedicated to one role).
#[derive(Debug, Clone, Default)]
pub struct LayerMap {
    actors: HashMap<u32, Layer>,
    nodes: HashMap<u32, Layer>,
}

impl LayerMap {
    /// Creates an empty map (everything classifies as [`Layer::Other`]).
    pub fn new() -> Self {
        LayerMap::default()
    }

    /// Assigns an actor to a layer.
    pub fn set_actor(&mut self, actor: u32, layer: Layer) -> &mut Self {
        self.actors.insert(actor, layer);
        self
    }

    /// Assigns every actor on a node to a layer (unless individually mapped).
    pub fn set_node(&mut self, node: u32, layer: Layer) -> &mut Self {
        self.nodes.insert(node, layer);
        self
    }

    /// The layer of `actor`, falling back to its `node`, then `Other`.
    pub fn actor(&self, actor: u32, node: u32) -> Layer {
        self.actors
            .get(&actor)
            .or_else(|| self.nodes.get(&node))
            .copied()
            .unwrap_or(Layer::Other)
    }

    /// The layer of a bare node.
    pub fn node(&self, node: u32) -> Layer {
        self.nodes.get(&node).copied().unwrap_or(Layer::Other)
    }

    /// Attributes one critical-path event to a layer:
    ///
    /// - a delivery (or dead-letter) ends a wire segment → [`Layer::Network`];
    /// - a timer firing ends a compute segment owned by the timer's actor
    ///   (VM compute surfaces as deferred-action timers on the object);
    /// - a send ends a compute segment owned by the sender;
    /// - anything else is attributed to the node it happened on.
    pub fn classify(&self, event: &SpanEvent) -> Layer {
        match &event.kind {
            SpanKind::MsgDelivered { .. } | SpanKind::MsgDeadLetter { .. } => Layer::Network,
            SpanKind::TimerFired { actor, .. } => self.actor(*actor, event.node()),
            SpanKind::MsgSent { src, .. } => self.actor(*src, event.node()),
            _ => self.node(event.node()),
        }
    }
}
