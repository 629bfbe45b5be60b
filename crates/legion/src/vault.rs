//! Vaults: persistent storage for object state.
//!
//! Legion vaults hold the serialized state of deactivated objects. The
//! evolution and migration pipelines park captured state here between
//! killing the old process and restoring into the new one.

use std::collections::HashMap;

use bytes::Bytes;
use dcdo_sim::{Actor, ActorId, Ctx};
use dcdo_types::ObjectId;

use crate::control_payload;
use crate::msg::{Ack, InvocationFault, Msg};

/// Control op: persist a state blob for `owner`.
#[derive(Debug, Clone)]
pub struct SaveState {
    /// The object whose state this is.
    pub owner: ObjectId,
    /// The captured state.
    pub bytes: Bytes,
}

control_payload!(
    SaveState,
    "save-state",
    wire_size = |op| 32 + op.bytes.len() as u64
);

/// Control op: load the persisted state blob of `owner`.
#[derive(Debug, Clone)]
pub struct LoadState {
    /// The object whose state is wanted.
    pub owner: ObjectId,
}

control_payload!(LoadState, "load-state");

/// Control reply to [`LoadState`].
#[derive(Debug, Clone)]
pub struct LoadedState {
    /// The object asked about.
    pub owner: ObjectId,
    /// The stored blob, if any.
    pub bytes: Option<Bytes>,
}

control_payload!(
    LoadedState,
    "loaded-state",
    wire_size = |op| { 32 + op.bytes.as_ref().map_or(0, |b| b.len() as u64) }
);

/// A vault: persistent object-state storage.
#[derive(Debug)]
pub struct Vault {
    object: ObjectId,
    blobs: HashMap<ObjectId, Bytes>,
}

impl Vault {
    /// Creates a vault with the given object identity.
    pub fn new(object: ObjectId) -> Self {
        Vault {
            object,
            blobs: HashMap::new(),
        }
    }

    /// The vault's object identity.
    pub fn object_id(&self) -> ObjectId {
        self.object
    }

    /// Number of state blobs held.
    pub fn len(&self) -> usize {
        self.blobs.len()
    }

    /// Returns `true` if the vault holds no state.
    pub fn is_empty(&self) -> bool {
        self.blobs.is_empty()
    }

    /// Direct (driver-side) lookup.
    pub fn stored_state(&self, owner: ObjectId) -> Option<&Bytes> {
        self.blobs.get(&owner)
    }
}

impl Actor<Msg> for Vault {
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
                let reply = if let Some(save) = op.as_any().downcast_ref::<SaveState>() {
                    self.blobs.insert(save.owner, save.bytes.clone());
                    ctx.metrics().incr("vault.saves");
                    Msg::control_ok(call, Ack)
                } else if let Some(load) = op.as_any().downcast_ref::<LoadState>() {
                    ctx.metrics().incr("vault.loads");
                    Msg::control_ok(
                        call,
                        LoadedState {
                            owner: load.owner,
                            bytes: self.blobs.get(&load.owner).cloned(),
                        },
                    )
                } else {
                    Msg::refused(call, format!("vault does not understand {}", op.describe()))
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
        "vault"
    }
}
