//! Vaults: persistent storage for object state.
//!
//! Legion vaults hold the serialized state of deactivated objects. The
//! evolution and migration pipelines park captured state here between
//! killing the old process and restoring into the new one.

use std::collections::HashMap;

use bytes::Bytes;
use dcdo_sim::{Actor, ActorId, Ctx};
use dcdo_types::{CallId, ObjectId};

use crate::msg::{Ack, Msg};
use crate::object::{self, LegionObject, Served};

/// Control op: persist a state blob for `owner`.
#[derive(Debug, Clone)]
pub struct SaveState {
    /// The object whose state this is.
    pub owner: ObjectId,
    /// The captured state.
    pub bytes: Bytes,
}

/// Control op: load the persisted state blob of `owner`.
#[derive(Debug, Clone)]
pub struct LoadState {
    /// The object whose state is wanted.
    pub owner: ObjectId,
}

/// Control reply to [`LoadState`].
#[derive(Debug, Clone)]
pub struct LoadedState {
    /// The object asked about.
    pub owner: ObjectId,
    /// The stored blob, if any.
    pub bytes: Option<Bytes>,
}

crate::control_ops! {
    /// The ops a vault serves.
    pub enum VaultOp {
        SaveState = "save-state", |op| 32 + op.bytes.len() as u64;
        LoadState = "load-state", 64;
    }

    /// A vault's reply.
    pub enum VaultReply {
        LoadedState = "loaded-state", |op| 32 + op.bytes.as_ref().map_or(0, |b| b.len() as u64);
    }
}

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

impl LegionObject for Vault {
    type Ops<'a> = VaultOp<'a>;

    fn object_id(&self) -> ObjectId {
        self.object
    }

    fn control(
        &mut self,
        ctx: &mut Ctx<'_, Msg>,
        _: ActorId,
        call: CallId,
        op: VaultOp<'_>,
    ) -> Served {
        Served::Reply(match op {
            VaultOp::SaveState(save) => {
                self.blobs.insert(save.owner, save.bytes.clone());
                ctx.metrics().incr("vault.saves");
                Msg::control_ok(call, Ack)
            }
            VaultOp::LoadState(load) => {
                ctx.metrics().incr("vault.loads");
                Msg::control_ok(
                    call,
                    LoadedState {
                        owner: load.owner,
                        bytes: self.blobs.get(&load.owner).cloned(),
                    },
                )
            }
        })
    }
}

impl Actor<Msg> for Vault {
    fn on_message(&mut self, ctx: &mut Ctx<'_, Msg>, from: ActorId, msg: Msg) {
        object::deliver(self, ctx, from, msg);
    }

    fn name(&self) -> &str {
        "vault"
    }
}
