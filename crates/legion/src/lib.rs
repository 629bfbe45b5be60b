//! Legion-like wide-area distributed object substrate.
//!
//! This crate rebuilds the parts of the Legion system the DCDO model sits
//! on: a global object namespace ([`naming::ContextSpace`]), binding agents
//! mapping identity to physical address ([`binding::BindingAgent`]) with
//! client-side caches and the stale-binding discovery protocol
//! ([`rpc::RpcClient`]), hosts with component/executable caches
//! ([`host::HostObject`]), vaults for persistent object state
//! ([`vault::Vault`]), the shared invocation runtime of active objects
//! ([`object::ObjectRuntime`]), and — as the paper's baseline — normal
//! Legion objects built from static monolithic executables
//! ([`monolithic::MonolithicObject`]) managed by class objects
//! ([`class::ClassObject`]) whose only evolution mechanism is whole-
//! executable replacement; and the step-plan driver ([`plan`]) that class
//! objects, DCDO Managers and DCDOs walk their multi-step operations on.
//!
//! All simulated-time constants live in [`cost::CostModel`], calibrated to
//! the numbers the paper itself reports (see DESIGN.md §6).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod binding;
pub mod class;
pub mod client;
pub mod cost;
pub mod harness;
pub mod host;
pub mod monolithic;
mod msg;
pub mod naming;
pub mod object;
pub mod plan;
pub mod rpc;
pub mod vault;

pub use cost::CostModel;
pub use msg::{Ack, AckReply, ControlOp, ControlPayload, InvocationFault, Msg, OpTable};
pub use object::ObjectRuntime;
pub use rpc::{AgentAddress, Handled, ReplyPayload, RpcClient, RpcCompletion};
