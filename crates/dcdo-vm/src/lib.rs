//! Dynamic-code substrate for the DCDO reproduction.
//!
//! Rust cannot safely load arbitrary new native code into a running
//! process, so this crate provides the substitute the reproduction uses for
//! Legion's OS-level dynamic linking: implementation components carry
//! *bytecode* for a small stack machine. The substitution preserves what
//! matters to the DCDO model — behavior that did not exist when the object
//! was first deployed can be authored, serialized
//! ([`ComponentBinary::encode`]), shipped as bytes, incorporated, and then
//! invoked **through one level of indirection** (a [`CallResolver`]; for
//! DCDOs, the DFM in `dcdo-core`).
//!
//! Key pieces:
//!
//! - [`Value`], [`Instr`], [`CodeBlock`] — the bytecode language.
//! - [`FunctionBuilder`] / [`ComponentBuilder`] — assembler APIs for
//!   authoring function bodies and packaging them into components.
//! - [`VmThread`] — a resumable interpreter: threads suspend at remote
//!   outcalls ([`Instr::CallRemote`]) with their full state parked, exactly
//!   the blocked-thread state in which the paper's §3.1 problems strike.
//! - [`CallResolver`] — the indirection point; [`StaticResolver`] is the
//!   frozen table of a monolithic (non-configurable) object.
//! - [`ComponentBinary`] / [`ComponentDescriptor`] — the unit of
//!   incorporation, with a binary object-code format and automatic
//!   structural-dependency analysis.
//! - [`NativeRegistry`] — unchanging host intrinsics.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod asm;
mod builder;
pub mod codec;
mod component;
mod decoded;
mod error;
mod instr;
mod interp;
mod native;
mod profile;
mod resolver;
mod store;
mod value;

pub use asm::{assemble, disassemble, AsmError};
pub use builder::{BuildError, FunctionBuilder, Label};
pub use codec::DecodeError;
pub use component::{
    ComponentBinary, ComponentBuilder, ComponentDescriptor, ComponentError, FunctionDecl,
    FunctionMeta,
};
pub use decoded::{DecodeCacheStats, DecodedCode};
pub use error::VmError;
pub use instr::{CodeBlock, CodeValidationError, Instr, OPCODE_COUNT, OPCODE_NAMES};
pub use interp::{OutcallRequest, RunOutcome, ThreadStatus, VmThread, MAX_CALL_DEPTH};
pub use native::{NativeFn, NativeRegistry};
pub use profile::{FnProfile, FnStats, VmProfile, VmTotals};
pub use resolver::{
    next_generation, CallOrigin, CallResolver, CallToken, ResolveError, ResolvedCall,
    StaticResolver,
};
pub use store::ValueStore;
pub use value::Value;
