//! The DCDO model (the paper's primary contribution).
//!
//! Dynamically configurable distributed objects evolve their
//! implementations as they run: programmers can add member functions,
//! change their behavior, and remove them — on the fly, without deactivating
//! anything, without replacing binary executables, and without interrupting
//! clients. The model defines three object types, all implemented here on
//! top of the `legion-substrate` crate:
//!
//! - [`DcdoObject`] — a DCDO: a set of incorporated implementation
//!   components dispatched through a [`Dfm`] (the dynamic function mapper,
//!   the single level of indirection), plus configuration and
//!   status-reporting functions in its external interface (§2.2);
//! - [`Ico`] — an implementation component object maintaining one
//!   component's data in the global namespace (§2.3);
//! - [`DcdoManager`] — the manager for one object type: the DFM store of
//!   versioned, configurable/instantiable [`DfmDescriptor`]s, the DCDO
//!   table, and the evolution-policy enforcement of §3.4–3.5.
//!
//! The restriction machinery of §3.2 — mandatory and permanent functions,
//! Type A–D function dependencies, and thread activity monitoring with
//! refuse / delay / force removal policies — lives in
//! [`DfmDescriptor`], [`Dfm`], and the DCDO's configuration flows, and makes
//! the §3.1 failure modes (missing/disappearing functions and components)
//! preventable by construction.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod descriptor;
mod dfm;
mod error;
mod hosts;
mod ico;
mod manager;
mod object;
pub mod ops;

pub use descriptor::{ComponentRecord, DescriptorDiff, DfmDescriptor, FunctionRecord};
pub use dfm::Dfm;
pub use error::ConfigError;
pub use hosts::{HostDirectory, HostEntry};
pub use ico::Ico;
pub use manager::{DcdoManager, UpdatePropagation, VersionPolicy};
pub use object::DcdoObject;
