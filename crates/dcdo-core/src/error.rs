//! Configuration and evolution errors.

use std::fmt;

use dcdo_types::{CallId, ComponentId, Dependency, FunctionName, Protection, VersionId};
use legion_substrate::{Ack, InvocationFault, Msg};
use serde::{Deserialize, Serialize};

/// Why a configuration operation on a DFM descriptor (or a live DCDO) was
/// refused.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum ConfigError {
    /// The component is already incorporated.
    ComponentAlreadyPresent(ComponentId),
    /// The component is not incorporated.
    ComponentNotPresent(ComponentId),
    /// No record of this dynamic function exists.
    UnknownFunction(FunctionName),
    /// The named implementation does not exist.
    UnknownImplementation {
        /// The function.
        function: FunctionName,
        /// The component expected to provide it.
        component: ComponentId,
    },
    /// An incorporated implementation's signature does not match the
    /// function's established signature.
    SignatureMismatch {
        /// The function.
        function: FunctionName,
        /// The established signature, rendered.
        existing: String,
        /// The offending signature, rendered.
        offered: String,
    },
    /// An incorporated implementation's visibility conflicts with the
    /// function's established visibility.
    VisibilityConflict(FunctionName),
    /// Two components both request a permanent implementation of the same
    /// function (the paper's incorporation-failure example, §3.2).
    PermanentConflict {
        /// The function.
        function: FunctionName,
        /// The component holding the existing permanent implementation.
        existing: ComponentId,
        /// The component whose incorporation was refused.
        offered: ComponentId,
    },
    /// The operation would violate the function's protection.
    ProtectionViolation {
        /// The function.
        function: FunctionName,
        /// Its protection.
        protection: Protection,
    },
    /// Protections may only be strengthened, never weakened.
    ProtectionWeakening {
        /// The function.
        function: FunctionName,
        /// Its current protection.
        current: Protection,
        /// The weaker protection requested.
        requested: Protection,
    },
    /// The operation would leave a declared dependency unsatisfied.
    DependencyViolation(Dependency),
    /// The version is instantiable and can no longer be configured (§2.4).
    VersionFrozen(VersionId),
    /// The version is still configurable and cannot be instantiated or
    /// evolved to (§2.4).
    VersionNotInstantiable(VersionId),
    /// The version does not exist in the DFM store.
    UnknownVersion(VersionId),
    /// Marking instantiable failed: a mandatory function has no enabled
    /// implementation.
    MandatoryUnsatisfied(FunctionName),
    /// Evolution to the target version is not permitted by the manager's
    /// version policy.
    PolicyForbids {
        /// The instance's current version.
        from: VersionId,
        /// The requested target.
        to: VersionId,
        /// The rule that refused it.
        rule: String,
    },
    /// A component still has threads executing inside it (the
    /// disappearing-component guard with the error policy, §3.2).
    ComponentBusy {
        /// The component.
        component: ComponentId,
        /// How many threads are inside it.
        active_threads: usize,
    },
    /// The component failed validation or decoding when mapped.
    BadComponent(String),
    /// The component's implementation type cannot run on the host's
    /// architecture (§2.1: implementation types exist precisely so a
    /// heterogeneous system can refuse this at mapping time).
    IncompatibleArchitecture {
        /// The component.
        component: ComponentId,
        /// The architecture it was built for.
        component_arch: String,
        /// The host's native architecture.
        host_arch: String,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::ComponentAlreadyPresent(c) => {
                write!(f, "component {c} is already incorporated")
            }
            ConfigError::ComponentNotPresent(c) => write!(f, "component {c} is not incorporated"),
            ConfigError::UnknownFunction(name) => write!(f, "unknown dynamic function {name}"),
            ConfigError::UnknownImplementation {
                function,
                component,
            } => write!(f, "no implementation of {function} in {component}"),
            ConfigError::SignatureMismatch {
                function,
                existing,
                offered,
            } => write!(
                f,
                "signature of {function} is {existing}, offered implementation has {offered}"
            ),
            ConfigError::VisibilityConflict(name) => {
                write!(f, "visibility of {name} conflicts with established visibility")
            }
            ConfigError::PermanentConflict {
                function,
                existing,
                offered,
            } => write!(
                f,
                "{offered} requests a permanent {function}, but {existing} already holds the permanent implementation"
            ),
            ConfigError::ProtectionViolation {
                function,
                protection,
            } => write!(f, "operation violates {protection} protection of {function}"),
            ConfigError::ProtectionWeakening {
                function,
                current,
                requested,
            } => write!(
                f,
                "cannot weaken {function} from {current} to {requested}"
            ),
            ConfigError::DependencyViolation(dep) => {
                write!(f, "operation would violate dependency {dep}")
            }
            ConfigError::VersionFrozen(v) => {
                write!(f, "version {v} is instantiable and frozen")
            }
            ConfigError::VersionNotInstantiable(v) => {
                write!(f, "version {v} is not marked instantiable")
            }
            ConfigError::UnknownVersion(v) => write!(f, "unknown version {v}"),
            ConfigError::MandatoryUnsatisfied(name) => {
                write!(f, "mandatory function {name} has no enabled implementation")
            }
            ConfigError::PolicyForbids { from, to, rule } => {
                write!(f, "policy forbids evolving {from} -> {to}: {rule}")
            }
            ConfigError::ComponentBusy {
                component,
                active_threads,
            } => write!(
                f,
                "component {component} has {active_threads} active threads"
            ),
            ConfigError::BadComponent(why) => write!(f, "bad component: {why}"),
            ConfigError::IncompatibleArchitecture {
                component,
                component_arch,
                host_arch,
            } => write!(
                f,
                "component {component} is built for {component_arch} and cannot run on a {host_arch} host"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// On the wire a configuration error is a refusal carrying its text.
impl From<ConfigError> for InvocationFault {
    fn from(e: ConfigError) -> Self {
        InvocationFault::Refused(e.to_string())
    }
}

/// The reply to a configuration operation that has nothing to report back:
/// an [`Ack`], or the refusal.
pub(crate) fn ack_or_refuse(call: CallId, result: Result<(), ConfigError>) -> Msg {
    match result {
        Ok(()) => Msg::control_ok(call, Ack),
        Err(e) => Msg::refused(call, e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_carry_context() {
        let e = ConfigError::PermanentConflict {
            function: "f".into(),
            existing: ComponentId::from_raw(1),
            offered: ComponentId::from_raw(2),
        };
        let s = e.to_string();
        assert!(s.contains("comp:1") && s.contains("comp:2") && s.contains('f'));

        let e = ConfigError::PolicyForbids {
            from: "1.2".parse().expect("version"),
            to: "1.3".parse().expect("version"),
            rule: "increasing-version-number".into(),
        };
        assert!(e.to_string().contains("1.2 -> 1.3"));
    }
}
