//! The wire protocol of the distributed object system.
//!
//! Every interaction between Legion objects is a message: user-level method
//! invocations ([`Msg::Invoke`]/[`Msg::Reply`]) carry dynamic-function calls
//! with [`Value`] arguments; system-level operations
//! ([`Msg::Control`]/[`Msg::ControlReply`]) carry typed control payloads
//! (binding registration, component reads, configuration operations, …)
//! as type-erased [`ControlPayload`] boxes so higher layers (the DCDO crate)
//! can add operations without this crate knowing them.

use std::any::Any;
use std::fmt;
use std::ops::Deref;
use std::rc::Rc;

use dcdo_sim::Payload;
use dcdo_types::{CallId, FunctionName, ObjectId};
use dcdo_vm::{Value, VmError};

/// A fault reported to the caller of a remote invocation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InvocationFault {
    /// No object with the given identity lives at the address used — in
    /// real Legion this manifests as a connection failure; here the reply
    /// never comes and the caller's timeout machinery fires.
    NoSuchObject(ObjectId),
    /// The invoked function is not present in the object's interface —
    /// the *disappearing exported function* problem as seen by a client
    /// (§3.1).
    NoSuchFunction(FunctionName),
    /// The function exists but is currently disabled.
    FunctionDisabled(FunctionName),
    /// The function exists but is internal.
    NotExported(FunctionName),
    /// The invocation ran and faulted inside the object.
    ExecutionFault(VmError),
    /// The object refused the operation (policy, consistency, or validation
    /// failure), with an explanation.
    Refused(String),
    /// Synthesized by the *caller* when all retries and rebinds failed.
    Timeout,
    /// Synthesized by the *caller* when the retry budget is exhausted well
    /// before the deadline — repeated rebind cycles kept landing on dead
    /// addresses, or the binding agent itself stopped answering. Unlike
    /// [`Timeout`](InvocationFault::Timeout) this is a crisp "the target's
    /// host is gone" signal recovery layers can act on.
    Unreachable,
}

impl fmt::Display for InvocationFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvocationFault::NoSuchObject(o) => write!(f, "no such object {o}"),
            InvocationFault::NoSuchFunction(name) => {
                write!(f, "function {name} not in interface")
            }
            InvocationFault::FunctionDisabled(name) => write!(f, "function {name} disabled"),
            InvocationFault::NotExported(name) => write!(f, "function {name} not exported"),
            InvocationFault::ExecutionFault(e) => write!(f, "execution fault: {e}"),
            InvocationFault::Refused(why) => write!(f, "operation refused: {why}"),
            InvocationFault::Timeout => write!(f, "invocation timed out"),
            InvocationFault::Unreachable => write!(f, "target unreachable"),
        }
    }
}

impl std::error::Error for InvocationFault {}

/// Explanatory text is a refusal: lets [`Msg::refused`] take either a fault
/// or the reason an operation was declined.
impl From<String> for InvocationFault {
    fn from(why: String) -> Self {
        InvocationFault::Refused(why)
    }
}

impl From<&str> for InvocationFault {
    fn from(why: &str) -> Self {
        InvocationFault::Refused(why.to_owned())
    }
}

impl From<VmError> for InvocationFault {
    fn from(e: VmError) -> Self {
        match e {
            VmError::MissingFunction(name) => InvocationFault::NoSuchFunction(name),
            VmError::FunctionDisabled(name) => InvocationFault::FunctionDisabled(name),
            VmError::NotExported(name) => InvocationFault::NotExported(name),
            other => InvocationFault::ExecutionFault(other),
        }
    }
}

/// A typed control operation or reply, type-erased for transport.
///
/// Implemented by binding-agent, vault, host, class, ICO, DCDO, and manager
/// operation types. Receivers downcast with [`ControlPayload::as_any`].
/// Payloads are `Rc`-shared immutable values: the engine is sequential, so
/// nothing asks for `Send` or `Sync`.
pub trait ControlPayload: Any + fmt::Debug {
    /// On-the-wire size of the payload in bytes.
    fn wire_size(&self) -> u64 {
        64
    }

    /// Short operation name for traces and dead-letter diagnostics.
    fn describe(&self) -> &'static str;

    /// Upcast for downcasting to the concrete operation type.
    fn as_any(&self) -> &dyn Any;
}

/// A shared, type-erased control operation.
///
/// Control payloads are immutable once sent, but the RPC machinery must
/// keep a copy for every retry, the engine for every duplicate delivery,
/// and fan-out callers one per destination. `ControlOp` wraps the payload
/// in an [`Rc`] so all of those are pointer clones — the payload itself is
/// never deep-copied after construction.
#[derive(Clone)]
pub struct ControlOp(Rc<dyn ControlPayload>);

impl ControlOp {
    /// Wraps a concrete payload.
    pub fn new(op: impl ControlPayload) -> Self {
        ControlOp(Rc::new(op))
    }

    /// Downcasts to the concrete operation type.
    pub fn downcast_ref<T: ControlPayload>(&self) -> Option<&T> {
        self.0.as_any().downcast_ref()
    }
}

impl Deref for ControlOp {
    type Target = dyn ControlPayload;

    fn deref(&self) -> &Self::Target {
        &*self.0
    }
}

impl fmt::Debug for ControlOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.fmt(f)
    }
}

impl<T: ControlPayload> From<T> for ControlOp {
    fn from(op: T) -> Self {
        ControlOp::new(op)
    }
}

impl ControlOp {
    /// Wraps an already-boxed payload (the type-erased construction path).
    pub fn from_boxed(op: Box<dyn ControlPayload>) -> Self {
        ControlOp(Rc::from(op))
    }
}

/// Implements [`ControlPayload`] for a `Debug + 'static` type.
#[macro_export]
macro_rules! control_payload {
    ($ty:ty, $name:literal) => {
        impl $crate::ControlPayload for $ty {
            fn describe(&self) -> &'static str {
                $name
            }
            fn as_any(&self) -> &dyn ::std::any::Any {
                self
            }
        }
    };
    ($ty:ty, $name:literal, wire_size = $size:expr) => {
        impl $crate::ControlPayload for $ty {
            fn wire_size(&self) -> u64 {
                let f: fn(&$ty) -> u64 = $size;
                f(self)
            }
            fn describe(&self) -> &'static str {
                $name
            }
            fn as_any(&self) -> &dyn ::std::any::Any {
                self
            }
        }
    };
}

/// A message between Legion objects.
///
/// Cheaply clonable: control payloads are [`Rc`]-shared via [`ControlOp`],
/// so cloning a message copies headers and pointers, not payload bytes.
#[derive(Debug, Clone)]
pub enum Msg {
    /// Invoke an exported dynamic function on the destination object.
    Invoke {
        /// Correlates the eventual [`Msg::Reply`].
        call: CallId,
        /// The object the caller believes lives at the destination actor.
        target: ObjectId,
        /// The function to invoke.
        function: FunctionName,
        /// The arguments.
        args: Vec<Value>,
    },
    /// The outcome of an [`Msg::Invoke`].
    Reply {
        /// The call this answers.
        call: CallId,
        /// The invocation outcome.
        result: Result<Value, InvocationFault>,
    },
    /// A system-level control operation.
    Control {
        /// Correlates the eventual [`Msg::ControlReply`].
        call: CallId,
        /// The object the caller believes lives at the destination actor.
        target: ObjectId,
        /// The operation.
        op: ControlOp,
    },
    /// The outcome of a [`Msg::Control`].
    ControlReply {
        /// The call this answers.
        call: CallId,
        /// The operation outcome: a typed reply payload or a fault.
        result: Result<ControlOp, InvocationFault>,
    },
    /// An early acknowledgement that a long-running operation was accepted
    /// and is in progress. Receipt proves the address is live, so the
    /// caller's connect-timeout/retry machinery stands down and only the
    /// overall deadline remains (the moral equivalent of the TCP connection
    /// having been established).
    Progress {
        /// The call being acknowledged.
        call: CallId,
    },
}

impl Payload for Msg {
    fn clone_for_redelivery(&self) -> Option<Msg> {
        Some(self.clone())
    }

    fn wire_size(&self) -> u64 {
        match self {
            Msg::Invoke { function, args, .. } => {
                64 + function.as_str().len() as u64
                    + args.iter().map(Value::approx_size).sum::<u64>()
            }
            Msg::Reply { result, .. } => {
                64 + match result {
                    Ok(v) => v.approx_size(),
                    Err(_) => 32,
                }
            }
            Msg::Control { op, .. } => 64 + op.wire_size(),
            Msg::ControlReply { result, .. } => {
                64 + match result {
                    Ok(op) => op.wire_size(),
                    Err(_) => 32,
                }
            }
            Msg::Progress { .. } => 64,
        }
    }
}

impl Msg {
    /// The successful [`Msg::ControlReply`] to `call`, carrying `payload`.
    pub fn control_ok(call: CallId, payload: impl Into<ControlOp>) -> Msg {
        Msg::ControlReply {
            call,
            result: Ok(payload.into()),
        }
    }

    /// The failed [`Msg::ControlReply`] to `call`. `why` is a fault, or the
    /// text of a refusal ([`InvocationFault::Refused`]).
    pub fn refused(call: CallId, why: impl Into<InvocationFault>) -> Msg {
        Msg::ControlReply {
            call,
            result: Err(why.into()),
        }
    }

    /// Returns the call id carried by the message.
    pub fn call_id(&self) -> CallId {
        match self {
            Msg::Invoke { call, .. }
            | Msg::Reply { call, .. }
            | Msg::Control { call, .. }
            | Msg::ControlReply { call, .. }
            | Msg::Progress { call } => *call,
        }
    }
}

/// An empty acknowledgement control reply.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ack;

control_payload!(Ack, "ack");

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct TestOp {
        data: Vec<u8>,
    }

    control_payload!(
        TestOp,
        "test-op",
        wire_size = |op| 16 + op.data.len() as u64
    );

    #[test]
    fn control_payload_downcasts() {
        let op: Box<dyn ControlPayload> = Box::new(TestOp {
            data: vec![1, 2, 3],
        });
        assert_eq!(op.describe(), "test-op");
        assert_eq!(op.wire_size(), 19);
        let concrete = op.as_any().downcast_ref::<TestOp>().expect("same type");
        assert_eq!(concrete.data, vec![1, 2, 3]);
        assert!(op.as_any().downcast_ref::<Ack>().is_none());
    }

    #[test]
    fn control_op_clone_shares_the_payload() {
        let op = ControlOp::new(TestOp { data: vec![9] });
        let cloned = op.clone();
        assert_eq!(cloned.downcast_ref::<TestOp>(), op.downcast_ref::<TestOp>());
        // `Rc`-shared, not deep-copied.
        assert!(std::ptr::eq(
            op.downcast_ref::<TestOp>().expect("typed"),
            cloned.downcast_ref::<TestOp>().expect("typed"),
        ));
    }

    #[test]
    fn control_op_converts_from_concrete_and_boxed() {
        let from_concrete: ControlOp = TestOp { data: vec![1] }.into();
        let from_boxed = ControlOp::from_boxed(Box::new(TestOp { data: vec![2] }));
        assert_eq!(from_concrete.describe(), "test-op");
        assert_eq!(
            from_boxed.downcast_ref::<TestOp>().expect("typed").data,
            [2]
        );
    }

    #[test]
    fn msg_clone_is_shallow_for_control_payloads() {
        let msg = Msg::Control {
            call: CallId::from_raw(3),
            target: ObjectId::from_raw(4),
            op: ControlOp::new(TestOp {
                data: vec![0; 4096],
            }),
        };
        let dup = msg.clone_for_redelivery().expect("messages are duplicable");
        let (Msg::Control { op: a, .. }, Msg::Control { op: b, .. }) = (&msg, &dup) else {
            panic!("clone changed the variant");
        };
        assert!(std::ptr::eq(
            a.downcast_ref::<TestOp>().expect("typed"),
            b.downcast_ref::<TestOp>().expect("typed"),
        ));
    }

    #[test]
    fn invoke_wire_size_includes_args() {
        let small = Msg::Invoke {
            call: CallId::from_raw(1),
            target: ObjectId::from_raw(1),
            function: "f".into(),
            args: vec![],
        };
        let big = Msg::Invoke {
            call: CallId::from_raw(1),
            target: ObjectId::from_raw(1),
            function: "f".into(),
            args: vec![Value::str("x".repeat(1000))],
        };
        assert!(big.wire_size() > small.wire_size() + 900);
    }

    #[test]
    fn fault_from_vm_error_maps_the_papers_problems() {
        assert_eq!(
            InvocationFault::from(VmError::MissingFunction("f".into())),
            InvocationFault::NoSuchFunction("f".into())
        );
        assert_eq!(
            InvocationFault::from(VmError::FunctionDisabled("f".into())),
            InvocationFault::FunctionDisabled("f".into())
        );
        assert!(matches!(
            InvocationFault::from(VmError::DivideByZero),
            InvocationFault::ExecutionFault(VmError::DivideByZero)
        ));
    }

    #[test]
    fn reply_constructors_build_control_replies() {
        let call = CallId::from_raw(5);
        let Msg::ControlReply { call: c, result } = Msg::control_ok(call, Ack) else {
            panic!("not a control reply");
        };
        assert_eq!(c, call);
        assert!(result.expect("ok").downcast_ref::<Ack>().is_some());
        let Msg::ControlReply { result, .. } = Msg::refused(call, "no vault") else {
            panic!("not a control reply");
        };
        assert_eq!(
            result.expect_err("refused"),
            InvocationFault::Refused("no vault".into())
        );
        let gone = InvocationFault::NoSuchObject(ObjectId::from_raw(4));
        let Msg::ControlReply { result, .. } = Msg::refused(call, gone.clone()) else {
            panic!("not a control reply");
        };
        assert_eq!(result.expect_err("fault kept"), gone);
    }

    #[test]
    fn call_id_accessor() {
        let m = Msg::Reply {
            call: CallId::from_raw(7),
            result: Ok(Value::Unit),
        };
        assert_eq!(m.call_id(), CallId::from_raw(7));
    }
}
