//! The wire protocol of the distributed object system.
//!
//! Every interaction between Legion objects is a message: user-level method
//! invocations ([`Msg::Invoke`]/[`Msg::Reply`]) carry dynamic-function calls
//! with [`Value`] arguments; system-level operations
//! ([`Msg::Control`]/[`Msg::ControlReply`]) carry typed control payloads
//! (binding registration, component reads, configuration operations, …)
//! as type-erased [`ControlOp`]s, so higher layers (the DCDO crate) can
//! add operations without this crate knowing them. Each protocol declares
//! its payloads once, in a [`control_ops!`](crate::control_ops) table, and
//! receivers decode through it.

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
/// Implemented by the [`control_ops!`](crate::control_ops) tables of the
/// binding-agent, vault, host, class, ICO, DCDO, manager and group
/// protocols, which give each payload type its wire name and size in one
/// row. A receiver reads a payload through a table's [`OpTable::decode`].
pub trait ControlPayload: Any + fmt::Debug {
    /// On-the-wire size of the payload in bytes.
    fn wire_size(&self) -> u64;

    /// Short operation name for traces and dead-letter diagnostics.
    fn describe(&self) -> &'static str;
}

/// A shared, type-erased control operation.
///
/// Control payloads are immutable once sent, but the RPC machinery must
/// keep a copy for every retry, the engine for every duplicate delivery,
/// and fan-out callers one per destination, so all of those are pointer
/// copies and the payload is never deep-copied after construction. A
/// zero-sized payload (an [`Ack`], a query without arguments) is held by a
/// `'static` reference and costs no heap cell; any other is [`Rc`]-shared.
#[derive(Clone)]
pub struct ControlOp(Held);

#[derive(Clone)]
enum Held {
    Static(&'static dyn ControlPayload),
    Shared(Rc<dyn ControlPayload>),
}

impl ControlOp {
    /// Wraps a concrete payload.
    pub fn new<T: ControlPayload>(op: T) -> Self {
        if size_of::<T>() == 0 {
            // Boxing a zero-sized value allocates nothing, and leaking the
            // box frees nothing.
            ControlOp(Held::Static(Box::leak(Box::new(op))))
        } else {
            ControlOp(Held::Shared(Rc::new(op)))
        }
    }

    /// The payload as the concrete operation type, if it is one.
    pub fn downcast_ref<T: ControlPayload>(&self) -> Option<&T> {
        (&**self as &dyn Any).downcast_ref()
    }
}

impl Deref for ControlOp {
    type Target = dyn ControlPayload;

    fn deref(&self) -> &Self::Target {
        match &self.0 {
            Held::Static(op) => *op,
            Held::Shared(op) => &**op,
        }
    }
}

impl fmt::Debug for ControlOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        (**self).fmt(f)
    }
}

impl<T: ControlPayload> From<T> for ControlOp {
    fn from(op: T) -> Self {
        ControlOp::new(op)
    }
}

/// A borrowed, typed view of the payloads one
/// [`control_ops!`](crate::control_ops) table declares: one variant per
/// row.
pub trait OpTable<'a>: Sized {
    /// The rows' wire names, in row order.
    const NAMES: &'static [&'static str];

    /// The view of `op`, or `None` if no row of the table declares its
    /// type.
    fn decode(op: &'a ControlOp) -> Option<Self>;
}

/// Declares control-payload tables, one `enum` per table and one row per
/// payload type: `Type = "wire-name", size;`. The size is the payload's
/// on-the-wire byte count, a constant or `|op| …` of the payload; wire
/// sizes set simulated time, so a row's size is part of the protocol.
///
/// Each row implements [`ControlPayload`] for its type, and each table
/// declares a borrowed view enum with one variant per row, named after the
/// type, whose [`OpTable`] impl decodes a [`ControlOp`] and lists the rows'
/// names. A [`LegionObject`](crate::object::LegionObject) names the table
/// it serves and matches on the view, so a row without a handler does not
/// compile.
#[macro_export]
macro_rules! control_ops {
    (@row $head:tt $done:tt $ty:ident = $name:literal, $size:literal; $($rest:tt)*) => {
        $crate::control_ops!(@row $head $done $ty = $name, |_op| $size; $($rest)*);
    };
    (@row $head:tt [$($done:tt)*]
        $ty:ident = $name:literal, |$op:ident| $size:expr; $($rest:tt)*) => {
        impl $crate::ControlPayload for $ty {
            fn wire_size(&self) -> u64 {
                let $op = self;
                $size
            }

            fn describe(&self) -> &'static str {
                $name
            }
        }
        $crate::control_ops!(@row $head [$($done)* $ty = $name;] $($rest)*);
    };
    (@row [$(#[$meta:meta])* $vis:vis $table:ident] [$($ty:ident = $name:literal;)*]) => {
        $(#[$meta])*
        #[derive(Debug, Clone, Copy)]
        $vis enum $table<'a> {
            $(
                #[doc = concat!("A [`", stringify!($ty), "`], `", $name, "` on the wire.")]
                $ty(&'a $ty),
            )*
        }

        impl<'a> $crate::OpTable<'a> for $table<'a> {
            const NAMES: &'static [&'static str] = &[$($name),*];

            fn decode(op: &'a $crate::ControlOp) -> Option<Self> {
                $(
                    if let Some(op) = op.downcast_ref::<$ty>() {
                        return Some($table::$ty(op));
                    }
                )*
                None
            }
        }
    };
    ($($(#[$meta:meta])* $vis:vis enum $table:ident { $($rows:tt)* })+) => {
        $($crate::control_ops!(@row [$(#[$meta])* $vis $table] [] $($rows)*);)+
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

control_ops! {
    /// The reply every protocol shares.
    pub enum AckReply { Ack = "ack", 64; }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct TestOp {
        data: Vec<u8>,
    }

    #[derive(Debug, Clone, PartialEq, Eq)]
    struct Nothing;

    control_ops! {
        /// Test payloads.
        enum TestOps {
            TestOp = "test-op", |op| 16 + op.data.len() as u64;
            Nothing = "nothing", 8;
        }
    }

    fn test_op(op: &ControlOp) -> &TestOp {
        match TestOps::decode(op) {
            Some(TestOps::TestOp(op)) => op,
            other => panic!("not a test op: {other:?}"),
        }
    }

    #[test]
    fn control_payload_downcasts() {
        let op = ControlOp::new(TestOp {
            data: vec![1, 2, 3],
        });
        assert_eq!(op.describe(), "test-op");
        assert_eq!(op.wire_size(), 19);
        assert_eq!(test_op(&op).data, vec![1, 2, 3]);
        assert_eq!(ControlOp::new(Nothing).wire_size(), 8);
        assert_eq!(TestOps::NAMES, ["test-op", "nothing"]);
        assert!(AckReply::decode(&op).is_none());
        assert!(matches!(
            AckReply::decode(&ControlOp::new(Ack)),
            Some(AckReply::Ack(Ack))
        ));
    }

    #[test]
    fn control_op_clone_shares_the_payload() {
        let op = ControlOp::new(TestOp { data: vec![9] });
        let cloned = op.clone();
        assert_eq!(test_op(&cloned), test_op(&op));
        // `Rc`-shared, not deep-copied.
        assert!(std::ptr::eq(test_op(&op), test_op(&cloned)));
    }

    #[test]
    fn control_op_holds_a_zero_sized_payload_without_a_heap_cell() {
        let nothing: ControlOp = Nothing.into();
        assert!(matches!(nothing.0, Held::Static(_)));
        assert!(matches!(nothing.clone().0, Held::Static(_)));
        assert!(matches!(
            TestOps::decode(&nothing),
            Some(TestOps::Nothing(Nothing))
        ));
        let sized: ControlOp = TestOp { data: vec![] }.into();
        assert!(matches!(sized.0, Held::Shared(_)));
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
        assert!(std::ptr::eq(test_op(a), test_op(b)));
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
        let ok = result.expect("ok");
        assert!(matches!(AckReply::decode(&ok), Some(AckReply::Ack(Ack))));
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
