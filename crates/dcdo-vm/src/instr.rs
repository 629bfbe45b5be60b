//! The bytecode instruction set and code blocks.
//!
//! The instruction set is a small stack machine. The two call instructions
//! are where dynamic configurability bites:
//!
//! - [`Instr::CallDyn`] calls another dynamic function *in the same object*
//!   through the object's call resolver — for a DCDO that is the DFM, the
//!   single level of indirection the paper builds on. Resolution happens at
//!   call time, so a function disabled or removed since the code was built
//!   produces a runtime [`MissingFunction`](crate::VmError::MissingFunction)
//!   fault, exactly the missing-internal-function problem of §3.1.
//! - [`Instr::CallRemote`] invokes an exported function on *another object*;
//!   the thread suspends (its full VM state is parked) until the reply
//!   arrives — the blocked-on-an-outcall state in which the disappearing
//!   function/component problems strike.

use std::fmt;
use std::rc::Rc;

use dcdo_types::{FunctionName, FunctionSignature};
use serde::{Deserialize, Serialize};

use crate::value::Value;

/// A bytecode instruction.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Instr {
    /// Push a constant.
    Push(Value),
    /// Discard the top of the stack.
    Pop,
    /// Duplicate the top of the stack.
    Dup,
    /// Swap the two topmost values.
    Swap,
    /// Push argument `n` of the current call.
    LoadArg(u8),
    /// Push local variable `n`.
    LoadLocal(u8),
    /// Pop into local variable `n`.
    StoreLocal(u8),
    /// Integer addition: pops `b`, `a`; pushes `a + b`.
    Add,
    /// Integer subtraction: pops `b`, `a`; pushes `a - b`.
    Sub,
    /// Integer multiplication.
    Mul,
    /// Integer division. Faults on division by zero.
    Div,
    /// Integer remainder. Faults on division by zero.
    Rem,
    /// Integer negation.
    Neg,
    /// Boolean negation.
    Not,
    /// Boolean conjunction.
    And,
    /// Boolean disjunction.
    Or,
    /// Equality on any two values; pushes a boolean.
    Eq,
    /// Inequality.
    Ne,
    /// Integer less-than.
    Lt,
    /// Integer less-or-equal.
    Le,
    /// Integer greater-than.
    Gt,
    /// Integer greater-or-equal.
    Ge,
    /// Unconditional jump to instruction index.
    Jump(u32),
    /// Pop a boolean; jump if it is `false`.
    JumpIfFalse(u32),
    /// Pop a boolean; jump if it is `true`.
    JumpIfTrue(u32),
    /// Call a dynamic function in the same object through the call resolver
    /// (the DFM, for a DCDO). Pops `argc` arguments (last on top).
    CallDyn {
        /// The dynamic function to call.
        function: FunctionName,
        /// Number of arguments popped from the stack.
        argc: u8,
    },
    /// Call a host-provided native intrinsic. Pops `argc` arguments.
    CallNative {
        /// The intrinsic name.
        function: FunctionName,
        /// Number of arguments popped from the stack.
        argc: u8,
    },
    /// Call an exported function on another object. Pops `argc` arguments,
    /// then the target object reference. Suspends the thread.
    CallRemote {
        /// The exported function to invoke on the target.
        function: FunctionName,
        /// Number of arguments popped from the stack.
        argc: u8,
    },
    /// Return from the current function with the top of the stack (or unit
    /// if the stack is empty).
    Ret,
    /// Pop `n` values and push them as a list (bottom-most popped first).
    MakeList(u8),
    /// Pops index and list; pushes `list[index]`. Faults if out of range.
    ListGet,
    /// Pops value, index, and list; pushes the updated list.
    ListSet,
    /// Pops a list; pushes its length.
    ListLen,
    /// Pops value and list; pushes the list with the value appended.
    ListPush,
    /// Pops two strings; pushes their concatenation.
    StrConcat,
    /// Pops a string; pushes its length.
    StrLen,
    /// Charge `n` nanoseconds of simulated compute time.
    Work(u64),
    /// Push the value of the named persistent state slot (unit if absent).
    GlobalGet(FunctionName),
    /// Pop a value into the named persistent state slot.
    GlobalSet(FunctionName),
}

/// Number of distinct opcodes ([`Instr`] variants) — the length of the
/// per-opcode aggregate array kept by the profiling hook.
pub const OPCODE_COUNT: usize = 39;

/// Stable opcode names, indexed by [`Instr::opcode`].
pub const OPCODE_NAMES: [&str; OPCODE_COUNT] = [
    "push",
    "pop",
    "dup",
    "swap",
    "load_arg",
    "load_local",
    "store_local",
    "add",
    "sub",
    "mul",
    "div",
    "rem",
    "neg",
    "not",
    "and",
    "or",
    "eq",
    "ne",
    "lt",
    "le",
    "gt",
    "ge",
    "jump",
    "jump_if_false",
    "jump_if_true",
    "call_dyn",
    "call_native",
    "call_remote",
    "ret",
    "make_list",
    "list_get",
    "list_set",
    "list_len",
    "list_push",
    "str_concat",
    "str_len",
    "work",
    "global_get",
    "global_set",
];

impl Instr {
    /// A dense opcode index in declaration order, `0..OPCODE_COUNT`.
    ///
    /// Stable across builds (it follows the declaration order above), so the
    /// profiler's per-opcode aggregates are comparable between runs.
    pub const fn opcode(&self) -> usize {
        match self {
            Instr::Push(_) => 0,
            Instr::Pop => 1,
            Instr::Dup => 2,
            Instr::Swap => 3,
            Instr::LoadArg(_) => 4,
            Instr::LoadLocal(_) => 5,
            Instr::StoreLocal(_) => 6,
            Instr::Add => 7,
            Instr::Sub => 8,
            Instr::Mul => 9,
            Instr::Div => 10,
            Instr::Rem => 11,
            Instr::Neg => 12,
            Instr::Not => 13,
            Instr::And => 14,
            Instr::Or => 15,
            Instr::Eq => 16,
            Instr::Ne => 17,
            Instr::Lt => 18,
            Instr::Le => 19,
            Instr::Gt => 20,
            Instr::Ge => 21,
            Instr::Jump(_) => 22,
            Instr::JumpIfFalse(_) => 23,
            Instr::JumpIfTrue(_) => 24,
            Instr::CallDyn { .. } => 25,
            Instr::CallNative { .. } => 26,
            Instr::CallRemote { .. } => 27,
            Instr::Ret => 28,
            Instr::MakeList(_) => 29,
            Instr::ListGet => 30,
            Instr::ListSet => 31,
            Instr::ListLen => 32,
            Instr::ListPush => 33,
            Instr::StrConcat => 34,
            Instr::StrLen => 35,
            Instr::Work(_) => 36,
            Instr::GlobalGet(_) => 37,
            Instr::GlobalSet(_) => 38,
        }
    }

    /// The stable short name of this instruction's opcode.
    pub const fn opcode_name(&self) -> &'static str {
        OPCODE_NAMES[self.opcode()]
    }
}

impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Instr::CallDyn { function, argc } => write!(f, "call_dyn {function}/{argc}"),
            Instr::CallNative { function, argc } => write!(f, "call_native {function}/{argc}"),
            Instr::CallRemote { function, argc } => write!(f, "call_remote {function}/{argc}"),
            Instr::Push(v) => write!(f, "push {v}"),
            Instr::GlobalGet(k) => write!(f, "global_get {k}"),
            Instr::GlobalSet(k) => write!(f, "global_set {k}"),
            other => write!(f, "{}", format!("{other:?}").to_lowercase()),
        }
    }
}

/// The compiled body of one dynamic-function implementation.
///
/// A code block records its declared signature (checked at call
/// boundaries), the number of local-variable slots, and the instructions.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CodeBlock {
    signature: FunctionSignature,
    locals: u8,
    instrs: Rc<[Instr]>,
}

impl CodeBlock {
    /// Creates a code block.
    pub fn new(signature: FunctionSignature, locals: u8, instrs: Vec<Instr>) -> Self {
        CodeBlock {
            signature,
            locals,
            instrs: instrs.into(),
        }
    }

    /// The declared signature of the function this block implements.
    pub fn signature(&self) -> &FunctionSignature {
        &self.signature
    }

    /// The number of local-variable slots the block uses.
    pub fn locals(&self) -> u8 {
        self.locals
    }

    /// The instruction sequence.
    pub fn instrs(&self) -> &[Instr] {
        &self.instrs
    }

    /// Returns the number of instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// Returns `true` if the block has no instructions (it then implicitly
    /// returns unit).
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// Names of dynamic functions this block calls via [`Instr::CallDyn`] —
    /// the raw material for automatic structural-dependency analysis
    /// (§3.2 suggests structural dependencies "could be automated via static
    /// analysis of source code").
    pub fn dynamic_callees(&self) -> Vec<FunctionName> {
        let mut out: Vec<FunctionName> = self
            .instrs
            .iter()
            .filter_map(|i| match i {
                Instr::CallDyn { function, .. } => Some(function.clone()),
                _ => None,
            })
            .collect();
        out.sort();
        out.dedup();
        out
    }

    /// Validates internal consistency: all jump targets in range, local
    /// slots within the declared count, and argument loads within the
    /// declared arity.
    pub fn validate(&self) -> Result<(), CodeValidationError> {
        let len = self.instrs.len() as u32;
        let arity = self.signature.params().len() as u8;
        for (pc, instr) in self.instrs.iter().enumerate() {
            match *instr {
                Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) if t >= len => {
                    return Err(CodeValidationError::JumpOutOfRange { pc, target: t });
                }
                Instr::LoadArg(n) if n >= arity => {
                    return Err(CodeValidationError::ArgOutOfRange { pc, arg: n, arity });
                }
                Instr::LoadLocal(n) | Instr::StoreLocal(n) if n >= self.locals => {
                    return Err(CodeValidationError::LocalOutOfRange {
                        pc,
                        local: n,
                        locals: self.locals,
                    });
                }
                _ => {}
            }
        }
        Ok(())
    }
}

/// Error returned by [`CodeBlock::validate`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodeValidationError {
    /// A jump targets an instruction index outside the block.
    JumpOutOfRange {
        /// Offending instruction index.
        pc: usize,
        /// The out-of-range target.
        target: u32,
    },
    /// A `LoadArg` names an argument beyond the declared arity.
    ArgOutOfRange {
        /// Offending instruction index.
        pc: usize,
        /// The argument index loaded.
        arg: u8,
        /// The declared arity.
        arity: u8,
    },
    /// A local access names a slot beyond the declared local count.
    LocalOutOfRange {
        /// Offending instruction index.
        pc: usize,
        /// The local slot accessed.
        local: u8,
        /// The declared local count.
        locals: u8,
    },
}

impl fmt::Display for CodeValidationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodeValidationError::JumpOutOfRange { pc, target } => {
                write!(f, "instruction {pc}: jump target {target} out of range")
            }
            CodeValidationError::ArgOutOfRange { pc, arg, arity } => {
                write!(f, "instruction {pc}: argument {arg} beyond arity {arity}")
            }
            CodeValidationError::LocalOutOfRange { pc, local, locals } => {
                write!(f, "instruction {pc}: local {local} beyond {locals} slots")
            }
        }
    }
}

impl std::error::Error for CodeValidationError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(s: &str) -> FunctionSignature {
        s.parse().expect("valid signature")
    }

    #[test]
    fn dynamic_callees_are_deduplicated_and_sorted() {
        let block = CodeBlock::new(
            sig("f() -> unit"),
            0,
            vec![
                Instr::CallDyn {
                    function: "zeta".into(),
                    argc: 0,
                },
                Instr::Pop,
                Instr::CallDyn {
                    function: "alpha".into(),
                    argc: 0,
                },
                Instr::Pop,
                Instr::CallDyn {
                    function: "zeta".into(),
                    argc: 0,
                },
                Instr::Ret,
            ],
        );
        let callees: Vec<String> = block
            .dynamic_callees()
            .iter()
            .map(|f| f.as_str().to_owned())
            .collect();
        assert_eq!(callees, vec!["alpha", "zeta"]);
    }

    #[test]
    fn validate_accepts_well_formed_code() {
        let block = CodeBlock::new(
            sig("inc(int) -> int"),
            1,
            vec![
                Instr::LoadArg(0),
                Instr::Push(Value::Int(1)),
                Instr::Add,
                Instr::StoreLocal(0),
                Instr::LoadLocal(0),
                Instr::Ret,
            ],
        );
        assert_eq!(block.validate(), Ok(()));
        assert_eq!(block.len(), 6);
        assert!(!block.is_empty());
    }

    #[test]
    fn validate_rejects_bad_jump() {
        let block = CodeBlock::new(sig("f() -> unit"), 0, vec![Instr::Jump(5)]);
        assert!(matches!(
            block.validate(),
            Err(CodeValidationError::JumpOutOfRange { pc: 0, target: 5 })
        ));
    }

    #[test]
    fn validate_rejects_bad_arg_and_local() {
        let block = CodeBlock::new(sig("f(int) -> int"), 1, vec![Instr::LoadArg(1)]);
        assert!(matches!(
            block.validate(),
            Err(CodeValidationError::ArgOutOfRange {
                arg: 1,
                arity: 1,
                ..
            })
        ));
        let block = CodeBlock::new(sig("f() -> unit"), 1, vec![Instr::StoreLocal(2)]);
        assert!(matches!(
            block.validate(),
            Err(CodeValidationError::LocalOutOfRange {
                local: 2,
                locals: 1,
                ..
            })
        ));
    }

    #[test]
    fn display_of_calls_shows_arity() {
        let i = Instr::CallDyn {
            function: "compare".into(),
            argc: 2,
        };
        assert_eq!(i.to_string(), "call_dyn compare/2");
    }

    #[test]
    fn validation_errors_display() {
        let e = CodeValidationError::JumpOutOfRange { pc: 3, target: 9 };
        assert!(e.to_string().contains("jump target 9"));
    }
}
