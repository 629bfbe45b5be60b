//! Assembler-style builders for function bodies.
//!
//! [`FunctionBuilder`] provides a fluent API with symbolic labels for
//! writing the bytecode bodies of dynamic functions, the way component
//! authors produce "executable code" in this reproduction.
//!
//! # Examples
//!
//! A `max3(int, int, int) -> int` built with labels:
//!
//! ```
//! use dcdo_vm::FunctionBuilder;
//!
//! let code = FunctionBuilder::parse("max3(int, int, int) -> int")?
//!     .load_arg(0)
//!     .load_arg(1)
//!     .call_native("max", 2)
//!     .load_arg(2)
//!     .call_native("max", 2)
//!     .ret()
//!     .build()?;
//! assert_eq!(code.signature().to_string(), "max3(int, int, int) -> int");
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use std::collections::HashMap;
use std::fmt;

use dcdo_types::{FunctionSignature, ParseSignatureError};

use crate::instr::{CodeBlock, CodeValidationError, Instr, Opcode, Operand};
use crate::value::Value;

/// A symbolic jump target handed out by [`FunctionBuilder::new_label`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Label(usize);

/// Errors produced while assembling a function body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The signature string did not parse.
    Signature(ParseSignatureError),
    /// A label was referenced in a jump but never bound with
    /// [`FunctionBuilder::bind`].
    UnboundLabel(usize),
    /// A label was bound twice.
    RebindLabel(usize),
    /// The assembled code failed validation.
    Invalid(CodeValidationError),
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::Signature(e) => write!(f, "{e}"),
            BuildError::UnboundLabel(l) => write!(f, "label {l} referenced but never bound"),
            BuildError::RebindLabel(l) => write!(f, "label {l} bound twice"),
            BuildError::Invalid(e) => write!(f, "invalid code: {e}"),
        }
    }
}

impl std::error::Error for BuildError {}

impl From<ParseSignatureError> for BuildError {
    fn from(e: ParseSignatureError) -> Self {
        BuildError::Signature(e)
    }
}

impl From<CodeValidationError> for BuildError {
    fn from(e: CodeValidationError) -> Self {
        BuildError::Invalid(e)
    }
}

enum Slot {
    Fixed(Instr),
    /// A jump opcode whose target is a label, resolved in `build`.
    Jump(Opcode, Label),
}

/// Fluent assembler for one function body.
pub struct FunctionBuilder {
    signature: FunctionSignature,
    locals: u8,
    slots: Vec<Slot>,
    labels: Vec<Option<u32>>,
}

impl FunctionBuilder {
    /// Starts a builder for a function with the given signature.
    pub fn new(signature: FunctionSignature) -> Self {
        FunctionBuilder {
            signature,
            locals: 0,
            slots: Vec::new(),
            labels: Vec::new(),
        }
    }

    /// Starts a builder from a signature string like
    /// `"compare(int, int) -> int"`.
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::Signature`] if the string does not parse.
    pub fn parse(signature: &str) -> Result<Self, BuildError> {
        Ok(FunctionBuilder::new(signature.parse()?))
    }

    /// Declares the number of local-variable slots.
    pub fn locals(&mut self, n: u8) -> &mut Self {
        self.locals = n;
        self
    }

    /// Allocates a fresh, unbound label.
    pub fn new_label(&mut self) -> Label {
        self.labels.push(None);
        Label(self.labels.len() - 1)
    }

    /// Binds `label` to the next instruction position.
    pub fn bind(&mut self, label: Label) -> &mut Self {
        let pos = self.slots.len() as u32;
        let slot = &mut self.labels[label.0];
        assert!(slot.is_none(), "label bound twice (checked again in build)");
        *slot = Some(pos);
        self
    }

    /// Emits a raw instruction.
    pub fn instr(&mut self, instr: Instr) -> &mut Self {
        self.slots.push(Slot::Fixed(instr));
        self
    }

    /// Pushes a constant.
    pub fn push(&mut self, value: impl Into<Value>) -> &mut Self {
        self.instr(Instr::Push(value.into()))
    }

    /// Pushes an integer constant.
    pub fn push_int(&mut self, n: i64) -> &mut Self {
        self.push(n)
    }

    /// Pops the top of the stack.
    pub fn pop(&mut self) -> &mut Self {
        self.instr(Instr::Pop)
    }

    /// Duplicates the top of the stack.
    pub fn dup(&mut self) -> &mut Self {
        self.instr(Instr::Dup)
    }

    /// Swaps the two topmost values.
    pub fn swap(&mut self) -> &mut Self {
        self.instr(Instr::Swap)
    }

    /// Loads argument `n`.
    pub fn load_arg(&mut self, n: u8) -> &mut Self {
        self.instr(Instr::LoadArg(n))
    }

    /// Loads local `n`.
    pub fn load_local(&mut self, n: u8) -> &mut Self {
        self.instr(Instr::LoadLocal(n))
    }

    /// Stores into local `n`.
    pub fn store_local(&mut self, n: u8) -> &mut Self {
        self.instr(Instr::StoreLocal(n))
    }

    /// Integer addition.
    pub fn add(&mut self) -> &mut Self {
        self.instr(Instr::Add)
    }

    /// Integer subtraction.
    pub fn sub(&mut self) -> &mut Self {
        self.instr(Instr::Sub)
    }

    /// Integer multiplication.
    pub fn mul(&mut self) -> &mut Self {
        self.instr(Instr::Mul)
    }

    /// Integer division.
    pub fn div(&mut self) -> &mut Self {
        self.instr(Instr::Div)
    }

    /// Integer remainder.
    pub fn rem(&mut self) -> &mut Self {
        self.instr(Instr::Rem)
    }

    /// Integer negation.
    pub fn neg(&mut self) -> &mut Self {
        self.instr(Instr::Neg)
    }

    /// Boolean negation.
    pub fn not(&mut self) -> &mut Self {
        self.instr(Instr::Not)
    }

    /// Equality test.
    pub fn eq(&mut self) -> &mut Self {
        self.instr(Instr::Eq)
    }

    /// Inequality test.
    pub fn ne(&mut self) -> &mut Self {
        self.instr(Instr::Ne)
    }

    /// Integer less-than.
    pub fn lt(&mut self) -> &mut Self {
        self.instr(Instr::Lt)
    }

    /// Integer less-or-equal.
    pub fn le(&mut self) -> &mut Self {
        self.instr(Instr::Le)
    }

    /// Integer greater-than.
    pub fn gt(&mut self) -> &mut Self {
        self.instr(Instr::Gt)
    }

    /// Integer greater-or-equal.
    pub fn ge(&mut self) -> &mut Self {
        self.instr(Instr::Ge)
    }

    /// Unconditional jump to `label`.
    pub fn jump(&mut self, label: Label) -> &mut Self {
        self.branch(Opcode::Jump, label)
    }

    /// Jump to `label` if the popped boolean is false.
    pub fn jump_if_false(&mut self, label: Label) -> &mut Self {
        self.branch(Opcode::JumpIfFalse, label)
    }

    /// Jump to `label` if the popped boolean is true.
    pub fn jump_if_true(&mut self, label: Label) -> &mut Self {
        self.branch(Opcode::JumpIfTrue, label)
    }

    /// Emits the jump opcode `op` to `label`.
    pub(crate) fn branch(&mut self, op: Opcode, label: Label) -> &mut Self {
        self.slots.push(Slot::Jump(op, label));
        self
    }

    /// Calls a dynamic function in the same object (through the DFM).
    pub fn call_dyn(&mut self, function: &str, argc: u8) -> &mut Self {
        self.instr(Instr::CallDyn {
            function: function.into(),
            argc,
        })
    }

    /// Calls a native intrinsic.
    pub fn call_native(&mut self, function: &str, argc: u8) -> &mut Self {
        self.instr(Instr::CallNative {
            function: function.into(),
            argc,
        })
    }

    /// Calls an exported function on another object (suspending outcall).
    /// Expects the target object reference below the arguments.
    pub fn call_remote(&mut self, function: &str, argc: u8) -> &mut Self {
        self.instr(Instr::CallRemote {
            function: function.into(),
            argc,
        })
    }

    /// Returns with the top of the stack.
    pub fn ret(&mut self) -> &mut Self {
        self.instr(Instr::Ret)
    }

    /// Builds a list from the top `n` values.
    pub fn make_list(&mut self, n: u8) -> &mut Self {
        self.instr(Instr::MakeList(n))
    }

    /// Charges simulated compute time.
    pub fn work(&mut self, nanos: u64) -> &mut Self {
        self.instr(Instr::Work(nanos))
    }

    /// Pushes the value of a persistent state slot.
    pub fn global_get(&mut self, key: &str) -> &mut Self {
        self.instr(Instr::GlobalGet(key.into()))
    }

    /// Pops a value into a persistent state slot.
    pub fn global_set(&mut self, key: &str) -> &mut Self {
        self.instr(Instr::GlobalSet(key.into()))
    }

    /// Resolves labels, validates, and produces the [`CodeBlock`].
    ///
    /// # Errors
    ///
    /// Returns [`BuildError::UnboundLabel`] if any referenced label was
    /// never bound, or [`BuildError::Invalid`] if the assembled code fails
    /// [`CodeBlock::validate`].
    pub fn build(&mut self) -> Result<CodeBlock, BuildError> {
        let mut bound: HashMap<usize, u32> = HashMap::new();
        for (i, slot) in self.labels.iter().enumerate() {
            if let Some(pos) = slot {
                bound.insert(i, *pos);
            }
        }
        let resolve = |label: &Label| -> Result<u32, BuildError> {
            bound
                .get(&label.0)
                .copied()
                .ok_or(BuildError::UnboundLabel(label.0))
        };
        let mut instrs = Vec::with_capacity(self.slots.len());
        for slot in &self.slots {
            instrs.push(match slot {
                Slot::Fixed(i) => i.clone(),
                Slot::Jump(op, l) => op.with(Operand::Jump(resolve(l)?)),
            });
        }
        let block = CodeBlock::new(self.signature.clone(), self.locals, instrs);
        block.validate()?;
        Ok(block)
    }
}

impl fmt::Debug for FunctionBuilder {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FunctionBuilder")
            .field("signature", &self.signature.to_string())
            .field("instrs", &self.slots.len())
            .field("labels", &self.labels.len())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn straight_line_build() {
        let code = FunctionBuilder::parse("add(int, int) -> int")
            .expect("signature")
            .load_arg(0)
            .load_arg(1)
            .add()
            .ret()
            .build()
            .expect("valid");
        assert_eq!(code.len(), 4);
        assert_eq!(code.signature().name().as_str(), "add");
    }

    #[test]
    fn labels_resolve_forward_and_backward() {
        // while (local0 < arg0) local0 += 1; return local0
        let mut b = FunctionBuilder::parse("count(int) -> int").expect("signature");
        b.locals(1);
        let top = b.new_label();
        let done = b.new_label();
        b.bind(top)
            .load_local(0)
            .load_arg(0)
            .lt()
            .jump_if_false(done)
            .load_local(0)
            .push_int(1)
            .add()
            .store_local(0)
            .jump(top)
            .bind(done)
            .load_local(0)
            .ret();
        let code = b.build().expect("valid");
        assert!(matches!(code.instrs()[3], Instr::JumpIfFalse(9)));
        assert!(matches!(code.instrs()[8], Instr::Jump(0)));
    }

    #[test]
    fn unbound_label_is_an_error() {
        let mut b = FunctionBuilder::parse("f() -> unit").expect("signature");
        let l = b.new_label();
        b.jump(l);
        assert_eq!(b.build().unwrap_err(), BuildError::UnboundLabel(0));
    }

    #[test]
    fn invalid_code_is_rejected_at_build() {
        let mut b = FunctionBuilder::parse("f() -> unit").expect("signature");
        b.load_arg(0); // arity is 0
        assert!(matches!(b.build(), Err(BuildError::Invalid(_))));
    }

    #[test]
    fn bad_signature_is_rejected() {
        assert!(matches!(
            FunctionBuilder::parse("not a signature"),
            Err(BuildError::Signature(_))
        ));
    }

    #[test]
    #[should_panic(expected = "bound twice")]
    fn rebinding_a_label_panics() {
        let mut b = FunctionBuilder::parse("f() -> unit").expect("signature");
        let l = b.new_label();
        b.bind(l);
        b.bind(l);
    }

    #[test]
    fn build_errors_display() {
        assert!(BuildError::UnboundLabel(3).to_string().contains("label 3"));
        assert!(BuildError::RebindLabel(1).to_string().contains("twice"));
    }
}
