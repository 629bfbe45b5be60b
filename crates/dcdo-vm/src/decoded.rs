//! Pre-decoded, direct-threaded code with superinstruction fusion.
//!
//! The wire format ([`crate::codec`]) and the authoring format
//! ([`Instr`]/[`CodeBlock`]) are untouched: a [`DecodedCode`] is a purely
//! in-memory form built once per code block, by the component that holds it
//! (fused) or by a resolver that loads a bare block. Decoding does three
//! things:
//!
//! 1. **Flattens operands** — immediates, local/arg slot indices, and jump
//!    targets are inlined into a single `DecodedOp` array so the hot loop
//!    never chases the original instruction stream.
//! 2. **Pre-resolves jump targets** to *decoded* indices, so branches are a
//!    single assignment at run time.
//! 3. **Fuses hot sequences into superinstructions** — operand/operand/
//!    arith-or-compare runs ending in a store, return, or branch collapse
//!    into one dispatch. The peephole selector is deterministic (greedy,
//!    longest-match-first, in instruction order) and never fuses across a
//!    jump target, so every branch still lands on an op boundary.
//!
//! Each superinstruction knows its constituent original opcodes, and the
//! interpreter charges fuel and profiling counters **per constituent, in
//! original program order** — the profiler's tables are exact in
//! original-opcode terms whether fusion is on or off, and a fault inside a
//! fused op is attributed to the same instruction the unfused program would
//! have faulted at.
//!
//! Decoded code is held by the issuing resolver next to its
//! generation-stamped slot table: the configuration operations that expire
//! [`CallToken`](crate::CallToken)s are exactly the ones that drop or
//! replace cached [`DecodedCode`], so a stale decode can never outlive the
//! configuration it was built from. [`DecodeCacheStats`] counts that
//! lifecycle.

use std::rc::Rc;

use dcdo_types::{FunctionName, FunctionSignature};

use crate::error::VmError;
use crate::instr::{CodeBlock, Instr};
use crate::value::Value;

/// Lifecycle counters for one resolver's decode cache.
///
/// `decodes` counts cache fills (one per code block loaded, whether decoded
/// there or shared with its component), `hits` counts
/// resolutions served from already-decoded code, and `invalidations` counts
/// decoded blocks dropped or replaced by a configuration operation — the
/// same operations that expire outstanding [`CallToken`](crate::CallToken)s.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeCacheStats {
    /// Code blocks loaded (cache fills).
    pub decodes: u64,
    /// Resolutions served from cached decoded code.
    pub hits: u64,
    /// Decoded blocks dropped or replaced by configuration operations.
    pub invalidations: u64,
}

/// A fused operand: where a value comes from without touching the operand
/// stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum Operand {
    /// Local slot `n` (original opcode `load_local`).
    Local(u8),
    /// Argument `n` (original opcode `load_arg`).
    Arg(u8),
    /// An inlined constant (original opcode `push`).
    Imm(Value),
}

impl Operand {
    /// The original opcode this operand stands for, for exact profiling.
    pub(crate) fn opcode(&self) -> usize {
        match self {
            Operand::Local(_) => 5,
            Operand::Arg(_) => 4,
            Operand::Imm(_) => 0,
        }
    }

    fn from_instr(instr: &Instr) -> Option<Operand> {
        match instr {
            Instr::LoadLocal(n) => Some(Operand::Local(*n)),
            Instr::LoadArg(n) => Some(Operand::Arg(*n)),
            Instr::Push(v) => Some(Operand::Imm(v.clone())),
            _ => None,
        }
    }
}

/// An integer arithmetic kind fused into a superinstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ArithKind {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
}

impl ArithKind {
    fn from_instr(instr: &Instr) -> Option<ArithKind> {
        match instr {
            Instr::Add => Some(ArithKind::Add),
            Instr::Sub => Some(ArithKind::Sub),
            Instr::Mul => Some(ArithKind::Mul),
            Instr::Div => Some(ArithKind::Div),
            Instr::Rem => Some(ArithKind::Rem),
            _ => None,
        }
    }

    /// The original opcode, for exact profiling.
    pub(crate) fn opcode(self) -> usize {
        match self {
            ArithKind::Add => 7,
            ArithKind::Sub => 8,
            ArithKind::Mul => 9,
            ArithKind::Div => 10,
            ArithKind::Rem => 11,
        }
    }

    /// Evaluates `a op b` with the legacy stack discipline's error order:
    /// `b` was popped (and type-checked) first, then `a`, then the
    /// divide-by-zero check.
    pub(crate) fn eval(self, a: &Value, b: &Value) -> Result<i64, VmError> {
        let b = int_of(b)?;
        let a = int_of(a)?;
        match self {
            ArithKind::Add => Ok(a.wrapping_add(b)),
            ArithKind::Sub => Ok(a.wrapping_sub(b)),
            ArithKind::Mul => Ok(a.wrapping_mul(b)),
            ArithKind::Div if b == 0 => Err(VmError::DivideByZero),
            ArithKind::Div => Ok(a.wrapping_div(b)),
            ArithKind::Rem if b == 0 => Err(VmError::DivideByZero),
            ArithKind::Rem => Ok(a.wrapping_rem(b)),
        }
    }
}

/// A comparison kind fused into a compare-and-branch superinstruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CmpKind {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpKind {
    fn from_instr(instr: &Instr) -> Option<CmpKind> {
        match instr {
            Instr::Eq => Some(CmpKind::Eq),
            Instr::Ne => Some(CmpKind::Ne),
            Instr::Lt => Some(CmpKind::Lt),
            Instr::Le => Some(CmpKind::Le),
            Instr::Gt => Some(CmpKind::Gt),
            Instr::Ge => Some(CmpKind::Ge),
            _ => None,
        }
    }

    /// The original opcode, for exact profiling.
    pub(crate) fn opcode(self) -> usize {
        match self {
            CmpKind::Eq => 16,
            CmpKind::Ne => 17,
            CmpKind::Lt => 18,
            CmpKind::Le => 19,
            CmpKind::Gt => 20,
            CmpKind::Ge => 21,
        }
    }

    /// Evaluates the comparison. `Eq`/`Ne` compare any two values and never
    /// fault; the ordered comparisons type-check `b` first, then `a`,
    /// matching the legacy pop order.
    pub(crate) fn eval(self, a: &Value, b: &Value) -> Result<bool, VmError> {
        match self {
            CmpKind::Eq => Ok(a == b),
            CmpKind::Ne => Ok(a != b),
            _ => {
                let b = int_of(b)?;
                let a = int_of(a)?;
                Ok(match self {
                    CmpKind::Lt => a < b,
                    CmpKind::Le => a <= b,
                    CmpKind::Gt => a > b,
                    CmpKind::Ge => a >= b,
                    CmpKind::Eq | CmpKind::Ne => unreachable!(),
                })
            }
        }
    }
}

fn int_of(v: &Value) -> Result<i64, VmError> {
    v.as_int().ok_or(VmError::TypeMismatch {
        expected: dcdo_types::TypeTag::Int,
        found: v.type_tag(),
    })
}

/// One pre-decoded operation: either a single original instruction with its
/// operands inlined and jump targets rewritten to decoded indices, or a
/// superinstruction covering 2–5 original instructions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum DecodedOp {
    // ---- single original instructions (operands inlined) ----------------
    Push(Value),
    Pop,
    Dup,
    Swap,
    LoadArg(u8),
    LoadLocal(u8),
    StoreLocal(u8),
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Neg,
    Not,
    And,
    Or,
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    /// Unconditional jump to a *decoded* index.
    Jump(u32),
    /// Pop a boolean; jump to a decoded index if false.
    JumpIfFalse(u32),
    /// Pop a boolean; jump to a decoded index if true.
    JumpIfTrue(u32),
    /// Dynamic call with a per-block inline-cache site index: the frame's
    /// `sites[site]` slot caches the [`CallToken`](crate::CallToken) this
    /// exact call site last redeemed.
    CallDyn {
        function: FunctionName,
        argc: u8,
        site: u32,
    },
    CallNative {
        function: FunctionName,
        argc: u8,
    },
    CallRemote {
        function: FunctionName,
        argc: u8,
    },
    Ret,
    MakeList(u8),
    ListGet,
    ListSet,
    ListLen,
    ListPush,
    StrConcat,
    StrLen,
    Work(u64),
    GlobalGet(FunctionName),
    GlobalSet(FunctionName),
    // ---- superinstructions (constituents charged individually) ----------
    /// `[a, b, cmp, jump_if_{false,true}]` — compare and branch without
    /// touching the operand stack. Branches (to a decoded index) when the
    /// comparison equals `when`.
    BinBr {
        a: Operand,
        b: Operand,
        cmp: CmpKind,
        when: bool,
        target: u32,
    },
    /// `[a, b, arith, store_local dst]`.
    BinStore {
        a: Operand,
        b: Operand,
        op: ArithKind,
        dst: u8,
    },
    /// `[a, b, arith, store_local dst, jump]` — the canonical counted-loop
    /// latch: compute, store, and jump back to the loop head (a decoded
    /// index) in one dispatch.
    BinStoreJmp {
        a: Operand,
        b: Operand,
        op: ArithKind,
        dst: u8,
        target: u32,
    },
    /// `[a, b, arith, ret]`.
    BinRet {
        a: Operand,
        b: Operand,
        op: ArithKind,
    },
    /// `[a, b, arith]` — result pushed.
    BinPush {
        a: Operand,
        b: Operand,
        op: ArithKind,
    },
    /// `[src, store_local dst]` — a local/arg/constant shuffle.
    OpStore {
        src: Operand,
        dst: u8,
    },
    /// `[src, ret]`.
    OpRet {
        src: Operand,
    },
    /// `[arg, call_dyn f/1]` — single-argument dynamic call with the
    /// argument read straight from a local/arg/constant, skipping the
    /// operand-stack round trip. Carries an inline-cache site like
    /// [`DecodedOp::CallDyn`].
    CallDyn1 {
        arg: Operand,
        function: FunctionName,
        site: u32,
    },
}

/// A code block decoded for direct-threaded execution, shared by the
/// resolvers that load it and per [`ResolvedCall`](crate::ResolvedCall).
#[derive(Debug, PartialEq, Eq)]
pub struct DecodedCode {
    block: Rc<CodeBlock>,
    ops: Box<[DecodedOp]>,
    call_sites: u32,
    fused_ops: u32,
}

impl DecodedCode {
    /// Decodes `block`, fusing superinstructions when `fuse` is set.
    ///
    /// Deterministic: the selector scans in instruction order and always
    /// takes the longest pattern that starts at the current index and does
    /// not contain a jump target in its interior.
    pub fn decode(block: Rc<CodeBlock>, fuse: bool) -> DecodedCode {
        let instrs = block.instrs();
        let len = instrs.len();

        // Pass 0: collect jump targets. A fused op may *start* at a target
        // but never cover one in its interior, so every reachable branch
        // destination stays a decoded-op boundary.
        let mut is_target = vec![false; len];
        for instr in instrs {
            if let Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) = instr {
                if let Some(slot) = is_target.get_mut(*t as usize) {
                    *slot = true;
                }
            }
        }

        // Pass 1: greedy longest-match-first scan. `map[i]` is the decoded
        // index of the op that covers original instruction `i` (interior
        // constituents map to their superinstruction, but interiors are
        // never branch targets, so only op starts are ever looked up).
        let mut ops: Vec<DecodedOp> = Vec::with_capacity(len);
        let mut map = vec![0u32; len];
        let mut call_sites = 0u32;
        let mut fused_ops = 0u32;
        let mut i = 0usize;
        while i < len {
            let decoded_index = ops.len() as u32;
            let window_free = |k: usize| (i + 1..i + k).all(|j| !is_target[j]);
            let fused = if fuse {
                Self::select_fused(instrs, i, &window_free, &mut call_sites)
            } else {
                None
            };
            let width = match fused {
                Some((op, width)) => {
                    fused_ops += 1;
                    ops.push(op);
                    width
                }
                None => {
                    ops.push(Self::decode_one(&instrs[i], &mut call_sites));
                    1
                }
            };
            for slot in &mut map[i..i + width] {
                *slot = decoded_index;
            }
            i += width;
        }

        // Pass 2: rewrite jump targets (still original indices) through the
        // map. Targets at or past the end fall off into the implicit return.
        let decoded_len = ops.len() as u32;
        let remap = |t: u32| -> u32 { map.get(t as usize).copied().unwrap_or(decoded_len) };
        for op in &mut ops {
            match op {
                DecodedOp::Jump(t)
                | DecodedOp::JumpIfFalse(t)
                | DecodedOp::JumpIfTrue(t)
                | DecodedOp::BinBr { target: t, .. }
                | DecodedOp::BinStoreJmp { target: t, .. } => *t = remap(*t),
                _ => {}
            }
        }

        DecodedCode {
            block,
            ops: ops.into_boxed_slice(),
            call_sites,
            fused_ops,
        }
    }

    /// Tries every superinstruction pattern starting at `i`, longest first.
    /// `window_free(k)` reports whether a `k`-wide window starting at `i`
    /// has no jump target in its interior.
    fn select_fused(
        instrs: &[Instr],
        i: usize,
        window_free: &impl Fn(usize) -> bool,
        call_sites: &mut u32,
    ) -> Option<(DecodedOp, usize)> {
        let len = instrs.len();
        // Five-wide: the counted-loop latch — operand, operand, arith,
        // store, then the unconditional jump back to the loop head.
        if i + 5 <= len && window_free(5) {
            if let (Some(a), Some(b)) = (
                Operand::from_instr(&instrs[i]),
                Operand::from_instr(&instrs[i + 1]),
            ) {
                if let (Some(op), Instr::StoreLocal(dst), Instr::Jump(t)) = (
                    ArithKind::from_instr(&instrs[i + 2]),
                    &instrs[i + 3],
                    &instrs[i + 4],
                ) {
                    return Some((
                        DecodedOp::BinStoreJmp {
                            a,
                            b,
                            op,
                            dst: *dst,
                            target: *t,
                        },
                        5,
                    ));
                }
            }
        }
        // Four-wide: operand, operand, arith/cmp, then store/ret/branch.
        if i + 4 <= len && window_free(4) {
            if let (Some(a), Some(b)) = (
                Operand::from_instr(&instrs[i]),
                Operand::from_instr(&instrs[i + 1]),
            ) {
                if let Some(op) = ArithKind::from_instr(&instrs[i + 2]) {
                    match &instrs[i + 3] {
                        Instr::StoreLocal(dst) => {
                            return Some((
                                DecodedOp::BinStore {
                                    a,
                                    b,
                                    op,
                                    dst: *dst,
                                },
                                4,
                            ));
                        }
                        Instr::Ret => return Some((DecodedOp::BinRet { a, b, op }, 4)),
                        _ => {}
                    }
                } else if let Some(cmp) = CmpKind::from_instr(&instrs[i + 2]) {
                    match &instrs[i + 3] {
                        Instr::JumpIfFalse(t) => {
                            return Some((
                                DecodedOp::BinBr {
                                    a,
                                    b,
                                    cmp,
                                    when: false,
                                    target: *t,
                                },
                                4,
                            ));
                        }
                        Instr::JumpIfTrue(t) => {
                            return Some((
                                DecodedOp::BinBr {
                                    a,
                                    b,
                                    cmp,
                                    when: true,
                                    target: *t,
                                },
                                4,
                            ));
                        }
                        _ => {}
                    }
                }
            }
        }
        // Three-wide: operand, operand, arith (result pushed).
        if i + 3 <= len && window_free(3) {
            if let (Some(a), Some(b), Some(op)) = (
                Operand::from_instr(&instrs[i]),
                Operand::from_instr(&instrs[i + 1]),
                ArithKind::from_instr(&instrs[i + 2]),
            ) {
                return Some((DecodedOp::BinPush { a, b, op }, 3));
            }
        }
        // Two-wide: operand shuffles and single-argument calls.
        if i + 2 <= len && window_free(2) {
            if let Some(src) = Operand::from_instr(&instrs[i]) {
                match &instrs[i + 1] {
                    Instr::StoreLocal(dst) => {
                        return Some((DecodedOp::OpStore { src, dst: *dst }, 2));
                    }
                    Instr::Ret => return Some((DecodedOp::OpRet { src }, 2)),
                    Instr::CallDyn { function, argc: 1 } => {
                        let site = *call_sites;
                        *call_sites += 1;
                        return Some((
                            DecodedOp::CallDyn1 {
                                arg: src,
                                function: function.clone(),
                                site,
                            },
                            2,
                        ));
                    }
                    _ => {}
                }
            }
        }
        None
    }

    fn decode_one(instr: &Instr, call_sites: &mut u32) -> DecodedOp {
        match instr {
            Instr::Push(v) => DecodedOp::Push(v.clone()),
            Instr::Pop => DecodedOp::Pop,
            Instr::Dup => DecodedOp::Dup,
            Instr::Swap => DecodedOp::Swap,
            Instr::LoadArg(n) => DecodedOp::LoadArg(*n),
            Instr::LoadLocal(n) => DecodedOp::LoadLocal(*n),
            Instr::StoreLocal(n) => DecodedOp::StoreLocal(*n),
            Instr::Add => DecodedOp::Add,
            Instr::Sub => DecodedOp::Sub,
            Instr::Mul => DecodedOp::Mul,
            Instr::Div => DecodedOp::Div,
            Instr::Rem => DecodedOp::Rem,
            Instr::Neg => DecodedOp::Neg,
            Instr::Not => DecodedOp::Not,
            Instr::And => DecodedOp::And,
            Instr::Or => DecodedOp::Or,
            Instr::Eq => DecodedOp::Eq,
            Instr::Ne => DecodedOp::Ne,
            Instr::Lt => DecodedOp::Lt,
            Instr::Le => DecodedOp::Le,
            Instr::Gt => DecodedOp::Gt,
            Instr::Ge => DecodedOp::Ge,
            Instr::Jump(t) => DecodedOp::Jump(*t),
            Instr::JumpIfFalse(t) => DecodedOp::JumpIfFalse(*t),
            Instr::JumpIfTrue(t) => DecodedOp::JumpIfTrue(*t),
            Instr::CallDyn { function, argc } => {
                let site = *call_sites;
                *call_sites += 1;
                DecodedOp::CallDyn {
                    function: function.clone(),
                    argc: *argc,
                    site,
                }
            }
            Instr::CallNative { function, argc } => DecodedOp::CallNative {
                function: function.clone(),
                argc: *argc,
            },
            Instr::CallRemote { function, argc } => DecodedOp::CallRemote {
                function: function.clone(),
                argc: *argc,
            },
            Instr::Ret => DecodedOp::Ret,
            Instr::MakeList(n) => DecodedOp::MakeList(*n),
            Instr::ListGet => DecodedOp::ListGet,
            Instr::ListSet => DecodedOp::ListSet,
            Instr::ListLen => DecodedOp::ListLen,
            Instr::ListPush => DecodedOp::ListPush,
            Instr::StrConcat => DecodedOp::StrConcat,
            Instr::StrLen => DecodedOp::StrLen,
            Instr::Work(n) => DecodedOp::Work(*n),
            Instr::GlobalGet(k) => DecodedOp::GlobalGet(k.clone()),
            Instr::GlobalSet(k) => DecodedOp::GlobalSet(k.clone()),
        }
    }

    /// The original code block this decode was built from.
    pub fn block(&self) -> &Rc<CodeBlock> {
        &self.block
    }

    /// The declared signature (delegated to the block).
    pub fn signature(&self) -> &FunctionSignature {
        self.block.signature()
    }

    /// The declared local-slot count (delegated to the block).
    pub fn locals(&self) -> u8 {
        self.block.locals()
    }

    pub(crate) fn ops(&self) -> &[DecodedOp] {
        &self.ops
    }

    /// Number of `CallDyn` sites (the frame's inline-cache slot count).
    pub fn call_sites(&self) -> usize {
        self.call_sites as usize
    }

    /// Number of decoded ops (≤ the original instruction count).
    pub fn op_count(&self) -> usize {
        self.ops.len()
    }

    /// Number of superinstructions the selector emitted.
    pub fn fused_op_count(&self) -> usize {
        self.fused_ops as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcdo_types::FunctionSignature;

    fn block(instrs: Vec<Instr>) -> Rc<CodeBlock> {
        let sig: FunctionSignature = "f(int) -> int".parse().expect("sig");
        Rc::new(CodeBlock::new(sig, 4, instrs))
    }

    #[test]
    fn selector_fuses_the_spin_loop_shapes() {
        use Instr::*;
        // The vm_spin body: prologue shuffles, compare-and-branch, the
        // decrement, and the epilogue all fuse.
        let code = DecodedCode::decode(
            block(vec![
                Push(Value::Int(0)), // 0  \ OpStore
                StoreLocal(0),       // 1  /
                LoadArg(0),          // 2  \ OpStore
                StoreLocal(1),       // 3  /
                LoadLocal(1),        // 4  \
                Push(Value::Int(0)), // 5  | BinBr
                Gt,                  // 6  |
                JumpIfFalse(14),     // 7  /
                LoadLocal(1),        // 8  \
                Push(Value::Int(1)), // 9  | BinStore
                Sub,                 // 10 |
                StoreLocal(1),       // 11 /
                Jump(4),             // 12
                Pop,                 // 13 (dead, single)
                LoadLocal(0),        // 14 \ OpRet
                Ret,                 // 15 /
            ]),
            true,
        );
        assert_eq!(code.op_count(), 6);
        assert_eq!(code.fused_op_count(), 5);
        assert!(matches!(code.ops()[0], DecodedOp::OpStore { .. }));
        assert!(matches!(code.ops()[1], DecodedOp::OpStore { .. }));
        assert!(matches!(
            code.ops()[2],
            DecodedOp::BinBr {
                when: false,
                cmp: CmpKind::Gt,
                ..
            }
        ));
        // The decrement and its back-jump merge into the loop-latch
        // superinstruction; Jump(4) → decoded index of the BinBr.
        match &code.ops()[3] {
            DecodedOp::BinStoreJmp {
                op: ArithKind::Sub,
                dst: 1,
                target,
                ..
            } => assert_eq!(*target, 2),
            other => panic!("expected BinStoreJmp, got {other:?}"),
        }
        // JumpIfFalse(14) → the OpRet after the dead single Pop.
        assert!(matches!(code.ops()[4], DecodedOp::Pop));
        match &code.ops()[2] {
            DecodedOp::BinBr { target, .. } => assert_eq!(*target, 5),
            other => panic!("expected BinBr, got {other:?}"),
        }
        assert!(matches!(code.ops()[5], DecodedOp::OpRet { .. }));
    }

    #[test]
    fn jump_target_in_the_interior_suppresses_fusion() {
        use Instr::*;
        // Instruction 2 (Add) is a branch target, so [0..4] must not fuse
        // into a BinStore; the tail [2..4] can't fuse either (Add alone is
        // not an operand), so everything decodes singly except none.
        let code = DecodedCode::decode(
            block(vec![
                LoadArg(0),          // 0
                Push(Value::Int(1)), // 1
                Add,                 // 2  <- target
                StoreLocal(0),       // 3
                JumpIfTrue(2),       // 4
                Ret,                 // 5
            ]),
            true,
        );
        // [0,1] can't pair (no OpStore/OpRet follows the window of 2 at 0:
        // instr 1 is Push, so the 2-wide pattern [operand, store/ret] does
        // not match) — everything is single.
        assert_eq!(code.op_count(), 6);
        assert_eq!(code.fused_op_count(), 0);
        match &code.ops()[4] {
            DecodedOp::JumpIfTrue(t) => assert_eq!(*t, 2),
            other => panic!("expected JumpIfTrue, got {other:?}"),
        }
    }

    #[test]
    fn branching_to_a_fused_op_start_is_allowed() {
        use Instr::*;
        let code = DecodedCode::decode(
            block(vec![
                Jump(1),    // 0
                LoadArg(0), // 1  <- target, start of OpRet
                Ret,        // 2
            ]),
            true,
        );
        assert_eq!(code.op_count(), 2);
        assert_eq!(code.fused_op_count(), 1);
        assert_eq!(code.ops()[0], DecodedOp::Jump(1));
    }

    #[test]
    fn fusion_off_decodes_one_to_one() {
        use Instr::*;
        let instrs = vec![LoadArg(0), Push(Value::Int(1)), Add, Ret];
        let fused = DecodedCode::decode(block(instrs.clone()), true);
        let unfused = DecodedCode::decode(block(instrs), false);
        assert_eq!(fused.op_count(), 1);
        assert_eq!(fused.fused_op_count(), 1);
        assert_eq!(unfused.op_count(), 4);
        assert_eq!(unfused.fused_op_count(), 0);
    }

    #[test]
    fn decode_is_deterministic() {
        use Instr::*;
        let instrs = vec![
            LoadLocal(0),
            LoadLocal(1),
            Lt,
            JumpIfTrue(0),
            LoadLocal(2),
            Push(Value::Int(3)),
            Mul,
            StoreLocal(2),
            Ret,
        ];
        let a = DecodedCode::decode(block(instrs.clone()), true);
        let b = DecodedCode::decode(block(instrs), true);
        assert_eq!(a.ops(), b.ops());
        assert_eq!(a.call_sites(), b.call_sites());
    }

    #[test]
    fn call_sites_number_in_decode_order() {
        use Instr::*;
        let code = DecodedCode::decode(
            block(vec![
                CallDyn {
                    function: "a".into(),
                    argc: 0,
                },
                Pop,
                CallDyn {
                    function: "b".into(),
                    argc: 0,
                },
                Pop,
                Ret,
            ]),
            true,
        );
        assert_eq!(code.call_sites(), 2);
        let sites: Vec<u32> = code
            .ops()
            .iter()
            .filter_map(|op| match op {
                DecodedOp::CallDyn { site, .. } => Some(*site),
                _ => None,
            })
            .collect();
        assert_eq!(sites, vec![0, 1]);
    }

    #[test]
    fn out_of_range_targets_map_to_the_implicit_return() {
        use Instr::*;
        // CodeBlock::new does not validate; the interpreter treats a jump
        // past the end as falling off into the implicit unit return, and
        // the decoder must preserve that.
        let code = DecodedCode::decode(block(vec![Jump(9)]), true);
        assert_eq!(code.ops()[0], DecodedOp::Jump(1));
    }
}
