//! What the property tests share about the instruction set.

use dcdo_vm::{Instr, OPCODE_COUNT, OPCODE_NAMES};
use proptest::prelude::*;

/// Every instruction without an operand.
pub const NULLARY: [Instr; 25] = [
    Instr::Pop,
    Instr::Dup,
    Instr::Swap,
    Instr::Add,
    Instr::Sub,
    Instr::Mul,
    Instr::Div,
    Instr::Rem,
    Instr::Neg,
    Instr::Not,
    Instr::And,
    Instr::Or,
    Instr::Eq,
    Instr::Ne,
    Instr::Lt,
    Instr::Le,
    Instr::Gt,
    Instr::Ge,
    Instr::Ret,
    Instr::ListGet,
    Instr::ListSet,
    Instr::ListLen,
    Instr::ListPush,
    Instr::StrConcat,
    Instr::StrLen,
];

/// The opcodes `strategy` never produced in 4,000 draws.
pub fn undrawn_opcodes(strategy: &impl Strategy<Value = Instr>) -> Vec<&'static str> {
    let mut rng = TestRng::seed(7);
    let mut seen = [false; OPCODE_COUNT];
    for _ in 0..4_000 {
        seen[strategy.generate(&mut rng).opcode()] = true;
    }
    (0..OPCODE_COUNT)
        .filter(|&op| !seen[op])
        .map(|op| OPCODE_NAMES[op])
        .collect()
}
