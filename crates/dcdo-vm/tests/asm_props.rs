//! Property tests: the assembly text format round-trips valid components.

use dcdo_types::{ComponentId, Protection, Visibility};
use dcdo_vm::{assemble, disassemble, CodeBlock, ComponentBuilder, Instr, Value};
use proptest::prelude::*;

mod common;

/// Every opcode, valid for a `f(any, any) -> any` signature with 4 locals.
/// A jump's target is drawn here as any `u32` and brought into range by
/// [`land_jumps`] once the body's length is known.
fn arb_instr() -> impl Strategy<Value = Instr> {
    let jumps: [fn(u32) -> Instr; 3] = [Instr::Jump, Instr::JumpIfFalse, Instr::JumpIfTrue];
    prop_oneof![
        any::<i64>().prop_map(|n| Instr::Push(Value::Int(n))),
        any::<bool>().prop_map(|b| Instr::Push(Value::Bool(b))),
        Just(Instr::Push(Value::Unit)),
        "[a-zA-Z0-9 _.;\"-]{0,12}".prop_map(|s| Instr::Push(Value::str(s))),
        (0..common::NULLARY.len()).prop_map(|i| common::NULLARY[i].clone()),
        (0u8..2).prop_map(Instr::LoadArg),
        (0u8..4).prop_map(Instr::LoadLocal),
        (0u8..4).prop_map(Instr::StoreLocal),
        (0u8..5).prop_map(Instr::MakeList),
        (0..jumps.len(), any::<u32>()).prop_map(move |(i, t)| jumps[i](t)),
        any::<u64>().prop_map(Instr::Work),
        ("[a-z][a-z0-9_]{0,8}", 0u8..4, 0u8..3).prop_map(|(f, argc, kind)| {
            let function = f.as_str().into();
            match kind {
                0 => Instr::CallDyn { function, argc },
                1 => Instr::CallNative { function, argc },
                _ => Instr::CallRemote { function, argc },
            }
        }),
        ("[a-z][a-z0-9_]{0,8}", any::<bool>()).prop_map(|(k, set)| if set {
            Instr::GlobalSet(k.as_str().into())
        } else {
            Instr::GlobalGet(k.as_str().into())
        }),
    ]
}

/// Points every jump in `instrs` at an instruction of the body, so the
/// disassembler labels it and the assembler binds the label again.
fn land_jumps(mut instrs: Vec<Instr>) -> Vec<Instr> {
    let len = instrs.len() as u32;
    for instr in &mut instrs {
        if let Instr::Jump(t) | Instr::JumpIfFalse(t) | Instr::JumpIfTrue(t) = instr {
            *t %= len;
        }
    }
    instrs
}

/// The instruction strategy reaches every opcode.
#[test]
fn arb_instr_draws_every_opcode() {
    assert_eq!(common::undrawn_opcodes(&arb_instr()), Vec::<&str>::new());
}

fn arb_component() -> impl Strategy<Value = dcdo_vm::ComponentBinary> {
    (
        1u64..500,
        "[a-z][a-z0-9-]{0,10}",
        prop::collection::vec(
            (
                "[a-z][a-z0-9_]{0,8}",
                prop::collection::vec(arb_instr(), 0..12),
                any::<bool>(),
                0u8..3,
            ),
            1..5,
        ),
        0u64..100_000,
    )
        .prop_map(|(id, name, fns, padding)| {
            let mut seen = std::collections::HashSet::new();
            let mut b =
                ComponentBuilder::new(ComponentId::from_raw(id), name).static_data_size(padding);
            for (fname, instrs, exported, prot) in fns {
                if !seen.insert(fname.clone()) {
                    continue;
                }
                let code = CodeBlock::new(
                    format!("{fname}(any, any) -> any").parse().expect("sig"),
                    4,
                    land_jumps(instrs),
                );
                let visibility = if exported {
                    Visibility::Exported
                } else {
                    Visibility::Internal
                };
                let protection = match prot {
                    0 => Protection::FullyDynamic,
                    1 => Protection::Mandatory,
                    _ => Protection::Permanent,
                };
                b = b.function(code, visibility, protection);
            }
            b.build().expect("generated component is valid")
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// disassemble → assemble is the identity on valid components.
    #[test]
    fn asm_round_trips(component in arb_component()) {
        let text = disassemble(&component);
        let again = assemble(&text)
            .map_err(|e| TestCaseError::fail(format!("reassembly failed: {e}\n{text}")))?;
        prop_assert_eq!(again, component);
    }

    /// The assembler never panics on arbitrary text.
    #[test]
    fn assemble_never_panics(text in "\\PC{0,400}") {
        let _ = assemble(&text);
    }
}
