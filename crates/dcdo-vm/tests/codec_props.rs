//! Property tests: the component object-code format round-trips arbitrary
//! well-formed components, and decoding never panics on corrupted input.

use bytes::Bytes;
use dcdo_types::{ComponentId, Dependency, ObjectId, Protection, Visibility};
use dcdo_vm::{CodeBlock, ComponentBinary, ComponentBuilder, Instr, Value};
use proptest::prelude::*;

mod common;

fn arb_value() -> impl Strategy<Value = Value> {
    let leaf = prop_oneof![
        Just(Value::Unit),
        any::<i64>().prop_map(Value::Int),
        any::<bool>().prop_map(Value::Bool),
        "[a-zA-Z0-9 ]{0,12}".prop_map(Value::str),
        any::<u64>().prop_map(|o| Value::ObjRef(ObjectId::from_raw(o))),
    ];
    leaf.prop_recursive(2, 8, 4, |inner| {
        prop::collection::vec(inner, 0..4).prop_map(Value::List)
    })
}

/// Every opcode, jumps included: the codec does not care where they land.
fn arb_instr() -> impl Strategy<Value = Instr> {
    let small: [fn(u8) -> Instr; 4] = [
        Instr::LoadArg,
        Instr::LoadLocal,
        Instr::StoreLocal,
        Instr::MakeList,
    ];
    let jumps: [fn(u32) -> Instr; 3] = [Instr::Jump, Instr::JumpIfFalse, Instr::JumpIfTrue];
    prop_oneof![
        arb_value().prop_map(Instr::Push),
        (0..common::NULLARY.len()).prop_map(|i| common::NULLARY[i].clone()),
        (0..small.len(), any::<u8>()).prop_map(move |(i, n)| small[i](n)),
        (0..jumps.len(), any::<u32>()).prop_map(move |(i, t)| jumps[i](t)),
        ("[a-z]{1,8}", any::<u8>(), 0u8..3).prop_map(|(f, argc, kind)| {
            let function = f.as_str().into();
            match kind {
                0 => Instr::CallDyn { function, argc },
                1 => Instr::CallNative { function, argc },
                _ => Instr::CallRemote { function, argc },
            }
        }),
        any::<u64>().prop_map(Instr::Work),
        ("[a-z]{1,8}", any::<bool>()).prop_map(|(k, set)| if set {
            Instr::GlobalSet(k.as_str().into())
        } else {
            Instr::GlobalGet(k.as_str().into())
        }),
    ]
}

/// The instruction strategy reaches every opcode.
#[test]
fn arb_instr_draws_every_opcode() {
    assert_eq!(common::undrawn_opcodes(&arb_instr()), Vec::<&str>::new());
}

/// Code that need not be *valid* (jumps may dangle) — the codec must
/// round-trip it regardless; validity is a separate concern.
fn arb_code_block(name: String) -> impl Strategy<Value = CodeBlock> {
    (prop::collection::vec(arb_instr(), 0..20), 0u8..8).prop_map(move |(instrs, locals)| {
        CodeBlock::new(
            format!("{name}(any, any, any, any) -> any")
                .parse()
                .expect("valid signature"),
            locals.max(4),
            instrs,
        )
    })
}

fn arb_component() -> impl Strategy<Value = ComponentBinary> {
    (
        1u64..1000,
        "[a-z]{1,10}",
        prop::collection::vec(("[a-z]{1,6}", any::<u8>(), any::<bool>()), 1..6),
        0u64..1_000_000,
    )
        .prop_flat_map(|(id, name, fn_specs, padding)| {
            // Deduplicate function names.
            let mut names: Vec<(String, u8, bool)> = Vec::new();
            for (n, p, v) in fn_specs {
                if !names.iter().any(|(existing, _, _)| *existing == n) {
                    names.push((n, p, v));
                }
            }
            let blocks: Vec<_> = names
                .iter()
                .map(|(n, _, _)| arb_code_block(n.clone()).boxed())
                .collect();
            (Just((id, name, names, padding)), blocks)
        })
        .prop_map(|((id, name, specs, padding), blocks)| {
            let cid = ComponentId::from_raw(id);
            let mut b = ComponentBuilder::new(cid, name).static_data_size(padding);
            for ((_, prot, vis), code) in specs.into_iter().zip(blocks) {
                let protection = match prot % 3 {
                    0 => Protection::FullyDynamic,
                    1 => Protection::Mandatory,
                    _ => Protection::Permanent,
                };
                let visibility = if vis {
                    Visibility::Exported
                } else {
                    Visibility::Internal
                };
                b = b.function(code, visibility, protection);
            }
            b = b.dependency(Dependency::type_d("x", "y"));
            // Skip validation: arbitrary code may have dangling jumps; the
            // codec round-trip property is about serialization only.
            match b.build() {
                Ok(c) => c,
                Err(_) => ComponentBuilder::new(cid, "fallback")
                    .exported_fn(CodeBlock::new(
                        "f() -> unit".parse().expect("sig"),
                        0,
                        vec![Instr::Ret],
                    ))
                    .build()
                    .expect("fallback valid"),
            }
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// encode → decode is the identity on components.
    #[test]
    fn component_round_trips(comp in arb_component()) {
        let encoded = comp.encode();
        let decoded = ComponentBinary::decode(encoded).expect("round trip decodes");
        prop_assert_eq!(decoded, comp);
    }

    /// Decoding arbitrary garbage never panics; it errors or (vanishingly
    /// unlikely) produces a component.
    #[test]
    fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = ComponentBinary::decode(Bytes::from(bytes));
    }

    /// Truncating a valid encoding at any point yields an error, not a panic.
    #[test]
    fn decode_handles_truncation(comp in arb_component(), cut in 0.0f64..1.0) {
        let encoded = comp.encode();
        let cut_at = ((encoded.len() as f64) * cut) as usize;
        if cut_at < encoded.len() {
            let truncated = encoded.slice(0..cut_at);
            prop_assert!(ComponentBinary::decode(truncated).is_err());
        }
    }

    /// size_bytes is always at least the static padding plus header.
    #[test]
    fn size_accounts_for_padding(comp in arb_component()) {
        prop_assert!(comp.size_bytes() >= comp.static_data_size());
        prop_assert!(comp.size_bytes() > comp.static_data_size());
    }
}
