//! Component-suite generators for the evaluation sweeps.
//!
//! The paper's creation experiment uses objects with 500 functions split
//! across varying numbers of components (1–50). [`ComponentSuite`] produces
//! such populations: every function body is a small arithmetic kernel with
//! a configurable simulated-compute charge, names are unique
//! (`f<i>_<j>`), and each component can carry static-data padding to model
//! the bulk of native code.

use dcdo_types::{ComponentId, Protection, Visibility};
use dcdo_vm::{CodeBlock, ComponentBinary, ComponentBuilder, FunctionBuilder};

/// Parameters of a generated component population.
#[derive(Debug, Clone)]
pub struct SuiteSpec {
    /// Total number of functions across the suite.
    pub total_functions: usize,
    /// Number of components the functions are split into.
    pub components: usize,
    /// Simulated compute charged by each function body, nanoseconds.
    pub work_nanos: u64,
    /// Static-data padding per component, bytes.
    pub static_data_size: u64,
    /// First component id to allocate.
    pub first_component_id: u64,
}

impl Default for SuiteSpec {
    fn default() -> Self {
        SuiteSpec {
            total_functions: 500,
            components: 50,
            work_nanos: 1_000,
            static_data_size: 2_048,
            first_component_id: 1,
        }
    }
}

impl SuiteSpec {
    /// The paper's creation-experiment shape: 500 functions in `components`
    /// components.
    pub fn paper_creation(components: usize) -> Self {
        SuiteSpec {
            components,
            ..SuiteSpec::default()
        }
    }
}

/// A generated population of components.
#[derive(Debug, Clone)]
pub struct ComponentSuite {
    components: Vec<ComponentBinary>,
}

impl ComponentSuite {
    /// Generates a suite per `spec`.
    ///
    /// Functions are distributed as evenly as possible; function `f<i>_<j>`
    /// is the `j`-th function of the `i`-th component. All functions are
    /// exported and fully dynamic.
    ///
    /// # Panics
    ///
    /// Panics if `spec.components` is zero or exceeds
    /// `spec.total_functions`.
    pub fn generate(spec: &SuiteSpec) -> Self {
        assert!(spec.components > 0, "need at least one component");
        assert!(
            spec.components <= spec.total_functions,
            "more components than functions"
        );
        let per = spec.total_functions / spec.components;
        let extra = spec.total_functions % spec.components;
        let mut components = Vec::with_capacity(spec.components);
        for i in 0..spec.components {
            let count = per + usize::from(i < extra);
            let id = ComponentId::from_raw(spec.first_component_id + i as u64);
            let mut b = ComponentBuilder::new(id, format!("suite-{i}"))
                .static_data_size(spec.static_data_size);
            for j in 0..count {
                b = b.function(
                    kernel_function(&format!("f{i}_{j}"), spec.work_nanos),
                    Visibility::Exported,
                    Protection::FullyDynamic,
                );
            }
            components.push(b.build().expect("generated component is valid"));
        }
        ComponentSuite { components }
    }

    /// The generated components.
    pub fn components(&self) -> &[ComponentBinary] {
        &self.components
    }

    /// Consumes the suite, returning the components.
    pub fn into_components(self) -> Vec<ComponentBinary> {
        self.components
    }

    /// Total function count across the suite.
    pub fn total_functions(&self) -> usize {
        self.components.iter().map(|c| c.functions().len()).sum()
    }

    /// The name of function `j` of component `i`.
    pub fn function_name(i: usize, j: usize) -> String {
        format!("f{i}_{j}")
    }

    /// `(function, component)` pairs for enabling every function.
    pub fn enable_plan(&self) -> Vec<(String, ComponentId)> {
        let mut plan = Vec::with_capacity(self.total_functions());
        for c in &self.components {
            for f in c.functions() {
                plan.push((f.name().as_str().to_owned(), c.id()));
            }
        }
        plan
    }
}

/// One arithmetic kernel: `name(int) -> int`, charges `work_nanos`, returns
/// `3 x + 1`.
pub fn kernel_function(name: &str, work_nanos: u64) -> CodeBlock {
    let mut b = FunctionBuilder::parse(&format!("{name}(int) -> int")).expect("signature");
    if work_nanos > 0 {
        b.work(work_nanos);
    }
    b.load_arg(0).push_int(3).mul().push_int(1).add().ret();
    b.build().expect("kernel is valid")
}

#[cfg(test)]
mod tests {
    use dcdo_sim::Fold;
    use dcdo_types::ObjectId;
    use dcdo_vm::codec::{read_code_block, write_code_block, Reader, Writer};
    use dcdo_vm::{disassemble, Instr, Value, OPCODE_COUNT};

    use super::*;

    /// Every component a scenario, experiment or bench maps survives the
    /// object-code format unchanged, and so does its transferable size.
    #[test]
    fn every_fixture_component_round_trips_through_the_codec() {
        use crate::{reconfig, service, simbench};
        let relay = ComponentBuilder::new(ComponentId::from_raw(3), "relay")
            .exported("relay(objref) -> int", |b| {
                b.load_arg(0).call_remote("slow", 0).ret()
            })
            .expect("relay")
            .build()
            .expect("valid relay");
        let mut fixtures = vec![
            service::counter_core(),
            service::step_by(10),
            service::sorting_component(),
            service::compare_descending(),
            reconfig::padded_step(),
            simbench::transfer_component(),
            simbench::vm_spin_component(),
            relay,
        ];
        for comps in [1, 2, 5, 10, 25, 50] {
            fixtures.extend(
                ComponentSuite::generate(&SuiteSpec::paper_creation(comps)).into_components(),
            );
        }
        let mut fold = Fold::new(fixtures.len() as u64);
        let mut text_fold = Fold::new(fixtures.len() as u64);
        for c in &fixtures {
            let decoded = ComponentBinary::decode(c.encode()).expect("decodes");
            assert_eq!(&decoded, c, "{}", c.name());
            assert_eq!(decoded.size_bytes(), c.size_bytes(), "{}", c.name());
            assert_eq!(decoded.encoded_len(), c.encoded_len(), "{}", c.name());
            assert_eq!(c.encoded_len(), c.encode().len() as u64, "{}", c.name());
            fold_bytes(&mut fold, &c.encode());
            fold_bytes(&mut text_fold, disassemble(c).as_bytes());
        }
        // The object code itself is pinned, not only its round trip: a
        // moved opcode tag or operand layout changes these folds.
        let got = fold.finish();
        assert_eq!(
            got, FIXTURE_ENCODE_FOLD,
            "fixture encodings now fold to {got:#018x}"
        );
        let got = text_fold.finish();
        assert_eq!(
            got, FIXTURE_TEXT_FOLD,
            "fixture disassemblies now fold to {got:#018x}"
        );

        let block = every_opcode_block();
        let mut w = Writer::new();
        write_code_block(&mut w, &block);
        let bytes = w.finish();
        let mut r = Reader::new(bytes.clone());
        assert_eq!(read_code_block(&mut r).expect("decodes"), block);
        assert_eq!(r.remaining(), 0);
        let mut fold = Fold::new(1);
        fold_bytes(&mut fold, &bytes);
        let got = fold.finish();
        assert_eq!(
            got, EVERY_OPCODE_FOLD,
            "the every-opcode block now folds to {got:#018x}"
        );
    }

    /// [`Fold`] of the fixtures' `encode()` bytes, in fixture order.
    const FIXTURE_ENCODE_FOLD: u64 = 0x0dd4_384e_7ba5_c855;
    /// [`Fold`] of the fixtures' disassembly texts, in fixture order.
    const FIXTURE_TEXT_FOLD: u64 = 0x3702_7e5f_c0dc_9047;
    /// [`Fold`] of [`every_opcode_block`]'s encoding.
    const EVERY_OPCODE_FOLD: u64 = 0xf7bb_2aef_03df_0b20;

    /// Feeds `bytes` to `fold`: their length, then eight to a little-endian
    /// word (the last zero-padded).
    fn fold_bytes(fold: &mut Fold, bytes: &[u8]) {
        fold.word(bytes.len() as u64);
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            fold.word(u64::from_le_bytes(word));
        }
    }

    /// One code block holding every opcode, in opcode order, with a push of
    /// every value kind.
    fn every_opcode_block() -> CodeBlock {
        let instrs = vec![
            Instr::Push(Value::Unit),
            Instr::Push(Value::Int(-7)),
            Instr::Push(Value::Bool(true)),
            Instr::Push(Value::str("s")),
            Instr::Push(Value::List(vec![Value::Int(1), Value::str("x")])),
            Instr::Push(Value::ObjRef(ObjectId::from_raw(9))),
            Instr::Pop,
            Instr::Dup,
            Instr::Swap,
            Instr::LoadArg(0),
            Instr::LoadLocal(1),
            Instr::StoreLocal(2),
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
            Instr::Jump(3),
            Instr::JumpIfFalse(4),
            Instr::JumpIfTrue(5),
            Instr::CallDyn {
                function: "d".into(),
                argc: 2,
            },
            Instr::CallNative {
                function: "n".into(),
                argc: 2,
            },
            Instr::CallRemote {
                function: "r".into(),
                argc: 2,
            },
            Instr::Ret,
            Instr::MakeList(3),
            Instr::ListGet,
            Instr::ListSet,
            Instr::ListLen,
            Instr::ListPush,
            Instr::StrConcat,
            Instr::StrLen,
            Instr::Work(1_000),
            Instr::GlobalGet("k".into()),
            Instr::GlobalSet("k".into()),
        ];
        let opcodes: std::collections::BTreeSet<usize> = instrs.iter().map(Instr::opcode).collect();
        assert_eq!(opcodes.len(), OPCODE_COUNT);
        CodeBlock::new("every(int) -> any".parse().expect("signature"), 3, instrs)
    }

    #[test]
    fn default_suite_is_the_paper_shape() {
        let suite = ComponentSuite::generate(&SuiteSpec::default());
        assert_eq!(suite.components().len(), 50);
        assert_eq!(suite.total_functions(), 500);
        assert_eq!(suite.components()[0].functions().len(), 10);
    }

    #[test]
    fn uneven_split_distributes_remainder() {
        let suite = ComponentSuite::generate(&SuiteSpec {
            total_functions: 10,
            components: 3,
            ..SuiteSpec::default()
        });
        let counts: Vec<usize> = suite
            .components()
            .iter()
            .map(|c| c.functions().len())
            .collect();
        assert_eq!(counts, vec![4, 3, 3]);
        assert_eq!(suite.total_functions(), 10);
    }

    #[test]
    fn monolithic_shape_single_component() {
        let suite = ComponentSuite::generate(&SuiteSpec::paper_creation(1));
        assert_eq!(suite.components().len(), 1);
        assert_eq!(suite.components()[0].functions().len(), 500);
    }

    #[test]
    fn function_names_are_unique() {
        let suite = ComponentSuite::generate(&SuiteSpec {
            total_functions: 60,
            components: 7,
            ..SuiteSpec::default()
        });
        let mut names: Vec<String> = suite
            .components()
            .iter()
            .flat_map(|c| c.functions().iter().map(|f| f.name().as_str().to_owned()))
            .collect();
        let before = names.len();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), before);
    }

    #[test]
    fn enable_plan_covers_everything() {
        let suite = ComponentSuite::generate(&SuiteSpec {
            total_functions: 20,
            components: 4,
            ..SuiteSpec::default()
        });
        assert_eq!(suite.enable_plan().len(), 20);
    }

    #[test]
    #[should_panic(expected = "more components than functions")]
    fn rejects_impossible_split() {
        let _ = ComponentSuite::generate(&SuiteSpec {
            total_functions: 2,
            components: 3,
            ..SuiteSpec::default()
        });
    }

    #[test]
    fn kernel_computes_3x_plus_1() {
        use dcdo_types::ComponentId;
        use dcdo_vm::{
            CallOrigin, NativeRegistry, RunOutcome, StaticResolver, Value, ValueStore, VmThread,
        };
        let mut r = StaticResolver::new();
        r.insert(kernel_function("k", 500), ComponentId::from_raw(1));
        let mut t = VmThread::call(
            &mut r,
            &"k".into(),
            vec![Value::Int(7)],
            CallOrigin::External,
        )
        .expect("starts");
        let out = t.run(
            &mut r,
            &NativeRegistry::standard(),
            &mut ValueStore::new(),
            1_000,
        );
        assert_eq!(out, RunOutcome::Completed(Value::Int(22)));
        assert_eq!(t.take_consumed_nanos(), 500);
    }
}
