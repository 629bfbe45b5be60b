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
        for c in &fixtures {
            let decoded = ComponentBinary::decode(c.encode()).expect("decodes");
            assert_eq!(&decoded, c, "{}", c.name());
            assert_eq!(decoded.size_bytes(), c.size_bytes(), "{}", c.name());
            assert_eq!(decoded.encoded_len(), c.encoded_len(), "{}", c.name());
            assert_eq!(c.encoded_len(), c.encode().len() as u64, "{}", c.name());
        }
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
