//! DFM descriptors: the static shape of a DCDO implementation (§2.4).
//!
//! A `DfmDescriptor` mirrors the structure of a DFM but is pure
//! configuration: which components are incorporated, which implementations
//! of which dynamic functions exist, which implementation (if any) is
//! enabled per function, each function's visibility and protection, and the
//! declared dependencies. DCDO Managers keep a store of versioned
//! descriptors and use them to configure DCDOs at creation, migration, and
//! evolution; a live DCDO pairs one descriptor with runtime state (loaded
//! code and active-thread counters) to form its DFM.
//!
//! Every mutating operation enforces the model's restrictions (§3.2):
//! signature compatibility, visibility consistency, mandatory/permanent
//! protections, permanent-conflict detection at incorporation, and the
//! Type A–D dependency rules.

use std::collections::BTreeMap;

use dcdo_types::{
    ComponentId, Dependency, FunctionName, FunctionSignature, ImplementationType, ObjectId,
    Protection, VersionId, Visibility,
};
use dcdo_vm::ComponentDescriptor;
use serde::{Deserialize, Serialize};

use crate::error::ConfigError;

/// Per-function record in a descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionRecord {
    signature: FunctionSignature,
    visibility: Visibility,
    protection: Protection,
    enabled: Option<ComponentId>,
    impls: Vec<ComponentId>,
}

impl FunctionRecord {
    /// The function's established signature.
    pub fn signature(&self) -> &FunctionSignature {
        &self.signature
    }

    /// Exported or internal.
    pub fn visibility(&self) -> Visibility {
        self.visibility
    }

    /// The protection in force.
    pub fn protection(&self) -> Protection {
        self.protection
    }

    /// The enabled implementation's component, if any.
    pub fn enabled(&self) -> Option<ComponentId> {
        self.enabled
    }

    /// Components providing an implementation, in incorporation order.
    pub fn impls(&self) -> &[ComponentId] {
        &self.impls
    }

    /// Returns `true` if some implementation is enabled.
    pub fn is_enabled(&self) -> bool {
        self.enabled.is_some()
    }
}

/// Per-component record in a descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentRecord {
    /// Human-readable name.
    pub name: String,
    /// The ICO maintaining the component's data, if published.
    pub ico: Option<ObjectId>,
    /// The component's implementation type.
    pub impl_type: ImplementationType,
    /// Transferable size in bytes.
    pub size_bytes: u64,
    /// Functions this component implements.
    pub functions: Vec<FunctionName>,
}

/// The static shape of a DCDO implementation.
///
/// # Examples
///
/// ```
/// use dcdo_core::DfmDescriptor;
/// use dcdo_types::{ComponentId, Protection, VersionId};
/// use dcdo_vm::ComponentBuilder;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let component = ComponentBuilder::new(ComponentId::from_raw(1), "math")
///     .exported("double(int) -> int", |b| b.load_arg(0).push_int(2).mul().ret())?
///     .build()?;
///
/// let mut descriptor = DfmDescriptor::new(VersionId::root());
/// descriptor.incorporate_component(&component.descriptor(), None)?;
/// descriptor.enable_function(&"double".into(), ComponentId::from_raw(1))?;
/// descriptor.set_protection(&"double".into(), Protection::Mandatory)?;
/// descriptor.validate()?;
///
/// // Mandatory functions cannot be disabled (§3.2).
/// assert!(descriptor.disable_function(&"double".into()).is_err());
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DfmDescriptor {
    version: VersionId,
    functions: BTreeMap<FunctionName, FunctionRecord>,
    components: BTreeMap<ComponentId, ComponentRecord>,
    dependencies: Vec<Dependency>,
}

impl DfmDescriptor {
    /// Creates an empty descriptor for `version`.
    pub fn new(version: VersionId) -> Self {
        DfmDescriptor {
            version,
            functions: BTreeMap::new(),
            components: BTreeMap::new(),
            dependencies: Vec::new(),
        }
    }

    /// The version this descriptor defines.
    pub fn version(&self) -> &VersionId {
        &self.version
    }

    /// Re-labels the descriptor with a new version (used when deriving).
    pub fn with_version(mut self, version: VersionId) -> Self {
        self.version = version;
        self
    }

    /// The record for `function`, if known.
    pub fn function(&self, function: &FunctionName) -> Option<&FunctionRecord> {
        self.functions.get(function)
    }

    /// Iterates over all function records in name order.
    pub fn functions(&self) -> impl Iterator<Item = (&FunctionName, &FunctionRecord)> {
        self.functions.iter()
    }

    /// Number of dynamic functions known.
    pub fn function_count(&self) -> usize {
        self.functions.len()
    }

    /// The record for `component`, if incorporated.
    pub fn component(&self, component: ComponentId) -> Option<&ComponentRecord> {
        self.components.get(&component)
    }

    /// Iterates over incorporated components in id order.
    pub fn components(&self) -> impl Iterator<Item = (ComponentId, &ComponentRecord)> {
        self.components.iter().map(|(c, r)| (*c, r))
    }

    /// Number of incorporated components.
    pub fn component_count(&self) -> usize {
        self.components.len()
    }

    /// The declared dependencies.
    pub fn dependencies(&self) -> &[Dependency] {
        &self.dependencies
    }

    /// The implementation type of an object shaped like this descriptor
    /// (§2.1): portable bytecode when every incorporated component is
    /// portable, otherwise the (first) native architecture present.
    pub fn implementation_type(&self) -> ImplementationType {
        self.components
            .values()
            .map(|c| c.impl_type)
            .find(|t| t.architecture() != dcdo_types::Architecture::Portable)
            .unwrap_or_else(ImplementationType::portable_bytecode)
    }

    /// The exported, enabled functions — the object's public interface as a
    /// client sees it (§2).
    pub fn exported_interface(&self) -> Vec<(FunctionSignature, Protection)> {
        self.functions
            .values()
            .filter(|r| r.visibility.is_exported() && r.is_enabled())
            .map(|r| (r.signature.clone(), r.protection))
            .collect()
    }

    // ---- configuration operations ------------------------------------

    /// Incorporates a component described by `descriptor` (maintained in
    /// ICO `ico`, if published).
    ///
    /// New implementations start **disabled**; enabling is a separate step
    /// (§2: once a DCDO incorporates a component, the functions it defines
    /// *may* then be enabled and called).
    ///
    /// # Errors
    ///
    /// - [`ConfigError::ComponentAlreadyPresent`] if already incorporated;
    /// - [`ConfigError::SignatureMismatch`] /
    ///   [`ConfigError::VisibilityConflict`] if a declaration is
    ///   inconsistent with the function's established record;
    /// - [`ConfigError::PermanentConflict`] if the component requests a
    ///   permanent implementation of a function that already has one (§3.2).
    pub fn incorporate_component(
        &mut self,
        descriptor: &ComponentDescriptor,
        ico: Option<ObjectId>,
    ) -> Result<(), ConfigError> {
        let id = descriptor.id;
        if self.components.contains_key(&id) {
            return Err(ConfigError::ComponentAlreadyPresent(id));
        }
        // Validate every declaration before mutating anything.
        for f in &descriptor.functions {
            let name = f.signature.name();
            if let Some(record) = self.functions.get(name) {
                if !record.signature.compatible_with(&f.signature) {
                    return Err(ConfigError::SignatureMismatch {
                        function: name.clone(),
                        existing: record.signature.to_string(),
                        offered: f.signature.to_string(),
                    });
                }
                if record.visibility != f.visibility {
                    return Err(ConfigError::VisibilityConflict(name.clone()));
                }
                if f.protection_request == Protection::Permanent {
                    if let Some(holder) = record.enabled {
                        if record.protection == Protection::Permanent {
                            return Err(ConfigError::PermanentConflict {
                                function: name.clone(),
                                existing: holder,
                                offered: id,
                            });
                        }
                    }
                }
            }
        }
        for f in &descriptor.functions {
            let name = f.signature.name().clone();
            let record = self
                .functions
                .entry(name)
                .or_insert_with(|| FunctionRecord {
                    signature: f.signature.clone(),
                    visibility: f.visibility,
                    protection: Protection::FullyDynamic,
                    enabled: None,
                    impls: Vec::new(),
                });
            record.impls.push(id);
            record.protection = record.protection.max(f.protection_request);
        }
        for dep in &descriptor.dependencies {
            if !self.dependencies.contains(dep) {
                self.dependencies.push(dep.clone());
            }
        }
        self.components.insert(
            id,
            ComponentRecord {
                name: descriptor.name.clone(),
                ico,
                impl_type: descriptor.impl_type,
                size_bytes: descriptor.size_bytes,
                functions: descriptor
                    .functions
                    .iter()
                    .map(|f| f.signature.name().clone())
                    .collect(),
            },
        );
        Ok(())
    }

    /// Removes a component and all its implementations.
    ///
    /// # Errors
    ///
    /// - [`ConfigError::ComponentNotPresent`] if not incorporated;
    /// - [`ConfigError::ProtectionViolation`] if it holds the enabled
    ///   implementation of a mandatory/permanent function;
    /// - [`ConfigError::DependencyViolation`] if removing it would break a
    ///   dependency whose source remains enabled.
    pub fn remove_component(&mut self, component: ComponentId) -> Result<(), ConfigError> {
        let record = self
            .components
            .get(&component)
            .ok_or(ConfigError::ComponentNotPresent(component))?;
        // Simulate the removal and check the result before committing.
        let mut trial = self.clone();
        for fname in record.functions.clone() {
            let f = trial.functions.get_mut(&fname).expect("record exists");
            f.impls.retain(|c| *c != component);
            if f.enabled == Some(component) {
                if f.protection.requires_presence() {
                    return Err(ConfigError::ProtectionViolation {
                        function: fname.clone(),
                        protection: f.protection,
                    });
                }
                f.enabled = None;
            }
            if f.impls.is_empty() {
                trial.functions.remove(&fname);
            }
        }
        trial.components.remove(&component);
        if let Some(dep) = trial.first_violated_dependency() {
            return Err(ConfigError::DependencyViolation(dep));
        }
        *self = trial;
        Ok(())
    }

    /// Enables the implementation of `function` found in `component`,
    /// replacing any currently enabled implementation of that function.
    ///
    /// # Errors
    ///
    /// - [`ConfigError::UnknownFunction`] / [`ConfigError::UnknownImplementation`];
    /// - [`ConfigError::ProtectionViolation`] if the function is permanent
    ///   and pinned to a different implementation;
    /// - [`ConfigError::DependencyViolation`] if the switch would leave a
    ///   dependency unsatisfied (the newly enabled implementation's own
    ///   requirements included).
    pub fn enable_function(
        &mut self,
        function: &FunctionName,
        component: ComponentId,
    ) -> Result<(), ConfigError> {
        let record = self
            .functions
            .get(function)
            .ok_or_else(|| ConfigError::UnknownFunction(function.clone()))?;
        if !record.impls.contains(&component) {
            return Err(ConfigError::UnknownImplementation {
                function: function.clone(),
                component,
            });
        }
        if record.protection == Protection::Permanent
            && record.enabled.is_some()
            && record.enabled != Some(component)
        {
            return Err(ConfigError::ProtectionViolation {
                function: function.clone(),
                protection: Protection::Permanent,
            });
        }
        let mut trial = self.clone();
        trial
            .functions
            .get_mut(function)
            .expect("record exists")
            .enabled = Some(component);
        if let Some(dep) = trial.first_violated_dependency() {
            return Err(ConfigError::DependencyViolation(dep));
        }
        *self = trial;
        Ok(())
    }

    /// Disables `function` (no implementation remains enabled).
    ///
    /// # Errors
    ///
    /// - [`ConfigError::UnknownFunction`];
    /// - [`ConfigError::ProtectionViolation`] for mandatory/permanent
    ///   functions;
    /// - [`ConfigError::DependencyViolation`] if an enabled function depends
    ///   on it.
    pub fn disable_function(&mut self, function: &FunctionName) -> Result<(), ConfigError> {
        let record = self
            .functions
            .get(function)
            .ok_or_else(|| ConfigError::UnknownFunction(function.clone()))?;
        if record.enabled.is_none() {
            return Ok(());
        }
        if record.protection.requires_presence() {
            return Err(ConfigError::ProtectionViolation {
                function: function.clone(),
                protection: record.protection,
            });
        }
        let mut trial = self.clone();
        trial
            .functions
            .get_mut(function)
            .expect("record exists")
            .enabled = None;
        if let Some(dep) = trial.first_violated_dependency() {
            return Err(ConfigError::DependencyViolation(dep));
        }
        *self = trial;
        Ok(())
    }

    /// Strengthens the protection of `function` (§3.2: mandatory/permanent
    /// markings may be added via the DCDO Manager's interface).
    ///
    /// # Errors
    ///
    /// - [`ConfigError::UnknownFunction`];
    /// - [`ConfigError::ProtectionWeakening`] if `protection` is weaker than
    ///   the current one;
    /// - [`ConfigError::MandatoryUnsatisfied`] when marking a function with
    ///   no enabled implementation mandatory or permanent.
    pub fn set_protection(
        &mut self,
        function: &FunctionName,
        protection: Protection,
    ) -> Result<(), ConfigError> {
        let record = self
            .functions
            .get_mut(function)
            .ok_or_else(|| ConfigError::UnknownFunction(function.clone()))?;
        if protection < record.protection {
            return Err(ConfigError::ProtectionWeakening {
                function: function.clone(),
                current: record.protection,
                requested: protection,
            });
        }
        if protection.requires_presence() && record.enabled.is_none() {
            return Err(ConfigError::MandatoryUnsatisfied(function.clone()));
        }
        record.protection = protection;
        Ok(())
    }

    /// Declares a dependency (§3.2, Types A–D).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::DependencyViolation`] if the dependency is
    /// violated by the current configuration (its source is enabled but its
    /// target is not).
    pub fn add_dependency(&mut self, dep: Dependency) -> Result<(), ConfigError> {
        if !self.dependency_satisfied(&dep) {
            return Err(ConfigError::DependencyViolation(dep));
        }
        if !self.dependencies.contains(&dep) {
            self.dependencies.push(dep);
        }
        Ok(())
    }

    /// Retracts a dependency. Unknown dependencies are ignored (retraction
    /// is how a function's de-facto mandatory status is lifted, §3.2).
    pub fn remove_dependency(&mut self, dep: &Dependency) {
        self.dependencies.retain(|d| d != dep);
    }

    /// Changes a function's visibility (exported ↔ internal).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::UnknownFunction`] for unknown functions and
    /// [`ConfigError::ProtectionViolation`] when hiding a mandatory or
    /// permanent exported function (clients were promised its presence).
    pub fn set_visibility(
        &mut self,
        function: &FunctionName,
        visibility: Visibility,
    ) -> Result<(), ConfigError> {
        let record = self
            .functions
            .get_mut(function)
            .ok_or_else(|| ConfigError::UnknownFunction(function.clone()))?;
        if record.visibility.is_exported()
            && !visibility.is_exported()
            && record.protection.requires_presence()
        {
            return Err(ConfigError::ProtectionViolation {
                function: function.clone(),
                protection: record.protection,
            });
        }
        record.visibility = visibility;
        Ok(())
    }

    // ---- consistency --------------------------------------------------

    /// Returns `true` if `dep` is satisfied: source-enabled implies
    /// target-enabled, with the pinning rules of Types A–D.
    pub fn dependency_satisfied(&self, dep: &Dependency) -> bool {
        let source_active = self
            .functions
            .get(dep.source().function())
            .and_then(|r| r.enabled)
            .is_some_and(|c| dep.source().component().is_none_or(|pin| pin == c));
        if !source_active {
            return true;
        }
        self.functions
            .get(dep.target().function())
            .and_then(|r| r.enabled)
            .is_some_and(|c| dep.target().component().is_none_or(|pin| pin == c))
    }

    /// Returns the first violated dependency, if any.
    pub fn first_violated_dependency(&self) -> Option<Dependency> {
        self.dependencies
            .iter()
            .find(|d| !self.dependency_satisfied(d))
            .cloned()
    }

    /// Full consistency check, used before a version is marked instantiable
    /// (§2.4, §3.2):
    ///
    /// - every mandatory/permanent function has an enabled implementation;
    /// - every enabled implementation's component is incorporated;
    /// - every dependency is satisfied.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (name, record) in &self.functions {
            if record.protection.requires_presence() && record.enabled.is_none() {
                return Err(ConfigError::MandatoryUnsatisfied(name.clone()));
            }
            if let Some(c) = record.enabled {
                if !self.components.contains_key(&c) {
                    return Err(ConfigError::ComponentNotPresent(c));
                }
            }
        }
        if let Some(dep) = self.first_violated_dependency() {
            return Err(ConfigError::DependencyViolation(dep));
        }
        Ok(())
    }

    /// Checks that this descriptor is a legal derivation of `parent`
    /// (§3.2): every function mandatory in the parent still has an enabled
    /// implementation here, and every permanent implementation of the
    /// parent is still the enabled implementation here.
    pub fn respects_inheritance(&self, parent: &DfmDescriptor) -> Result<(), ConfigError> {
        for (name, parent_record) in &parent.functions {
            match parent_record.protection {
                Protection::FullyDynamic => {}
                Protection::Mandatory => {
                    let ok = self
                        .functions
                        .get(name)
                        .is_some_and(|r| r.enabled.is_some());
                    if !ok {
                        return Err(ConfigError::MandatoryUnsatisfied(name.clone()));
                    }
                }
                Protection::Permanent => {
                    let ok = self
                        .functions
                        .get(name)
                        .is_some_and(|r| r.enabled.is_some() && r.enabled == parent_record.enabled);
                    if !ok {
                        return Err(ConfigError::ProtectionViolation {
                            function: name.clone(),
                            protection: Protection::Permanent,
                        });
                    }
                }
            }
        }
        Ok(())
    }

    /// Computes the difference needed to evolve a DCDO shaped like `self`
    /// into `target`: components to add (with their ICO sources and sizes)
    /// and components to remove.
    pub fn diff_components(&self, target: &DfmDescriptor) -> DescriptorDiff {
        let mut add = Vec::new();
        for (c, rec) in &target.components {
            if !self.components.contains_key(c) {
                add.push((*c, rec.clone()));
            }
        }
        let remove = self
            .components
            .keys()
            .filter(|c| !target.components.contains_key(c))
            .copied()
            .collect();
        DescriptorDiff { add, remove }
    }
}

/// The component-level difference between two descriptors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DescriptorDiff {
    /// Components the target has that the source lacks.
    pub add: Vec<(ComponentId, ComponentRecord)>,
    /// Components the source has that the target lacks.
    pub remove: Vec<ComponentId>,
}

impl DescriptorDiff {
    /// Returns `true` if no component changes are needed (pure DFM
    /// reconfiguration — the sub-half-second evolution case of §4).
    pub fn is_reconfiguration_only(&self) -> bool {
        self.add.is_empty() && self.remove.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use dcdo_types::TypeTag;
    use dcdo_vm::{ComponentBuilder, FunctionBuilder};

    use super::*;

    fn comp(id: u64, name: &str, fns: &[(&str, Visibility, Protection)]) -> ComponentDescriptor {
        let mut b = ComponentBuilder::new(ComponentId::from_raw(id), name);
        for (sig, vis, prot) in fns {
            let code = FunctionBuilder::parse(sig)
                .expect("signature")
                .ret()
                .build()
                .expect("valid");
            b = b.function(code, *vis, *prot);
        }
        b.build().expect("valid component").descriptor()
    }

    fn exported(sig: &str) -> (&str, Visibility, Protection) {
        (sig, Visibility::Exported, Protection::FullyDynamic)
    }

    fn v(s: &str) -> VersionId {
        s.parse().expect("version")
    }

    fn c(n: u64) -> ComponentId {
        ComponentId::from_raw(n)
    }

    #[test]
    fn incorporate_then_enable_then_call_shape() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(&comp(1, "math", &[exported("add(int, int) -> int")]), None)
            .expect("incorporates");
        let rec = d.function(&"add".into()).expect("recorded");
        assert!(!rec.is_enabled(), "incorporation does not enable");
        d.enable_function(&"add".into(), c(1)).expect("enables");
        assert_eq!(
            d.function(&"add".into()).expect("rec").enabled(),
            Some(c(1))
        );
        assert_eq!(d.exported_interface().len(), 1);
        assert_eq!(d.component_count(), 1);
        assert_eq!(d.function_count(), 1);
    }

    #[test]
    fn duplicate_incorporation_rejected() {
        let mut d = DfmDescriptor::new(v("1"));
        let cd = comp(1, "math", &[exported("add(int, int) -> int")]);
        d.incorporate_component(&cd, None).expect("first");
        assert_eq!(
            d.incorporate_component(&cd, None),
            Err(ConfigError::ComponentAlreadyPresent(c(1)))
        );
    }

    #[test]
    fn signature_mismatch_rejected() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(&comp(1, "a", &[exported("f(int) -> int")]), None)
            .expect("first");
        let err = d
            .incorporate_component(&comp(2, "b", &[exported("f(str) -> int")]), None)
            .unwrap_err();
        assert!(matches!(err, ConfigError::SignatureMismatch { .. }));
    }

    #[test]
    fn visibility_conflict_rejected() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(&comp(1, "a", &[exported("f() -> unit")]), None)
            .expect("first");
        let err = d
            .incorporate_component(
                &comp(
                    2,
                    "b",
                    &[(
                        "f() -> unit",
                        Visibility::Internal,
                        Protection::FullyDynamic,
                    )],
                ),
                None,
            )
            .unwrap_err();
        assert_eq!(err, ConfigError::VisibilityConflict("f".into()));
    }

    #[test]
    fn second_implementation_can_replace_first() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(&comp(1, "a", &[exported("f() -> unit")]), None)
            .expect("a");
        d.incorporate_component(&comp(2, "b", &[exported("f() -> unit")]), None)
            .expect("b");
        d.enable_function(&"f".into(), c(1)).expect("enable in a");
        d.enable_function(&"f".into(), c(2))
            .expect("replace with b");
        assert_eq!(d.function(&"f".into()).expect("rec").enabled(), Some(c(2)));
        assert_eq!(d.function(&"f".into()).expect("rec").impls(), &[c(1), c(2)]);
    }

    #[test]
    fn permanent_conflict_on_incorporation() {
        // The paper's example: incorporating a component with its own
        // permanent f into a descriptor that already has a permanent f.
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(
            &comp(
                1,
                "a",
                &[("f() -> unit", Visibility::Exported, Protection::Permanent)],
            ),
            None,
        )
        .expect("a");
        d.enable_function(&"f".into(), c(1)).expect("enable");
        let err = d
            .incorporate_component(
                &comp(
                    2,
                    "b",
                    &[("f() -> unit", Visibility::Exported, Protection::Permanent)],
                ),
                None,
            )
            .unwrap_err();
        assert_eq!(
            err,
            ConfigError::PermanentConflict {
                function: "f".into(),
                existing: c(1),
                offered: c(2),
            }
        );
    }

    #[test]
    fn mandatory_cannot_be_disabled_or_removed() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(&comp(1, "a", &[exported("f() -> unit")]), None)
            .expect("a");
        d.enable_function(&"f".into(), c(1)).expect("enable");
        d.set_protection(&"f".into(), Protection::Mandatory)
            .expect("mark mandatory");
        assert!(matches!(
            d.disable_function(&"f".into()),
            Err(ConfigError::ProtectionViolation { .. })
        ));
        assert!(matches!(
            d.remove_component(c(1)),
            Err(ConfigError::ProtectionViolation { .. })
        ));
    }

    #[test]
    fn mandatory_allows_replacement_but_permanent_freezes() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(&comp(1, "a", &[exported("f() -> unit")]), None)
            .expect("a");
        d.incorporate_component(&comp(2, "b", &[exported("f() -> unit")]), None)
            .expect("b");
        d.enable_function(&"f".into(), c(1)).expect("enable");
        d.set_protection(&"f".into(), Protection::Mandatory)
            .expect("mandatory");
        // Mandatory: some implementation must stay; switching is fine.
        d.enable_function(&"f".into(), c(2))
            .expect("switch allowed");
        d.set_protection(&"f".into(), Protection::Permanent)
            .expect("permanent");
        // Permanent: the implementation is frozen.
        assert!(matches!(
            d.enable_function(&"f".into(), c(1)),
            Err(ConfigError::ProtectionViolation { .. })
        ));
        // Weakening is refused.
        assert!(matches!(
            d.set_protection(&"f".into(), Protection::Mandatory),
            Err(ConfigError::ProtectionWeakening { .. })
        ));
    }

    #[test]
    fn protection_requires_enabled_impl() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(&comp(1, "a", &[exported("f() -> unit")]), None)
            .expect("a");
        assert_eq!(
            d.set_protection(&"f".into(), Protection::Mandatory),
            Err(ConfigError::MandatoryUnsatisfied("f".into()))
        );
    }

    #[test]
    fn structural_dependency_blocks_disabling_target() {
        // sort depends structurally on compare (Type A).
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(
            &comp(
                1,
                "sorting",
                &[
                    exported("sort(list) -> list"),
                    exported("compare(int, int) -> int"),
                ],
            ),
            None,
        )
        .expect("incorporates");
        d.enable_function(&"sort".into(), c(1)).expect("sort");
        d.enable_function(&"compare".into(), c(1)).expect("compare");
        d.add_dependency(Dependency::type_a("sort", c(1), "compare"))
            .expect("dep holds");
        assert!(matches!(
            d.disable_function(&"compare".into()),
            Err(ConfigError::DependencyViolation(_))
        ));
        // Disabling the *source* lifts the constraint (§3.2: dependencies
        // evolve with the implementation).
        d.disable_function(&"sort".into())
            .expect("sort is unprotected");
        d.disable_function(&"compare".into())
            .expect("no enabled source remains");
    }

    #[test]
    fn structural_dependency_allows_replacing_target() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(
            &comp(
                1,
                "sorting",
                &[
                    exported("sort(list) -> list"),
                    exported("compare(int, int) -> int"),
                ],
            ),
            None,
        )
        .expect("sorting");
        d.incorporate_component(
            &comp(2, "cmp2", &[exported("compare(int, int) -> int")]),
            None,
        )
        .expect("cmp2");
        d.enable_function(&"sort".into(), c(1)).expect("sort");
        d.enable_function(&"compare".into(), c(1)).expect("compare");
        d.add_dependency(Dependency::type_a("sort", c(1), "compare"))
            .expect("dep");
        // Type A permits upgrading compare to a different implementation.
        d.enable_function(&"compare".into(), c(2))
            .expect("replacement satisfies structural dependency");
    }

    #[test]
    fn behavioral_dependency_blocks_replacing_target() {
        // The paper's sort/compare example: Type C pins compare to c1.
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(
            &comp(
                1,
                "sorting",
                &[
                    exported("sort(list) -> list"),
                    exported("compare(int, int) -> int"),
                ],
            ),
            None,
        )
        .expect("sorting");
        d.incorporate_component(
            &comp(2, "cmp2", &[exported("compare(int, int) -> int")]),
            None,
        )
        .expect("cmp2");
        d.enable_function(&"sort".into(), c(1)).expect("sort");
        d.enable_function(&"compare".into(), c(1)).expect("compare");
        d.add_dependency(Dependency::type_c("sort", "compare", c(1)))
            .expect("dep");
        assert!(matches!(
            d.enable_function(&"compare".into(), c(2)),
            Err(ConfigError::DependencyViolation(_))
        ));
    }

    #[test]
    fn adding_violated_dependency_is_refused() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(
            &comp(1, "a", &[exported("f() -> unit"), exported("g() -> unit")]),
            None,
        )
        .expect("a");
        d.enable_function(&"f".into(), c(1)).expect("f");
        // g is disabled, so [f] -> [g] is violated right now.
        assert!(matches!(
            d.add_dependency(Dependency::type_d("f", "g")),
            Err(ConfigError::DependencyViolation(_))
        ));
    }

    #[test]
    fn dependency_retraction_restores_freedom() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(
            &comp(1, "a", &[exported("f() -> unit"), exported("g() -> unit")]),
            None,
        )
        .expect("a");
        d.enable_function(&"f".into(), c(1)).expect("f");
        d.enable_function(&"g".into(), c(1)).expect("g");
        let dep = Dependency::type_d("f", "g");
        d.add_dependency(dep.clone()).expect("dep");
        assert!(d.disable_function(&"g".into()).is_err());
        d.remove_dependency(&dep);
        d.disable_function(&"g".into()).expect("freed");
    }

    #[test]
    fn validate_catches_unsatisfied_mandatory() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(&comp(1, "a", &[exported("f() -> unit")]), None)
            .expect("a");
        d.enable_function(&"f".into(), c(1)).expect("f");
        d.set_protection(&"f".into(), Protection::Mandatory)
            .expect("mandatory");
        assert!(d.validate().is_ok());
        // Force an inconsistent state through direct manipulation of a
        // derived copy (models a hand-built descriptor).
        let mut broken = d.clone();
        broken.functions.get_mut(&"f".into()).expect("rec").enabled = None;
        assert_eq!(
            broken.validate(),
            Err(ConfigError::MandatoryUnsatisfied("f".into()))
        );
    }

    #[test]
    fn inheritance_checks_mandatory_and_permanent() {
        let mut parent = DfmDescriptor::new(v("1"));
        parent
            .incorporate_component(
                &comp(1, "a", &[exported("f() -> unit"), exported("g() -> unit")]),
                None,
            )
            .expect("a");
        parent.enable_function(&"f".into(), c(1)).expect("f");
        parent.enable_function(&"g".into(), c(1)).expect("g");
        parent
            .set_protection(&"f".into(), Protection::Mandatory)
            .expect("mandatory f");
        parent
            .set_protection(&"g".into(), Protection::Permanent)
            .expect("permanent g");

        let child = parent.clone().with_version(v("1.1"));
        assert!(child.respects_inheritance(&parent).is_ok());

        let mut no_f = parent.clone().with_version(v("1.2"));
        no_f.functions.get_mut(&"f".into()).expect("rec").enabled = None;
        assert_eq!(
            no_f.respects_inheritance(&parent),
            Err(ConfigError::MandatoryUnsatisfied("f".into()))
        );

        let mut moved_g = parent.clone().with_version(v("1.3"));
        moved_g.functions.get_mut(&"g".into()).expect("rec").enabled = Some(c(9));
        assert!(matches!(
            moved_g.respects_inheritance(&parent),
            Err(ConfigError::ProtectionViolation { .. })
        ));
    }

    #[test]
    fn diff_components_identifies_adds_and_removes() {
        let mut a = DfmDescriptor::new(v("1"));
        a.incorporate_component(&comp(1, "one", &[exported("f() -> unit")]), None)
            .expect("one");
        a.incorporate_component(&comp(2, "two", &[exported("g() -> unit")]), None)
            .expect("two");
        let mut b = DfmDescriptor::new(v("1.1"));
        b.incorporate_component(&comp(2, "two", &[exported("g() -> unit")]), None)
            .expect("two");
        b.incorporate_component(&comp(3, "three", &[exported("h() -> unit")]), None)
            .expect("three");
        let diff = a.diff_components(&b);
        assert_eq!(diff.add.len(), 1);
        assert_eq!(diff.add[0].0, c(3));
        assert_eq!(diff.remove, vec![c(1)]);
        assert!(!diff.is_reconfiguration_only());
        assert!(a.diff_components(&a).is_reconfiguration_only());
    }

    #[test]
    fn set_visibility_guards_protected_exports() {
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(&comp(1, "a", &[exported("f() -> unit")]), None)
            .expect("a");
        d.enable_function(&"f".into(), c(1)).expect("f");
        d.set_visibility(&"f".into(), Visibility::Internal)
            .expect("unprotected function can be hidden");
        d.set_visibility(&"f".into(), Visibility::Exported)
            .expect("and re-exported");
        d.set_protection(&"f".into(), Protection::Mandatory)
            .expect("mandatory");
        assert!(matches!(
            d.set_visibility(&"f".into(), Visibility::Internal),
            Err(ConfigError::ProtectionViolation { .. })
        ));
    }

    #[test]
    fn self_dependency_is_statically_vacuous() {
        // §3.2's recursion guard ("a function depends on itself") acts at
        // *runtime*, via active-thread counts (see Dfm::dependents_active):
        // disabling fib also deactivates the dependency's source, so the
        // static rule is trivially satisfied and the disable is legal.
        let mut d = DfmDescriptor::new(v("1"));
        d.incorporate_component(&comp(1, "a", &[exported("fib(int) -> int")]), None)
            .expect("a");
        d.enable_function(&"fib".into(), c(1)).expect("fib");
        let dep = Dependency::type_d("fib", "fib");
        assert!(dep.is_self_dependency());
        d.add_dependency(dep).expect("self-dep holds while enabled");
        d.disable_function(&"fib".into())
            .expect("static disable is fine; the runtime activity guard is separate");
    }

    #[test]
    fn record_accessors() {
        let mut d = DfmDescriptor::new(v("2.1"));
        assert_eq!(d.version(), &v("2.1"));
        d.incorporate_component(
            &comp(4, "acc", &[exported("f(int) -> int")]),
            Some(ObjectId::from_raw(9)),
        )
        .expect("acc");
        let record = d.component(c(4)).expect("present");
        assert_eq!(record.name, "acc");
        assert_eq!(record.ico, Some(ObjectId::from_raw(9)));
        assert_eq!(record.functions, vec![FunctionName::new("f")]);
        let f = d.function(&"f".into()).expect("rec");
        assert_eq!(f.signature().params(), &[TypeTag::Int]);
        assert_eq!(f.visibility(), Visibility::Exported);
        assert_eq!(f.protection(), Protection::FullyDynamic);
        assert_eq!(d.components().count(), 1);
        assert_eq!(d.functions().count(), 1);
        assert!(d.dependencies().is_empty());
    }
}
