//! Implementation components (§2, §2.3).
//!
//! A component packages a set of dynamic-function implementations, internal
//! metadata (visibility and requested protection per function, declared
//! dependencies), and an implementation type. Components are the unit of
//! incorporation: a DCDO grows and shrinks its implementation by adding and
//! removing whole components.
//!
//! The serialized form ([`ComponentBinary::encode`]) fixes what a component
//! costs to transfer; ICOs, host caches and DFMs share the decoded value,
//! whose functions carry their fused decode. [`ComponentBinary::size_bytes`]
//! includes a declared static-data size so workloads can model the
//! hundreds-of-kilobytes native components of the paper while the actual
//! bytecode stays small.

use std::collections::BTreeSet;
use std::fmt;
use std::rc::Rc;

use bytes::Bytes;
use dcdo_types::{
    Architecture, ComponentId, Dependency, DependencyEnd, FunctionName, FunctionSignature,
    ImplementationType, Language, ObjectCodeFormat, Protection, Visibility,
};
use serde::{Deserialize, Serialize};

use crate::builder::{BuildError, FunctionBuilder};
use crate::codec::{self, DecodeError, Reader, Writer, FORMAT_VERSION, MAGIC};
use crate::decoded::DecodedCode;
use crate::instr::CodeBlock;

/// One function implementation inside a component, with its code decoded
/// (fused) once for every DFM that maps it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FunctionDecl {
    decoded: Rc<DecodedCode>,
    visibility: Visibility,
    protection_request: Protection,
}

impl FunctionDecl {
    /// Creates a declaration.
    pub fn new(code: CodeBlock, visibility: Visibility, protection_request: Protection) -> Self {
        FunctionDecl {
            decoded: Rc::new(DecodedCode::decode(Rc::new(code), true)),
            visibility,
            protection_request,
        }
    }

    /// The implementation code.
    pub fn code(&self) -> &CodeBlock {
        self.decoded.block()
    }

    /// The code's fused decode, shared by every DFM that maps it.
    pub fn decoded(&self) -> &Rc<DecodedCode> {
        &self.decoded
    }

    /// The function name (from the code's signature).
    pub fn name(&self) -> &FunctionName {
        self.code().signature().name()
    }

    /// The declared signature.
    pub fn signature(&self) -> &FunctionSignature {
        self.code().signature()
    }

    /// Exported or internal.
    pub fn visibility(&self) -> Visibility {
        self.visibility
    }

    /// The protection the component requests for this function wherever it
    /// is incorporated (§3.2: "programmers can mark a dynamic function as
    /// mandatory (or permanent) within a descriptor that is maintained with
    /// the component itself").
    pub fn protection_request(&self) -> Protection {
        self.protection_request
    }
}

/// Metadata-only view of one function in a component descriptor.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FunctionMeta {
    /// The declared signature.
    pub signature: FunctionSignature,
    /// Exported or internal.
    pub visibility: Visibility,
    /// Requested protection.
    pub protection_request: Protection,
}

/// The descriptor of a component: everything about it except the code.
///
/// This is what a DCDO Manager inspects when configuring DFM descriptors and
/// what an ICO serves to metadata queries.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ComponentDescriptor {
    /// The component's stable logical identity.
    pub id: ComponentId,
    /// Human-readable name, e.g. `"sorting-v2"`.
    pub name: String,
    /// Architecture / format / language characteristics.
    pub impl_type: ImplementationType,
    /// Per-function metadata.
    pub functions: Vec<FunctionMeta>,
    /// Dependencies declared with the component.
    pub dependencies: Vec<Dependency>,
    /// Total size of the encoded component, in bytes.
    pub size_bytes: u64,
}

impl ComponentDescriptor {
    /// Looks up the metadata for `function`, if the component implements it.
    pub fn function(&self, function: &FunctionName) -> Option<&FunctionMeta> {
        self.functions
            .iter()
            .find(|f| f.signature.name() == function)
    }

    /// Names of all functions the component implements.
    pub fn function_names(&self) -> Vec<FunctionName> {
        self.functions
            .iter()
            .map(|f| f.signature.name().clone())
            .collect()
    }
}

/// Validation failures for a component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ComponentError {
    /// Two declarations share a function name.
    DuplicateFunction(FunctionName),
    /// A code block failed validation.
    InvalidCode {
        /// The offending function.
        function: FunctionName,
        /// Why its code is invalid.
        reason: String,
    },
    /// A declared dependency's source names a function the component does
    /// not implement.
    DanglingDependencySource(FunctionName),
}

impl fmt::Display for ComponentError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ComponentError::DuplicateFunction(name) => {
                write!(f, "component declares function {name} more than once")
            }
            ComponentError::InvalidCode { function, reason } => {
                write!(f, "invalid code for {function}: {reason}")
            }
            ComponentError::DanglingDependencySource(name) => write!(
                f,
                "dependency source {name} is not implemented by this component"
            ),
        }
    }
}

impl std::error::Error for ComponentError {}

/// A complete implementation component: descriptor metadata plus code.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentBinary {
    id: ComponentId,
    name: String,
    impl_type: ImplementationType,
    functions: Vec<FunctionDecl>,
    dependencies: Vec<Dependency>,
    static_data_size: u64,
    /// Length of [`ComponentBinary::encode`]'s output, computed once at
    /// construction. `wire_size` is consulted on every simulated send of a
    /// component-bearing message, so [`ComponentBinary::size_bytes`] must
    /// not re-encode per call.
    encoded_len: u64,
}

impl ComponentBinary {
    /// The component's stable logical identity.
    pub fn id(&self) -> ComponentId {
        self.id
    }

    /// Human-readable name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Architecture / format / language characteristics.
    pub fn impl_type(&self) -> ImplementationType {
        self.impl_type
    }

    /// The function implementations.
    pub fn functions(&self) -> &[FunctionDecl] {
        &self.functions
    }

    /// Looks up a function implementation by name.
    pub fn function(&self, name: &FunctionName) -> Option<&FunctionDecl> {
        self.functions.iter().find(|f| f.name() == name)
    }

    /// Dependencies declared with the component (manually via the builder
    /// plus any produced by [`ComponentBuilder::auto_structural_deps`]).
    pub fn dependencies(&self) -> &[Dependency] {
        &self.dependencies
    }

    /// The declared static-data padding (models native code/data bulk).
    pub fn static_data_size(&self) -> u64 {
        self.static_data_size
    }

    /// Length of [`ComponentBinary::encode`]'s output, without the static
    /// data.
    pub fn encoded_len(&self) -> u64 {
        self.encoded_len
    }

    /// Total transferable size: encoded metadata + code + static data.
    ///
    /// The encoded length is cached at construction; this is a constant-time
    /// accessor, safe to call from per-message `wire_size` hooks.
    pub fn size_bytes(&self) -> u64 {
        self.encoded_len + self.static_data_size
    }

    /// Returns the metadata-only descriptor.
    pub fn descriptor(&self) -> ComponentDescriptor {
        ComponentDescriptor {
            id: self.id,
            name: self.name.clone(),
            impl_type: self.impl_type,
            functions: self
                .functions
                .iter()
                .map(|f| FunctionMeta {
                    signature: f.signature().clone(),
                    visibility: f.visibility(),
                    protection_request: f.protection_request(),
                })
                .collect(),
            dependencies: self.dependencies.clone(),
            size_bytes: self.size_bytes(),
        }
    }

    /// Computes Type A structural dependencies by static analysis of the
    /// bytecode: for every implementation `[F, self]` that contains a
    /// `CallDyn` to `G`, emit `[F, self] -> [G]` (§3.2: "creating structural
    /// dependencies could be automated via static analysis").
    pub fn analyze_structural_deps(&self) -> Vec<Dependency> {
        let mut out = Vec::new();
        for decl in &self.functions {
            for callee in decl.code().dynamic_callees() {
                out.push(Dependency::new(
                    DependencyEnd::in_component(decl.name().clone(), self.id),
                    DependencyEnd::any_impl(callee),
                ));
            }
        }
        out
    }

    /// Validates the component: unique function names, valid code, and
    /// dependency sources implemented here.
    pub fn validate(&self) -> Result<(), ComponentError> {
        // Name lookups go through `&str` so the happy path allocates
        // nothing: `FunctionName` is only cloned (a refcount bump) when
        // building an error.
        let mut seen: BTreeSet<&str> = BTreeSet::new();
        for decl in &self.functions {
            if !seen.insert(decl.name().as_str()) {
                return Err(ComponentError::DuplicateFunction(decl.name().clone()));
            }
            decl.code()
                .validate()
                .map_err(|e| ComponentError::InvalidCode {
                    function: decl.name().clone(),
                    reason: e.to_string(),
                })?;
        }
        for dep in &self.dependencies {
            // Only pinned-to-self sources can be checked locally.
            if dep.source().component() == Some(self.id)
                && !seen.contains(dep.source().function().as_str())
            {
                return Err(ComponentError::DanglingDependencySource(
                    dep.source().function().clone(),
                ));
            }
        }
        Ok(())
    }

    /// Serializes the component to the `dcdo-bytecode` object-code format.
    pub fn encode(&self) -> Bytes {
        let mut w = Writer::new();
        w.u32(MAGIC);
        w.u16(FORMAT_VERSION);
        w.u64(self.id.as_raw());
        w.str(&self.name);
        w.u8(arch_code(self.impl_type.architecture()));
        w.u8(format_code(self.impl_type.format()));
        w.u8(lang_code(self.impl_type.language()));
        w.u64(self.static_data_size);
        w.u32(self.functions.len() as u32);
        for f in &self.functions {
            w.u8(if f.visibility.is_exported() { 1 } else { 0 });
            w.u8(protection_code(f.protection_request));
            codec::write_code_block(&mut w, f.code());
        }
        w.u32(self.dependencies.len() as u32);
        for d in &self.dependencies {
            write_dep_end(&mut w, d.source());
            write_dep_end(&mut w, d.target());
        }
        w.finish()
    }

    /// Deserializes a component from the `dcdo-bytecode` object-code format.
    ///
    /// # Errors
    ///
    /// Returns a [`DecodeError`] on malformed input (bad magic, unsupported
    /// version, truncated data, unknown opcodes, invalid signatures).
    pub fn decode(bytes: Bytes) -> Result<Self, DecodeError> {
        let total_len = bytes.len() as u64;
        let mut r = Reader::new(bytes);
        let magic = r.u32()?;
        if magic != MAGIC {
            return Err(DecodeError::BadMagic(magic));
        }
        let version = r.u16()?;
        if version != FORMAT_VERSION {
            return Err(DecodeError::UnsupportedVersion(version));
        }
        let id = ComponentId::from_raw(r.u64()?);
        let name = r.str()?;
        let architecture = arch_from_code(r.u8()?)?;
        let format = format_from_code(r.u8()?)?;
        let language = lang_from_code(r.u8()?)?;
        let static_data_size = r.u64()?;
        let n_functions = r.read_len()?;
        let mut functions = Vec::with_capacity(n_functions.min(4096));
        for _ in 0..n_functions {
            let visibility = if r.u8()? == 1 {
                Visibility::Exported
            } else {
                Visibility::Internal
            };
            let protection_request = protection_from_code(r.u8()?)?;
            let code = codec::read_code_block(&mut r)?;
            functions.push(FunctionDecl::new(code, visibility, protection_request));
        }
        let n_deps = r.read_len()?;
        let mut dependencies = Vec::with_capacity(n_deps.min(4096));
        for _ in 0..n_deps {
            let source = read_dep_end(&mut r)?;
            let target = read_dep_end(&mut r)?;
            dependencies.push(Dependency::new(source, target));
        }
        Ok(ComponentBinary {
            id,
            name,
            impl_type: ImplementationType::new(architecture, format, language),
            functions,
            dependencies,
            static_data_size,
            encoded_len: total_len - r.remaining() as u64,
        })
    }
}

fn write_dep_end(w: &mut Writer, end: &DependencyEnd) {
    w.str(end.function().as_str());
    match end.component() {
        Some(c) => {
            w.u8(1);
            w.u64(c.as_raw());
        }
        None => w.u8(0),
    }
}

fn read_dep_end(r: &mut Reader) -> Result<DependencyEnd, DecodeError> {
    let function: FunctionName = r.str()?.into();
    Ok(if r.u8()? == 1 {
        DependencyEnd::in_component(function, ComponentId::from_raw(r.u64()?))
    } else {
        DependencyEnd::any_impl(function)
    })
}

fn arch_code(a: Architecture) -> u8 {
    match a {
        Architecture::X86 => 0,
        Architecture::Alpha => 1,
        Architecture::Sparc => 2,
        Architecture::Portable => 3,
    }
}

fn arch_from_code(c: u8) -> Result<Architecture, DecodeError> {
    Ok(match c {
        0 => Architecture::X86,
        1 => Architecture::Alpha,
        2 => Architecture::Sparc,
        3 => Architecture::Portable,
        other => return Err(DecodeError::BadTag(other)),
    })
}

fn format_code(f: ObjectCodeFormat) -> u8 {
    match f {
        ObjectCodeFormat::ElfSharedObject => 0,
        ObjectCodeFormat::DcdoBytecode => 1,
    }
}

fn format_from_code(c: u8) -> Result<ObjectCodeFormat, DecodeError> {
    Ok(match c {
        0 => ObjectCodeFormat::ElfSharedObject,
        1 => ObjectCodeFormat::DcdoBytecode,
        other => return Err(DecodeError::BadTag(other)),
    })
}

fn lang_code(l: Language) -> u8 {
    match l {
        Language::Cpp => 0,
        Language::VmAssembly => 1,
        Language::Unspecified => 2,
    }
}

fn lang_from_code(c: u8) -> Result<Language, DecodeError> {
    Ok(match c {
        0 => Language::Cpp,
        1 => Language::VmAssembly,
        2 => Language::Unspecified,
        other => return Err(DecodeError::BadTag(other)),
    })
}

fn protection_code(p: Protection) -> u8 {
    match p {
        Protection::FullyDynamic => 0,
        Protection::Mandatory => 1,
        Protection::Permanent => 2,
    }
}

fn protection_from_code(c: u8) -> Result<Protection, DecodeError> {
    Ok(match c {
        0 => Protection::FullyDynamic,
        1 => Protection::Mandatory,
        2 => Protection::Permanent,
        other => return Err(DecodeError::BadTag(other)),
    })
}

/// Builder for [`ComponentBinary`].
///
/// # Examples
///
/// ```
/// use dcdo_types::{ComponentId, Visibility};
/// use dcdo_vm::{ComponentBuilder, FunctionBuilder};
///
/// let comp = ComponentBuilder::new(ComponentId::from_raw(1), "math")
///     .exported_fn(
///         FunctionBuilder::parse("double(int) -> int")?
///             .load_arg(0)
///             .push_int(2)
///             .mul()
///             .ret()
///             .build()?,
///     )
///     .build()?;
/// assert_eq!(comp.functions().len(), 1);
/// assert_eq!(comp.functions()[0].visibility(), Visibility::Exported);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug)]
pub struct ComponentBuilder {
    id: ComponentId,
    name: String,
    impl_type: ImplementationType,
    functions: Vec<FunctionDecl>,
    dependencies: Vec<Dependency>,
    static_data_size: u64,
    auto_deps: bool,
}

impl ComponentBuilder {
    /// Starts a component with the given identity and name. The
    /// implementation type defaults to portable bytecode.
    pub fn new(id: ComponentId, name: impl Into<String>) -> Self {
        ComponentBuilder {
            id,
            name: name.into(),
            impl_type: ImplementationType::portable_bytecode(),
            functions: Vec::new(),
            dependencies: Vec::new(),
            static_data_size: 0,
            auto_deps: false,
        }
    }

    /// Sets the implementation type.
    pub fn impl_type(mut self, t: ImplementationType) -> Self {
        self.impl_type = t;
        self
    }

    /// Declares the static-data padding in bytes (models native bulk).
    pub fn static_data_size(mut self, bytes: u64) -> Self {
        self.static_data_size = bytes;
        self
    }

    /// Adds a function with explicit visibility and protection request.
    pub fn function(
        mut self,
        code: CodeBlock,
        visibility: Visibility,
        protection: Protection,
    ) -> Self {
        self.functions
            .push(FunctionDecl::new(code, visibility, protection));
        self
    }

    /// Adds an exported, fully dynamic function.
    pub fn exported_fn(self, code: CodeBlock) -> Self {
        self.function(code, Visibility::Exported, Protection::FullyDynamic)
    }

    /// Adds an internal, fully dynamic function.
    pub fn internal_fn(self, code: CodeBlock) -> Self {
        self.function(code, Visibility::Internal, Protection::FullyDynamic)
    }

    /// Declares a dependency to ship with the component.
    pub fn dependency(mut self, dep: Dependency) -> Self {
        self.dependencies.push(dep);
        self
    }

    /// Enables automatic Type A structural-dependency analysis at build
    /// time: every `CallDyn` in the component's code yields a
    /// `[caller, this] -> [callee]` dependency.
    pub fn auto_structural_deps(mut self) -> Self {
        self.auto_deps = true;
        self
    }

    /// Convenience: assembles a function with [`FunctionBuilder`] and adds
    /// it exported.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors.
    pub fn exported(
        self,
        signature: &str,
        f: impl FnOnce(&mut FunctionBuilder) -> &mut FunctionBuilder,
    ) -> Result<Self, BuildError> {
        let mut b = FunctionBuilder::parse(signature)?;
        f(&mut b);
        Ok(self.exported_fn(b.build()?))
    }

    /// Convenience: assembles a function with [`FunctionBuilder`] and adds
    /// it internal.
    ///
    /// # Errors
    ///
    /// Propagates assembler errors.
    pub fn internal(
        self,
        signature: &str,
        f: impl FnOnce(&mut FunctionBuilder) -> &mut FunctionBuilder,
    ) -> Result<Self, BuildError> {
        let mut b = FunctionBuilder::parse(signature)?;
        f(&mut b);
        Ok(self.internal_fn(b.build()?))
    }

    /// Finishes and validates the component.
    ///
    /// # Errors
    ///
    /// Returns a [`ComponentError`] if validation fails.
    pub fn build(self) -> Result<ComponentBinary, ComponentError> {
        let mut component = ComponentBinary {
            id: self.id,
            name: self.name,
            impl_type: self.impl_type,
            functions: self.functions,
            dependencies: self.dependencies,
            static_data_size: self.static_data_size,
            encoded_len: 0,
        };
        if self.auto_deps {
            let mut auto = component.analyze_structural_deps();
            auto.retain(|d| !component.dependencies.contains(d));
            component.dependencies.extend(auto);
        }
        component.validate()?;
        component.encoded_len = component.encode().len() as u64;
        Ok(component)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instr::Instr;

    fn simple_block(sig: &str) -> CodeBlock {
        CodeBlock::new(sig.parse().expect("signature"), 0, vec![Instr::Ret])
    }

    fn calls_block(sig: &str, callee: &str) -> CodeBlock {
        CodeBlock::new(
            sig.parse().expect("signature"),
            0,
            vec![
                Instr::CallDyn {
                    function: callee.into(),
                    argc: 0,
                },
                Instr::Ret,
            ],
        )
    }

    #[test]
    fn builder_builds_and_validates() {
        let comp = ComponentBuilder::new(ComponentId::from_raw(1), "util")
            .exported_fn(simple_block("f() -> unit"))
            .internal_fn(simple_block("g() -> unit"))
            .build()
            .expect("valid");
        assert_eq!(comp.functions().len(), 2);
        assert_eq!(comp.name(), "util");
        assert!(comp.function(&"f".into()).is_some());
        assert!(comp.function(&"missing".into()).is_none());
    }

    #[test]
    fn duplicate_function_rejected() {
        let err = ComponentBuilder::new(ComponentId::from_raw(1), "dup")
            .exported_fn(simple_block("f() -> unit"))
            .exported_fn(simple_block("f() -> unit"))
            .build()
            .unwrap_err();
        assert!(matches!(err, ComponentError::DuplicateFunction(_)));
    }

    #[test]
    fn dangling_dependency_source_rejected() {
        let id = ComponentId::from_raw(1);
        let err = ComponentBuilder::new(id, "dep")
            .exported_fn(simple_block("f() -> unit"))
            .dependency(Dependency::type_a("ghost", id, "f"))
            .build()
            .unwrap_err();
        assert!(matches!(err, ComponentError::DanglingDependencySource(_)));
    }

    #[test]
    fn auto_structural_deps_found_by_static_analysis() {
        let id = ComponentId::from_raw(7);
        let comp = ComponentBuilder::new(id, "sorting")
            .exported_fn(calls_block("sort() -> unit", "compare"))
            .auto_structural_deps()
            .build()
            .expect("valid");
        let deps = comp.dependencies();
        assert_eq!(deps.len(), 1);
        assert_eq!(deps[0], Dependency::type_a("sort", id, "compare"));
    }

    #[test]
    fn auto_deps_do_not_duplicate_manual_ones() {
        let id = ComponentId::from_raw(7);
        let manual = Dependency::type_a("sort", id, "compare");
        let comp = ComponentBuilder::new(id, "sorting")
            .exported_fn(calls_block("sort() -> unit", "compare"))
            .dependency(manual)
            .auto_structural_deps()
            .build()
            .expect("valid");
        assert_eq!(comp.dependencies().len(), 1);
    }

    #[test]
    fn encode_decode_round_trips() {
        let id = ComponentId::from_raw(9);
        let comp = ComponentBuilder::new(id, "roundtrip")
            .static_data_size(1024)
            .exported_fn(calls_block("f() -> unit", "g"))
            .internal_fn(simple_block("g() -> unit"))
            .dependency(Dependency::type_b("f", id, "g", id))
            .auto_structural_deps()
            .build()
            .expect("valid");
        let encoded = comp.encode();
        let decoded = ComponentBinary::decode(encoded).expect("decodes");
        assert_eq!(decoded, comp);
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let comp = ComponentBuilder::new(ComponentId::from_raw(1), "x")
            .exported_fn(simple_block("f() -> unit"))
            .build()
            .expect("valid");
        let good = comp.encode();

        let mut corrupted = good.to_vec();
        corrupted[0] = 0;
        assert!(matches!(
            ComponentBinary::decode(Bytes::from(corrupted)),
            Err(DecodeError::BadMagic(_))
        ));

        let mut wrong_version = good.to_vec();
        wrong_version[5] = 99;
        assert!(matches!(
            ComponentBinary::decode(Bytes::from(wrong_version)),
            Err(DecodeError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn size_includes_static_data() {
        let small = ComponentBuilder::new(ComponentId::from_raw(1), "s")
            .exported_fn(simple_block("f() -> unit"))
            .build()
            .expect("valid");
        let padded = ComponentBuilder::new(ComponentId::from_raw(1), "s")
            .exported_fn(simple_block("f() -> unit"))
            .static_data_size(550_000)
            .build()
            .expect("valid");
        assert_eq!(padded.size_bytes() - small.size_bytes(), 550_000);
    }

    #[test]
    fn descriptor_reflects_contents() {
        let id = ComponentId::from_raw(3);
        let comp = ComponentBuilder::new(id, "desc")
            .function(
                simple_block("f() -> unit"),
                Visibility::Exported,
                Protection::Mandatory,
            )
            .build()
            .expect("valid");
        let d = comp.descriptor();
        assert_eq!(d.id, id);
        assert_eq!(d.functions.len(), 1);
        assert_eq!(d.functions[0].protection_request, Protection::Mandatory);
        assert_eq!(
            d.function(&"f".into()).expect("present").visibility,
            Visibility::Exported
        );
        assert_eq!(d.function_names(), vec![FunctionName::new("f")]);
        assert_eq!(d.size_bytes, comp.size_bytes());
    }
}
