//! The textual component assembly language (`Language::VmAssembly`).
//!
//! Components can be authored as text and assembled at runtime — the
//! "source form" of this reproduction's dynamic code. The same format is
//! produced by [`disassemble`], so components round-trip through text:
//!
//! ```text
//! component "counter-core" id=101 arch=portable
//! static_data 1024
//!
//! export fn incr() -> int {
//!     global_get count
//!     call_dyn step/0
//!     add
//!     dup
//!     global_set count
//!     ret
//! }
//!
//! internal fn step() -> int mandatory {
//!     push 1
//!     ret
//! }
//!
//! depend [incr, self] -> [step]
//! auto_deps
//! ```
//!
//! - `export`/`internal` set visibility; an optional trailing `mandatory` or
//!   `permanent` sets the protection request (§3.2).
//! - Labels are written `name:` on their own line and referenced by jumps.
//! - `depend [f1, self] -> [f2]` declares dependencies; `self` pins to this
//!   component, a raw number pins to another component id, no pin means any
//!   implementation (the four §3.2 types).
//! - `auto_deps` additionally runs structural-dependency analysis.

use std::collections::HashMap;
use std::fmt::{self, Write as _};
use std::str::FromStr;

use dcdo_types::{
    Architecture, ComponentId, Dependency, DependencyEnd, FunctionSignature, Protection, Visibility,
};

use crate::builder::FunctionBuilder;
use crate::component::{ComponentBinary, ComponentBuilder};
use crate::instr::{Instr, Opcode, Operand, Shape};
use crate::value::Value;

/// An error while assembling component text, with its 1-based line number.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmError {
    /// The offending line (1-based).
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for AsmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for AsmError {}

fn err(line: usize, message: impl Into<String>) -> AsmError {
    AsmError {
        line,
        message: message.into(),
    }
}

/// Assembles component text into a [`ComponentBinary`].
///
/// # Examples
///
/// ```
/// let component = dcdo_vm::assemble(
///     "component \"math\" id=1\nexport fn double(int) -> int {\n    load_arg 0\n    push 2\n    mul\n    ret\n}\n",
/// )?;
/// assert_eq!(component.functions().len(), 1);
/// # Ok::<(), dcdo_vm::AsmError>(())
/// ```
///
/// # Errors
///
/// Returns an [`AsmError`] naming the offending line for syntax errors,
/// unknown mnemonics, unbound labels, or component validation failures.
pub fn assemble(source: &str) -> Result<ComponentBinary, AsmError> {
    let mut lines = source
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, strip_comment(l)))
        .filter(|(_, l)| !l.trim().is_empty());

    // Header.
    let (header_line, header) = lines
        .next()
        .ok_or_else(|| err(0, "empty component source"))?;
    let (name, id, arch) = parse_header(header_line, header.trim())?;

    let mut builder = ComponentBuilder::new(id, name);
    if arch != Architecture::Portable {
        builder = builder.impl_type(dcdo_types::ImplementationType::native(arch));
    }
    let mut auto_deps = false;
    let mut deps: Vec<Dependency> = Vec::new();

    while let Some((lineno, raw)) = lines.next() {
        let line = raw.trim();
        if let Some(rest) = line.strip_prefix("static_data ") {
            let bytes: u64 = rest
                .trim()
                .parse()
                .map_err(|_| err(lineno, format!("bad static_data size {rest:?}")))?;
            builder = builder.static_data_size(bytes);
        } else if line == "auto_deps" {
            auto_deps = true;
        } else if let Some(rest) = line.strip_prefix("depend ") {
            deps.push(parse_dependency(lineno, rest.trim(), id)?);
        } else if line.starts_with("export fn ") || line.starts_with("internal fn ") {
            let visibility = if line.starts_with("export") {
                Visibility::Exported
            } else {
                Visibility::Internal
            };
            let rest = line
                .trim_start_matches("export fn ")
                .trim_start_matches("internal fn ");
            let (sig_part, protection) = parse_fn_header(lineno, rest)?;
            let mut body: Vec<(usize, String)> = Vec::new();
            let mut closed = false;
            for (bl, braw) in lines.by_ref() {
                let b = braw.trim();
                if b == "}" {
                    closed = true;
                    break;
                }
                body.push((bl, b.to_owned()));
            }
            if !closed {
                return Err(err(lineno, "unterminated function body (missing '}')"));
            }
            let code = assemble_body(&sig_part, &body)?;
            builder = builder.function(code, visibility, protection);
        } else {
            return Err(err(lineno, format!("unrecognized directive {line:?}")));
        }
    }

    for d in deps {
        builder = builder.dependency(d);
    }
    if auto_deps {
        builder = builder.auto_structural_deps();
    }
    builder
        .build()
        .map_err(|e| err(0, format!("component validation failed: {e}")))
}

/// Cuts the line's `;` comment. A `;` between the line's first and last
/// `"` lies in a string literal, which [`disassemble`] writes unescaped,
/// so any string round-trips; a comment after a literal holds no `"`.
fn strip_comment(line: &str) -> &str {
    let literal = line.find('"').zip(line.rfind('"'));
    let in_literal = |i| literal.is_some_and(|(open, close)| open < i && i < close);
    match line.match_indices(';').find(|&(i, _)| !in_literal(i)) {
        Some((i, _)) => &line[..i],
        None => line,
    }
}

fn parse_header(
    lineno: usize,
    line: &str,
) -> Result<(String, ComponentId, Architecture), AsmError> {
    let rest = line
        .strip_prefix("component ")
        .ok_or_else(|| err(lineno, "expected `component \"name\" id=N [arch=...]`"))?
        .trim();
    let (name, rest) = if let Some(stripped) = rest.strip_prefix('"') {
        let close = stripped
            .find('"')
            .ok_or_else(|| err(lineno, "unterminated component name"))?;
        (stripped[..close].to_owned(), stripped[close + 1..].trim())
    } else {
        return Err(err(lineno, "component name must be quoted"));
    };
    let mut id = None;
    let mut arch = Architecture::Portable;
    for part in rest.split_whitespace() {
        if let Some(v) = part.strip_prefix("id=") {
            id =
                Some(ComponentId::from_raw(v.parse().map_err(|_| {
                    err(lineno, format!("bad component id {v:?}"))
                })?));
        } else if let Some(v) = part.strip_prefix("arch=") {
            arch = match v {
                "x86" => Architecture::X86,
                "alpha" => Architecture::Alpha,
                "sparc" => Architecture::Sparc,
                "portable" => Architecture::Portable,
                other => return Err(err(lineno, format!("unknown architecture {other:?}"))),
            };
        } else {
            return Err(err(lineno, format!("unknown header attribute {part:?}")));
        }
    }
    let id = id.ok_or_else(|| err(lineno, "component header needs id=N"))?;
    Ok((name, id, arch))
}

fn parse_fn_header(lineno: usize, rest: &str) -> Result<(String, Protection), AsmError> {
    let rest = rest.trim();
    let body_open = rest
        .strip_suffix('{')
        .ok_or_else(|| err(lineno, "function header must end with '{'"))?
        .trim();
    let (sig, protection) = if let Some(s) = body_open.strip_suffix(" mandatory") {
        (s, Protection::Mandatory)
    } else if let Some(s) = body_open.strip_suffix(" permanent") {
        (s, Protection::Permanent)
    } else {
        (body_open, Protection::FullyDynamic)
    };
    // Validate the signature parses now, for a good error location.
    sig.parse::<FunctionSignature>()
        .map_err(|e| err(lineno, e.to_string()))?;
    Ok((sig.trim().to_owned(), protection))
}

fn parse_dependency(lineno: usize, rest: &str, this: ComponentId) -> Result<Dependency, AsmError> {
    let (lhs, rhs) = rest
        .split_once("->")
        .ok_or_else(|| err(lineno, "expected `depend [f1, pin] -> [f2, pin]`"))?;
    let parse_end = |s: &str| -> Result<DependencyEnd, AsmError> {
        let inner = s
            .trim()
            .strip_prefix('[')
            .and_then(|s| s.strip_suffix(']'))
            .ok_or_else(|| err(lineno, format!("dependency end {s:?} must be bracketed")))?;
        match inner.split_once(',') {
            None => Ok(DependencyEnd::any_impl(inner.trim())),
            Some((f, pin)) => {
                let pin = pin.trim();
                let component = if pin == "self" {
                    this
                } else {
                    ComponentId::from_raw(
                        pin.parse()
                            .map_err(|_| err(lineno, format!("bad component pin {pin:?}")))?,
                    )
                };
                Ok(DependencyEnd::in_component(f.trim(), component))
            }
        }
    };
    Ok(Dependency::new(parse_end(lhs)?, parse_end(rhs)?))
}

fn assemble_body(sig: &str, body: &[(usize, String)]) -> Result<crate::CodeBlock, AsmError> {
    let first_line = body.first().map(|(l, _)| *l).unwrap_or(0);
    let mut b = FunctionBuilder::parse(sig).map_err(|e| err(first_line, e.to_string()))?;
    let mut labels: HashMap<String, crate::Label> = HashMap::new();
    // Pre-scan labels so forward references resolve.
    for (_, line) in body {
        if let Some(name) = line.strip_suffix(':') {
            let label = b.new_label();
            if labels.insert(name.trim().to_owned(), label).is_some() {
                return Err(err(first_line, format!("duplicate label {name:?}")));
            }
        }
    }
    let mut max_local: Option<u8> = None;
    let mut declared_locals: u8 = 0;
    for (lineno, line) in body {
        let lineno = *lineno;
        if let Some(name) = line.strip_suffix(':') {
            let label = labels[name.trim()];
            b.bind(label);
            continue;
        }
        let (mnemonic, operand) = match line.split_once(char::is_whitespace) {
            Some((m, o)) => (m, o.trim()),
            None => (line.as_str(), ""),
        };
        if mnemonic == "locals" {
            declared_locals = parse_int(lineno, mnemonic, operand)?;
            b.locals(declared_locals);
            continue;
        }
        let op = Opcode::from_name(mnemonic)
            .ok_or_else(|| err(lineno, format!("unknown mnemonic {mnemonic:?}")))?;
        let operand = match op.shape() {
            Shape::None if !operand.is_empty() => {
                return Err(err(lineno, format!("{mnemonic} takes no operand")));
            }
            Shape::None => Operand::None,
            Shape::Value => Operand::Value(parse_value(lineno, operand)?),
            Shape::U8 => Operand::U8(parse_int(lineno, mnemonic, operand)?),
            Shape::Jump => {
                let label = labels
                    .get(operand)
                    .copied()
                    .ok_or_else(|| err(lineno, format!("unknown label {operand:?}")))?;
                b.branch(op, label);
                continue;
            }
            Shape::Call => {
                let (name, argc) = operand
                    .rsplit_once('/')
                    .ok_or_else(|| err(lineno, format!("{mnemonic} needs `name/argc`")))?;
                let argc = argc
                    .parse()
                    .map_err(|_| err(lineno, format!("bad argc in {operand:?}")))?;
                Operand::Call(name.into(), argc)
            }
            Shape::U64 => Operand::U64(parse_int(lineno, mnemonic, operand)?),
            Shape::Key => Operand::Key(operand.into()),
        };
        let instr = op.with(operand);
        if let Instr::LoadLocal(n) | Instr::StoreLocal(n) = instr {
            max_local = Some(max_local.map_or(n, |m| m.max(n)));
        }
        b.instr(instr);
    }
    if let Some(m) = max_local {
        // Ensure the local count covers every used slot even when the
        // author omitted (or under-declared) `locals` — but never shrink an
        // explicit declaration.
        b.locals(declared_locals.max(m + 1));
    }
    b.build().map_err(|e| err(first_line, e.to_string()))
}

fn parse_int<T: FromStr>(lineno: usize, mnemonic: &str, operand: &str) -> Result<T, AsmError> {
    operand
        .parse()
        .map_err(|_| err(lineno, format!("{mnemonic} needs an integer operand")))
}

fn parse_value(lineno: usize, operand: &str) -> Result<Value, AsmError> {
    if operand == "unit" {
        return Ok(Value::Unit);
    }
    if operand == "true" {
        return Ok(Value::Bool(true));
    }
    if operand == "false" {
        return Ok(Value::Bool(false));
    }
    if let Some(stripped) = operand.strip_prefix('"') {
        let s = stripped
            .strip_suffix('"')
            .ok_or_else(|| err(lineno, "unterminated string literal"))?;
        return Ok(Value::str(s));
    }
    operand
        .parse::<i64>()
        .map(Value::Int)
        .map_err(|_| err(lineno, format!("cannot parse push operand {operand:?}")))
}

/// Renders a component back into assembly text. The output re-assembles to
/// an equal component (modulo generated label names and an explicit `locals`
/// directive).
pub fn disassemble(component: &ComponentBinary) -> String {
    let mut out = String::new();
    let arch = component.impl_type().architecture();
    let _ = writeln!(
        out,
        "component \"{}\" id={} arch={arch}",
        component.name(),
        component.id().as_raw(),
    );
    if component.static_data_size() > 0 {
        let _ = writeln!(out, "static_data {}", component.static_data_size());
    }
    for f in component.functions() {
        let _ = writeln!(out);
        let vis = if f.visibility().is_exported() {
            "export"
        } else {
            "internal"
        };
        let prot = match f.protection_request() {
            Protection::FullyDynamic => "",
            Protection::Mandatory => " mandatory",
            Protection::Permanent => " permanent",
        };
        let _ = writeln!(out, "{vis} fn {}{prot} {{", f.signature());
        let code = f.code();
        if code.locals() > 0 {
            let _ = writeln!(out, "    locals {}", code.locals());
        }
        // Label every jump target `l<pc>`.
        let mut targets: Vec<u32> = code
            .instrs()
            .iter()
            .filter_map(|i| match i.operand() {
                Operand::Jump(t) => Some(t),
                _ => None,
            })
            .collect();
        targets.sort_unstable();
        targets.dedup();
        for (pc, instr) in code.instrs().iter().enumerate() {
            if targets.binary_search(&(pc as u32)).is_ok() {
                let _ = writeln!(out, "  l{pc}:");
            }
            let _ = match instr.operand() {
                Operand::Jump(t) => writeln!(out, "    {} l{t}", instr.opcode_name()),
                _ => writeln!(out, "    {instr}"),
            };
        }
        let _ = writeln!(out, "}}");
    }
    for dep in component.dependencies() {
        let end = |e: &DependencyEnd| match e.component() {
            Some(c) if c == component.id() => format!("[{}, self]", e.function()),
            Some(c) => format!("[{}, {}]", e.function(), c.as_raw()),
            None => format!("[{}]", e.function()),
        };
        let _ = writeln!(out, "depend {} -> {}", end(dep.source()), end(dep.target()));
    }
    out
}

/// An instruction as one line of assembly text, without indentation. A
/// jump's target is its instruction index; [`disassemble`] writes the label
/// `l<index>` there instead.
impl fmt::Display for Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.opcode_name())?;
        match self.operand() {
            Operand::None => Ok(()),
            Operand::Value(Value::Unit) => f.write_str(" unit"),
            Operand::Value(Value::Str(s)) => write!(f, " \"{s}\""),
            Operand::Value(v) => write!(f, " {v}"),
            Operand::U8(n) => write!(f, " {n}"),
            Operand::Jump(t) => write!(f, " {t}"),
            Operand::Call(function, argc) => write!(f, " {function}/{argc}"),
            Operand::U64(n) => write!(f, " {n}"),
            Operand::Key(k) => write!(f, " {k}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use dcdo_types::{FunctionName, Visibility};

    use super::*;
    use crate::{CallOrigin, NativeRegistry, RunOutcome, StaticResolver, ValueStore, VmThread};

    const COUNTER: &str = r#"
component "counter" id=7 arch=portable
static_data 512

export fn incr() -> int {
    global_get count
    dup
    push unit
    eq
    jump_if_false has
    pop
    push 0
  has:
    call_dyn step/0
    add
    dup
    global_set count
    ret
}

internal fn step() -> int mandatory {
    push 1
    ret
}

depend [incr, self] -> [step]
"#;

    #[test]
    fn assembles_and_runs() {
        let component = assemble(COUNTER).expect("assembles");
        assert_eq!(component.id(), ComponentId::from_raw(7));
        assert_eq!(component.name(), "counter");
        assert_eq!(component.static_data_size(), 512);
        assert_eq!(component.functions().len(), 2);
        let step = component
            .function(&FunctionName::new("step"))
            .expect("step");
        assert_eq!(step.visibility(), Visibility::Internal);
        assert_eq!(step.protection_request(), Protection::Mandatory);
        assert_eq!(component.dependencies().len(), 1);

        let mut r = StaticResolver::new();
        for f in component.functions() {
            r.insert(f.code().clone(), component.id());
        }
        let mut g = ValueStore::new();
        for expected in 1..=3 {
            let mut t = VmThread::call(&mut r, &"incr".into(), vec![], CallOrigin::External)
                .expect("starts");
            let out = t.run(&mut r, &NativeRegistry::standard(), &mut g, 10_000);
            assert_eq!(out, RunOutcome::Completed(Value::Int(expected)));
        }
    }

    /// Every mnemonic in the instruction-set table assembles, and every
    /// opcode's `Display` is the line the disassembler writes for it (with
    /// a jump's target as an index, not a label).
    #[test]
    fn every_opcode_assembles_and_displays_as_its_disassembled_line() {
        for op in Opcode::ALL {
            let operand = match op.shape() {
                Shape::None => "",
                Shape::Value => " \"v\"",
                Shape::U8 => " 1",
                Shape::Jump => " top",
                Shape::Call => " f/1",
                Shape::U64 => " 250",
                Shape::Key => " k",
            };
            let name = op.name();
            let src = format!(
                "component \"c\" id=1\nexport fn f(any, any) -> any {{\n  top:\n    push 0\n    {name}{operand}\n}}\n"
            );
            let component = assemble(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
            let instr = &component.functions()[0].code().instrs()[1];
            assert_eq!(instr.op(), op);
            let text = disassemble(&component);
            let line = text.lines().rev().nth(1).expect("a body line").trim_start();
            if op.shape() == Shape::Jump {
                assert_eq!(line, format!("{name} l0"));
                assert_eq!(instr.to_string(), format!("{name} 0"));
            } else {
                assert_eq!(line, instr.to_string());
            }
        }
    }

    #[test]
    fn disassemble_round_trips() {
        let component = assemble(COUNTER).expect("assembles");
        let text = disassemble(&component);
        let again = assemble(&text).expect("reassembles");
        assert_eq!(again, component);
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let src = r#"
component "c" id=1 ; the header
; a full-line comment

export fn f() -> int {
    push 5 ; five
    ret
}
"#;
        let component = assemble(src).expect("assembles");
        assert_eq!(component.functions().len(), 1);
    }

    #[test]
    fn a_semicolon_in_a_string_literal_is_not_a_comment() {
        let src = "component \"c;d\" id=1 ; the header\n\
                   export fn f() -> str {\n    push \"a;b\" ; a;b\n    ret\n}\n";
        let component = assemble(src).expect("assembles");
        assert_eq!(component.name(), "c;d");
        let push = &component.functions()[0].code().instrs()[0];
        assert_eq!(*push, Instr::Push(Value::str("a;b")));
        let text = disassemble(&component);
        assert_eq!(assemble(&text).expect("round trip"), component);
    }

    #[test]
    fn an_operand_after_an_operand_free_mnemonic_is_an_error() {
        let src =
            "component \"c\" id=1\nexport fn f() -> unit {\n    push unit\n    pop 5\n    ret\n}\n";
        let e = assemble(src).unwrap_err();
        assert_eq!(e.line, 4);
        assert_eq!(e.message, "pop takes no operand");
        assert!(assemble(&src.replace("pop 5", "pop ; 5")).is_ok());
    }

    #[test]
    fn errors_carry_line_numbers() {
        let src = "component \"c\" id=1\nexport fn f() -> int {\n    frobnicate\n    ret\n}\n";
        let e = assemble(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("frobnicate"));

        let e = assemble("component \"c\"\n").unwrap_err();
        assert!(e.message.contains("id=N"));

        let e = assemble("component \"c\" id=1\nexport fn f() -> int {\n    push 1\n").unwrap_err();
        assert!(e.message.contains("unterminated"));

        let e = assemble("component \"c\" id=1\nexport fn nope {\n}\n").unwrap_err();
        assert!(e.message.contains("invalid signature"));
    }

    #[test]
    fn unknown_labels_are_reported() {
        let src = "component \"c\" id=1\nexport fn f() -> unit {\n    jump nowhere\n}\n";
        let e = assemble(src).unwrap_err();
        assert_eq!(e.line, 3);
        assert!(e.message.contains("nowhere"));
    }

    #[test]
    fn dependency_pins_parse() {
        let src = r#"
component "c" id=5
export fn f() -> unit {
    ret
}
depend [f, self] -> [g, 9]
depend [f] -> [g]
"#;
        let component = assemble(src).expect("assembles");
        let deps = component.dependencies();
        assert_eq!(deps.len(), 2);
        assert_eq!(deps[0].source().component(), Some(ComponentId::from_raw(5)));
        assert_eq!(deps[0].target().component(), Some(ComponentId::from_raw(9)));
        assert_eq!(deps[1].dependency_type(), dcdo_types::DependencyType::D);
    }

    #[test]
    fn native_arch_header() {
        let src = "component \"n\" id=2 arch=alpha\nexport fn f() -> unit {\n    ret\n}\n";
        let component = assemble(src).expect("assembles");
        assert_eq!(component.impl_type().architecture(), Architecture::Alpha);
        let text = disassemble(&component);
        assert!(text.contains("arch=alpha"));
        assert_eq!(assemble(&text).expect("round trip"), component);
    }

    #[test]
    fn string_and_bool_literals() {
        let src = r#"
component "lits" id=3
export fn greet() -> str {
    push "hi "
    push "there"
    str_concat
    ret
}
export fn yes() -> bool {
    push true
    ret
}
"#;
        let component = assemble(src).expect("assembles");
        let mut r = StaticResolver::new();
        for f in component.functions() {
            r.insert(f.code().clone(), component.id());
        }
        let mut g = ValueStore::new();
        let mut t =
            VmThread::call(&mut r, &"greet".into(), vec![], CallOrigin::External).expect("starts");
        assert_eq!(
            t.run(&mut r, &NativeRegistry::standard(), &mut g, 1000),
            RunOutcome::Completed(Value::str("hi there"))
        );
    }
}
