//! Opt-in VM cost attribution.
//!
//! A [`VmThread`](crate::VmThread) can carry a [`ThreadProfile`]: per-function
//! call / instruction / `Work`-nanosecond counters plus a per-opcode
//! aggregate. Profiling is off by default and costs **one predicted branch
//! per retired instruction** when disabled (`Option::None` check); enabled,
//! it is three array increments per instruction with no allocation on the
//! hot path (a function's name is looked up once per entry, by a linear
//! scan: a thread touches one to three functions, so a hash table would
//! cost more to build than it saves).
//!
//! The fuel cost of a function equals its instruction count — the fuel loop
//! charges exactly one unit per retired instruction — so `instructions`
//! doubles as the fuel attribution the profiler reports.

use std::sync::{Mutex, OnceLock};

use dcdo_types::FunctionName;

use crate::instr::OPCODE_COUNT;

fn global_aggregate() -> &'static Mutex<VmProfile> {
    static GLOBAL: OnceLock<Mutex<VmProfile>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(VmProfile::new()))
}

/// Folds `profile` into the process-wide VM profile aggregate.
///
/// The aggregate exists for offline inspection tooling (`dcdo-inspect vm`)
/// that wants per-opcode totals across every profiled thread in a run
/// without threading a collector through the runtime. Hosts that emit
/// per-object profiles (the legion object runtime) record here as they
/// finish each thread.
pub fn record_global_vm_profile(profile: &VmProfile) {
    global_aggregate()
        .lock()
        .expect("vm profile aggregate poisoned")
        .merge(profile);
}

/// A snapshot of the process-wide VM profile aggregate.
pub fn global_vm_profile() -> VmProfile {
    global_aggregate()
        .lock()
        .expect("vm profile aggregate poisoned")
        .clone()
}

/// Clears the process-wide VM profile aggregate (start of a measured run).
pub fn reset_global_vm_profile() {
    *global_aggregate()
        .lock()
        .expect("vm profile aggregate poisoned") = VmProfile::new();
}

/// Per-function counters inside a [`ThreadProfile`] / [`VmProfile`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FnStats {
    /// Times the function was entered.
    pub calls: u64,
    /// Instructions retired while the function was the innermost frame
    /// (equal to the fuel it consumed).
    pub instructions: u64,
    /// Simulated nanoseconds charged by `Work` instructions inside it.
    pub work_nanos: u64,
}

impl FnStats {
    fn merge(&mut self, other: &FnStats) {
        self.calls += other.calls;
        self.instructions += other.instructions;
        self.work_nanos += other.work_nanos;
    }
}

/// Live profiling state attached to one running thread.
///
/// Maintains a shadow stack of indices into the thread's function list,
/// parallel to the thread's call frames, so each retired instruction is
/// attributed to the innermost function without touching the frame itself.
#[derive(Debug)]
pub struct ThreadProfile {
    /// Every function entered, in first-entered order.
    functions: Vec<FnProfile>,
    shadow: Vec<u32>,
    opcodes: [u64; OPCODE_COUNT],
}

impl Default for ThreadProfile {
    fn default() -> Self {
        ThreadProfile {
            functions: Vec::new(),
            shadow: Vec::new(),
            opcodes: [0; OPCODE_COUNT],
        }
    }
}

impl ThreadProfile {
    /// Records entry into `function`: finds (or appends) its entry, pushes
    /// the shadow frame, and counts the call.
    pub(crate) fn enter(&mut self, function: &FunctionName) {
        let index = match self.functions.iter().position(|f| f.name == *function) {
            Some(index) => index,
            None => {
                self.functions.push(FnProfile {
                    name: function.clone(),
                    stats: FnStats::default(),
                });
                self.functions.len() - 1
            }
        };
        self.functions[index].stats.calls += 1;
        self.shadow.push(index as u32);
    }

    /// Records exit from the innermost function.
    pub(crate) fn exit(&mut self) {
        self.shadow.pop();
    }

    /// Attributes one retired instruction (opcode `opcode`, charging
    /// `work_nanos` of simulated compute) to the innermost function.
    #[inline]
    pub(crate) fn instruction(&mut self, opcode: usize, work_nanos: u64) {
        self.opcodes[opcode] += 1;
        if let Some(&top) = self.shadow.last() {
            let s = &mut self.functions[top as usize].stats;
            s.instructions += 1;
            s.work_nanos += work_nanos;
        }
    }

    /// Freezes the counters into a report.
    pub fn snapshot(&self) -> VmProfile {
        VmProfile {
            functions: self.functions.clone(),
            opcodes: self.opcodes,
        }
    }
}

/// Per-function cost inside a [`VmProfile`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FnProfile {
    /// The function's name.
    pub name: FunctionName,
    /// Its counters.
    pub stats: FnStats,
}

/// A frozen VM cost report: per-function counters plus the per-opcode
/// aggregate, for one thread or merged across many.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmProfile {
    /// Per-function costs, in first-entered order (deterministic).
    pub functions: Vec<FnProfile>,
    /// Retired-instruction count per opcode, indexed by
    /// [`Instr::opcode`](crate::Instr::opcode).
    pub opcodes: [u64; OPCODE_COUNT],
}

impl Default for VmProfile {
    fn default() -> Self {
        VmProfile::new()
    }
}

impl VmProfile {
    /// Creates an empty profile.
    pub fn new() -> Self {
        VmProfile {
            functions: Vec::new(),
            opcodes: [0; OPCODE_COUNT],
        }
    }

    /// Total instructions retired across all opcodes.
    pub fn total_instructions(&self) -> u64 {
        self.opcodes.iter().sum()
    }

    /// Folds `other` into `self`, matching functions by name (appended in
    /// `other`'s order when new — still deterministic).
    pub fn merge(&mut self, other: &VmProfile) {
        for f in &other.functions {
            match self.functions.iter_mut().find(|mine| mine.name == f.name) {
                Some(mine) => mine.stats.merge(&f.stats),
                None => self.functions.push(f.clone()),
            }
        }
        for (mine, theirs) in self.opcodes.iter_mut().zip(other.opcodes.iter()) {
            *mine += theirs;
        }
    }

    /// The stats recorded for `name`, if the function was ever entered.
    pub fn function(&self, name: &str) -> Option<&FnStats> {
        self.functions
            .iter()
            .find(|f| f.name.as_str() == name)
            .map(|f| &f.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn enter_instruction_exit_attribute_to_innermost() {
        let mut p = ThreadProfile::default();
        p.enter(&"outer".into());
        p.instruction(0, 0);
        p.enter(&"inner".into());
        p.instruction(36, 50);
        p.instruction(28, 0);
        p.exit();
        p.instruction(28, 0);
        p.exit();
        let snap = p.snapshot();
        let outer = snap.function("outer").expect("outer profiled");
        assert_eq!(
            (outer.calls, outer.instructions, outer.work_nanos),
            (1, 2, 0)
        );
        let inner = snap.function("inner").expect("inner profiled");
        assert_eq!(
            (inner.calls, inner.instructions, inner.work_nanos),
            (1, 2, 50)
        );
        assert_eq!(snap.opcodes[0], 1);
        assert_eq!(snap.opcodes[36], 1);
        assert_eq!(snap.opcodes[28], 2);
        assert_eq!(snap.total_instructions(), 4);
    }

    #[test]
    fn merge_sums_by_name_and_keeps_order() {
        let mut a = ThreadProfile::default();
        a.enter(&"f".into());
        a.instruction(0, 10);
        a.exit();
        let mut b = ThreadProfile::default();
        b.enter(&"f".into());
        b.instruction(0, 5);
        b.enter(&"g".into());
        b.instruction(7, 0);
        b.exit();
        b.exit();
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.functions.len(), 2);
        assert_eq!(merged.functions[0].name.as_str(), "f");
        let f = merged.function("f").expect("f");
        assert_eq!((f.calls, f.instructions, f.work_nanos), (2, 2, 15));
        assert_eq!(merged.function("g").expect("g").calls, 1);
        assert_eq!(merged.opcodes[0], 2);
        assert_eq!(merged.opcodes[7], 1);
    }
}
