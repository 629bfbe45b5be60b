//! Opt-in VM cost attribution.
//!
//! A [`VmThread`](crate::VmThread) can carry a [`ThreadProfile`]: per-function
//! call / instruction / `Work`-nanosecond counters plus a per-opcode
//! aggregate. Profiling is off by default and costs **one predicted branch
//! per retired instruction** when disabled (`Option::None` check); enabled,
//! it is three array increments per instruction with no allocation on the
//! hot path (a function's name is looked up once per entry, by a linear
//! scan: a thread touches one to three functions, so a hash table would
//! cost more to build than it saves). The profile lives inline in the
//! thread and is cleared when a host restarts the thread, so a host that
//! recycles its threads profiles without allocating per call.
//!
//! The fuel cost of a function equals its instruction count — the fuel loop
//! charges exactly one unit per retired instruction — so `instructions`
//! doubles as the fuel attribution the profiler reports.

use dcdo_types::FunctionName;

use crate::instr::OPCODE_COUNT;

/// One world's VM totals: the merged profile of every profiled thread that
/// finished in it, and the original opcodes its threaded runs retired.
///
/// The host that runs threads keeps one per simulated world (the legion
/// object runtime folds each finished thread's profile and each run's
/// retirement into its world's copy), so two worlds in one process never
/// share a count. `dcdo-inspect vm` reads them off the finished run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct VmTotals {
    /// Every profiled thread's counters, merged (empty unless tracing
    /// was on: profiling piggybacks on it).
    pub profile: VmProfile,
    /// Original opcodes retired by threaded execution.
    pub retired: u64,
    /// The subset retired inside a superinstruction.
    pub fused: u64,
}

impl VmTotals {
    /// Fraction of retired original opcodes that ran inside a
    /// superinstruction (`0.0` when nothing retired).
    pub fn coverage(&self) -> f64 {
        if self.retired == 0 {
            0.0
        } else {
            self.fused as f64 / self.retired as f64
        }
    }
}

/// Per-function counters inside a thread's profile and a [`VmProfile`].
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
/// Holds the thread's [`VmProfile`] plus a shadow stack of indices into its
/// function list, parallel to the thread's call frames, so each retired
/// instruction is attributed to the innermost function without touching
/// the frame itself. It lives inline in the thread and is cleared, not
/// freed, when the thread is restarted, so a recycled thread profiles with
/// no allocation once its buffers have grown.
#[derive(Debug, Default)]
pub(crate) struct ThreadProfile {
    report: VmProfile,
    shadow: Vec<u32>,
}

impl ThreadProfile {
    /// Empties the counters, keeping the buffers' capacity.
    pub(crate) fn clear(&mut self) {
        self.report.functions.clear();
        self.report.opcodes = [0; OPCODE_COUNT];
        self.shadow.clear();
    }

    /// Records entry into `function`: finds (or appends) its entry, pushes
    /// the shadow frame, and counts the call.
    pub(crate) fn enter(&mut self, function: &FunctionName) {
        let functions = &mut self.report.functions;
        let index = match functions.iter().position(|f| f.name == *function) {
            Some(index) => index,
            None => {
                functions.push(FnProfile {
                    name: function.clone(),
                    stats: FnStats::default(),
                });
                functions.len() - 1
            }
        };
        functions[index].stats.calls += 1;
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
        self.report.opcodes[opcode] += 1;
        if let Some(&top) = self.shadow.last() {
            let s = &mut self.report.functions[top as usize].stats;
            s.instructions += 1;
            s.work_nanos += work_nanos;
        }
    }

    /// The counters so far.
    pub(crate) fn report(&self) -> &VmProfile {
        &self.report
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
    /// `other`'s order when new — still deterministic). Names that share an
    /// allocation match by pointer, before any byte is compared.
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
    fn coverage_math() {
        let t = VmTotals {
            retired: 100,
            fused: 75,
            ..VmTotals::default()
        };
        assert!((t.coverage() - 0.75).abs() < 1e-9);
        assert_eq!(VmTotals::default().coverage(), 0.0);
    }

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
        let snap = p.report();
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
        let mut merged = a.report().clone();
        merged.merge(b.report());
        assert_eq!(merged.functions.len(), 2);
        assert_eq!(merged.functions[0].name.as_str(), "f");
        let f = merged.function("f").expect("f");
        assert_eq!((f.calls, f.instructions, f.work_nanos), (2, 2, 15));
        assert_eq!(merged.function("g").expect("g").calls, 1);
        assert_eq!(merged.opcodes[0], 2);
        assert_eq!(merged.opcodes[7], 1);
    }
}
