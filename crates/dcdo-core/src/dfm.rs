//! The dynamic function mapper (§2).
//!
//! A `Dfm` is the centralized table through which all calls to dynamic
//! functions go — the single level of indirection that enables dynamic
//! configurability. It pairs a [`DfmDescriptor`] (the static shape) with
//! runtime state: the *loaded* code of incorporated components and the
//! per-implementation **active-thread counters** used for thread activity
//! monitoring (§3.2). It implements
//! [`CallResolver`], so the `dcdo-vm` interpreter resolves every `CallDyn`
//! through it at call time.
//!
//! # Dispatch hot path
//!
//! Function names are interned ([`FunctionInterner`]) and the per-function
//! dispatch records live in a flat slot table indexed by [`FunctionId`].
//! The table is rebuilt after every (rare) configuration operation, at
//! which point the DFM also moves to a fresh, globally unique configuration
//! *generation*. Call sites may cache a `(slot, generation)`
//! [`CallToken`]; a token redeems in O(1) while the generation matches and
//! silently expires the moment any configuration operation runs — so a
//! stale cache can never dispatch a disabled, replaced, or removed
//! function (§3.1's failure-mode semantics are preserved: the re-resolve
//! reports the same `Missing`/`Disabled`/`NotExported` outcomes a fresh
//! call would see).
//!
//! # Thread-activity counters
//!
//! Every (function, component) implementation whose code is loaded gets a
//! dense *activity index* when its component is incorporated or staged.
//! The index rides in each [`ResolvedCall`], so a frame push or pop is one
//! increment of a `Vec<u32>`; the name-keyed questions of §3.2
//! ([`Dfm::active_threads`], [`Dfm::component_active_threads`],
//! [`Dfm::dependents_active`]) walk the short implementation list at
//! configuration time instead. An index is never reassigned, so a thread
//! still parked in a removed component decrements the counter it
//! incremented.

use std::collections::HashMap;
use std::rc::Rc;

use dcdo_sim::{SimDuration, SimRng};
use dcdo_types::{ComponentId, FunctionId, FunctionInterner, FunctionName, VersionId};
use dcdo_vm::{
    next_generation, CallOrigin, CallResolver, CallToken, ComponentBinary, DecodeCacheStats,
    DecodedCode, ResolveError, ResolvedCall,
};

use crate::descriptor::DfmDescriptor;
use crate::error::ConfigError;

/// One slot of the flat dispatch table, indexed by [`FunctionId`].
#[derive(Debug, Clone, Default)]
enum Slot {
    /// The function is enabled and its code is loaded: dispatch is an index.
    Ready {
        code: Rc<DecodedCode>,
        component: ComponentId,
        activity: u32,
        exported: bool,
    },
    /// Anything else (unknown, disabled, or code not loaded); the slow path
    /// computes the precise [`ResolveError`].
    #[default]
    Vacant,
}

/// One loaded implementation's pre-decoded code and activity index.
#[derive(Debug, Clone)]
struct Loaded {
    code: Rc<DecodedCode>,
    activity: u32,
}

/// One (function, component) implementation whose code was loaded, at
/// its activity index, with its active-thread count (§3.2).
#[derive(Debug)]
struct Impl {
    function: FunctionName,
    component: ComponentId,
    active: u32,
}

/// How many recently resolved names the external fast path remembers.
const RECENT_NAMES: usize = 8;

/// The runtime dynamic function mapper of one DCDO.
pub struct Dfm {
    /// Shared with the manager's version store until this DFM's first
    /// mutation copies it ([`Dfm::descriptor_mut`]).
    descriptor: Rc<DfmDescriptor>,
    /// Loaded component code, **pre-decoded** into the VM's direct-threaded
    /// form: the component's own fused decode, shared (or, with fusion off,
    /// decoded afresh at incorporate/stage), so steady-state dispatch hands
    /// out `Rc` clones of it.
    loaded: HashMap<ComponentId, HashMap<FunctionName, Loaded>>,
    interner: FunctionInterner,
    slots: Vec<Slot>,
    generation: u64,
    /// The implementation behind each activity index, in first-loaded
    /// order. Only ever appended to.
    impls: Vec<Impl>,
    /// Names recently resolved by [`CallResolver::resolve`], each a clone
    /// of the caller's own allocation, matched by pointer: a caller that
    /// builds its name once is answered without hashing it. Oldest first;
    /// the oldest is dropped when a new name arrives at the bound.
    recent: Vec<(FunctionName, FunctionId)>,
    dispatch_band: (SimDuration, SimDuration),
    rng: SimRng,
    dispatches: u64,
    fuse: bool,
    decode_stats: DecodeCacheStats,
}

impl Dfm {
    /// Creates a DFM for a fresh (empty) implementation at `version`.
    ///
    /// `dispatch_band` is the simulated per-call indirection cost (the
    /// paper's 10–15 µs); `seed` drives the jitter.
    pub fn new(version: VersionId, dispatch_band: (SimDuration, SimDuration), seed: u64) -> Self {
        Dfm {
            descriptor: Rc::new(DfmDescriptor::new(version)),
            loaded: HashMap::new(),
            interner: FunctionInterner::new(),
            slots: Vec::new(),
            generation: next_generation(),
            impls: Vec::new(),
            recent: Vec::new(),
            dispatch_band,
            rng: SimRng::seed_from_u64(seed),
            dispatches: 0,
            fuse: true,
            decode_stats: DecodeCacheStats::default(),
        }
    }

    /// Selects whether the decode pass fuses superinstructions (on by
    /// default; off is the differential tests' reference). Flipping the
    /// mode re-decodes every loaded function and reindexes — a
    /// configuration operation like any other, so outstanding
    /// [`CallToken`]s expire.
    pub fn set_fusion(&mut self, fuse: bool) {
        if self.fuse == fuse {
            return;
        }
        self.fuse = fuse;
        for map in self.loaded.values_mut() {
            for loaded in map.values_mut() {
                self.decode_stats.invalidations += 1;
                self.decode_stats.decodes += 1;
                loaded.code = Rc::new(DecodedCode::decode(Rc::clone(loaded.code.block()), fuse));
            }
        }
        self.reindex();
    }

    /// Pre-decode cache counters: functions loaded (at incorporate/stage),
    /// resolutions served from the cache, and cached decodes dropped by
    /// configuration operations.
    pub fn decode_cache_stats(&self) -> DecodeCacheStats {
        self.decode_stats
    }

    /// The descriptor describing the current configuration.
    pub fn descriptor(&self) -> &DfmDescriptor {
        &self.descriptor
    }

    /// The descriptor, shared: a reply that reports it holds it as it is
    /// now, and this DFM's next mutation copies it.
    pub fn shared_descriptor(&self) -> Rc<DfmDescriptor> {
        Rc::clone(&self.descriptor)
    }

    /// The descriptor, for a mutation: copied first if it is still shared.
    fn descriptor_mut(&mut self) -> &mut DfmDescriptor {
        Rc::make_mut(&mut self.descriptor)
    }

    /// The current configuration generation. Every configuration operation
    /// moves the DFM to a fresh, globally unique generation, expiring all
    /// outstanding [`CallToken`]s.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Rebuilds the flat dispatch table from the descriptor and loaded code,
    /// and moves to a fresh generation. Called after every configuration
    /// operation — configuration is rare, dispatch is hot, so all per-call
    /// map walking is paid here instead.
    fn reindex(&mut self) {
        self.generation = next_generation();
        self.slots.iter_mut().for_each(|s| *s = Slot::Vacant);
        for (name, record) in self.descriptor.functions() {
            let id = self.interner.intern(name);
            if self.slots.len() <= id.index() {
                self.slots.resize(id.index() + 1, Slot::Vacant);
            }
            let Some(component) = record.enabled() else {
                continue;
            };
            let Some(loaded) = self.loaded.get(&component).and_then(|m| m.get(name)) else {
                continue;
            };
            self.slots[id.index()] = Slot::Ready {
                code: Rc::clone(&loaded.code),
                component,
                activity: loaded.activity,
                exported: record.visibility().is_exported(),
            };
        }
    }

    /// The slow resolution path: recomputes the precise error exactly as a
    /// descriptor walk would report it. Reached only when the fast path has
    /// no ready slot (or, in `debug_assertions`, to cross-check it).
    fn resolve_slow(
        &self,
        function: &FunctionName,
        origin: CallOrigin,
    ) -> Result<ResolvedCall, ResolveError> {
        let record = self
            .descriptor
            .function(function)
            .ok_or(ResolveError::Missing)?;
        if origin == CallOrigin::External && !record.visibility().is_exported() {
            return Err(ResolveError::NotExported);
        }
        let component = record.enabled().ok_or(ResolveError::Disabled)?;
        let loaded = self
            .loaded
            .get(&component)
            .and_then(|m| m.get(function))
            .ok_or(ResolveError::Missing)?;
        Ok(ResolvedCall {
            code: Rc::clone(&loaded.code),
            component,
            activity: loaded.activity,
        })
    }

    /// The implementation version currently reflected.
    pub fn version(&self) -> &VersionId {
        self.descriptor.version()
    }

    /// Total dynamic calls resolved.
    pub fn dispatches(&self) -> u64 {
        self.dispatches
    }

    /// Active-thread count for the implementation of `function` in
    /// `component`.
    pub fn active_threads(&self, function: &FunctionName, component: ComponentId) -> u32 {
        self.impls
            .iter()
            .find(|i| i.component == component && i.function == *function)
            .map_or(0, |i| i.active)
    }

    /// Total active threads across all implementations in `component` —
    /// the disappearing-component check (§3.2).
    pub fn component_active_threads(&self, component: ComponentId) -> u32 {
        self.impls
            .iter()
            .filter(|i| i.component == component)
            .map(|i| i.active)
            .sum()
    }

    /// Returns `true` if any function that (transitively by one hop)
    /// depends on `function` currently has active threads — used to
    /// postpone disables under activity monitoring (§3.2).
    pub fn dependents_active(&self, function: &FunctionName) -> bool {
        self.active_dependents(function).next().is_some()
    }

    /// Every implementation that depends (by one hop) on `function` and has
    /// active threads, as its component and thread count.
    pub fn active_dependents<'a>(
        &'a self,
        function: &'a FunctionName,
    ) -> impl Iterator<Item = (ComponentId, u32)> + 'a {
        self.impls
            .iter()
            .filter(move |i| {
                i.active > 0
                    && self.descriptor.dependencies().iter().any(|dep| {
                        dep.target().function() == function
                            && dep.source().matches(&i.function, i.component)
                    })
            })
            .map(|i| (i.component, i.active))
    }

    // ---- configuration (mechanism of §2.2) -----------------------------

    /// Maps a component's code into the object and records it in the
    /// descriptor. This is the "operating-system-specific mechanism for
    /// mapping it into the DCDO's address space" (§2.3) of this
    /// reproduction.
    ///
    /// # Errors
    ///
    /// Propagates descriptor-level incorporation failures; the component is
    /// validated before any state changes.
    pub fn incorporate_component(
        &mut self,
        binary: &ComponentBinary,
        ico: Option<dcdo_types::ObjectId>,
    ) -> Result<(), ConfigError> {
        binary
            .validate()
            .map_err(|e| ConfigError::BadComponent(e.to_string()))?;
        self.descriptor_mut()
            .incorporate_component(&binary.descriptor(), ico)?;
        self.load_decoded(binary);
        self.reindex();
        Ok(())
    }

    /// Unmaps a component.
    ///
    /// The *thread-activity* decision (error / delay / force) belongs to the
    /// owning DCDO; this method enforces only the descriptor-level rules.
    ///
    /// # Errors
    ///
    /// Propagates descriptor-level removal failures.
    pub fn remove_component(&mut self, component: ComponentId) -> Result<(), ConfigError> {
        self.descriptor_mut().remove_component(component)?;
        if let Some(dropped) = self.loaded.remove(&component) {
            self.decode_stats.invalidations += dropped.len() as u64;
        }
        self.reindex();
        Ok(())
    }

    /// Enables (or replaces) the implementation of `function` in
    /// `component`.
    ///
    /// # Errors
    ///
    /// Propagates descriptor-level failures.
    pub fn enable_function(
        &mut self,
        function: &FunctionName,
        component: ComponentId,
    ) -> Result<(), ConfigError> {
        self.descriptor_mut().enable_function(function, component)?;
        self.reindex();
        Ok(())
    }

    /// Disables `function`.
    ///
    /// # Errors
    ///
    /// Propagates descriptor-level failures.
    pub fn disable_function(&mut self, function: &FunctionName) -> Result<(), ConfigError> {
        self.descriptor_mut().disable_function(function)?;
        self.reindex();
        Ok(())
    }

    /// Replaces the whole descriptor (bulk evolution), keeping loaded code.
    ///
    /// The caller must have already loaded every component the new
    /// descriptor enables; [`ConfigError::ComponentNotPresent`] is returned
    /// otherwise. Thread counters survive: threads keep running in
    /// (possibly now-disabled) code, exactly as §3.2 allows.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::ComponentNotPresent`] if a required component
    /// is not loaded, or a validation error if the descriptor is internally
    /// inconsistent.
    pub fn apply_descriptor(
        &mut self,
        descriptor: impl Into<Rc<DfmDescriptor>>,
    ) -> Result<(), ConfigError> {
        let descriptor = descriptor.into();
        descriptor.validate()?;
        for (component, _) in descriptor.components() {
            if !self.loaded.contains_key(&component) {
                return Err(ConfigError::ComponentNotPresent(component));
            }
        }
        // Unload components the new descriptor no longer references,
        // dropping their cached decodes.
        let keep = |c: &ComponentId| descriptor.component(*c).is_some();
        let dropped: u64 = self
            .loaded
            .iter()
            .filter(|(c, _)| !keep(c))
            .map(|(_, m)| m.len() as u64)
            .sum();
        self.decode_stats.invalidations += dropped;
        self.loaded.retain(|c, _| keep(c));
        self.descriptor = descriptor;
        self.reindex();
        Ok(())
    }

    /// Loads component code without descriptor changes (staging step of a
    /// bulk evolution: data arrives first, the descriptor swap is atomic).
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError::BadComponent`] if the binary fails validation.
    pub fn stage_component(&mut self, binary: &ComponentBinary) -> Result<(), ConfigError> {
        binary
            .validate()
            .map_err(|e| ConfigError::BadComponent(e.to_string()))?;
        self.load_decoded(binary);
        self.reindex();
        Ok(())
    }

    /// Loads a binary's code: one `Rc<DecodedCode>` per function, the
    /// component's own fused decode (decoded afresh only with fusion off).
    /// Every function loaded counts as one decode; replacing an
    /// already-loaded component drops its cached decodes.
    /// Each implementation keeps the activity index it was first given.
    fn load_decoded(&mut self, binary: &ComponentBinary) {
        let component = binary.id();
        let decoded: HashMap<FunctionName, Loaded> = binary
            .functions()
            .iter()
            .map(|f| {
                let known = self
                    .impls
                    .iter()
                    .position(|i| i.component == component && i.function == *f.name());
                let activity = known.unwrap_or_else(|| {
                    self.impls.push(Impl {
                        function: f.name().clone(),
                        component,
                        active: 0,
                    });
                    self.impls.len() - 1
                });
                let activity = u32::try_from(activity).expect("activity index overflow");
                let code = if self.fuse {
                    Rc::clone(f.decoded())
                } else {
                    Rc::new(DecodedCode::decode(Rc::clone(f.decoded().block()), false))
                };
                (f.name().clone(), Loaded { code, activity })
            })
            .collect();
        self.decode_stats.decodes += decoded.len() as u64;
        if let Some(replaced) = self.loaded.insert(component, decoded) {
            self.decode_stats.invalidations += replaced.len() as u64;
        }
    }

    /// Returns `true` if the component's code is loaded.
    pub fn is_loaded(&self, component: ComponentId) -> bool {
        self.loaded.contains_key(&component)
    }

    /// Applies a scoped mutation to the descriptor (protections,
    /// dependencies, visibility — operations with no runtime side effects).
    ///
    /// # Errors
    ///
    /// Propagates the mutation's error.
    pub fn with_descriptor_mut(
        &mut self,
        f: impl FnOnce(&mut DfmDescriptor) -> Result<(), ConfigError>,
    ) -> Result<(), ConfigError> {
        let result = f(self.descriptor_mut());
        // The mutation may have changed visibility (which the slot table
        // caches) — and even a refused mutation may have partially probed;
        // reindexing unconditionally keeps the invariant simple: *every*
        // configuration operation moves to a fresh generation.
        self.reindex();
        result
    }
}

impl Dfm {
    /// The shared fast/slow resolution core. Returns the resolved call plus
    /// the ready slot's id when the fast path served it (the token, if any,
    /// is minted by the caller).
    fn resolve_inner(
        &mut self,
        function: &FunctionName,
        origin: CallOrigin,
    ) -> Result<(ResolvedCall, Option<FunctionId>), ResolveError> {
        // Fast path: interned id → flat slot. A pointer compare (or, for a
        // name not seen lately, one hash), one index, no descriptor walk.
        if let Some(id) = self.function_id(function) {
            if let Some(Slot::Ready {
                code,
                component,
                activity,
                exported,
            }) = self.slots.get(id.index())
            {
                if origin == CallOrigin::External && !*exported {
                    return Err(ResolveError::NotExported);
                }
                self.dispatches += 1;
                self.decode_stats.hits += 1;
                return Ok((
                    ResolvedCall {
                        code: Rc::clone(code),
                        component: *component,
                        activity: *activity,
                    },
                    Some(id),
                ));
            }
        }
        let resolved = self.resolve_slow(function, origin)?;
        self.dispatches += 1;
        self.decode_stats.hits += 1;
        Ok((resolved, None))
    }

    /// The interned id of `function`, if interned. A name whose allocation
    /// was seen lately is found by pointer; otherwise the interner hashes
    /// it, and a hit is remembered. Interned ids never change, and the
    /// remembered clone keeps its allocation (so its address) alive.
    fn function_id(&mut self, function: &FunctionName) -> Option<FunctionId> {
        let key = function.identity_key();
        if let Some((_, id)) = self.recent.iter().find(|(n, _)| n.identity_key() == key) {
            return Some(*id);
        }
        let id = self.interner.get(function)?;
        if self.recent.len() == RECENT_NAMES {
            self.recent.remove(0);
        }
        self.recent.push((function.clone(), id));
        Some(id)
    }
}

impl CallResolver for Dfm {
    fn resolve(
        &mut self,
        function: &FunctionName,
        origin: CallOrigin,
    ) -> Result<ResolvedCall, ResolveError> {
        self.resolve_inner(function, origin).map(|(call, _)| call)
    }

    fn resolve_with_token(
        &mut self,
        function: &FunctionName,
        origin: CallOrigin,
    ) -> Result<(ResolvedCall, Option<CallToken>), ResolveError> {
        let generation = self.generation;
        self.resolve_inner(function, origin).map(|(call, id)| {
            let token = id.map(|id| CallToken {
                slot: id.as_u32(),
                generation,
            });
            (call, token)
        })
    }

    fn resolve_token(&mut self, token: CallToken) -> Option<ResolvedCall> {
        // A matching generation proves the slot table is byte-for-byte the
        // one the token was issued against: no configuration operation has
        // run since, so the slot is still `Ready` with the same code.
        if token.generation != self.generation {
            return None;
        }
        match self.slots.get(token.slot as usize) {
            Some(Slot::Ready {
                code,
                component,
                activity,
                ..
            }) => {
                self.dispatches += 1;
                self.decode_stats.hits += 1;
                Some(ResolvedCall {
                    code: Rc::clone(code),
                    component: *component,
                    activity: *activity,
                })
            }
            _ => None,
        }
    }

    fn revalidate_token(&mut self, token: CallToken) -> bool {
        if token.generation != self.generation {
            return false;
        }
        match self.slots.get(token.slot as usize) {
            Some(Slot::Ready { .. }) => {
                self.dispatches += 1;
                self.decode_stats.hits += 1;
                true
            }
            _ => false,
        }
    }

    fn enter(&mut self, activity: u32) {
        self.impls[activity as usize].active += 1;
    }

    fn exit(&mut self, activity: u32) {
        let n = &mut self.impls[activity as usize].active;
        debug_assert!(*n > 0, "thread-activity counter underflow");
        *n = n.saturating_sub(1);
    }

    fn dispatch_cost_nanos(&mut self) -> u64 {
        self.rng
            .duration_between(self.dispatch_band.0, self.dispatch_band.1)
            .as_nanos()
    }
}

impl std::fmt::Debug for Dfm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Dfm")
            .field("version", self.descriptor.version())
            .field("functions", &self.descriptor.function_count())
            .field("components", &self.descriptor.component_count())
            .field("dispatches", &self.dispatches)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use dcdo_types::Visibility;
    use dcdo_vm::{ComponentBuilder, NativeRegistry, RunOutcome, Value, ValueStore, VmThread};

    use super::*;

    fn band() -> (SimDuration, SimDuration) {
        (SimDuration::from_micros(10), SimDuration::from_micros(15))
    }

    fn math_component(id: u64) -> ComponentBinary {
        ComponentBuilder::new(ComponentId::from_raw(id), format!("math-{id}"))
            .exported("double(int) -> int", |b| {
                b.load_arg(0).push_int(2).mul().ret()
            })
            .expect("double")
            .internal("helper() -> int", |b| b.push_int(7).ret())
            .expect("helper")
            .build()
            .expect("valid")
    }

    fn ready_dfm() -> Dfm {
        let mut dfm = Dfm::new("1".parse().expect("version"), band(), 7);
        let comp = math_component(1);
        dfm.incorporate_component(&comp, None)
            .expect("incorporates");
        dfm.enable_function(&"double".into(), ComponentId::from_raw(1))
            .expect("enable double");
        dfm.enable_function(&"helper".into(), ComponentId::from_raw(1))
            .expect("enable helper");
        dfm
    }

    #[test]
    fn resolve_enforces_visibility_and_enablement() {
        let mut dfm = ready_dfm();
        assert!(dfm.resolve(&"double".into(), CallOrigin::External).is_ok());
        assert_eq!(
            dfm.resolve(&"helper".into(), CallOrigin::External)
                .unwrap_err(),
            ResolveError::NotExported
        );
        assert!(dfm.resolve(&"helper".into(), CallOrigin::Internal).is_ok());
        assert_eq!(
            dfm.resolve(&"ghost".into(), CallOrigin::Internal)
                .unwrap_err(),
            ResolveError::Missing
        );
        dfm.disable_function(&"double".into()).expect("disable");
        assert_eq!(
            dfm.resolve(&"double".into(), CallOrigin::External)
                .unwrap_err(),
            ResolveError::Disabled
        );
        assert_eq!(dfm.dispatches(), 2);
    }

    #[test]
    fn full_call_through_the_dfm() {
        let mut dfm = ready_dfm();
        let mut thread = VmThread::call(
            &mut dfm,
            &"double".into(),
            vec![Value::Int(21)],
            CallOrigin::External,
        )
        .expect("starts");
        let outcome = thread.run(
            &mut dfm,
            &NativeRegistry::standard(),
            &mut ValueStore::new(),
            10_000,
        );
        assert_eq!(outcome, RunOutcome::Completed(Value::Int(42)));
        assert!(
            thread.take_consumed_nanos() >= 10_000,
            "dispatch cost charged"
        );
        assert_eq!(
            dfm.active_threads(&"double".into(), ComponentId::from_raw(1)),
            0
        );
    }

    #[test]
    fn dispatch_cost_stays_in_band() {
        let mut dfm = ready_dfm();
        for _ in 0..100 {
            let c = dfm.dispatch_cost_nanos();
            assert!((10_000..=15_000).contains(&c), "{c}");
        }
    }

    /// The activity index a call to `function` reports to enter/exit.
    fn activity(dfm: &mut Dfm, function: &str) -> u32 {
        dfm.resolve(&function.into(), CallOrigin::Internal)
            .expect("resolves")
            .activity
    }

    #[test]
    fn counters_track_enters_and_exits() {
        let mut dfm = ready_dfm();
        let c1 = ComponentId::from_raw(1);
        let (double, helper) = (activity(&mut dfm, "double"), activity(&mut dfm, "helper"));
        assert_ne!(double, helper);
        dfm.enter(double);
        dfm.enter(double);
        dfm.enter(helper);
        assert_eq!(dfm.active_threads(&"double".into(), c1), 2);
        assert_eq!(dfm.component_active_threads(c1), 3);
        dfm.exit(double);
        dfm.exit(double);
        dfm.exit(helper);
        assert_eq!(dfm.component_active_threads(c1), 0);
    }

    #[test]
    fn activity_indices_outlive_their_component() {
        let mut dfm = ready_dfm();
        let c1 = ComponentId::from_raw(1);
        let double = activity(&mut dfm, "double");
        dfm.enter(double);
        // Removing the component keeps the parked thread's counter, and a
        // re-incorporated copy of the same implementation reuses its index.
        dfm.remove_component(c1).expect("removes");
        assert_eq!(dfm.component_active_threads(c1), 1);
        dfm.incorporate_component(&math_component(1), None)
            .expect("re-incorporates");
        dfm.enable_function(&"double".into(), c1).expect("enable");
        assert_eq!(activity(&mut dfm, "double"), double);
        dfm.exit(double);
        assert_eq!(dfm.active_threads(&"double".into(), c1), 0);
    }

    #[test]
    fn dependents_active_detects_blocked_disable() {
        let mut dfm = ready_dfm();
        let c1 = ComponentId::from_raw(1);
        // double depends on helper; a thread is inside double.
        dfm.descriptor_mut()
            .add_dependency(dcdo_types::Dependency::type_a("double", c1, "helper"))
            .expect("dep");
        assert!(!dfm.dependents_active(&"helper".into()));
        let double = activity(&mut dfm, "double");
        dfm.enter(double);
        assert!(dfm.dependents_active(&"helper".into()));
        assert!(!dfm.dependents_active(&"double".into()));
        dfm.exit(double);
        assert!(!dfm.dependents_active(&"helper".into()));
    }

    #[test]
    fn apply_descriptor_requires_staged_code() {
        let mut dfm = ready_dfm();
        // Build a target descriptor with a second component.
        let comp2 = ComponentBuilder::new(ComponentId::from_raw(2), "math-2")
            .exported("triple(int) -> int", |b| {
                b.load_arg(0).push_int(3).mul().ret()
            })
            .expect("triple")
            .build()
            .expect("valid");
        let mut target = dfm
            .descriptor()
            .clone()
            .with_version("1.1".parse().expect("v"));
        target
            .incorporate_component(&comp2.descriptor(), None)
            .expect("incorporate");
        target
            .enable_function(&"triple".into(), ComponentId::from_raw(2))
            .expect("enable");

        // Without staging the code, the swap is refused.
        assert_eq!(
            dfm.apply_descriptor(target.clone()),
            Err(ConfigError::ComponentNotPresent(ComponentId::from_raw(2)))
        );
        dfm.stage_component(&comp2).expect("staged");
        dfm.apply_descriptor(target).expect("swap succeeds");
        assert_eq!(dfm.version(), &"1.1".parse::<VersionId>().expect("v"));
        assert!(dfm.resolve(&"triple".into(), CallOrigin::External).is_ok());
    }

    #[test]
    fn apply_descriptor_unloads_dropped_components() {
        let mut dfm = ready_dfm();
        let empty = DfmDescriptor::new("2".parse().expect("v"));
        dfm.apply_descriptor(empty).expect("swap to empty");
        assert!(!dfm.is_loaded(ComponentId::from_raw(1)));
        assert_eq!(
            dfm.resolve(&"double".into(), CallOrigin::External)
                .unwrap_err(),
            ResolveError::Missing
        );
    }

    #[test]
    fn removing_component_unloads_code() {
        let mut dfm = ready_dfm();
        let c1 = ComponentId::from_raw(1);
        assert!(dfm.is_loaded(c1));
        dfm.remove_component(c1).expect("removes");
        assert!(!dfm.is_loaded(c1));
        assert_eq!(
            dfm.resolve(&"double".into(), CallOrigin::External)
                .unwrap_err(),
            ResolveError::Missing
        );
    }

    #[test]
    fn invalid_component_is_rejected_before_any_change() {
        let dfm = Dfm::new("1".parse().expect("v"), band(), 1);
        // A component with out-of-range code is invalid.
        let bad = ComponentBuilder::new(ComponentId::from_raw(3), "bad")
            .exported_fn(dcdo_vm::CodeBlock::new(
                "f() -> unit".parse().expect("sig"),
                0,
                vec![dcdo_vm::Instr::Jump(99)],
            ))
            .build();
        // The builder itself refuses; simulate a hand-built bad binary via
        // the builder bypass not being available — validation also guards
        // incorporate_component.
        assert!(bad.is_err());
        assert_eq!(dfm.descriptor().component_count(), 0);
        let _ = Visibility::Exported;
    }
}
