//! Call resolution: the single level of indirection.
//!
//! Dynamic functions "are not invoked directly using only the mechanisms of
//! the programming language(s)" (§2): every call goes through a
//! [`CallResolver`], which hands back the ability to call — in this
//! implementation, the code block itself. Changing only the resolver
//! (without changing calling code) changes which implementation runs; this
//! indirection is the key enabler of dynamic configurability.
//!
//! Two resolvers exist in the workspace:
//!
//! - [`StaticResolver`] (here): a frozen function table, used by normal
//!   (monolithic) Legion objects — the baseline the paper compares against.
//!   It ignores visibility and enablement because a monolithic executable is
//!   checked at link time and never changes.
//! - `Dfm` (in `dcdo-core`): the dynamic function mapper, which checks
//!   visibility and enablement at every call and maintains active-thread
//!   counters.
//!
//! # Inline-cache tokens
//!
//! Resolution by name costs a hash (or an ordered-map walk) per call. A
//! resolver that keeps its per-function records in a flat slot table can
//! hand the caller a [`CallToken`] — a `(slot, generation)` pair — via
//! [`CallResolver::resolve_with_token`]. The caller stores the token next
//! to the call site; on the next call, [`CallResolver::resolve_token`]
//! turns it back into a [`ResolvedCall`] with a single bounds-checked index
//! — *if* the resolver's configuration generation still matches. Every
//! configuration operation moves the resolver to a fresh, globally unique
//! generation (see [`next_generation`]), so a stale token can never
//! dispatch through an outdated table, and a token can never be honored by
//! a resolver other than the one that issued it.
//!
//! Tokens elide the name lookup and the visibility/enablement checks, so
//! they are only valid for [`CallOrigin::Internal`] call sites (internal
//! calls may reach both exported and internal functions). Issuing resolvers
//! must keep resolved code alive until the next generation bump, so a
//! token's slot can never name freed code.

use std::collections::HashMap;
use std::rc::Rc;
use std::sync::atomic::{AtomicU64, Ordering};

use dcdo_types::{ComponentId, FunctionName};

use crate::decoded::{DecodeCacheStats, DecodedCode};
use crate::instr::CodeBlock;

/// Where a call originates, which determines the visibility check.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallOrigin {
    /// The call arrived from another object; only exported functions may be
    /// resolved.
    External,
    /// The call came from code already executing inside the object; both
    /// exported and internal functions may be resolved.
    Internal,
}

/// Why a call could not be resolved.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResolveError {
    /// No implementation of the function is present.
    Missing,
    /// An implementation is present but disabled.
    Disabled,
    /// The function is internal and the call came from outside.
    NotExported,
}

/// A successful resolution: the code to run and the component it lives in.
///
/// The code arrives **pre-decoded**: resolvers decode each [`CodeBlock`]
/// into its direct-threaded [`DecodedCode`] form once, at configuration
/// time, and hand out shared references. The decode cache rides the same
/// generation machinery as [`CallToken`]s — a configuration operation
/// replaces the cached decode exactly when it invalidates outstanding
/// tokens.
#[derive(Debug, Clone)]
pub struct ResolvedCall {
    /// The pre-decoded implementation to execute (shared, decoded once per
    /// configuration generation, never per call).
    pub code: Rc<DecodedCode>,
    /// The component containing the implementation (for the
    /// disappearing-component check).
    pub component: ComponentId,
    /// The resolver's dense index for this (function, component)
    /// implementation, handed back to [`CallResolver::enter`] and
    /// [`CallResolver::exit`] so thread-activity accounting indexes a
    /// counter instead of looking up a name.
    pub activity: u32,
}

/// A generation-stamped slot reference cacheable at a call site.
///
/// Issued by [`CallResolver::resolve_with_token`]; redeemed by
/// [`CallResolver::resolve_token`]. Valid only while the issuing resolver
/// remains at `generation` — any configuration change moves the resolver to
/// a fresh generation and silently invalidates every outstanding token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CallToken {
    /// Index into the issuing resolver's slot table.
    pub slot: u32,
    /// The resolver configuration generation the token was issued at.
    pub generation: u64,
}

/// Issues the next globally unique configuration generation.
///
/// Generations are drawn from one process-wide counter rather than
/// per-resolver (or per-world) counters, and this counter is the one piece
/// of process-wide mutable state the workspace keeps, on purpose:
///
/// - a [`CallToken`] issued by one resolver can never match another
///   resolver that happens to have seen the same number of configuration
///   changes;
/// - an object's generation stamps stay monotone across its incarnations
///   (the trace checker's generation-monotonicity class);
/// - no witness reads the values: span digests and flight dumps exclude
///   them, so two worlds sharing the counter still replay byte-identically.
///
/// Generation `0` is reserved and never issued, so it is safe as a "never
/// matches" sentinel.
pub fn next_generation() -> u64 {
    static COUNTER: AtomicU64 = AtomicU64::new(1);
    COUNTER.fetch_add(1, Ordering::Relaxed)
}

/// Maps dynamic-function calls to implementations at call time.
pub trait CallResolver {
    /// Resolves a call to `function` originating from `origin`.
    fn resolve(
        &mut self,
        function: &FunctionName,
        origin: CallOrigin,
    ) -> Result<ResolvedCall, ResolveError>;

    /// Resolves like [`CallResolver::resolve`], additionally issuing a
    /// [`CallToken`] the caller may cache when the resolver supports slot
    /// redemption. The default implementation issues no token, which keeps
    /// plain resolvers correct with zero extra work.
    fn resolve_with_token(
        &mut self,
        function: &FunctionName,
        origin: CallOrigin,
    ) -> Result<(ResolvedCall, Option<CallToken>), ResolveError> {
        self.resolve(function, origin).map(|r| (r, None))
    }

    /// Redeems a previously issued token, or returns `None` if the token's
    /// generation no longer matches (the caller must then re-resolve by
    /// name). Only [`CallOrigin::Internal`] call sites may redeem tokens.
    fn resolve_token(&mut self, token: CallToken) -> Option<ResolvedCall> {
        let _ = token;
        None
    }

    /// Cheap form of [`CallResolver::resolve_token`] for call sites that
    /// cached everything they need from an earlier redemption: returns
    /// `true` iff redeeming `token` now would succeed, without re-fetching
    /// the entry. A `true` return counts against the resolver's cache
    /// accounting exactly like a full redemption, so fused and unfused
    /// execution report identical dispatch statistics. Slot-table resolvers
    /// should override this together with `resolve_token`; the default
    /// (matching `resolve_token`'s default) revalidates nothing.
    fn revalidate_token(&mut self, token: CallToken) -> bool {
        let _ = token;
        false
    }

    /// Notifies that a thread entered the implementation whose
    /// [`ResolvedCall::activity`] index is `activity` (push of a call
    /// frame).
    fn enter(&mut self, activity: u32) {
        let _ = activity;
    }

    /// Notifies that a thread left the implementation whose
    /// [`ResolvedCall::activity`] index is `activity` (pop of a call frame,
    /// normal or unwinding).
    fn exit(&mut self, activity: u32) {
        let _ = activity;
    }

    /// Simulated cost, in nanoseconds, charged per resolved call. The DFM
    /// resolver uses this to model the paper's 10–15 µs indirection
    /// overhead; the static resolver models a direct call.
    fn dispatch_cost_nanos(&mut self) -> u64 {
        0
    }
}

/// A frozen function table: the resolver of a monolithic Legion object.
///
/// All functions are implicitly enabled and exported — exactly the contract
/// a statically linked executable provides. Entries live in a flat slot
/// table (name → slot index resolved once, then cached via [`CallToken`]s),
/// so steady-state dispatch is a bounds-checked index. It keeps no
/// thread-activity counters: the activity index it hands out is the slot,
/// and `enter`/`exit` are the trait's no-ops.
#[derive(Debug, Clone)]
pub struct StaticResolver {
    slots_by_name: HashMap<FunctionName, u32>,
    entries: Vec<ResolvedEntry>,
    generation: u64,
    dispatch_cost_nanos: u64,
    fuse: bool,
    stats: DecodeCacheStats,
}

#[derive(Debug, Clone)]
struct ResolvedEntry {
    code: Rc<DecodedCode>,
    component: ComponentId,
}

impl Default for StaticResolver {
    fn default() -> Self {
        StaticResolver {
            slots_by_name: HashMap::new(),
            entries: Vec::new(),
            generation: next_generation(),
            dispatch_cost_nanos: 0,
            fuse: true,
            stats: DecodeCacheStats::default(),
        }
    }
}

impl StaticResolver {
    /// Creates an empty table.
    pub fn new() -> Self {
        StaticResolver::default()
    }

    /// Sets the simulated per-call dispatch cost (a direct call is a few
    /// hundred nanoseconds on the paper's hardware).
    pub fn with_dispatch_cost_nanos(mut self, nanos: u64) -> Self {
        self.dispatch_cost_nanos = nanos;
        self
    }

    /// Selects whether the decode pass fuses superinstructions (on by
    /// default; off is the reference the differential tests compare
    /// against). Flipping the mode re-decodes every installed function and
    /// moves the table to a fresh generation, exactly like any other
    /// configuration change.
    pub fn with_fusion(mut self, fuse: bool) -> Self {
        self.set_fusion(fuse);
        self
    }

    /// See [`StaticResolver::with_fusion`].
    pub fn set_fusion(&mut self, fuse: bool) {
        if self.fuse == fuse {
            return;
        }
        self.fuse = fuse;
        for entry in &mut self.entries {
            self.stats.invalidations += 1;
            self.stats.decodes += 1;
            entry.code = Rc::new(DecodedCode::decode(Rc::clone(entry.code.block()), fuse));
        }
        if !self.entries.is_empty() {
            self.generation = next_generation();
        }
    }

    /// Pre-decode cache counters: decodes performed, resolutions served
    /// from the cache, and cached decodes invalidated by configuration
    /// changes.
    pub fn decode_stats(&self) -> DecodeCacheStats {
        self.stats
    }

    /// Installs a function implementation, decoding it once into its
    /// direct-threaded form. Later insertions replace earlier ones (link
    /// order) and invalidate the replaced decode. Each insertion moves the
    /// table to a fresh generation, invalidating outstanding [`CallToken`]s.
    pub fn insert(&mut self, code: CodeBlock, component: ComponentId) {
        let name = code.signature().name().clone();
        self.stats.decodes += 1;
        let entry = ResolvedEntry {
            code: Rc::new(DecodedCode::decode(Rc::new(code), self.fuse)),
            component,
        };
        match self.slots_by_name.get(&name) {
            Some(&slot) => {
                self.stats.invalidations += 1;
                self.entries[slot as usize] = entry;
            }
            None => {
                let slot = u32::try_from(self.entries.len()).expect("slot overflow");
                self.entries.push(entry);
                self.slots_by_name.insert(name, slot);
            }
        }
        self.generation = next_generation();
    }

    /// The table's current configuration generation.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Returns the number of functions in the table.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Returns `true` if the table contains `function`.
    pub fn contains(&self, function: &FunctionName) -> bool {
        self.slots_by_name.contains_key(function)
    }

    fn entry_call(&mut self, slot: u32) -> ResolvedCall {
        self.stats.hits += 1;
        let entry = &self.entries[slot as usize];
        ResolvedCall {
            code: Rc::clone(&entry.code),
            component: entry.component,
            activity: slot,
        }
    }
}

impl CallResolver for StaticResolver {
    fn resolve(
        &mut self,
        function: &FunctionName,
        _origin: CallOrigin,
    ) -> Result<ResolvedCall, ResolveError> {
        let slot = *self
            .slots_by_name
            .get(function)
            .ok_or(ResolveError::Missing)?;
        Ok(self.entry_call(slot))
    }

    fn resolve_with_token(
        &mut self,
        function: &FunctionName,
        _origin: CallOrigin,
    ) -> Result<(ResolvedCall, Option<CallToken>), ResolveError> {
        let slot = *self
            .slots_by_name
            .get(function)
            .ok_or(ResolveError::Missing)?;
        let token = CallToken {
            slot,
            generation: self.generation,
        };
        Ok((self.entry_call(slot), Some(token)))
    }

    fn resolve_token(&mut self, token: CallToken) -> Option<ResolvedCall> {
        if token.generation != self.generation || token.slot as usize >= self.entries.len() {
            return None;
        }
        Some(self.entry_call(token.slot))
    }

    fn revalidate_token(&mut self, token: CallToken) -> bool {
        if token.generation != self.generation || token.slot as usize >= self.entries.len() {
            return false;
        }
        self.stats.hits += 1;
        true
    }

    fn dispatch_cost_nanos(&mut self) -> u64 {
        self.dispatch_cost_nanos
    }
}

#[cfg(test)]
mod tests {
    use dcdo_types::FunctionSignature;

    use super::*;
    use crate::instr::Instr;

    fn block(sig: &str) -> CodeBlock {
        let sig: FunctionSignature = sig.parse().expect("valid");
        CodeBlock::new(sig, 0, vec![Instr::Ret])
    }

    #[test]
    fn static_resolver_finds_installed_functions() {
        let mut r = StaticResolver::new();
        r.insert(block("f() -> unit"), ComponentId::from_raw(1));
        assert!(r.contains(&"f".into()));
        assert_eq!(r.len(), 1);
        let resolved = r.resolve(&"f".into(), CallOrigin::External).expect("found");
        assert_eq!(resolved.component, ComponentId::from_raw(1));
    }

    #[test]
    fn static_resolver_reports_missing() {
        let mut r = StaticResolver::new();
        assert!(r.is_empty());
        assert_eq!(
            r.resolve(&"g".into(), CallOrigin::Internal).unwrap_err(),
            ResolveError::Missing
        );
    }

    #[test]
    fn later_insertions_replace() {
        let mut r = StaticResolver::new();
        r.insert(block("f() -> unit"), ComponentId::from_raw(1));
        r.insert(block("f() -> unit"), ComponentId::from_raw(2));
        let resolved = r.resolve(&"f".into(), CallOrigin::Internal).expect("found");
        assert_eq!(resolved.component, ComponentId::from_raw(2));
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn dispatch_cost_configurable() {
        let mut r = StaticResolver::new().with_dispatch_cost_nanos(300);
        assert_eq!(r.dispatch_cost_nanos(), 300);
    }

    #[test]
    fn tokens_redeem_until_the_table_changes() {
        let mut r = StaticResolver::new();
        r.insert(block("f() -> unit"), ComponentId::from_raw(1));
        let (first, token) = r
            .resolve_with_token(&"f".into(), CallOrigin::Internal)
            .expect("resolves");
        let token = token.expect("static resolver issues tokens");
        let redeemed = r.resolve_token(token).expect("fresh token redeems");
        assert_eq!(redeemed.component, first.component);
        assert!(Rc::ptr_eq(&redeemed.code, &first.code), "same shared code");

        // Any insertion invalidates outstanding tokens...
        r.insert(block("f() -> unit"), ComponentId::from_raw(2));
        assert!(r.resolve_token(token).is_none());
        // ...and re-resolving yields a fresh, redeemable token.
        let (_, token2) = r
            .resolve_with_token(&"f".into(), CallOrigin::Internal)
            .expect("resolves");
        let redeemed = r.resolve_token(token2.expect("token")).expect("redeems");
        assert_eq!(redeemed.component, ComponentId::from_raw(2));
    }

    #[test]
    fn foreign_and_malformed_tokens_are_rejected() {
        let mut a = StaticResolver::new();
        let mut b = StaticResolver::new();
        a.insert(block("f() -> unit"), ComponentId::from_raw(1));
        b.insert(block("f() -> unit"), ComponentId::from_raw(9));
        let (_, token) = a
            .resolve_with_token(&"f".into(), CallOrigin::Internal)
            .expect("resolves");
        let token = token.expect("token");
        // Generations are globally unique, so b can never honor a's token.
        assert!(b.resolve_token(token).is_none());
        // An out-of-range slot is rejected even with a matching generation.
        let bad = CallToken {
            slot: 99,
            generation: a.generation(),
        };
        assert!(a.resolve_token(bad).is_none());
    }

    #[test]
    fn resolved_calls_share_one_code_allocation() {
        let mut r = StaticResolver::new();
        r.insert(block("f() -> unit"), ComponentId::from_raw(1));
        let x = r.resolve(&"f".into(), CallOrigin::Internal).expect("ok");
        let y = r.resolve(&"f".into(), CallOrigin::Internal).expect("ok");
        assert!(Rc::ptr_eq(&x.code, &y.code));
    }
}
