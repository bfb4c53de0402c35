//! Canonical-form-keyed prover result cache.
//!
//! Identical sequents recur across the methods of one data structure: every path
//! re-establishes the class invariants, and the splitter re-emits the same background
//! assumptions per goal. The dispatcher therefore keys each obligation by a canonical
//! form of its (definition-inlined) sequent and consults an in-memory cache before
//! any prover runs.
//!
//! The canonical form is computed with the same machinery the syntactic prover (§6.1)
//! trusts: [`inline_definitions`] collapses generated-variable equations,
//! [`canonicalize`] strips comments and AC-sorts commutative operators, and
//! [`alpha_normalize`] names bound variables by their depth. On top of that,
//! assumptions are deduplicated and sorted, so permuted or duplicated assumption
//! lists key identically. Every transformation preserves logical equivalence, so a
//! cache hit on a proved entry is sound: the hit sequent is equivalent to one a prover
//! actually discharged. Within one `prove_all` batch each worker canonicalises a
//! recurring formula once (`KeyMemo`).

use jahob_logic::norm::{alpha_normalize, canonicalize, inline_definitions};
use jahob_logic::{Form, Sequent};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

use crate::ProverId;

/// The canonical key of a sequent: a printed form that is invariant under
/// definition inlining, comment stripping, AC permutation of commutative operators,
/// alpha-renaming of bound variables, and duplication or permutation of assumptions.
///
/// Key equality is exact string equality of the canonical form, so structurally
/// distinct sequents can never collide (a 64-bit hash is precomputed only to speed up
/// `HashMap` probing).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SequentKey {
    repr: String,
    hash: u64,
}

impl Hash for SequentKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// The canonical form of one formula: [`alpha_normalize`] then [`canonicalize`],
/// repeated until nothing changes.
///
/// `alpha_normalize` names every binder by its depth, so sibling binders share names
/// and AC sorting cannot change how any binder is named: one round normally reaches
/// the fixpoint, and a second round confirms it. The loop guards the cases where
/// `canonicalize` itself reshapes binders. Its beta reduction (of a lambda application, or of membership in a
/// comprehension) removes a binder, or renames one beneath it to avoid capture, which
/// leaves names that are no longer depth-canonical until the next round. On one pass of
/// the three benchmark workloads, all 8,304 assumptions and goals of the 838 inlined
/// sequents reach the fixpoint after one round; the bound keeps a pathological input
/// from looping.
fn key_form(form: &Form) -> Form {
    let mut current = canonicalize(&alpha_normalize(form));
    for _ in 0..4 {
        let next = canonicalize(&alpha_normalize(&current));
        if next == current {
            break;
        }
        current = next;
    }
    current
}

/// The printed [`key_form`] of every distinct formula keyed so far, and whether it is
/// `True`. One dispatcher worker keeps one memo for one `prove_all` batch, where
/// the same invariants and background facts recur in most obligations.
///
/// The memo is indexed by the formula itself, never by a hash alone: two formulas
/// sharing a hash must not share a canonical form, or a cache hit would be unsound.
#[derive(Debug, Default)]
pub(crate) struct KeyMemo {
    index: HashMap<Form, usize>,
    keys: Vec<(String, bool)>,
}

impl KeyMemo {
    /// The slot of `form`'s canonical form, computing it on first sight.
    fn slot(&mut self, form: &Form) -> usize {
        if let Some(&slot) = self.index.get(form) {
            return slot;
        }
        let canonical = key_form(form);
        self.keys.push((canonical.to_string(), canonical.is_true()));
        self.index.insert(form.clone(), self.keys.len() - 1);
        self.keys.len() - 1
    }
}

impl SequentKey {
    /// Computes the canonical key of `sequent`.
    pub fn of(sequent: &Sequent) -> SequentKey {
        SequentKey::of_inlined(&inline_definitions(sequent), &mut KeyMemo::default())
    }

    /// Computes the canonical key of a sequent whose generated-variable definitions
    /// have already been inlined (the dispatcher inlines once and reuses the result
    /// for both proving and keying), taking each formula's canonical form from `memo`.
    pub(crate) fn of_inlined(inlined: &Sequent, memo: &mut KeyMemo) -> SequentKey {
        let goal = memo.slot(&inlined.goal);
        let slots: Vec<usize> = inlined.assumptions.iter().map(|a| memo.slot(a)).collect();
        // Sorting + deduplicating makes the key invariant under assumption order and
        // repetition; assumptions that canonicalise to `True` carry no information.
        let mut assumptions: Vec<&str> = slots
            .into_iter()
            .map(|slot| &memo.keys[slot])
            .filter(|(_, is_true)| !is_true)
            .map(|(printed, _)| printed.as_str())
            .collect();
        assumptions.sort();
        assumptions.dedup();
        SequentKey::from_repr(format!(
            "{} |- {}",
            assumptions.join(" ;; "),
            memo.keys[goal].0
        ))
    }

    /// The canonical printed form backing the key (stable within a process run; useful
    /// for debugging cache behaviour).
    pub fn repr(&self) -> &str {
        &self.repr
    }

    /// The key of a canonical printed form, computed fresh or read back from the
    /// on-disk store.
    ///
    /// `DefaultHasher::new()` is keyed deterministically, so the probe hash of a
    /// reloaded key is identical to the one computed when the entry was first written —
    /// which is what makes the printed form alone a complete content address.
    pub(crate) fn from_repr(repr: String) -> SequentKey {
        let mut hasher = DefaultHasher::new();
        repr.hash(&mut hasher);
        SequentKey {
            hash: hasher.finish(),
            repr,
        }
    }
}

/// The full lookup key of one obligation: the canonical sequent plus everything else
/// that can change the dispatcher's verdict — the hint-filtered variant actually
/// attempted first, whether the interactive library has a proof registered, the
/// set/function classification of the sequent's free variables (it steers the SMT and
/// FOL translations), and a fingerprint of the dispatcher configuration.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CacheKey {
    pub sequent: SequentKey,
    /// Canonical key of the hint-filtered sequent, when hints are applied.
    pub hinted: Option<SequentKey>,
    /// Free variables the prover context classifies as sets, then as functions.
    pub var_classes: String,
    /// Whether the interactive lemma library has this obligation registered.
    pub lemma_registered: bool,
    /// Prover order and hint usage of the dispatcher that stored the entry.
    pub config_fingerprint: String,
}

/// The cached verdict for one obligation key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct CachedOutcome {
    /// Whether some prover discharged the sequent.
    pub proved: bool,
    /// The prover credited with the proof (`None` when unproved).
    pub prover: Option<ProverId>,
    /// The per-prover attempted counts the original (uncached) run recorded. Replayed
    /// on every hit so the Figure 15 "attempted" columns agree between cached and
    /// uncached runs (only the times differ — hits cost no prover time).
    pub attempted: Vec<(ProverId, usize)>,
    /// The per-prover counts of attempts the original run aborted on fuel exhaustion
    /// (budgeted cascade only). Replayed like `attempted` so cached and uncached
    /// accounting agree.
    pub budget_aborts: Vec<(ProverId, usize)>,
    /// Whether the original run needed the unbudgeted rescue pass for this
    /// obligation. Replayed into `VerificationReport::rescue_retries`.
    pub rescued: bool,
    /// Whether the entry was loaded from the persistent on-disk store rather than
    /// computed by this process. Not serialized — set by [`SequentCache::absorb`] so
    /// hits on warm-started entries can be attributed separately
    /// ([`CacheStats::disk_hits`], `VerificationReport::cache_disk_hits`).
    pub from_disk: bool,
}

/// Lifetime hit/miss counters of a cache (across every `prove_all` run that shared it).
///
/// Under parallel dispatch the split between hits and misses is not exactly
/// reproducible: two workers can race to the same cold key and both record a miss
/// (both then prove the sequent and store the same verdict). Verdicts — which sequents
/// are proved — are deterministic; only the hit/miss accounting wobbles by the number
/// of such collisions.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the provers.
    pub misses: u64,
    /// Of `hits`, how many were answered by an entry loaded from the persistent
    /// on-disk store (a warm start) rather than computed earlier in this process.
    pub disk_hits: u64,
}

impl CacheStats {
    /// Hit rate in `[0, 1]`; zero when the cache was never consulted.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A mutex-protected map from canonical obligation keys to prover verdicts.
///
/// The cache is shared by cloning the owning [`crate::Dispatcher`] (the dispatcher
/// holds it behind an `Arc`), so one cache can serve every method of a program — or a
/// whole suite run — across worker threads. One lock suffices: a lookup or insert
/// holds it for one map probe, while each worker spends far longer keying and proving
/// between two probes.
#[derive(Debug, Default)]
pub struct SequentCache {
    verdicts: Mutex<HashMap<CacheKey, CachedOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
}

impl SequentCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SequentCache::default()
    }

    fn map(&self) -> MutexGuard<'_, HashMap<CacheKey, CachedOutcome>> {
        self.verdicts.lock().expect("cache lock poisoned")
    }

    /// Looks up a key, recording a hit or miss in the lifetime counters.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<CachedOutcome> {
        let found = self.map().get(key).cloned();
        match &found {
            Some(outcome) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                if outcome.from_disk {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                }
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
            }
        }
        found
    }

    /// Stores the verdict for a key.
    pub(crate) fn insert(&self, key: CacheKey, outcome: CachedOutcome) {
        self.map().insert(key, outcome);
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// Returns `true` if no verdict has been cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lifetime hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
        }
    }

    /// Snapshots every verdict for the persistent store. The snapshot includes
    /// entries that were themselves loaded from disk, so a merge-write never drops
    /// what an earlier process contributed.
    pub(crate) fn export(&self) -> crate::store::Verdicts {
        self.map().clone().into_iter().collect()
    }

    /// Loads the verdicts of a store into the cache, marking each as disk-loaded (so
    /// hits on it count as [`CacheStats::disk_hits`]). Entries this process already
    /// computed are never overwritten — fresh results are at least as up to date as
    /// the store's.
    pub(crate) fn absorb(&self, verdicts: crate::store::Verdicts) {
        let mut cached = self.map();
        for (key, mut outcome) in verdicts {
            outcome.from_disk = true;
            cached.entry(key).or_insert(outcome);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::parse_form;

    fn seq(assumptions: &[&str], goal: &str) -> Sequent {
        Sequent::new(
            assumptions
                .iter()
                .map(|a| parse_form(a).expect("parse"))
                .collect(),
            parse_form(goal).expect("parse"),
        )
    }

    #[test]
    fn keys_are_invariant_under_ac_permutation_and_duplication() {
        let a = SequentKey::of(&seq(&["p & q", "x : s"], "{x} Un content = content Un {x}"));
        let b = SequentKey::of(&seq(
            &["x : s", "q & p", "x : s"],
            "content Un {x} = {x} Un content",
        ));
        assert_eq!(a, b);
    }

    #[test]
    fn keys_are_invariant_under_alpha_renaming_and_inlining() {
        let a = SequentKey::of(&seq(&["asg$1 = {x} Un content"], "EX v. v : asg$1"));
        let b = SequentKey::of(&seq(&[], "EX w. w : content Un {x}"));
        assert_eq!(a, b);
    }

    /// The key as computed before the memo existed: every formula canonicalised
    /// afresh.
    fn unmemoised_repr(sequent: &Sequent) -> String {
        let inlined = inline_definitions(sequent);
        let mut assumptions: Vec<String> = inlined
            .assumptions
            .iter()
            .map(key_form)
            .filter(|a| !a.is_true())
            .map(|a| a.to_string())
            .collect();
        assumptions.sort();
        assumptions.dedup();
        format!(
            "{} |- {}",
            assumptions.join(" ;; "),
            key_form(&inlined.goal)
        )
    }

    #[test]
    fn memoised_keys_match_fresh_keys_in_either_batch_order() {
        let batch = [
            // `a = a` and the goal both canonicalise to `True`.
            seq(
                &["p & q", "x : s", "a = a"],
                "{x} Un content = content Un {x}",
            ),
            seq(&["q & p", "x : s"], "EX v. v : content"),
            seq(&["asg$1 = {x} Un content", "x : s"], "EX w. w : asg$1"),
            seq(&["x : s", "a = a", "p & q"], "r"),
        ];
        let fresh: Vec<SequentKey> = batch.iter().map(SequentKey::of).collect();
        for (key, sequent) in fresh.iter().zip(&batch) {
            assert_eq!(key.repr(), unmemoised_repr(sequent));
        }
        let keyed = |order: &mut dyn Iterator<Item = usize>| {
            let mut memo = KeyMemo::default();
            let mut keys: Vec<(usize, SequentKey)> = order
                .map(|i| {
                    let inlined = inline_definitions(&batch[i]);
                    (i, SequentKey::of_inlined(&inlined, &mut memo))
                })
                .collect();
            keys.sort_by_key(|(i, _)| *i);
            // The 13 formulas of the inlined batch hold 8 distinct ones, one slot each.
            assert_eq!(memo.keys.len(), 8);
            keys.into_iter().map(|(_, k)| k).collect::<Vec<_>>()
        };
        assert_eq!(keyed(&mut (0..batch.len())), fresh);
        assert_eq!(keyed(&mut (0..batch.len()).rev()), fresh);
    }

    #[test]
    fn distinct_sequents_have_distinct_keys() {
        let a = SequentKey::of(&seq(&["p"], "q"));
        let b = SequentKey::of(&seq(&["p"], "r"));
        assert_ne!(a, b);
        let c = SequentKey::of(&seq(&["p", "q"], "r"));
        assert_ne!(b, c);
    }

    #[test]
    fn cache_round_trips_and_counts() {
        let cache = SequentCache::new();
        let key = CacheKey {
            sequent: SequentKey::of(&seq(&["p"], "p")),
            hinted: None,
            var_classes: String::new(),
            lemma_registered: false,
            config_fingerprint: "test".into(),
        };
        assert_eq!(cache.lookup(&key), None);
        let outcome = CachedOutcome {
            proved: true,
            prover: Some(ProverId::Syntactic),
            attempted: vec![(ProverId::Syntactic, 1)],
            budget_aborts: Vec::new(),
            rescued: false,
            from_disk: false,
        };
        cache.insert(key.clone(), outcome.clone());
        assert_eq!(cache.lookup(&key), Some(outcome));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }
}
