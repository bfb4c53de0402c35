//! Canonical-form-keyed prover result cache.
//!
//! Identical sequents recur across the methods of one data structure: every path
//! re-establishes the class invariants, and the splitter re-emits the same background
//! assumptions per goal. The dispatcher therefore keys each obligation by a canonical
//! form of its (definition-inlined) sequent and consults an in-memory cache before
//! any prover runs.
//!
//! The canonical form is computed with the same machinery the syntactic prover (§6.1)
//! trusts: definition inlining ([`inline_definitions`]) collapses generated-variable
//! equations, [`canonicalize`] strips comments, expands membership and AC-sorts
//! commutative operators, and [`alpha_normalize`] names bound variables by their depth.
//! On top of that, assumptions are deduplicated and sorted, so permuted or duplicated
//! assumption lists key identically. Every transformation preserves logical
//! equivalence, so a cache hit on a proved entry is sound: the hit sequent is
//! equivalent to one a prover actually discharged.
//!
//! Within one `prove_all` batch each worker keys on one [`KeyBank`] over the batch's
//! formula bank (a helper worker's over a copy of it), where the VC generator built the
//! obligations: they are inlined there once per distinct node and substitution, and
//! brought to their key form there ([`Bank::key_form`]), each step
//! memoised per node, so a subterm shared inside a formula or across the batch is
//! canonicalised once. Each distinct inlined formula's key form is materialised and
//! printed once. A formula the batch has already seen costs an id lookup.
//!
//! In front of the verdicts sits the **method memo**. Jahob verifies each method on its
//! own, against its contract and the class invariants (assume/guarantee, §3.3), so a
//! method's obligations are a function of its verification task. The memo maps a
//! 128-bit fingerprint of a method (its task, its prover context with the lemma library,
//! and the dispatcher configuration) to its obligations' cache keys, in order, and the
//! unproved line of each unproved one. A method the memo answers is not generated,
//! inlined or keyed again: `prove_all` replays each stored key through the ordinary
//! lookup below, so its reports and the hit counters are those of a method whose
//! obligations were all cache hits. A method is memoised only once every one of its
//! obligations has a verdict here, so a cascade that crashed or hit a deadline, which
//! is never cached, keeps its method out of the memo too. The memo lives in memory
//! only: its fingerprints are keyed per process and never written to the store.
//!
//! [`inline_definitions`]: jahob_logic::norm::inline_definitions
//! [`canonicalize`]: jahob_logic::norm::canonicalize
//! [`alpha_normalize`]: jahob_logic::norm::alpha_normalize

use jahob_logic::bank::{Bank, InternedSequent, NodeId};
use jahob_logic::Sequent;
use jahob_smt::SmtMemo;
use std::collections::hash_map::{DefaultHasher, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock};

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

/// One dispatcher worker's formulas for one `prove_all` batch: the [`Bank`] holding
/// them, the printed key form ([`Bank::key_form`]) of every inlined formula keyed so
/// far and whether it is `True`, and the key text of every inlined assumption list
/// keyed so far.
///
/// Everything is indexed by node id, and ids are exact: two formulas share an id only
/// when they are structurally equal, so two distinct formulas never share a canonical
/// form by accident. Ids never reach the key text, which is printed from formulas.
#[derive(Debug, Default)]
pub struct KeyBank {
    /// The batch's interned formulas and their memoised normal forms.
    pub bank: Bank,
    /// What SMT's attempts on the bank share: its translation memoised per node.
    pub(crate) smt: SmtMemo,
    forms: HashMap<NodeId, (String, bool)>,
    assumption_lists: HashMap<Box<[NodeId]>, String>,
}

impl KeyBank {
    /// An empty key bank.
    pub fn new() -> KeyBank {
        KeyBank::default()
    }

    /// A key bank over formulas already in `bank`.
    pub fn over(bank: Bank) -> KeyBank {
        KeyBank {
            bank,
            ..KeyBank::default()
        }
    }

    /// The printed key form of an inlined formula ([`Bank::key_form`]), and whether it
    /// is `True`. The key form is computed on the bank; only the finished form is
    /// materialised, to print it.
    fn form(&mut self, id: NodeId) -> &(String, bool) {
        let bank = &mut self.bank;
        self.forms.entry(id).or_insert_with(|| {
            let key = bank.key_form(id);
            (bank.materialise(key).to_string(), bank.is_true(key))
        })
    }

    /// The canonical key of a sequent whose definitions have already been inlined in
    /// this bank ([`Bank::inline_definitions`]).
    pub fn key(&mut self, inlined: &InternedSequent) -> SequentKey {
        if !self
            .assumption_lists
            .contains_key(inlined.assumptions.as_slice())
        {
            for a in &inlined.assumptions {
                self.form(*a);
            }
            // Sorting + deduplicating makes the key invariant under assumption order and
            // repetition; assumptions that canonicalise to `True` carry no information.
            let mut assumptions: Vec<&str> = inlined
                .assumptions
                .iter()
                .map(|a| &self.forms[a])
                .filter(|(_, is_true)| !is_true)
                .map(|(printed, _)| printed.as_str())
                .collect();
            assumptions.sort_unstable();
            assumptions.dedup();
            let text = assumptions.join(" ;; ");
            self.assumption_lists
                .insert(inlined.assumptions.as_slice().into(), text);
        }
        self.form(inlined.goal);
        SequentKey::from_repr(format!(
            "{} |- {}",
            self.assumption_lists[inlined.assumptions.as_slice()],
            self.forms[&inlined.goal].0
        ))
    }
}

impl SequentKey {
    /// Computes the canonical key of `sequent`, on a fresh [`KeyBank`].
    pub fn of(sequent: &Sequent) -> SequentKey {
        let mut keys = KeyBank::new();
        let interned = keys.bank.intern_sequent(sequent);
        let inlined = keys.bank.inline_definitions(&interned);
        keys.key(&inlined)
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
    /// Canonical key of the hint-filtered sequent, when the obligation has hints.
    pub hinted: Option<SequentKey>,
    /// Free variables the prover context classifies as sets, then as functions.
    pub var_classes: String,
    /// Whether the interactive lemma library has this obligation registered.
    pub lemma_registered: bool,
    /// Prover order, routing, fuel budgets and deadline of the dispatcher that
    /// stored the entry.
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
    /// The refuter's countermodel of an unproved verdict, restricted to the goal's
    /// free variables, when it found one. Replayed so a hit renders the `invalid` line
    /// and counts the refutation as the uncached run did.
    pub countermodel: Option<Box<str>>,
    /// Whether the entry was loaded from the persistent on-disk store rather than
    /// computed by this process. Not serialized — set by [`SequentCache::absorb`] so
    /// hits on warm-started entries can be attributed separately
    /// ([`CacheStats::disk_hits`], `VerificationReport::cache_disk_hits`).
    pub from_disk: bool,
}

/// A 128-bit fingerprint of a value's [`Hash`] encoding, the method memo's key.
///
/// The value is hashed once into a byte buffer, which two SipHash-1-3 hashers (std's
/// `DefaultHasher`) then read under two keys drawn once per process from
/// [`RandomState`]. Taking the two 64-bit halves as independent uniform values, two
/// distinct values share a fingerprint with probability 2^-128, and among `n`
/// distinct values some two do with probability below `n² · 2^-129`: under 10^-26
/// for a million methods. The keys are secret to the process, so no input can be
/// chosen offline to collide, and a fingerprint is never written to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct Fingerprint(u64, u64);

/// The [`Hasher`] that collects a value's `Hash` encoding for [`Fingerprint::of`].
#[derive(Default)]
struct Encoding(Vec<u8>);

impl Hasher for Encoding {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        self.0.extend_from_slice(bytes);
    }

    fn finish(&self) -> u64 {
        unreachable!("an encoding is read whole by Fingerprint::of")
    }
}

impl Fingerprint {
    /// The fingerprint of `value`'s `Hash` encoding.
    pub(crate) fn of(value: &impl Hash) -> Fingerprint {
        static KEYS: OnceLock<[RandomState; 2]> = OnceLock::new();
        let keys = KEYS.get_or_init(|| [RandomState::new(), RandomState::new()]);
        let mut encoding = Encoding::default();
        value.hash(&mut encoding);
        let half = |key: &RandomState| {
            let mut hasher = key.build_hasher();
            hasher.write(&encoding.0);
            hasher.finish()
        };
        Fingerprint(half(&keys[0]), half(&keys[1]))
    }
}

/// One obligation of a memoised method: its cache key, shared with the verdict map,
/// and its unproved line when its verdict is unproved.
pub(crate) type MemoObligation = (Arc<CacheKey>, Option<Box<str>>);

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
    /// Methods the method memo answered: their obligations were neither generated
    /// nor keyed again, and their lookups count among `hits`.
    pub method_hits: u64,
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

/// A mutex-protected map from canonical obligation keys to prover verdicts, and the
/// method memo in front of it (see the [module docs](self)).
///
/// The cache is shared by cloning the owning [`crate::Dispatcher`] (the dispatcher
/// holds it behind an `Arc`), so one cache can serve every method of a program — or a
/// whole suite run — across worker threads. One lock per map suffices: a lookup or
/// insert holds it for one map probe, while each worker spends far longer keying and
/// proving between two probes.
#[derive(Debug, Default)]
pub struct SequentCache {
    verdicts: Mutex<HashMap<Arc<CacheKey>, CachedOutcome>>,
    methods: Mutex<HashMap<Fingerprint, Arc<[MemoObligation]>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    disk_hits: AtomicU64,
    method_hits: AtomicU64,
}

impl SequentCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        SequentCache::default()
    }

    fn map(&self) -> MutexGuard<'_, HashMap<Arc<CacheKey>, CachedOutcome>> {
        self.verdicts.lock().expect("cache lock poisoned")
    }

    /// Looks up a key, recording a hit or miss in the lifetime counters. A hit returns
    /// the map's own copy of the key beside the verdict.
    pub(crate) fn lookup(&self, key: &CacheKey) -> Option<(Arc<CacheKey>, CachedOutcome)> {
        let found = self
            .map()
            .get_key_value(key)
            .map(|(key, outcome)| (Arc::clone(key), outcome.clone()));
        match &found {
            Some((_, outcome)) => {
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
    pub(crate) fn insert(&self, key: Arc<CacheKey>, outcome: CachedOutcome) {
        self.map().insert(key, outcome);
    }

    /// The memoised obligations of the method with memo key `key`, recording a method
    /// hit when there are some.
    pub(crate) fn method(&self, key: &Fingerprint) -> Option<Arc<[MemoObligation]>> {
        let found = self
            .methods
            .lock()
            .expect("memo lock poisoned")
            .get(key)
            .cloned();
        if found.is_some() {
            self.method_hits.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Memoises a method whose every obligation has a verdict in this cache.
    pub(crate) fn memoise(&self, key: Fingerprint, obligations: Vec<MemoObligation>) {
        self.methods
            .lock()
            .expect("memo lock poisoned")
            .insert(key, obligations.into());
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
            method_hits: self.method_hits.load(Ordering::Relaxed),
        }
    }

    /// Snapshots every verdict for the persistent store. The snapshot includes
    /// entries that were themselves loaded from disk, so a merge-write never drops
    /// what an earlier process contributed.
    pub(crate) fn export(&self) -> crate::store::Verdicts {
        self.map()
            .iter()
            .map(|(key, outcome)| (CacheKey::clone(key), outcome.clone()))
            .collect()
    }

    /// Loads the verdicts of a store into the cache, marking each as disk-loaded (so
    /// hits on it count as [`CacheStats::disk_hits`]). Entries this process already
    /// computed are never overwritten — fresh results are at least as up to date as
    /// the store's.
    pub(crate) fn absorb(&self, verdicts: crate::store::Verdicts) {
        let mut cached = self.map();
        for (key, mut outcome) in verdicts {
            outcome.from_disk = true;
            cached.entry(Arc::new(key)).or_insert(outcome);
        }
    }
}

/// The `Form`-recursive inlining and key form the bank must match.
#[cfg(test)]
#[path = "../../logic/tests/reference/mod.rs"]
mod reference;

#[cfg(test)]
mod tests {
    use super::reference;
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

    /// The key as computed before the bank existed: every formula inlined and
    /// canonicalised afresh, on `Form` trees.
    fn unmemoised_repr(sequent: &Sequent) -> String {
        let inlined = reference::inline_definitions(sequent);
        let mut assumptions: Vec<String> = inlined
            .assumptions
            .iter()
            .map(reference::key_form)
            .filter(|a| !a.is_true())
            .map(|a| a.to_string())
            .collect();
        assumptions.sort();
        assumptions.dedup();
        format!(
            "{} |- {}",
            assumptions.join(" ;; "),
            reference::key_form(&inlined.goal)
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
            // The same quantified assumption under two substitutions that differ only
            // outside its free variables, and under one that renames its binder.
            seq(&["asg$1 = y", "ALL z. z : s --> p z"], "q asg$1"),
            seq(&["asg$2 = c", "ALL z. z : s --> p z"], "q asg$2"),
            seq(&["asg$1 = z", "ALL z. p asg$1 z"], "q"),
            seq(&["asg$1 = y", "ALL z. p asg$1 z"], "q"),
        ];
        let fresh: Vec<SequentKey> = batch.iter().map(SequentKey::of).collect();
        for (key, sequent) in fresh.iter().zip(&batch) {
            assert_eq!(key.repr(), unmemoised_repr(sequent));
        }
        let keyed = |order: &mut dyn Iterator<Item = usize>| {
            let mut keys = KeyBank::new();
            let mut out: Vec<(usize, SequentKey)> = order
                .map(|i| {
                    let interned = keys.bank.intern_sequent(&batch[i]);
                    let inlined = keys.bank.inline_definitions(&interned);
                    assert_eq!(
                        keys.bank.materialise_sequent(&inlined),
                        reference::inline_definitions(&batch[i])
                    );
                    (i, keys.key(&inlined))
                })
                .collect();
            out.sort_by_key(|(i, _)| *i);
            // The 21 formulas of the inlined batch hold 14 distinct ones, one printed
            // form each.
            assert_eq!(keys.forms.len(), 14);
            out.into_iter().map(|(_, k)| k).collect::<Vec<_>>()
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
            countermodel: None,
            from_disk: false,
        };
        cache.insert(Arc::new(key.clone()), outcome.clone());
        assert_eq!(cache.lookup(&key).map(|(_, found)| found), Some(outcome));
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert_eq!(cache.len(), 1);
    }
}
