//! # jahob-provers
//!
//! Integrated reasoning (§5–§6 of *Full Functional Verification of Linked Data
//! Structures*, PLDI 2008): the prover dispatcher that takes the proof obligations
//! produced by `jahob-vcgen` and discharges each with the cheapest applicable reasoner.
//!
//! The provers, in the architecture of Figure 1:
//!
//! * the **syntactic prover** (§6.1) — trivial validity checks applied first to every
//!   sequent;
//! * **MONA** (§6.4) — the WS1S decision procedure of `jahob-mona`;
//! * the **SMT prover** (§6.3, the CVC3/Z3 role) — ground EUF + LIA with quantifier
//!   instantiation from `jahob-smt`;
//! * the **first-order prover** (§6.2, the SPASS/E role) — the resolution prover of
//!   `jahob-folp`;
//! * **BAPA** (§6.5) — sets with cardinalities from `jahob-bapa`;
//! * the **interactive prover** (§6.6) — a library of named, interactively established
//!   lemmas; obligations registered there are treated as proved, mirroring Jahob's
//!   handling of Isabelle/Coq proof scripts.
//!
//! The dispatcher tries the provers in a fixed global order (§5.2), optionally spreading
//! independent obligations over worker threads, and records per-prover sequent counts and
//! times — the data reported in Figures 7 and 15 of the paper.
//!
//! Three scaling mechanisms sit in front of the provers:
//!
//! * **shared-queue dispatch** — [`DispatcherConfig::threads`] workers claim one
//!   obligation at a time from one shared atomic index, so skewed obligation costs no
//!   longer leave threads idle the way a contiguous-chunk split does;
//! * **result caching** — with [`DispatcherConfig::cache`] enabled, every obligation is
//!   keyed by the canonical form of its definition-inlined sequent ([`SequentKey`]) and
//!   looked up in an in-memory cache before any prover runs ([`cache`]). A batch
//!   ([`ObligationBatch`]) holds one record per method: its tag, its context, a
//!   fingerprint of its task and context, and a generator for its obligations. In
//!   front of the verdicts, the cache's method memo answers a method whose task was
//!   verified before in the process by replaying its stored keys, so its
//!   obligations are neither generated, inlined nor keyed. Every other method's
//!   obligations are generated into the formula bank ([`jahob_logic::bank::Bank`])
//!   the batch owns, and each worker normalises its share there ([`KeyBank`]; a
//!   helper thread on a copy): inlining, keying and the syntactic checks run once per
//!   distinct node, no obligation is interned again, and the inlined sequent is
//!   rebuilt as formulas only for the provers, on a cache miss;
//! * **per-sequent routing** — with [`DispatcherConfig::route`] enabled, each
//!   obligation's cascade order is chosen from the sequent's syntactic features
//!   ([`jahob_logic::SequentFeatures`] → [`router`]): provers whose fragment the
//!   sequent matches run first, hopeless ones are demoted to a fallback tail (never
//!   dropped), so e.g. MONA no longer fails on cardinality sequents BAPA
//!   discharges in microseconds.
//!
//! Each obligation that reaches the provers runs one attempt plan: a list of
//! `(sequent, provers, fuel)` phases — the hinted sequent, then the full one — whose
//! searching provers run under deterministic fuel ([`DispatcherConfig::budgets`]).
//! A fuel cap is part of what an attempt means, as the paper's per-prover time limits
//! are: an obligation that no prover proves within its fuel is unproved, and its
//! unproved line names the provers that ran out. The routed order and the fuel
//! depend on the sequent alone, so an obligation is attempted identically in every
//! batch and every run. After the first attempt other than the syntactic check that
//! does not prove, the refuter ([`jahob_logic::countermodel`]) looks once for a small
//! finite countermodel of the full sequent; one ends the plan, and the obligation is
//! unproved and `invalid` ([`VerificationReport::refuted`]). The interactive prover is
//! attempted only on obligations its library has registered.
//!
//! In front of all three, the structured `by` hints of an obligation
//! ([`jahob_vcgen::Hint`]) are resolved per sequent: label hints select assumptions,
//! lemma hints inject library formulas, and `inst` hints specialise universally
//! quantified assumptions at a supplied witness ([`inst`]) — the hinted,
//! instantiated sequent is what routing, the cache keys and the provers all see.
//! The architecture overview in `docs/ARCHITECTURE.md` shows where this crate sits
//! in the pipeline; `docs/SPEC_LANGUAGE.md` documents the hint syntax.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod cache;
pub mod faults;
pub mod inst;
pub mod router;
pub mod store;

pub use batch::{ObligationBatch, ObligationTag};
pub use cache::{CacheStats, KeyBank, SequentCache, SequentKey};
pub use faults::FaultSpec;
pub use store::{store_path, STORE_VERSION};

use cache::{CacheKey, CachedOutcome, Fingerprint, MemoObligation};
use faults::FaultPlane;
use inst::apply_inst_hints;
use jahob_logic::bank::{Bank, InternedSequent, NodeId};
use jahob_logic::countermodel::refute;
use jahob_logic::simplify::strip_comments_deep;
use jahob_logic::{Form, Sequent, SequentFeatures, TypeEnv};
use jahob_vcgen::{InternedObligation, ProofObligation, LEMMA_HINT_PREFIX};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};
use std::time::{Duration, Instant};

/// The provers of the integrated reasoning system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ProverId {
    /// The built-in syntactic prover (§6.1).
    Syntactic,
    /// The WS1S/automata decision procedure (MONA's role, §6.4).
    Mona,
    /// The SMT-style ground prover (CVC3/Z3's role, §6.3).
    Smt,
    /// The first-order resolution prover (SPASS/E's role, §6.2).
    Fol,
    /// The BAPA decision procedure (§6.5).
    Bapa,
    /// The interactive lemma library (Isabelle/Coq's role, §6.6).
    Interactive,
}

impl ProverId {
    /// All provers in the default attempt order (cheap and specialised first).
    pub fn default_order() -> Vec<ProverId> {
        vec![
            ProverId::Syntactic,
            ProverId::Smt,
            ProverId::Mona,
            ProverId::Bapa,
            ProverId::Fol,
            ProverId::Interactive,
        ]
    }

    /// The display name used in verification reports.
    pub fn display_name(&self) -> &'static str {
        match self {
            ProverId::Syntactic => "Syntactic",
            ProverId::Mona => "MONA",
            ProverId::Smt => "SMT (Z3/CVC3)",
            ProverId::Fol => "FOL (SPASS/E)",
            ProverId::Bapa => "BAPA",
            ProverId::Interactive => "Interactive",
        }
    }

    /// The stable lower-case tag that names the prover in the on-disk store format
    /// and in fault specs (display names are presentation, not format).
    pub fn tag(&self) -> &'static str {
        match self {
            ProverId::Syntactic => "syntactic",
            ProverId::Mona => "mona",
            ProverId::Smt => "smt",
            ProverId::Fol => "fol",
            ProverId::Bapa => "bapa",
            ProverId::Interactive => "interactive",
        }
    }

    /// The prover named by a [`ProverId::tag`], or `None` for an unknown tag.
    pub fn from_tag(tag: &str) -> Option<ProverId> {
        ProverId::default_order()
            .into_iter()
            .find(|prover| prover.tag() == tag)
    }
}

impl fmt::Display for ProverId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.display_name())
    }
}

/// A library of interactively proven lemmas (§6.6), in two forms:
///
/// * **registered obligations** — whole obligations (identified by label path and goal
///   text) established by an external proof script; the dispatcher treats them as
///   proved and attributes them to the interactive prover;
/// * **named lemmas** — formulas under a name that `by lemma Name` hints can reference;
///   the dispatcher injects the named formula as an extra assumption of the hinted
///   sequent (the first step beyond label-only hints, §3.5).
#[derive(Debug, Clone, Default, Hash)]
pub struct LemmaLibrary {
    entries: BTreeSet<String>,
    named: BTreeMap<String, Form>,
}

impl LemmaLibrary {
    /// Creates an empty library.
    pub fn new() -> Self {
        LemmaLibrary::default()
    }

    /// Registers a named lemma formula that `by lemma Name` hints can inject. The
    /// formula is trusted (it stands for an interactively established fact), exactly
    /// like registered obligations.
    pub fn register_lemma(&mut self, name: impl Into<String>, formula: Form) {
        self.named.insert(name.into(), formula);
    }

    /// The named lemma formulas, for resolving lemma hints
    /// (see [`ProofObligation::hinted_sequent_with_lemmas`]).
    pub fn named_lemmas(&self) -> &BTreeMap<String, Form> {
        &self.named
    }

    /// Looks up a named lemma.
    pub fn lemma(&self, name: &str) -> Option<&Form> {
        self.named.get(name)
    }

    /// The canonical key of an obligation: its label path and printed goal.
    pub fn key_of(obligation: &ProofObligation) -> String {
        Self::key(&obligation.sequent.labels, &obligation.sequent.goal)
    }

    fn key(labels: &[String], goal: &Form) -> String {
        format!("{}|{}", labels.join("."), strip_comments_deep(goal))
    }

    /// Registers an obligation key as interactively proven.
    pub fn register(&mut self, key: impl Into<String>) {
        self.entries.insert(key.into());
    }

    /// Returns `true` if the obligation whose (uninlined) sequent is `sequent`, in
    /// `bank`, has a registered proof. With none registered, its goal is neither
    /// rebuilt nor printed.
    fn contains(&self, bank: &Bank, sequent: &InternedSequent) -> bool {
        !self.entries.is_empty()
            && self
                .entries
                .contains(&Self::key(&sequent.labels, &bank.materialise(sequent.goal)))
    }

    /// Number of registered obligation proofs plus named lemmas.
    pub fn len(&self) -> usize {
        self.entries.len() + self.named.len()
    }

    /// Returns `true` if the library holds neither obligation proofs nor named lemmas.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty() && self.named.is_empty()
    }
}

/// Per-method context shared by the prover interfaces: which variables denote sets and
/// fields (used by the approximation steps), plus the lemma library.
#[derive(Debug, Clone, Default, Hash)]
pub struct ProverContext {
    /// Set-typed global variables.
    pub set_vars: BTreeSet<String>,
    /// Function-typed (field-like) global variables.
    pub fun_vars: BTreeSet<String>,
    /// Interactively proven lemmas.
    pub lemmas: LemmaLibrary,
}

/// How the dispatcher caches prover verdicts. Subsumes the old `cache: bool` knob:
/// `Off`/`Memory` are the former `false`/`true`, and `Persistent` extends `Memory`
/// with the on-disk proof store ([`store`]) so verdicts survive the process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheMode {
    /// No caching: every obligation runs the full prover cascade.
    Off,
    /// The in-memory cache (the former `cache: true`), dying with the process.
    Memory,
    /// The in-memory cache, warm-started from — and merge-written back to — the
    /// versioned proof store in `dir` ([`store_path`]). A missing store is a silent
    /// cold start; a corrupt or version-mismatched one is a warned cold start.
    Persistent {
        /// Directory holding the store file (created on first flush).
        dir: PathBuf,
        /// Merge-write the store when the last dispatcher sharing the cache is
        /// dropped. With `false`, only explicit [`Dispatcher::flush_store`] calls
        /// write (what the benchmark and the store tests use to keep a warm store
        /// read-only).
        flush: bool,
    },
}

impl CacheMode {
    /// `true` unless caching is [`CacheMode::Off`] (the old `cache: bool` view).
    pub fn is_enabled(&self) -> bool {
        !matches!(self, CacheMode::Off)
    }

    /// The persistent store directory, when the mode is [`CacheMode::Persistent`].
    pub fn persistent_dir(&self) -> Option<&std::path::Path> {
        match self {
            CacheMode::Persistent { dir, .. } => Some(dir),
            _ => None,
        }
    }
}

impl fmt::Display for CacheMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheMode::Off => write!(f, "off"),
            CacheMode::Memory => write!(f, "memory"),
            CacheMode::Persistent { dir, flush } => write!(
                f,
                "persistent({}{})",
                dir.display(),
                if *flush { "" } else { ", no flush on drop" }
            ),
        }
    }
}

/// Configuration of the dispatcher. Build one with [`DispatcherConfig::builder`]
/// (explicit, typed knobs; no environment) or take [`DispatcherConfig::default`]
/// (baseline plus `JAHOB_*` environment overrides).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DispatcherConfig {
    /// Spread independent obligations over this many worker threads (1 = sequential).
    /// Workers claim one obligation at a time from one shared queue, so an expensive
    /// obligation never strands the rest of a pre-assigned chunk behind it.
    pub threads: usize,
    /// Whether (and how durably) to cache verdicts: consult the canonical-form-keyed
    /// result cache before running provers, optionally backed by the persistent
    /// on-disk proof store ([`CacheMode::Persistent`]).
    pub cache: CacheMode,
    /// Choose each obligation's prover order from its sequent's syntactic features
    /// ([`router::route`]) instead of always using the global order
    /// ([`ProverId::default_order`], §5.2: "the user lists the provers starting from
    /// the ones that are most likely to succeed or fail quickly"). Routing is a
    /// permutation of that order — demoted provers still run as a fallback — so it changes
    /// attempt counts and attribution, never which sequents are proved.
    pub route: bool,
    /// Fuel-budgeted attempts. With `true` (the baseline), the searching provers
    /// (MONA, SMT, FOL) run under feature-dependent fuel, the
    /// deterministic form of the paper's per-prover time limits: an attempt that runs
    /// out of fuel has failed, and an obligation no prover proves within its fuel is
    /// unproved. The caps are sized to fit every proof of the §7 suite, and the
    /// budgets differential test pins that budgets on and off prove the same suite
    /// sequents. `false` runs every attempt without fuel.
    pub budgets: bool,
    /// Wall-clock deadline per prover attempt, in milliseconds (`JAHOB_DEADLINE_MS`).
    /// Checked cooperatively at the provers' existing fuel hooks (MONA's work
    /// charges, FOL's given-clause loop, SMT's DPLL steps), so an attempt that
    /// passes its deadline stops within one hook interval and is counted as a
    /// [`ProverStats::deadline_aborts`] — an *unknown* verdict that is never
    /// cached. The syntactic, BAPA and interactive
    /// provers have no long-running loops and are exempt. `None` (the default)
    /// disables the check. Unlike fuel, a deadline depends on the machine's speed,
    /// so it trades reproducible verdicts for a predictable time bound.
    pub deadline_ms: Option<u64>,
    /// Deterministic fault injection ([`FaultSpec`], `JAHOB_FAULTS`) for the
    /// torture harness: panics/delays into prover attempts, I/O errors and torn
    /// writes into the proof-store persistence. The default (empty)
    /// spec injects nothing and is pinned byte-identical to a dispatcher without a
    /// fault plane. Faults are not part of the cache fingerprint because a cascade
    /// that observed a crash or deadline stop is never cached at all.
    pub faults: FaultSpec,
}

impl Default for DispatcherConfig {
    /// The baseline configuration (sequential, in-memory cache, routing on, fuel
    /// budgets on), with [`DispatcherConfig::with_env_overrides`] applied on top so
    /// a whole test run or example can be switched to the parallel, uncached,
    /// unrouted or persistent-store path from the environment.
    fn default() -> Self {
        DispatcherConfig::builder().build().with_env_overrides()
    }
}

/// Builder for [`DispatcherConfig`]: typed, named knobs instead of the old
/// bool-and-positional surface. Starts from the pinned baseline (sequential,
/// [`CacheMode::Memory`], routing on, fuel budgets on) and applies **no**
/// environment overrides, so configurations built here mean exactly what the call
/// site says — the benchmark and the differential tests depend on that. Call
/// [`DispatcherConfigBuilder::env_overrides`] last to opt back into `JAHOB_*`.
///
/// ```
/// use jahob_provers::{CacheMode, DispatcherConfig};
///
/// let config = DispatcherConfig::builder()
///     .threads(4)
///     .cache(CacheMode::Persistent { dir: "/tmp/jahob-store".into(), flush: true })
///     .build();
/// assert_eq!(config.threads, 4);
/// ```
#[derive(Debug, Clone)]
pub struct DispatcherConfigBuilder {
    config: DispatcherConfig,
}

impl DispatcherConfigBuilder {
    /// Sets the worker thread count (clamped to at least 1).
    pub fn threads(mut self, threads: usize) -> Self {
        self.config.threads = threads.max(1);
        self
    }

    /// Sets the cache mode ([`CacheMode::Off`] / [`CacheMode::Memory`] /
    /// [`CacheMode::Persistent`]).
    pub fn cache(mut self, mode: CacheMode) -> Self {
        self.config.cache = mode;
        self
    }

    /// Enables or disables feature-directed per-sequent routing.
    pub fn route(mut self, route: bool) -> Self {
        self.config.route = route;
        self
    }

    /// Enables or disables fuel-budgeted attempts. See [`DispatcherConfig::budgets`].
    pub fn budgets(mut self, budgets: bool) -> Self {
        self.config.budgets = budgets;
        self
    }

    /// Sets the per-attempt wall-clock deadline in milliseconds (see
    /// [`DispatcherConfig::deadline_ms`]). The builder default is no deadline.
    pub fn deadline_ms(mut self, ms: u64) -> Self {
        self.config.deadline_ms = Some(ms);
        self
    }

    /// Arms a deterministic fault-injection spec (see [`DispatcherConfig::faults`]
    /// and [`faults`]). The builder default injects nothing.
    pub fn faults(mut self, spec: FaultSpec) -> Self {
        self.config.faults = spec;
        self
    }

    /// Applies the `JAHOB_*` environment overrides **on top of** everything set so
    /// far (see [`DispatcherConfig::with_env_overrides`]). Call it last: knobs set
    /// after it win over the environment again.
    pub fn env_overrides(mut self) -> Self {
        self.config = self.config.with_env_overrides();
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> DispatcherConfig {
        self.config
    }
}

impl DispatcherConfig {
    /// Starts a [`DispatcherConfigBuilder`] at the pinned baseline (sequential,
    /// in-memory cache, routing on, fuel budgets on; no environment overrides).
    pub fn builder() -> DispatcherConfigBuilder {
        DispatcherConfigBuilder {
            config: DispatcherConfig {
                threads: 1,
                cache: CacheMode::Memory,
                route: true,
                budgets: true,
                deadline_ms: None,
                faults: FaultSpec::default(),
            },
        }
    }

    /// Applies the `JAHOB_THREADS`, `JAHOB_CACHE`, `JAHOB_CACHE_DIR`, `JAHOB_ROUTE`,
    /// `JAHOB_BUDGETS`, `JAHOB_DEADLINE_MS` and `JAHOB_FAULTS` environment variables
    /// on top of `self` and returns the result. Unset variables leave the
    /// corresponding field untouched; a set-but-invalid value also leaves the field
    /// untouched but prints a one-line warning to stderr naming the variable and the
    /// rejected value (a silently ignored typo like `JAHOB_CACHE=ture` used to make
    /// a whole ablation run measure the wrong thing). `JAHOB_CACHE`, `JAHOB_ROUTE`
    /// and `JAHOB_BUDGETS` accept `1`/`on`/`true`/`yes` and `0`/`off`/`false`/`no`
    /// (case-insensitive).
    ///
    /// `JAHOB_CACHE_DIR=<dir>` upgrades the cache to
    /// [`CacheMode::Persistent`]` { dir, flush: true }` — the on-disk proof store
    /// loaded at dispatcher construction and merge-written on drop. An explicit
    /// `JAHOB_CACHE=off` still wins (it is the established ablation switch), while
    /// `JAHOB_CACHE=on` keeps a configured persistent mode persistent.
    ///
    /// This is what lets CI exercise the parallel, cached, unrouted and
    /// warm-start paths on every push: the test job re-runs the whole suite under
    /// `JAHOB_THREADS=4 JAHOB_CACHE=on`, once under `JAHOB_ROUTE=off` (guarding the
    /// global fallback cascade), and the warm-start job twice against one
    /// `JAHOB_CACHE_DIR`.
    pub fn with_env_overrides(mut self) -> Self {
        if let Some(n) = env_knob("JAHOB_THREADS", parse_count_knob) {
            self.threads = n;
        }
        if let Some(dir) = env_knob("JAHOB_CACHE_DIR", parse_dir_knob) {
            self.cache = CacheMode::Persistent { dir, flush: true };
        }
        if let Some(cache) = env_knob("JAHOB_CACHE", parse_switch_knob) {
            self.cache = match (cache, self.cache) {
                (false, _) => CacheMode::Off,
                (true, CacheMode::Off) => CacheMode::Memory,
                (true, mode) => mode,
            };
        }
        if let Some(route) = env_knob("JAHOB_ROUTE", parse_switch_knob) {
            self.route = route;
        }
        if let Some(budgets) = env_knob("JAHOB_BUDGETS", parse_switch_knob) {
            self.budgets = budgets;
        }
        if let Some(ms) = env_knob("JAHOB_DEADLINE_MS", parse_millis_knob) {
            self.deadline_ms = Some(ms);
        }
        if let Some(spec) = env_knob("JAHOB_FAULTS", parse_faults_knob) {
            self.faults = spec;
        }
        self
    }

    /// A short stable description of the fields that can change a prover verdict or
    /// the recorded attempt accounting (routing, budgets, deadline), mixed into every
    /// cache key so entries written under one configuration are never served to
    /// another. It also names the global prover order, which keeps the keys of
    /// existing proof stores valid.
    fn fingerprint(&self) -> String {
        let order: Vec<&str> = ProverId::default_order()
            .iter()
            .map(|p| p.display_name())
            .collect();
        let mut fingerprint = format!(
            "order={}|route={}|budgets={}",
            order.join(","),
            self.route,
            self.budgets
        );
        // A deadline can suppress proofs, so deadline verdicts must never be
        // served to deadline-free configurations, and vice versa.
        if let Some(ms) = self.deadline_ms {
            fingerprint.push_str(&format!("|deadline={ms}"));
        }
        fingerprint
    }
}

/// Reads one `JAHOB_*` knob from the environment through `parse`: `None` when unset,
/// the parsed value when valid, and `None` **plus a stderr warning** when set to a
/// value the parser rejects (the warning text is produced by the parser so unit tests
/// can pin it without touching the process environment).
fn env_knob<T>(name: &str, parse: fn(&str, &str) -> Result<T, String>) -> Option<T> {
    match std::env::var(name) {
        Ok(value) => match parse(name, &value) {
            Ok(parsed) => Some(parsed),
            Err(warning) => {
                eprintln!("{warning}");
                None
            }
        },
        Err(_) => None,
    }
}

/// Parses a positive-count knob (`JAHOB_THREADS`). Counts are clamped to at least 1;
/// a non-numeric value is rejected with a warning naming the variable and the value.
fn parse_count_knob(name: &str, value: &str) -> Result<usize, String> {
    value
        .trim()
        .parse::<usize>()
        .map(|n| n.max(1))
        .map_err(|_| {
            format!(
                "warning: ignoring {name}={value:?}: expected a non-negative integer; \
             keeping the default"
            )
        })
}

/// Parses an on/off switch knob (`JAHOB_CACHE`, `JAHOB_ROUTE`): `1`/`on`/`true`/`yes`
/// and `0`/`off`/`false`/`no`, case-insensitive. Anything else is rejected with a
/// warning naming the variable and the value.
fn parse_switch_knob(name: &str, value: &str) -> Result<bool, String> {
    match value.trim().to_ascii_lowercase().as_str() {
        "1" | "on" | "true" | "yes" => Ok(true),
        "0" | "off" | "false" | "no" => Ok(false),
        _ => Err(format!(
            "warning: ignoring {name}={value:?}: expected on|off|true|false|yes|no|1|0; \
             keeping the default"
        )),
    }
}

/// Parses a milliseconds knob (`JAHOB_DEADLINE_MS`): any non-negative integer.
/// `0` is accepted as the degenerate always-expired deadline (every fuel-hooked
/// attempt stops at its first cooperative check — useful for torture tests).
fn parse_millis_knob(name: &str, value: &str) -> Result<u64, String> {
    value.trim().parse::<u64>().map_err(|_| {
        format!(
            "warning: ignoring {name}={value:?}: expected a number of milliseconds; \
             keeping the default"
        )
    })
}

/// Parses the fault-injection knob (`JAHOB_FAULTS`) through [`FaultSpec::parse`],
/// wrapping its entry-level diagnostics into the standard knob warning. An empty
/// value parses as the empty (no-fault) spec.
fn parse_faults_knob(name: &str, value: &str) -> Result<FaultSpec, String> {
    FaultSpec::parse(value)
        .map_err(|e| format!("warning: ignoring {name}={value:?}: {e}; keeping the default"))
}

/// Parses a directory-path knob (`JAHOB_CACHE_DIR`): any non-empty value (after
/// trimming) is accepted as a path; an empty value is rejected with a warning naming
/// the variable (an empty dir would silently resolve to the current directory).
fn parse_dir_knob(name: &str, value: &str) -> Result<PathBuf, String> {
    let trimmed = value.trim();
    if trimmed.is_empty() {
        Err(format!(
            "warning: ignoring {name}={value:?}: expected a directory path; \
             keeping the default"
        ))
    } else {
        Ok(PathBuf::from(trimmed))
    }
}

/// Statistics for one prover within a verification run (one row cell of Figure 15).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProverStats {
    /// Number of sequents this prover proved (including cache hits credited to it).
    pub proved: usize,
    /// Number of sequents it attempted (including failures and cache hits).
    pub attempted: usize,
    /// Of `proved`, how many were answered from the result cache rather than by
    /// actually re-running this prover.
    pub cache_hits: usize,
    /// Of `attempted`, how many ran out of fuel ([`DispatcherConfig::budgets`]) and
    /// were aborted before the search finished. Such an attempt counts as failed,
    /// and an unproved obligation's line names the provers it happened to.
    pub budget_aborts: usize,
    /// Of `attempted`, how many panicked and were contained by the cascade's
    /// `catch_unwind` — the prover misbehaved, the dispatch survived. A cascade
    /// containing one is never cached.
    pub crashes: usize,
    /// Of `attempted`, how many were stopped at the wall-clock deadline
    /// ([`DispatcherConfig::deadline_ms`]) — unknown verdicts that are never cached.
    pub deadline_aborts: usize,
    /// Total time spent in this prover.
    pub time: Duration,
}

/// The outcome of running the dispatcher on a set of obligations.
#[derive(Debug, Clone, Default)]
pub struct VerificationReport {
    /// Per-prover statistics.
    pub per_prover: BTreeMap<ProverId, ProverStats>,
    /// Total number of sequents (obligations).
    pub total_sequents: usize,
    /// Number of sequents proved by some prover.
    pub proved_sequents: usize,
    /// Of the unproved sequents, how many the refuter showed invalid: it found a finite
    /// model of their assumptions in which the goal is false, so no prover could prove
    /// them. The others are unproved without a verdict either way.
    pub refuted: usize,
    /// Descriptions of the obligations no prover could discharge, in obligation order
    /// (the order is deterministic even under parallel dispatch: per-obligation results
    /// are merged by obligation index, not by thread completion order).
    pub unproved: Vec<String>,
    /// Obligations answered from the result cache during this run.
    pub cache_hits: usize,
    /// Of `cache_hits`, how many were answered by entries warm-loaded from the
    /// persistent proof store rather than proved earlier in this process. Always 0
    /// unless the cache mode is [`CacheMode::Persistent`].
    pub cache_disk_hits: usize,
    /// Obligations that fell through the cache to the provers during this run. Both
    /// counters stay 0 when caching is disabled.
    pub cache_misses: usize,
    /// Always 0: the dispatcher no longer retries fuel-aborted attempts without fuel.
    /// The field stays only because perfbench still reports it.
    pub rescue_retries: usize,
    /// Total wall-clock time of the run.
    pub total_time: Duration,
}

impl VerificationReport {
    /// `true` if every sequent was proved.
    pub fn succeeded(&self) -> bool {
        self.proved_sequents == self.total_sequents
    }

    /// Total prover attempts aborted on a fuel budget across all provers.
    pub fn budget_aborts(&self) -> usize {
        self.per_prover.values().map(|s| s.budget_aborts).sum()
    }

    /// Total prover panics contained by the cascade across all provers.
    pub fn crashes(&self) -> usize {
        self.per_prover.values().map(|s| s.crashes).sum()
    }

    /// Total prover attempts stopped at the wall-clock deadline across all provers.
    pub fn deadline_aborts(&self) -> usize {
        self.per_prover.values().map(|s| s.deadline_aborts).sum()
    }

    /// Renders the report in the style of Figure 7 of the paper. When the result cache
    /// was consulted (`cache_hits + cache_misses > 0`), a
    /// `Result cache: H hits, M misses (R% hit rate).` line follows the sequent totals.
    pub fn render(&self, task_name: &str) -> String {
        let mut out = String::new();
        out.push_str(&format!("$ jahob {task_name}\n"));
        out.push_str("========================================================\n");
        for (id, stats) in &self.per_prover {
            if stats.proved == 0 && stats.attempted == 0 {
                continue;
            }
            if *id == ProverId::Syntactic {
                out.push_str(&format!(
                    "Built-in checker proved {} sequents during splitting.\n",
                    stats.proved
                ));
            } else {
                out.push_str(&format!(
                    "{} proved {} out of {} sequents. Total time : {:.1} s\n",
                    id.display_name(),
                    stats.proved,
                    stats.attempted,
                    stats.time.as_secs_f64()
                ));
            }
        }
        out.push_str("========================================================\n");
        out.push_str(&format!(
            "A total of {} sequents out of {} proved.\n",
            self.proved_sequents, self.total_sequents
        ));
        if self.cache_hits + self.cache_misses > 0 {
            let from_disk = if self.cache_disk_hits > 0 {
                format!(" ({} from disk)", self.cache_disk_hits)
            } else {
                String::new()
            };
            out.push_str(&format!(
                "Result cache: {} hits{}, {} misses ({:.1}% hit rate).\n",
                self.cache_hits,
                from_disk,
                self.cache_misses,
                100.0 * self.cache_hits as f64 / (self.cache_hits + self.cache_misses) as f64
            ));
        }
        if self.budget_aborts() > 0 {
            out.push_str(&format!(
                "Fuel budgets: {} attempts aborted.\n",
                self.budget_aborts()
            ));
        }
        if self.refuted > 0 {
            out.push_str(&format!(
                "Countermodels: {} unproved sequents are invalid.\n",
                self.refuted
            ));
        }
        if self.crashes() > 0 || self.deadline_aborts() > 0 {
            out.push_str(&format!(
                "Fault containment: {} prover crashes contained, {} attempts stopped at \
                 the deadline.\n",
                self.crashes(),
                self.deadline_aborts()
            ));
        }
        if self.succeeded() {
            out.push_str(&format!("[{task_name}]\n0=== Verification SUCCEEDED.\n"));
        } else {
            out.push_str(&format!("[{task_name}]\n0=== Verification FAILED.\n"));
            for d in &self.unproved {
                out.push_str(&format!("  unproved: {d}\n"));
            }
        }
        out
    }

    /// Merges another report into this one (used when aggregating methods or threads).
    /// Merging is order-dependent only in `unproved`; the dispatcher always merges
    /// per-obligation reports in obligation order so the result is deterministic.
    pub fn merge(&mut self, other: &VerificationReport) {
        for (id, s) in &other.per_prover {
            let entry = self.per_prover.entry(*id).or_default();
            entry.proved += s.proved;
            entry.attempted += s.attempted;
            entry.cache_hits += s.cache_hits;
            entry.budget_aborts += s.budget_aborts;
            entry.crashes += s.crashes;
            entry.deadline_aborts += s.deadline_aborts;
            entry.time += s.time;
        }
        self.total_sequents += other.total_sequents;
        self.proved_sequents += other.proved_sequents;
        self.refuted += other.refuted;
        self.unproved.extend(other.unproved.iter().cloned());
        self.cache_hits += other.cache_hits;
        self.cache_disk_hits += other.cache_disk_hits;
        self.cache_misses += other.cache_misses;
        self.total_time += other.total_time;
    }
}

/// The report of one obligation of a batch, paired with its provenance tag.
#[derive(Debug, Clone)]
pub struct TaggedReport {
    /// Where the obligation came from.
    pub tag: ObligationTag,
    /// The single-obligation report (`total_sequents == 1`); its `total_time` is the
    /// wall-clock time this obligation spent in [`Dispatcher::prove_one`].
    pub report: VerificationReport,
}

/// The outcome of proving one [`ObligationBatch`]: per-obligation reports in batch
/// order (so folding them per method reproduces the per-method `unproved` ordering
/// exactly), each method's obligation count, plus the wall-clock time of the whole
/// batch.
#[derive(Debug, Clone, Default)]
pub struct BatchReport {
    /// One tagged report per obligation, in batch order.
    pub per_obligation: Vec<TaggedReport>,
    /// One count per method of the batch, in batch order: how many obligations the
    /// method had. A method's reports are the next that many of `per_obligation`.
    pub per_method: Vec<usize>,
    /// Wall-clock time of the whole `prove_all` call.
    pub total_time: Duration,
}

impl BatchReport {
    /// Merges every per-obligation report into one aggregate. The aggregate's
    /// `total_time` is the batch wall clock, not the sum of per-obligation times (the
    /// two differ under parallel dispatch).
    pub fn aggregate(&self) -> VerificationReport {
        let mut report = VerificationReport::default();
        for tagged in &self.per_obligation {
            report.merge(&tagged.report);
        }
        report.total_time = self.total_time;
        report
    }
}

/// Checks that `dir` exists (creating it if needed) and is writable, by creating and
/// removing a uniquely named probe file. Called once per dispatcher construction so
/// an unusable [`CacheMode::Persistent`] directory degrades up front instead of
/// failing at the final flush.
fn probe_store_dir(dir: &std::path::Path) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let probe = dir.join(format!(".jahob-probe.{}", std::process::id()));
    std::fs::write(&probe, b"probe")?;
    std::fs::remove_file(&probe)
}

/// The persistent-store attachment shared by a dispatcher and its clones: where to
/// merge-write the proof store, the cache and fault plane a flush reads, and the count
/// of retried writes. Clones share one handle behind an `Arc`, so its `Drop` (the
/// implicit flush) runs exactly once, when the last clone lets go.
#[derive(Debug)]
struct StoreHandle {
    path: PathBuf,
    flush_on_drop: bool,
    cache: Arc<SequentCache>,
    faults: Arc<FaultPlane>,
    /// Store write attempts that had to be retried after a transient I/O failure.
    retries: AtomicUsize,
}

impl StoreHandle {
    /// Merge-writes the cache into the store, up to three times with a short backoff
    /// between attempts. Merge-writes are idempotent (each re-reads the file and
    /// overlays the same snapshot), so retrying a failed attempt is always safe.
    fn flush(&self) -> std::io::Result<usize> {
        const BACKOFF_MS: [u64; 2] = [1, 5];
        let mut attempt = 0;
        loop {
            match store::merge_write_with(&self.path, self.cache.export(), &self.faults) {
                Err(_) if attempt < BACKOFF_MS.len() => {
                    std::thread::sleep(Duration::from_millis(BACKOFF_MS[attempt]));
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    attempt += 1;
                }
                result => return result,
            }
        }
    }

    /// The implicit flush, factored out of `Drop` so tests can exercise it without
    /// capturing stderr: performs the retried merge-write and returns the warning line
    /// when the store still could not be written.
    fn drop_flush_warning(&self) -> Option<String> {
        self.flush().err().map(|e| {
            format!(
                "warning: failed to flush proof store {}: {e}",
                self.path.display()
            )
        })
    }
}

impl Drop for StoreHandle {
    /// Flushes the store when the mode asked for it (`flush: true`). A failed implicit
    /// flush only warns — dropping must not panic, even if the flush path itself
    /// panics; call [`Dispatcher::flush_store`] explicitly to observe the error.
    fn drop(&mut self) {
        if !self.flush_on_drop {
            return;
        }
        let outcome =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.drop_flush_warning()));
        match outcome {
            Ok(Some(warning)) => eprintln!("{warning}"),
            Ok(None) => {}
            Err(_) => eprintln!(
                "warning: implicit flush of proof store {} panicked; store left as-is",
                self.path.display()
            ),
        }
    }
}

/// The integrated-reasoning dispatcher.
///
/// Cloning a dispatcher shares its result cache (the cache sits behind an `Arc`), so
/// one cache can serve every method of a program — or a whole suite — while each clone
/// keeps its own configuration. Under [`CacheMode::Persistent`] the cache is
/// warm-started from the on-disk proof store at construction and merge-written back
/// when the last sharing dispatcher is dropped (or on [`Dispatcher::flush_store`]).
#[derive(Debug, Clone)]
pub struct Dispatcher {
    /// Configuration (prover order, threads, caching, routing, fuel).
    pub config: DispatcherConfig,
    cache: Arc<SequentCache>,
    batches: Arc<AtomicUsize>,
    store: Option<Arc<StoreHandle>>,
    /// The armed fault plane (shared by clones so operation counting stays one
    /// deterministic sequence per dispatcher tree). Empty config → no-op plane.
    faults: Arc<FaultPlane>,
}

impl Default for Dispatcher {
    fn default() -> Self {
        Dispatcher::with_config(DispatcherConfig::default())
    }
}

impl Dispatcher {
    /// Creates a dispatcher with the default prover order and a fresh cache.
    pub fn new() -> Self {
        Dispatcher::default()
    }

    /// Creates a dispatcher with the given configuration and a fresh cache. Under
    /// [`CacheMode::Persistent`] the proof store is loaded here (missing file =
    /// silent cold start; corrupt or version-mismatched file = warned cold start).
    /// A store directory that cannot be created or written warns once and degrades
    /// the cache to [`CacheMode::Memory`] — an unwritable cache dir must never turn
    /// into a panic at drop time or a silent loss of the in-memory cache.
    pub fn with_config(mut config: DispatcherConfig) -> Self {
        let faults = Arc::new(FaultPlane::new(&config.faults));
        if let CacheMode::Persistent { dir, .. } = &config.cache {
            if let Err(e) = probe_store_dir(dir) {
                eprintln!(
                    "warning: proof-store directory {} is not writable ({e}); \
                     degrading to the in-memory cache",
                    dir.display()
                );
                config.cache = CacheMode::Memory;
            }
        }
        let cache = Arc::new(SequentCache::new());
        let store = if let CacheMode::Persistent { dir, flush } = &config.cache {
            let path = store_path(dir);
            cache.absorb(store::load_or_warn_with(&path, &faults));
            Some(Arc::new(StoreHandle {
                path,
                flush_on_drop: *flush,
                cache: Arc::clone(&cache),
                faults: Arc::clone(&faults),
                retries: AtomicUsize::new(0),
            }))
        } else {
            None
        };
        Dispatcher {
            config,
            cache,
            batches: Arc::new(AtomicUsize::new(0)),
            store,
            faults,
        }
    }

    /// Merge-writes the cache's current contents into the persistent proof store and
    /// returns the number of verdict entries the store now holds. A dispatcher
    /// without a [`CacheMode::Persistent`] cache flushes nothing and returns
    /// `Ok(0)`. Concurrent flushers never torn-write (each writes a private tmp file
    /// and atomically renames it over the store) and never lose each other's
    /// entries (each re-reads the store and overlays its own snapshot before
    /// writing).
    /// Transient I/O failures (including injected ones) are retried with a short
    /// backoff before the error is surfaced; [`Dispatcher::store_retries`] counts
    /// the retries.
    pub fn flush_store(&self) -> std::io::Result<usize> {
        self.store.as_ref().map_or(Ok(0), |handle| handle.flush())
    }

    /// Number of store write attempts that failed transiently and were retried
    /// (shared across clones). Zero unless the filesystem — or an injected `store:`
    /// fault — made a flush fail and a retry rescued it.
    pub fn store_retries(&self) -> usize {
        self.store
            .as_ref()
            .map_or(0, |handle| handle.retries.load(Ordering::Relaxed))
    }

    /// The result cache shared by this dispatcher and all its clones.
    pub fn cache(&self) -> &SequentCache {
        &self.cache
    }

    /// Number of `prove_all` calls this dispatcher (and its clones) has dispatched.
    /// The driver's program-wide batching contract — `verify_program` issues exactly
    /// one batch per program, `run_suite` one per suite — is asserted against this.
    pub fn batches_dispatched(&self) -> usize {
        self.batches.load(Ordering::Relaxed)
    }

    /// Proves one tagged batch, returning a per-obligation report stream in batch
    /// order. Each obligation is proved under **its own** method's [`ProverContext`],
    /// which is what lets one batch span every method of a program.
    ///
    /// With the cache on, each method is first looked up in the cache's method memo
    /// ([`cache`]), under the fingerprint of its task and context extended by the
    /// configuration's. A method the memo answers is neither generated nor keyed: each
    /// of its stored cache keys is replayed through the ordinary lookup, so its reports
    /// and the hit counters are exactly those of a method whose obligations were all
    /// cache hits. Every other method's obligations are generated into the batch's bank,
    /// on the calling thread, before any worker starts. Once a method's obligations all
    /// have a verdict in the cache, the method is memoised.
    ///
    /// [`DispatcherConfig::threads`] workers claim the generated obligations one at a
    /// time from one shared atomic index instead of being pre-assigned contiguous
    /// chunks: a single expensive obligation then occupies one worker while the others
    /// drain the rest of the queue. The calling thread is the last worker, beside
    /// `threads - 1` scoped helpers, so a single-threaded dispatcher spawns nothing.
    /// Each result is written into its obligation's slot and emitted in batch order,
    /// so the folded reports — including every method's `unproved` list — are
    /// identical for every thread count.
    ///
    /// Each worker normalises on one [`KeyBank`] over the batch's formula bank, in
    /// which the obligations already are, so a formula that recurs across them (an
    /// invariant, a background fact) is inlined, simplified, canonicalised for the
    /// cache key and checked by the syntactic prover once per worker rather than once
    /// per occurrence. The calling thread proves on the batch's own bank and puts it
    /// back, grown, when the batch ends; each helper proves on a copy taken before any
    /// worker starts, and drops it. A single-threaded dispatcher copies nothing. The
    /// configuration fingerprint every cache key carries is printed once per batch.
    pub fn prove_all(&self, batch: &ObligationBatch) -> BatchReport {
        self.batches.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let fingerprint = self.config.fingerprint();
        let mut bank = batch.bank.lock().unwrap_or_else(PoisonError::into_inner);
        let mut entries: Vec<Generated> = Vec::new();
        let answers: Vec<Answer> = batch
            .methods
            .iter()
            .enumerate()
            .map(|(method, record)| {
                let key = self
                    .config
                    .cache
                    .is_enabled()
                    .then(|| Fingerprint::of(&(record.fingerprint, &fingerprint)));
                if let Some(stored) = key.as_ref().and_then(|key| self.cache.method(key)) {
                    return Answer::Memoised(stored);
                }
                let obligations = record.obligations(&mut bank);
                entries.extend(
                    obligations
                        .iter()
                        .map(|obligation| Generated { obligation, method }),
                );
                Answer::Generated {
                    key,
                    count: obligations.len(),
                }
            })
            .collect();
        let threads = self.config.threads.clamp(1, entries.len().max(1));
        let next = AtomicUsize::new(0);
        let slots: Vec<OnceLock<Proved>> = entries.iter().map(|_| OnceLock::new()).collect();
        let worker = |bank: Bank| {
            let mut keys = KeyBank::over(bank);
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(entry) = entries.get(i) else {
                    break;
                };
                let record = &batch.methods[entry.method];
                let proved = self.prove_entry(
                    entry.obligation,
                    &record.context,
                    &record.types,
                    &mut keys,
                    &fingerprint,
                );
                slots[i]
                    .set(proved)
                    .expect("obligation indices are claimed exactly once");
            }
            keys.bank
        };
        let worker = &worker;
        let copies: Vec<Bank> = (1..threads).map(|_| bank.clone()).collect();
        std::thread::scope(|scope| {
            let helpers: Vec<_> = copies
                .into_iter()
                .map(|copy| scope.spawn(move || drop(worker(copy))))
                .collect();
            *bank = worker(std::mem::take(&mut *bank));
            // The scope's own join returns once the helpers' closures have finished,
            // while their threads may still be exiting. Joining each thread waits for
            // its exit, which hands its allocator arena back, so the next batch's
            // helpers reuse it instead of creating new arenas whose freed memory stays
            // resident.
            for helper in helpers {
                if let Err(panic) = helper.join() {
                    std::panic::resume_unwind(panic);
                }
            }
        });
        drop(bank);
        let mut proved = slots.into_iter().map(|slot| {
            slot.into_inner()
                .expect("every claimed obligation stores a result")
        });
        let mut report = BatchReport::default();
        for (record, answer) in batch.methods.iter().zip(answers) {
            let reports: Vec<VerificationReport> = match answer {
                Answer::Memoised(stored) => stored.iter().map(|o| self.replay(o)).collect(),
                Answer::Generated { key, count } => {
                    let method: Vec<Proved> = proved.by_ref().take(count).collect();
                    if let Some(key) = key {
                        self.memoise(key, &method);
                    }
                    method.into_iter().map(|(report, _)| report).collect()
                }
            };
            report.per_method.push(reports.len());
            report
                .per_obligation
                .extend(
                    reports
                        .into_iter()
                        .enumerate()
                        .map(|(index, report)| TaggedReport {
                            tag: ObligationTag {
                                structure: record.structure.clone(),
                                method: record.method.clone(),
                                index,
                            },
                            report,
                        }),
                );
        }
        report.total_time = start.elapsed();
        report
    }

    /// Memoises a method under `key` when every one of its obligations has a verdict
    /// in the cache: a cascade that crashed or stopped at the deadline has none, so
    /// its method is proved afresh next time.
    fn memoise(&self, key: Fingerprint, method: &[Proved]) {
        let stored: Option<Vec<MemoObligation>> = method
            .iter()
            .map(|(report, key)| {
                let line = report.unproved.first().map(|line| line.as_str().into());
                key.clone().map(|key| (key, line))
            })
            .collect();
        if let Some(stored) = stored {
            self.cache.memoise(key, stored);
        }
    }

    /// The report of one obligation of a method the memo answered: its stored key
    /// replayed through the ordinary cache lookup, with its stored unproved line.
    fn replay(&self, (key, line): &MemoObligation) -> VerificationReport {
        let start = Instant::now();
        let (_, outcome) = self
            .cache
            .lookup(key)
            .expect("the verdicts of a memoised method stay cached");
        let mut report = report_from_cache(&outcome, |_, _| {
            line.as_deref()
                .expect("a memoised unproved verdict keeps its line")
                .to_string()
        });
        report.total_time = start.elapsed();
        report
    }

    /// Proves a uniform-context batch and aggregates the result — the per-method view
    /// retained for callers that hold plain obligation slices (unit tests, obligation
    /// dumps).
    pub fn prove_obligations(
        &self,
        obligations: &[ProofObligation],
        context: &ProverContext,
    ) -> VerificationReport {
        self.prove_all(&ObligationBatch::uniform(obligations, context))
            .aggregate()
    }

    /// Proves one generated obligation, stamping the report with its wall time (so
    /// per-method folds sum to a meaningful method time even inside a program-wide
    /// batch).
    fn prove_entry(
        &self,
        obligation: &InternedObligation,
        context: &ProverContext,
        types: &TypeEnv,
        keys: &mut KeyBank,
        fingerprint: &str,
    ) -> Proved {
        let start = Instant::now();
        let (mut report, key) = self.prove_one_inner(obligation, context, types, keys, fingerprint);
        report.total_time = start.elapsed();
        (report, key)
    }

    /// Attempts one obligation, consulting the result cache first when enabled. It
    /// interns the obligation into a fresh [`KeyBank`] and normalises there. The
    /// refuter's models type the obligation's variables by the standard environment and
    /// by how the obligation uses them.
    pub fn prove_one(
        &self,
        obligation: &ProofObligation,
        context: &ProverContext,
    ) -> VerificationReport {
        let fingerprint = self.config.fingerprint();
        let mut keys = KeyBank::new();
        let interned = InternedObligation::intern(&mut keys.bank, obligation);
        let types = TypeEnv::standard();
        self.prove_one_inner(&interned, context, &types, &mut keys, &fingerprint)
            .0
    }

    /// Attempts one obligation whose formulas are in `keys`' bank. Returns its report
    /// and, when the cache holds a verdict for it afterwards, its cache key.
    fn prove_one_inner(
        &self,
        obligation: &InternedObligation,
        context: &ProverContext,
        types: &TypeEnv,
        keys: &mut KeyBank,
        fingerprint: &str,
    ) -> Proved {
        // §5.3: before any prover runs, substitute the definitions of the intermediate
        // variables introduced by the VC generator (assignment temporaries, pre-state
        // snapshots, splitter renamings). Every prover then works on the collapsed
        // sequent. The hinted variant — label-selected assumptions, any library lemmas
        // the hints name, and the instances produced by `inst` hints ([`inst`]) — is
        // what the provers try first; instantiation runs before inlining and keying,
        // so routing and `SequentKey` both see the instantiated sequent (entries never
        // alias across witnesses). Inlining, keying and the syntactic checks run on the
        // worker's bank, where the obligation already is; the inlined `Sequent`s the
        // other provers read are built from it only when no cached verdict answers the
        // obligation. The hint passes run on formulas, so only an obligation with hints
        // is rebuilt as one, and what they build is interned.
        let (hinted, full, with_lemmas) = if obligation.hints.is_empty() {
            (
                None,
                keys.bank.inline_definitions(&obligation.sequent),
                None,
            )
        } else {
            let materialised = obligation.materialise(&keys.bank);
            let hints = &materialised.hints;
            let selected = materialised.hinted_sequent_with_lemmas(context.lemmas.named_lemmas());
            let hinted = inlined(&mut keys.bank, &apply_inst_hints(&selected, hints));
            // The full-sequent fallback keeps the instantiations too: label hints are
            // advice the retry may discard, but an `inst` witness is information the
            // provers cannot rediscover — dropping it on retry would lose proofs
            // whenever a label hint misselected the assumptions.
            let full = inlined(
                &mut keys.bank,
                &apply_inst_hints(&materialised.sequent, hints),
            );
            // The lemmas a hint injects are trusted assumptions of the hinted sequent
            // alone, so the refuter reads the full sequent with them: a countermodel
            // must satisfy them too.
            let named = !context.lemmas.named_lemmas().is_empty();
            let lemmas: Vec<&Form> = selected
                .assumptions
                .iter()
                .filter(|a| {
                    named
                        && a.strip_comments()
                            .0
                            .iter()
                            .any(|l| l.starts_with(LEMMA_HINT_PREFIX))
                })
                .collect();
            let with_lemmas = (!lemmas.is_empty()).then(|| {
                let mut sequent = materialised.sequent.clone();
                sequent.assumptions.extend(lemmas.into_iter().cloned());
                inlined(&mut keys.bank, &apply_inst_hints(&sequent, hints))
            });
            (Some(hinted), full, with_lemmas)
        };
        let refutable = with_lemmas.as_ref().unwrap_or(&full);
        let original = &obligation.sequent;
        if !self.config.cache.is_enabled() {
            let (report, _) = self.prove_one_uncached(
                original,
                context,
                types,
                keys,
                hinted.as_ref(),
                &full,
                refutable,
            );
            return (report, None);
        }
        let full_classes = var_classes(context, &keys.bank, &full);
        let key = CacheKey {
            sequent: keys.key(&full),
            hinted: hinted.as_ref().map(|h| keys.key(h)),
            var_classes: match &hinted {
                Some(h) => format!("{full_classes}|{}", var_classes(context, &keys.bank, h)),
                None => full_classes,
            },
            lemma_registered: context.lemmas.contains(&keys.bank, original),
            config_fingerprint: fingerprint.to_string(),
        };
        if let Some((key, outcome)) = self.cache.lookup(&key) {
            let report = report_from_cache(&outcome, |report, countermodel| {
                unproved_description(&keys.bank, original, report, countermodel)
            });
            return (report, Some(key));
        }
        let (mut report, countermodel) = self.prove_one_uncached(
            original,
            context,
            types,
            keys,
            hinted.as_ref(),
            &full,
            refutable,
        );
        report.cache_misses = 1;
        // A cascade that contained a crash or a deadline stop has attempts with
        // *unknown* verdicts: caching its outcome would freeze a fault-perturbed
        // verdict into the store and replay it on healthy runs. Leave it uncached —
        // the next run (without the fault) recomputes it cleanly.
        if report.crashes() > 0 || report.deadline_aborts() > 0 {
            return (report, None);
        }
        let prover = report
            .per_prover
            .iter()
            .find(|(_, s)| s.proved > 0)
            .map(|(id, _)| *id);
        let attempted = report
            .per_prover
            .iter()
            .map(|(id, s)| (*id, s.attempted))
            .collect();
        let budget_aborts = report
            .per_prover
            .iter()
            .filter(|(_, s)| s.budget_aborts > 0)
            .map(|(id, s)| (*id, s.budget_aborts))
            .collect();
        let key = Arc::new(key);
        self.cache.insert(
            Arc::clone(&key),
            CachedOutcome {
                proved: report.proved_sequents == 1,
                prover,
                attempted,
                budget_aborts,
                countermodel,
                from_disk: false,
            },
        );
        (report, Some(key))
    }

    /// A budgeted phase over `interned`: every prover in routed order (the static
    /// [`router::route`] permutation of the global order when routing is on, the
    /// global order itself otherwise), under the sequent's fuel when budgets are on.
    /// The features come from the bank, memoised per node.
    fn phase<'s>(&self, bank: &mut Bank, interned: &'s InternedSequent) -> Phase<'s> {
        let features = bank.sequent_features(interned);
        Phase {
            interned,
            provers: if self.config.route {
                router::route(&features, &ProverId::default_order())
            } else {
                ProverId::default_order()
            },
            fuel: self.config.budgets.then(|| fuel_for(&features)),
        }
    }

    /// Attempts one obligation by running its attempt plan: a list of phases, each a
    /// sequent, the provers to try on it in order, and their fuel. The first success
    /// wins. `hinted` is the inlined hint-filtered sequent and `full` the inlined full
    /// sequent, both in `keys`' bank, where every prover reads them. `original` is the
    /// obligation's sequent before inlining, which the interactive library and the
    /// unproved line name. The plan is
    ///
    /// 1. the hinted sequent (the full one without hints), every routed prover;
    /// 2. when hints narrowed the sequent, the full sequent, every routed prover but
    ///    the syntactic one;
    ///
    /// both under fuel when budgets are on. An attempt that runs out of fuel has
    /// failed, so an obligation whose attempts all fail or run out of fuel is
    /// unproved, and its unproved line names the provers that ran out. The interactive
    /// prover is attempted only on an obligation its library has registered.
    ///
    /// The refuter runs once, on `refutable` (the full sequent, with any lemmas the
    /// hints inject), right after the first phase-1 attempt other than the syntactic
    /// check that does not prove. A countermodel ends the plan: the obligation is
    /// unproved, and `invalid` with the model that is returned beside the report. The
    /// refuter never proves anything, so it changes no verdict, only what a failing
    /// obligation costs.
    #[allow(clippy::too_many_arguments)]
    fn prove_one_uncached(
        &self,
        original: &InternedSequent,
        context: &ProverContext,
        types: &TypeEnv,
        keys: &mut KeyBank,
        hinted: Option<&InternedSequent>,
        full: &InternedSequent,
        refutable: &InternedSequent,
    ) -> (VerificationReport, Option<Box<str>>) {
        let mut report = VerificationReport {
            total_sequents: 1,
            ..VerificationReport::default()
        };
        let first = hinted.unwrap_or(full);
        // Hints are advice, not a restriction: when they narrowed the sequent, the
        // full assumption set (still instantiated) is tried next. With
        // instantiation-only hints the two sequents coincide and the retry would
        // repeat the first phase, so it is left out. The syntactic checks run once per
        // obligation, in the first phase.
        let mut plan = vec![self.phase(&mut keys.bank, first)];
        if first != full {
            let mut retry = self.phase(&mut keys.bank, full);
            retry.provers.retain(|p| *p != ProverId::Syntactic);
            plan.push(retry);
        }
        // An obligation the interactive library has registered is proved by it, valid
        // or not, so the refuter leaves it alone.
        let registered = context.lemmas.contains(&keys.bank, original);
        let mut may_refute = !registered;
        for (phase, plan_phase) in plan.iter().enumerate() {
            let Phase {
                interned,
                provers,
                fuel,
            } = plan_phase;
            for &prover in provers {
                if prover == ProverId::Interactive && !registered {
                    continue;
                }
                let start = Instant::now();
                let deadline = self
                    .config
                    .deadline_ms
                    .map(|ms| start + Duration::from_millis(ms));
                let outcome = contained_attempt(
                    &self.faults,
                    prover,
                    Attempted {
                        interned,
                        keys: &mut *keys,
                    },
                    context,
                    fuel.as_ref(),
                    deadline,
                );
                let stats = report.per_prover.entry(prover).or_default();
                stats.attempted += 1;
                stats.time += start.elapsed();
                match outcome {
                    AttemptOutcome::Proved => {
                        stats.proved += 1;
                        report.proved_sequents = 1;
                        return (report, None);
                    }
                    AttemptOutcome::BudgetAborted => stats.budget_aborts += 1,
                    AttemptOutcome::Crashed => stats.crashes += 1,
                    AttemptOutcome::DeadlineExceeded => stats.deadline_aborts += 1,
                    AttemptOutcome::Failed => {}
                }
                let failed = matches!(
                    outcome,
                    AttemptOutcome::Failed | AttemptOutcome::BudgetAborted
                );
                if phase == 0 && prover != ProverId::Syntactic && failed && may_refute {
                    may_refute = false;
                    if let Some(model) = contained_refutation(&keys.bank, refutable, types) {
                        report.refuted = 1;
                        let line =
                            unproved_description(&keys.bank, original, &report, Some(&model));
                        report.unproved.push(line);
                        return (report, Some(model));
                    }
                }
            }
        }
        // An unproved obligation whose cascade contained crashes or deadline stops is
        // attributed: the reader of the report can tell "no prover could prove this"
        // apart from "the provers that might have proved this were stopped". Faults
        // off and no deadline → the suffix never appears. Such cascades are never
        // cached, so only the fuel note needs a cache replay.
        let mut description = unproved_description(&keys.bank, original, &report, None);
        let (crashes, deadlines) = (report.crashes(), report.deadline_aborts());
        if crashes > 0 || deadlines > 0 {
            description.push_str(&format!(
                " [contained: {crashes} crashed, {deadlines} deadline-stopped]"
            ));
        }
        report.unproved.push(description);
        (report, None)
    }
}

/// The refuter's cap on evaluation steps per obligation, across its universes of 1–4
/// objects ([`jahob_logic::countermodel`]). It is sized from the work of the refuted
/// obligations: at seed 1 the 33 obligations `reject_mutants` leaves unproved per pass
/// are refuted in 66–4,428 steps (median 938), and the 157 suite obligations whose
/// assumptions have a model (posed with the goal `False`) in at most 27,209, the three
/// of `SinglyLinkedList.addTwo` that need four objects. A valid sequent pays the cap
/// unless the search exhausts the four universes first; on the suite that takes up to
/// 5.3 million steps.
pub const REFUTER_CAP: u64 = 32_768;

/// Runs the refuter on an inlined sequent in `bank`, inside the containment boundary:
/// a panic counts as no countermodel. Returns the countermodel restricted to the
/// goal's free variables.
fn contained_refutation(
    bank: &Bank,
    sequent: &InternedSequent,
    types: &TypeEnv,
) -> Option<Box<str>> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let materialised = bank.materialise_sequent(sequent);
        let model = refute(&materialised, types, REFUTER_CAP).model?;
        Some(model.describe(bank.free_vars(sequent.goal)).into())
    }))
    .ok()
    .flatten()
}

/// One obligation `prove_all` proves: its formulas in the batch's bank and the index of
/// its method's record.
struct Generated<'b> {
    obligation: &'b InternedObligation,
    method: usize,
}

/// How `prove_all` answers one method: from the memo, or by the `count` obligations it
/// generated, memoised under `key` afterwards (`None` with the cache off).
enum Answer {
    Memoised(Arc<[MemoObligation]>),
    Generated {
        key: Option<Fingerprint>,
        count: usize,
    },
}

/// One proved obligation's report, and its cache key when the cache holds a verdict
/// for it.
type Proved = (VerificationReport, Option<Arc<CacheKey>>);

/// Materialises a per-obligation report from a cached verdict: the attempted and
/// aborted counts of the original run are replayed (with zero time) and the original
/// prover is credited, so Figure 7/15 attributions agree with an uncached run. An
/// unproved verdict's line is `describe`d from the report and the stored countermodel.
fn report_from_cache(
    outcome: &CachedOutcome,
    describe: impl FnOnce(&VerificationReport, Option<&str>) -> String,
) -> VerificationReport {
    let mut report = VerificationReport {
        total_sequents: 1,
        cache_hits: 1,
        cache_disk_hits: outcome.from_disk as usize,
        ..VerificationReport::default()
    };
    for (prover, attempted) in &outcome.attempted {
        report.per_prover.entry(*prover).or_default().attempted += attempted;
    }
    for (prover, aborts) in &outcome.budget_aborts {
        report.per_prover.entry(*prover).or_default().budget_aborts += aborts;
    }
    if outcome.proved {
        report.proved_sequents = 1;
        if let Some(prover) = outcome.prover {
            let stats = report.per_prover.entry(prover).or_default();
            stats.proved += 1;
            stats.cache_hits += 1;
        }
    } else {
        report.refuted = outcome.countermodel.is_some() as usize;
        let line = describe(&report, outcome.countermodel.as_deref());
        report.unproved.push(line);
    }
    report
}

/// One phase of an obligation's attempt plan: a sequent in the worker's bank, the
/// provers to try on it in order, and their fuel (`None` only with budgets off).
struct Phase<'s> {
    interned: &'s InternedSequent,
    provers: Vec<ProverId>,
    fuel: Option<FuelBudget>,
}

/// The unproved line of an obligation: the description of its sequent (`original`, in
/// `bank`), followed by ` [invalid: <model>]` when the refuter found a countermodel, and
/// otherwise by ` [out of fuel: <tags>]` when some attempts ran out of fuel, naming
/// those provers by [`ProverId::tag`] in [`ProverId`] order. An uncached run and a
/// cache replay both build the line here from the countermodel and the per-prover
/// abort counts, so they render alike.
fn unproved_description(
    bank: &Bank,
    original: &InternedSequent,
    report: &VerificationReport,
    countermodel: Option<&str>,
) -> String {
    let mut description = bank.describe(original);
    match countermodel {
        Some("") => return description + " [invalid]",
        Some(model) => return format!("{description} [invalid: {model}]"),
        None => {}
    }
    let out_of_fuel: Vec<&str> = report
        .per_prover
        .iter()
        .filter(|(_, stats)| stats.budget_aborts > 0)
        .map(|(prover, _)| prover.tag())
        .collect();
    if !out_of_fuel.is_empty() {
        description.push_str(&format!(" [out of fuel: {}]", out_of_fuel.join(", ")));
    }
    description
}

/// An obligation's sequent interned into `bank`, with its definitions inlined there.
fn inlined(bank: &mut Bank, sequent: &Sequent) -> InternedSequent {
    let interned = bank.intern_sequent(sequent);
    bank.inline_definitions(&interned)
}

/// The set/function classification of the free variables of `sequent` under `context`
/// — part of every cache key, because the classification steers the SMT/FOL
/// translations. The variables come from the bank's per-node free variables, in name
/// order.
fn var_classes(context: &ProverContext, bank: &Bank, sequent: &InternedSequent) -> String {
    let mut classes = String::new();
    for v in bank.sequent_free_vars(sequent) {
        if context.set_vars.contains(v) {
            classes.push_str("S:");
            classes.push_str(v);
            classes.push(';');
        }
        if context.fun_vars.contains(v) {
            classes.push_str("F:");
            classes.push_str(v);
            classes.push(';');
        }
    }
    classes
}

/// The verdict of one prover attempt. `Failed` is a completed negative run
/// — identical to what an unbudgeted run would conclude. `BudgetAborted` means the
/// attempt ran out of fuel before its search finished; within the attempt's caps
/// that is a failure too, recorded apart so the unproved line can say fuel ended
/// it. The two containment outcomes are unknown-verdict stops:
/// `Crashed` is a prover panic caught at the attempt boundary, `DeadlineExceeded` a
/// cooperative wall-clock stop ([`DispatcherConfig::deadline_ms`]); a cascade with
/// either is never cached.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum AttemptOutcome {
    Proved,
    Failed,
    BudgetAborted,
    Crashed,
    DeadlineExceeded,
}

/// Cooperative fuel for one budgeted cascade: deterministic work units, not wall
/// time, so abort decisions are reproducible across runs and machines.
#[derive(Debug, Clone, Copy)]
struct FuelBudget {
    /// MONA automaton-construction work ([`jahob_mona::MonaOptions::max_work`]).
    mona_work: u64,
    /// MONA per-automaton state cap ([`jahob_mona::MonaOptions::max_states`]).
    mona_states: usize,
    /// FOL given-clause iterations ([`jahob_folp::ResolutionLimits::max_iterations`]).
    fol_iterations: usize,
    /// SMT ground-search steps ([`jahob_smt::GroundLimits::max_steps`] — DPLL search
    /// nodes: the root, and each value tried for a decided atom). The ground search
    /// is deterministic, so a budgeted run that completes (`Sat`/`Unsat`) is
    /// bit-identical to the unbudgeted verdict; only a truncated search (`Unknown`)
    /// becomes a budget abort.
    smt_steps: usize,
}

/// The feature-dependent fuel policy: the deterministic form of the paper's
/// per-prover time limits. A cap is part of what an attempt means — an attempt that
/// runs out of fuel has failed — so these constants decide verdicts, not just time.
/// They are sized so that every proof of the §7 suite fits comfortably while
/// hopeless runs abort at a small fraction of their unbudgeted cost; the budgets
/// on/off differential test pins that they fit. Sequents that quantify over a set
/// are MONA's own monadic second-order fragment and legitimately build large
/// automata, and quantified sequents legitimately saturate longer, so those buckets
/// keep generous budgets.
///
/// The SMT step budget is the big saver on the §7 suite: every winning ground search
/// there closes after unit propagation alone (a single DPLL step), while the searches
/// that end in a countermodel (a genuine SMT failure some later prover then
/// discharges) run hundreds of search steps per attempt.
fn fuel_for(features: &SequentFeatures) -> FuelBudget {
    let (mona_work, mona_states) = if features.set_binders > 0 {
        (2_000_000, 768)
    } else {
        (150_000, 256)
    };
    let fol_iterations = if features.quantifiers > 0 { 120 } else { 60 };
    FuelBudget {
        mona_work,
        mona_states,
        fol_iterations,
        smt_steps: 32,
    }
}

/// The sequent one attempt runs on: its nodes in the worker's bank, where every
/// prover's front end runs, and the worker's SMT memo beside the bank.
struct Attempted<'a> {
    interned: &'a InternedSequent,
    keys: &'a mut KeyBank,
}

/// Runs a single prover on a sequent. With `fuel` present, MONA and FOL run under
/// its limits and report [`AttemptOutcome::BudgetAborted`] when they hit them;
/// without it they run with their standing (effectively unlimited) budgets, and a
/// resource stop is reported as a plain failure exactly as before.
///
/// With `deadline` present, the long-running provers (MONA, SMT, FOL) additionally
/// check the wall clock at their existing fuel sites and stop with
/// [`AttemptOutcome::DeadlineExceeded`] once it passes. The deadline check is
/// independent of `fuel`: it fires with budgets off too. The syntactic, BAPA and
/// interactive provers have no long-running loops and are exempt.
fn attempt(
    prover: ProverId,
    on: Attempted<'_>,
    context: &ProverContext,
    fuel: Option<&FuelBudget>,
    deadline: Option<Instant>,
) -> AttemptOutcome {
    let verdict = |proved: bool| {
        if proved {
            AttemptOutcome::Proved
        } else {
            AttemptOutcome::Failed
        }
    };
    match prover {
        ProverId::Syntactic => verdict(syntactic_prover_on(&mut on.keys.bank, on.interned)),
        ProverId::Mona => {
            let mut opts = jahob_mona::MonaOptions::default();
            if let Some(fuel) = fuel {
                opts.max_work = fuel.mona_work;
                opts.max_states = fuel.mona_states;
            }
            opts.deadline = deadline;
            let result = jahob_mona::prove_interned(&mut on.keys.bank, on.interned, &opts);
            if result.proved {
                AttemptOutcome::Proved
            } else if result.deadline_exceeded {
                AttemptOutcome::DeadlineExceeded
            } else if fuel.is_some() && result.budget_exhausted {
                AttemptOutcome::BudgetAborted
            } else {
                AttemptOutcome::Failed
            }
        }
        ProverId::Smt => {
            let mut opts = jahob_smt::SmtOptions {
                set_vars: context.set_vars.clone(),
                fun_vars: context.fun_vars.clone(),
                ..jahob_smt::SmtOptions::default()
            };
            if let Some(fuel) = fuel {
                opts.ground_limits.max_steps = fuel.smt_steps.min(opts.ground_limits.max_steps);
            }
            opts.ground_limits.deadline = deadline;
            let keys = &mut *on.keys;
            let result =
                jahob_smt::prove_interned(&mut keys.bank, on.interned, &opts, &mut keys.smt);
            if result.proved {
                AttemptOutcome::Proved
            } else if result.outcome == jahob_smt::GroundOutcome::Deadline {
                AttemptOutcome::DeadlineExceeded
            } else if fuel.is_some() && result.outcome == jahob_smt::GroundOutcome::Unknown {
                // `Unknown` is a truncated search (step budget or clause cap), not a
                // countermodel; the deterministic DPLL search means any *completed*
                // budgeted verdict equals the unbudgeted one.
                AttemptOutcome::BudgetAborted
            } else {
                AttemptOutcome::Failed
            }
        }
        ProverId::Fol => {
            let opts = fol_options(context, fuel, deadline);
            // FOL clausifies the approximation and negation normal forms memoised in the
            // bank, which SMT's attempt on the sequent has usually built already.
            let result = jahob_folp::prove_interned(&mut on.keys.bank, on.interned, &opts);
            if result.proved {
                AttemptOutcome::Proved
            } else if result.deadline_exceeded() {
                AttemptOutcome::DeadlineExceeded
            } else if fuel.is_some() && result.resource_limited() {
                AttemptOutcome::BudgetAborted
            } else {
                AttemptOutcome::Failed
            }
        }
        ProverId::Bapa => {
            let options = jahob_bapa::BapaOptions::default();
            verdict(jahob_bapa::prove_interned(&mut on.keys.bank, on.interned, &options).proved)
        }
        // The cascade attempts it only on an obligation its library has registered.
        ProverId::Interactive => AttemptOutcome::Proved,
    }
}

/// FOL's options for one attempt. The attempt stops only on its fuel (the iteration
/// cap, and the clause caps that bound it with budgets off) or on the configured
/// deadline: FOL's own wall-clock net is off, so an unproved line never depends on
/// the machine's load.
fn fol_options(
    context: &ProverContext,
    fuel: Option<&FuelBudget>,
    deadline: Option<Instant>,
) -> jahob_folp::FolOptions {
    let mut opts = jahob_folp::FolOptions::default();
    opts.translate.set_vars = context.set_vars.clone();
    opts.translate.fun_vars = context.fun_vars.clone();
    // Keep the resolution budget modest: the FOL prover is a fallback behind the
    // SMT prover in the default order.
    opts.limits.max_iterations = fuel.map_or(300, |f| f.fol_iterations.min(300));
    opts.limits.max_millis = 0;
    opts.limits.deadline = deadline;
    opts
}

/// Runs one prover attempt inside the fault-containment boundary: any injected fault
/// for `prover` fires first (so delays count against the attempt's own deadline),
/// and the whole attempt runs under [`std::panic::catch_unwind`]. A panicking prover
/// — injected or genuine — becomes [`AttemptOutcome::Crashed`] instead of unwinding
/// through the dispatcher (and, under threaded dispatch, aborting the process).
/// Injected panics are silenced by the quiet panic hook; genuine prover panics still
/// print their message before being contained.
fn contained_attempt(
    faults: &FaultPlane,
    prover: ProverId,
    on: Attempted<'_>,
    context: &ProverContext,
    fuel: Option<&FuelBudget>,
    deadline: Option<Instant>,
) -> AttemptOutcome {
    faults::install_quiet_panic_hook();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        faults.prover_attempt(prover);
        attempt(prover, on, context, fuel, deadline)
    }));
    faults::clear_injected_panic_marker();
    match outcome {
        Ok(verdict) => verdict,
        Err(_) => AttemptOutcome::Crashed,
    }
}

/// The syntactic prover (§6.1): trivial validity checks that discharge a large share of
/// the sequents (null-check obligations repeated along paths, invariants re-established
/// verbatim, and so on).
///
/// The checks are applied twice: once on the lightly simplified sequent, and once after
/// inlining the definitional equalities of generated variables and canonicalising
/// commutative operators — the "simple syntactic transformations that preserve validity"
/// the paper alludes to. Both passes are sound: they only rewrite the sequent into
/// equivalent form and then look for the goal among the assumptions. The checks run on
/// a fresh [`Bank`]; the dispatcher runs them on its batch's bank
/// ([`syntactic_prover_on`]).
pub fn syntactic_prover(sequent: &Sequent) -> bool {
    let mut bank = Bank::new();
    let interned = bank.intern_sequent(sequent);
    syntactic_prover_on(&mut bank, &interned)
}

/// [`syntactic_prover`] on a sequent interned in `bank`, reading the bank's memoised
/// normal forms. The second check inlines the sequent again: on a sequent the
/// dispatcher has already inlined, that can still find a definition the first inlining
/// produced (in `SinglyLinkedList.add`, substituting one definition turns another
/// assumption into `fresh$_1 = null`).
pub fn syntactic_prover_on(bank: &mut Bank, sequent: &InternedSequent) -> bool {
    if trivially_valid(bank, sequent, false) {
        return true;
    }
    let inlined = bank.inline_definitions(sequent);
    trivially_valid(bank, &inlined, true)
}

/// One pass of the syntactic validity checks. When `canonical` is set, formulas are
/// compared modulo commutativity/associativity of `&`, `|`, `Un`, `Int`, `+`, `=` and
/// membership expansion ([`Bank::canonical`]); otherwise only simplification and
/// comment stripping are applied.
fn trivially_valid(bank: &mut Bank, sequent: &InternedSequent, canonical: bool) -> bool {
    let norm = |bank: &mut Bank, f: NodeId| {
        if canonical {
            bank.canonical(f)
        } else {
            let stripped = bank.strip_comments(f);
            bank.simplify(stripped)
        }
    };
    let goal = norm(bank, sequent.goal);
    if bank.is_true(goal) {
        return true;
    }
    // Reflexive equality.
    if bank.as_eq(goal).is_some_and(|(l, r)| l == r) {
        return true;
    }
    let assumptions: Vec<NodeId> = sequent.assumptions.iter().map(|a| norm(bank, *a)).collect();
    // A false assumption proves anything.
    if assumptions.iter().any(|a| bank.is_false(*a)) {
        return true;
    }
    // The goal (or each of its conjuncts) appears among the assumptions, possibly as a
    // conjunct of an assumption, possibly as a symmetric equality.
    let mut available: HashSet<NodeId> = HashSet::new();
    for a in assumptions {
        for c in bank.conjuncts(a) {
            available.insert(c);
            if let Some((l, r)) = bank.as_eq(c) {
                available.insert(bank.eq(r, l));
            }
        }
    }
    bank.conjuncts(goal).iter().all(|c| {
        available.contains(c) || bank.as_eq(*c).is_some_and(|(l, r)| l == r) || bank.is_true(*c)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use jahob_logic::{parse_form, Sequent};
    use jahob_vcgen::Hint;

    fn ob(assumptions: &[&str], goal: &str) -> ProofObligation {
        ProofObligation {
            sequent: Sequent::new(
                assumptions
                    .iter()
                    .map(|a| parse_form(a).expect("parse"))
                    .collect(),
                parse_form(goal).expect("parse"),
            ),
            hints: Vec::new(),
        }
    }

    #[test]
    fn syntactic_prover_discharges_trivial_sequents() {
        assert!(syntactic_prover(&ob(&["x ~= null"], "x ~= null").sequent));
        assert!(syntactic_prover(&ob(&["p & q"], "q").sequent));
        assert!(syntactic_prover(&ob(&["a = b"], "b = a").sequent));
        assert!(syntactic_prover(&ob(&["False"], "anything = 1").sequent));
        assert!(syntactic_prover(&ob(&[], "x = x").sequent));
        assert!(!syntactic_prover(&ob(&["p | q"], "p").sequent));
    }

    #[test]
    fn the_syntactic_check_inlines_the_inlined_sequent_again() {
        // `(fresh$1 = null) = True` is no definition as written; once the first
        // inlining simplifies it to `fresh$1 = null`, the syntactic prover's own
        // inlining substitutes it and the goal becomes `r null = r null`.
        let obligation = ob(
            &["asg$1 = c", "(fresh$1 = null) = True"],
            "r fresh$1 = r null",
        );
        let inlined = jahob_logic::norm::inline_definitions(&obligation.sequent);
        assert_eq!(
            inlined.assumptions,
            vec![parse_form("fresh$1 = null").unwrap()]
        );
        assert!(syntactic_prover(&inlined));
        let report = Dispatcher::new().prove_one(&obligation, &ProverContext::default());
        assert_eq!(report.proved_sequents, 1);
        assert_eq!(report.per_prover[&ProverId::Syntactic].proved, 1);
    }

    #[test]
    fn prover_tags_round_trip_and_unknown_tags_are_rejected() {
        // The tags are the store format's and the fault-spec grammar's prover names.
        let tags: Vec<&str> = ProverId::default_order()
            .iter()
            .map(ProverId::tag)
            .collect();
        assert_eq!(
            tags,
            ["syntactic", "smt", "mona", "bapa", "fol", "interactive"]
        );
        for prover in ProverId::default_order() {
            assert_eq!(ProverId::from_tag(prover.tag()), Some(prover));
        }
        for unknown in ["", "store", "SMT", "z3", "smt "] {
            assert_eq!(ProverId::from_tag(unknown), None, "{unknown:?}");
        }
    }

    #[test]
    fn dispatcher_routes_to_the_right_prover() {
        let dispatcher = Dispatcher::new();
        let context = ProverContext::default();
        // Syntactic.
        let r = dispatcher.prove_one(&ob(&["p"], "p"), &context);
        assert_eq!(r.per_prover[&ProverId::Syntactic].proved, 1);
        // Arithmetic goes to the SMT prover.
        let r = dispatcher.prove_one(&ob(&["x = y + 1", "0 <= y"], "1 <= x"), &context);
        assert!(r.succeeded());
        assert_eq!(r.per_prover[&ProverId::Smt].proved, 1);
        // Cardinality goes to BAPA.
        let r = dispatcher.prove_one(
            &ob(
                &[
                    "size = card content",
                    "x ~: content",
                    "content1 = content Un {x}",
                ],
                "size + 1 = card content1",
            ),
            &context,
        );
        assert!(r.succeeded());
        assert_eq!(r.per_prover[&ProverId::Bapa].proved, 1);
    }

    #[test]
    fn unproved_obligations_are_reported() {
        let dispatcher = Dispatcher::new();
        let context = ProverContext::default();
        let r = dispatcher.prove_one(&ob(&["p"], "q"), &context);
        assert!(!r.succeeded());
        assert_eq!(r.unproved.len(), 1);
    }

    #[test]
    fn atoms_without_a_translation_prove_nothing() {
        let dispatcher = Dispatcher::new();
        let context = ProverContext::default();
        let unprovable: [(&[&str], &str); 5] = [
            (&["A subset B"], "C subset D"),
            (&["ite c p q"], "ite d p q"),
            (&["EX x. x subset B", "EX x. ~(x subset B)"], "False"),
            (&["f (x : A) = z"], "f (x = A) = z"),
            (&["f (ALL x. p x) = z"], "f (ALL x. q x) = z"),
        ];
        for (assumptions, goal) in unprovable {
            let r = dispatcher.prove_one(&ob(assumptions, goal), &context);
            assert!(!r.succeeded(), "{assumptions:?} |- {goal}");
        }
    }

    #[test]
    fn interactive_lemmas_are_honoured() {
        let dispatcher = Dispatcher::new();
        let mut context = ProverContext::default();
        let hard = ob(&["complicated : thing"], "deep_theorem = True");
        context.lemmas.register(LemmaLibrary::key_of(&hard));
        let r = dispatcher.prove_one(&hard, &context);
        assert!(r.succeeded());
        assert_eq!(r.per_prover[&ProverId::Interactive].proved, 1);
    }

    #[test]
    fn hints_filter_assumptions_but_do_not_lose_proofs() {
        let dispatcher = Dispatcher::new();
        let context = ProverContext::default();
        let mut o = ob(
            &["comment ''key'' (a = b)", "comment ''noise'' (c : d)"],
            "b = a",
        );
        o.hints = vec![Hint::label("key")];
        assert!(dispatcher.prove_one(&o, &context).succeeded());
        // A hint pointing at the wrong assumption still succeeds via the full-sequent
        // retry.
        o.hints = vec![Hint::label("noise")];
        assert!(dispatcher.prove_one(&o, &context).succeeded());
    }

    #[test]
    fn batch_and_parallel_runs_agree() {
        let obs = vec![
            ob(&["p"], "p"),
            ob(&["x = y", "y = z"], "x = z"),
            ob(&["0 <= n"], "0 <= n + 1"),
            ob(&["p"], "q"),
        ];
        let context = ProverContext::default();
        let sequential = Dispatcher::new().prove_obligations(&obs, &context);
        let mut parallel = Dispatcher::new();
        parallel.config.threads = 3;
        let par = parallel.prove_obligations(&obs, &context);
        assert_eq!(sequential.proved_sequents, 3);
        assert_eq!(par.proved_sequents, 3);
        assert_eq!(sequential.total_sequents, par.total_sequents);
    }

    #[test]
    fn report_renders_figure7_style_output() {
        let obs = vec![ob(&["p"], "p"), ob(&["x = y"], "y = x")];
        let context = ProverContext::default();
        let report = Dispatcher::new().prove_obligations(&obs, &context);
        let text = report.render("List.add");
        assert!(text.contains("Built-in checker proved"));
        assert!(text.contains("A total of 2 sequents out of 2 proved."));
        assert!(text.contains("Verification SUCCEEDED"));
    }

    #[test]
    fn tagged_batch_preserves_per_method_attribution_and_contexts() {
        // Two "methods" with different contexts in one batch: the cardinality method
        // classifies `content` as a set (required for BAPA/SMT translation options to
        // line up with a per-method run), the propositional one proves syntactically.
        let mut card_context = ProverContext::default();
        card_context.set_vars.insert("content".into());
        let mut batch = ObligationBatch::new();
        batch.push_method(
            "S",
            "List.add",
            Arc::new(card_context),
            vec![ob(
                &["size = card content", "x ~: content"],
                "size + 1 = card (content Un {x})",
            )],
        );
        batch.push_method(
            "S",
            "List.isEmpty",
            Arc::new(ProverContext::default()),
            vec![ob(&["p"], "p"), ob(&["p"], "q")],
        );
        let dispatcher = Dispatcher::new();
        let report = dispatcher.prove_all(&batch);
        assert_eq!(dispatcher.batches_dispatched(), 1);
        assert_eq!(report.per_obligation.len(), 3);
        let tags: Vec<(&str, usize)> = report
            .per_obligation
            .iter()
            .map(|t| (t.tag.method.as_str(), t.tag.index))
            .collect();
        assert_eq!(
            tags,
            vec![("List.add", 0), ("List.isEmpty", 0), ("List.isEmpty", 1)]
        );
        assert!(report.per_obligation[0].report.succeeded());
        assert!(report.per_obligation[1].report.succeeded());
        assert!(!report.per_obligation[2].report.succeeded());
        let aggregate = report.aggregate();
        assert_eq!(aggregate.total_sequents, 3);
        assert_eq!(aggregate.proved_sequents, 2);
        assert_eq!(aggregate.unproved.len(), 1);
    }

    #[test]
    fn cache_keys_on_the_per_obligation_context() {
        // The same sequent under two contexts that classify its free variables
        // differently must not share a cache entry: the classification steers the
        // SMT/FOL translations, so a cross-context hit could be unsound.
        let o = ob(&["s = t"], "card s = card t");
        let mut set_context = ProverContext::default();
        set_context.set_vars.insert("s".into());
        set_context.set_vars.insert("t".into());
        let mut batch = ObligationBatch::new();
        batch.push_method("", "a", Arc::new(set_context), vec![o.clone()]);
        batch.push_method("", "b", Arc::new(ProverContext::default()), vec![o]);
        // Pinned config: under `Dispatcher::new()` the JAHOB_* env overrides apply, and
        // with threads > 1 two workers can race the same cold key (both miss), making
        // the exact hit/miss counts below indeterminate.
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        dispatcher.prove_all(&batch);
        let stats = dispatcher.cache().stats();
        assert_eq!(
            (stats.hits, stats.misses),
            (0, 2),
            "distinct contexts must produce distinct cache keys"
        );
        // The same context twice, on the other hand, hits.
        let o = ob(&["s = t"], "card s = card t");
        let mut batch = ObligationBatch::new();
        batch.push_method("", "a", Arc::new(ProverContext::default()), vec![o.clone()]);
        batch.push_method("", "b", Arc::new(ProverContext::default()), vec![o]);
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let report = dispatcher.prove_all(&batch);
        assert_eq!(report.aggregate().cache_hits, 1);
    }

    #[test]
    fn router_miss_falls_back_to_the_global_cascade() {
        // Pure arithmetic scores both MONA and BAPA hopeless (no membership atoms, no
        // set algebra), so the router demotes them to the fallback tail. With SMT and
        // FOL crashing, BAPA is the only prover left that decides this sequent (pure
        // Presburger), and it still proves it from the tail. A router that *dropped*
        // hopeless provers instead of demoting them would report it unproved.
        let faulty = |route| {
            let spec = FaultSpec::parse("smt:panic@1;fol:panic@1").expect("valid spec");
            let config = DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .route(route)
                .faults(spec)
                .build();
            let o = ob(&["0 <= x"], "0 <= x + 1");
            Dispatcher::with_config(config).prove_one(&o, &ProverContext::default())
        };
        let report = faulty(true);
        assert!(
            report.succeeded(),
            "fallback cascade must still run on a router miss: {report:?}"
        );
        assert_eq!(report.per_prover[&ProverId::Bapa].proved, 1);
        // And the routed run proves exactly what the unrouted one does.
        assert_eq!(report.proved_sequents, faulty(false).proved_sequents);
    }

    #[test]
    fn routing_reorders_but_never_changes_verdicts() {
        let obs = vec![
            ob(&["p"], "p"),
            ob(&["x = y + 1", "0 <= y"], "1 <= x"),
            ob(
                &[
                    "size = card content",
                    "x ~: content",
                    "content1 = content Un {x}",
                ],
                "size + 1 = card content1",
            ),
            ob(&["p"], "q"),
        ];
        let context = ProverContext::default();
        let mut routed_config = DispatcherConfig::builder().cache(CacheMode::Off).build();
        routed_config.route = true;
        let mut unrouted_config = routed_config.clone();
        unrouted_config.route = false;
        let routed = Dispatcher::with_config(routed_config).prove_obligations(&obs, &context);
        let unrouted = Dispatcher::with_config(unrouted_config).prove_obligations(&obs, &context);
        assert_eq!(routed.proved_sequents, unrouted.proved_sequents);
        assert_eq!(routed.unproved, unrouted.unproved);
        // Routing spares MONA the cardinality sequent it cannot decide: fewer MONA
        // attempts than the fixed global order pays.
        let mona_attempts = |r: &VerificationReport| {
            r.per_prover
                .get(&ProverId::Mona)
                .map(|s| s.attempted)
                .unwrap_or(0)
        };
        assert!(
            mona_attempts(&routed) < mona_attempts(&unrouted),
            "routed: {routed:?}\nunrouted: {unrouted:?}"
        );
    }

    #[test]
    fn jahob_threads_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(parse_count_knob("JAHOB_THREADS", "4"), Ok(4));
        assert_eq!(parse_count_knob("JAHOB_THREADS", " 3 "), Ok(3));
        assert_eq!(parse_count_knob("JAHOB_THREADS", "0"), Ok(1), "clamped");
        let warning = parse_count_knob("JAHOB_THREADS", "many").unwrap_err();
        assert!(warning.contains("JAHOB_THREADS"), "{warning}");
        assert!(warning.contains("\"many\""), "{warning}");
        assert!(warning.starts_with("warning:"), "{warning}");
        let warning = parse_count_knob("JAHOB_THREADS", "-2").unwrap_err();
        assert!(warning.contains("JAHOB_THREADS"), "{warning}");
        assert!(warning.contains("\"-2\""), "{warning}");
    }

    #[test]
    fn jahob_cache_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(parse_switch_knob("JAHOB_CACHE", "on"), Ok(true));
        assert_eq!(parse_switch_knob("JAHOB_CACHE", "NO"), Ok(false));
        let warning = parse_switch_knob("JAHOB_CACHE", "ture").unwrap_err();
        assert!(warning.contains("JAHOB_CACHE"), "{warning}");
        assert!(warning.contains("\"ture\""), "{warning}");
        assert!(warning.starts_with("warning:"), "{warning}");
    }

    #[test]
    fn jahob_route_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(parse_switch_knob("JAHOB_ROUTE", "0"), Ok(false));
        let warning = parse_switch_knob("JAHOB_ROUTE", "enabled").unwrap_err();
        assert!(warning.contains("JAHOB_ROUTE"), "{warning}");
        assert!(warning.contains("\"enabled\""), "{warning}");
    }

    #[test]
    fn jahob_budgets_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(parse_switch_knob("JAHOB_BUDGETS", "off"), Ok(false));
        assert_eq!(parse_switch_knob("JAHOB_BUDGETS", "1"), Ok(true));
        let warning = parse_switch_knob("JAHOB_BUDGETS", "fast").unwrap_err();
        assert!(warning.contains("JAHOB_BUDGETS"), "{warning}");
        assert!(warning.contains("\"fast\""), "{warning}");
    }

    #[test]
    fn budgets_are_part_of_the_cache_fingerprint() {
        // Budgets change attempt counts and attribution, and a cap could cost a proof
        // whose search outgrows it; cached outcomes replay all of that — so a
        // budgets-on entry must not answer a budgets-off lookup.
        let on = DispatcherConfig::builder().build();
        let off = DispatcherConfig::builder().budgets(false).build();
        assert!(on.budgets && !off.budgets);
        assert_ne!(on.fingerprint(), off.fingerprint());
        assert!(
            on.fingerprint().contains("budgets=true"),
            "{}",
            on.fingerprint()
        );
    }

    /// An unprovable sequent whose object-quantified membership structure blows
    /// MONA's small fuel (and FOL's quantified iteration fuel) while still completing
    /// unbudgeted.
    fn fuel_hungry_unprovable() -> ProofObligation {
        ob(
            &[
                "ALL x. x : a --> x : b",
                "ALL x. x : b --> x : c",
                "ALL x. x : c --> x : d",
                "ALL x. x : d --> x : e",
                "ALL x. x : e --> x : f",
            ],
            "ALL x. x : a --> x : g",
        )
    }

    /// A valid sequent only MONA can prove: the existential over the set `s` is
    /// native monadic second-order logic but approximated away by the FOL/SMT
    /// translations. Its automaton exceeds MONA's small fuel and fits the large one.
    fn set_quantified_provable() -> ProofObligation {
        ob(
            &[
                "ALL x. x : a --> x : b | x : c",
                "ALL x. x : b --> x : d",
                "ALL x. x : c --> x : d",
                "ALL x. x : d --> x : e",
                "ALL x. x : e --> x : f",
            ],
            "EX s. ALL x. (x : a --> x : s) & (x : s --> x : f)",
        )
    }

    #[test]
    fn fuel_budgets_abort_hopeless_attempts_without_changing_the_verdict() {
        let o = fuel_hungry_unprovable();
        let context = ProverContext::default();
        let on = Dispatcher::with_config(DispatcherConfig::builder().cache(CacheMode::Off).build())
            .prove_one(&o, &context);
        let off = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .budgets(false)
                .build(),
        )
        .prove_one(&o, &context);
        assert!(!on.succeeded() && !off.succeeded(), "verdicts must agree");
        assert!(on.budget_aborts() > 0, "the budgets must engage: {on:?}");
        assert_eq!(off.budget_aborts(), 0, "budgets off never aborts");
        // The budgeted run pays strictly less prover time on the aborted attempts
        // only when they abort early; what it must never do is attempt fewer
        // *distinct* provers than the unbudgeted run.
        assert_eq!(on.per_prover.len(), off.per_prover.len());
    }

    #[test]
    fn set_quantified_sequents_give_mona_its_large_cap() {
        let o = set_quantified_provable();
        let features = SequentFeatures::of(&o.sequent);
        assert_eq!(features.set_binders, 1, "{features:?}");
        assert_eq!(fuel_for(&features).mona_work, 2_000_000);
        let context = ProverContext::default();
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let report = dispatcher.prove_one(&o, &context);
        assert!(
            report.succeeded(),
            "MONA must prove the sequent within its fuel: {report:?}"
        );
        let mona = report.per_prover[&ProverId::Mona];
        assert_eq!((mona.proved, mona.budget_aborts), (1, 0), "{report:?}");
        // One budgeted phase and no attempt without fuel: no prover runs twice.
        assert!(
            report.per_prover.values().all(|s| s.attempted == 1),
            "{report:?}"
        );
        // The cached outcome credits MONA again and replays the abort counts.
        let replay = dispatcher.prove_one(&o, &context);
        assert_eq!(replay.cache_hits, 1, "{replay:?}");
        assert_eq!(replay.budget_aborts(), report.budget_aborts());
        assert_eq!(replay.per_prover[&ProverId::Mona].proved, 1);
    }

    #[test]
    fn out_of_fuel_lines_render_alike_uncached_and_from_the_cache() {
        let o = fuel_hungry_unprovable();
        let context = ProverContext::default();
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let uncached = dispatcher.prove_one(&o, &context);
        assert_eq!(uncached.cache_misses, 1);
        assert_eq!(
            uncached.unproved,
            vec![format!("{} [out of fuel: mona, fol]", o.sequent.describe())]
        );
        let replay = dispatcher.prove_one(&o, &context);
        assert_eq!(replay.cache_hits, 1, "{replay:?}");
        assert_eq!(replay.unproved, uncached.unproved);
        // Without fuel nothing runs out of it, and the line is the bare description.
        let unbudgeted =
            Dispatcher::with_config(DispatcherConfig::builder().budgets(false).build())
                .prove_one(&o, &context);
        assert_eq!(unbudgeted.unproved, vec![o.sequent.describe()]);
    }

    #[test]
    fn budgets_off_restores_the_pre_cost_model_dispatcher_exactly() {
        // With budgets off the plan is the plain cascade: every prover runs once,
        // without fuel, and a sequent none of them proves costs exactly one attempt
        // per prover and no aborts. The interactive prover is attempted only on an
        // obligation its library holds, and the refuter finds no countermodel here:
        // the elements of the sets have a type the sequent leaves open, and the
        // quantifiers range over it.
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .budgets(false)
                .build(),
        );
        let r = dispatcher.prove_one(&fuel_hungry_unprovable(), &ProverContext::default());
        assert!(!r.succeeded());
        assert_eq!(r.budget_aborts(), 0, "{r:?}");
        let attempts: Vec<(ProverId, usize)> = r
            .per_prover
            .iter()
            .map(|(id, s)| (*id, s.attempted))
            .collect();
        let mut once: Vec<(ProverId, usize)> = ProverId::default_order()
            .into_iter()
            .filter(|p| *p != ProverId::Interactive)
            .map(|p| (p, 1))
            .collect();
        once.sort();
        assert_eq!(attempts, once);
    }

    #[test]
    fn persistent_mode_writes_only_the_proof_store() {
        let dir = std::env::temp_dir().join(format!(
            "jahob-provers-persist-{}-store-only",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .build(),
        );
        let o = ob(&["x = y + 1", "0 <= y"], "1 <= x");
        assert!(dispatcher
            .prove_one(&o, &ProverContext::default())
            .succeeded());
        dispatcher.flush_store().expect("flush");
        let files: Vec<String> = std::fs::read_dir(&dir)
            .expect("store dir")
            .map(|e| e.expect("entry").file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(files, vec!["proof-store.jahob".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn inst_hints_discharge_sequents_no_prover_can_instantiate() {
        // The universal relates `card` of arbitrary slices of `content` to `used`:
        // BAPA cannot see through the quantifier, FOL/SMT cannot bridge the `card`
        // arithmetic, and the needed witness `m - excluded` is a compound term the
        // SMT candidate pool never contains. Only the inst hint makes the sequent
        // provable.
        let mut o = ob(
            &["comment ''capBound'' (ALL s. card (content Int s) <= used)"],
            "card (content Int (m - excluded)) <= used + 1",
        );
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let context = ProverContext::default();
        let without = dispatcher.prove_one(&o, &context);
        assert!(!without.succeeded(), "unhinted sequent must be unprovable");
        o.hints = vec![Hint::inst("s", parse_form("m - excluded").expect("parse"))];
        let with = dispatcher.prove_one(&o, &context);
        assert!(
            with.succeeded(),
            "inst hint should ground the universal: {with:?}"
        );
    }

    #[test]
    fn inst_hints_survive_the_full_sequent_retry() {
        // A misselecting label hint narrows the hinted sequent to an assumption that
        // cannot carry the proof, so the hinted cascade fails; the full-sequent retry
        // must keep the instantiation (the witness is information no prover can
        // rediscover), or combining a wrong label with a right witness would lose a
        // proof the witness alone delivers.
        let mut o = ob(
            &[
                "comment ''noise'' (c : d)",
                "comment ''capBound'' (ALL s. card (content Int s) <= used)",
            ],
            "card (content Int (m - excluded)) <= used + 1",
        );
        o.hints = vec![
            Hint::label("noise"),
            Hint::inst("s", parse_form("m - excluded").expect("parse")),
        ];
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let report = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(
            report.succeeded(),
            "the retry must re-apply the inst hint: {report:?}"
        );
    }

    #[test]
    fn joint_witnesses_ground_a_multi_variable_binder() {
        // Both variables of one universal binder get witnesses; only their joint,
        // fully ground instance is provable (partial instances stay quantified and
        // BAPA drops them).
        let mut o = ob(
            &["comment ''cap'' (ALL s t. card (content Int (s Un t)) <= used)"],
            "card (content Int (a Un b)) <= used + 1",
        );
        o.hints = vec![
            Hint::inst("s", parse_form("a").expect("parse")),
            Hint::inst("t", parse_form("b").expect("parse")),
        ];
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let report = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(report.succeeded(), "joint instantiation: {report:?}");
    }

    #[test]
    fn inst_hints_key_the_cache_per_witness() {
        // Two obligations identical up to the witness: the hinted sequent differs, so
        // they must not alias to one cache entry (a hit would replay the wrong
        // verdict). Same obligation + same witness, on the other hand, hits.
        let base = ob(
            &["comment ''capBound'' (ALL s. card (content Int s) <= used)"],
            "card (content Int (m - excluded)) <= used + 1",
        );
        let mut good = base.clone();
        good.hints = vec![Hint::inst("s", parse_form("m - excluded").expect("parse"))];
        let mut bad = base.clone();
        bad.hints = vec![Hint::inst("s", parse_form("excluded").expect("parse"))];
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let context = ProverContext::default();
        assert!(dispatcher.prove_one(&good, &context).succeeded());
        let miss = dispatcher.prove_one(&bad, &context);
        assert_eq!(miss.cache_hits, 0, "different witnesses must not alias");
        assert!(
            !miss.succeeded(),
            "the useless witness leaves the goal unprovable"
        );
        let hit = dispatcher.prove_one(&good, &context);
        assert_eq!(hit.cache_hits, 1, "same witness re-hits its own entry");
        assert!(hit.succeeded());
    }

    #[test]
    fn inst_hints_specialise_injected_lemmas_too() {
        // The lemma is itself universally quantified; `by lemma` injects it and
        // `by inst` specialises the injected assumption in the same hint list.
        let mut o = ob(
            &["comment ''noise'' (c : d)"],
            "card (content Int (m - excluded)) <= used + 1",
        );
        o.hints = vec![
            Hint::lemma("capBound"),
            Hint::inst("s", parse_form("m - excluded").expect("parse")),
        ];
        let mut context = ProverContext::default();
        context.lemmas.register_lemma(
            "capBound",
            parse_form("ALL s. card (content Int s) <= used").expect("parse"),
        );
        let dispatcher = Dispatcher::new();
        let report = dispatcher.prove_one(&o, &context);
        assert!(
            report.succeeded(),
            "inst must apply to lemma-injected assumptions: {report:?}"
        );
        // Without the inst hint the injected lemma alone is not enough.
        o.hints = vec![Hint::lemma("capBound")];
        assert!(!dispatcher.prove_one(&o, &context).succeeded());
    }

    #[test]
    fn the_refuter_reads_the_lemmas_a_hint_injects() {
        // Unrouted, SMT fails the hinted sequent first and BAPA proves it after. The
        // full sequent without the injected lemma has a countermodel; with it, none,
        // so the refuter must not end the cascade before BAPA.
        let mut o = ob(
            &["comment ''noise'' (c : d)"],
            "card (content Int (m - excluded)) <= used + 1",
        );
        o.hints = vec![
            Hint::lemma("capBound"),
            Hint::inst("s", parse_form("m - excluded").expect("parse")),
        ];
        let mut context = ProverContext::default();
        context.lemmas.register_lemma(
            "capBound",
            parse_form("ALL s. card (content Int s) <= used").expect("parse"),
        );
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .route(false)
                .build(),
        );
        let report = dispatcher.prove_one(&o, &context);
        assert!(report.succeeded(), "{report:?}");
        assert_eq!(report.per_prover[&ProverId::Smt].proved, 0, "{report:?}");
    }

    #[test]
    fn lemma_hints_let_the_library_discharge_sequents() {
        // The goal follows syntactically from the lemma, but from nothing in the
        // sequent itself: only the injected lemma assumption can discharge it.
        let mut o = ob(&["comment ''noise'' (c : d)"], "null ~: alloc");
        o.hints = vec![Hint::lemma("nullFresh")];
        let dispatcher = Dispatcher::new();
        let without = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(
            !without.succeeded(),
            "unhinted sequent must not be provable"
        );
        let mut context = ProverContext::default();
        context
            .lemmas
            .register_lemma("nullFresh", parse_form("null ~: alloc").expect("parse"));
        let with = dispatcher.prove_one(&o, &context);
        assert!(
            with.succeeded(),
            "lemma hint should inject the library fact"
        );
        // A plain (unprefixed) hint resolves against the library too.
        o.hints = vec![Hint::label("nullFresh")];
        assert!(dispatcher.prove_one(&o, &context).succeeded());
    }

    #[test]
    fn builder_clamps_counts_and_keeps_explicit_knobs() {
        let config = DispatcherConfig::builder().threads(0).route(false).build();
        assert_eq!(config.threads, 1, "clamped");
        assert!(!config.route);
        assert_eq!(config.cache, CacheMode::Memory, "default mode");
    }

    #[test]
    fn jahob_cache_dir_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(
            parse_dir_knob("JAHOB_CACHE_DIR", " /tmp/store "),
            Ok(PathBuf::from("/tmp/store"))
        );
        let warning = parse_dir_knob("JAHOB_CACHE_DIR", "  ").unwrap_err();
        assert!(warning.contains("JAHOB_CACHE_DIR"), "{warning}");
        assert!(warning.starts_with("warning:"), "{warning}");
    }

    #[test]
    fn cache_mode_displays_its_shape() {
        assert_eq!(CacheMode::Off.to_string(), "off");
        assert_eq!(CacheMode::Memory.to_string(), "memory");
        let persistent = CacheMode::Persistent {
            dir: PathBuf::from("/tmp/s"),
            flush: true,
        };
        assert_eq!(persistent.to_string(), "persistent(/tmp/s)");
        assert_eq!(
            persistent.persistent_dir(),
            Some(std::path::Path::new("/tmp/s"))
        );
        let no_flush = CacheMode::Persistent {
            dir: PathBuf::from("/tmp/s"),
            flush: false,
        };
        assert_eq!(no_flush.to_string(), "persistent(/tmp/s, no flush on drop)");
        assert!(no_flush.is_enabled() && !CacheMode::Off.is_enabled());
    }

    #[test]
    fn persistent_store_warm_starts_a_second_dispatcher() {
        let dir = std::env::temp_dir().join(format!(
            "jahob-provers-persist-{}-warm-start",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let persistent = |flush: bool| {
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush,
                })
                .build()
        };
        let o = ob(&["x = y"], "y = x");
        // First process stand-in: prove, then flush explicitly (flush:false keeps the
        // drop silent so the test controls exactly when the store is written).
        let cold = Dispatcher::with_config(persistent(false));
        let first = cold.prove_one(&o, &ProverContext::default());
        assert!(first.succeeded());
        assert_eq!(first.cache_disk_hits, 0, "cold run proves, not replays");
        let written = cold.flush_store().expect("flush");
        assert!(written >= 1, "the verdict must reach the store");
        // Second process stand-in: a fresh dispatcher warm-loads the verdict.
        let warm = Dispatcher::with_config(persistent(false));
        let replay = warm.prove_one(&o, &ProverContext::default());
        assert!(replay.succeeded());
        assert_eq!(replay.cache_hits, 1, "must be answered from the cache");
        assert_eq!(
            replay.cache_disk_hits, 1,
            "and attributed to the disk store"
        );
        assert_eq!(warm.cache().stats().disk_hits, 1);
        // A non-persistent dispatcher flushes nothing and reports so.
        let memory = Dispatcher::with_config(DispatcherConfig::builder().build());
        assert_eq!(memory.flush_store().expect("no-op flush"), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn dropping_the_last_persistent_dispatcher_flushes_the_store() {
        let dir = std::env::temp_dir().join(format!(
            "jahob-provers-persist-{}-drop-flush",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let o = ob(&["x = y"], "y = x");
        {
            let dispatcher = Dispatcher::with_config(
                DispatcherConfig::builder()
                    .cache(CacheMode::Persistent {
                        dir: dir.clone(),
                        flush: true,
                    })
                    .build(),
            );
            // A clone shares the cache; dropping it must NOT flush yet.
            let clone = dispatcher.clone();
            assert!(clone.prove_one(&o, &ProverContext::default()).succeeded());
            drop(clone);
            assert!(
                !store_path(&dir).exists(),
                "a surviving sharer must keep the store unwritten"
            );
        }
        assert!(
            store_path(&dir).exists(),
            "dropping the last sharer must write the store"
        );
        let warm = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .build(),
        );
        let replay = warm.prove_one(&o, &ProverContext::default());
        assert_eq!(
            replay.cache_disk_hits, 1,
            "the drop-flushed verdict replays"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn clones_dropped_together_still_flush_the_store() {
        // Eight clones of one flushing persistent dispatcher are released by a barrier
        // and dropped on eight threads at once: whichever drop is last must write the
        // store, in every round.
        let o = ob(&["x = y"], "y = x");
        let persistent = |dir: &std::path::Path, flush: bool| {
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.to_path_buf(),
                    flush,
                })
                .build()
        };
        for round in 0..50 {
            let dir = std::env::temp_dir().join(format!(
                "jahob-provers-persist-{}-clone-drops-{round}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let dispatcher = Dispatcher::with_config(persistent(&dir, true));
            assert!(dispatcher
                .prove_one(&o, &ProverContext::default())
                .succeeded());
            let clones: Vec<Dispatcher> = (0..8).map(|_| dispatcher.clone()).collect();
            drop(dispatcher);
            let barrier = std::sync::Barrier::new(clones.len());
            std::thread::scope(|scope| {
                for clone in clones {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        barrier.wait();
                        drop(clone);
                    });
                }
            });
            assert!(
                store_path(&dir).exists(),
                "round {round}: the last drop must write the store"
            );
            let warm = Dispatcher::with_config(persistent(&dir, false));
            let replay = warm.prove_one(&o, &ProverContext::default());
            assert_eq!(replay.cache_disk_hits, 1, "round {round}: {replay:?}");
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn jahob_deadline_ms_invalid_value_warns_and_keeps_the_default() {
        assert_eq!(parse_millis_knob("JAHOB_DEADLINE_MS", "250"), Ok(250));
        assert_eq!(parse_millis_knob("JAHOB_DEADLINE_MS", "0"), Ok(0));
        let warning = parse_millis_knob("JAHOB_DEADLINE_MS", "fast").unwrap_err();
        assert!(warning.contains("JAHOB_DEADLINE_MS"), "{warning}");
        assert!(warning.contains("\"fast\""), "{warning}");
        assert!(warning.starts_with("warning:"), "{warning}");
    }

    #[test]
    fn jahob_faults_invalid_value_warns_and_keeps_the_default() {
        let spec = parse_faults_knob("JAHOB_FAULTS", "smt:panic@3;store:io@2").expect("valid spec");
        assert_eq!(spec.to_string(), "smt:panic@3;store:io@2");
        let warning = parse_faults_knob("JAHOB_FAULTS", "smt:reboot").unwrap_err();
        assert!(warning.contains("JAHOB_FAULTS"), "{warning}");
        assert!(warning.contains("\"smt:reboot\""), "{warning}");
        assert!(warning.starts_with("warning:"), "{warning}");
    }

    #[test]
    fn deadline_is_part_of_the_cache_fingerprint_only_when_set() {
        // Deadline stops perturb attempt counts and verdict attribution, so deadline
        // runs must not share cache entries with unconstrained runs — but the common
        // no-deadline case must keep the exact pre-deadline fingerprint so existing
        // proof stores stay warm.
        let plain = DispatcherConfig::builder().build();
        let bounded = DispatcherConfig::builder().deadline_ms(250).build();
        assert!(
            !plain.fingerprint().contains("deadline"),
            "{}",
            plain.fingerprint()
        );
        assert!(
            bounded.fingerprint().contains("|deadline=250"),
            "{}",
            bounded.fingerprint()
        );
        assert_ne!(plain.fingerprint(), bounded.fingerprint());
    }

    #[test]
    fn injected_prover_panics_are_contained_and_attributed() {
        // Crash every prover on every attempt: the cascade must walk its whole
        // order, contain each panic, and degrade to an attributed Unproved — the
        // process-survival half of the tentpole in miniature.
        let spec = FaultSpec::parse(
            "syntactic:panic@1;smt:panic@1;mona:panic@1;bapa:panic@1;fol:panic@1;\
             interactive:panic@1",
        )
        .expect("valid spec");
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .faults(spec)
                .build(),
        );
        let o = ob(&["x = y"], "y = x");
        // The interactive prover is attempted only on an obligation its library holds.
        let mut context = ProverContext::default();
        context.lemmas.register(LemmaLibrary::key_of(&o));
        let report = dispatcher.prove_one(&o, &context);
        assert!(!report.succeeded(), "every prover crashed");
        assert_eq!(report.crashes(), ProverId::default_order().len());
        assert_eq!(report.proved_sequents, 0);
        assert!(
            report.unproved[0].contains("[contained: 6 crashed, 0 deadline-stopped]"),
            "{:?}",
            report.unproved
        );
        let rendered = report.render("t");
        assert!(
            rendered.contains("Fault containment: 6 prover crashes contained"),
            "{rendered}"
        );
    }

    #[test]
    fn faults_against_losing_provers_leave_verdicts_unchanged() {
        // Crashing a prover that would not have won must not change the verdict:
        // the syntactic prover still proves the sequent after SMT's crash is
        // contained... but SMT comes later in the default order, so crash the
        // syntactic prover itself and let SMT pick the sequent up.
        let spec = FaultSpec::parse("syntactic:panic@1").expect("valid spec");
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .faults(spec)
                .build(),
        );
        let o = ob(&["x = y + 1", "0 <= y"], "1 <= x");
        let report = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(report.succeeded(), "{report:?}");
        assert_eq!(report.crashes(), 1);
        assert!(
            !report.render("t").contains("unproved"),
            "the verdict must not change"
        );
    }

    #[test]
    fn contained_cascades_are_never_cached() {
        // A fault-perturbed outcome must not be frozen into the cache: the second
        // prove_one must be a fresh miss, not a replay of the crashed run.
        let spec = FaultSpec::parse("interactive:panic@1").expect("valid spec");
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().faults(spec).build());
        let o = ob(&["p"], "q");
        // Registered, so the interactive prover is attempted (and crashes) and the
        // refuter leaves the obligation alone.
        let mut context = ProverContext::default();
        context.lemmas.register(LemmaLibrary::key_of(&o));
        let first = dispatcher.prove_one(&o, &context);
        assert!(!first.succeeded() && first.crashes() > 0, "{first:?}");
        assert_eq!(first.cache_misses, 1);
        let second = dispatcher.prove_one(&o, &context);
        assert_eq!(second.cache_hits, 0, "contained cascade must not be cached");
        assert_eq!(second.cache_misses, 1);
    }

    #[test]
    fn zero_deadline_stops_fuel_hooked_provers_but_not_cheap_ones() {
        // deadline_ms = 0 is the degenerate always-expired deadline: every
        // cooperative check fires immediately, so MONA/SMT/FOL attempts become
        // deadline stops — while the syntactic prover (no long loops, exempt)
        // still proves its sequents, keeping trivial verification alive.
        let config = || {
            DispatcherConfig::builder()
                .cache(CacheMode::Off)
                .deadline_ms(0)
                .build()
        };
        let dispatcher = Dispatcher::with_config(config());
        let context = ProverContext::default();
        let trivial = dispatcher.prove_one(&ob(&["x = y"], "y = x"), &context);
        assert!(trivial.succeeded(), "syntactic proofs are deadline-exempt");
        let hard = dispatcher.prove_one(&fuel_hungry_unprovable(), &context);
        assert!(!hard.succeeded());
        assert!(
            hard.deadline_aborts() > 0,
            "the fuel-hooked provers must stop at the deadline: {hard:?}"
        );
        assert!(
            hard.unproved[0].contains("deadline-stopped]"),
            "{:?}",
            hard.unproved
        );
    }

    #[test]
    fn transient_store_faults_are_retried_and_counted() {
        let dir =
            std::env::temp_dir().join(format!("jahob-provers-faults-{}-retry", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Every third store I/O operation fails. The construction-time warm load is
        // op 1; flush #1 is then (read 2, write 3) — the write fails and the bounded
        // retry re-runs the idempotent merge-write (ops 4, 5) to completion; flush
        // #2 opens with a failing read (op 6) and is rescued the same way (7, 8).
        let spec = FaultSpec::parse("store:io@3").expect("valid spec");
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .faults(spec)
                .build(),
        );
        let o = ob(&["x = y"], "y = x");
        assert!(dispatcher
            .prove_one(&o, &ProverContext::default())
            .succeeded());
        assert!(
            dispatcher
                .flush_store()
                .expect("first flush survives the fault")
                >= 1
        );
        assert_eq!(dispatcher.store_retries(), 1, "one rescue retry");
        assert!(
            dispatcher
                .flush_store()
                .expect("second flush survives the fault")
                >= 1
        );
        assert_eq!(dispatcher.store_retries(), 2, "one more rescue retry");
        let warm = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: false,
                })
                .build(),
        );
        let replay = warm.prove_one(&o, &ProverContext::default());
        assert_eq!(replay.cache_disk_hits, 1, "the retried flush reached disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failed_drop_flush_warns_once_per_file_and_never_panics() {
        let dir = std::env::temp_dir().join(format!(
            "jahob-provers-faults-{}-drop-warn",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        // Every store I/O operation fails, so all three retry attempts of the
        // store merge-write fail.
        let spec = FaultSpec::parse("store:io@1").expect("valid spec");
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: true,
                })
                .faults(spec)
                .build(),
        );
        assert!(dispatcher
            .prove_one(&ob(&["x = y"], "y = x"), &ProverContext::default())
            .succeeded());
        let store = dispatcher.store.as_ref().expect("a persistent store");
        let warning = store.drop_flush_warning().expect("one warning");
        assert!(
            warning.starts_with("warning: failed to flush proof store"),
            "{warning}"
        );
        assert!(
            warning.contains(&store_path(&dir).display().to_string()),
            "the warning must name the path: {warning}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unwritable_cache_dir_degrades_to_memory_mode() {
        // A store dir nested under a regular file can never be created, for root
        // and non-root alike (read-only permission bits are ignored under root, so
        // this is the portable way to make `create_dir_all` fail).
        let blocker = std::env::temp_dir().join(format!(
            "jahob-provers-faults-{}-blocker",
            std::process::id()
        ));
        std::fs::write(&blocker, b"not a directory").expect("create blocker file");
        let dir = blocker.join("store");
        let dispatcher = Dispatcher::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: true,
                })
                .build(),
        );
        assert_eq!(
            dispatcher.config.cache,
            CacheMode::Memory,
            "unusable persistent dir must degrade to the in-memory cache"
        );
        let o = ob(&["x = y"], "y = x");
        let report = dispatcher.prove_one(&o, &ProverContext::default());
        assert!(report.succeeded());
        assert_eq!(dispatcher.flush_store().expect("no-op flush"), 0);
        drop(dispatcher); // must not warn or panic: there is no store handle
        let _ = std::fs::remove_file(&blocker);
    }

    #[test]
    fn fol_attempts_stop_only_on_fuel_or_the_configured_deadline() {
        let defaults = jahob_folp::ResolutionLimits::default();
        let plain = fuel_for(&SequentFeatures::default());
        let quantified = fuel_for(&SequentFeatures {
            quantifiers: 1,
            ..SequentFeatures::default()
        });
        let deadline = Instant::now() + Duration::from_millis(5);
        for (fuel, iterations) in [(None, 300), (Some(&plain), 60), (Some(&quantified), 120)] {
            for deadline in [None, Some(deadline)] {
                let limits = fol_options(&ProverContext::default(), fuel, deadline).limits;
                assert_eq!(limits.max_millis, 0, "no wall-clock net of FOL's own");
                assert_eq!(limits.deadline, deadline, "the configured deadline only");
                assert_eq!(limits.max_iterations, iterations);
                assert_eq!(
                    (
                        limits.max_clauses,
                        limits.max_clause_size,
                        limits.max_literals
                    ),
                    (
                        defaults.max_clauses,
                        defaults.max_clause_size,
                        defaults.max_literals
                    ),
                    "the clause caps bound an attempt without fuel"
                );
            }
        }
    }
}
