//! Differential test for the dispatcher's scaling mechanisms.
//!
//! The shared-queue parallel dispatch, the canonical-form result cache, per-sequent
//! prover routing and the program-wide obligation batching are pure optimisations:
//! they must not change *what* gets proved, only how fast. Fuel budgets are not one
//! by construction — a cap is part of what an attempt means, so an attempt that runs
//! out of fuel has failed — and this harness pins that the caps fit every proof of
//! the suite, so budgets change no suite verdict either. It runs the full §7
//! example suite under every combination of
//! `{threads = 1, 2, 4, 8} x {cache on, off} x {route on, off} x {budgets on, off}`
//! and asserts that every configuration proves the identical set of sequents per
//! method, and reports the `unproved` descriptions in the identical, deterministic
//! order — and that the batched whole-program dispatch (`verify_program`: one tagged
//! `prove_all` per program) is indistinguishable from the per-method seed path (one
//! `prove_all` per method) across the whole matrix — and that repeated passes on one
//! dispatcher attempt every obligation identically. Any future scaling change that
//! breaks one of these properties fails here.

use jahob_repro::frontend::program_tasks;
use jahob_repro::jahob::{self, suite, VerifyOptions};
use jahob_repro::provers::{Dispatcher, LemmaLibrary, VerificationReport};
use std::collections::BTreeMap;

/// The observable verdict of one method: counts plus the unproved descriptions in
/// report order (NOT sorted — the dispatcher merges per-obligation results by
/// obligation index, so the order itself must be deterministic).
#[derive(Debug, Clone, PartialEq, Eq)]
struct MethodVerdict {
    method: String,
    proved: usize,
    total: usize,
    unproved: Vec<String>,
}

fn options(threads: usize, cache: bool) -> VerifyOptions {
    VerifyOptions {
        dispatcher: jahob::DispatcherConfig::builder()
            .threads(threads)
            .cache(if cache {
                jahob::CacheMode::Memory
            } else {
                jahob::CacheMode::Off
            })
            .build(),
        ..VerifyOptions::default()
    }
}

fn options_routed(threads: usize, cache: bool, route: bool) -> VerifyOptions {
    let mut opts = options(threads, cache);
    opts.dispatcher.route = route;
    opts
}

fn options_budgeted(threads: usize, cache: bool, route: bool, budgets: bool) -> VerifyOptions {
    let mut opts = options_routed(threads, cache, route);
    opts.dispatcher.budgets = budgets;
    opts
}

fn verdict_of(structure: &str, result: &jahob::MethodResult) -> MethodVerdict {
    MethodVerdict {
        method: format!("{}::{}", structure, result.method),
        proved: result.report.proved_sequents,
        total: result.report.total_sequents,
        unproved: result.report.unproved.clone(),
    }
}

/// Runs the whole suite through the batched path (`verify_program` assembles one
/// tagged batch per program and proves it with a single `prove_all` call) and collects
/// one verdict per method, in suite order.
fn run_full_suite(options: &VerifyOptions) -> Vec<MethodVerdict> {
    let mut verdicts = Vec::new();
    for entry in suite::full_suite() {
        for result in jahob::verify_program(&entry.program, options) {
            verdicts.push(verdict_of(entry.name, &result));
        }
    }
    verdicts
}

/// Runs the whole suite through the per-method seed path: one dispatcher (and cache)
/// per program, one `prove_all` call per method — what `verify_program` did before
/// program-wide batching.
fn run_full_suite_per_method(options: &VerifyOptions) -> Vec<MethodVerdict> {
    let mut verdicts = Vec::new();
    for entry in suite::full_suite() {
        let dispatcher = Dispatcher::with_config(options.dispatcher.clone());
        for task in program_tasks(&entry.program) {
            let result = jahob::verify_task_with(&dispatcher, &task, &options.lemmas);
            verdicts.push(verdict_of(entry.name, &result));
        }
    }
    verdicts
}

#[test]
fn all_thread_and_cache_configurations_prove_the_same_sequents() {
    let baseline = run_full_suite(&options(1, false));
    assert!(
        baseline.iter().map(|v| v.total).sum::<usize>() > 0,
        "suite produced no obligations"
    );
    for threads in [1usize, 2, 4, 8] {
        for cache in [false, true] {
            if threads == 1 && !cache {
                continue;
            }
            let run = run_full_suite(&options(threads, cache));
            assert_eq!(
                baseline, run,
                "threads={threads} cache={cache} diverged from the sequential uncached baseline"
            );
        }
    }
}

#[test]
fn batched_program_dispatch_matches_the_per_method_path_across_the_matrix() {
    // The tentpole invariant of program-wide batching: feeding every method's
    // obligations through ONE tagged `prove_all` call must produce, for every thread
    // count and cache setting, the identical per-method verdicts — including the
    // `unproved` ordering — as one `prove_all` call per method.
    for threads in [1usize, 2, 4, 8] {
        for cache in [false, true] {
            let opts = options(threads, cache);
            let batched = run_full_suite(&opts);
            let per_method = run_full_suite_per_method(&opts);
            assert_eq!(
                batched, per_method,
                "threads={threads} cache={cache}: batched dispatch diverged from the per-method path"
            );
        }
    }
}

#[test]
fn batched_and_per_method_reports_agree_exactly_when_single_threaded() {
    // Single-threaded, the batched path processes obligations in the same order as the
    // per-method path, so the full report — per-prover proved/attempted/aborted counts,
    // cache attribution, hit/miss counters, unproved ordering — must
    // agree field for field (everything except measured times, which is why renders
    // are byte-identical up to timings). Under parallelism the hit/miss split can
    // wobble (two workers racing a cold key), so this strict form is pinned for
    // threads=1 only.
    type Strict = Vec<(
        String,
        Vec<(String, usize, usize, usize, usize)>,
        usize,
        usize,
        Vec<String>,
    )>;
    let strict = |verdicts: Vec<jahob::MethodResult>, structure: &str| -> Strict {
        verdicts
            .iter()
            .map(|r| {
                (
                    format!("{}::{}", structure, r.method),
                    r.report
                        .per_prover
                        .iter()
                        .map(|(id, s)| {
                            (
                                id.to_string(),
                                s.proved,
                                s.attempted,
                                s.cache_hits,
                                s.budget_aborts,
                            )
                        })
                        .collect(),
                    r.report.cache_hits,
                    r.report.cache_misses,
                    r.report.unproved.clone(),
                )
            })
            .collect()
    };
    for (budgets, cache) in [(true, false), (true, true), (false, false), (false, true)] {
        let opts = options_budgeted(1, cache, true, budgets);
        let mut batched: Strict = Vec::new();
        let mut per_method: Strict = Vec::new();
        for entry in suite::full_suite() {
            batched.extend(strict(
                jahob::verify_program(&entry.program, &opts),
                entry.name,
            ));
            let dispatcher = Dispatcher::with_config(opts.dispatcher.clone());
            let results: Vec<jahob::MethodResult> = program_tasks(&entry.program)
                .iter()
                .map(|t| jahob::verify_task_with(&dispatcher, t, &opts.lemmas))
                .collect();
            per_method.extend(strict(results, entry.name));
        }
        assert_eq!(
            batched, per_method,
            "budgets={budgets} cache={cache}: single-threaded batched reports diverged from \
             per-method reports"
        );
    }
}

#[test]
fn routing_on_and_off_prove_the_same_sequents_across_the_matrix() {
    // Per-sequent routing is a permutation of the global cascade order (hopeless
    // provers are demoted to a fallback tail, never dropped), so whether a sequent is
    // proved — and therefore the `unproved` list and its deterministic order — must be
    // identical with routing on and off, for every thread count and cache setting.
    // What routing may change is attribution (which prover is credited) and the
    // attempt counts; those are deliberately not compared here.
    for threads in [1usize, 2, 4, 8] {
        for cache in [false, true] {
            let routed = run_full_suite(&options_routed(threads, cache, true));
            let unrouted = run_full_suite(&options_routed(threads, cache, false));
            assert_eq!(
                routed, unrouted,
                "threads={threads} cache={cache}: routing changed the proved sequent set"
            );
        }
    }
}

#[test]
fn fuel_budgets_change_nothing_but_time() {
    // A fuel cap is part of what an attempt means, so budgets could lose a proof
    // whose search needs more than its cap. This pins that the caps fit every proof
    // of the suite: whatever the thread count, cache setting or routing mode, budgets
    // on and off must prove the identical sequent set (same `unproved` lists in the
    // same order) AND credit the identical prover for every proof — the cascade
    // order does not depend on the budgets, and completed budgeted attempts reach
    // the same verdicts as unbudgeted ones. Attempt counts and times are
    // deliberately not compared (aborting hopeless attempts early is the point).
    let attribution = |options: &VerifyOptions| -> Vec<(String, Vec<(String, usize)>)> {
        let mut per_method = Vec::new();
        for entry in suite::full_suite() {
            for result in jahob::verify_program(&entry.program, options) {
                per_method.push((
                    format!("{}::{}", entry.name, result.method),
                    result
                        .report
                        .per_prover
                        .iter()
                        .filter(|(_, s)| s.proved > 0)
                        .map(|(id, s)| (id.to_string(), s.proved))
                        .collect(),
                ));
            }
        }
        per_method
    };
    for threads in [1usize, 4] {
        for cache in [false, true] {
            for route in [false, true] {
                let on = options_budgeted(threads, cache, route, true);
                let off = options_budgeted(threads, cache, route, false);
                assert_eq!(
                    run_full_suite(&on),
                    run_full_suite(&off),
                    "threads={threads} cache={cache} route={route}: budgets changed the proved set"
                );
                assert_eq!(
                    attribution(&on),
                    attribution(&off),
                    "threads={threads} cache={cache} route={route}: budgets changed prover attribution"
                );
            }
        }
    }
}

/// One pass's attempt accounting per structure: per-prover `(attempted, proved,
/// budget_aborts)`, summed over the structure's methods.
type PassAccounting = Vec<(String, BTreeMap<String, (usize, usize, usize)>)>;

fn structure_accounting<'r>(
    name: &str,
    reports: impl Iterator<Item = &'r VerificationReport>,
) -> (String, BTreeMap<String, (usize, usize, usize)>) {
    let mut per_prover: BTreeMap<String, (usize, usize, usize)> = BTreeMap::new();
    for report in reports {
        for (id, s) in &report.per_prover {
            let cell = per_prover.entry(id.to_string()).or_default();
            cell.0 += s.attempted;
            cell.1 += s.proved;
            cell.2 += s.budget_aborts;
        }
    }
    (name.to_string(), per_prover)
}

#[test]
fn repeated_passes_on_one_dispatcher_are_identical() {
    // Nothing one batch does may change how a later batch is attempted: the routed
    // order is a function of the sequent alone and the fuel is counted in work
    // units, not time. Routing and budgets stay at their defaults (both on); the
    // cache is off, so every pass really runs every attempt. Three whole-suite
    // batches, then the 11 programs one batch each, twice, must all account for
    // every structure identically, attempt for attempt and abort for abort.
    let lemmas = LemmaLibrary::new();
    let dispatcher = Dispatcher::with_config(
        jahob::DispatcherConfig::builder()
            .cache(jahob::CacheMode::Off)
            .build(),
    );
    let suite_pass = || -> PassAccounting {
        jahob::run_suite_with(&dispatcher, &lemmas)
            .iter()
            .map(|row| {
                let per_prover = row
                    .per_prover
                    .iter()
                    .map(|(id, s)| (id.to_string(), (s.attempted, s.proved, s.budget_aborts)))
                    .collect();
                (row.name.clone(), per_prover)
            })
            .collect()
    };
    let program_pass = || -> PassAccounting {
        suite::full_suite()
            .iter()
            .map(|entry| {
                let results = jahob::verify_program_with(&dispatcher, &entry.program, &lemmas);
                structure_accounting(entry.name, results.iter().map(|r| &r.report))
            })
            .collect()
    };
    let first = suite_pass();
    assert!(
        first
            .iter()
            .flat_map(|(_, per_prover)| per_prover.values())
            .any(|(_, _, aborts)| *aborts > 0),
        "the fuel budgets must engage on the suite: {first:?}"
    );
    for pass in 2..=3 {
        assert_eq!(
            suite_pass(),
            first,
            "suite pass {pass} diverged from pass 1"
        );
    }
    for pass in 1..=2 {
        assert_eq!(
            program_pass(),
            first,
            "per-program pass {pass} diverged from the suite passes"
        );
    }
    assert_eq!(
        dispatcher.batches_dispatched(),
        3 + 2 * suite::full_suite().len()
    );
}

#[test]
fn parallel_unproved_ordering_is_deterministic_across_repeated_runs() {
    // Thread interleavings differ between runs; the index-ordered merge must hide that.
    let first = run_full_suite(&options(8, false));
    for _ in 0..2 {
        assert_eq!(first, run_full_suite(&options(8, false)));
    }
}

#[test]
fn suite_cache_hit_rate_is_positive() {
    // Class invariants are re-proved per path, so running the Figure 15 suite with a
    // shared cache must answer a measurable share of obligations from the cache.
    let rows = jahob::run_suite(&options(1, true));
    let hits: usize = rows.iter().map(|r| r.cache_hits).sum();
    let misses: usize = rows.iter().map(|r| r.cache_misses).sum();
    assert!(hits > 0, "expected cache hits on the Figure 15 suite");
    assert_eq!(
        hits + misses,
        rows.iter().map(|r| r.total_sequents).sum::<usize>(),
        "every obligation is either a hit or a miss when caching is on"
    );
    // Cached and uncached suite runs prove the same number of sequents per structure.
    let uncached = jahob::run_suite(&options(1, false));
    let proved: Vec<(String, usize, usize)> = rows
        .iter()
        .map(|r| (r.name.clone(), r.proved_sequents, r.total_sequents))
        .collect();
    let proved_uncached: Vec<(String, usize, usize)> = uncached
        .iter()
        .map(|r| (r.name.clone(), r.proved_sequents, r.total_sequents))
        .collect();
    assert_eq!(proved, proved_uncached);
}
