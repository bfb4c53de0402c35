//! # jahob
//!
//! The top-level driver of the Jahob reproduction (*Full Functional Verification of
//! Linked Data Structures*, Zee–Kuncak–Rinard, PLDI 2008): it ties together the frontend
//! (`jahob-frontend`), the verification-condition generator (`jahob-vcgen`) and the
//! integrated reasoning system (`jahob-provers`), and ships the verified data structure
//! suite of §7 ([`suite`]).
//!
//! # Example
//!
//! ```
//! use jahob::{verify_program, VerifyOptions};
//!
//! // Verify the sized list of Figure 6 (the Figure 7 scenario).
//! let program = jahob::suite::sized_list();
//! let results = verify_program(&program, &VerifyOptions::default());
//! let add = results.iter().find(|r| r.method == "List.addNew").expect("addNew verified");
//! assert!(add.report.proved_sequents > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod prelude;
pub mod suite;
pub mod verifier;

use batch::{assemble_program_batch, fold_method_results};
use jahob_frontend::{MethodTask, Program};
use jahob_provers::{Dispatcher, LemmaLibrary, ProverId, VerificationReport};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Duration;

pub use jahob_provers::{
    store_path, BatchEntry, BatchReport, CacheMode, CacheStats, DispatcherConfig,
    DispatcherConfigBuilder, ObligationBatch, ObligationTag, ProverStats, SequentCache,
    TaggedReport, STORE_VERSION,
};
pub use verifier::{ProgramReport, Verifier};

/// Options for a verification run.
#[derive(Debug, Clone, Default)]
pub struct VerifyOptions {
    /// Dispatcher configuration (prover order, threads, caching, routing, fuel).
    pub dispatcher: DispatcherConfig,
    /// Interactively proven lemmas to load (§6.6).
    pub lemmas: LemmaLibrary,
}

/// The verification result of one method.
#[derive(Debug, Clone)]
pub struct MethodResult {
    /// `Class.method`.
    pub method: String,
    /// The per-prover report.
    pub report: VerificationReport,
}

impl MethodResult {
    /// `true` if every sequent of the method was proved.
    pub fn verified(&self) -> bool {
        self.report.succeeded()
    }

    /// Renders the method result in the style of Figure 7.
    pub fn render(&self) -> String {
        self.report.render(&self.method)
    }
}

/// Verifies one method task with an existing dispatcher: a single-method batch through
/// the same assemble → prove → fold pipeline as [`verify_program_with`] — this is the
/// per-method dispatch path the batched differential test compares against. Because
/// cloned dispatchers share their result cache, calling this with the same dispatcher
/// for every method of a program lets obligations proved once (class invariants
/// re-established on every path) be answered from the cache for all later methods.
pub fn verify_task_with(
    dispatcher: &Dispatcher,
    task: &MethodTask,
    lemmas: &LemmaLibrary,
) -> MethodResult {
    let method = task.qualified_name();
    let obligations = task.obligations();
    let plan = (method.clone(), obligations.len());
    let mut batch = ObligationBatch::new();
    batch.push_method(
        "",
        &method,
        Arc::new(task.prover_context(lemmas)),
        obligations,
    );
    let report = dispatcher.prove_all(&batch);
    fold_method_results(&report, "", std::slice::from_ref(&plan))
        .pop()
        .expect("one method in, one result out")
}

/// Verifies every method of a program. One dispatcher — and therefore one result
/// cache — is shared across all methods.
pub fn verify_program(program: &Program, options: &VerifyOptions) -> Vec<MethodResult> {
    verify_program_with(
        &Dispatcher::with_config(options.dispatcher.clone()),
        program,
        &options.lemmas,
    )
}

/// Verifies every method of a program with an existing dispatcher (sharing its cache):
/// assembles **one** program-wide tagged batch, proves it with a single
/// [`Dispatcher::prove_all`] call — so the work-stealing queue sees the whole
/// obligation pool at once — and folds the tagged per-obligation reports back into
/// per-method results.
pub fn verify_program_with(
    dispatcher: &Dispatcher,
    program: &Program,
    lemmas: &LemmaLibrary,
) -> Vec<MethodResult> {
    let (batch, methods) = assemble_program_batch("", program, lemmas);
    let report = dispatcher.prove_all(&batch);
    fold_method_results(&report, "", &methods)
}

/// One row of the Figure 15 table: per-prover sequent counts and times for a whole data
/// structure (all verified methods aggregated).
#[derive(Debug, Clone)]
pub struct SuiteRow {
    /// The data structure name.
    pub name: String,
    /// Aggregated per-prover statistics.
    pub per_prover: BTreeMap<ProverId, ProverStats>,
    /// Total number of sequents.
    pub total_sequents: usize,
    /// Number of proved sequents.
    pub proved_sequents: usize,
    /// Sequents answered from the result cache.
    pub cache_hits: usize,
    /// Of `cache_hits`, sequents answered by entries warm-loaded from the persistent
    /// proof store (0 unless the cache mode is [`CacheMode::Persistent`]).
    pub cache_disk_hits: usize,
    /// Sequents that fell through the cache to the provers (0 when caching is off).
    pub cache_misses: usize,
    /// Total verification time.
    pub total_time: Duration,
}

impl SuiteRow {
    /// Aggregates the per-method reports of one data structure into a row.
    fn from_results(name: &str, results: &[MethodResult]) -> SuiteRow {
        let mut row = SuiteRow {
            name: name.to_string(),
            per_prover: BTreeMap::new(),
            total_sequents: 0,
            proved_sequents: 0,
            cache_hits: 0,
            cache_disk_hits: 0,
            cache_misses: 0,
            total_time: Duration::ZERO,
        };
        for r in results {
            for (id, s) in &r.report.per_prover {
                let e = row.per_prover.entry(*id).or_default();
                e.proved += s.proved;
                e.attempted += s.attempted;
                e.cache_hits += s.cache_hits;
                e.budget_aborts += s.budget_aborts;
                e.crashes += s.crashes;
                e.deadline_aborts += s.deadline_aborts;
                e.time += s.time;
            }
            row.total_sequents += r.report.total_sequents;
            row.proved_sequents += r.report.proved_sequents;
            row.cache_hits += r.report.cache_hits;
            row.cache_disk_hits += r.report.cache_disk_hits;
            row.cache_misses += r.report.cache_misses;
            row.total_time += r.report.total_time;
        }
        row
    }
}

/// Runs the whole suite of §7 and returns one row per data structure (Figure 15).
/// The entire suite is assembled into **one** tagged batch and proved with a single
/// [`Dispatcher::prove_all`] call, so the work-stealing queue balances the full,
/// skewed obligation pool of all structures at once while the tags keep per-structure
/// (and per-method) attribution intact. The shared result cache answers invariant
/// obligations recurring across structures and methods after their first proof.
pub fn run_suite(options: &VerifyOptions) -> Vec<SuiteRow> {
    run_suite_with(
        &Dispatcher::with_config(options.dispatcher.clone()),
        &options.lemmas,
    )
}

/// Runs the whole suite through an existing dispatcher (one batch, one `prove_all`).
pub fn run_suite_with(dispatcher: &Dispatcher, lemmas: &LemmaLibrary) -> Vec<SuiteRow> {
    let entries = suite::full_suite();
    let mut batch = ObligationBatch::new();
    let mut structures: Vec<(&str, Vec<batch::MethodPlan>)> = Vec::new();
    for entry in &entries {
        let (program_batch, methods) = assemble_program_batch(entry.name, &entry.program, lemmas);
        batch.append(program_batch);
        structures.push((entry.name, methods));
    }
    let report = dispatcher.prove_all(&batch);
    structures
        .iter()
        .map(|(name, methods)| {
            let results = fold_method_results(&report, name, methods);
            SuiteRow::from_results(name, &results)
        })
        .collect()
}

/// Total prover attempts aborted on a fuel budget across `rows`, all provers summed —
/// the number behind the Figure 15 footer's "Fuel budgets" line (a healthy budgeted
/// suite run aborts *some* hopeless attempts; zero means the budgets are not
/// engaging).
pub fn suite_budget_aborts(rows: &[SuiteRow]) -> usize {
    rows.iter()
        .flat_map(|r| r.per_prover.values())
        .map(|s| s.budget_aborts)
        .sum()
}

/// Total prover panics contained at the attempt boundary across `rows`, all provers
/// summed — the number behind the Figure 15 footer's "Fault containment" line. Zero
/// on every healthy run; nonzero only when a prover genuinely panicked or
/// `JAHOB_FAULTS` injected one.
pub fn suite_crashes(rows: &[SuiteRow]) -> usize {
    rows.iter()
        .flat_map(|r| r.per_prover.values())
        .map(|s| s.crashes)
        .sum()
}

/// Total prover attempts stopped at the configured wall-clock deadline across
/// `rows` — the other count of the Figure 15 footer's "Fault containment" line. Zero
/// unless `JAHOB_DEADLINE_MS` (or [`jahob_provers::DispatcherConfig::deadline_ms`])
/// is set.
pub fn suite_deadline_aborts(rows: &[SuiteRow]) -> usize {
    rows.iter()
        .flat_map(|r| r.per_prover.values())
        .map(|s| s.deadline_aborts)
        .sum()
}

/// Renders suite rows as a Figure 15-style table. Each prover cell shows
/// `proved/attempted` (with the prover's total time), so the cost of failed cascade
/// attempts — what per-sequent routing and the fuel budgets exist to cut — is
/// visible in the suite table itself. Times are printed in
/// milliseconds: a whole structure verifies in tens of them, so the paper's
/// seconds would round every cell to `0.0s`.
pub fn render_figure15(rows: &[SuiteRow]) -> String {
    let provers = [
        ProverId::Syntactic,
        ProverId::Mona,
        ProverId::Smt,
        ProverId::Fol,
        ProverId::Bapa,
        ProverId::Interactive,
    ];
    let mut out = String::new();
    out.push_str(&format!("{:<24}", "Data Structure"));
    for p in provers {
        out.push_str(&format!("{:>16}", p.display_name()));
    }
    out.push_str(&format!(
        "{:>10}{:>10}{:>12}{:>10}\n",
        "Proved", "Total", "Time", "Hit rate"
    ));
    let subtitle = format!("{:>16}", "(proved/att)").repeat(provers.len());
    out.push_str(&format!("{:<24}{subtitle}\n", ""));
    for row in rows {
        out.push_str(&format!("{:<24}", row.name));
        for p in provers {
            match row.per_prover.get(&p) {
                Some(s) if s.proved > 0 || s.attempted > 0 => {
                    let cell = format!("{}/{} ({:.1}ms)", s.proved, s.attempted, millis(s.time));
                    out.push_str(&format!("{cell:>16}"));
                }
                _ => out.push_str(&format!("{:>16}", "")),
            }
        }
        let lookups = row.cache_hits + row.cache_misses;
        let hit_rate = if lookups > 0 {
            format!("{:.1}%", 100.0 * row.cache_hits as f64 / lookups as f64)
        } else {
            String::new()
        };
        out.push_str(&format!(
            "{:>10}{:>10}{:>10.1}ms{:>10}\n",
            row.proved_sequents,
            row.total_sequents,
            millis(row.total_time),
            hit_rate
        ));
    }
    let hits: usize = rows.iter().map(|r| r.cache_hits).sum();
    let disk_hits: usize = rows.iter().map(|r| r.cache_disk_hits).sum();
    let misses: usize = rows.iter().map(|r| r.cache_misses).sum();
    if hits + misses > 0 {
        let from_disk = if disk_hits > 0 {
            format!(" ({disk_hits} from disk)")
        } else {
            String::new()
        };
        out.push_str(&format!(
            "Result cache: {} hits{}, {} misses ({:.1}% hit rate) across the suite.\n",
            hits,
            from_disk,
            misses,
            100.0 * hits as f64 / (hits + misses) as f64
        ));
    }
    let aborts = suite_budget_aborts(rows);
    if aborts > 0 {
        out.push_str(&format!(
            "Fuel budgets: {aborts} attempts aborted across the suite.\n"
        ));
    }
    let crashes = suite_crashes(rows);
    let deadline_aborts = suite_deadline_aborts(rows);
    if crashes > 0 || deadline_aborts > 0 {
        out.push_str(&format!(
            "Fault containment: {crashes} prover crashes contained, {deadline_aborts} attempts \
             deadline-stopped across the suite.\n"
        ));
    }
    out
}

fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sized_list_add_combines_multiple_provers() {
        // The Figure 7 scenario: verifying List.addNew requires the syntactic prover plus
        // specialised reasoners (cardinality via BAPA, ground reasoning via SMT).
        let program = suite::sized_list();
        let results = verify_program(&program, &VerifyOptions::default());
        let add = results
            .iter()
            .find(|r| r.method == "List.addNew")
            .expect("addNew task exists");
        assert!(add.report.total_sequents >= 5);
        // Several sequents are discharged automatically by different reasoners; the
        // exact proved/total ratio depends on the resource budgets of the provers and is
        // recorded in EXPERIMENTS.md.
        assert!(add.report.proved_sequents >= 2);
        let used: Vec<ProverId> = add
            .report
            .per_prover
            .iter()
            .filter(|(_, s)| s.proved > 0)
            .map(|(id, _)| *id)
            .collect();
        assert!(used.len() >= 2, "expected multiple provers, got {used:?}");
        let text = add.render();
        assert!(text.contains("sequents"));
    }

    #[test]
    fn singly_linked_list_is_mostly_automated() {
        // The paper discharges the residue of hard sequents interactively (§6.6); this
        // reproduction ships no proof scripts, so the assertion is that the integrated
        // reasoner automates the bulk of the obligations. EXPERIMENTS.md records the
        // exact proved/total ratios.
        let program = suite::singly_linked_list();
        let results = verify_program(&program, &VerifyOptions::default());
        let total: usize = results.iter().map(|r| r.report.total_sequents).sum();
        let proved: usize = results.iter().map(|r| r.report.proved_sequents).sum();
        assert!(total >= 4);
        assert!(
            proved * 3 >= total * 2,
            "automation below 2/3: {proved}/{total}\n{}",
            results
                .iter()
                .map(|r| r.render())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn verify_program_dispatches_exactly_one_batch() {
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let program = suite::sized_list();
        let results = verify_program_with(&dispatcher, &program, &LemmaLibrary::new());
        assert_eq!(
            dispatcher.batches_dispatched(),
            1,
            "verify_program must issue exactly one prove_all call per program"
        );
        assert!(results.iter().any(|r| r.method == "List.addNew"));
    }

    #[test]
    fn run_suite_dispatches_exactly_one_batch() {
        let dispatcher = Dispatcher::with_config(DispatcherConfig::builder().build());
        let rows = run_suite_with(&dispatcher, &LemmaLibrary::new());
        assert_eq!(
            dispatcher.batches_dispatched(),
            1,
            "run_suite must issue exactly one prove_all call per suite"
        );
        assert_eq!(rows.len(), suite::full_suite().len());
        // Per-structure cache hit rates appear as a table column when caching is on.
        let table = render_figure15(&rows);
        assert!(table.contains("Hit rate"));
        assert!(table.contains('%'));
    }

    #[test]
    fn figure15_prints_times_in_milliseconds() {
        let smt = ProverStats {
            proved: 3,
            attempted: 4,
            time: Duration::from_micros(12_500),
            ..ProverStats::default()
        };
        let row = SuiteRow {
            name: "Sized List".into(),
            per_prover: BTreeMap::from([(ProverId::Smt, smt)]),
            total_sequents: 5,
            proved_sequents: 5,
            cache_hits: 0,
            cache_disk_hits: 0,
            cache_misses: 0,
            total_time: Duration::from_micros(40_200),
        };
        let table = render_figure15(&[row]);
        let line = table
            .lines()
            .find(|l| l.starts_with("Sized List"))
            .expect("the row is rendered");
        assert!(line.contains("3/4 (12.5ms)"), "{line:?}");
        assert!(
            line.trim_end().ends_with("5         5      40.2ms"),
            "{line:?}"
        );
    }

    #[test]
    fn figure15_table_renders_all_rows() {
        // Use a subset-friendly rendering test on two structures to keep the unit test
        // fast; the full table is produced by the `verify_suite` example.
        let options = VerifyOptions::default();
        let rows: Vec<SuiteRow> = suite::full_suite()
            .iter()
            .take(2)
            .map(|entry| {
                let results = verify_program(&entry.program, &options);
                SuiteRow::from_results(entry.name, &results)
            })
            .collect();
        let table = render_figure15(&rows);
        assert!(table.contains("Association List"));
        assert!(table.contains("Data Structure"));
    }
}
