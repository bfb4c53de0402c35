//! Deterministic fault-injection torture harness (the robustness contract of the
//! fault-isolated dispatcher).
//!
//! Three properties are pinned here, all against the full §7 suite:
//!
//! 1. **Faults off is byte-identical to before**: a dispatcher with the default
//!    (empty) fault spec — and one whose spec can never fire — reproduces the
//!    baseline run field for field, including cache attribution.
//! 2. **Injected prover faults are contained**: panics become attributed crash
//!    counts, delays only cost time, and the process always survives — across
//!    `{threads 1, 4} x {cache off, memory} x {route on, off}`. Crashing a prover
//!    that never wins a sequent changes no verdicts at all.
//! 3. **Injected store faults never corrupt the proof store**: a flush storm under
//!    `io`/`torn` kill points leaves a structurally intact store that a fresh
//!    faultless dispatcher warm-starts from.
//!
//! Fault specs here are set through the typed builder (`DispatcherConfig::faults`),
//! not `JAHOB_FAULTS`, so the tests are hermetic under parallel execution; the env
//! knob goes through the identical `FaultSpec::parse` path (unit-tested in
//! `jahob_provers`).

use jahob_repro::prelude::*;
use jahob_repro::provers::{store_path, STORE_VERSION};
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The verdict view of one suite row: what was proved, out of how many, and which
/// prover each proof is attributed to. Deliberately excludes attempt/cache counts —
/// crashing a losing prover legitimately perturbs those (a cascade containing a
/// crash is never cached), but must never perturb anything in this view.
fn verdicts(rows: &[SuiteRow]) -> Vec<(String, usize, usize, BTreeMap<String, usize>)> {
    rows.iter()
        .map(|r| {
            (
                r.name.clone(),
                r.proved_sequents,
                r.total_sequents,
                r.per_prover
                    .iter()
                    .filter(|(_, s)| s.proved > 0)
                    .map(|(id, s)| (id.display_name().to_string(), s.proved))
                    .collect(),
            )
        })
        .collect()
}

/// The field-for-field view: verdicts plus every per-prover and cache counter the
/// rows carry (times excluded — wall clocks are never reproducible).
fn full_snapshot(rows: &[SuiteRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            let provers: Vec<String> = r
                .per_prover
                .iter()
                .map(|(id, s)| {
                    format!(
                        "{}:{}/{} hits={} abort={} crash={} deadline={}",
                        id.display_name(),
                        s.proved,
                        s.attempted,
                        s.cache_hits,
                        s.budget_aborts,
                        s.crashes,
                        s.deadline_aborts
                    )
                })
                .collect();
            format!(
                "{} {}/{} cache={}+{}disk/{} [{}]",
                r.name,
                r.proved_sequents,
                r.total_sequents,
                r.cache_hits,
                r.cache_disk_hits,
                r.cache_misses,
                provers.join(";")
            )
        })
        .collect()
}

fn config(threads: usize, cache: CacheMode, route: bool, spec: &str) -> DispatcherConfig {
    let mut builder = DispatcherConfig::builder()
        .threads(threads)
        .cache(cache)
        .route(route);
    if !spec.is_empty() {
        builder = builder.faults(spec.parse::<FaultSpec>().expect("valid fault spec"));
    }
    builder.build()
}

fn run(config: DispatcherConfig) -> Vec<SuiteRow> {
    Verifier::with_config(config).verify_suite()
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jahob-faults-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn empty_and_never_firing_fault_specs_reproduce_the_baseline_field_for_field() {
    let baseline = run(config(1, CacheMode::Memory, true, ""));
    assert!(!baseline.is_empty());
    let total: usize = baseline.iter().map(|r| r.total_sequents).sum();
    let proved: usize = baseline.iter().map(|r| r.proved_sequents).sum();
    assert_eq!(proved, total, "suite baseline must be fully proved");
    assert_eq!(suite_crashes(&baseline), 0);
    assert_eq!(suite_deadline_aborts(&baseline), 0);
    // An armed plane whose kill points never trigger must be indistinguishable from
    // the disabled plane — the containment wrapper and the I/O hooks themselves are
    // on every path, so any drift here would mean the plumbing perturbs healthy runs.
    let armed_idle = run(config(
        1,
        CacheMode::Memory,
        true,
        "smt:panic@1000000;mona:panic@1000000;fol:delay=250ms@1000000",
    ));
    assert_eq!(full_snapshot(&armed_idle), full_snapshot(&baseline));
    // A firing *delay* fault costs only wall clock: every counted field survives.
    let delayed = run(config(1, CacheMode::Memory, true, "fol:delay=1ms@10"));
    assert_eq!(full_snapshot(&delayed), full_snapshot(&baseline));
}

#[test]
fn crashing_a_never_winning_prover_changes_no_verdicts() {
    // MONA proves nothing on the §7 suite (every MONA attempt there loses to a
    // later prover), so crashing it on every attempt is the cleanest test that
    // containment keeps the cascade walking: same proofs, same attribution, with
    // the crashes showing up in the new counters instead of as process death.
    // Routing is off and the cache is off so MONA is genuinely attempted.
    let baseline = run(config(1, CacheMode::Off, false, ""));
    let crashed = run(config(1, CacheMode::Off, false, "mona:panic@1"));
    assert_eq!(verdicts(&crashed), verdicts(&baseline));
    let crashes = suite_crashes(&crashed);
    assert!(crashes > 0, "MONA must have been attempted and crashed");
    assert_eq!(suite_crashes(&baseline), 0);
    // The crash footer reaches the rendered Figure 15 table.
    let rendered = render_figure15(&crashed);
    assert!(
        rendered.contains(&format!(
            "Fault containment: {crashes} prover crashes contained"
        )),
        "{rendered}"
    );
    assert!(!render_figure15(&baseline).contains("Fault containment"));
}

#[test]
fn panic_storms_never_kill_the_process_across_the_dispatch_matrix() {
    let baseline = run(config(1, CacheMode::Memory, true, ""));
    let total: usize = baseline.iter().map(|r| r.total_sequents).sum();
    // Every prover that can win crashes on a rotating schedule. Verdicts may
    // legitimately degrade (a crashed attempt is a lost proof opportunity), but the
    // suite must always complete, account for every sequent, and attribute the
    // losses to crash counters.
    let storm = "syntactic:panic@7;smt:panic@5;mona:panic@3;bapa:panic@4;fol:panic@6";
    for threads in [1, 4] {
        for cache in [CacheMode::Off, CacheMode::Memory] {
            for route in [true, false] {
                let rows = run(config(threads, cache.clone(), route, storm));
                let got: usize = rows.iter().map(|r| r.total_sequents).sum();
                assert_eq!(
                    got, total,
                    "threads={threads} cache={cache} route={route}: every sequent accounted for"
                );
                let proved: usize = rows.iter().map(|r| r.proved_sequents).sum();
                assert!(
                    proved <= total,
                    "threads={threads} cache={cache} route={route}"
                );
                assert!(
                    suite_crashes(&rows) > 0,
                    "threads={threads} cache={cache} route={route}: the storm must fire"
                );
                // Rendering a crashed run must work too — it is what the operator
                // sees instead of a dead process.
                let rendered = render_figure15(&rows);
                assert!(rendered.contains("Fault containment:"), "{rendered}");
            }
        }
    }
}

#[test]
fn a_zero_deadline_stops_the_searching_provers_but_the_suite_survives() {
    // deadline_ms = 0 expires every attempt at its first cooperative check: the
    // worst-case wall-clock regime. The syntactic prover (exempt: no long loops)
    // still proves its large share of the suite, every deadline stop is counted,
    // and the unproved remainder is attributed — not hung, not crashed.
    let rows = run_with_deadline(0);
    let total: usize = rows.iter().map(|r| r.total_sequents).sum();
    let proved: usize = rows.iter().map(|r| r.proved_sequents).sum();
    assert!(
        total > 0 && proved > 0,
        "syntactic proofs survive: {proved}/{total}"
    );
    assert!(
        proved < total,
        "the searching provers' sequents must be lost"
    );
    assert!(suite_deadline_aborts(&rows) > 0);
    assert_eq!(suite_crashes(&rows), 0, "a deadline stop is not a crash");
    let rendered = render_figure15(&rows);
    assert!(
        rendered.contains("deadline-stopped across the suite"),
        "{rendered}"
    );
    // A generous deadline changes nothing: the suite's slowest single attempt is
    // far below an hour, so every verdict matches the unconstrained baseline.
    let generous = run_with_deadline(3_600_000);
    assert_eq!(suite_deadline_aborts(&generous), 0);
    let baseline = run(config(1, CacheMode::Memory, true, ""));
    assert_eq!(verdicts(&generous), verdicts(&baseline));
}

fn run_with_deadline(ms: u64) -> Vec<SuiteRow> {
    run(DispatcherConfig::builder()
        .threads(1)
        .cache(CacheMode::Memory)
        .deadline_ms(ms)
        .build())
}

#[test]
fn store_kill_points_never_leave_a_torn_or_unreadable_store() {
    let dir = temp_dir("store-storm");
    // `torn@2` kills every other flush in the instant between tmp-file write and
    // atomic rename; `io@5` fails every fifth read/write outright. The dispatcher's
    // bounded retry absorbs most of it; what matters is that *no interleaving ever
    // corrupts the store on disk*.
    let faulted = Verifier::with_config(config(
        1,
        CacheMode::Persistent {
            dir: dir.clone(),
            flush: false,
        },
        true,
        "store:torn@2;store:io@5",
    ));
    assert!(faulted.verify(&suite::sized_list()).verified());
    let mut flushed = 0usize;
    let mut failed = 0usize;
    for _ in 0..20 {
        // A flush may still fail once the retry budget is burned — that is an
        // *error return*, never a crash and never a torn file.
        match faulted.flush() {
            Ok(n) => {
                assert!(n > 0);
                flushed += 1;
            }
            Err(_) => failed += 1,
        }
        // Whatever just happened, the on-disk store must be structurally intact:
        // correct header, trailer present, counts consistent (a fresh parser
        // accepts it end to end).
        let text = std::fs::read_to_string(store_path(&dir)).expect("store readable");
        assert!(
            text.starts_with(&format!("jahob-proof-store v{STORE_VERSION}")),
            "store header intact"
        );
        assert!(text.contains("\n## end\t"), "store trailer intact");
    }
    assert!(flushed > 0, "some flushes must land ({failed} failed)");
    // A fresh, faultless dispatcher warm-starts from the stormed store.
    let clean = Verifier::with_config(config(
        1,
        CacheMode::Persistent {
            dir: dir.clone(),
            flush: false,
        },
        true,
        "",
    ));
    assert!(
        clean.verify(&suite::sized_list()).cache_disk_hits() > 0,
        "the stormed store must still replay verdicts"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
