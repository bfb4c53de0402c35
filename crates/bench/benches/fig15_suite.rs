//! Figure 15: per-data-structure verification statistics (sequents proved per prover and
//! verification times) for the whole suite of §7, plus the result-cache summary.
use criterion::{criterion_group, criterion_main, Criterion};
use jahob::{render_figure15, run_suite, suite, verify_program, VerifyOptions};
use std::time::Duration;

/// Options with fixed dispatcher knobs (immune to env overrides so the recorded
/// numbers always measure what their bench id claims).
fn options(threads: usize, cache: bool) -> VerifyOptions {
    let mode = if cache {
        jahob::CacheMode::Memory
    } else {
        jahob::CacheMode::Off
    };
    VerifyOptions {
        dispatcher: jahob::DispatcherConfig::builder()
            .threads(threads)
            .cache(mode)
            .build(),
        ..VerifyOptions::default()
    }
}

fn fig15(c: &mut Criterion) {
    // Per-structure timed benchmarks for three representative structures (a list, an
    // array-backed structure and a tree), giving the relative cost ordering; the full
    // per-structure table is emitted once below.
    for entry in suite::full_suite() {
        if !matches!(
            entry.name,
            "Singly-Linked List" | "Array List" | "Binary Search Tree"
        ) {
            continue;
        }
        let id = format!("fig15/{}", entry.name.replace(' ', "_"));
        c.bench_function(&id, |b| {
            b.iter(|| verify_program(&entry.program, &options(1, false)))
        });
    }
    // The dispatcher scaling knobs over the whole suite: threads=1 vs 4, cache on/off.
    for (id, threads, cache) in [
        ("fig15/suite_threads1_cache_off", 1, false),
        ("fig15/suite_threads1_cache_on", 1, true),
        ("fig15/suite_threads4_cache_off", 4, false),
        ("fig15/suite_threads4_cache_on", 4, true),
    ] {
        c.bench_function(id, |b| b.iter(|| run_suite(&options(threads, cache))));
    }
    // Emit the full Figure 15-style table (with the cache summary footer) once, and
    // record the suite-level counters in BENCH_results.json: proved/total sequents
    // and result-cache hits/misses.
    let rows = run_suite(&options(1, true));
    println!("{}", render_figure15(&rows));
    let proved: usize = rows.iter().map(|r| r.proved_sequents).sum();
    let total: usize = rows.iter().map(|r| r.total_sequents).sum();
    let hits: usize = rows.iter().map(|r| r.cache_hits).sum();
    let misses: usize = rows.iter().map(|r| r.cache_misses).sum();
    criterion::record_metric("suite_proved", proved as f64);
    criterion::record_metric("suite_total", total as f64);
    criterion::record_metric("suite_cache_hits", hits as f64);
    criterion::record_metric("suite_cache_misses", misses as f64);
    // The fuel-budget gauge: aborts prove the budgets engage, and the `fuel-budgets`
    // CI job asserts it against this file together with `suite_proved`.
    criterion::record_metric(
        "suite_budget_aborts",
        jahob::suite_budget_aborts(&rows) as f64,
    );
    // The fault-containment gauges: always recorded so a healthy run pins them at
    // exactly 0 — any nonzero value in BENCH_results.json means a prover panicked
    // (and was contained) or a wall-clock deadline fired during the bench run.
    criterion::record_metric("suite_crashes", jahob::suite_crashes(&rows) as f64);
    criterion::record_metric(
        "suite_deadline_aborts",
        jahob::suite_deadline_aborts(&rows) as f64,
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(3));
    targets = fig15
}
criterion_main!(benches);
