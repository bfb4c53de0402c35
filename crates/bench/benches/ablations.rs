//! Ablations called out in DESIGN.md: splitting on/off is implicit in the architecture
//! (the dispatcher always receives split sequents), so the measurable ablations are the
//! prover order, hint filtering, and the two dispatcher scaling mechanisms — the
//! work-stealing parallel dispatch and the canonical-form result cache (§5.2, §5.3).
use criterion::{criterion_group, criterion_main, Criterion};
use jahob::{run_suite, suite, verify_task, VerifyOptions};
use jahob_provers::{Dispatcher, LemmaLibrary, ObligationBatch, ProverId};
use std::time::Duration;

/// Options with the given thread count and cache switch (ignoring env overrides, so
/// the ablation axes stay fixed no matter how the bench process is invoked). Routing
/// is pinned **off** here: these ablations measure the fixed global order and the
/// other scaling knobs; the routing axis has its own `ablation/route_*` benches.
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
            .route(false)
            .build(),
        ..VerifyOptions::default()
    }
}

fn ablations(c: &mut Criterion) {
    let program = suite::sized_list();
    let tasks = jahob_frontend::program_tasks(&program);
    let task = tasks
        .iter()
        .find(|t| t.qualified_name() == "List.addNew")
        .expect("task");

    c.bench_function("ablation/order_cheap_first", |b| {
        b.iter(|| verify_task(task, &options(1, false)))
    });
    let mut expensive_first = options(1, false);
    expensive_first.dispatcher.order = vec![
        ProverId::Fol,
        ProverId::Bapa,
        ProverId::Mona,
        ProverId::Smt,
        ProverId::Syntactic,
        ProverId::Interactive,
    ];
    c.bench_function("ablation/order_expensive_first", |b| {
        b.iter(|| verify_task(task, &expensive_first))
    });
    let mut no_hints = options(1, false);
    no_hints.dispatcher.use_hints = false;
    c.bench_function("ablation/no_hint_filtering", |b| {
        b.iter(|| verify_task(task, &no_hints))
    });

    // The routing axis: the same method (and the whole suite below) with the
    // feature-directed per-sequent cascade order on vs the fixed global order. The
    // route-off baseline for the single method is `ablation/order_cheap_first`
    // above — `options()` pins routing off, so a separate route_off bench would
    // measure the identical configuration twice.
    let mut routed = options(1, false);
    routed.dispatcher.route = true;
    c.bench_function("ablation/route_on", |b| {
        b.iter(|| verify_task(task, &routed))
    });
    for (name, cache, route) in [
        ("ablation/suite_route_on", false, true),
        ("ablation/suite_route_off", false, false),
        ("ablation/suite_route_on_cache", true, true),
    ] {
        let mut opts = options(1, cache);
        opts.dispatcher.route = route;
        c.bench_function(name, |b| b.iter(|| run_suite(&opts)));
    }
    // The fuel-budget axis: the routed suite with budgets forced off measures what
    // the MONA/SMT/FOL fuel and the rescue pass buy over unbudgeted attempts
    // (`suite_route_on` above runs with the budgets baseline, i.e. on).
    let mut unbudgeted = options(1, false);
    unbudgeted.dispatcher.route = true;
    unbudgeted.dispatcher.budgets = false;
    c.bench_function("ablation/suite_budgets_off", |b| {
        b.iter(|| run_suite(&unbudgeted))
    });

    // The scaling ablations run the whole Figure 15 suite: the cache only pays off when
    // obligations recur across methods, and load balance only matters when obligation
    // costs are skewed across a real batch. Each iteration builds a fresh dispatcher
    // (inside run_suite), so cache-on measures a cold cache filled during the run.
    for (name, threads, cache) in [
        ("ablation/suite_seq_nocache", 1, false),
        ("ablation/suite_seq_cache", 1, true),
        ("ablation/suite_4threads_nocache", 4, false),
        ("ablation/suite_4threads_cache", 4, true),
    ] {
        c.bench_function(name, |b| b.iter(|| run_suite(&options(threads, cache))));
    }

    // The suite hands the dispatcher only a handful of obligations per method, which is
    // too small a batch for threads or caching to matter; the scaling regime the
    // dispatcher is built for is one large skewed batch (the "prove the whole program's
    // obligations at once" workload). Model it by tiling the sized list's obligations:
    // most are microseconds, one costs ~100ms (a MONA attempt that fails over to BAPA),
    // so a contiguous-chunk split would strand whole chunks behind the expensive
    // copies while the shared queue keeps every worker busy — and with the cache on,
    // every copy after the first is answered without running a prover.
    let context = tasks[0].prover_context(&LemmaLibrary::new());
    let obligations: Vec<_> = std::iter::repeat_with(|| tasks.iter().flat_map(|t| t.obligations()))
        .take(8)
        .flatten()
        .collect();
    let batch = ObligationBatch::uniform(&obligations, &context);
    for (name, threads, cache) in [
        ("ablation/batch_seq_nocache", 1, false),
        ("ablation/batch_4threads_nocache", 4, false),
        ("ablation/batch_seq_cache", 1, true),
        ("ablation/batch_4threads_cache", 4, true),
    ] {
        c.bench_function(name, |b| {
            b.iter(|| {
                let dispatcher = Dispatcher::with_config(options(threads, cache).dispatcher);
                dispatcher.prove_all(&batch)
            })
        });
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10).warm_up_time(Duration::from_millis(500)).measurement_time(Duration::from_secs(3));
    targets = ablations
}
criterion_main!(benches);
