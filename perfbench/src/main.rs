//! The benchmark runner: one workload, one seed, one run.
//!
//! ```text
//! perfbench --workload <suite_cold|edit_warm|reject_mutants> --seed <n> --seconds <s>
//!           --trace <0|1> [--commit <id>] [--expected <file>] [--tmp <dir>] [--out <dir>]
//! ```
//!
//! With `--trace 0` it runs the closed loop (one client, next request after the
//! previous verdict) through `jahob::Verifier::verify` and prints the end-to-end
//! metrics. With `--trace 1` it alternates untraced and traced passes at one thread,
//! records spans around each layer's public calls, writes them as JSON lines, and
//! prints the per-layer metrics. Either way the last stdout line is one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`.

use jahob::batch::{assemble_program_batch, fold_method_results};
use jahob::{verify_program_with, MethodResult, Verifier};
use jahob_frontend::{program_tasks, Program};
use jahob_logic::norm::inline_definitions;
use jahob_logic::SequentFeatures;
use jahob_provers::inst::apply_inst_hints;
use jahob_provers::router::route;
use jahob_provers::{
    BatchReport, CacheMode, Dispatcher, DispatcherConfig, LemmaLibrary, ProverId, SequentKey,
};
use perfbench::expected::Expected;
use perfbench::reference;
use perfbench::stats::{median, quantile};
use perfbench::trace::Tracer;
use perfbench::workload::{Check, Inputs, Request, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Per-workload settings. Dispatcher threads never exceed the machine's cores.
struct Plan {
    /// Dispatcher threads of the timed run (the traced run always uses one).
    threads: usize,
    /// The tail percentile reported as `request_ms_tail`, fixed per workload so that
    /// every run reports the same percentile; a run checks that at least ten
    /// requests lie beyond it.
    tail_q: f64,
    /// How many times the timed run repeats its set-up before the first request
    /// (`setup_s` is the median of all set-ups).
    setup_reps: usize,
    /// Passes per session of the timed run. Each session sets up afresh, so
    /// `setup_s` samples the whole run; on `edit_warm` a session is a new seeded
    /// store and a verifier warm-loaded from it, so a run averages over many
    /// sessions instead of following one cost-model trajectory.
    session_passes: u64,
    /// Blocks of the traced run; each block is one untraced and one traced pass.
    trace_blocks: u64,
}

fn plan(workload: Workload, nproc: usize) -> Plan {
    match workload {
        Workload::SuiteCold => Plan {
            threads: nproc.min(2),
            tail_q: 0.98,
            setup_reps: 5,
            session_passes: 1,
            trace_blocks: 20,
        },
        Workload::EditWarm => Plan {
            threads: 1,
            tail_q: 0.98,
            setup_reps: 3,
            session_passes: 6,
            trace_blocks: 20,
        },
        Workload::RejectMutants => Plan {
            threads: 1,
            tail_q: 0.85,
            setup_reps: 9,
            session_passes: 1,
            trace_blocks: 2,
        },
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    commit: String,
    expected: PathBuf,
    tmp: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::SuiteCold,
        seed: 0,
        seconds: 10.0,
        trace: false,
        commit: "unknown".into(),
        expected: "perfbench/expected.tsv".into(),
        tmp: "perfbench/target/tmp".into(),
        out: "perfbench/out".into(),
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--commit" => args.commit = value,
            "--expected" => args.expected = value.into(),
            "--tmp" => args.tmp = value.into(),
            "--out" => args.out = value.into(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    if !(args.seconds > 0.0 && args.seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    Ok(args)
}

fn main() {
    let code = match parse_args().and_then(|args| run(&args)) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &Args) -> Result<i32, String> {
    let text = std::fs::read_to_string(&args.expected)
        .map_err(|e| format!("cannot read {}: {e}", args.expected.display()))?;
    let expected = Expected::parse(&text)?;
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let plan = plan(args.workload, nproc);
    let threads = if args.trace { 1 } else { plan.threads };
    let stamp = format!(
        "workload={} seed={} trace={} nproc={nproc} threads={threads} commit={}",
        args.workload.name(),
        args.seed,
        args.trace as u8,
        args.commit
    );
    println!("# perfbench {stamp}");
    std::fs::create_dir_all(&args.tmp)
        .map_err(|e| format!("cannot create {}: {e}", args.tmp.display()))?;
    let outcome = if args.trace {
        run_traced(args, &plan, &expected, &stamp)?
    } else {
        run_timed(args, &plan, &expected)?
    };
    print_result(&outcome);
    Ok(if outcome.failed == 0 { 0 } else { 1 })
}

/// What a run prints as its last line.
struct Outcome {
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

fn print_result(outcome: &Outcome) {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed,
        metrics.join(", ")
    );
}

fn config(threads: usize, cache: CacheMode) -> DispatcherConfig {
    // The builder applies no `JAHOB_*` environment overrides.
    DispatcherConfig::builder()
        .threads(threads)
        .cache(cache)
        .build()
}

fn persistent(dir: &Path) -> CacheMode {
    CacheMode::Persistent {
        dir: dir.to_path_buf(),
        flush: false,
    }
}

/// A uniquely named store directory, removed when dropped.
struct TempDir(PathBuf);

impl TempDir {
    fn new(root: &Path, rep: usize) -> Result<TempDir, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map_or(0, |d| d.as_nanos());
        let dir = root.join(format!("store-{}-{nanos}-{rep}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(TempDir(dir))
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Compares a verdict with the request's known answer. A contained prover crash is
/// a failure whatever the verdict.
fn check(request: &Request, methods: &[MethodResult]) -> Result<(), String> {
    let crashes: usize = methods.iter().map(|m| m.report.crashes()).sum();
    if crashes > 0 {
        return Err(format!("{crashes} contained prover crash(es)"));
    }
    let failing = |skip: &str| -> Vec<&str> {
        methods
            .iter()
            .filter(|m| m.method != skip && !m.verified())
            .map(|m| m.method.as_str())
            .collect()
    };
    match &request.check {
        Check::Verified { obligations } => {
            let total: usize = methods.iter().map(|m| m.report.total_sequents).sum();
            let failing = failing("");
            if !failing.is_empty() {
                Err(format!("expected verified, unproved in {failing:?}"))
            } else if total != *obligations {
                Err(format!("expected {obligations} obligations, got {total}"))
            } else {
                Ok(())
            }
        }
        Check::Rejected { method } => {
            let target = methods
                .iter()
                .find(|m| &m.method == method)
                .ok_or_else(|| format!("no result for {method}"))?;
            let others = failing(method);
            if target.verified() {
                Err(format!(
                    "mutant accepted: {method} verified (an unsound verdict, or an \
                     equivalent mutant to move to the excluded list with its reason)"
                ))
            } else if !others.is_empty() {
                Err(format!("unmutated methods failed: {others:?}"))
            } else {
                Ok(())
            }
        }
    }
}

fn abort_on(request: &Request, pass: u64, verdict: Result<(), String>) -> bool {
    match verdict {
        Ok(()) => false,
        Err(e) => {
            eprintln!(
                "perfbench: wrong verdict, run aborted: pass {pass}, {}: {e}",
                request.label
            );
            true
        }
    }
}

/// Verifies every suite program through `dispatcher` (a persistent one) and flushes
/// its store, returning the number of store entries.
fn seed_store(
    dispatcher: &Dispatcher,
    inputs: &Inputs,
    lemmas: &LemmaLibrary,
) -> Result<(), String> {
    for (name, program) in inputs.suite() {
        let methods = verify_program_with(dispatcher, program, lemmas);
        if !methods.iter().all(MethodResult::verified) {
            return Err(format!("seeding the store: {name} did not verify"));
        }
    }
    Ok(())
}

fn flush(dispatcher: &Dispatcher) -> Result<usize, String> {
    dispatcher
        .flush_store()
        .map_err(|e| format!("flushing the seeded store: {e}"))
}

fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".into())
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

// ---------------------------------------------------------------- timed run

/// State one timed set-up produces.
struct Timed {
    inputs: Inputs,
    /// The verifier the session's requests share: a fresh in-memory one on
    /// `suite_cold`, one warm-loaded from a freshly seeded store on `edit_warm`, none
    /// on `reject_mutants` (each request builds its own). Declared before the store
    /// directory so it is dropped first.
    verifier: Option<Verifier>,
    _store: Option<TempDir>,
}

/// One timed set-up; its duration is appended to `setups`.
fn setup_timed(
    args: &Args,
    plan: &Plan,
    expected: &Expected,
    setups: &mut Vec<f64>,
) -> Result<Timed, String> {
    let start = Instant::now();
    let state = set_up(args, plan, expected, setups.len())?;
    setups.push(start.elapsed().as_secs_f64());
    Ok(state)
}

fn set_up(args: &Args, plan: &Plan, expected: &Expected, rep: usize) -> Result<Timed, String> {
    let inputs = Inputs::build(expected)?;
    let in_memory = || Verifier::with_config(config(plan.threads, CacheMode::Memory));
    let (verifier, store) = match args.workload {
        Workload::SuiteCold => (Some(in_memory()), None),
        Workload::RejectMutants => {
            black_box(in_memory());
            (None, None)
        }
        Workload::EditWarm => {
            let dir = TempDir::new(&args.tmp, rep)?;
            let seeder = Dispatcher::with_config(config(1, persistent(&dir.0)));
            seed_store(&seeder, &inputs, &LemmaLibrary::new())?;
            flush(&seeder)?;
            drop(seeder);
            let warm = Verifier::with_config(config(1, persistent(&dir.0)));
            (Some(warm), Some(dir))
        }
    };
    Ok(Timed {
        inputs,
        verifier,
        _store: store,
    })
}

fn run_timed(args: &Args, plan: &Plan, expected: &Expected) -> Result<Outcome, String> {
    // The reference kernel is sampled at most this often, before a set-up or request.
    let every = Duration::from_millis(250);
    let mut kernel = vec![reference::kernel_ms()];
    let mut last_kernel = Instant::now();
    let mut sample_kernel = |kernel: &mut Vec<f64>| {
        if last_kernel.elapsed() >= every {
            kernel.push(reference::kernel_ms());
            last_kernel = Instant::now();
        }
    };
    let mut setups = Vec::new();
    // Assigning a new state drops the previous one (and its store directory) after
    // the new set-up has been timed.
    let mut state = setup_timed(args, plan, expected, &mut setups)?;
    while setups.len() < plan.setup_reps {
        state = setup_timed(args, plan, expected, &mut setups)?;
    }
    let mut latencies = Vec::new();
    let mut obligations = 0;
    let mut failed = 0;
    let deadline = Duration::from_secs_f64(args.seconds);
    let start = Instant::now();
    let mut pass = 0;
    // Whole passes only, so every run sees each input equally often.
    'run: while pass == 0 || start.elapsed() < deadline {
        if pass > 0 && pass % plan.session_passes == 0 {
            sample_kernel(&mut kernel);
            state = setup_timed(args, plan, expected, &mut setups)?;
        }
        for request in &state.inputs.pass(args.workload, args.seed, pass) {
            sample_kernel(&mut kernel);
            let own = (args.workload == Workload::RejectMutants)
                .then(|| Verifier::with_config(config(plan.threads, CacheMode::Memory)));
            let verifier = own
                .as_ref()
                .or(state.verifier.as_ref())
                .expect("every workload has a verifier");
            let t = Instant::now();
            let report = verifier.verify(&request.program);
            latencies.push(ms(t.elapsed()));
            obligations += report.total_sequents();
            if abort_on(request, pass, check(request, &report.methods)) {
                failed += 1;
                break 'run;
            }
        }
        pass += 1;
    }
    let rss = peak_rss_mb()?;
    let attempted = latencies.len();
    let kernel_ms = median(&kernel);
    let scale = reference::NOMINAL_MS / kernel_ms;
    let (p50, (tail, beyond)) = (median(&latencies), quantile(&latencies, plan.tail_q));
    let busy_s: f64 = latencies.iter().sum::<f64>() / 1e3;
    let setup_s = median(&setups);
    let tail_name = format!("p{}", plan.tail_q * 100.0);
    println!("passes {pass}, requests {attempted}, obligations {obligations}");
    println!(
        "reference kernel: median {kernel_ms:.3} ms of {} samples (min {:.3}, max {:.3}); \
         timings below are scaled by {scale:.4} to the nominal {} ms",
        kernel.len(),
        quantile(&kernel, 0.0).0,
        quantile(&kernel, 1.0).0,
        reference::NOMINAL_MS
    );
    println!(
        "setup_s            {:.6} s  (median of {} set-ups; measured {setup_s:.6} s)",
        setup_s * scale,
        setups.len()
    );
    println!(
        "request_ms_p50     {:.3} ms  (n = {attempted}; measured {p50:.3} ms)",
        p50 * scale
    );
    println!(
        "request_ms_tail    {:.3} ms  ({tail_name}, {beyond} requests beyond it, \
         n = {attempted}; measured {tail:.3} ms)",
        tail * scale
    );
    if beyond < 10 {
        println!("warning: fewer than ten requests beyond {tail_name}; run longer");
    }
    let rate = obligations as f64 / busy_s;
    println!(
        "obligations_per_s  {:.1} 1/s  ({obligations} obligations in {busy_s:.3} s of \
         request time; measured {rate:.1} 1/s)",
        rate / scale
    );
    println!("peak_rss_mb        {rss:.1} MB  (VmHWM of this process)");
    println!(
        "failed_frac        {} share  ({failed} of {attempted} requests)",
        failed as f64 / attempted as f64
    );
    Ok(Outcome {
        attempted,
        failed,
        metrics: vec![
            ("setup_s", setup_s * scale, "s"),
            ("request_ms_p50", p50 * scale, "ms"),
            ("request_ms_tail", tail * scale, "ms"),
            ("obligations_per_s", rate / scale, "1/s"),
            ("peak_rss_mb", rss, "MB"),
        ],
    })
}

// ---------------------------------------------------------------- traced run

/// Per-layer counts summed over the traced passes.
#[derive(Default)]
struct Layers {
    obligations: usize,
    sequent_nodes: usize,
    inlined_nodes: usize,
    key_bytes: usize,
    hits: usize,
    disk_hits: usize,
    misses: usize,
    rescue_retries: usize,
    crashes: usize,
    /// Per prover: attempts, wins, aborts, busy ms — attempts actually run, not
    /// replayed from a cache hit.
    provers: BTreeMap<ProverId, (usize, usize, usize, f64)>,
}

impl Layers {
    fn absorb(&mut self, report: &BatchReport) {
        for tagged in &report.per_obligation {
            let r = &tagged.report;
            self.obligations += 1;
            self.hits += r.cache_hits;
            self.disk_hits += r.cache_disk_hits;
            self.misses += r.cache_misses;
            if r.cache_hits > 0 {
                continue;
            }
            self.rescue_retries += r.rescue_retries;
            self.crashes += r.crashes();
            for (id, s) in &r.per_prover {
                let e = self.provers.entry(*id).or_default();
                e.0 += s.attempted;
                e.1 += s.proved;
                e.2 += s.budget_aborts;
                e.3 += ms(s.time);
            }
        }
    }

    fn attempts(&self) -> usize {
        self.provers.values().map(|p| p.0).sum()
    }

    fn aborts(&self) -> usize {
        self.provers.values().map(|p| p.2).sum()
    }
}

/// Replays the normalisation stages the dispatcher runs inside `prove_all` on one
/// request's program, each under its own span below one `replay` span, so their share
/// can be estimated from outside the program.
fn replay(tracer: &mut Tracer, rid: usize, program: &Program, layers: &mut Layers) {
    let order = ProverId::default_order();
    let r = Some(rid);
    let span = tracer.begin("replay", r);
    let tasks = tracer.leaf("frontend.translate", r, || program_tasks(program));
    for task in &tasks {
        let obligations = tracer.leaf("vcgen.obligations", r, || task.obligations());
        for ob in &obligations {
            layers.sequent_nodes += ob.sequent.size();
            let instantiated = if ob.hints.is_empty() {
                ob.sequent.clone()
            } else {
                tracer.leaf("inst.apply", r, || apply_inst_hints(&ob.sequent, &ob.hints))
            };
            let inlined = tracer.leaf("norm.inline", r, || inline_definitions(&instantiated));
            layers.inlined_nodes += inlined.size();
            let key = tracer.leaf("cache.key", r, || SequentKey::of(&instantiated));
            layers.key_bytes += key.repr().len();
            let features = tracer.leaf("router.features", r, || SequentFeatures::of(&inlined));
            black_box(tracer.leaf("router.route", r, || route(&features, &order)));
        }
    }
    tracer.end(span);
}

/// An `edit_warm` session of the traced run: seeds a fresh store, flushes it and
/// warm-loads a dispatcher from it, under `setup`, `store.flush` and `store.load`
/// spans. Returns the dispatcher, its directory and the store's entry count.
fn traced_session(
    tracer: &mut Tracer,
    args: &Args,
    inputs: &Inputs,
    rep: usize,
) -> Result<(Dispatcher, TempDir, usize), String> {
    let dir = TempDir::new(&args.tmp, rep)?;
    let span = tracer.begin("setup", None);
    let seeder = Dispatcher::with_config(config(1, persistent(&dir.0)));
    seed_store(&seeder, inputs, &LemmaLibrary::new())?;
    let entries = tracer.leaf("store.flush", None, || flush(&seeder))?;
    drop(seeder);
    let warm = tracer.leaf("store.load", None, || {
        Dispatcher::with_config(config(1, persistent(&dir.0)))
    });
    tracer.end(span);
    Ok((warm, dir, entries))
}

fn run_traced(
    args: &Args,
    plan: &Plan,
    expected: &Expected,
    stamp: &str,
) -> Result<Outcome, String> {
    let lemmas = LemmaLibrary::new();
    let inputs = Inputs::build(expected)?;
    let mut tracer = Tracer::default();
    let (mut sessions, mut entries) = (0, 0);
    let mut warm = None;
    let mut layers = Layers::default();
    let (mut traced_ms, mut untraced_ms) = (Vec::new(), Vec::new());
    // Per block, traced request time over untraced request time: the two passes of a
    // block run back to back, so the machine's speed changes little between them.
    let mut ratios = Vec::new();
    let mut rid = 0;
    let mut failed = 0;
    'run: for block in 0..plan.trace_blocks {
        let sums = (traced_ms.len(), untraced_ms.len());
        for half in 0..2 {
            // Alternate which half is traced, so neither always runs first.
            let traced = (block + half) % 2 == 1;
            let pass = block * 2 + half;
            let before = (layers.attempts(), layers.aborts(), layers.rescue_retries);
            if args.workload == Workload::EditWarm && pass % plan.session_passes == 0 {
                // The previous session's dispatcher goes before its directory.
                drop(warm.take());
                let session = traced_session(&mut tracer, args, &inputs, sessions)?;
                entries = session.2;
                warm = Some((session.0, session.1));
                sessions += 1;
            }
            let requests = inputs.pass(args.workload, args.seed, pass);
            let pass_dispatcher = (args.workload == Workload::SuiteCold)
                .then(|| Dispatcher::with_config(config(1, CacheMode::Memory)));
            for request in &requests {
                let request_dispatcher = (args.workload == Workload::RejectMutants)
                    .then(|| Dispatcher::with_config(config(1, CacheMode::Memory)));
                let dispatcher = request_dispatcher
                    .as_ref()
                    .or(pass_dispatcher.as_ref())
                    .or(warm.as_ref().map(|(d, _)| d))
                    .expect("every workload has a dispatcher");
                let methods = if traced {
                    let r = Some(rid);
                    let span = tracer.begin("request", r);
                    let (batch, methods) = tracer.leaf("batch.assemble", r, || {
                        assemble_program_batch("", &request.program, &lemmas)
                    });
                    let report = tracer.leaf("dispatch.prove", r, || dispatcher.prove_all(&batch));
                    let results = tracer.leaf("batch.fold", r, || {
                        fold_method_results(&report, "", &methods)
                    });
                    tracer.end(span);
                    traced_ms.push(tracer.spans()[span].ms());
                    layers.absorb(&report);
                    results
                } else {
                    let t = Instant::now();
                    let results = verify_program_with(dispatcher, &request.program, &lemmas);
                    untraced_ms.push(ms(t.elapsed()));
                    results
                };
                rid += 1;
                if abort_on(request, pass, check(request, &methods)) {
                    failed += 1;
                    break 'run;
                }
            }
            if traced {
                // Replayed after the pass, so the traced requests run back to back
                // just like the untraced ones.
                let first = rid - requests.len();
                for (i, request) in requests.iter().enumerate() {
                    replay(&mut tracer, first + i, &request.program, &mut layers);
                }
                println!(
                    "pass {pass} traced: requests {} attempts {} aborts {} rescue_retries {}",
                    requests.len(),
                    layers.attempts() - before.0,
                    layers.aborts() - before.1,
                    layers.rescue_retries - before.2
                );
            }
        }
        let sum = |v: &[f64]| v.iter().sum::<f64>();
        ratios.push(sum(&traced_ms[sums.0..]) / sum(&untraced_ms[sums.1..]));
    }
    drop(warm);
    let spans_path = args.out.join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| {
            let mut file = std::io::BufWriter::new(std::fs::File::create(&spans_path)?);
            let meta = format!(
                "{{\"meta\": \"{stamp}\", \"time_unit\": \"us\", \"spans\": {}}}",
                tracer.spans().len()
            );
            tracer.write_jsonl(&mut file, &meta)
        })
        .map_err(|e| format!("cannot write {}: {e}", spans_path.display()))?;
    println!(
        "spans: {} written to {}",
        tracer.spans().len(),
        spans_path.display()
    );

    let passes = plan.trace_blocks as f64;
    let per_pass = |ms: f64| ms / passes;
    let total = |name: &str| per_pass(tracer.total_ms(name));
    let coverage = tracer.child_coverage("request");
    let coverage_min = coverage.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead = 100.0 * (median(&ratios) - 1.0);
    let lookups = (layers.hits + layers.misses).max(1) as f64;
    let count = |n: usize| n as f64 / passes;
    let per_session = |name: &str| tracer.total_ms(name) / sessions.max(1) as f64;
    let mut metrics = vec![
        (
            "frontend.translate_ms",
            total("frontend.translate"),
            "ms/pass",
        ),
        (
            "vcgen.obligations_ms",
            total("vcgen.obligations"),
            "ms/pass",
        ),
        ("vcgen.obligations", count(layers.obligations), "1/pass"),
        ("vcgen.sequent_nodes", count(layers.sequent_nodes), "1/pass"),
        ("norm.inline_ms", total("norm.inline"), "ms/pass"),
        ("norm.inlined_nodes", count(layers.inlined_nodes), "1/pass"),
        ("inst.apply_ms", total("inst.apply"), "ms/pass"),
        (
            "cache.key_ms",
            total("cache.key") - total("norm.inline"),
            "ms/pass",
        ),
        ("cache.key_bytes", count(layers.key_bytes), "bytes/pass"),
        ("cache.hits", count(layers.hits), "1/pass"),
        ("cache.disk_hits", count(layers.disk_hits), "1/pass"),
        ("cache.misses", count(layers.misses), "1/pass"),
        ("cache.hit_ratio", layers.hits as f64 / lookups, "ratio"),
        ("store.load_ms", per_session("store.load"), "ms"),
        ("store.flush_ms", per_session("store.flush"), "ms"),
        ("store.entries", entries as f64, "count"),
        ("router.features_ms", total("router.features"), "ms/pass"),
        ("router.route_ms", total("router.route"), "ms/pass"),
        ("dispatch.prove_ms", total("dispatch.prove"), "ms/pass"),
        ("batch.assemble_ms", total("batch.assemble"), "ms/pass"),
        ("batch.fold_ms", total("batch.fold"), "ms/pass"),
        ("replay_ms", total("replay"), "ms/pass"),
    ];
    for id in [
        ProverId::Syntactic,
        ProverId::Smt,
        ProverId::Mona,
        ProverId::Fol,
        ProverId::Bapa,
        ProverId::Interactive,
    ] {
        let (attempts, wins, aborts, busy) = layers.provers.get(&id).copied().unwrap_or_default();
        let names = prover_metric_names(id);
        metrics.push((names[0], count(attempts), "1/pass"));
        metrics.push((names[1], count(wins), "1/pass"));
        metrics.push((names[2], wins as f64 / attempts.max(1) as f64, "ratio"));
        metrics.push((names[3], count(aborts), "1/pass"));
        metrics.push((names[4], per_pass(busy), "ms/pass"));
    }
    metrics.extend([
        (
            "provers.rescue_retries",
            count(layers.rescue_retries),
            "1/pass",
        ),
        ("provers.crashes", count(layers.crashes), "1/pass"),
        ("trace.overhead_pct", overhead, "%"),
        ("trace.span_coverage_min", coverage_min, "ratio"),
    ]);
    println!(
        "traced passes {}, untraced passes {}, requests {} traced / {} untraced",
        plan.trace_blocks,
        plan.trace_blocks,
        traced_ms.len(),
        untraced_ms.len()
    );
    println!(
        "request p50: traced {:.3} ms, untraced {:.3} ms; tracing overhead {overhead:.2}% \
         (median over blocks of traced / untraced request time)",
        median(&traced_ms),
        median(&untraced_ms)
    );
    println!("span coverage of requests by assemble + prove_all + fold: min {coverage_min:.4}");
    if coverage_min < 0.95 {
        println!("warning: a traced request is less than 95% covered by its layer spans");
    }
    println!("provers.*.busy_ms is the time the program reports in ProverStats, not a span");
    for (name, value, unit) in &metrics {
        println!("{name:<28} {value:.4} {unit}");
    }
    Ok(Outcome {
        attempted: traced_ms.len() + untraced_ms.len(),
        failed,
        metrics,
    })
}

fn prover_metric_names(id: ProverId) -> [&'static str; 5] {
    macro_rules! names {
        ($p:literal) => {
            [
                concat!("provers.", $p, ".attempts"),
                concat!("provers.", $p, ".wins"),
                concat!("provers.", $p, ".win_ratio"),
                concat!("provers.", $p, ".aborts"),
                concat!("provers.", $p, ".busy_ms"),
            ]
        };
    }
    match id {
        ProverId::Syntactic => names!("syntactic"),
        ProverId::Smt => names!("smt"),
        ProverId::Mona => names!("mona"),
        ProverId::Fol => names!("fol"),
        ProverId::Bapa => names!("bapa"),
        ProverId::Interactive => names!("interactive"),
    }
}
