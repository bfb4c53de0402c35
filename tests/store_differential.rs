//! Differential test for the persistent proof store's warm-start path.
//!
//! The on-disk store is a pure optimisation, exactly like the in-memory cache it
//! serialises: a run warm-started from a store written by a prior dispatcher must
//! prove the identical set of sequents per method, with identical per-prover
//! attribution, as the cold run that wrote the store — across `{threads = 1, 4} x
//! {route on, off}`, mirroring `tests/dispatcher_differential.rs`. The store keys
//! every entry by configuration fingerprint, so the route-on and route-off worlds
//! are seeded separately and must never answer each other's lookups.
//!
//! The same file also pins the robustness contract: corrupt, truncated, old- and
//! future-version store files are cold starts (never crashes), and concurrent
//! flushing dispatchers on one directory never torn-write the store.

use jahob_repro::prelude::*;
use jahob_repro::provers::store_path;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// The observable verdict of one method: counts, the unproved descriptions in
/// report order, and per-prover (proved, attempted, budget_aborts) attribution.
#[derive(Debug, Clone, PartialEq, Eq)]
struct MethodVerdict {
    method: String,
    proved: usize,
    total: usize,
    unproved: Vec<String>,
    per_prover: BTreeMap<String, (usize, usize, usize)>,
}

fn verdict_of(structure: &str, result: &MethodResult) -> MethodVerdict {
    MethodVerdict {
        method: format!("{}::{}", structure, result.method),
        proved: result.report.proved_sequents,
        total: result.report.total_sequents,
        unproved: result.report.unproved.clone(),
        per_prover: result
            .report
            .per_prover
            .iter()
            .map(|(id, s)| {
                (
                    id.display_name().to_string(),
                    (s.proved, s.attempted, s.budget_aborts),
                )
            })
            .collect(),
    }
}

fn persistent_config(dir: &Path, threads: usize, route: bool) -> DispatcherConfig {
    DispatcherConfig::builder()
        .threads(threads)
        .route(route)
        .cache(CacheMode::Persistent {
            dir: dir.to_path_buf(),
            flush: false,
        })
        .build()
}

/// Runs the whole suite through one [`Verifier`] (one shared cache), collecting one
/// verdict per method in suite order, plus the verifier itself for cache-stats and
/// flush access.
fn run_full_suite(config: DispatcherConfig) -> (Vec<MethodVerdict>, Verifier) {
    let verifier = Verifier::with_config(config);
    let mut verdicts = Vec::new();
    for entry in suite::full_suite() {
        for result in verifier.verify(&entry.program).methods {
            verdicts.push(verdict_of(entry.name, &result));
        }
    }
    (verdicts, verifier)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jahob-store-diff-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn warm_started_runs_prove_the_identical_suite_with_identical_attribution() {
    let dir = temp_dir("warm");
    // Seed the store once per routing config (the fingerprint separates them in one
    // file), with the sequential dispatcher as the reference world.
    let mut baselines: BTreeMap<bool, Vec<MethodVerdict>> = BTreeMap::new();
    for route in [true, false] {
        let (verdicts, verifier) = run_full_suite(persistent_config(&dir, 1, route));
        assert_eq!(
            verifier.cache_stats().disk_hits,
            0,
            "the seeding run must start cold (route={route})"
        );
        assert!(verifier.flush().expect("flush") > 0);
        baselines.insert(route, verdicts);
    }
    assert!(store_path(&dir).exists(), "seeding must write the store");
    let total: usize = baselines[&true].iter().map(|v| v.total).sum();
    let proved: usize = baselines[&true].iter().map(|v| v.proved).sum();
    assert!(
        total > 0 && proved == total,
        "suite baseline: {proved}/{total}"
    );

    for route in [true, false] {
        for threads in [1, 4] {
            let (verdicts, verifier) = run_full_suite(persistent_config(&dir, threads, route));
            assert_eq!(
                verdicts, baselines[&route],
                "threads={threads} route={route}: warm verdicts must be identical"
            );
            let stats = verifier.cache_stats();
            assert!(
                stats.disk_hits as usize * 10 >= total * 9,
                "threads={threads} route={route}: warm run must answer >=90% of {total} \
                 obligations from disk, got {}",
                stats.disk_hits
            );
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn route_worlds_never_answer_each_others_lookups() {
    // Seed only the routed world; an unrouted warm run must find nothing on disk
    // (its fingerprint differs) yet still prove the identical set cold.
    let dir = temp_dir("route-isolation");
    let (routed, verifier) = run_full_suite(persistent_config(&dir, 1, true));
    verifier.flush().expect("flush");
    let (unrouted, warm) = run_full_suite(persistent_config(&dir, 1, false));
    assert_eq!(
        warm.cache_stats().disk_hits,
        0,
        "entries written under route=on must not serve route=off"
    );
    let proved = |vs: &[MethodVerdict]| -> Vec<(String, usize, usize)> {
        vs.iter()
            .map(|v| (v.method.clone(), v.proved, v.total))
            .collect()
    };
    assert_eq!(proved(&routed), proved(&unrouted), "verdicts still agree");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn committed_seed_fixtures_warm_start_the_suite() {
    // The seed store committed under tests/fixtures/ is the CI warm-start seed: a
    // fresh checkout must be able to answer (nearly) the whole suite from it without
    // proving anything first. This pins both the fixture's parseability under the
    // current STORE_VERSION and its fingerprint compatibility with the default
    // (builder, env-free) configuration it was generated under. Regenerate it with
    // `JAHOB_CACHE_DIR=tests/fixtures cargo run --release --example verify_suite`
    // whenever the fingerprint or store format legitimately changes.
    let fixtures = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures");
    let dir = temp_dir("seed-fixtures");
    std::fs::create_dir_all(&dir).expect("mkdir");
    std::fs::copy(fixtures.join("proof-store.jahob"), store_path(&dir)).expect("copy fixture");
    let (verdicts, verifier) = run_full_suite(persistent_config(&dir, 1, true));
    let total: usize = verdicts.iter().map(|v| v.total).sum();
    let proved: usize = verdicts.iter().map(|v| v.proved).sum();
    assert!(
        total > 0 && proved == total,
        "suite from seed: {proved}/{total}"
    );
    let disk = verifier.cache_stats().disk_hits as usize;
    assert!(
        disk * 10 >= total * 9,
        "the committed seed must answer >=90% of {total} obligations, got {disk}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The sized list's verdicts from a current store, with every line rewritten by
/// `rewrite`. Its keys are real, so a reader that accepted the rewritten file's old
/// version would answer the sized list from it.
fn sized_list_store_rewritten(name: &str, rewrite: impl Fn(&str) -> String) -> String {
    let dir = temp_dir(name);
    let verifier = Verifier::with_config(persistent_config(&dir, 1, true));
    assert!(verifier.verify(&suite::sized_list()).verified());
    verifier.flush().expect("flush");
    let current = std::fs::read_to_string(store_path(&dir)).expect("read store");
    let _ = std::fs::remove_dir_all(&dir);
    current.lines().map(|line| rewrite(line) + "\n").collect()
}

/// The sized list's store in the v2 layout, the format before the failure-memo `F`
/// records, the per-prover skipped counts and the rescued bit were dropped: the old
/// header, an empty skipped field and a rescued bit in every verdict record, and
/// the two-count trailer.
fn sized_list_store_as_v2() -> String {
    sized_list_store_rewritten("v2-source", |line| {
        if line.starts_with("jahob-proof-store ") {
            "jahob-proof-store v2".to_string()
        } else if let Some(count) = line.strip_prefix("## end\t") {
            format!("## end\t{count}\t0")
        } else {
            let mut fields: Vec<&str> = line.split('\t').collect();
            assert_eq!(fields[0], "V", "{line}");
            fields.insert(9, "");
            fields.push("0");
            fields.join("\t")
        }
    })
}

/// The sized list's store in the v3 layout, the format before the rescued bit was
/// dropped: the `v3` header and a rescued column after every verdict record's
/// budget-abort counts.
fn sized_list_store_as_v3() -> String {
    sized_list_store_rewritten("v3-source", |line| {
        if line.starts_with("jahob-proof-store ") {
            "jahob-proof-store v3".to_string()
        } else if line.starts_with("V\t") {
            format!("{line}\t0")
        } else {
            line.to_string()
        }
    })
}

/// The sized list's current store under the `v4` header: the same records, keyed by
/// this version's canonical text and fingerprint.
fn sized_list_store_as_v4() -> String {
    sized_list_store_rewritten("v4-source", |line| {
        if line.starts_with("jahob-proof-store ") {
            "jahob-proof-store v4".to_string()
        } else {
            line.to_string()
        }
    })
}

#[test]
fn corrupt_truncated_and_future_version_stores_cold_start() {
    // An old-version store is rejected whole, exactly like a corrupt one: a warned
    // cold start, never a partial load of its verdicts.
    for (name, contents) in [
        ("garbage", "not a proof store\nat all\n".to_string()),
        ("truncated", "jahob-proof-store v1\nV\ttrail".to_string()),
        (
            "future",
            "jahob-proof-store v999\nV\twhatever\n".to_string(),
        ),
        ("old-v2", sized_list_store_as_v2()),
        ("old-v3", sized_list_store_as_v3()),
        ("old-v4", sized_list_store_as_v4()),
    ] {
        let dir = temp_dir(name);
        std::fs::create_dir_all(&dir).expect("mkdir");
        std::fs::write(store_path(&dir), &contents).expect("write bad store");
        let config = persistent_config(&dir, 1, true);
        let verifier = Verifier::with_config(config);
        let program = suite::sized_list();
        let report = verifier.verify(&program);
        assert!(report.verified(), "{name}: cold start still proves");
        assert_eq!(
            report.cache_disk_hits(),
            0,
            "{name}: a rejected store must contribute nothing"
        );
        // And flushing over the bad file recovers it: a fresh verifier warm-starts.
        assert!(verifier.flush().expect("flush over bad store") > 0);
        let recovered = Verifier::with_config(persistent_config(&dir, 1, true));
        let warm = recovered.verify(&program);
        assert!(
            warm.cache_disk_hits() > 0,
            "{name}: the flushed store must replay"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn concurrent_flushing_dispatchers_never_torn_write() {
    // Two verifiers share one directory; each proves a different structure and both
    // flush repeatedly from parallel threads. Whatever the interleaving, the store
    // must always parse (atomic rename — readers never see a partial file) and end
    // up holding both contributions.
    let dir = temp_dir("concurrent");
    let a = Verifier::with_config(persistent_config(&dir, 1, true));
    let b = Verifier::with_config(persistent_config(&dir, 1, true));
    assert!(a.verify(&suite::sized_list()).verified());
    assert!(b.verify(&suite::singly_linked_list()).proved_sequents() > 0);
    std::thread::scope(|scope| {
        for v in [&a, &b] {
            let dir = &dir;
            scope.spawn(move || {
                for _ in 0..20 {
                    v.flush().expect("concurrent flush");
                    // Every intermediate state must be a well-formed store: a fresh
                    // dispatcher constructed mid-flush-storm loads it (or cold
                    // starts on NotFound) without a crash or a warning-worthy tear.
                    let probe = Verifier::with_config(persistent_config(dir, 1, true));
                    let _ = probe.cache_stats();
                }
            });
        }
    });
    // After the storm: one more merge from each side, then a reader sees the union.
    a.flush().expect("final flush a");
    b.flush().expect("final flush b");
    let reader = Verifier::with_config(persistent_config(&dir, 1, true));
    assert!(
        reader.verify(&suite::sized_list()).cache_disk_hits() > 0,
        "first contributor's entries survived"
    );
    assert!(
        reader
            .verify(&suite::singly_linked_list())
            .cache_disk_hits()
            > 0,
        "second contributor's entries survived"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dropping_two_flushing_dispatchers_on_one_dir_is_safe() {
    // The satellite's literal scenario: two dispatchers with `flush: true` on one
    // directory, dropped in either order — both drop-flushes land, the store parses,
    // and a warm reader replays entries from both.
    let dir = temp_dir("drop-pair");
    let flushing = || {
        Verifier::with_config(
            DispatcherConfig::builder()
                .cache(CacheMode::Persistent {
                    dir: dir.clone(),
                    flush: true,
                })
                .build(),
        )
    };
    {
        let a = flushing();
        let b = flushing();
        assert!(a.verify(&suite::sized_list()).verified());
        assert!(b.verify(&suite::singly_linked_list()).proved_sequents() > 0);
        drop(a);
        drop(b);
    }
    let reader = Verifier::with_config(persistent_config(&dir, 1, true));
    assert!(reader.verify(&suite::sized_list()).cache_disk_hits() > 0);
    assert!(
        reader
            .verify(&suite::singly_linked_list())
            .cache_disk_hits()
            > 0
    );
    let _ = std::fs::remove_dir_all(&dir);
}
