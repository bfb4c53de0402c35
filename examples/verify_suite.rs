//! Runs the whole data structure suite of §7 and prints the Figure 15-style table
//! (sequents proved per prover, per data structure, with verification times and the
//! result-cache hit rate).
//!
//! Run with `cargo run --release --example verify_suite`.
//!
//! The dispatcher knobs are read from the environment (see
//! `DispatcherConfig::with_env_overrides`): `JAHOB_THREADS=4 JAHOB_CACHE=on` runs the
//! parallel shared-queue path with the canonical-form result cache, `JAHOB_CACHE=off`
//! measures the uncached baseline, and `JAHOB_CACHE_DIR=dir` warm-starts from (and
//! flushes back to) the persistent proof store — run the example twice with the same
//! directory to see the second run answer the suite from disk.
//!
//! Which cache layer answered is printed too: the table's footer counts the result
//! cache's hits (those from disk in parentheses), and a line of its own counts the
//! methods the method memo answered whole.

use jahob_repro::prelude::*;

fn main() {
    let verifier = Verifier::new();
    println!(
        "dispatcher: threads={} cache={}",
        verifier.config().threads,
        verifier.config().cache
    );
    let rows = verifier.verify_suite();
    println!("{}", render_figure15(&rows));
    let total: usize = rows.iter().map(|r| r.total_sequents).sum();
    let proved: usize = rows.iter().map(|r| r.proved_sequents).sum();
    println!("Across the suite: {proved} of {total} sequents proved automatically.");
    println!(
        "Method memo: {} methods answered without generating their obligations.",
        verifier.cache_stats().method_hits
    );
    if verifier.config().cache.persistent_dir().is_some() {
        let disk: usize = rows.iter().map(|r| r.cache_disk_hits).sum();
        println!("Persistent store: {disk} of {total} obligations answered from disk.");
        match verifier.flush() {
            Ok(entries) => println!("Persistent store flushed ({entries} verdict entries)."),
            Err(e) => eprintln!("warning: failed to flush the proof store: {e}"),
        }
    }
}
