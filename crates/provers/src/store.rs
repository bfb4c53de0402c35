//! The persistent, content-addressed proof store: warm starts across processes,
//! runs, and machines.
//!
//! The in-memory [`SequentCache`](crate::SequentCache) dies with the process, so a
//! suite re-run re-proves every sequent from a cold start. This module serializes the
//! cache — the `SequentKey → CachedOutcome` verdict map — to one versioned file
//! inside a user-chosen directory
//! ([`store_path`]), loaded at [`Dispatcher`](crate::Dispatcher) construction and
//! merge-written on flush (or drop, per
//! [`CacheMode::Persistent`](crate::CacheMode::Persistent)).
//!
//! **Content addressing.** Every verdict record carries the cache's full key: the
//! alpha-normalized canonical sequent (its
//! printed form *is* the content address — `SequentKey` hashes are recomputed
//! deterministically on load), the hinted-variant key, the variable classification,
//! the lemma-registration bit, **and the dispatcher's `config_fingerprint`** (prover
//! order, hint usage, routing). A store written under one configuration is therefore
//! never *replayed* under another: entries with a foreign fingerprint are loaded but
//! can never be looked up, and a later merge-write carries them along untouched, so
//! one store file can serve many configurations side by side. The record's outcome
//! half holds the proved bit, the credited prover, the per-prover attempted and
//! budget-abort counts and the refuter's countermodel — everything a replay needs to
//! render the same report line, `[out of fuel: …]` or `[invalid: …]` note included.
//!
//! **Versioning and robustness.** The file starts with a
//! `jahob-proof-store v<N>` header ([`STORE_VERSION`]) and ends with an `## end`
//! trailer carrying the record count, so truncation is detected even at a line
//! boundary. A missing file is a silent cold start; a corrupt, truncated, older- or
//! future-versioned file is a **warned** cold start (one stderr line naming the path
//! and the reason) — never a crash, and never a partial load: a store either parses
//! completely or contributes nothing. A v3 store, whose verdicts may have been won
//! by the retired unbudgeted rescue pass, therefore never replays under a later
//! version.
//!
//! **Merge semantics.** A flush re-reads the file, overlays the live snapshot on top
//! (live verdicts win on key collision — they are at least as fresh), and writes the
//! union to a temporary file in the same directory, atomically
//! renamed over the store. Concurrent writers can therefore never produce a torn
//! file: readers see either the old store or the new one, whole. Two processes
//! flushing simultaneously may each miss the other's *newest* entries (last rename
//! wins), but since each merge starts from the current file, nothing already on disk
//! is ever lost, and a later flush from either process re-contributes the remainder.

use crate::cache::{CacheKey, CachedOutcome, SequentKey};
use crate::faults::{FaultPlane, IoOp};
use crate::ProverId;
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The store format version this build reads and writes. Bumped whenever the record
/// layout, the canonical-form definition, or the fingerprint contents change
/// incompatibly; files with any other version load as empty (with a warning).
/// v2 added the per-prover budget-abort counts and the rescued bit to verdict
/// records; v3 dropped the failure-memo records and the skipped counts; v4 dropped
/// the rescued bit, so a verdict an unbudgeted rescue won is never replayed by a
/// build that no longer rescues; v5 prints subset atoms in the canonical form as
/// `subseteq` and `subset`, the words the parser reads, and drops the `hints=` part
/// of the configuration fingerprint; v6 drops every verdict an SMT search reached
/// before an existential under a universal was a Skolem function of it, since a v5
/// store may replay a proof that rests on that unsound grounding; v7 adds the
/// refuter's countermodel to verdict records, and drops the attempt counts of
/// cascades that ran every prover on an obligation the refuter now ends early.
pub const STORE_VERSION: u32 = 7;

/// Magic prefix of the header line, shared by every format version.
const MAGIC: &str = "jahob-proof-store";

/// The store file inside a [`CacheMode::Persistent`](crate::CacheMode::Persistent)
/// directory. One fixed name per directory: the version lives in the file header (and
/// a mismatched version cold-starts), so upgrades never leave stale files behind.
pub fn store_path(dir: &Path) -> PathBuf {
    dir.join("proof-store.jahob")
}

/// An in-flight snapshot of the cache's persistent contents: its verdict map entries,
/// as a flat list.
pub(crate) type Verdicts = Vec<(CacheKey, CachedOutcome)>;

/// Why a store file could not be loaded. Rendered into the one-line cold-start
/// warning; never propagated as a failure.
#[derive(Debug)]
pub(crate) enum StoreError {
    /// The file could not be read at all (permissions, I/O).
    Io(std::io::Error),
    /// The header names a format version this build does not know (a future build
    /// wrote it, or the file is from an incompatible lineage).
    Version(String),
    /// The file is not a proof store, or a record is malformed or truncated.
    Format { line: usize, reason: String },
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "unreadable: {e}"),
            StoreError::Version(v) => write!(
                f,
                "version mismatch: file has {v:?}, this build reads v{STORE_VERSION}"
            ),
            StoreError::Format { line, reason } => {
                write!(f, "corrupt at line {line}: {reason}")
            }
        }
    }
}

/// [`load_or_warn_with`] on the disabled fault plane (test convenience).
#[cfg(test)]
pub(crate) fn load_or_warn(path: &Path) -> Verdicts {
    load_or_warn_with(path, FaultPlane::disabled())
}

/// Loads the store at `path` leniently: missing file → empty (silent); anything the
/// strict parser rejects → empty plus a single stderr warning naming the path and
/// the reason. This is the cold-start-never-crash contract of the dispatcher's
/// construction-time load. The torture harness injects read errors through the
/// fault plane here; they surface exactly like any other unreadable store — a
/// warned cold start, never a crash.
pub(crate) fn load_or_warn_with(path: &Path, faults: &FaultPlane) -> Verdicts {
    match load_with(path, faults) {
        Ok(data) => data,
        Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Verdicts::new(),
        Err(e) => {
            eprintln!(
                "warning: ignoring proof store {} ({e}); starting cold",
                path.display()
            );
            Verdicts::new()
        }
    }
}

/// [`load_with`] on the disabled fault plane (test convenience).
#[cfg(test)]
pub(crate) fn load(path: &Path) -> Result<Verdicts, StoreError> {
    load_with(path, FaultPlane::disabled())
}

/// Strictly parses the store at `path`. All-or-nothing: any malformed record makes
/// the whole file unusable (partial loads could replay a half-written verdict set as
/// if it were complete).
fn load_with(path: &Path, faults: &FaultPlane) -> Result<Verdicts, StoreError> {
    faults.io_op(IoOp::Read).map_err(StoreError::Io)?;
    let text = std::fs::read_to_string(path).map_err(StoreError::Io)?;
    parse(&text)
}

fn parse(text: &str) -> Result<Verdicts, StoreError> {
    let mut lines = text.lines().enumerate();
    let (_, header) = lines.next().ok_or(StoreError::Format {
        line: 1,
        reason: "empty file".into(),
    })?;
    match header.strip_prefix(MAGIC).map(str::trim) {
        Some(version) if version == format!("v{STORE_VERSION}") => {}
        Some(version) => return Err(StoreError::Version(version.to_string())),
        None => {
            return Err(StoreError::Format {
                line: 1,
                reason: format!("not a proof store (header {:?})", truncate(header)),
            })
        }
    }
    let mut verdicts = Verdicts::new();
    let mut trailer = None;
    for (index, line) in lines {
        let lineno = index + 1;
        if trailer.is_some() {
            return Err(StoreError::Format {
                line: lineno,
                reason: "content after the end trailer".into(),
            });
        }
        let err = |reason: &str| StoreError::Format {
            line: lineno,
            reason: reason.to_string(),
        };
        let fields: Vec<&str> = line.split('\t').collect();
        match fields[0] {
            "V" => {
                if fields.len() != 11 {
                    return Err(err("verdict record needs 11 fields"));
                }
                let key = CacheKey {
                    config_fingerprint: unescape(fields[1]).ok_or_else(|| err("fingerprint"))?,
                    sequent: SequentKey::from_repr(
                        unescape(fields[2]).ok_or_else(|| err("sequent"))?,
                    ),
                    hinted: match fields[3] {
                        "-" => None,
                        tagged => Some(SequentKey::from_repr(
                            tagged
                                .strip_prefix('=')
                                .and_then(unescape)
                                .ok_or_else(|| err("hinted sequent"))?,
                        )),
                    },
                    var_classes: unescape(fields[4]).ok_or_else(|| err("var classes"))?,
                    lemma_registered: parse_bool(fields[5]).ok_or_else(|| err("lemma bit"))?,
                };
                let outcome = CachedOutcome {
                    proved: parse_bool(fields[6]).ok_or_else(|| err("proved bit"))?,
                    prover: match fields[7] {
                        "-" => None,
                        tag => Some(ProverId::from_tag(tag).ok_or_else(|| err("prover tag"))?),
                    },
                    attempted: parse_counts(fields[8]).ok_or_else(|| err("attempted counts"))?,
                    budget_aborts: parse_counts(fields[9])
                        .ok_or_else(|| err("budget-abort counts"))?,
                    countermodel: match fields[10] {
                        "-" => None,
                        tagged => Some(
                            tagged
                                .strip_prefix('=')
                                .and_then(unescape)
                                .ok_or_else(|| err("countermodel"))?
                                .into(),
                        ),
                    },
                    from_disk: false, // stamped by `SequentCache::absorb`
                };
                verdicts.push((key, outcome));
            }
            "## end" => {
                if fields.len() != 2 {
                    return Err(err("end trailer needs 1 count"));
                }
                let count = fields[1].parse::<usize>().map_err(|_| err("count"))?;
                if count != verdicts.len() {
                    return Err(err("record count disagrees with the trailer (truncated?)"));
                }
                trailer = Some(());
            }
            _ => return Err(err("unknown record type")),
        }
    }
    if trailer.is_none() {
        return Err(StoreError::Format {
            line: text.lines().count(),
            reason: "missing end trailer (truncated?)".into(),
        });
    }
    Ok(verdicts)
}

/// [`merge_write_with`] on the disabled fault plane (test convenience).
#[cfg(test)]
pub(crate) fn merge_write(path: &Path, live: Verdicts) -> std::io::Result<usize> {
    merge_write_with(path, live, FaultPlane::disabled())
}

/// Merge-writes `live` into the store at `path`: existing parseable contents are
/// read back and the live snapshot overlaid (live verdicts win), then the union is
/// written to a temp file in the same directory and atomically renamed over the
/// store. Returns the number of verdict records written.
///
/// The fault plane's injection points, in write order: the
/// re-read of the existing store, the tmp-file creation (`io` faults), and the
/// instant between tmp-file write and atomic rename (`torn` faults — the tmp file
/// is left behind and the previous store stays in place, exactly the state a crash
/// there would leave).
///
/// Error discipline of the re-read: a *missing* store is the normal first flush, a
/// *corrupt* store is warned and overwritten (it contributed nothing to loads
/// either), but a store that exists and cannot be **read** fails the whole flush —
/// overwriting on a transient I/O error would discard every entry the file still
/// holds, and the dispatcher's bounded retry exists precisely to absorb such
/// transients.
pub(crate) fn merge_write_with(
    path: &Path,
    live: Verdicts,
    faults: &FaultPlane,
) -> std::io::Result<usize> {
    let existing = match load_with(path, faults) {
        Ok(data) => data,
        Err(StoreError::Io(e)) if e.kind() == std::io::ErrorKind::NotFound => Verdicts::new(),
        Err(StoreError::Io(e)) => return Err(e),
        Err(e) => {
            eprintln!(
                "warning: ignoring proof store {} ({e}); starting cold",
                path.display()
            );
            Verdicts::new()
        }
    };
    let verdicts: HashMap<CacheKey, CachedOutcome> = existing.into_iter().chain(live).collect();

    let mut out = String::new();
    out.push_str(&format!("{MAGIC} v{STORE_VERSION}\n"));
    // Deterministic record order: identical cache contents always serialize to the
    // identical file, so stores can be diffed (and committed) meaningfully.
    let mut verdicts: Vec<_> = verdicts.into_iter().collect();
    verdicts.sort_by(|(a, _), (b, _)| {
        (a.sequent.repr(), &a.config_fingerprint, &a.var_classes).cmp(&(
            b.sequent.repr(),
            &b.config_fingerprint,
            &b.var_classes,
        ))
    });
    let written = verdicts.len();
    for (key, outcome) in &verdicts {
        out.push_str(&format!(
            "V\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
            escape(&key.config_fingerprint),
            escape(key.sequent.repr()),
            match &key.hinted {
                None => "-".to_string(),
                Some(h) => format!("={}", escape(h.repr())),
            },
            escape(&key.var_classes),
            key.lemma_registered as u8,
            outcome.proved as u8,
            outcome.prover.map_or("-", |prover| prover.tag()),
            render_counts(&outcome.attempted),
            render_counts(&outcome.budget_aborts),
            match &outcome.countermodel {
                None => "-".to_string(),
                Some(model) => format!("={}", escape(model)),
            },
        ));
    }
    out.push_str(&format!("## end\t{written}\n"));

    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    // Unique temp name per process *and* per write, so two flushing processes never
    // scribble into each other's temp file; the rename is the only visible step.
    static WRITE_SEQ: AtomicU64 = AtomicU64::new(0);
    let tmp = path.with_extension(format!(
        "tmp.{}.{}",
        std::process::id(),
        WRITE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    faults.io_op(IoOp::Write)?;
    let mut file = std::fs::File::create(&tmp)?;
    file.write_all(out.as_bytes())?;
    file.sync_all()?;
    drop(file);
    // The `torn` kill point: a crash here has written the whole tmp file but never
    // made it visible. The injected form returns the error *without* cleaning up,
    // so the torture harness observes exactly that state (tmp debris, old store
    // intact and still parseable).
    faults.io_op(IoOp::Rename)?;
    match std::fs::rename(&tmp, path) {
        Ok(()) => Ok(written),
        Err(e) => {
            let _ = std::fs::remove_file(&tmp);
            Err(e)
        }
    }
}

fn render_counts(counts: &[(ProverId, usize)]) -> String {
    counts
        .iter()
        .map(|(prover, n)| format!("{}:{n}", prover.tag()))
        .collect::<Vec<_>>()
        .join(",")
}

fn parse_counts(field: &str) -> Option<Vec<(ProverId, usize)>> {
    if field.is_empty() {
        return Some(Vec::new());
    }
    field
        .split(',')
        .map(|part| {
            let (tag, n) = part.split_once(':')?;
            Some((ProverId::from_tag(tag)?, n.parse().ok()?))
        })
        .collect()
}

fn parse_bool(field: &str) -> Option<bool> {
    match field {
        "0" => Some(false),
        "1" => Some(true),
        _ => None,
    }
}

/// Escapes a string field: backslash escapes for the record separator (tab), line
/// separators and backslash itself, so canonical sequent texts survive the
/// line-oriented format byte-exactly.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '\t' => out.push_str("\\t"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            c => out.push(c),
        }
    }
    out
}

/// Inverse of [`escape`]; `None` on a dangling or unknown escape (corrupt record).
fn unescape(s: &str) -> Option<String> {
    let mut out = String::with_capacity(s.len());
    let mut chars = s.chars();
    while let Some(c) = chars.next() {
        if c != '\\' {
            out.push(c);
            continue;
        }
        match chars.next()? {
            '\\' => out.push('\\'),
            't' => out.push('\t'),
            'n' => out.push('\n'),
            'r' => out.push('\r'),
            _ => return None,
        }
    }
    Some(out)
}

fn truncate(s: &str) -> String {
    s.chars().take(40).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Verdicts {
        let key = |fp: &str, sequent: &str| CacheKey {
            sequent: SequentKey::from_repr(sequent.to_string()),
            hinted: Some(SequentKey::from_repr("p |- q".to_string())),
            var_classes: "S:content;".to_string(),
            lemma_registered: false,
            config_fingerprint: fp.to_string(),
        };
        vec![
            (
                key("order=A|route=true", "a |- b"),
                CachedOutcome {
                    proved: true,
                    prover: Some(ProverId::Bapa),
                    attempted: vec![(ProverId::Syntactic, 1), (ProverId::Bapa, 1)],
                    budget_aborts: vec![(ProverId::Fol, 1)],
                    countermodel: None,
                    from_disk: false,
                },
            ),
            (
                key("order=A|route=false", "odd\\chars\there |- g"),
                CachedOutcome {
                    proved: false,
                    prover: None,
                    attempted: vec![(ProverId::Smt, 1)],
                    budget_aborts: Vec::new(),
                    countermodel: Some("x = o1, s = {(o1, null)}\tand\\more".into()),
                    from_disk: false,
                },
            ),
        ]
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("jahob-store-unit-{}-{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        store_path(&dir)
    }

    #[test]
    fn round_trips_through_the_file_format() {
        let path = temp_store("roundtrip");
        merge_write(&path, sample()).expect("write");
        let loaded = load(&path).expect("load");
        let original = sample();
        assert_eq!(loaded.len(), original.len());
        for (key, outcome) in &original {
            let (_, reloaded) = loaded
                .iter()
                .find(|(k, _)| k == key)
                .expect("key survives byte-exactly, escapes included");
            assert_eq!(reloaded, outcome);
        }
    }

    #[test]
    fn merge_write_unions_and_live_entries_win() {
        let path = temp_store("merge");
        merge_write(&path, sample()).expect("first write");
        // A second snapshot: one colliding verdict flipped.
        let collide = sample().remove(0);
        let second = vec![(
            collide.0.clone(),
            CachedOutcome {
                prover: Some(ProverId::Smt),
                ..collide.1
            },
        )];
        merge_write(&path, second).expect("merge write");
        let merged = load(&path).expect("load");
        assert_eq!(merged.len(), 2, "union keeps the other fingerprint");
        let (_, winner) = merged
            .iter()
            .find(|(k, _)| k == &collide.0)
            .expect("collided key present");
        assert_eq!(winner.prover, Some(ProverId::Smt), "live entry wins");
    }

    #[test]
    fn deterministic_serialization() {
        let a = temp_store("det-a");
        let b = temp_store("det-b");
        merge_write(&a, sample()).expect("write a");
        merge_write(&b, sample()).expect("write b");
        assert_eq!(
            std::fs::read_to_string(&a).unwrap(),
            std::fs::read_to_string(&b).unwrap(),
            "identical contents serialize identically"
        );
    }

    #[test]
    fn missing_file_loads_empty_and_silent() {
        let path = temp_store("missing");
        assert!(load_or_warn(&path).is_empty());
    }

    #[test]
    fn truncated_file_is_rejected_naming_the_reason() {
        let path = temp_store("truncated");
        merge_write(&path, sample()).expect("write");
        let full = std::fs::read_to_string(&path).unwrap();
        // Cut mid-way: drop the trailer and half a record.
        let cut = &full[..full.len() - full.lines().last().unwrap().len() - 10];
        std::fs::write(&path, cut).unwrap();
        let err = load(&path).expect_err("truncated store must not parse");
        let text = err.to_string();
        assert!(
            text.contains("truncated") || text.contains("corrupt"),
            "{text}"
        );
        assert!(load_or_warn(&path).is_empty(), "lenient load is empty");
    }

    #[test]
    fn garbage_file_is_rejected() {
        let path = temp_store("garbage");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).unwrap();
        }
        std::fs::write(&path, "not a store\nat all\n").unwrap();
        let err = load(&path).expect_err("garbage must not parse");
        assert!(err.to_string().contains("not a proof store"), "{err}");
    }

    #[test]
    fn future_version_is_rejected_naming_both_versions() {
        let path = temp_store("future");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).unwrap();
        }
        std::fs::write(&path, format!("{MAGIC} v999\nV\twhatever\n")).unwrap();
        let err = load(&path).expect_err("future version must not parse");
        let text = err.to_string();
        assert!(text.contains("v999"), "{text}");
        assert!(text.contains(&format!("v{STORE_VERSION}")), "{text}");
        // And a corrupt-on-write store is overwritten, not merged with.
        merge_write(&path, sample()).expect("flush over a future-version file");
        assert_eq!(load(&path).expect("recovered").len(), 2);
    }

    #[test]
    fn trailer_count_mismatch_is_rejected() {
        let path = temp_store("trailer");
        merge_write(&path, sample()).expect("write");
        let mut text = std::fs::read_to_string(&path).unwrap();
        // Drop one record line but keep the trailer: counts now disagree.
        let victim = text
            .lines()
            .find(|l| l.starts_with('V'))
            .unwrap()
            .to_string();
        text = text.replace(&format!("{victim}\n"), "");
        std::fs::write(&path, text).unwrap();
        let err = load(&path).expect_err("count mismatch must not parse");
        assert!(err.to_string().contains("trailer"), "{err}");
    }

    #[test]
    fn escape_round_trips_control_characters() {
        for s in ["", "plain", "a\tb", "a\nb\r\\c", "\\t", "trailing\\"] {
            assert_eq!(unescape(&escape(s)).as_deref(), Some(s), "{s:?}");
        }
        assert_eq!(unescape("dangling\\"), None);
        assert_eq!(unescape("bad\\q"), None);
    }
}
