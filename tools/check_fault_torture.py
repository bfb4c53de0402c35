#!/usr/bin/env python3
"""Assert a fault-injected suite run survived and never corrupted the store.

Usage: check_fault_torture.py RUN_LOG [STORE_DIR]

RUN_LOG is the stdout of `cargo run --example verify_suite` executed with a
`JAHOB_FAULTS` storm (and usually `JAHOB_CACHE_DIR`). The checks:

  * The log reaches its final "Across the suite: X of Y sequents proved
    automatically." line with Y > 0 — the process ran the whole suite to
    completion instead of dying on an injected panic or I/O error.
  * X <= Y, and the suite accounted for every sequent it claimed.
  * If STORE_DIR is given, `STORE_DIR/proof-store.jahob` (when it exists — a
    flush storm may legitimately have failed every write) is structurally
    intact: correct magic header, exactly one `## end` trailer whose record
    count matches the `V` records actually present, no content after the
    trailer, and no other record lines (a partial write, or a record type this
    store version does not have). Torn
    `.tmp.*` debris next to the store is reported but allowed — an injected
    kill between tmp-write and rename leaves it there by design.

Exits non-zero with a diagnostic naming the violated invariant otherwise.
"""

import os
import re
import sys

SUITE_LINE = re.compile(r"Across the suite: (\d+) of (\d+) sequents proved automatically\.")
MAGIC = "jahob-proof-store"


def check_log(path: str) -> None:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    m = SUITE_LINE.search(text)
    if not m:
        sys.exit(
            f"{path}: no 'Across the suite: X of Y' line — the faulted run did "
            "not survive to the suite summary"
        )
    proved, total = int(m.group(1)), int(m.group(2))
    if total == 0:
        sys.exit(f"{path}: suite reported 0 sequents")
    if proved > total:
        sys.exit(f"{path}: proved {proved} of {total} sequents (impossible)")
    print(f"faulted run OK: survived the suite, {proved}/{total} sequents proved")


def check_store(store_dir: str) -> None:
    store = os.path.join(store_dir, "proof-store.jahob")
    debris = [n for n in sorted(os.listdir(store_dir)) if ".tmp." in n]
    if debris:
        print(f"note: {len(debris)} torn tmp file(s) left by kill points (allowed): {debris}")
    if not os.path.exists(store):
        print(f"note: {store} does not exist (every faulted flush failed); nothing to parse")
        return
    with open(store, encoding="utf-8") as f:
        lines = f.read().split("\n")
    if not lines or not lines[0].startswith(MAGIC + " v"):
        sys.exit(f"{store}: bad magic header {lines[0][:40]!r}")
    verdicts = 0
    trailer = None
    for lineno, line in enumerate(lines[1:], start=2):
        if trailer is not None:
            if line:
                sys.exit(f"{store}:{lineno}: content after the end trailer (torn write?)")
            continue
        if line.startswith("## end\t"):
            fields = line.split("\t")
            if len(fields) != 2 or not fields[1].isdigit():
                sys.exit(f"{store}:{lineno}: malformed trailer {line!r}")
            trailer = int(fields[1])
        elif line.startswith("V\t"):
            verdicts += 1
        elif line:
            sys.exit(f"{store}:{lineno}: unrecognised record {line[:40]!r} (torn write?)")
    if trailer is None:
        sys.exit(f"{store}: missing end trailer (truncated write)")
    if trailer != verdicts:
        sys.exit(f"{store}: trailer claims {trailer} verdicts, file holds {verdicts}")
    print(f"store OK: {verdicts} verdict records, trailer consistent")


def main() -> None:
    if len(sys.argv) not in (2, 3):
        sys.exit(f"usage: {sys.argv[0]} RUN_LOG [STORE_DIR]")
    check_log(sys.argv[1])
    if len(sys.argv) == 3:
        check_store(sys.argv[2])


if __name__ == "__main__":
    main()
