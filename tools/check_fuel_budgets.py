#!/usr/bin/env python3
"""Assert the fuel budgets engage, lose no proof, and the routed suite timing landed.

Usage: check_fuel_budgets.py [BENCH_RESULTS_JSON]

Reads the bench trajectory file (default: BENCH_results.json in the current
directory) produced by the vendored criterion shim after a run of the fig15 and
ablations harnesses, and asserts the fuel-budget invariants:

  * `suite_budget_aborts` > 0 — the fuel budgets actually engage on this suite
    (a value of 0 means the budgets are dead config and nobody would notice).
  * 0 <= `suite_rescue_retries` <= `suite_total` — the completeness rescue pass
    is bounded: each rescued sequent costs exactly one extra unbudgeted cascade.
  * `suite_proved` == `suite_total` — budgets abort early, they never prune:
    the suite still discharges every sequent with budgets on (the default).
  * `ablation/suite_route_on` is present and well-formed — the routed+budgeted
    suite timing CI tracks across PRs cannot silently drop out of the file.

Exits non-zero with a diagnostic naming the violated invariant otherwise.
"""

import json
import sys


def metric(metrics: dict, name: str) -> float:
    """A metric value, accepting both the schema-2 {"value": V, "gen": G}
    objects and bare schema-1 numbers."""
    if name not in metrics:
        sys.exit(f"metric {name!r} missing from the trajectory file")
    entry = metrics[name]
    value = entry.get("value") if isinstance(entry, dict) else entry
    if not isinstance(value, (int, float)):
        sys.exit(f"metric {name!r} is malformed: {entry!r}")
    return float(value)


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else "BENCH_results.json"
    try:
        with open(path, encoding="utf-8") as f:
            results = json.load(f)
    except OSError as e:
        sys.exit(f"{path}: {e}")
    except json.JSONDecodeError as e:
        sys.exit(f"{path}: not valid JSON: {e}")

    metrics = results.get("metrics", {})
    benches = results.get("benches", {})

    aborts = metric(metrics, "suite_budget_aborts")
    rescues = metric(metrics, "suite_rescue_retries")
    proved = metric(metrics, "suite_proved")
    total = metric(metrics, "suite_total")

    if total <= 0:
        sys.exit(f"suite_total is {total:g}; the suite did not run")
    if proved != total:
        sys.exit(
            f"suite proved {proved:g} of {total:g} sequents with budgets on; "
            "the fuel budgets or rescue pass lost a proof"
        )
    if aborts <= 0:
        sys.exit(
            "suite_budget_aborts is 0: the fuel budgets never engaged on the "
            "suite, so the budgeted dispatch path is untested dead config"
        )
    if not 0 <= rescues <= total:
        sys.exit(
            f"suite_rescue_retries is {rescues:g}, outside [0, {total:g}]; "
            "the rescue pass must retry at most once per sequent"
        )

    name = "ablation/suite_route_on"
    record = benches.get(name)
    if not isinstance(record, dict):
        sys.exit(f"bench {name!r} missing from the trajectory file")
    mean = record.get("mean_ns")
    lo, hi = record.get("min_ns"), record.get("max_ns")
    samples = record.get("samples")
    if not all(isinstance(v, int) and v >= 0 for v in (mean, lo, hi, samples)):
        sys.exit(f"bench {name!r} is malformed: {record!r}")
    if samples == 0 or mean == 0 or not lo <= mean <= hi:
        sys.exit(f"bench {name!r} has implausible timings: {record!r}")

    print(
        f"fuel budgets OK: {proved:g}/{total:g} proved, "
        f"{aborts:g} budget aborts, {rescues:g} rescued unbudgeted, "
        f"{name} mean {mean / 1e6:.1f} ms over {samples} samples"
    )


if __name__ == "__main__":
    main()
