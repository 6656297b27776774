"""Output checks: a timing counts only if the program's answers hold.

Each check takes the plain records ``simrun.py`` and ``serve.py`` emit
and returns a list of failure messages (empty when the output is sound),
so the tests can feed them doctored records.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

BEST = "best-possible"


def check_scheme(name: str, run: Dict[str, Any]) -> List[str]:
    """Checks on one scheme's result alone."""
    if "error" in run:
        return [f"{name}: raised {run['error']}"]
    failures = []
    points = run["point_series"]
    if any(not 0.0 <= p <= 1.0 for p in points):
        failures.append(f"{name}: a point coverage lies outside [0, 1]")
    for key in ("point_series", "aspect_series", "delivered_series"):
        series = run[key]
        if any(b < a for a, b in zip(series, series[1:])):
            failures.append(f"{name}: {key} decreases")
    if run["delivered"] > run["created"]:
        failures.append(f"{name}: delivered {run['delivered']} > created {run['created']}")
    return failures


def check_sims(runs: Dict[str, Dict[str, Any]]) -> Dict[str, List[str]]:
    """Per-scheme failures, including the checks across schemes."""
    failures = {name: check_scheme(name, run) for name, run in runs.items()}
    ok = {name: run for name, run in runs.items() if "error" not in run}
    best = ok.get(BEST)
    if best is None:
        failures.setdefault(BEST, []).append(f"{BEST}: missing, no upper bound to check")
    else:
        for name, run in ok.items():
            if run["final_point"] > best["final_point"]:
                failures[name].append(
                    f"{name}: final point coverage {run['final_point']} exceeds "
                    f"{BEST}'s {best['final_point']}")
    contacts = {run["contacts_processed"] for run in ok.values()}
    if len(contacts) > 1:
        for name, run in ok.items():
            failures[name].append(
                f"{name}: contacts_processed {run['contacts_processed']} differs "
                f"across schemes ({sorted(contacts)})")
    return failures


def fingerprint(run: Dict[str, Any]) -> Tuple[Any, ...]:
    """(final point, final aspect, delivered): recorded, never gated."""
    if "error" in run:
        return ("error",)
    return (run["final_point"], run["final_aspect"], run["delivered"])


def check_same_runs(reference: Dict[str, Dict[str, Any]],
                    other: Dict[str, Dict[str, Any]], what: str) -> List[str]:
    """A seed gives one trajectory: a repeated or traced run of each
    scheme must reproduce the reference run's series exactly."""
    failures = []
    keys = ("point_series", "aspect_series", "delivered_series", "created",
            "contacts_processed")
    for name, run in reference.items():
        again = other.get(name)
        if again is None or any(run.get(k) != again.get(k) for k in keys):
            failures.append(f"{name}: {what} differs from the first run")
    return failures


def check_restart(before: Dict[str, Any], after: Dict[str, Any]) -> List[str]:
    """The recovered server must report the coverage it had when killed."""
    if before != after:
        return [f"coverage after restart {after} differs from before the kill {before}"]
    return []
