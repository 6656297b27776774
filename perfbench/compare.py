"""Compare two sets of saved benchmark outputs.

    python3 perfbench/compare.py --base base/*.out --change change/*.out

Each file is the standard output of one ``run.py`` invocation.  Runs are
grouped by workload; for each metric the tool prints both sides' median
and quartiles and the change of the median.  If any two runs carry
different environment records (the load average aside), the results are
not comparable: the tool says which fields differ and exits with 3.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from typing import Any, Dict, List, Tuple

from run import comparable_key


def load(path: str) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """``(env line, result line)`` of one saved run."""
    env: Dict[str, Any] = {}
    result: Dict[str, Any] = {}
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if not line.startswith("{"):
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                continue
            if "env" in payload:
                env = payload
            elif "metrics" in payload:
                result = payload
    if not env or not result:
        raise ValueError(f"{path}: no environment or result line")
    return env, result


def _quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def main(argv: List[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)

    sides: Dict[str, Dict[Tuple[str, str], List[float]]] = {}
    envs = []
    for side, paths in (("base", args.base), ("change", args.change)):
        table = sides.setdefault(side, {})
        for path in paths:
            env, result = load(path)
            envs.append((path, comparable_key(env["env"])))
            for name, metric in result["metrics"].items():
                table.setdefault((env["workload"], name), []).append(metric["value"])

    first_path, first = envs[0]
    for path, env in envs[1:]:
        diff = sorted(k for k in set(first) | set(env) if first.get(k) != env.get(k))
        if diff:
            print(f"not comparable: {path} and {first_path} differ in {', '.join(diff)}")
            return 3

    print(f"{'workload':14} {'metric':36} {'base q1/med/q3':>26} {'change q1/med/q3':>26} "
          f"{'change':>8}")
    for key in sorted(set(sides["base"]) | set(sides["change"])):
        base = sides["base"].get(key)
        change = sides["change"].get(key)
        if not base or not change:
            continue
        b = _quartiles(base)
        c = _quartiles(change)
        delta = (c[1] - b[1]) / b[1] if b[1] else float("nan")
        print(f"{key[0]:14} {key[1]:36} {b[0]:8.4g}/{b[1]:8.4g}/{b[2]:8.4g} "
              f"{c[0]:8.4g}/{c[1]:8.4g}/{c[2]:8.4g} {delta:+8.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
