"""Compare two result sets written by ``run.py --workload all --out FILE``.

    python3 bench/compare.py base.json change.json

For every workload and end-to-end metric it prints each side's median and
quartiles and the change of the median, and says whether the two sets
agree within the bounds in BENCHMARK.json: the second median is not worse
than the first by more than the bound, each side's quartile spread (except
that of setup_s) stays within the bound, and the share of failed
operations is the same. Exits 1 when any pair disagrees.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def summary(values: list[float]) -> tuple[float, float, float]:
    """(median, first quartile, third quartile); quartiles need two values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, q1, q3


def failed_share(runs: list[dict]) -> tuple[int, int]:
    return (sum(r["result"]["failed"] for r in runs),
            sum(r["result"]["attempted"] for r in runs))


def compare(base: dict, change: dict, spec: dict) -> bool:
    agree = True
    for wl in spec["workloads"]:
        name = wl["name"]
        a = base["workloads"].get(name, {}).get("runs", [])
        b = change["workloads"].get(name, {}).get("runs", [])
        if not a or not b:
            print(f"{name}: missing from one set")
            agree = False
            continue
        fa, fb = failed_share(a), failed_share(b)
        same = fa[0] * fb[1] == fb[0] * fa[1]
        agree &= same
        print(f"{name}: {len(a)} vs {len(b)} runs; failed {fa[0]}/{fa[1]} vs "
              f"{fb[0]}/{fb[1]} ({'same share' if same else 'DIFFERENT share'})")
        for m in spec["end_to_end"]:
            metric, bound = m["name"], m["bound"]
            va = [r["result"]["metrics"][metric]["value"] for r in a]
            vb = [r["result"]["metrics"][metric]["value"] for r in b]
            (ma, la, ha), (mb, lb, hb) = summary(va), summary(vb)
            change_share = (mb - ma) / ma
            worse = change_share if m["better"] == "lower" else -change_share
            spreads = ((ha - la) / ma, (hb - lb) / mb)
            ok = worse <= bound and (
                metric == "setup_s" or max(spreads) <= bound)
            agree &= ok
            print(f"  {metric:<12} {ma:>11.5g} [{la:.5g}, {ha:.5g}]  "
                  f"{mb:>11.5g} [{lb:.5g}, {hb:.5g}]  {change_share:+.1%}  "
                  f"spread {spreads[0]:.1%}/{spreads[1]:.1%}  bound {bound:.0%}  "
                  f"{'ok' if ok else 'OUT OF BOUND'}")
    return agree


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, change = (json.loads(Path(p).read_text()) for p in argv)
    return 0 if compare(base, change, json.loads(SPEC.read_text())) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
