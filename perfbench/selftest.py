"""Self-test of the benchmark: every workload once at reduced size.

    python3 perfbench/selftest.py

Run from the root of a source checkout. It checks that every end-to-end and
per-layer metric prints with its unit, that the work counters repeat exactly
between two traced runs of one seed, that slln_1d writes the same
results.csv bytes at jobs=1 and jobs=2, and that BENCHMARK.json lists the
metrics and units run.py puts on its last line. Exits 0 when all hold.
"""

from __future__ import annotations

import json
import re
import shutil
import sys

import run
import workloads

_METRIC = re.compile(r"metric (\S+) \S+ (\S+)$")
_DIGEST = re.compile(r"digest .* config=(\d+) \S+ sha256=(\w+) ")
_SECONDS = 0.5


def _measure(workload: str, trace: bool, jobs: int | None = None) -> tuple[dict, list[str]]:
    lines: list[str] = []
    result = run.measure(workload, workloads.DEFAULT_SEED, _SECONDS, trace,
                         small=True, jobs=jobs, emit=lines.append)
    return result, lines


def _printed(lines: list[str]) -> dict:
    return dict(m.groups() for m in map(_METRIC.match, lines) if m)


def _digests(lines: list[str]) -> dict:
    return dict(m.groups() for m in map(_DIGEST.match, lines) if m)


def selftest() -> list[str]:
    failures = []

    def check(ok: bool, what: str) -> None:
        print(("ok   " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)

    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    check(listed == {k: run.END_TO_END[k] for k in run.GATED_END_TO_END},
          "BENCHMARK.json end_to_end matches the gated end-to-end metrics")
    check({m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER,
          "BENCHMARK.json per_layer matches the per-layer metrics")
    check([w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS),
          "BENCHMARK.json workloads match workloads.py")

    for workload in workloads.WORKLOADS:
        result, lines = _measure(workload, trace=False)
        check(result["correct"] and result["attempted"] > 0,
              f"{workload}: untraced run correct")
        check(_printed(lines) == run.END_TO_END,
              f"{workload}: every end-to-end metric printed with its unit")

        counts = []
        for _ in range(2):
            result, lines = _measure(workload, trace=True)
            check(result["correct"], f"{workload}: traced run correct")
            check(_printed(lines) == run.PER_LAYER,
                  f"{workload}: every per-layer metric printed with its unit")
            counts.append({k: v["value"] for k, v in result["metrics"].items()
                           if v["unit"] in ("count", "B")})
        check(counts[0] == counts[1], f"{workload}: work counters repeat exactly")

    digests = [_digests(_measure("slln_1d", trace=False, jobs=jobs)[1]) for jobs in (1, 2)]
    check(bool(digests[0]) and digests[0] == digests[1],
          "slln_1d: results.csv bytes equal at jobs=1 and jobs=2")
    return failures


def main() -> int:
    if not (run.SRC / "subexp" / "__init__.py").is_file():
        print(f"error: no subexp package under {run.SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(run.SRC))
    try:
        failures = selftest()
    finally:
        shutil.rmtree(run.TMP, ignore_errors=True)
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
