"""Experiment dispatch, the result format and its persistence.

A run resolves its experiment's driver by name through the package's lazy
exports and calls it. Every driver returns an ExperimentResult of Rows, and
this module writes it.

Every run writes three files into the output directory: results.json (the
full result), results.csv (flat rows keyed run_id, experiment, strategy,
seed, n, statistic, value, tolerance, verdict; a field is quoted only when
it holds a comma, a quote or a line break), and resolved_config.json (the
config with all defaults materialized and the effective seeds). Floats
are serialized with 17 significant digits and rows are emitted in generation
order, which does not depend on the parallelism level, so repeated runs
produce byte-identical CSV files.

Each file is written to a temporary file in the output directory and moved
into place, so a crash never leaves a half-written file. results.csv is the
commit marker: a run removes any earlier results.csv before it replaces the
other two files and writes its own last, so a results.csv that exists
belongs to the run that resolved_config.json describes. A run that fails
writes resolved_config.json and an error record as results.json, and leaves
no results.csv.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import importlib
import inspect
import io
import json
import math
import os
import sys

from .config import EXPERIMENT_TABLE, RunConfig, check_seed
from .errors import NonFiniteVerdict, SubexpError

_CSV_HEADER = "run_id,experiment,strategy,seed,n,statistic,value,tolerance,verdict"


@dataclasses.dataclass(frozen=True)
class Row:
    """One scalar statistic; passed=None marks informational rows.

    Only an informational row may hold an infinite or NaN value: a verdict
    on one raises NonFiniteVerdict, which names the row.
    """

    statistic: str
    value: float
    tolerance: float
    passed: bool | None
    strategy: str = ""
    seed: int = 0
    n: int = 0

    def __post_init__(self):
        # Drivers hand in numpy scalars; keep rows JSON-clean.
        object.__setattr__(self, "value", float(self.value))
        object.__setattr__(self, "tolerance", float(self.tolerance))
        if self.passed is not None:
            object.__setattr__(self, "passed", bool(self.passed))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "n", int(self.n))
        if self.passed is not None and not math.isfinite(self.value):
            raise NonFiniteVerdict(
                f"row {self.statistic!r} (strategy {self.strategy!r}, seed {self.seed}, "
                f"n {self.n}) has a verdict on the non-finite value {self.value}"
            )


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    """Rows of one run; the experiment name and model label live in its config."""

    strategy_labels: tuple
    n_grid: tuple
    seeds: tuple
    rows: tuple

    @property
    def passed(self) -> bool:
        return all(r.passed is not False for r in self.rows)


def _raise_worst(worst: float, x) -> float:
    """max(worst, x) as a float, except that a NaN x is kept: Python's max
    would drop it whenever worst came first."""
    x = float(x)
    return x if math.isnan(x) else max(worst, x)


def _fmt(x: float) -> str:
    return f"{float(x):.17g}"


def _json_float(x: float) -> float | str:
    """Finite floats as numbers; inf, -inf and nan as the CSV spells them."""
    return x if math.isfinite(x) else _fmt(x)


def _run_id(resolved: dict) -> str:
    # Identity covers what was computed, not where it was written.
    hashed = {k: v for k, v in resolved.items() if k != "output_dir"}
    blob = json.dumps(hashed, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _replace_file(path: str, text: str) -> None:
    """Write text beside path under a temporary name, then move it into place."""
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


def _dump_json(obj: dict, path: str, **kw) -> None:
    _replace_file(path, json.dumps(obj, indent=2, allow_nan=False, **kw) + "\n")


def _write_resolved(resolved: dict, out_dir: str) -> str:
    """Remove any earlier results.csv, write resolved_config.json and return
    the run id."""
    try:
        os.remove(os.path.join(out_dir, "results.csv"))
    except FileNotFoundError:
        pass
    _dump_json(resolved, os.path.join(out_dir, "resolved_config.json"), sort_keys=True)
    return _run_id(resolved)


def write_outputs(result: ExperimentResult, resolved: dict, out_dir: str) -> str:
    """Write the three files into the existing directory out_dir; return the run id."""
    run_id = _write_resolved(resolved, out_dir)
    experiment = resolved["experiment"]
    payload = {
        "run_id": run_id,
        "experiment": experiment,
        "model_label": resolved["model"]["label"],
        "strategy_labels": list(result.strategy_labels),
        "n_grid": list(result.n_grid),
        "seeds": list(result.seeds),
        "passed": result.passed,
        # Row fields in declaration order; replacing two keys keeps their place.
        "rows": [
            {**dataclasses.asdict(r), "value": _json_float(r.value),
             "tolerance": _json_float(r.tolerance)}
            for r in result.rows
        ],
    }
    _dump_json(payload, os.path.join(out_dir, "results.json"))

    # A statistic name can hold the free-text model label, so quote as needed.
    text = io.StringIO()
    writer = csv.writer(text, lineterminator="\n")
    writer.writerow(_CSV_HEADER.split(","))
    for r in result.rows:
        verdict = "info" if r.passed is None else ("pass" if r.passed else "fail")
        writer.writerow((run_id, experiment, r.strategy, r.seed, r.n, r.statistic,
                         _fmt(r.value), _fmt(r.tolerance), verdict))
    _replace_file(os.path.join(out_dir, "results.csv"), text.getvalue())
    return run_id


def _write_failure(exc: Exception, resolved: dict, out_dir: str) -> None:
    """Error record in place of the results; no results.csv survives it."""
    run_id = _write_resolved(resolved, out_dir)
    record = {"run_id": run_id, "error": {"type": type(exc).__name__, "message": str(exc)}}
    _dump_json(record, os.path.join(out_dir, "results.json"))


def _execute(config: RunConfig, jobs: int) -> ExperimentResult:
    """Call the configured driver with its parameters, and with the run's seeds
    and worker count where its signature takes them."""
    driver = EXPERIMENT_TABLE[config.experiment].driver
    fn = getattr(importlib.import_module(__package__), driver)
    kwargs = dict(config.parameters)
    takes = inspect.signature(fn).parameters
    run_args = {"seeds": config.seeds, "jobs": jobs}
    kwargs.update({k: v for k, v in run_args.items() if k in takes})
    return fn(config.model, **kwargs)


def run(
    config: RunConfig,
    out: str | None = None,
    seed_override: int | None = None,
    jobs: int = 1,
) -> int:
    """Execute the configured experiment; exit 0 iff every verdict passed."""
    if seed_override is not None:
        check_seed(seed_override, "--seed-override")
        config = config._replace(seeds=(seed_override,))
    out_dir = out if out is not None else config.output_dir
    resolved = config.resolved()
    resolved["output_dir"] = out_dir
    try:
        os.makedirs(out_dir, exist_ok=True)
        result = _execute(config, jobs)
        run_id = write_outputs(result, resolved, out_dir)
    except OSError as exc:  # the output directory cannot be created or written
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (SubexpError, ValueError) as exc:
        _write_failure(exc, resolved, out_dir)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # A defect, not a bad config: record it, then let the traceback through.
        _write_failure(exc, resolved, out_dir)
        raise
    verdict = "PASS" if result.passed else "FAIL"
    summary = (f"{config.experiment} {config.model.label} run_id={run_id} "
               f"rows={len(result.rows)} {verdict} -> {out_dir}")
    # The summary names the model, whose label the stream may not encode.
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"
    print(summary.encode(encoding, "backslashreplace").decode(encoding))
    return 0 if result.passed else 1
