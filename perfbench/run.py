"""Benchmark for the subexp laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. The program is imported from
`src/` through its public entry point, `subexp.run(parse_config(...),
out=..., jobs=...)`; nothing is installed. One process is one closed-loop
client: it runs the workload's configs in sequence, again and again, until
`--seconds` of timed work is spent, and reports medians over those passes.

--trace 0 prints the end-to-end metrics; --trace 1 also times a pass with
every call across a `subexp` module boundary wrapped in a span (see
tracing.py) and prints the per-layer metrics. Each pass checks the bytes of
every results.csv against the pins in workloads.py. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import workloads
from tracing import Tracer, counters, dump_spans, layer_times

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"
SPANS = ROOT / ".perfbench_spans"

# name -> unit. The final JSON line carries the gated ones (BENCHMARK.json).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "steps_per_s": "1/s",
    "dp_cells_per_s": "1/s",
    "error_frac": "ratio",
}
# Pass times swing 1.6-2x with the host's load on interpreter-bound work
# (exact_dp, small_calls), beyond any 25% bound, so only these two are gated.
GATED_END_TO_END = ("setup_s", "peak_rss_mb")
PER_LAYER = {
    "sampler.calls": "count",
    "sampler.steps": "count",
    "sampler.self_s": "s",
    "sampler.ns_per_step": "ns",
    "sampler.bytes_out": "B",
    "experiments.self_s": "s",
    "lattice_dp.calls": "count",
    "lattice_dp.cells": "count",
    "lattice_dp.peak_width": "count",
    "lattice_dp.self_s": "s",
    "lattice_dp.ns_per_cell": "ns",
    "inequalities.calls": "count",
    "inequalities.self_s": "s",
    "expectation.calls": "count",
    "expectation.self_s": "s",
    "axioms.self_s": "s",
    "meanset.calls": "count",
    "meanset.self_s": "s",
    "parallel.self_s": "s",
    "parallel.map_s": "s",
    "parallel.busy_frac": "ratio",
    "config.parse_s": "s",
    "runner.self_s": "s",
    "runner.write_s": "s",
    "runner.bytes_written": "B",
    "other.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_frac": "ratio",
}
LAYERS = ("runner", "experiments", "parallel", "sampler", "meanset", "lattice_dp",
          "inequalities", "expectation", "axioms")
SETUP_PAIRS = 10
PARSE_REPEATS = 20
# setup_s is given at the host speed where the reference start takes REFERENCE_S.
REFERENCE_S = 0.15

_SETUP_CODE = (
    "import json, sys; sys.path.insert(0, sys.argv[1]); import subexp; "
    "[subexp.parse_config(t) for t in json.load(sys.stdin)]"
)
# A fresh interpreter that imports numpy and nothing of subexp: the same kind of
# work as a set-up, so it slows down with the host as a set-up does.
_REFERENCE_CODE = "import numpy"


@dataclass
class Gate:
    """Checks every results.csv a workload writes and counts failed runs."""

    workload: str
    seed: int
    docs: list
    small: bool
    attempted: int = 0
    failed: int = 0
    seen: dict = field(default_factory=dict)  # config index -> (digest, exit code)
    notes: list = field(default_factory=list)

    def __post_init__(self):
        default_docs = workloads.configs(self.workload, workloads.DEFAULT_SEED, self.small)
        pins = [None] * len(self.docs) if self.small else workloads.PINS[self.workload]
        self.pins = [pin if doc == default else None
                     for pin, doc, default in zip(pins, self.docs, default_docs)]
        self.rows = [pin and pin[2] for pin in pins]

    def check(self, i: int, code, out_dir: str) -> int:
        """Judge one run; returns the bytes it wrote (0 when nothing usable)."""
        self.attempted += 1
        problem = None
        csv_path = os.path.join(out_dir, "results.csv")
        if code is None:
            problem = "raised"
        elif code == 2:
            problem = "exit 2"
        elif not os.path.isfile(csv_path):
            problem = "no results.csv"
        if problem is None:
            data = Path(csv_path).read_bytes()
            digest = hashlib.sha256(data).hexdigest()
            lines = data.decode().splitlines()[1:]
            verdict_code = 1 if any(line.endswith(",fail") for line in lines) else 0
            pin = self.pins[i]
            first = self.seen.setdefault(i, (digest, code))
            if pin is not None and (digest, code) != pin[:2]:
                problem = f"digest/exit {digest[:16]}/{code} differ from pin {pin[0][:16]}/{pin[1]}"
            elif (digest, code) != first:
                problem = "bytes or exit code differ between passes at one seed"
            elif code != verdict_code:
                problem = f"exit {code} disagrees with the verdict column"
            elif self.rows[i] is not None and len(lines) != self.rows[i]:
                problem = f"{len(lines)} rows, pinned {self.rows[i]}"
        if problem is not None:
            self.failed += 1
            self.notes.append(f"config {i} ({self.docs[i]['experiment']}): {problem}")
            return 0
        return sum(os.path.getsize(os.path.join(out_dir, f))
                   for f in ("results.csv", "results.json", "resolved_config.json"))

    def digest_lines(self) -> list[str]:
        out = []
        for i, (digest, code) in sorted(self.seen.items()):
            status = "pinned" if self.pins[i] is not None else "unpinned"
            out.append(f"digest {self.workload} seed={self.seed} config={i} "
                       f"{self.docs[i]['experiment']} sha256={digest} exit={code} {status}")
        return out


@dataclass
class Pass:
    wall: float
    cpu: float
    bytes_written: int
    counts: dict  # work counters, plus calls per layer when traced
    summary: dict | None  # layer_times() of a traced pass
    spans: list | None  # spans of a traced pass


def run_pass(subexp, configs, jobs: int, tracer: Tracer, gate: Gate) -> Pass:
    """Run every config once; only the calls into subexp are inside the timed region."""
    rec = tracer.reset()
    work = tempfile.mkdtemp(dir=TMP)
    outs = [os.path.join(work, str(i)) for i in range(len(configs))]
    codes = []
    sink = io.StringIO()
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(sink):
        for config, out in zip(configs, outs):
            try:
                codes.append(tracer.run(subexp.run, config, out=out, jobs=jobs))
            except Exception:  # a raising run is counted as failed, not fatal
                traceback.print_exc()
                codes.append(None)
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    written = sum(gate.check(i, code, out) for i, (code, out) in enumerate(zip(codes, outs)))
    shutil.rmtree(work)
    # Reduce the records now: holding every pass's call arguments would grow the RSS.
    counts = counters(rec)
    if not rec.timed:
        return Pass(wall, cpu, written, counts, None, None)
    summary = layer_times(rec)
    counts.update({f"{layer}.calls": n for layer, n in summary["calls"].items()})
    return Pass(wall, cpu, written, counts, summary, rec.spans)


def timed_passes(budget: float, min_passes: int, one_pass) -> list[Pass]:
    """Passes until the next one would end past the budget, at least min_passes."""
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(one_pass())
        spent = time.perf_counter() - start
        if len(passes) >= min_passes and spent + passes[-1].wall > budget:
            return passes


def setup_seconds(texts: list[str]) -> tuple[float, float, float]:
    """Set-up time of a fresh interpreter that imports subexp and parses the configs.

    The host's speed drifts by a third over minutes, and a set-up slows with it.
    Set-ups therefore alternate with reference starts (`import numpy` alone),
    and the median set-up is scaled by REFERENCE_S over the median reference.
    Returns (scaled set-up, median set-up, median reference), in seconds.
    """
    payload = json.dumps(texts)
    setup_cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC)]
    reference_cmd = [sys.executable, "-c", _REFERENCE_CODE]
    setups, references = [], []
    for i in range(SETUP_PAIRS + 1):
        t0 = time.perf_counter()
        subprocess.run(reference_cmd, stdin=subprocess.DEVNULL, check=True, cwd=ROOT)
        t1 = time.perf_counter()
        subprocess.run(setup_cmd, input=payload, text=True, check=True, cwd=ROOT)
        t2 = time.perf_counter()
        if i:  # the first pair also writes bytecode caches
            references.append(t1 - t0)
            setups.append(t2 - t1)
    setup, reference = statistics.median(setups), statistics.median(references)
    return setup * REFERENCE_S / reference, setup, reference


def parse_seconds(subexp, texts: list[str]) -> float:
    times = []
    for _ in range(PARSE_REPEATS):
        t0 = time.perf_counter()
        for text in texts:
            subexp.parse_config(text)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def environment() -> dict:
    import numpy
    import scipy

    env = {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": platform.processor() or platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    env["cpu"] = line.split(":", 1)[1].strip()
                    break
    for index in sorted(glob.glob("/sys/devices/system/cpu/cpu0/cache/index*")):
        with contextlib.suppress(OSError):
            level = Path(index, "level").read_text().strip()
            kind = Path(index, "type").read_text().strip()
            if level in ("2", "3") and kind != "Instruction":
                env[f"l{level}"] = Path(index, "size").read_text().strip()
    return env


def end_to_end(passes, setup_s, gate, counts) -> dict:
    wall = statistics.median(p.wall for p in passes)
    return {
        "wall_s": wall,
        "setup_s": setup_s,
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "steps_per_s": counts["sampler.steps"] / wall,
        "dp_cells_per_s": counts["lattice_dp.cells"] / wall,
        "error_frac": gate.failed / gate.attempted,
    }


def per_layer(untraced, traced, parse_s) -> dict:
    """Means over the traced passes, so the self times add up to trace.wall_s."""
    k = len(traced)
    summaries = [p.summary for p in traced]
    counts = traced[0].counts
    wall = sum(p.wall for p in traced) / k

    def mean(key, sub):
        return sum(s[key].get(sub, 0.0) for s in summaries) / k

    out = {f"{layer}.self_s": mean("self", layer) for layer in LAYERS}
    out["other.self_s"] = wall - sum(out.values())
    steps, cells = counts["sampler.steps"], counts["lattice_dp.cells"]
    sample_s, dp_s = mean("thread_self", "sample_path"), mean("thread_self", "dp_value")
    calls = summaries[0]["calls"]
    out.update({
        "sampler.calls": calls.get("sampler", 0),
        "sampler.steps": steps,
        "sampler.ns_per_step": 1e9 * sample_s / steps if steps else 0.0,
        "sampler.bytes_out": counts["sampler.bytes_out"],
        "lattice_dp.calls": calls.get("lattice_dp", 0),
        "lattice_dp.cells": cells,
        "lattice_dp.peak_width": counts["lattice_dp.peak_width"],
        "lattice_dp.ns_per_cell": 1e9 * dp_s / cells if cells else 0.0,
        "inequalities.calls": calls.get("inequalities", 0),
        "expectation.calls": calls.get("expectation", 0),
        "meanset.calls": calls.get("meanset", 0),
        "parallel.map_s": sum(s["map_s"] for s in summaries) / k,
        "parallel.busy_frac": sum(s["busy_frac"] for s in summaries) / k,
        "config.parse_s": parse_s,
        "runner.write_s": mean("thread_self", "write_outputs"),
        "runner.bytes_written": traced[0].bytes_written,
        "trace.wall_s": wall,
        "trace.overhead_frac": wall / (sum(p.wall for p in untraced) / len(untraced)) - 1.0,
    })
    return {name: out[name] for name in PER_LAYER}


def measure(workload: str, seed: int, seconds: float, trace: bool,
            small: bool = False, jobs: int | None = None, emit=print) -> dict:
    """Run one workload; emit the report lines and return the result object."""
    import subexp

    docs = workloads.configs(workload, seed, small)
    texts = [json.dumps(doc) for doc in docs]
    jobs = jobs or workloads.jobs_for(workload)
    gate = Gate(workload, seed, docs, small)
    TMP.mkdir(exist_ok=True)

    parse_s = parse_seconds(subexp, texts) if trace else None
    configs = [subexp.parse_config(text) for text in texts]

    budget = seconds / 2 if trace else seconds
    counting = Tracer(timed=False)
    counting.install()
    try:
        # An untimed first pass takes lazy imports and first-touch page faults.
        warm = run_pass(subexp, configs, jobs, counting, gate)
        # Measured after the warm pass: a host that has been idle starts
        # processes slowly for a few seconds, and the reference more so.
        setup = None if trace else setup_seconds(texts)
        untraced = timed_passes(budget, 1, lambda: run_pass(subexp, configs, jobs, counting, gate))
    finally:
        counting.uninstall()
    traced = []
    if trace:
        tracer = Tracer(timed=True)
        tracer.install()
        try:
            traced = timed_passes(budget, 2, lambda: run_pass(subexp, configs, jobs, tracer, gate))
        finally:
            tracer.uninstall()

    base = warm.counts
    repeat_ok = all({k: p.counts[k] for k in base} == base for p in untraced + traced) and all(
        p.counts == traced[0].counts for p in traced
    )
    if not repeat_ok:
        gate.notes.append("work counters differ between passes at one seed")

    if trace:
        metrics, units = per_layer(untraced, traced, parse_s), PER_LAYER
        SPANS.mkdir(exist_ok=True)
        dump_spans(traced[-1].spans, str(SPANS / f"{workload}-seed{seed}.csv"))
    else:
        metrics, units = end_to_end(untraced, setup[0], gate, base), END_TO_END

    env = environment()
    emit(f"workload {workload} seed={seed} trace={int(trace)} jobs={jobs} "
         f"passes={len(untraced)}+{len(traced)} runs={gate.attempted} failed={gate.failed}")
    emit("env " + " ".join(f"{k}={v!r}" if " " in str(v) else f"{k}={v}" for k, v in env.items()))
    emit("pass_wall_s untraced=" + ",".join(f"{p.wall:.4f}" for p in untraced)
         + " traced=" + ",".join(f"{p.wall:.4f}" for p in traced))
    if setup is not None:
        emit(f"setup_raw_s median={setup[1]:.4f} reference_median={setup[2]:.4f} "
             f"pairs={SETUP_PAIRS}")
    for line in gate.digest_lines():
        emit(line)
    for note in gate.notes:
        emit(f"FAILED {note}")
    for name, value in metrics.items():
        emit(f"metric {name} {value:.6g} {units[name]}")

    gated = GATED_END_TO_END if not trace else tuple(PER_LAYER)
    correct = gate.failed == 0 and repeat_ok
    return {
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in gated},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (0 <= args.seed < 2 ** 63):
        parser.error("--seed must lie in [0, 2^63)")
    if not (SRC / "subexp" / "__init__.py").is_file():
        print(f"error: no subexp package under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(TMP, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
