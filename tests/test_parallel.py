"""The ordered map: input order, the calling thread as a worker, thread
bounds, failure order, interrupts, and what a parallel run loads."""

import json
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import subexp
from subexp.parallel import parallel_map


def _uneven(i):
    time.sleep(0.002 * ((7 * i) % 5))  # releases the GIL, finishing out of order
    return i * i, threading.get_ident()


@pytest.mark.parametrize("jobs", [1, 2, 3, 8])
def test_results_come_back_in_input_order(jobs):
    assert [r for r, _ in parallel_map(_uneven, range(12), jobs)] == [i * i for i in range(12)]


@pytest.mark.parametrize("jobs, n", [(2, 6), (3, 12), (8, 3), (8, 1), (3, 0)])
def test_the_calling_thread_works_and_at_most_jobs_threads_do(jobs, n):
    threads = {t for _, t in parallel_map(_uneven, range(n), jobs)}
    assert len(threads) <= min(jobs, n)
    if n:
        assert threading.get_ident() in threads


def test_every_item_runs_then_the_earliest_failure_is_raised():
    ran = set()

    def task(i):
        time.sleep(0.02 if i == 1 else 0.001)  # item 4 fails before item 1 does
        ran.add(i)
        if i in (1, 4):
            raise ValueError(f"item {i}")
        return i

    before = threading.active_count()
    with pytest.raises(ValueError, match="item 1"):
        parallel_map(task, range(8), 2)
    assert ran == set(range(8))
    assert threading.active_count() == before


def test_no_helper_outlives_a_map():
    before = threading.active_count()
    assert [r for r, _ in parallel_map(_uneven, range(5), 3)] == [i * i for i in range(5)]
    assert threading.active_count() == before


def test_an_interrupt_in_the_calling_thread_stops_the_map():
    caller, started = threading.get_ident(), []

    def task(i):
        started.append(i)
        if threading.get_ident() == caller:
            raise KeyboardInterrupt
        time.sleep(0.02)

    before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        parallel_map(task, range(20), 2)
    assert threading.active_count() == before
    # The calling thread's first item, and at most the one the helper holds.
    assert len(started) <= 2


# Runs `subexp run --jobs 2` in a fresh interpreter, then prints whether an
# executor or logging was loaded.
_CLI_RUN = (
    "import sys; sys.path.insert(0, sys.argv[1]); from subexp.cli import main\n"
    "code = main(['run', sys.argv[2], '--out', sys.argv[3], '--jobs', '2'])\n"
    "print(code, sorted({'concurrent.futures', 'logging'} & set(sys.modules)))"
)


def test_a_parallel_run_loads_no_executor(tmp_path):
    doc = {"model": {"label": "E1", "members": [
        {"kind": "finite", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
        {"kind": "finite", "atoms": [[-1.0, 0.25], [1.0, 0.75]]},
    ]}, "experiment": "slln", "parameters": {"N": 20_000}, "seeds": [1, 2]}
    cfg = tmp_path / "slln.json"
    cfg.write_text(json.dumps(doc))
    src = str(Path(subexp.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", _CLI_RUN, src, str(cfg), str(tmp_path / "out")],
                          capture_output=True, text=True, timeout=120, check=True)
    assert proc.stdout.splitlines()[-1] in ("0 []", "1 []")  # a verdict may fail at this N
