"""Support-function geometry of the attainable-mean set.

The planar model's mean hull is the segment from (1,0) to (0,1), which has
a two-line exact distance formula; that makes it the oracle for the net
approximation ("net value never exceeds the true distance, and undershoots
by at most O(delta)").
"""

import math

import numpy as np
import pytest

from subexp import (
    AmbiguitySet,
    FiniteDiscrete,
    TwoSidedPareto,
    build_direction_net,
    build_mean_set,
    distance_to_mean_set,
    support_function,
)
from subexp.errors import DimensionTooLarge, NotConvergent
from subexp.meanset import _NET_CAP
from conftest import make_e1, make_v2mix, make_v3mix


def segment_distance(y):
    """Exact distance from y to the segment (1,0)-(0,1)."""
    a, b = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    t = np.clip(np.dot(y - a, b - a) / np.dot(b - a, b - a), 0.0, 1.0)
    return float(np.linalg.norm(y - (a + t * (b - a))))


# ------------------------------------------------------------- direction nets


def test_net_dimension_one_is_exact():
    net = build_direction_net(1, 0.3)
    assert sorted(net.ravel().tolist()) == [-1.0, 1.0]
    assert net.shape == (2, 1)


def test_net_rows_are_unit_and_mesh_holds():
    net = build_direction_net(2, 0.1)
    norms = np.linalg.norm(net, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    rng = np.random.default_rng(7)
    for _ in range(500):
        v = rng.normal(size=2)
        v /= np.linalg.norm(v)
        gap = np.min(np.linalg.norm(net - v, axis=1))
        assert gap <= 0.1 + 1e-12


def test_net_mesh_three_and_four_dimensional():
    for dim, delta in ((3, 0.4), (4, 0.4), (3, 0.2), (4, 0.2)):
        net = build_direction_net(dim, delta)
        norms = np.linalg.norm(net, axis=1)
        assert np.allclose(norms, 1.0, atol=1e-12)
        rng = np.random.default_rng(dim)
        worst = 0.0
        for _ in range(300):
            v = rng.normal(size=dim)
            v /= np.linalg.norm(v)
            worst = max(worst, float(np.min(np.linalg.norm(net - v, axis=1))))
        assert worst <= delta + 1e-12


def test_net_caps_and_validation():
    with pytest.raises(DimensionTooLarge):
        build_direction_net(5, 0.1)
    with pytest.raises(ValueError):
        build_direction_net(2, 0.0)
    with pytest.raises(ValueError):
        build_direction_net(0, 0.1)


# ---------------------------------------------------------- support function


def test_support_function_interval(e1):
    assert support_function(e1, [1.0]) == 0.5
    assert support_function(e1, [-1.0]) == 0.0
    # positive homogeneity in the direction argument
    assert support_function(e1, [2.0]) == 1.0


def test_support_function_planar(v2mix):
    assert support_function(v2mix, [1.0, 0.0]) == 1.0
    assert support_function(v2mix, [0.0, 1.0]) == 1.0
    s = 1.0 / math.sqrt(2.0)
    assert support_function(v2mix, [s, s]) == pytest.approx(s)
    assert support_function(v2mix, [-s, -s]) == pytest.approx(-s)


def test_support_function_shape_check(v2mix):
    with pytest.raises(ValueError):
        support_function(v2mix, [1.0])


def test_support_function_pareto_tail_raises():
    amb = AmbiguitySet((TwoSidedPareto(0.9, 1.0, 0.5),), label="p09")
    with pytest.raises(NotConvergent):
        support_function(amb, [1.0])


# -------------------------------------------------------------- mean sets


def test_interval_mean_set_exact(e1):
    ms = build_mean_set(e1, delta=0.05)
    # dimension-1 nets carry both unit directions, so distances are exact
    assert distance_to_mean_set(ms, [0.25]) == 0.0
    assert distance_to_mean_set(ms, [0.75]) == pytest.approx(0.25, abs=1e-15)
    assert distance_to_mean_set(ms, [-1.0]) == pytest.approx(1.0, abs=1e-15)
    assert distance_to_mean_set(ms, [0.5]) == 0.0
    assert distance_to_mean_set(ms, [2.0]) > 1e-9


def test_planar_membership(v2mix):
    ms = build_mean_set(v2mix, delta=0.05)
    for y in ([1.0, 0.0], [0.0, 1.0], [0.5, 0.5], [0.3, 0.7]):
        assert distance_to_mean_set(ms, y) <= 1e-9
    assert distance_to_mean_set(ms, [1.0, 1.0]) > 0.1


def test_planar_distance_probes_are_one_sided(v2mix):
    """10^4 random probes: net distance in [true - 5*delta, true]."""
    delta = 0.05
    ms = build_mean_set(v2mix, delta=delta)
    rng = np.random.default_rng(20240)
    ys = rng.uniform(-1.0, 2.0, size=(10_000, 2))
    for y in ys:
        net_d = distance_to_mean_set(ms, y)
        true_d = segment_distance(y)
        assert net_d <= true_d + 1e-9
        assert net_d >= true_d - 5.0 * delta


def test_finer_net_tightens_distance(v2mix):
    y = [1.3, 1.3]
    true_d = segment_distance(np.array(y))
    coarse = distance_to_mean_set(build_mean_set(v2mix, delta=0.3), y)
    fine = distance_to_mean_set(build_mean_set(v2mix, delta=0.01), y)
    assert coarse <= fine <= true_d
    assert fine == pytest.approx(true_d, abs=0.01 * 5)


def test_distance_input_validation(v2mix):
    ms = build_mean_set(v2mix, delta=0.1)
    with pytest.raises(ValueError):
        distance_to_mean_set(ms, [0.0])
    with pytest.raises(ValueError):
        distance_to_mean_set(ms, [math.nan, 0.0])


@pytest.mark.parametrize("make", [make_e1, make_v2mix, make_v3mix], ids=["e1", "v2mix", "v3mix"])
def test_distance_of_a_block_is_the_distance_of_each_point(make):
    # 700 points span two 520-row gap blocks of the 2-d net and 70 ten-row
    # blocks of the 3-d one. In 1-d the closed form gives the same bits; in
    # d >= 2 a lone point is multiplied as a two-row block, since a one-row
    # product may round its last bit otherwise than a block's rows.
    amb = make()
    ms = build_mean_set(amb, delta=0.05)
    ys = np.random.default_rng(3).uniform(-1.0, 2.0, size=(700, amb.dim))
    assert distance_to_mean_set(ms, ys).tolist() == [distance_to_mean_set(ms, y) for y in ys]
    assert distance_to_mean_set(ms, ys[:0]).shape == (0,)
    with pytest.raises(ValueError):
        distance_to_mean_set(ms, ys[None])


def test_only_meanset_reads_the_net():
    # Every distance to the mean set goes through meanset's one kernel, so an
    # exact distance can replace the net inside this one module.
    import ast
    from pathlib import Path

    import subexp

    readers = {
        path.name
        for path in Path(subexp.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("directions", "support_values")
        or isinstance(node, ast.Name) and node.id == "_BLOCK_BYTES"
        or isinstance(node, ast.alias) and node.name == "_BLOCK_BYTES"
    }
    assert readers == {"meanset.py"}


def test_only_lattice_model_sums_builds_level_values():
    # Every level's sums come from LatticeModel.sums, so the lattice DP maps
    # indices to values in one place.
    import ast
    from pathlib import Path

    import subexp

    tree = ast.parse((Path(subexp.__file__).parent / "lattice_dp.py").read_text())

    def aranges(node):
        return sum(isinstance(n, ast.Attribute) and n.attr == "arange"
                   or isinstance(n, ast.Name) and n.id == "arange"
                   or isinstance(n, ast.alias) and n.name == "arange" for n in ast.walk(node))

    model = next(n for n in tree.body if isinstance(n, ast.ClassDef) and n.name == "LatticeModel")
    sums = next(n for n in model.body if isinstance(n, ast.FunctionDef) and n.name == "sums")
    assert aranges(sums) == aranges(tree) == 1


def test_only_the_sampled_drivers_import_the_window_engine():
    # The row types live beside their writer in runner, so a driver that
    # samples nothing never loads the window engine or the sampler.
    import ast
    from pathlib import Path

    import subexp

    importers = {
        path.name
        for path in Path(subexp.__file__).parent.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.ImportFrom)
        and "windows" in (node.module, *(alias.name for alias in node.names))
    }
    assert importers == {"experiments.py", "series.py"}


@pytest.mark.parametrize("delta", [1.0, 0.05])
def test_four_d_net_equals_the_scipy_halton_net(delta):
    """The Hopf image of scipy's unscrambled 3-d Halton points, bit for bit."""
    from scipy.stats.qmc import Halton

    net = build_direction_net(4, delta)
    assert len(net) == (64 if delta == 1.0 else _NET_CAP)
    u1, u2, u3 = Halton(d=3, scramble=False).random(len(net) + 1)[1:].T
    a, b = np.sqrt(1.0 - u1), np.sqrt(u1)
    t2, t3 = 2.0 * math.pi * u2, 2.0 * math.pi * u3
    hopf = np.column_stack([a * np.cos(t2), a * np.sin(t2), b * np.cos(t3), b * np.sin(t3)])
    assert np.array_equal(net, hopf)
