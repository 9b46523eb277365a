"""The four benchmark workloads: their configs, thread counts and output pins.

Each workload is a list of JSON config documents run in sequence through
`subexp.run`. The seed given to the benchmark reaches only the config fields
that take a seed; configs without one are seed-independent, so their pins
hold at every seed.
"""

from __future__ import annotations

import os

E1 = {
    "label": "E1",
    "members": [
        {"kind": "finite", "atoms": [[-1.0, 0.5], [1.0, 0.5]]},
        {"kind": "finite", "atoms": [[-1.0, 0.25], [1.0, 0.75]]},
    ],
}
V2MIX = {
    "label": "V2mix",
    "members": [
        {"kind": "finite", "atoms": [[[1.0, 0.0], 1.0]]},
        {"kind": "finite", "atoms": [[[0.0, 1.0], 1.0]]},
        {"kind": "finite", "atoms": [[[1.0, 0.0], 0.5], [[0.0, 1.0], 0.5]]},
    ],
}
PARETO = {
    "label": "Pareto1.5",
    "members": [{"kind": "pareto", "alpha": 1.5, "scale": 1.0, "right_mass": 0.5}],
}

DEFAULT_SEED = 1
# axioms at the default seed use the config default axiom_seed (20240).
_AXIOM_SEED_OFFSET = 20239

WHY = {
    "slln_1d": "long 1-d paths from pure and mixed strategies at jobs=2: sampling plus "
    "containment over a 2-direction net, the only workload using both cores",
    "cluster_2d": "long planar paths whose containment over a ~126-direction net builds "
    "200k-row gap matrices far beyond L2 and holds every path in memory",
    "exact_dp": "lattice DP only (inequality grid with Levy bisection, exact weak-law "
    "capacities to n=2048); nothing is sampled and the output is seed-independent",
    "small_calls": "every layer through many small calls: three-series loop, Pareto "
    "quadrature, axiom suite and 2000 short paths with mean-set distance queries",
}
WORKLOADS = tuple(WHY)

# Worker threads per workload; capped at nproc when the benchmark runs.
JOBS = {"slln_1d": 2, "cluster_2d": 1, "exact_dp": 1, "small_calls": 1}


def configs(workload: str, seed: int, small: bool = False) -> list[dict]:
    """Config documents of one workload; small=True shrinks every size for the self-test."""
    s = seed
    if workload == "slln_1d":
        return [_doc(E1, "slln", {"N": 20_000 if small else 1_000_000}, [s, s + 1, s + 2])]
    if workload == "cluster_2d":
        return [_doc(V2MIX, "cluster_set", {"N": 20_000 if small else 1_000_000}, [s, s + 1, s + 2])]
    if workload == "exact_dp":
        grid = {"ns": [8, 16] if small else [32, 64, 128], "xs": [1, 2, 4], "levy_alphas": [0.3]}
        weak = {"mode": "exact", "ns": [32, 64] if small else [256, 512, 1024, 2048]}
        return [_doc(E1, "inequality_grid", grid), _doc(E1, "weak_lln", weak)]
    if workload == "small_calls":
        series = {"N": 2_000, "N0": 200} if small else {}
        choquet = {"K": 1_000} if small else {}
        axioms = {"axiom_seed": _AXIOM_SEED_OFFSET + s}
        if small:
            axioms["trials"] = 50
        mc = {"mode": "mc", "ns": [64] if small else [1024], "mc_replicas": 20 if small else 500}
        return [
            _doc(E1, "three_series", series, [s]),
            _doc(PARETO, "choquet_series", choquet),
            _doc(E1, "axioms", axioms),
            _doc(V2MIX, "weak_lln", mc),
        ]
    raise KeyError(f"unknown workload {workload!r}; expected one of {list(WORKLOADS)}")


def _doc(model: dict, experiment: str, parameters: dict, seeds: list | None = None) -> dict:
    doc = {"model": model, "experiment": experiment, "parameters": parameters}
    if seeds is not None:
        doc["seeds"] = seeds
    return doc


def jobs_for(workload: str) -> int:
    return min(JOBS[workload], len(os.sched_getaffinity(0)))


# Per config at full size and DEFAULT_SEED: (sha256 of results.csv, exit code,
# data rows). A config whose document does not change with the seed is held to
# its pin at every seed; the others only at DEFAULT_SEED.
PINS = {
    "slln_1d": [
        ("702d0fb6544369ce4841d2072be8a7681592292f49a2ad20f211b492192002de", 0, 54),
    ],
    "cluster_2d": [
        ("4c5a89f4addd6a6ea6e100e7904c0a8bcfc696a48fa1a546379d4e013b56f9bf", 0, 15),
    ],
    "exact_dp": [
        ("a1119fb1177ecceb2c3166d05330ff261657b8e6687643816579c289519d2e15", 0, 36),
        ("ebe5f2ce6f24a7392129ff2195c58e93f9f0476e0547899a8c63eb092c942c97", 0, 9),
    ],
    "small_calls": [
        ("4d65eba0fd4248dc78f940816e7e607b162e61531c2b35d33f0c1f4a7208dfdc", 0, 8),
        ("723b50a67d2dbbf811cda717f1b0fe47b72d6a816e02fe3fb83ce100662038a4", 0, 5),
        ("3de9b5e18c77e75a47111bb6a51632900215917d2db217ec445584890382bfc7", 0, 8),
        ("58abdff80df731e35fcfaa4ab07237012e460d956c4aae51bc4b83a76267836a", 0, 4),
    ],
}
