"""Golden bytes: one small run per experiment, pinned by sha256.

Each config runs through `run` end to end and the digests of its
results.csv, resolved_config.json and results.json are compared with frozen
values computed before the experiment table was consolidated; every run is
checked at one and at two worker threads. The CSV carries the run id, a hash
of the resolved config, so a default that changes its JSON type (1000000 vs
1000000.0) moves every digest. Runs write into a relative directory because
resolved_config.json records it.
"""

import hashlib
import json

import pytest

from subexp import EXPERIMENTS, parse_config, run

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

_FILES = ("results.csv", "resolved_config.json", "results.json")

# name -> (config document, sha256 of each of _FILES)
GOLDEN = {
    "slln": (
        {"model": E1, "experiment": "slln", "parameters": {"N": 2000}, "seeds": [1, 2]},
        "eff8b09a97f6797d39163e42df6a121886bdb528fb94945f857608cdaeee498d",
        "4b39190665d97b952c1b5e5b981c5df826d1c940436a454eb1460e244271da47",
        "28af54df6c4c2b73f59f30c8b330f5f21bdcdb57adb8b26a13d0645211654492",
    ),
    "marcinkiewicz": (
        {"model": E1, "experiment": "marcinkiewicz", "parameters": {"N": 3000}, "seeds": [4]},
        "97ec822a0e03b5aa97e683a5c2ab2108a888673fd7a442f0ed0f2a33ba6a9c91",
        "cedc6f0e65868a276738ac2533b08ffb3c29704bd60951f76d553bd936a8175e",
        "416a5bd865798b566fee80e7a2d77419f3630a591a9208fd1fca331545d89330",
    ),
    "weak_lln_exact": (
        {"model": E1, "experiment": "weak_lln", "parameters": {"ns": [16, 8]},
         "lattice_quantum": 0.5},
        "412161091a378e9138b7dd2d5ff7116468bd32d435682f58bd52b57656a9b179",
        "208ebd4cfb200ad7e0a05e45825d85bcfffb187506020d7079833eb1b6367e29",
        "64d6d2675e331d2c0ece0f1e36a1e597b581b57b856ca3b750174874a34298d2",
    ),
    "weak_lln_mc": (
        {"model": V2MIX, "experiment": "weak_lln",
         "parameters": {"mode": "mc", "ns": [16], "mc_replicas": 6}},
        "24ff287e8f9fed4e5fbd3628d6fcb86f440a6e774c977ca3f6d563fddd6745f5",
        "133db820246a70d8062bf30134b10b89dc4bfcfd385ff6718ae4ca59e3d7bdcf",
        "ad257bd81c42fe34de328e9a70496be16302a9f95301ccd8f10328bbeda8fd45",
    ),
    "three_series": (
        {"model": E1, "experiment": "three_series", "parameters": {"N": 2000, "N0": 200},
         "seeds": [7]},
        "72d04f0dd0abb63b622c856a60da1c3832b959d2b4fa6715f0da103f366d5365",
        "8695c6a54f43be26b824b883e8eddaf379f1b61a7acff2731b82de718cacbf53",
        "6419ca2fe319787978b045ff76bfd57662164286690946848c6849108066d3f0",
    ),
    "cluster_set": (
        {"model": V2MIX, "experiment": "cluster_set", "parameters": {"N": 3000}, "seeds": [1]},
        "878c44782777b87657f5ea7cb0a032644ef8b7135bc9964dc95f8ad9e0e0b4c5",
        "a939831e97e13e0e70238d19269c7a8514e3f40d23cf7979d5b55f1465bddde7",
        "f3fb36e0e1f527ac0e38a69c06e4d1ecec9196c620b2cd4b0c6b92602d8ab214",
    ),
    "inequality_grid": (
        {"model": E1, "experiment": "inequality_grid",
         "parameters": {"ns": [4, 12], "xs": [2.0, 1.0], "levy_alphas": [0.3]}},
        "200e183e454397faa0bd4271c66f85f4ec1a3589bd8a3ebc5f4859c02b009cf5",
        "19ffc654989fbf3c8425aa8a56e85b9c5585a4d74230fc993106916c89975fe0",
        "d3def16e6898d02ca1a2d6ecb51217b094db10d305d172647fe9d21a70bbb936",
    ),
    "choquet_series": (
        {"model": PARETO, "experiment": "choquet_series", "parameters": {"K": 1000}},
        "55bd455bc49a3dd55f3ddfe36868a4bfba853134253c222aa39785c7904ffad6",
        "03988befe4133378b6aba3607fe0e519afe898b01ea6ad8a4af81d56a00b6048",
        "f4a6f1c16e7e4fb86c8fff4a03fefb1b219287c080cad9c44e5b7c83ac6ee7a4",
    ),
    "axioms": (
        {"model": E1, "experiment": "axioms", "parameters": {"trials": 40}},
        "fef5d28ef73e445a7c38236b999c03be9c71946bd0699dab3febf679bac6fc68",
        "346b072f7c4a8716c8997eb9abcb2d2eb416e0c471c88f133b4b5e8ed7a2df2a",
        "624b7e9d1bd81b8f58a1edd5c911daf8780c4ee31a2570d7e429c824178a4783",
    ),
}


def _sha(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_golden_covers_every_experiment():
    assert {entry[0]["experiment"] for entry in GOLDEN.values()} == set(EXPERIMENTS)


@pytest.mark.parametrize(
    "name, jobs",
    # The jobs=1 cases are named by their config alone.
    [pytest.param(n, j, id=n if j == 1 else f"{n}-jobs{j}")
     for j in (1, 2) for n in sorted(GOLDEN)],
)
def test_golden_bytes(name, jobs, tmp_path, monkeypatch):
    doc, *digests = GOLDEN[name]
    monkeypatch.chdir(tmp_path)
    run(parse_config(json.dumps(doc)), out=name, jobs=jobs)
    assert [_sha(tmp_path / name / f) for f in _FILES] == digests
