"""The tree report of each fixture and small lattice is pinned byte for byte.

The digests are sha256 of ``render_tree(run_chain(m), compare_spans(...),
consistency_algorithm(m))``, recorded before the chain and the oracle
were moved onto the incremental echelon basis.  Any change to a
constraint, remainder, null vector, determinant or span verdict shows
up here.
"""

import hashlib
from fractions import Fraction

import pytest

from conftest import MODELS_DIR
from symchain import (
    LatticeSpec,
    build_schwinger,
    compare_spans,
    consistency_algorithm,
    load_model,
    run_chain,
)
from symchain.reports import render_tree

DIGESTS = {
    "example2": "16472c9e457e8cdc3de3d2773ccf86c1ae6295eeff19f9ee59d3ce3b164d3238",
    "free_particle": "c7c5ec66a11f3f644bea92a5f2f37140b72028ecde950f01b89f614164b0fada",
    "schwinger_n3": "9a028c4b50db50c103e4e0234afd0c5edb4778c95a3488f95cecebf0db0c458b",
    "lattice_3": "9a028c4b50db50c103e4e0234afd0c5edb4778c95a3488f95cecebf0db0c458b",
    "lattice_5": "b89eb3d4cb8287a775918f54de79fdaa86dbfb540d5edd38bc7ea409ecbe78f0",
    "lattice_7": "4d5b5462c29a98c2a78f277928d7f63be21374e0f699532179a6dd7745ee79d6",
}


def _model(name):
    if name.startswith("lattice_"):
        sites = int(name.split("_")[1])
        return build_schwinger(LatticeSpec(sites=sites, spacing=Fraction(1)))
    return load_model(MODELS_DIR / f"{name}.model")


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_tree_report_digest(name):
    m = _model(name)
    report = run_chain(m)
    oracle = consistency_algorithm(m)
    tree = render_tree(report, compare_spans(report, oracle.constraints), oracle)
    assert hashlib.sha256(tree.encode()).hexdigest() == DIGESTS[name]
