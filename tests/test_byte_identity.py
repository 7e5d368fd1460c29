"""The tree report of each fixture and small lattice is pinned byte for byte.

The digests are sha256 of ``render_tree(run_chain(m), compare_spans(...),
consistency_algorithm(m))``, recorded before the chain and the oracle
were moved onto the incremental echelon basis.  Any change to a
constraint, remainder, null vector, determinant or span verdict shows
up here.

``BATCH_DIGEST`` pins the tree and text reports of 400 ``randmodels``
models and lattice N in {9, 11} under three option sets, one sha256
over all of them, recorded before the chain's columns were bordered in
place.
"""

import hashlib
import random
from fractions import Fraction

import pytest

from conftest import MODELS_DIR
from randmodels import random_model
from symchain import (
    ChainOptions,
    LatticeSpec,
    build_schwinger,
    compare_spans,
    consistency_algorithm,
    load_model,
    run_chain,
)
from symchain.reports import render_text, render_tree

DIGESTS = {
    "example2": "16472c9e457e8cdc3de3d2773ccf86c1ae6295eeff19f9ee59d3ce3b164d3238",
    "free_particle": "c7c5ec66a11f3f644bea92a5f2f37140b72028ecde950f01b89f614164b0fada",
    "schwinger_n3": "9a028c4b50db50c103e4e0234afd0c5edb4778c95a3488f95cecebf0db0c458b",
    "lattice_3": "9a028c4b50db50c103e4e0234afd0c5edb4778c95a3488f95cecebf0db0c458b",
    "lattice_5": "b89eb3d4cb8287a775918f54de79fdaa86dbfb540d5edd38bc7ea409ecbe78f0",
    "lattice_7": "4d5b5462c29a98c2a78f277928d7f63be21374e0f699532179a6dd7745ee79d6",
}

BATCH_DIGEST = "90c10f7b1e218c1b944af4f2e473277353eb29c38f7af9b70ccb1af0da2c5a97"
BATCH_OPTIONS = (
    ChainOptions(),
    ChainOptions(allow_truncation=False),
    ChainOptions(max_level=2),
)


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


def test_batch_report_digest():
    models = [random_model(random.Random(seed)) for seed in range(5000, 5400)]
    models += [build_schwinger(LatticeSpec(sites=n, spacing=Fraction(1))) for n in (9, 11)]
    digest = hashlib.sha256()
    for m in models:
        oracle = consistency_algorithm(m)
        for opts in BATCH_OPTIONS:
            report = run_chain(m, opts)
            verdict = compare_spans(report, oracle.constraints)
            digest.update(render_tree(report, verdict, oracle).encode())
            digest.update(render_text(report, verdict, oracle).encode())
    assert digest.hexdigest() == BATCH_DIGEST
