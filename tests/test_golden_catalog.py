"""The judged output of every catalog entry, pinned.

Each catalog entry declares the verdicts ``classify`` must reproduce on it
(``broken-*`` controls declare a residual that must stay above a floor).
Three readers judge a report against that declaration: the constructor
cases of the geometry suite, ``verify`` and ``geodesic``.  Pinned below:

- ``SUITE``: the sha256 of the canonical bytes (``io.dumps_report``) of a
  report holding only the constructor cases, seed 42, 4 samples, drifts
  of 50 steps of 1e-3;
- ``GOLDEN[key]``: the sha256 of the ``verify --samples 4 --json`` bytes
  and its exit code, then the ``pass`` value of ``geodesic
  --trajectories 2 --steps 200`` and its exit code, each on the entry's
  own manifold.

``GOLDEN`` lists the keys in catalog order, which is the order of the
suite's cases.  A value here may move only with a cause listed in
CHANGES.md.  ``python tests/test_golden_catalog.py`` prints the values of
the tree it runs on.
"""

import contextlib
import hashlib
import json
import os
import tempfile
from pathlib import Path

import pytest

from symkt import io
from symkt.cli import main
from symkt.constructors import constructor_catalog
from symkt.suites import SuiteReport, _constructor_cases

SUITE = "0775fa43d5068802b098c7a09d8ed2d3abd566ff78ed2e8c5e7db2aec84bbb17"

GOLDEN = {
    "metric": ("6df57d20227926315672622fb330ac3aa453bbec4c367c32488ec712caa08229", 0, True, 0),
    "sphere-curvature": ("f17b98ce7f363c5e335407633a5818a2826ba8c794ea63330d9fe6fbebee18ef", 0, True, 0),
    "sphere-curvature-weyl": ("4542e7ec928df7247d5a9fe6d0aac72de562083b791a3791be4d1bc604a8992d", 0, True, 0),
    "sym-product": ("f315d902c8f0d656a385fbfc72bcf26ed38a2fe6ba1c65c88501a60a1d78e189", 0, True, 0),
    "sym-product-hopf": ("d52416660dd0ff1e6a406ea141a555255a1f923ab26f56d061f17d8dd75c9658", 0, True, 0),
    "sasakian-stackel": ("bf2cab94366aba5ef2e3d7a2e4adb100bc9b5071a7ea6cbe45bdb4ba3b9d7ae7", 0, True, 0),
    "killing-form:q=1": ("186ec3b767c7fca8a4db4ca00be5684edc9adb4120369d72cb2bbf7fa5f87920", 0, True, 0),
    "killing-form:q=2": ("8046316c86715f7d24818637a04d85e8619d7e43d89e8bb256621e1d2b812a47", 0, True, 0),
    "special-flat": ("f94cd8900a0ae97f0175b9be2061d497d15b59e1e7ee6af067991b5b42fd84a9", 0, True, 0),
    "special-flat-hat": ("787bb436a95d83fc38ed3cac50339b92b41d74b9585a2ce08f26b4422d3cc9f8", 0, True, 0),
    "hopf-stackel": ("9164213d5a1171655cd56c4d675ab457912049935cf7e62628f1ae4ea1889ac7", 0, True, 0),
    "product-ckt": ("c523b008b587def233aa9d8ccaa99d3ecf498d12bd797ebc7a5d37d550b2b1be", 0, True, 0),
    "broken-sphere-curvature": ("162febee6666cd289b98925bfb342968ce683f8b691e93ec56c3aa7dac32da2c", 0, True, 0),
    "broken-sym-product": ("7dba6194223a09c609468dbd64b32d0442b937409b1d9362b26ce139e436281c", 0, True, 0),
    "broken-killing-form": ("10602c31c2cf7208ee9889361ec3d3f089d12c3ca60b46207dc942ffea5b6cec", 0, True, 0),
    "broken-special-hat": ("caeaa49e051703a3c0cd13d7198f2d41b0a31aca15c0ea060d158c181b7f435a", 0, True, 0),
    "broken-hopf-stackel": ("a0460f9778f89f115ced51e1eba966cd1f0afd9fd8710a386e876fadaa544592", 0, True, 0),
    "broken-product-ckt": ("3c46591fe339573c1eca813b1bc193cf75559c09a253fe73e2770599182aaa95", 0, True, 0),
}


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def suite_digest():
    report = SuiteReport("geometry", 42, 1e-9)
    _constructor_cases(report, 42, 4, 50, 1e-3)
    return _sha256(io.dumps_report(report.to_dict()).encode())


def judged(key, tmp_dir):
    """(verify bytes digest, verify exit, geodesic pass, geodesic exit)."""
    where = ["--manifold", constructor_catalog()[key].manifold_key, "--construct", key]
    out = tmp_dir / "verify.json"
    verify_exit = main(["verify", *where, "--samples", "4", "--json", str(out)])
    verify_digest = _sha256(out.read_bytes())
    out = tmp_dir / "geodesic.json"
    geodesic_exit = main(["geodesic", *where, "--trajectories", "2", "--steps", "200",
                          "--json", str(out)])
    return verify_digest, verify_exit, json.loads(out.read_text())["pass"], geodesic_exit


def test_constructor_cases_are_pinned():
    assert suite_digest() == SUITE


def test_golden_lists_the_catalog_in_order():
    assert list(constructor_catalog()) == list(GOLDEN)


@pytest.mark.parametrize("key", list(GOLDEN))
def test_verify_and_geodesic_of_each_entry_are_pinned(key, tmp_path):
    assert judged(key, tmp_path) == GOLDEN[key]


if __name__ == "__main__":
    print(f'SUITE = "{suite_digest()}"')
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null:
        for key in constructor_catalog():
            with contextlib.redirect_stdout(null):
                digest, verify_exit, passed, geodesic_exit = judged(key, Path(tmp))
            print(f'    "{key}": ("{digest}", {verify_exit}, {passed}, {geodesic_exit}),')
