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
  own manifold;
- ``SAMPLES[key]``: for build and sample seeds 42 and 7, the sha256 of
  every per-sample residual of ``classify(field, samples=5)`` (all its
  residual keys, as float64 bytes) and of its sample points, for every
  catalog entry and for L(hopf-stackel), the degree-4 field g . K of the
  Hopf-Stackel tensor.

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

import numpy as np
import pytest

from symkt import io
from symkt.classify import classify
from symkt.cli import main
from symkt.constructors import build_constructor, constructor_catalog
from symkt.fields import TensorField
from symkt.suites import SuiteReport, _constructor_cases
from symkt.symtensor import SymTensor, mult_L

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

SAMPLES = {
    "metric": (
        "60e7d60de20787a3f36e05afb607830d38659237c9d2783ba592f3a99a5cdfaa",
        "1c8f9750ed633dcda7cc19e815618f2e1b8686a09c16ecf968aced585c1df449",
        "60e7d60de20787a3f36e05afb607830d38659237c9d2783ba592f3a99a5cdfaa",
        "6d1205e29501173f1d2c42856fb817c73e61b872e79377054b80a00c3b7b7617",
    ),
    "sphere-curvature": (
        "92a2c3bdc8124d32ecc1d16aeeb01bce8692c84c17db4d7d4730b315303e2a85",
        "4093ec18f449a7aa6565c874d7c0997d53afc8cc5bb3e2b646438c870087825b",
        "dbdd263c0f15b2702409503178abe5a8594b1dcf7e0e2a2de3cbfbdd46cfa12c",
        "fb45089eab8f03306edc320f34847bbaec9787bcd90b0fb9d3f87c15c3219c14",
    ),
    "sphere-curvature-weyl": (
        "82fb064703771152cc8ec3677bc80cbbe188e5ba80edbbef9c482b1ad92cc5a1",
        "4093ec18f449a7aa6565c874d7c0997d53afc8cc5bb3e2b646438c870087825b",
        "0df79a23a8b4830e3fc5b1f1ef26255bc6280f8d8ada6e61f260e83dc5ad5897",
        "fb45089eab8f03306edc320f34847bbaec9787bcd90b0fb9d3f87c15c3219c14",
    ),
    "sym-product": (
        "5a194d7e7cf8e8c84af5f226ba301ac88b5e7bcb7b2796dea02ad8185fa695b1",
        "1c8f9750ed633dcda7cc19e815618f2e1b8686a09c16ecf968aced585c1df449",
        "bedaf3ef90c1a15a09aa9a72f8b48e11e6fabfa67928277050eb7f1366bb8a51",
        "6d1205e29501173f1d2c42856fb817c73e61b872e79377054b80a00c3b7b7617",
    ),
    "sym-product-hopf": (
        "15becd10b42fcd5190480f17cbaf115b88bc47c4b0cff97e431a72bfe6646fb9",
        "4093ec18f449a7aa6565c874d7c0997d53afc8cc5bb3e2b646438c870087825b",
        "c47fbf48356dcdc951bb3cded2cd8680c6b558eeb103999469d42e1a77d7915a",
        "fb45089eab8f03306edc320f34847bbaec9787bcd90b0fb9d3f87c15c3219c14",
    ),
    "sasakian-stackel": (
        "f39f7cd19eed254f1b52bac2021d139dfb0770a5a215fd44e49ae8dbb5339801",
        "4093ec18f449a7aa6565c874d7c0997d53afc8cc5bb3e2b646438c870087825b",
        "f5beb3542d46ba0cc91c2ae362e90259de746a36db6655564df267aa3df63d53",
        "fb45089eab8f03306edc320f34847bbaec9787bcd90b0fb9d3f87c15c3219c14",
    ),
    "killing-form:q=1": (
        "0c7b06b33501fa034877fc9efb260dc95e7e75a12ff496c07e4440f61430bdf1",
        "4093ec18f449a7aa6565c874d7c0997d53afc8cc5bb3e2b646438c870087825b",
        "637e54b44ffb76db6ca34fc07a2f44cc8c70051c33a4d37576f08f9639b963ec",
        "fb45089eab8f03306edc320f34847bbaec9787bcd90b0fb9d3f87c15c3219c14",
    ),
    "killing-form:q=2": (
        "b9a8fef1698f1073140d759d28d09f5ab0f336d3ac8c7029a7a4bd62deee3045",
        "e9fb8058a6750aff913a41fc43d2c5dc4917de8422841bdddc2f8d12ae2808ea",
        "06b5052de12edc3b7a44b9d2ca211571d2331e3ae2506e75177629349496420d",
        "a8c9a4b4745b0fb7ac84f0ad7b2cc2d021ad26cf63db45cbc9ee71fc3cae6b81",
    ),
    "special-flat": (
        "ad72303dc58feaf077ce6ee7b9e6acaaa23f4fc6778a36548ed4ecc189f380ce",
        "ccaf62ad2a05feb327db818abb75cd8009f4f3731981703c06d92484c4d2679d",
        "519e3f4b26f4cd6bcae36a1e0ca23eca129935257f6b0018b52c9329822c7346",
        "89b3cf1402a2ae5a9a725eb81b40e251f07255477cfc1b66327fac8ab92407eb",
    ),
    "special-flat-hat": (
        "293ae07beef0550594cc4a85c32d5bb6984b32a999dd854c1eb9724ecbea7f01",
        "ccaf62ad2a05feb327db818abb75cd8009f4f3731981703c06d92484c4d2679d",
        "fa5ba9f4739bebba02bd1c1de085122dce94f8e338ad628c10d46691f20fe34f",
        "89b3cf1402a2ae5a9a725eb81b40e251f07255477cfc1b66327fac8ab92407eb",
    ),
    "hopf-stackel": (
        "9b2e77c7562a39352b71097ac8f5c78f9a6776913263c421465bdd0c59d9e856",
        "4093ec18f449a7aa6565c874d7c0997d53afc8cc5bb3e2b646438c870087825b",
        "43140ad2db0064b35013b42aadc06285d7728917fca542e594fcc76b8bb1fd09",
        "fb45089eab8f03306edc320f34847bbaec9787bcd90b0fb9d3f87c15c3219c14",
    ),
    "product-ckt": (
        "94af15b091100dc37a8f444d8751c0c39d473099f871afa81d3b14b94a57ef40",
        "55db714887dba16dac94eeb72c2750bdcb7811109802b2c206b0f491687c0ea4",
        "d769c46828cce79631f7a90b0f7f11e439529e28188159044190a7fa0f84bc72",
        "06541f3c86ec71fcb1b66005287d945f311144ec6031c594cfed39c54a257573",
    ),
    "broken-sphere-curvature": (
        "4826c89240acbe5cb70246680803c0cedb37ffe03b8e45f9cdd427496aa616b5",
        "4093ec18f449a7aa6565c874d7c0997d53afc8cc5bb3e2b646438c870087825b",
        "fd951496abbdd84be8f661fe3c75c10958bdfd71865f3511ec535e6b13cf6f66",
        "fb45089eab8f03306edc320f34847bbaec9787bcd90b0fb9d3f87c15c3219c14",
    ),
    "broken-sym-product": (
        "b60f19c7afe6862c3e3912fb9f7e506809345304b1ab265bb26e51f20b1cc86e",
        "1c8f9750ed633dcda7cc19e815618f2e1b8686a09c16ecf968aced585c1df449",
        "c6a08bfc7a90a610093cf270e8b529cefa5d57e98238424c6b24832df5ad54ef",
        "6d1205e29501173f1d2c42856fb817c73e61b872e79377054b80a00c3b7b7617",
    ),
    "broken-killing-form": (
        "65273e2ca75870f127e3395edfd066ddeb56d717c0b1195a7dcc2096dc58026a",
        "4093ec18f449a7aa6565c874d7c0997d53afc8cc5bb3e2b646438c870087825b",
        "556f3495f74ceb8d9b7d05cd8f2f602b5d4fa2f45020f2e1ba1bc863f5a91a23",
        "fb45089eab8f03306edc320f34847bbaec9787bcd90b0fb9d3f87c15c3219c14",
    ),
    "broken-special-hat": (
        "f372f5f180103f87b67bd6f39563be33f1dbd261cbc86a16179fa6d6b46f09c1",
        "ccaf62ad2a05feb327db818abb75cd8009f4f3731981703c06d92484c4d2679d",
        "fb789e788a3a54b03238d7e5b98e3e3b1f427a31471d2b605550cb688fa5ed1b",
        "89b3cf1402a2ae5a9a725eb81b40e251f07255477cfc1b66327fac8ab92407eb",
    ),
    "broken-hopf-stackel": (
        "0704cb216c6d41c31e6cfca922338a049d73c0cc23b0345bca9513d35188af78",
        "4093ec18f449a7aa6565c874d7c0997d53afc8cc5bb3e2b646438c870087825b",
        "c3ac1c4ff8c23e967fd54844e99b8ae33a574a8b536e96999eee112b856dfb03",
        "fb45089eab8f03306edc320f34847bbaec9787bcd90b0fb9d3f87c15c3219c14",
    ),
    "broken-product-ckt": (
        "ebaa43fa7d692ab2a14b8807b340f9b775d5339081d6eb6e4c62c9c341f94dc8",
        "55db714887dba16dac94eeb72c2750bdcb7811109802b2c206b0f491687c0ea4",
        "8b40e2f1c0d8af950f776d778fb0c61e3264c5d0f357bf666305315180b1b1b1",
        "06541f3c86ec71fcb1b66005287d945f311144ec6031c594cfed39c54a257573",
    ),
    "L(hopf-stackel)": (
        "02ebdddf72886b08d9abe4b30f1df2a47f3cd6a8ea7b7eafe562f4ca1ccb823a",
        "4093ec18f449a7aa6565c874d7c0997d53afc8cc5bb3e2b646438c870087825b",
        "af69de70b68f6e4934360578389b247120c2ffeacd67b52aaf297fdf4f306dfc",
        "fb45089eab8f03306edc320f34847bbaec9787bcd90b0fb9d3f87c15c3219c14",
    ),
}

SAMPLE_SEEDS = (42, 7)


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


def sample_field(key, seed):
    """The catalog entry's field built with ``seed``; ``L(hopf-stackel)``
    is g . K of the Hopf-Stackel tensor K."""
    if key != "L(hopf-stackel)":
        return build_constructor(key, seed=seed)[0]
    hopf = build_constructor("hopf-stackel", seed=seed)[0]
    n = hopf.base.dim

    def comps(x):
        return mult_L(SymTensor(n, hopf.degree, hopf.comps_fn(x))).entries()

    return TensorField(hopf.base, hopf.degree + 2, comps, name=key)


def sample_digests(key):
    """(residuals digest, points digest) of 5 samples, for each sample seed."""
    out = []
    for seed in SAMPLE_SEEDS:
        report = classify(sample_field(key, seed), samples=5, seed=seed)
        h = hashlib.sha256()
        for name in sorted(report.residuals):
            values = np.asarray(report.residuals[name], dtype=np.float64)
            h.update(f"{name}:{values.size}:".encode() + values.tobytes())
        out += [h.hexdigest(), _sha256(np.asarray(report.points, dtype=np.float64).tobytes())]
    return tuple(out)


def test_constructor_cases_are_pinned():
    assert suite_digest() == SUITE


def test_golden_lists_the_catalog_in_order():
    assert list(constructor_catalog()) == list(GOLDEN)


@pytest.mark.parametrize("key", list(GOLDEN))
def test_verify_and_geodesic_of_each_entry_are_pinned(key, tmp_path):
    assert judged(key, tmp_path) == GOLDEN[key]


def test_samples_list_the_catalog_and_its_degree_raised_field():
    assert list(SAMPLES) == [*constructor_catalog(), "L(hopf-stackel)"]


@pytest.mark.parametrize("key", list(SAMPLES))
def test_every_sample_of_each_entry_is_pinned(key):
    assert sample_digests(key) == SAMPLES[key]


if __name__ == "__main__":
    print(f'SUITE = "{suite_digest()}"')
    with tempfile.TemporaryDirectory() as tmp, open(os.devnull, "w") as null:
        for key in constructor_catalog():
            with contextlib.redirect_stdout(null):
                digest, verify_exit, passed, geodesic_exit = judged(key, Path(tmp))
            print(f'    "{key}": ("{digest}", {verify_exit}, {passed}, {geodesic_exit}),')
    print("SAMPLES = {")
    for key in [*constructor_catalog(), "L(hopf-stackel)"]:
        print(f'    "{key}": (')
        for digest in sample_digests(key):
            print(f'        "{digest}",')
        print("    ),")
    print("}")
