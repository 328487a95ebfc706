"""The bits of the identity suite, pinned.

``identity_suite`` draws seeded tensors for every (n, p) cell and reports
the worst residual of each identity.  Each value below is the sha256 of
the canonical report bytes (``io.dumps_report``) for two trials per cell
over dims 2..5 and degrees 0..4.  A digest here may move only with a cause
listed in CHANGES.md; a faster suite that keeps the arithmetic keeps both.
``python tests/test_golden_identities.py`` prints the digests of the tree
it runs on.
"""

import hashlib

import pytest

from symkt import io
from symkt.suites import identity_suite

GOLDEN = {
    42: "9836599a0ed7530b5d18a7c582f3235511e8dea7f007e151f626f0a556db7975",
    7: "bb9c2bb32d03588521c7129a8b99b8d14cd73765e3774b56aeadf0a5d08410a5",
}


def digest(seed):
    report = identity_suite("2..5", "0..4", trials=2, seed=seed)
    return hashlib.sha256(io.dumps_report(report.to_dict()).encode()).hexdigest()


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_identity_report_bits_are_pinned(seed):
    assert digest(seed) == GOLDEN[seed]


if __name__ == "__main__":
    for seed in sorted(GOLDEN):
        print(f"    {seed}: \"{digest(seed)}\",")
