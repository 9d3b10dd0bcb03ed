"""Metamorphic checks: symmetries of the problem give exact answers at any size, with no second implementation.

The definitions read the same right to left: reversing the input and every
sensitive pattern reverses each non-sensitive window and their order, and so
the chains and their junctions.  Sizes reach past the exhaustive oracles.
"""

import random

from seqsan import build_instance, etfs_sanitize, tfs_sanitize
from conftest import random_instance


def _reversed(inst):
    """The instance of the reversed input, with every sensitive pattern reversed."""
    return build_instance(inst.text[::-1], inst.k, patterns=[pat[::-1] for pat in inst.sensitive_patterns])


def _instances(seed, count, long_every):
    """Seeded instances: short ones at any rate, and every `long_every`-th one of 100-400 letters with sparse secrets."""
    rng = random.Random(seed)
    for case in range(count):
        if case % long_every == 0:
            rate = rng.choice((0.01, 0.03, 0.06))
            yield random_instance(rng, 100, 400, sigmas=(2, 3, 4, 10), ks=(2, 3, 4, 5, 6), sensitive_rate=rate)
        else:
            rate = rng.choice((0.05, 0.2, 0.35, 0.6, 0.9))
            yield random_instance(rng, 2, 40, sigmas=(1, 2, 3, 4), ks=(1, 2, 3, 4, 5, 6), sensitive_rate=rate)


def test_reversal_reverses_the_tfs_output():
    # The chains of the reversed input are the reversed chains, in reverse order.
    seen = {"long separated": 0, "short separated": 0, "empty": 0}
    for inst in _instances(41, 2000, long_every=20):
        x = tfs_sanitize(inst)
        assert tfs_sanitize(_reversed(inst)) == x[::-1], (inst.text, inst.k, sorted(inst.sensitive_patterns))
        seen["long separated" if inst.n >= 100 else "short separated"] += "#" in x
        seen["empty"] += not x
    assert min(seen.values()) >= 50, seen


def test_reversal_keeps_the_etfs_distance():
    # The language of the reversed instance is the reversed language, and edit
    # distance is the same read backwards.  Witnesses may differ: the tie order
    # is not symmetric.
    seen = {"long edited": 0, "short edited": 0, "no chain": 0}
    for inst in _instances(42, 580, long_every=5):
        res = etfs_sanitize(inst)
        assert etfs_sanitize(_reversed(inst)).distance == res.distance, (inst.text, inst.k, sorted(inst.sensitive_patterns))
        seen["long edited" if inst.n >= 100 else "short edited"] += res.distance > 0
        seen["no chain"] += not inst.chains
    assert min(seen.values()) >= 20, seen
