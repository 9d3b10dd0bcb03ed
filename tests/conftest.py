"""Shared helpers: deterministic random instances and the worked examples."""

import random

import pytest

from seqsan import SanitizationInstance, build_instance
from oracles import nonsensitive_starts

LETTER_POOL = "abcdefghij"


def random_instance(
    rng: random.Random,
    n_min: int = 8,
    n_max: int = 60,
    sigmas=(2, 3, 4),
    ks=(2, 3, 4, 5),
    sensitive_rate: float = 0.35,
) -> SanitizationInstance:
    """Uniform random text with a random subset of its windows marked sensitive."""
    sigma = rng.choice(sigmas)
    n = rng.randint(n_min, n_max)
    letters = LETTER_POOL[:sigma]
    text = "".join(rng.choice(letters) for _ in range(n))
    k = rng.choice([k for k in ks if k < n])
    windows = sorted({text[i : i + k] for i in range(n - k + 1)})
    patterns = [w for w in windows if rng.random() < sensitive_rate]
    return build_instance(text, k, patterns=patterns)


def check_tfs_definition(x: str, inst: SanitizationInstance) -> None:
    """Check a TFS output against the definition alone, without the package's chain spelling or verifiers.

    Its separator-free windows, read left to right, are the source's
    non-sensitive windows in order; every block has at least k letters; and no
    two adjacent blocks overlap by k-1 letters, so no separator could go.
    """
    text, k = inst.text, inst.k
    blocks = x.split("#") if x else []
    windows = [b[i : i + k] for b in blocks for i in range(len(b) - k + 1)]
    assert windows == [text[i : i + k] for i in nonsensitive_starts(inst)]
    assert all(len(b) >= k for b in blocks), blocks
    for left, right in zip(blocks, blocks[1:]):
        assert left[len(left) - k + 1 :] != right[: k - 1], (left, right)


@pytest.fixture
def example1() -> SanitizationInstance:
    return build_instance("aabaaacbcbbbaabbacaab", 4, patterns=["baaa", "bbaa"])


@pytest.fixture
def example4() -> SanitizationInstance:
    # order-3 de Bruijn text over {a,b}; the three marked windows are distinct
    return build_instance("baaabbbaba", 4, positions=[1, 3, 5])


@pytest.fixture
def example_all_sensitive() -> SanitizationInstance:
    return build_instance("aaaaaab", 4, patterns=["aaaa", "aaab"])


@pytest.fixture
def example_merge_chain() -> SanitizationInstance:
    return build_instance(
        "aaabbaabaccbbb", 4, patterns=["aabb", "abba", "bbaa", "baab", "ccbb"]
    )
