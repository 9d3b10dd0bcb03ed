"""The verifiers against their direct definitions, on seeded sweeps.

`verify` decides C1, P1, Pi1 and P2 on the overlap-chain spelling of the
source and the candidate.  The checker below decides every level window by
window, with position scans and no helper from the package, so the two share
no code.
"""

import random
from collections import Counter

from seqsan import (
    Infeasible,
    mcsr_sanitize,
    metrics,
    pfs_sanitize,
    tfs_sanitize,
    uniform_cost_model,
    verify,
    verify_levels,
)
from seqsan.metrics import VERIFY_LEVELS, VerifyResult
from conftest import random_instance


def _windows(s, k):
    return [s[i : i + k] for i in range(len(s) - k + 1) if "#" not in s[i : i + k]]


def _count(s, pattern):
    return sum(s.startswith(pattern, i) for i in range(len(s)))


def direct_verify(cand, inst, level):
    text, k, n = inst.text, inst.k, inst.n
    want = [text[i : i + k] for i in range(n - k + 1) if text[i : i + k] not in inst.sensitive_patterns]
    got = _windows(cand, k)
    if level == "C1":
        for i in range(len(cand) - k + 1):
            win = cand[i : i + k]
            if "#" not in win and win in inst.sensitive_patterns:
                offset = i - cand.rfind("#", 0, i) - 1
                return VerifyResult(level, False, f"sensitive window {win!r} at block offset {offset}")
        return VerifyResult(level, True)
    if level == "P1":
        if want == got:
            return VerifyResult(level, True)
        bad = next((i for i, (a, b) in enumerate(zip(want, got)) if a != b), min(len(want), len(got)))
        return VerifyResult(level, False, f"window order diverges at chain index {bad}")
    if level == "Pi1":
        chains = []
        for win in want:
            if chains and chains[-1][len(chains[-1]) - k + 1 :] == win[: k - 1]:
                chains[-1] += win[-1]
            else:
                chains.append(win)
        for chain, mult in Counter(chains).items():
            have = _count(cand, chain)
            if have < mult:
                return VerifyResult(level, False, f"chain {chain!r} needed {mult}x, found {have}x")
        return VerifyResult(level, True)
    if level == "P2":
        want_c, got_c = Counter(want), Counter(got)
        if want_c == got_c:
            return VerifyResult(level, True)
        pat = next(iter((want_c - got_c) + (got_c - want_c)))
        return VerifyResult(level, False, f"frequency of {pat!r}: expected {want_c[pat]}, got {got_c[pat]}")
    if level == "P3":
        seps, limit = cand.count("#"), (n - k + 1) // 2
        if seps > limit:
            return VerifyResult(level, False, f"{seps} separators exceed the bound {limit}")
        for idx, block in enumerate(cand.split("#") if seps else ()):
            if len(block) < k:
                return VerifyResult(level, False, f"block {idx} has length {len(block)} < k")
        return VerifyResult(level, True)
    bound = ((n - k + 2) // 2) * k + (n - k + 1) // 2
    if len(cand) > bound:
        return VerifyResult(level, False, f"length {len(cand)} outside 0..{bound}")
    return VerifyResult(level, True)


def _mutate(rng, s, letters):
    s = list(s)
    for _ in range(rng.randint(1, 3)):
        pos = rng.randrange(len(s) + 1)
        op = rng.randrange(3)
        if op == 1 or pos == len(s):
            s.insert(pos, rng.choice(letters + "#"))
        elif op == 0:
            s[pos] = rng.choice(letters + "#")
        else:
            del s[pos]
    return "".join(s)


def _candidates(rng, inst):
    """Sanitizer outputs, their perturbations, the source and random strings."""
    x = tfs_sanitize(inst)
    y = pfs_sanitize(inst)
    out = [x, y, inst.text, "", "#"]
    try:
        out.append(mcsr_sanitize(y, inst, uniform_cost_model(tau=rng.randint(1, 3))).text)
    except Infeasible:
        pass
    letters = inst.alphabet.chars
    out += [_mutate(rng, x, letters), _mutate(rng, y, letters)]
    blocks = x.split("#")
    rng.shuffle(blocks)
    out.append("#".join(blocks))
    blocks.insert(0, blocks[-1])
    out.append("#".join(blocks))  # one chain twice
    out.append(x.replace("#", ""))
    # One window short of the source's sequence, and one past it: P1 diverges where the shorter one ends.
    out += [x[:-1], x + letters[0]]
    out.append("".join(rng.choice(letters + "#") for _ in range(rng.randint(1, 2 * inst.n))))
    return out


def test_chain_spelling_verifiers_match_direct_definitions():
    rng = random.Random(41)
    failed = Counter()
    for _ in range(2000):
        inst = random_instance(rng, n_min=2, n_max=24, sigmas=(1, 2, 3, 4), ks=(1, 2, 3, 4, 5), sensitive_rate=rng.random())
        for cand in _candidates(rng, inst):
            for level in VERIFY_LEVELS:
                want = direct_verify(cand, inst, level)
                assert verify(cand, inst, level) == want, (inst.text, inst.k, sorted(inst.sensitive_patterns), cand)
                failed[level] += not want.ok
    # Both outcomes of every chain-spelling level were exercised.
    assert all(failed[level] > 100 for level in ("C1", "P1", "Pi1", "P2")), failed


def test_pfs_and_mcsr_outputs_pass_on_wide_sweep():
    rng = random.Random(42)
    replaced = 0
    for _ in range(4000):
        inst = random_instance(rng, n_min=2, n_max=8, sigmas=(1, 2, 3), ks=(1, 2, 3, 4))
        case = (inst.text, inst.k, sorted(inst.sensitive_patterns))
        y = pfs_sanitize(inst)
        for res in verify_levels(y, inst, ("C1", "Pi1", "P2", "P3", "P4")):
            assert res.ok, (case, y, res)
        try:
            z = mcsr_sanitize(y, inst, uniform_cost_model(tau=rng.randint(1, 3))).text
        except Infeasible:
            continue
        replaced += "#" in y
        assert verify(z, inst, "C1").ok, (case, y, z)
    assert replaced > 100


def test_verify_levels_calls_verify_once_per_level_positionally(example1, monkeypatch):
    # A benchmark labels its per-level spans from exactly these arguments.
    calls = []
    inner = metrics.verify

    def spy(*args, **kwargs):
        calls.append((args, kwargs))
        return inner(*args, **kwargs)

    monkeypatch.setattr(metrics, "verify", spy)
    x = tfs_sanitize(example1)
    assert [r.level for r in verify_levels(x, example1)] == list(VERIFY_LEVELS)
    assert calls == [((x, example1, level), {}) for level in VERIFY_LEVELS]
    calls.clear()
    assert [r.level for r in verify_levels(x, example1, ("P4", "C1"))] == ["P4", "C1"]
    assert calls == [((x, example1, "P4"), {}), ((x, example1, "C1"), {})]
