"""The package's record types: construction, equality, hashing, repr and read-only fields."""

from collections import Counter

import pytest

from seqsan import (
    Alphabet,
    CostModel,
    MatchResult,
    McsrResult,
    MckElement,
    SanitizationInstance,
    VerifyResult,
)
from seqsan.cli import MetricsReport

ALPHA = Alphabet(("a", "b"))
INST_FIELDS = {"text": "abba", "k": 2, "alphabet": ALPHA, "sensitive_patterns": frozenset({"bb"}), "mask": b"\x00\x01\x00"}
MCSR_FIELDS = {
    "text": "abab",
    "choices": ("a",),
    "ghost_cost": 1.0,
    "total_weight": 1,
    "site_windows": ((1, "ba"), (1, "ab")),
    "exposed_counts": Counter({"ab": 2}),
}

# Per record type: the fields in order, a second value for one field that equality reads, and the exact repr.
RECORDS = [
    (Alphabet, {"tokens": ("a", "b"), "token_mode": False}, ("tokens", ("a", "c")), "Alphabet(tokens=('a', 'b'), token_mode=False)"),
    (
        SanitizationInstance,
        INST_FIELDS,
        ("mask", b"\x00\x00\x00"),
        "SanitizationInstance(text='abba', k=2, alphabet=Alphabet(tokens=('a', 'b'), token_mode=False), "
        "sensitive_patterns=frozenset({'bb'}))",
    ),
    (
        CostModel,
        {"ghost": 1.0, "sub": {"": 0}, "sub_default": 1, "theta": None, "tau": 2},
        ("theta", 3.0),
        "CostModel(ghost=1.0, sub={'': 0}, sub_default=1, theta=None, tau=2)",
    ),
    (MckElement, {"choice": "a", "cost": 2.0, "weight": 1}, ("weight", 0), "MckElement(choice='a', cost=2.0, weight=1)"),
    (VerifyResult, {"level": "P2", "ok": False, "detail": "why"}, ("ok", True), "VerifyResult(level='P2', ok=False, detail='why')"),
    (
        MatchResult,
        {"text": "a#b", "distance": 2, "trace": (("a", "a"),), "shortest_distance": 3},
        ("distance", 1),
        "MatchResult(text='a#b', distance=2, trace=(('a', 'a'),), shortest_distance=3)",
    ),
    (
        McsrResult,
        MCSR_FIELDS,
        ("choices", ("",)),
        "McsrResult(text='abab', choices=('a',), ghost_cost=1.0, total_weight=1, site_windows=((1, 'ba'), (1, 'ab')))",
    ),
    (MetricsReport, {"pipeline": "tpm", "lengths": {"w": 4}}, ("pipeline", "tm"), None),
]
IDS = [cls.__name__ for cls, *_rest in RECORDS]
UNHASHABLE = (CostModel, MetricsReport)  # a CostModel holds its `sub` dict; a MetricsReport is mutable


@pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=IDS)
def test_construction_by_position_and_by_keyword(cls, fields, changed, text):
    by_keyword = cls(**fields)
    assert cls(*fields.values()) == by_keyword
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value


def test_defaults():
    assert Alphabet(("a",)).token_mode is False
    assert VerifyResult("C1", True).detail is None
    match = MatchResult("ab", 0)
    assert (match.trace, match.shortest_distance) == (None, None)
    report = MetricsReport("tfs")
    assert (report.pipeline, report.lengths, report.lost, report.ghost, report.runtimes_ms) == ("tfs", {}, [], [], {})
    assert (report.distortion, report.edre, report.edit_distance, report.implausible_pct) == (None,) * 4
    assert MetricsReport("tfs").lengths is not report.lengths  # each report gets its own containers


@pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=IDS)
def test_equality_reads_the_fields(cls, fields, changed, text):
    a, b = cls(**fields), cls(**fields)
    other = cls(**{**fields, changed[0]: changed[1]})
    assert a == b and not a != b
    assert a != other and not a == other
    if cls in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)


@pytest.mark.parametrize(
    "cls, fields, derived, value",
    [(MatchResult, RECORDS[5][1], "shortest_distance", None), (McsrResult, MCSR_FIELDS, "exposed_counts", Counter())],
    ids=["MatchResult", "McsrResult"],
)
def test_a_derived_field_stays_out_of_equality_and_hashing(cls, fields, derived, value):
    a, b = cls(**fields), cls(**{**fields, derived: value})
    assert a == b and not a != b
    assert hash(a) == hash(b)
    assert getattr(b, derived) == value


@pytest.mark.parametrize("cls, fields, changed, text", [r for r in RECORDS if r[3] is not None], ids=IDS[:-1])
def test_repr_shows_the_fields_but_the_mask_and_the_exposed_counts(cls, fields, changed, text):
    assert repr(cls(**fields)) == text


@pytest.mark.parametrize("cls, fields, changed, text", RECORDS, ids=IDS)
def test_fields_are_read_only_but_in_a_metrics_report(cls, fields, changed, text):
    record = cls(**fields)
    name, value = changed
    if cls is MetricsReport:
        setattr(record, name, value)
        assert getattr(record, name) == value
        return
    for field in fields:
        with pytest.raises(AttributeError):
            setattr(record, field, value)
    assert getattr(record, name) == fields[name]


def test_cached_values_are_kept_with_the_instance():
    inst = SanitizationInstance(**INST_FIELDS)
    assert "counts" not in vars(inst)
    assert inst.counts is inst.counts == Counter({"ab": 1, "bb": 1, "ba": 1})
    assert vars(inst)["counts"] is inst.counts
    assert inst.sensitive_positions == frozenset({1})
    assert ALPHA.chars == "ab" and vars(ALPHA)["chars"] == "ab"
