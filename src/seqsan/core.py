"""Instance model: alphabets, sensitive-occurrence bookkeeping, and k-mer counting.

A sanitization instance fixes a sequence, a pattern length k, and a closed set
of sensitive occurrence positions.  Closure means: if one occurrence of a
pattern is sensitive, every occurrence of that pattern is.  Every sensitive
pattern has length k, so closure is one left-to-right pass that looks each
window up in the set of wanted patterns.  All sanitizers in this package
consume instances built here.

The two scans that read every window of a whole input, the closure and
MCSR's count of the patterns its choices expose, build their windows with one
C-level kernel, `_letter_windows`: `zip` over the k shifted copies
`text[j:]`.  The other window readers keep their own enumeration, because
the kernel measured slower on them (see `_letter_windows`).

`overlap_chains` spells the maximal overlap chains of the non-sensitive
windows, once per instance (`chains`).  The TFS output (the chains joined by
'#'), the ETFS language and the verifiers of C1, P1, Pi1 and P2 all read them.

An instance counts its k-mers once, on first use (`counts`).  Every TFS and
PFS output has `preserved_counts()` as its k-mer counts, so no stage counts
such a string; MCSR counts its input only on the patterns a choice exposes,
and keeps only those that occur.

Sequences are handled internally as plain Python strings over an encoded
alphabet.  Char mode keeps input characters as-is; token mode maps arbitrary
whitespace-separated tokens onto private-use code points so that large
alphabets (hundreds of distinct tokens) still fit the one-char-per-letter
representation.  The separator '#' is reserved in both modes.
"""

from __future__ import annotations

import re
from collections import Counter
from collections.abc import Iterable, Iterator
from functools import cached_property
from itertools import compress

SEPARATOR = "#"

# Token-mode letters are mapped into the Unicode private-use area, far away
# from '#' (U+0023) and from anything a char-mode input could contain.  The
# code points from there to the last one, U+10FFFF, bound the token count.
_TOKEN_BASE = 0xE000
_MAX_TOKENS = 0x110000 - _TOKEN_BASE

# The format of the CLI's warnings, "WARNING <message>"; None, the library's default, leaves logging's set-up alone.
LOG_FORMAT: str | None = None


def _warn(module: str, msg: str, *args) -> None:
    """Log a warning on `module`'s logger; `logging` is imported here, so a run that warns of nothing never loads it."""
    import logging

    if LOG_FORMAT is not None:
        logging.basicConfig(level=logging.WARNING, format=LOG_FORMAT)
    logging.getLogger(module).warning(msg, *args)


class _Frozen:
    """Read-only fields, named in `_fields`, kept in `__dict__` beside the `cached_property` values.

    Equality and hashing read every field; the repr shows those in `_shown`.
    """

    def _values(self) -> tuple:
        return tuple(self.__dict__[name] for name in self._fields)

    def __eq__(self, other):
        return self._values() == other._values() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={self.__dict__[name]!r}" for name in self._shown)
        return f"{type(self).__name__}({shown})"

    def __setattr__(self, name: str, *_value) -> None:
        raise AttributeError(f"field {name!r} is read-only")

    __delattr__ = __setattr__


class _DerivedLast:
    """Mixin for a named tuple whose last field is derived from the others: equality and hashing leave it out."""

    __slots__ = ()

    def __eq__(self, other):
        return self[:-1] == other[:-1] if other.__class__ is self.__class__ else NotImplemented

    def __ne__(self, other):  # tuple.__ne__ would not defer to __eq__, and would compare the last field too
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    def __hash__(self) -> int:
        return hash(self[:-1])


class Alphabet(_Frozen):
    """Ordered alphabet with a bijection between user tokens and internal chars.

    The token order is total and defines the lexicographic rank used by every
    comparison in the package.  Internal characters are assigned in rank order,
    so comparing encoded strings agrees with comparing token sequences.
    """

    _fields = _shown = ("tokens", "token_mode")

    def __init__(self, tokens: tuple[str, ...], token_mode: bool = False) -> None:
        if not tokens:
            raise ValueError("alphabet must contain at least one letter")
        if token_mode and len(tokens) > _MAX_TOKENS:
            raise ValueError(f"token mode supports at most {_MAX_TOKENS:,} distinct tokens, got {len(tokens):,}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("alphabet tokens must be unique")
        if SEPARATOR in tokens:
            raise ValueError("the separator '#' cannot be an alphabet letter")
        if not token_mode:
            for tok in tokens:
                if len(tok) != 1:
                    raise ValueError(f"char-mode letters must be single characters, got {tok!r}")
        vars(self).update(tokens=tokens, token_mode=token_mode)

    @classmethod
    def from_text(cls, text: Iterable[str]) -> "Alphabet":
        """Char-mode alphabet: the sorted distinct characters of `text`, a string or a set of its characters."""
        return cls(tokens=tuple(sorted(set(text))), token_mode=False)

    @classmethod
    def from_tokens(cls, tokens: Iterable[str]) -> "Alphabet":
        """Token-mode alphabet: the sorted distinct tokens of the iterable."""
        return cls(tokens=tuple(sorted(set(tokens))), token_mode=True)

    @cached_property
    def chars(self) -> str:
        """Internal one-char letters, in rank order."""
        if self.token_mode:
            return "".join(chr(_TOKEN_BASE + i) for i in range(len(self.tokens)))
        return "".join(self.tokens)

    @cached_property
    def _encode_map(self) -> dict[str, str]:
        return dict(zip(self.tokens, self.chars))

    @cached_property
    def _decode_map(self) -> dict[str, str]:
        return dict(zip(self.chars, self.tokens))

    def encode(self, tokens: Iterable[str]) -> str:
        """Map a token sequence (or a char-mode string) to the internal form."""
        enc = self._encode_map
        try:
            return "".join(enc[t] for t in tokens)
        except KeyError as exc:
            raise ValueError(f"token {exc.args[0]!r} is not in the alphabet") from None

    def decode(self, encoded: str) -> str:
        """Render an internal string for output: char mode verbatim, token mode one token per char, space-joined.

        '#' and any char outside the alphabet stay as they are, as in char mode.
        """
        if not self.token_mode:
            return encoded
        dec = self._decode_map
        return " ".join([dec.get(c, c) for c in encoded])


class SanitizationInstance(_Frozen):
    """An immutable sanitization problem: sequence, k, and closed sensitive set.

    `mask` has one flag per window: mask[i] == 1 iff i is a sensitive
    occurrence start, for 0 <= i <= n-k.
    """

    _fields = ("text", "k", "alphabet", "sensitive_patterns", "mask")
    _shown = _fields[:-1]

    def __init__(self, text: str, k: int, alphabet: Alphabet, sensitive_patterns: frozenset[str], mask: bytes) -> None:
        vars(self).update(text=text, k=k, alphabet=alphabet, sensitive_patterns=sensitive_patterns, mask=mask)

    @property
    def n(self) -> int:
        return len(self.text)

    @cached_property
    def sensitive_positions(self) -> frozenset[int]:
        """Occurrence starts of sensitive patterns, read from `mask`."""
        return frozenset(compress(range(len(self.mask)), self.mask))

    @cached_property
    def counts(self) -> Counter[str]:
        """`kmer_counts(text, k)`, computed on first use and shared: callers must not mutate it."""
        return kmer_counts(self.text, self.k)

    @cached_property
    def chains(self) -> tuple[str, ...]:
        """`overlap_chains(self)`, spelled on first use and shared."""
        return tuple(overlap_chains(self))

    def preserved_counts(self) -> Counter[str]:
        """A fresh copy of `counts` without the sensitive patterns.

        These are the k-mer counts of every string that satisfies C1 and P2,
        so of every TFS and PFS output of this instance.
        """
        kept = self.counts.copy()
        for pat in self.sensitive_patterns:
            kept.pop(pat, None)
        return kept


def _windows(text: str, k: int) -> Iterator[str]:
    """Every length-k window of `text` that contains no separator, left to right."""
    for block in text.split(SEPARATOR):
        for i in range(len(block) - k + 1):
            yield block[i : i + k]


def _letter_windows(text: str, k: int) -> Iterator[tuple[str, ...]]:
    """Every length-k window of `text`, '#' included, as a k-tuple of letters, left to right.

    `zip` over the k shifted copies `text[j:]` builds each tuple in C.  Looking
    up the 199,996 windows of a 200,000-letter input (k = 5) in a set took
    23 ms this way, 27 ms with `islice` in place of the copies, 46 ms as
    strings joined from the tuples and 66 ms as slices (best of 9
    interleaved runs, Python 3.11.7).  The copies cost k - 1 times the
    input's size while the scan runs.

    Three readers stay off the kernel, which measured slower on each (medians
    of 5 interleaved runs): `kmer_counts` of a 1M-letter TFS output with
    201,836 separators, 390 -> 662 ms, as joining every window and then
    dropping those through '#' costs more than slicing each block;
    `contains_sensitive` on BA's 9-letter slices, 1.8 -> 3.2 us a call, as
    the copies cost more than the scan; and `metrics._window_starts` on a
    1M-letter `tpm` output, 266 -> 290 ms.
    """
    return zip(*(text[j:] for j in range(k)))


def build_instance(
    text: str,
    k: int,
    *,
    patterns: Iterable[str] = (),
    positions: Iterable[int] = (),
    alphabet: Alphabet | None = None,
) -> SanitizationInstance:
    """Build an instance, closing the sensitive set.

    Sensitive material can be given as patterns, as occurrence positions, or
    both.  Positions are expanded to all occurrences of the pattern found
    there; listed patterns mark all of their occurrences.  A listed pattern
    that never occurs in `text` is accepted (it is trivially concealed) and
    logged.
    """
    if SEPARATOR in text:
        raise ValueError("input sequence contains the reserved separator '#'")
    n = len(text)
    if not 0 < k < n:
        raise ValueError(f"k must satisfy 0 < k < {n}, got {k}")
    if alphabet is None:
        alphabet = Alphabet.from_text(text)

    wanted: set[str] = set()
    for pat in patterns:
        if len(pat) != k:
            raise ValueError(f"sensitive pattern {pat!r} does not have length k={k}")
        wanted.add(pat)
    for pos in positions:
        if not 0 <= pos <= n - k:
            raise ValueError(f"position {pos} outside valid range 0..{n - k}")
        wanted.add(text[pos : pos + k])

    # One lookup per window; every occurrence of a wanted pattern is marked, which is the closure.
    wanted_letters = {tuple(pat) for pat in wanted}
    mask = bytes(map(wanted_letters.__contains__, _letter_windows(text, k)))
    sens_patterns = frozenset(text[i : i + k] for i in compress(range(n - k + 1), mask))
    for pat in sorted(wanted - sens_patterns):
        _warn(__name__, "sensitive pattern %r does not occur in the input; nothing to conceal", alphabet.decode(pat))

    return SanitizationInstance(
        text=text,
        k=k,
        alphabet=alphabet,
        sensitive_patterns=sens_patterns,
        mask=mask,
    )


def kmer_counts(text: str, k: int) -> Counter[str]:
    """Occurrence counts of every length-k window free of the separator.

    Windows that touch '#' contribute to no count, so the result only has
    alphabet-only patterns as keys.
    """
    if k < 1:
        raise ValueError(f"k must be positive, got {k}")
    return Counter(_windows(text, k))


def contains_sensitive(text: str, inst: SanitizationInstance) -> bool:
    """True iff some separator-free window of `text` is a sensitive pattern."""
    sensitive = inst.sensitive_patterns
    return bool(sensitive) and not sensitive.isdisjoint(_windows(text, inst.k))


def _spell(blocks: Iterable[str], k: int) -> list[str]:
    """Spell a sequence of strings as maximal overlap chains of their length-k windows.

    A string shorter than k has no window and is skipped.  A string joins the
    chain before it when its first k-1 letters equal that chain's last k-1,
    and then adds its letters after the first k-1; otherwise it starts a chain.
    """
    chains: list[str] = []
    pieces: list[str] = []
    tail = ""
    for s in blocks:
        if len(s) < k:
            continue
        if pieces and s[: k - 1] == tail:
            pieces.append(s[k - 1 :])
        else:
            if pieces:
                chains.append("".join(pieces))
            pieces = [s]
        tail = s[len(s) - k + 1 :]  # not s[-(k - 1):], which is all of s at k = 1
    if pieces:
        chains.append("".join(pieces))
    return chains


def overlap_chains(inst: SanitizationInstance) -> list[str]:
    """Spelled strings of the maximal overlap chains of non-sensitive occurrences.

    Two successive non-sensitive occurrences belong to the same chain when the
    length-(k-1) suffix of the earlier window equals the length-(k-1) prefix of
    the later one.  Each chain is spelled as its first window followed by the
    last letter of every subsequent window.  A run of adjacent non-sensitive
    starts a..b-1 spells text[a : b+k-1], so the chains are the spelling of
    those runs.
    """
    text, k = inst.text, inst.k
    runs = re.finditer(rb"\x00+", inst.mask)
    return _spell((text[m.start() : m.end() + k - 1] for m in runs), k)
