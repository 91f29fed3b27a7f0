"""Reduced words in a free group and necklace representatives of conjugacy classes.

Letters are signed integers: +j is the j-th generator (1-based), -j its
inverse.  The global letter order is g1 < g1^-1 < g2 < g2^-1 < ..., i.e.
1 < -1 < 2 < -2 < ...; every canonical form and every enumeration order in
the package is derived from this single order so that deduplication is
deterministic across shards.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Iterator, Tuple

from .errors import SpectraCensusError

ENV_BUDGET = "SPECTRA_CENSUS_MAX_WORDS"
DEFAULT_BUDGET = 100_000_000
INT64_MAX = 2**63 - 1


class CapacityExceeded(SpectraCensusError):
    """Projected enumeration size exceeds the configured word budget."""


class EmptyWord(SpectraCensusError):
    """Cyclic reduction emptied the word (the identity element)."""


def letter_code(letter: int) -> int:
    """Rank of a letter in the global order (0 = g1, 1 = g1^-1, 2 = g2, ...)."""
    if letter == 0:
        raise ValueError("letter 0 is not valid")
    return 2 * (abs(letter) - 1) + (1 if letter < 0 else 0)


def code_letter(code: int) -> int:
    j = code // 2 + 1
    return -j if code % 2 else j


def letter_str(letter: int) -> str:
    """ASCII token: generators a..z, inverses A..Z."""
    j = abs(letter)
    if j > 26:
        raise ValueError("letter tokens support rank <= 26")
    ch = chr(ord("a") + j - 1)
    return ch.upper() if letter < 0 else ch


@dataclass(frozen=True)
class Word:
    """A reduced word; no adjacent cancelling pair."""

    letters: Tuple[int, ...]

    def __post_init__(self):
        ls = self.letters
        for i, l in enumerate(ls):
            if l == 0:
                raise ValueError("letter 0 is not valid")
            if i and ls[i - 1] == -l:
                raise ValueError(f"word {ls} is not reduced at position {i}")

    @property
    def length(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return "".join(letter_str(l) for l in self.letters) or "<e>"


@dataclass(frozen=True)
class CyclicWord:
    """Canonical necklace: cyclically reduced, minimal rotation under the letter order."""

    letters: Tuple[int, ...]
    period: int

    @property
    def length(self) -> int:
        return len(self.letters)

    @property
    def primitive(self) -> bool:
        return self.period == len(self.letters)

    def word(self) -> Word:
        return Word(self.letters)

    def __str__(self) -> str:
        return "".join(letter_str(l) for l in self.letters)


def word_inverse(w: Word) -> Word:
    return Word(tuple(-l for l in reversed(w.letters)))


def concat(a: Word, b: Word) -> Word:
    """Concatenation that must stay reduced at the junction."""
    if a.letters and b.letters and a.letters[-1] == -b.letters[0]:
        raise ValueError("concatenation cancels at the junction")
    return Word(a.letters + b.letters)


def stratum_size(k: int, n: int) -> int:
    """Number of reduced words of length exactly n in rank k."""
    if n < 1:
        return 0
    return 2 * k * (2 * k - 1) ** (n - 1)


def total_words(k: int, max_len: int) -> int:
    return sum(stratum_size(k, n) for n in range(1, max_len + 1))


def _check_budget(k: int, max_len: int):
    """Raise CapacityExceeded when the ball is over the word budget,
    SPECTRA_CENSUS_MAX_WORDS or else DEFAULT_BUDGET, or when its top stratum
    outgrows int64.  The budget counts words, whichever stream runs.  The
    census walk addresses no word by index; the int64 check keeps a lifted
    budget inside the word indices of census.decode_words, the test oracle
    that does.  The strata are summed only until they pass the budget, so
    a huge max_len costs a few strata, not a number too long to print.  A
    budget that is not a decimal integer is CapacityExceeded too."""
    env = os.environ.get(ENV_BUDGET)
    try:
        limit = int(env) if env else DEFAULT_BUDGET
    except ValueError:
        raise CapacityExceeded(f"{ENV_BUDGET}={env!r} is not an integer word budget") from None
    projected = 0
    for n in range(1, max_len + 1):
        projected += stratum_size(k, n)
        if projected > limit:
            raise CapacityExceeded(
                f"enumeration of rank {k} up to length {max_len} needs more than {limit} "
                f"words, the budget"
            )
    if stratum_size(k, max_len) > INT64_MAX:
        raise CapacityExceeded(
            f"enumeration of rank {k} up to length {max_len} needs word indices beyond int64"
        )


def enumerate_reduced_words(k: int, max_len: int) -> Iterator[Word]:
    """All reduced words of length 1..max_len, depth-first in lexicographic order."""
    if k < 2:
        raise ValueError("rank must be at least 2")
    if max_len < 1:
        raise ValueError("max_len must be at least 1")
    _check_budget(k, max_len)
    order = [code_letter(c) for c in range(2 * k)]
    stack = [(l,) for l in reversed(order)]
    while stack:
        w = stack.pop()
        yield Word(w)
        if len(w) < max_len:
            last = w[-1]
            for l in reversed(order):
                if l != -last:
                    stack.append(w + (l,))


def cyclic_reduce(w: Word) -> Tuple[Word, Word]:
    """Split w = conjugator * core * conjugator^-1 with core cyclically reduced."""
    ls = list(w.letters)
    prefix = []
    while len(ls) >= 2 and ls[0] == -ls[-1]:
        prefix.append(ls[0])
        ls = ls[1:-1]
    if not ls:
        raise EmptyWord("cyclic reduction emptied the word")
    return Word(tuple(ls)), Word(tuple(prefix))


def is_cyclically_reduced(w: Word) -> bool:
    ls = w.letters
    return bool(ls) and (len(ls) == 1 or ls[0] != -ls[-1])


def _rotation_key(letters: Tuple[int, ...]) -> Tuple[int, ...]:
    return tuple(letter_code(l) for l in letters)


def canonical_rep(w: Word) -> CyclicWord:
    """Minimal rotation of a cyclically reduced word, with its rotation period."""
    if not w.letters:
        raise EmptyWord("cannot canonicalize the empty word")
    if not is_cyclically_reduced(w):
        raise ValueError(f"word {w.letters} is not cyclically reduced")
    ls = w.letters
    n = len(ls)
    best = min(range(n), key=lambda i: _rotation_key(ls[i:] + ls[:i]))
    rot = ls[best:] + ls[:best]
    period = n
    for p in range(1, n):
        if n % p == 0 and rot[p:] + rot[:p] == rot:
            period = p
            break
    return CyclicWord(rot, period)


def enumerate_conjugacy_classes(k: int, max_core_len: int) -> Iterator[CyclicWord]:
    """Each nontrivial conjugacy class with cyclically reduced core length 1..max_core_len,
    exactly once, in (length, lexicographic) order.

    Generates cyclically reduced words stratum by stratum and keeps only the
    canonical rotation, so memory stays O(max_core_len).
    """
    if k < 2:
        raise ValueError("rank must be at least 2")
    if max_core_len < 1:
        raise ValueError("max_core_len must be at least 1")
    _check_budget(k, max_core_len)
    order = [code_letter(c) for c in range(2 * k)]
    for n in range(1, max_core_len + 1):
        stack = [(l,) for l in reversed(order)]
        while stack:
            w = stack.pop()
            if len(w) == n:
                if w[0] != -w[-1] or n == 1:
                    cand = canonical_rep(Word(w))
                    if cand.letters == w:
                        yield cand
            else:
                last = w[-1]
                for l in reversed(order):
                    if l != -last:
                        stack.append(w + (l,))
