"""Words over the noncommuting letters x_1, x_1^t, ..., x_g, x_g^t.

A letter is a pair ``(k, starred)`` with variable index ``k >= 1``;
``starred`` marks the transposed letter x_k^t (conjugate transpose in
complex mode).  A word is a tuple of letters; the empty tuple is the
unit word.  Letters order as (k, False) < (k, True) < (k+1, False),
i.e. x_k < x_k^t < x_{k+1}, and words compare graded-lexicographically.
"""

from __future__ import annotations

import itertools
from typing import Iterator, Tuple

Letter = Tuple[int, bool]
Word = Tuple[Letter, ...]

EMPTY_WORD: Word = ()


def letter(k: int, starred: bool = False) -> Letter:
    if k < 1:
        raise ValueError(f"variable index must be >= 1, got {k}")
    return (k, bool(starred))


def x(k: int) -> Word:
    """One-letter word x_k."""
    return (letter(k),)


def word_involution(w: Word) -> Word:
    """Reverse the word and star/unstar every letter.

    >>> word_involution(((1, False), (2, False)))
    ((2, True), (1, True))
    """
    return tuple((k, not s) for (k, s) in reversed(w))


def word_has_star(w: Word) -> bool:
    return any(s for (_, s) in w)


def max_var(w: Word) -> int:
    return max(w)[0] if w else 0


def rotations(w: Word) -> Iterator[Word]:
    for i in range(max(1, len(w))):
        yield w[i:] + w[:i]


def cyclic_canonical(w: Word, star_mode: bool = False) -> Word:
    """Least rotation of ``w``; with ``star_mode`` also over rotations of
    its involution.  Idempotent and constant on (star-)cyclic classes.

    >>> cyclic_canonical(((2, False), (1, False)))
    ((1, False), (2, False))
    """
    candidates = rotations(w)
    if star_mode:
        candidates = itertools.chain(candidates, rotations(word_involution(w)))
    return min(candidates)


def graded_lex_key(w: Word):
    """Sort key: by degree, then lexicographically."""
    return (len(w), w)


def words_of_degree(g: int, m: int, involution: bool) -> Iterator[Word]:
    """All degree-m words in g variables (and their stars if ``involution``),
    in lexicographic order."""
    if involution:
        alphabet = [(k, s) for k in range(1, g + 1) for s in (False, True)]
    else:
        alphabet = [(k, False) for k in range(1, g + 1)]
    return itertools.product(alphabet, repeat=m)


def letter_str(let: Letter) -> str:
    k, s = let
    return f"x{k}*" if s else f"x{k}"


def word_str(w: Word) -> str:
    if not w:
        return "1"
    return " ".join(letter_str(let) for let in w)


def parse_letter(tok: str) -> Letter:
    t = tok.strip()
    starred = t.endswith("*")
    if starred:
        t = t[:-1]
    if not t.startswith("x") or not t[1:].isdigit():
        raise ValueError(f"bad letter token {tok!r}")
    return letter(int(t[1:]), starred)


def parse_word(text: str) -> Word:
    toks = text.split()
    if toks == ["1"] or not toks:
        return EMPTY_WORD
    return tuple(parse_letter(t) for t in toks)
