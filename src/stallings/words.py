"""Reduced words in a finitely generated free group.

A word is an immutable sequence of signed nonzero letter codes: ``+n``
stands for generator ``n - 1`` and ``-n`` for its inverse.  Every
constructor freely reduces, so adjacent inverse pairs never survive.

Text syntax: lowercase ``a``..``z`` name generators 0..25 and uppercase
``A``..``Z`` their inverses, with no separators (``"aBBa"`` is
a b^-1 b^-1 a).  Alphabets of rank above 26 use indexed tokens:
``"x12"`` is generator 12 and ``"X12"`` its inverse; an ``x``/``X``
immediately followed by a digit is always read as an indexed token.
The empty string and ``"1"`` both denote the identity.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

_DIGITS = "0123456789"


class WordSyntaxError(ValueError):
    """Malformed word text; ``position`` is the offending character index."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (position {position})")
        self.position = position


class Alphabet:
    """The generating set, indexed 0..rank-1, of a free group.  Immutable."""

    __slots__ = ("rank",)

    def __init__(self, rank: int = 2):
        if rank < 1:
            raise ValueError(f"alphabet rank must be at least 1, got {rank}")
        object.__setattr__(self, "rank", rank)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return Alphabet, (self.rank,)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not Alphabet:
            return NotImplemented
        return self.rank == other.rank

    def __hash__(self) -> int:
        return hash((self.rank,))

    def __repr__(self) -> str:
        return f"Alphabet(rank={self.rank!r})"

    def identity(self) -> "Word":
        return Word(self, ())

    def word(self, text: str) -> "Word":
        return Word(self, _parse_letters(text, self.rank))

    def letter_name(self, letter: int) -> str:
        index = abs(letter) - 1
        if not 0 <= index < self.rank:
            raise ValueError(f"letter code {letter} out of range for rank {self.rank}")
        if self.rank <= 26:
            name = chr(ord("a") + index)
            return name.upper() if letter < 0 else name
        return ("X" if letter < 0 else "x") + str(index)


RANK2 = Alphabet(2)


def _parse_letters(text: str, rank: int) -> tuple[int, ...]:
    if text == "1":
        return ()
    letters: list[int] = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if c in "xX" and i + 1 < n and text[i + 1] in _DIGITS:
            j = i + 1
            while j < n and text[j] in _DIGITS:
                j += 1
            index = int(text[i + 1 : j])
            if index >= rank:
                raise WordSyntaxError(f"generator {index} out of range for rank {rank}", i)
            letters.append((index + 1) if c == "x" else -(index + 1))
            i = j
            continue
        if "a" <= c <= "z":
            index, sign = ord(c) - ord("a"), 1
        elif "A" <= c <= "Z":
            index, sign = ord(c) - ord("A"), -1
        else:
            raise WordSyntaxError(f"unexpected character {c!r}", i)
        if index >= rank:
            raise WordSyntaxError(f"letter {c!r} out of range for rank {rank}", i)
        letters.append(sign * (index + 1))
        i += 1
    return tuple(letters)


class Word:
    """A freely reduced word.  Multiply with ``*``, invert with ``~``."""

    __slots__ = ("alphabet", "letters")

    def __init__(self, alphabet: Alphabet, letters: Iterable[int] = ()):
        stack: list[int] = []
        for x in letters:
            if x == 0 or abs(x) > alphabet.rank:
                raise ValueError(f"letter code {x} invalid for alphabet rank {alphabet.rank}")
            if stack and stack[-1] == -x:
                stack.pop()
            else:
                stack.append(x)
        self.alphabet = alphabet
        self.letters = tuple(stack)

    # -- basics ------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.letters)

    def __iter__(self) -> Iterator[int]:
        return iter(self.letters)

    def __bool__(self) -> bool:
        return bool(self.letters)

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Word)
            and self.alphabet == other.alphabet
            and self.letters == other.letters
        )

    def __hash__(self) -> int:
        return hash((self.alphabet, self.letters))

    def __str__(self) -> str:
        if not self.letters:
            return "1"
        return "".join(self.alphabet.letter_name(x) for x in self.letters)

    def __repr__(self) -> str:
        return f"Word({str(self)!r}, rank={self.alphabet.rank})"

    # -- group operations ---------------------------------------------------

    def _require_same_alphabet(self, other: "Word") -> None:
        if self.alphabet != other.alphabet:
            raise ValueError(
                f"alphabet mismatch: rank {self.alphabet.rank} vs rank {other.alphabet.rank}"
            )

    def __mul__(self, other: "Word") -> "Word":
        self._require_same_alphabet(other)
        return Word(self.alphabet, self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(self.alphabet, tuple(-x for x in reversed(self.letters)))

    def __invert__(self) -> "Word":
        return self.inverse()

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        out = self.alphabet.identity()
        for _ in range(n):
            out = out * self
        return out

    def conj(self, g: "Word") -> "Word":
        """The conjugate g * self * g^-1."""
        self._require_same_alphabet(g)
        return Word(self.alphabet, g.letters + self.letters + tuple(-x for x in reversed(g.letters)))

    def cyclically_reduced(self) -> "Word":
        letters = list(self.letters)
        while len(letters) >= 2 and letters[0] == -letters[-1]:
            letters = letters[1:-1]
        return Word(self.alphabet, letters)


def square_commutator_embed(w: Word) -> Word:
    """Rewrite a rank-2 word under the endomorphism a -> a^2, b -> a b a^-1 b^-1.

    The image subgroup's core has every branch vertex 3-valent and of a
    single type, which the normalization pipeline relies on.
    """
    if w.alphabet.rank != 2:
        raise ValueError(f"square_commutator_embed needs a rank-2 word, got rank {w.alphabet.rank}")
    images = {1: (1, 1), -1: (-1, -1), 2: (1, 2, -1, -2), -2: (2, 1, -2, -1)}
    out: list[int] = []
    for x in w.letters:
        out.extend(images[x])
    return Word(w.alphabet, out)


def embed_into_rank2(w: Word) -> Word:
    """Map generator i to a^i b a^-i, embedding any rank into rank 2."""
    out: list[int] = []
    for x in w.letters:
        i = abs(x) - 1
        out.extend([1] * i)
        out.append(2 if x > 0 else -2)
        out.extend([-1] * i)
    return Word(RANK2, out)


def generator_squares(w: Word) -> Word:
    """Rewrite under the endomorphism sending every generator to its square."""
    out: list[int] = []
    for x in w.letters:
        out.extend((x, x))
    return Word(w.alphabet, out)
