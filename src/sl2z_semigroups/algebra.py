"""Exact SL(2,Z) arithmetic and the signed reduced-word normal form over {s, r}.

Every matrix of SL(2,Z) is sign * phi(w) for a unique sign in {+1,-1} and a
unique word w over {s, r} containing no factor "ss" and no factor "rrr",
where phi maps letters to the generator matrices S and R.  This module keeps
both representations in sync: `reduce` / `mul` / `inv` work on signed words,
`evaluate` / `decompose` convert between words and matrices.
"""

from dataclasses import dataclass
from fractions import Fraction


class AlgebraError(ValueError):
    """Raised for inputs outside SL(2,Z) or malformed words."""


@dataclass(frozen=True)
class Mat2:
    """2x2 integer matrix with determinant 1 (entries are unbounded ints)."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        det = self.a * self.d - self.b * self.c
        if det != 1:
            raise AlgebraError(f"determinant must be 1, got {det}")

    def __mul__(self, other: "Mat2") -> "Mat2":
        return Mat2(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def __neg__(self) -> "Mat2":
        return Mat2(-self.a, -self.b, -self.c, -self.d)

    def inverse(self) -> "Mat2":
        # adjugate; exact because det == 1
        return Mat2(self.d, -self.b, -self.c, self.a)

    def entries(self) -> tuple:
        return (self.a, self.b, self.c, self.d)

    def is_identity(self) -> bool:
        return self.entries() == (1, 0, 0, 1)

    def __repr__(self):
        return f"Mat2({self.a}, {self.b}, {self.c}, {self.d})"


IDENTITY = Mat2(1, 0, 0, 1)
S = Mat2(0, -1, 1, 0)
R = Mat2(0, -1, 1, 1)
T = Mat2(1, 1, 0, 1)  # shear; equals -(S*R)

_LETTER = {"s": S, "r": R}


@dataclass(frozen=True)
class SignedWord:
    """Pair (sign, word over {s,r}).  Value is sign * phi(word).

    The word is not forced to be reduced at construction; `reduce` produces
    the unique reduced representative with the same value.
    """

    sign: int
    word: str

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise AlgebraError(f"sign must be +1 or -1, got {self.sign}")
        if self.word.strip("sr"):
            raise AlgebraError(f"word must use letters s, r only: {self.word!r}")

    def is_reduced(self) -> bool:
        return "ss" not in self.word and "rrr" not in self.word

    def __len__(self):
        return len(self.word)

    def __repr__(self):
        return f"({'+' if self.sign == 1 else '-'}, {self.word or 'e'})"


NEG_ONE = SignedWord(-1, "")


def reduce(raw: str, sign: int = 1) -> SignedWord:
    """Delete "ss" / "rrr" factors to a fixpoint, flipping the sign per deletion.

    The rewriting system is confluent, so the result does not depend on the
    deletion order; this implementation uses a stack (leftmost-innermost).
    """
    stack = []
    push = stack.append
    for ch in raw:
        if ch == "s":
            if stack and stack[-1] == "s":
                stack.pop()
                sign = -sign
            else:
                push(ch)
        elif ch == "r":
            if len(stack) >= 2 and stack[-1] == "r" and stack[-2] == "r":
                stack.pop()
                stack.pop()
                sign = -sign
            else:
                push(ch)
        else:
            raise AlgebraError(f"letter outside s, r: {ch!r}")
    return SignedWord(sign, "".join(stack))


def mul(x: SignedWord, y: SignedWord) -> SignedWord:
    """Product of signed words: concatenate, then reduce."""
    return reduce(x.word + y.word, x.sign * y.sign)


def inv(x: SignedWord) -> SignedWord:
    """Group inverse.  s^-1 = -s and r^-1 = -r^2, so reverse the word,
    map s -> s, r -> rr, and flip the sign once per original letter."""
    out = []
    for ch in reversed(x.word):
        out.append("s" if ch == "s" else "rr")
    sign = x.sign if len(x.word) % 2 == 0 else -x.sign
    return reduce("".join(out), sign)


def evaluate(x: SignedWord) -> Mat2:
    """sign * (left-to-right product of the letter matrices)."""
    m = IDENTITY
    for ch in x.word:
        m = m * _LETTER[ch]
    return m if x.sign == 1 else -m


# T and its inverse as signed words; checked at import time because a sign
# slip here corrupts every decomposition.
T_WORD = SignedWord(-1, "sr")
T_INV_WORD = SignedWord(-1, "rrs")


# the reduced word of T^q has ~2|q| letters, so a shear by a huge exponent
# has no materializable normal form even though its entries are fine
MAX_WORD_LETTERS = 5_000_000


def _t_power(q: int) -> SignedWord:
    if 3 * abs(q) > MAX_WORD_LETTERS:
        raise AlgebraError(
            f"normal form needs about {2 * abs(q)} letters; "
            f"limit is {MAX_WORD_LETTERS}")
    if q >= 0:
        return SignedWord(1 if q % 2 == 0 else -1, "sr" * q)
    q = -q
    return SignedWord(1 if q % 2 == 0 else -1, "rrs" * q)


def _nearest_toward_zero(a: int, c: int) -> int:
    """Nearest integer to a/c, ties rounded toward zero."""
    f = Fraction(a, c)
    fl = f.numerator // f.denominator
    lo, hi = f - fl, fl + 1 - f
    if lo < hi:
        return fl
    if hi < lo:
        return fl + 1
    return fl if f > 0 else fl + 1


def decompose(m: Mat2) -> SignedWord:
    """Unique reduced signed word with evaluate(decompose(m)) == m.

    Euclidean reduction on the first column: while c != 0, left-multiply by
    T^-q (q the nearest integer to a/c, ties toward zero) and then by S,
    which at least halves |c| per round.  What remains is +-T^b; the word is
    rebuilt from the inverses of the applied operations.
    """
    quotients = []
    cur = m
    while cur.c != 0:
        q = _nearest_toward_zero(cur.a, cur.c)
        # T^-q then S, applied on the left
        a1 = cur.a - q * cur.c
        b1 = cur.b - q * cur.d
        cur = Mat2(-cur.c, -cur.d, a1, b1)
        quotients.append(q)
    # cur == [[e, b], [0, e]] with e = +-1
    if cur.a == 1:
        word = _t_power(cur.b)
    else:
        word = mul(NEG_ONE, _t_power(-cur.b))
    # m = (T^q1 S^-1)(T^q2 S^-1)...(remainder); S^-1 = (-, "s")
    s_inv = SignedWord(-1, "s")
    for q in reversed(quotients):
        word = mul(s_inv, word)
        word = mul(_t_power(q), word)
    if evaluate(word) != m:
        raise AlgebraError(f"decomposition self-check failed for {m}")
    return word


@dataclass(frozen=True)
class Generator:
    matrix: Mat2
    word: SignedWord
    marker: str


class GeneratorSet:
    """Ordered generators, each carrying its matrix, reduced word and marker.

    Indices are 1-based everywhere (witness sequences use them directly).
    """

    def __init__(self, entries):
        entries = list(entries)
        if not entries:
            raise AlgebraError("generator set must be nonempty")
        markers = [g.marker for g in entries]
        if len(set(markers)) != len(markers):
            raise AlgebraError("generator markers must be pairwise distinct")
        for g in entries:
            if not g.word.is_reduced():
                raise AlgebraError(f"generator word not reduced: {g.word}")
            if evaluate(g.word) != g.matrix:
                raise AlgebraError(f"word/matrix mismatch for generator {g.marker}")
        self._entries = entries

    @classmethod
    def from_matrices(cls, matrices) -> "GeneratorSet":
        return cls(
            Generator(m, decompose(m), f"#{i}")
            for i, m in enumerate(matrices, start=1)
        )

    @classmethod
    def from_words(cls, words) -> "GeneratorSet":
        words = [reduce(w.word, w.sign) for w in words]
        return cls(
            Generator(evaluate(w), w, f"#{i}") for i, w in enumerate(words, start=1)
        )

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def generator(self, i: int) -> Generator:
        """1-based access."""
        return self._entries[i - 1]

    def matrix(self, i: int) -> Mat2:
        return self._entries[i - 1].matrix

    def word(self, i: int) -> SignedWord:
        return self._entries[i - 1].word

    def markers(self) -> list:
        return [g.marker for g in self._entries]

    def product(self, sequence) -> Mat2:
        """Product of the 1-based index sequence; rejects the empty sequence."""
        seq = list(sequence)
        if not seq:
            raise AlgebraError("empty index sequence has no product")
        m = self._entries[seq[0] - 1].matrix
        for i in seq[1:]:
            m = m * self._entries[i - 1].matrix
        return m

    def __repr__(self):
        return f"GeneratorSet({[g.word for g in self._entries]})"


def _selfcheck():
    if evaluate(T_WORD) != T:
        raise AlgebraError("T word constant is wrong")
    if evaluate(T_INV_WORD) != T.inverse():
        raise AlgebraError("T inverse word constant is wrong")
    if (S * S) != -IDENTITY or (R * R * R) != -IDENTITY:
        raise AlgebraError("generator order constants are wrong")


_selfcheck()
