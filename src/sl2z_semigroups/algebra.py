"""Exact SL(2,Z) arithmetic and the signed reduced-word normal form over {s, r}.

Every matrix of SL(2,Z) is sign * phi(w) for a unique sign in {+1,-1} and a
unique word w over {s, r} containing no factor "ss" and no factor "rrr",
where phi maps letters to the generator matrices S and R.  This module keeps
both representations in sync: `reduce` / `mul` / `inv` work on signed words,
`evaluate` / `decompose` convert between words and matrices, and
`GeneratorSet.conjugated` shortens a problem's words by one conjugation.
"""

from collections import deque
from dataclasses import dataclass
from itertools import product


class AlgebraError(ValueError):
    """Raised for inputs outside SL(2,Z) or malformed words."""


class SelfCheckError(RuntimeError):
    """Raised when a result fails its own check: a fault of this module,
    not of its input."""


def decimal_str(n: int) -> str:
    """Decimal string of n, also past the interpreter's limit on the digits
    of an int-to-str conversion (Python >= 3.11): such a number is split
    at a power of ten and its halves are converted on their own."""
    try:
        return str(n)
    except ValueError:
        if n < 0:
            return "-" + decimal_str(-n)
    k = n.bit_length() * 3 // 20  # about half the digits; log10(2) > 0.3
    high, low = divmod(n, 10 ** k)
    return decimal_str(high) + decimal_str(low).zfill(k)


def decimal_int(text: str) -> int:
    """Value of a decimal string like `int(text)`, also past the
    interpreter's limit on the digits of a str-to-int conversion: a string
    of ASCII digits over it is converted in halves."""
    try:
        return int(text)
    except ValueError:
        digits = text[1:] if text[:1] == "-" else text
        if len(digits) < 2 or not (digits.isascii() and digits.isdigit()):
            raise
    if text[:1] == "-":
        return -decimal_int(text[1:])
    k = len(text) // 2
    return decimal_int(text[:-k]) * 10 ** k + decimal_int(text[-k:])


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


def matrix_json(m: Mat2) -> list:
    """The rows of m as decimal strings, as problem files and reports hold them."""
    return [[decimal_str(m.a), decimal_str(m.b)], [decimal_str(m.c), decimal_str(m.d)]]


IDENTITY = Mat2(1, 0, 0, 1)
S = Mat2(0, -1, 1, 0)
R = Mat2(0, -1, 1, 1)
T = Mat2(1, 1, 0, 1)  # shear; equals -(S*R)


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


# rounds of `reduce` before its stack pass takes over
_REDUCE_ROUNDS = 4


def reduce(raw: str, sign: int = 1) -> SignedWord:
    """Delete "ss" / "rrr" factors to a fixpoint, flipping the sign per deletion.

    The rewriting system is confluent, so neither the result nor the
    number of deletions depends on their order.  A round deletes every
    "ss" with `str.replace`, then every "rrr", and flips the sign once per
    deletion that `str.count` counts.  Deleting a run of r can join two
    runs of s, so the rounds go on until one deletes no "rrr"; the word is
    then reduced.  Each round reads the word once, and the words that
    `decompose` and `inv` reduce need one or two.  A word still not
    reduced after `_REDUCE_ROUNDS` rounds, a deep nest such as r s r s s rr
    s rr, which loses one level per round, is finished by `_stack_reduce`,
    so the cost stays linear in the word.  The spelled word of a witness
    path is such a nest, so `CancellationAutomaton.path_value` calls the
    stack pass directly.
    """
    if raw.strip("sr"):
        return _stack_reduce(raw, sign)    # it names the letter outside s, r
    for _ in range(_REDUCE_ROUNDS):
        ss = raw.count("ss")
        if ss:
            raw = raw.replace("ss", "")
        rrr = raw.count("rrr")
        if rrr:
            raw = raw.replace("rrr", "")
        if (ss + rrr) % 2:
            sign = -sign
        if not rrr:
            return SignedWord(sign, raw)
    return _stack_reduce(raw, sign)


def _stack_reduce(raw: str, sign: int) -> SignedWord:
    """`reduce` in one pass with a stack (leftmost-innermost deletions)."""
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


# the longest chunk of letters that `evaluate` multiplies by at once
_CHUNK = 8
# word of at most `_CHUNK` letters -> the entries (a, b, c, d) of its product:
# the empty word's, then each of the 510 others on its first use.  A pure
# function of the key, so what has been filled changes no result; filled at
# import, it raised the peak memory of processes that use a few chunks
_CHUNK_PRODUCTS = {"": (1, 0, 0, 1)}


def _chunk_product(chunk: str) -> tuple:
    """Entries of the product of a chunk, from the chunk one letter shorter
    (times S maps rows (a, b) to (b, -a), times R to (b, b - a)), filled
    into `_CHUNK_PRODUCTS`."""
    m = _CHUNK_PRODUCTS.get(chunk)
    if m is None:
        a, b, c, d = _chunk_product(chunk[:-1])
        m = (b, -a, d, -c) if chunk[-1] == "s" else (b, b - a, d, d - c)
        _CHUNK_PRODUCTS[chunk] = m
    return m


def evaluate(x: SignedWord) -> Mat2:
    """sign * (left-to-right product of the letter matrices).

    The entries are multiplied as plain integers, on the right, by the
    product of each chunk of `_CHUNK` letters of the word (the last one
    shorter), read from `_CHUNK_PRODUCTS`, and one `Mat2` is built at the
    end, so the determinant is checked once.
    """
    word = x.word
    a, b, c, d = 1, 0, 0, 1
    for i in range(0, len(word), _CHUNK):
        chunk = word[i:i + _CHUNK]
        p, q, r, s = _CHUNK_PRODUCTS.get(chunk) or _chunk_product(chunk)
        a, b, c, d = a * p + b * r, a * q + b * s, c * p + d * r, c * q + d * s
    if x.sign == 1:
        return Mat2(a, b, c, d)
    return Mat2(-a, -b, -c, -d)


# T and its inverse as signed words; checked at import time because a sign
# slip here corrupts every decomposition.
T_WORD = SignedWord(-1, "sr")
T_INV_WORD = SignedWord(-1, "rrs")


# the reduced word of T^q has 2q letters for q > 0 and 3|q| for q < 0, so a
# shear by a huge exponent has no materializable normal form even though its
# entries are fine
MAX_WORD_LETTERS = 5_000_000


def _check_shear(q: int) -> None:
    # q may have more digits than an int converts to str, so it is not printed
    if 3 * abs(q) > MAX_WORD_LETTERS:
        raise AlgebraError(
            f"shear T^q past the word limit: 3|q| > {MAX_WORD_LETTERS} "
            f"(its normal form needs up to 3|q| letters)")


def _t_letters(q: int) -> str:
    """Letters of T^q, whose sign is (-1)^q: T and T^-1 have sign -1."""
    return T_WORD.word * q if q >= 0 else T_INV_WORD.word * -q


def _t_length(q: int) -> int:
    """len(_t_letters(q)), without building the letters."""
    return len(T_WORD.word) * q if q >= 0 else len(T_INV_WORD.word) * -q


def _nearest_toward_zero(a: int, c: int) -> int:
    """Nearest integer to a/c, ties rounded toward zero."""
    if c < 0:
        a, c = -a, -c
    fl, rem = divmod(a, c)
    # a/c - fl = rem/c lies in [0, 1); compare it with 1/2
    if 2 * rem < c:
        return fl
    if 2 * rem > c:
        return fl + 1
    return fl if a > 0 else fl + 1


def decompose(m: Mat2, letters_left: int = None) -> SignedWord:
    """Unique reduced signed word with evaluate(decompose(m)) == m.

    Euclidean reduction on the first column: while c != 0, left-multiply by
    T^-q (q the nearest integer to a/c, ties toward zero) and then by S,
    which at least halves |c| per round.  What remains is +-T^b.  Every
    exponent, and then the total of the letters that the shears and
    separators will take, is checked against the word limit before any
    letter is built; then the letters of T^q1 s T^q2 s ... T^qk s T^rest are
    joined and reduced in one stack pass, and the result is checked by
    `evaluate`.

    A word longer than `letters_left`, what a problem's words may still
    take of twice the letter budget, is refused as the problem past it.
    The reduction deletes at most 5 letters around each separator (T^q is
    (sr)^q or (rrs)^-q, and |q| >= 2 past the first step, so the deletions
    around two separators never meet), so a total more than 5 letters per
    separator past `letters_left` is refused before any letter is built.
    """
    quotients = []
    letters = 0
    a, b, c, d = m.a, m.b, m.c, m.d
    while c != 0:
        q = _nearest_toward_zero(a, c)
        _check_shear(q)
        letters += _t_length(q) + 1
        # T^-q then S, applied on the left
        a, b, c, d = -c, -d, a - q * c, b - q * d
        quotients.append(q)
    # [[a, b], [0, d]] with a = d = +-1, i.e. a * T^(a*b)
    rest = a * b
    _check_shear(rest)
    letters += _t_length(rest)
    if letters > MAX_WORD_LETTERS:
        raise AlgebraError(
            f"normal form past the word limit: its shears and separators "
            f"need more than {MAX_WORD_LETTERS} letters")
    if letters_left is not None and letters - 5 * len(quotients) > letters_left:
        raise _past_twice_the_budget()
    # m = a (T^q1 S^-1)(T^q2 S^-1)...(T^qk S^-1) T^rest with S^-1 = -s and
    # T^q of sign (-1)^q
    pieces = []
    for q in quotients:
        pieces.append(_t_letters(q))
        pieces.append("s")
    pieces.append(_t_letters(rest))
    odd = (len(quotients) + sum(quotients) + rest) % 2
    word = reduce("".join(pieces), -a if odd else a)
    if evaluate(word) != m:
        raise SelfCheckError(f"decomposition self-check failed for {m}")
    if letters_left is not None and len(word) > letters_left:
        raise _past_twice_the_budget()
    return word


# automata have about one state per letter of the words they are built
# from; check-free, the costliest per letter, peaked at 1.2 KB per letter
# (free pair of shears 20,000 and 40,000), so the budget is about 1.2 GB.
# The descent holds the words in deques, about 8 bytes a letter, so it
# runs only on problems of at most twice the budget (about 16 MB), and no
# word past that is built
MAX_PROBLEM_LETTERS = 1_000_000


def _past_twice_the_budget() -> AlgebraError:
    budget = MAX_PROBLEM_LETTERS
    return AlgebraError(
        f"problem past the letter budget: its words have more than {2 * budget} "
        f"letters, twice the {budget} that its automata may be built from")


# conjugation by a letter x sends (sign, w) to x^-1 (sign, w) x, which is
# (-sign, x' w x) with x' the letters of -x^-1: s^-1 = -s, r^-1 = -rr and
# (rr)^-1 = -r.  Pairs (x, x'), in the order ties are broken.
_CONJUGATORS = (("s", "s"), ("r", "rr"), ("rr", "r"))


def _end_block(first: str, second: str) -> str:
    """The run of one letter at an end of a reduced word of at least two
    blocks, from the end letter and the one next to it."""
    return "s" if first == "s" else "rr" if second == "r" else "r"


def _join_block(block: str, end: str) -> tuple:
    """(letters of `end` deleted, letters put in their place, sign flip)
    when a run of one letter is joined to the end run `end` of a reduced
    word; a run of the other letter stays as it is."""
    if block[0] != end[:1]:
        return 0, block, 1
    w = reduce(block + end)
    return len(end), w.word, w.sign


def _end_step(key: tuple, x: str, xl: str) -> tuple:
    """(letters deleted at the front, letters put there in `extendleft`
    order, letters deleted at the back, letters put there, sign factor) of
    the conjugation by x of a reduced word with the `_end_key` key.  A word
    of at least two blocks changes at its two end runs on their own; a
    shorter one is the key itself, and is replaced."""
    if len(key) <= 2:
        w = reduce(xl + "".join(key) + x, -1)
        return len(key), w.word[::-1], 0, "", w.sign
    pl, bl, fl = _join_block(xl, _end_block(key[0], key[1]))
    pr, br, fr = _join_block(x, _end_block(key[3], key[2]))
    return pl, bl, pr, br, -fl * fr


def _end_key(w) -> tuple:
    """What the conjugation of a reduced word by a letter depends on: its
    first two and last two letters, or the word when it has at most 2."""
    return tuple(w) if len(w) <= 2 else (w[0], w[1], w[-2], w[-1])


_END_KEYS = [(), ("s",), ("r",), ("r", "r"), ("s", "r"), ("r", "s"),
             *product("sr", repeat=4)]
# per letter x of _CONJUGATORS: end key -> `_end_step`, and -> change of length
_STEPS = [{k: _end_step(k, x, xl) for k in _END_KEYS} for x, xl in _CONJUGATORS]
_DELTAS = {k: tuple(len(bl) - pl + len(br) - pr for pl, bl, pr, br, _ in
                    (steps[k] for steps in _STEPS)) for k in _END_KEYS}


def _conjugate_all(letters: list, signs: list, keys: list, steps: dict) -> None:
    """Conjugate every word by one letter in place: rewrite the ends of
    its deque of letters by the letter's `_STEPS` entry for its key, then
    renew its sign and key."""
    for i, d in enumerate(letters):
        pl, bl, pr, br, sign = steps[keys[i]]
        if pl:
            d.popleft()
            if pl > 1:
                d.popleft()
        d.extendleft(bl)
        if pr:
            d.pop()
            if pr > 1:
                d.pop()
        d.extend(br)
        signs[i] *= sign
        keys[i] = _end_key(d)


def shortest_conjugate(words: list) -> tuple:
    """(M, [reduced word of M^-1 g M for each word g]), M a product of the
    letters s, r and rr that a greedy descent picks: each step conjugates
    every word by the letter that lowers their total length most, ties
    going to the earlier of s, r, rr, and the descent stops when no letter
    lowers it.  A step reads each word's `_end_key` and rewrites its ends
    in a deque (`_conjugate_all`), so no word is copied; without a step,
    M = I and the list itself is returned.  The caller checks the words.

    A step updates every word, also those it leaves as long, such as
    powers of T while T pads another word, so the descent also stops
    before its word updates pass twice the letters: its cost stays linear
    in the input, and any M gives a valid conjugate."""
    keys = [_end_key(w.word) for w in words]
    work = 2 * sum(len(w.word) for w in words)
    steps = []
    while True:
        totals = [sum(column) for column in zip(*map(_DELTAS.__getitem__, keys))]
        best = totals.index(min(totals))
        if totals[best] >= 0 or (len(steps) + 1) * len(words) > work:
            break
        if not steps:
            letters, signs = [deque(w.word) for w in words], [w.sign for w in words]
        steps.append(_CONJUGATORS[best][0])
        _conjugate_all(letters, signs, keys, _STEPS[best])
    if not steps:
        return IDENTITY, words
    m = evaluate(SignedWord(1, "".join(steps)))
    return m, [SignedWord(sign, "".join(d)) for sign, d in zip(signs, letters)]


def _nonempty(entries: list) -> list:
    if not entries:
        raise AlgebraError("generator set must be nonempty")
    return entries


@dataclass(frozen=True)
class Generator:
    matrix: Mat2
    word: SignedWord


class GeneratorSet:
    """Ordered generators, each carrying its matrix and reduced word.

    Indices are 1-based everywhere (witness sequences use them directly).
    """

    def __init__(self, entries):
        entries = list(entries)
        for i, g in enumerate(entries, start=1):
            if not g.word.is_reduced():
                raise AlgebraError(f"generator word not reduced: {g.word}")
            if evaluate(g.word) != g.matrix:
                raise AlgebraError(f"word/matrix mismatch for generator {i}")
        self._entries = _nonempty(entries)

    @classmethod
    def _of_checked(cls, entries) -> "GeneratorSet":
        """Entries whose words are reduced and evaluate to their matrices."""
        gens = cls.__new__(cls)
        gens._entries = _nonempty(list(entries))
        return gens

    @classmethod
    def from_matrices(cls, matrices) -> "GeneratorSet":
        """The matrices with their words.  `decompose` checks each word
        against its matrix, and refuses, before building it, the word that
        takes the set past twice `MAX_PROBLEM_LETTERS`."""
        entries = []
        left = 2 * MAX_PROBLEM_LETTERS
        for m in matrices:
            w = decompose(m, left)
            left -= len(w.word)
            entries.append(Generator(m, w))
        return cls._of_checked(entries)

    @classmethod
    def from_words(cls, words) -> "GeneratorSet":
        words = [reduce(w.word, w.sign) for w in words]
        return cls._of_checked(Generator(evaluate(w), w) for w in words)

    def __len__(self):
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)

    def matrix(self, i: int) -> Mat2:
        return self._entries[i - 1].matrix

    def word(self, i: int) -> SignedWord:
        return self._entries[i - 1].word

    def conjugated(self, target: Mat2 = None) -> tuple:
        """(generators, word): the set, and the target's word if a target
        is given, conjugated by the M of `shortest_conjugate`, which changes
        no index sequence's product relations.  These are the words that
        automata are built from: each is checked to be reduced and to
        evaluate to M^-1 g M, as `decompose` checks its own, and their total
        letters to be within `MAX_PROBLEM_LETTERS`.  The words, the
        target's with them, must be within twice that for the descent to
        run; `decompose` refuses a target past what the generators left
        before building it."""
        words = [g.word for g in self._entries]
        budget = MAX_PROBLEM_LETTERS
        left = 2 * budget - sum(map(len, words))
        if left < 0:
            raise _past_twice_the_budget()
        if target is not None:
            words.append(decompose(target, left))
        m, conjugates = shortest_conjugate(words)
        if sum(map(len, conjugates)) > budget:
            raise AlgebraError(
                f"problem past the letter budget: the words its automata are built "
                f"from have more than {budget} letters")
        word = conjugates[-1] if target is not None else None
        if conjugates is words:
            return self, word
        m_inv = m.inverse()
        matrices = [m_inv * g.matrix * m for g in self._entries]
        if target is not None:
            matrices.append(m_inv * target * m)
        for i, (g, w) in enumerate(zip(matrices, conjugates), start=1):
            if not w.is_reduced() or evaluate(w) != g:
                raise SelfCheckError(f"conjugated word {i} failed its self-check")
        return GeneratorSet._of_checked(map(Generator, matrices, conjugates[:len(self)])), word

    def product(self, sequence) -> Mat2:
        """Product of the 1-based index sequence; rejects the empty sequence.

        The entries are multiplied as plain integers, left to right, and one
        `Mat2` is built at the end, so the determinant is checked once.
        """
        seq = list(sequence)
        if not seq:
            raise AlgebraError("empty index sequence has no product")
        entries = self._entries
        a, b, c, d = 1, 0, 0, 1
        for i in seq:
            m = entries[i - 1].matrix
            a, b, c, d = (a * m.a + b * m.c, a * m.b + b * m.d,
                          c * m.a + d * m.c, c * m.b + d * m.d)
        return Mat2(a, b, c, d)

    def __repr__(self):
        return f"GeneratorSet({[g.word for g in self._entries]})"


def _selfcheck():
    if evaluate(SignedWord(1, "s")) != S or evaluate(SignedWord(1, "r")) != R:
        raise AlgebraError("letter matrices in evaluate are wrong")
    if evaluate(T_WORD) != T:
        raise AlgebraError("T word constant is wrong")
    if evaluate(T_INV_WORD) != T.inverse():
        raise AlgebraError("T inverse word constant is wrong")
    if (S * S) != -IDENTITY or (R * R * R) != -IDENTITY:
        raise AlgebraError("generator order constants are wrong")


_selfcheck()
