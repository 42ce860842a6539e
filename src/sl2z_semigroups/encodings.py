"""Group-alphabet encodings and hardness-instance fixtures.

Two monomorphisms carry words into SL(2,Z): alpha sends an indexed group
alphabet into {a, b} words (z_i -> a^i b a^-i), and f sends {a, b} words to
matrices (a -> [[1,2],[0,1]], b -> [[1,0],[2,1]]).  The fixture builders
materialize the subset-sum, equal-subset-sum and DFA-intersection instance
constructions as generator sets with recomputed ground truth.
"""

from dataclasses import dataclass, field
from math import prod

from .algebra import GeneratorSet, Mat2, IDENTITY, MAX_WORD_LETTERS
from .algebra import Generator, SignedWord, decompose, reduce
from . import oracle as oracle_mod


class EncodingError(ValueError):
    pass


# A group letter is (symbol, inverted).  Symbols are strings in fixture
# alphabets and 1-based ints after z-indexing.

def letter(sym, inverted=False):
    return (sym, inverted)


def word(*letters):
    return tuple(letters)


def inverse_word(w):
    return tuple((sym, not inv) for sym, inv in reversed(w))


def free_reduce(w):
    """Delete adjacent x x^-1 pairs to the unique reduced form."""
    stack = []
    for sym, inv in w:
        if stack and stack[-1][0] == sym and stack[-1][1] != inv:
            stack.pop()
        else:
            stack.append((sym, inv))
    return tuple(stack)


def alpha(w, n_letters=None):
    """Letterwise z_i -> a^i b a^-i, z_i^-1 -> a^i b^-1 a^-i (letters are
    (index, inverted) with 1-based indices)."""
    out = []
    for idx, inv in w:
        if not isinstance(idx, int) or idx < 1:
            raise EncodingError(f"alpha needs 1-based integer letter indices, got {idx!r}")
        if n_letters is not None and idx > n_letters:
            raise EncodingError(f"letter index {idx} out of range 1..{n_letters}")
        out.extend([("a", False)] * idx)
        out.append(("b", inv))
        out.extend([("a", True)] * idx)
    return tuple(out)


def _merged_alpha(w) -> tuple:
    """alpha(w) with each a^-i a^j between neighbouring letters merged into
    a^(j-i): fewer letters, the same image under f."""
    out, prev = [], 0
    for idx, inv in w:
        out += [("a", idx < prev)] * abs(idx - prev)
        out.append(("b", inv))
        prev = idx
    return tuple(out + [("a", True)] * prev)


# letter -> (is an a-letter, shear k): f(a^±1) = [[1, k], [0, 1]] and
# f(b^±1) = [[1, 0], [k, 1]] with k = ±2
_SHEAR = {
    ("a", False): (True, 2),
    ("a", True): (True, -2),
    ("b", False): (False, 2),
    ("b", True): (False, -2),
}


def f_matrix(w) -> Mat2:
    """Letterwise product of the binary-alphabet matrices.

    Runs on four plain integers: multiplying on the right by f(a^±1) is the
    column shear b += k*a, d += k*c, and by f(b^±1) the shear a += k*b,
    c += k*d.  One `Mat2` is built at the end, so the determinant is checked
    once per word.  A letter outside {a, b} x {plain, inverted} raises
    `EncodingError` where it occurs.
    """
    a, b, c, d = 1, 0, 0, 1
    for lt in w:
        step = _SHEAR.get(lt)
        if step is None:
            raise EncodingError(f"letter outside the binary group alphabet: {lt!r}")
        is_a, k = step
        if is_a:
            b += k * a
            d += k * c
        else:
            a += k * b
            c += k * d
    return Mat2(a, b, c, d)


# f of each binary letter as a reduced signed word: f(a) = phi(srsr) and
# f(b) = phi(srrsrr), and their inverses
_LETTER_WORD = {lt: decompose(f_matrix((lt,))) for lt in _SHEAR}


def f_word(w) -> SignedWord:
    """Reduced signed word of f(w), for a word that `f_matrix` accepts: its
    letters' words joined and reduced once, which is `decompose(f_matrix(w))`
    without the Euclidean steps."""
    words = [_LETTER_WORD[lt] for lt in w]
    return reduce("".join(x.word for x in words), prod(x.sign for x in words))


def closed_form(i: int, j: int) -> Mat2:
    """Value of (a^j b a^-j)^i in closed form: [[1+4ij, -8ij^2], [2i, 1-4ij]].

    Checked against the letterwise product, since the whole point of the
    formula is that the two must agree.
    """
    if i < 1 or j < 1:
        raise EncodingError("closed_form needs i >= 1 and j >= 1")
    m = Mat2(1 + 4 * i * j, -8 * i * j * j, 2 * i, 1 - 4 * i * j)
    if m != f_matrix(alpha(((j, False),) * i)):
        raise EncodingError(f"closed form self-check failed at i={i}, j={j}")
    return m


def encode_group_word(w, z_index: dict) -> Mat2:
    """f(alpha(.)) of a symbolic group word under the given z-indexing."""
    indexed = tuple((z_index[sym], inv) for sym, inv in w)
    return f_matrix(alpha(indexed))


def _generator_set(words, z_index: dict) -> GeneratorSet:
    """Generators f(alpha(w)) of the symbolic words, each word from `f_word`,
    not `decompose`; `GeneratorSet` checks that it evaluates to the matrix."""
    gens = []
    for w in words:
        letters = _merged_alpha(tuple((z_index[sym], inv) for sym, inv in w))
        gens.append(Generator(f_matrix(letters), f_word(letters)))
    return GeneratorSet(gens)


@dataclass
class Fixture:
    """Generator set plus its symbolic provenance and expected verdicts."""

    generators: GeneratorSet
    words: list            # symbolic group words, one per generator
    z_index: dict          # symbol -> 1-based z index
    expected: dict         # ground truth labels, recomputed at build time
    provenance: dict = field(default_factory=dict)

    def word_matrix(self, w) -> Mat2:
        return encode_group_word(w, self.z_index)


def _z_index(symbols) -> dict:
    """1-based z-indexing in the given order; a repeat keeps its first index.
    The fixtures list their border letters first, then a, b and #."""
    z = {}
    for sym in symbols:
        z.setdefault(sym, len(z) + 1)
    return z


def _check_letters(field, n):
    if n > MAX_WORD_LETTERS:
        raise EncodingError(f"{field} is too large: the encoded words would have more "
                            f"than {MAX_WORD_LETTERS} letters")


def _expand_words(specs, z) -> list:
    """Symbolic words from (field, runs) specs, each run a (symbol,
    inverted, repeat) triple.

    A run of r letters z_i^+-1 has r * (2i + 1) letters after alpha.  The
    words' running total is checked against `MAX_WORD_LETTERS` before any
    word is built, so an oversized input is refused, naming the field of
    the word that crosses the limit, without building a tuple of its size,
    and every accepted instance encodes in time linear in the limit.
    """
    total = 0
    for field, runs in specs:
        total += sum(r * (2 * z[sym] + 1) for sym, _, r in runs)
        _check_letters(field, total)
    return [tuple(lt for sym, inv, r in runs for lt in (letter(sym, inv),) * r)
            for _, runs in specs]


def _step_specs(field, i, sym, repeat) -> list:
    """Specs of the payload word i sym^repeat (i+1)^-1 and the skip word
    i (i+1)^-1 of one chain step."""
    head, tail = (str(i), False, 1), (str(i + 1), True, 1)
    return [(field, (head, (sym, False, repeat), tail)), (field, (head, tail))]


def _equal_subset_pair(values):
    """Two disjoint nonempty index subsets of equal sum, or None (k <= 12)."""
    if len(values) > 12:
        raise EncodingError("exhaustive ground truth is desk-scale only (k <= 12)")
    sums = {}
    for mask in range(1, 1 << len(values)):
        s = sum(v for i, v in enumerate(values) if mask >> i & 1)
        for other in sums.get(s, ()):
            if other & mask == 0:
                return (other, mask)
        sums.setdefault(s, []).append(mask)
    return None


def _subset_with_sum(values, x):
    if len(values) > 12:
        raise EncodingError("exhaustive ground truth is desk-scale only (k <= 12)")
    for mask in range(1 << len(values)):
        if sum(v for i, v in enumerate(values) if mask >> i & 1) == x:
            return mask
    return None


def encode_equal_subset_sum(values) -> Fixture:
    """Equal-subset-sum instance as 2k generators.

    Words i a^{s_(i+1)} (i+1)^-1 and i (i+1)^-1 for 0 <= i <= k-1: a chain of
    border letters where step i either contributes s_(i+1) payload letters or
    none.  The semigroup is free iff no two disjoint nonempty subsets of the
    values share a sum.
    """
    values = list(values)
    if not values or any(v < 1 for v in values):
        raise EncodingError("need a nonempty list of positive integers")
    k = len(values)
    pair = _equal_subset_pair(values)  # first: it refuses sets past k = 12
    z = _z_index([str(i) for i in range(k + 1)] + ["a", "b", "#"])
    specs = []
    for i in range(k):
        specs += _step_specs(f"--set entry {i + 1}", i, "a", values[i])
    words = _expand_words(specs, z)
    gens = _generator_set(words, z)
    expected = {"free": pair is None}
    provenance = {"values": values}
    if pair is not None:
        provenance["equal_sum_subsets"] = [
            sorted(i + 1 for i in range(k) if mask >> i & 1) for mask in pair
        ]
    return Fixture(gens, words, z, expected, provenance)


def encode_subset_sum(values, x: int) -> Fixture:
    """Subset-sum instance (does some subset of values sum to x?) as 4k+2
    generators: an a-payload chain 0..k, a bridge erasing a^x, a b-payload
    chain k+1..2k+1, and a closing bridge erasing b^x.  The identity matrix
    lies in the semigroup iff the instance is solvable.
    """
    values = list(values)
    if not values or any(v < 1 for v in values):
        raise EncodingError("need a nonempty list of positive integers")
    if x < 0:
        raise EncodingError("target must be nonnegative")
    k = len(values)
    mask = _subset_with_sum(values, x)  # first: it refuses sets past k = 12
    z = _z_index([str(i) for i in range(2 * k + 2)] + ["a", "b", "#"])
    specs = []
    for i in range(k):
        specs += _step_specs(f"--set entry {i + 1}", i, "a", values[i])
    for i in range(k + 1, 2 * k + 1):
        specs += _step_specs(f"--set entry {i - k}", i, "b", values[i - k - 1])
    specs.append(("--x", ((str(k), False, 1), ("a", True, x), (str(k + 1), True, 1))))
    specs.append(("--x", ((str(2 * k + 1), False, 1), ("b", True, x), ("0", True, 1))))
    words = _expand_words(specs, z)
    gens = _generator_set(words, z)
    expected = {
        "identity": mask is not None,
        # the count-question target: the first epsilon word 0 . 1^-1
        "count_target": gens.matrix(2),
        "count_target_unique": mask is None,
    }
    provenance = {"values": values, "x": x}
    if mask is not None:
        provenance["subset"] = sorted(i + 1 for i in range(k) if mask >> i & 1)
        provenance["identity_sequence"] = _identity_sequence(k, mask)
    return Fixture(gens, words, z, expected, provenance)


def _identity_sequence(k, mask) -> list:
    """Index sequence around the full cycle choosing payload edges per mask.

    Generator layout: a-step i is generators (2i+1, 2i+2) = (payload, skip),
    b-step i is (2k + 2i + 1, 2k + 2i + 2), then bridge a = 4k+1, bridge b =
    4k+2.  The cycle runs a-steps, bridge a, b-steps, bridge b.
    """
    seq = []
    for i in range(k):
        seq.append(2 * i + 1 if mask >> i & 1 else 2 * i + 2)
    seq.append(4 * k + 1)
    for i in range(k):
        seq.append(2 * k + 2 * i + 1 if mask >> i & 1 else 2 * k + 2 * i + 2)
    seq.append(4 * k + 2)
    return seq


def recurrent_without_identity_fixture() -> Fixture:
    """Three generators with a recurrent matrix but no identity.

    W = {0 a 0^-1, 0 a^-1 1^-1, 1 a^-1 1^-1}: the value of 0 . 1^-1 equals
    w1^n w2 w3^(n-1) for every n >= 1, yet no product is the identity.
    """
    z = _z_index(["0", "1", "a", "b", "#"])
    words = [
        word(letter("0"), letter("a"), letter("0", True)),
        word(letter("0"), letter("a", True), letter("1", True)),
        word(letter("1"), letter("a", True), letter("1", True)),
    ]
    gens = _generator_set(words, z)
    target_word = word(letter("0"), letter("1", True))
    target = encode_group_word(target_word, z)
    expected = {
        "identity": False,
        "recurrent_target": target,
        "pumping": ([1], [1, 2], [3]),
    }
    return Fixture(gens, words, z, expected, {"target_word": target_word})


@dataclass(frozen=True)
class DfaSpec:
    """Total or partial DFA over a shared alphabet; state 0 is initial."""

    n_states: int
    alphabet: tuple
    transitions: tuple  # ((state, sym, state), ...)
    finals: frozenset

    def accepts(self, w) -> bool:
        table = {(q, s): q2 for q, s, q2 in self.transitions}
        q = 0
        for sym in w:
            q = table.get((q, sym))
            if q is None:
                return False
        return q in self.finals


def encode_dfa_intersection(dfas) -> Fixture:
    """DFA list encoded so that the value of # w # lies in the semigroup iff
    some DFA accepts w.

    Per DFA (over its private border letters): # . 0^-1 for the initial
    state, l . a . m^-1 per transition, j . # per final state.
    """
    dfas = list(dfas)
    if not dfas:
        raise EncodingError("need at least one DFA")
    alphabet = dfas[0].alphabet
    for i, d in enumerate(dfas):
        if d.alphabet != alphabet:
            raise EncodingError("DFAs must share one alphabet")
        states = range(d.n_states)
        if not states:
            raise EncodingError(f"dfas[{i}].states: need at least one state, got {d.n_states}")
        for q, sym, q2 in sorted(d.transitions):
            if q not in states or q2 not in states or sym not in alphabet:
                raise EncodingError(f"dfas[{i}].transitions: {q} -{sym}-> {q2} needs states in "
                                    f"0..{d.n_states - 1} and a symbol in the alphabet")
        if any(q not in states for q in d.finals):
            raise EncodingError(f"dfas[{i}].finals: states must be in 0..{d.n_states - 1}")
    # every state has its own border letter, indexed before #, so the word
    # # . d0_0^-1 alone has at least 2 * (states + 1) + 1 + 3 letters after alpha:
    # too many states are refused before the index is built
    n_states = sum(d.n_states for d in dfas)
    field = (f"DFA state count and alphabet ({n_states} states in all, "
             f"{len(alphabet)} symbols)")
    _check_letters(field, 2 * n_states + 6)
    borders = []
    for i, d in enumerate(dfas):
        borders.extend(f"d{i}_{q}" for q in range(d.n_states))
    # a symbol named like one of the encoding's own letters would share its
    # z index, and # w # would no longer telescope along the DFA runs only
    own = set(borders) | {"#"}
    clashes = [sym for sym in alphabet if sym in own]
    if clashes:
        raise EncodingError(f"alphabet: symbols {clashes} are letters of the encoding "
                            f"itself ('#' and the border letters d<i>_<q>)")
    z = _z_index(borders + list(alphabet) + ["#"])
    specs = []
    for i, d in enumerate(dfas):
        specs.append((field, (("#", False, 1), (f"d{i}_0", True, 1))))
        for (q, sym, q2) in sorted(d.transitions):
            specs.append((field, ((f"d{i}_{q}", False, 1), (sym, False, 1),
                                  (f"d{i}_{q2}", True, 1))))
        for q in sorted(d.finals):
            specs.append((field, ((f"d{i}_{q}", False, 1), ("#", False, 1))))
    words = _expand_words(specs, z)
    gens = _generator_set(words, z)
    expected = {"dfas": tuple(dfas)}
    return Fixture(gens, words, z, expected, {"alphabet": alphabet})


def marked_query_word(fixture: Fixture, w) -> Mat2:
    """Value of # w # for a sample word w over the shared DFA alphabet."""
    letters = (letter("#"),) + tuple(letter(sym) for sym in w) + (letter("#"),)
    return fixture.word_matrix(letters)


def verify_fixture(fixture: Fixture, depth: int, budget: int = oracle_mod.DEFAULT_BUDGET):
    """Replay the fixture's ground truth against the brute-force oracle.

    Checks are one-sided where exhaustion cannot settle the question: a
    claimed collision/identity must be found within the given depth, and a
    claimed-free/identity-free instance must show none.
    """
    gens = fixture.generators
    expected = fixture.expected
    if "free" in expected:
        collision = oracle_mod.find_collision(gens, depth, budget)
        if expected["free"] and collision is not None:
            raise EncodingError(f"fixture labeled free but oracle found {collision}")
        if not expected["free"] and collision is None:
            raise EncodingError(f"no collision found to depth {depth}")
    if "identity" in expected:
        table = oracle_mod.enumerate_products(gens, depth, budget)
        found = IDENTITY in table
        if found != expected["identity"]:
            raise EncodingError(
                f"identity expectation {expected['identity']} but oracle depth "
                f"{depth} says {found}")
    return True

