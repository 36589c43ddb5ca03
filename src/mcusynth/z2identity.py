"""Mod-2 parity identities and their exhaustive verifiers.

The central quantity is the alternating sum P(x) of subset xor-parities of
a bit vector x = (x_1, ..., x_n): each nonempty subset S enters with sign
sigma(S) = +1 for odd |S| and -1 for even |S|.  The partial sums leave
{0, 1}, so xor is extended from bits to all integers as
``xor_int(x, y) = x + y - 2*x*y``.  P(x) = 2^(n-1) * x_1 * ... * x_n for
every n, by induction from P(x_1) = x_1.  Append a bit b to x, of sum s:

- append step: the new subsets are {b} and each S + {b}, of sign
  -sigma(S), so P(x, b) = s + b - sum_S sigma(S) * (parity(x_S) xor b);
- weighted shift: c * (y xor z) = xor_int(c * y, z) + (c - 1) * z, summed
  by the sum-shift law, makes that sum xor_int(s, b) + (sum sigma - 1) * b;
- subset-sign sum: sum_S sigma(S) = 1 - (1 - 1)^n = 1 for n >= 1, by the
  binomial theorem at -1.

So P(x, b) = s + b - xor_int(s, b) = 2*b*s.  Past the regrouping, every
lemma but the binomial theorem is a polynomial identity of degree at most
1 in each variable, so a check on 2 points per variable proves it for all
integers (Alon, "Combinatorial Nullstellensatz", 1999), as the tests do.
``parity_sums`` gives P for all 2^n inputs at once, to the exhaustive
verifiers and to the simulator's linear trace.

Everything here is exact integer arithmetic.  ``parity_sum_direct`` is the
literal definition for one bit vector, in Python ints.  The recurrent and
closed forms take a table of bit vectors along its last axis and return
int64 arrays, so bit vectors are capped at ``MAX_BITS``.  Every verifier
evaluates its forms over all its inputs at once and reports the first
input where two forms disagree, so its output is deterministic.

The exhaustive verifiers hold no table: in ``itertools.product`` order,
assignment x is assignment x // 2 with the bit x % 2 appended, so
``_bits`` reads an assignment from its index, and both forms of every
assignment grow from width 1 by the append step ``_append`` (recurrent)
and the running product 2^(k-1) * x_1 * ... * x_k (closed).  Only the
sampled verifier folds a table, of seeded rows (``_fold``).  The verifiers
do not re-validate what they build; the public ``parity_sum_recurrent``
and ``parity_sum_closed_form`` validate their input and are the
references the verifiers' forms are tested against.

Prefix policy: the sampled closed-form check and the sum-shift laws each
draw one table seeded with n and check every width k = 1..n on a prefix of
its rows.  The closed form takes the k-bit prefixes of n-bit rows; the
sum-shift laws take x from the first k bits of (n + 1)-bit rows and z from
bit k + 1.  Each width still sees independent, uniform rows, and width n's
rows are those seeded with n; a smaller width's rows, and so its report
under a broken ``xor_int``, depend on n.  The one cache holds the direct
sums of the last two widths, read-only over immutable bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, Iterator, Sequence

import numpy as np

# the largest n for the exhaustive verifiers and parity_sum_direct.  Each
# width costs a few int64 arrays of 2^n entries and no table of assignments:
# `verify-identity --n 20` takes 0.43-0.55 s and peaks at 79 MiB RSS in a
# fresh interpreter, while both verifiers at widths 20 and 21 alone take
# 0.66-0.68 s at 130 MiB (2-core Xeon)
EXHAUSTIVE_LIMIT = 20

# the forms' values reach 2^(n-1), so at n <= 62 they and the sums and
# differences of two of them stay inside int64
MAX_BITS = 62

XOR_LAW_LO, XOR_LAW_HI = -8, 8  # verify_xor_int_laws: every triple in [-8, 8]^3
BINOMIAL_LO, BINOMIAL_HI = 2, 60  # verify_alternating_binomial: n = 2..60
SUM_SHIFT_TRIALS = 500  # verify_sum_shift_laws: seeded rows per width
# the sampled mode's fold takes at most this many rows per pass, so its two
# int64 forms and its temporaries stay at 64 KiB each.  Longer passes are
# slower per row: the fold of 1,000,000 rows of 24 bits takes 119-132 ms in
# passes and 205-357 ms in one (2-core Xeon)
_FOLD_ROWS = 8192


@dataclasses.dataclass(frozen=True)
class CheckReport:
    """Outcome of one exhaustive or sampled identity check."""

    name: str
    passed: bool
    checked: int
    unit: str = "cases"
    counterexample: tuple | None = None

    def summary(self) -> str:
        line = f"{self.name}: {'PASS' if self.passed else 'FAIL'} ({self.checked} {self.unit})"
        if not self.passed:
            line += f" counterexample={self.counterexample!r}"
        return line


def signed_parity_terms(n: int) -> list[tuple[int, tuple[int, ...]]]:
    """(sign, subset) for every nonempty subset of range(n), in canonical order.

    Canonical order is subset size ascending, lexicographic within a size.
    Odd-sized subsets enter the parity sum with +1, even-sized with -1.
    ``parity_sum_direct`` relies on it.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [
        (1 if k % 2 else -1, subset)
        for k in range(1, n + 1)
        for subset in itertools.combinations(range(n), k)
    ]


def _bit_table(bits) -> np.ndarray:
    # one bit vector per row of the last axis, validated
    table = np.asarray(bits)
    if table.ndim == 0 or table.shape[-1] == 0:
        raise ValueError("bit vector must be nonempty")
    if table.shape[-1] > MAX_BITS:
        raise ValueError(f"bit vectors are capped at {MAX_BITS} bits, got {table.shape[-1]}")
    bad = ~((table == 0) | (table == 1))
    if bad.any():
        raise ValueError(f"expected a bit in {{0, 1}}, got {_plain(table[bad][0])!r}")
    return table


def xor_int(x, y):
    """Integer extension of xor: x + y - 2*x*y.

    Agrees with xor, x + y mod 2, whenever both arguments are bits, but is
    defined for all integers (Python ints never overflow), and elementwise
    on arrays.
    """
    return x + y - 2 * x * y


def parity_sum_direct(bits: Sequence[int]) -> int:
    """Alternating sum of subset xor-parities of one bit vector, by definition.

    Sums sign * parity over the 2^n - 1 terms of ``signed_parity_terms(n)``
    in Python ints; it is the reference the array forms are tested against.
    Cost is O(n 2^n), so ``EXHAUSTIVE_LIMIT`` guards against accidental
    huge n.
    """
    bits = _bit_table(bits).tolist()
    n = len(bits)
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"direct enumeration capped at n={EXHAUSTIVE_LIMIT}, got n={n}")
    terms = signed_parity_terms(n)
    return sum(sign * (sum(bits[i] for i in subset) % 2) for sign, subset in terms)


def parity_sums(coeffs: np.ndarray) -> np.ndarray:
    """sum_S c[S] * parity(S & x) for every x, c indexed by subset bitmask S.

    parity(S & x) = (1 - (-1)^popcount(S & x)) / 2, so the sums are
    (sum(c) - WHT(c)) / 2 with WHT the fast Walsh-Hadamard transform (Fino
    and Algazi 1976): exact in int64, O(n 2^n) for all 2^n values of x.
    """
    c = np.asarray(coeffs, dtype=np.int64)
    # (WHT a)[x] = sum_s (-1)^popcount(s & x) a[s], one butterfly per index
    # bit, each from one preallocated buffer into the other
    a, out = c.copy(), np.empty_like(c)
    h = 1
    while h < a.shape[0]:
        pairs, sums = a.reshape(-1, 2, h), out.reshape(-1, 2, h)
        np.add(pairs[:, 0], pairs[:, 1], out=sums[:, 0])
        np.subtract(pairs[:, 0], pairs[:, 1], out=sums[:, 1])
        a, out = out, a
        h *= 2
    np.subtract(c.sum(), a, out=a)
    np.floor_divide(a, 2, out=a)
    return a


# the one cache: verify-identity runs verify_closed_form(k) and then
# verify_append_recurrence(k), which reuse the sums of widths k - 1 and k.
# The recurrence reads width k - 1 first, or verify_closed_form(k + 1)
# evicts width k and every width is built twice.  Results are read-only
# arrays over immutable bytes
@functools.lru_cache(maxsize=2)
def _direct_sums(n: int) -> np.ndarray:
    # parity_sum_direct of every width-n assignment, in product order: the
    # coefficient of subset mask S is the sign of a |S|-element subset, so
    # by symmetry the mask's bit order does not matter
    signs = np.full(1, -1, dtype=np.int64)
    for _ in range(n):
        signs = np.concatenate((signs, -signs))  # -(-1)^popcount of 0..2^n - 1
    signs[0] = 0
    # backed by immutable bytes, so no view or base can be made writable
    return np.frombuffer(parity_sums(signs).tobytes(), dtype=np.int64)


def _bits(x: int, n: int) -> tuple[int, ...]:
    # the width-n assignment at index x in itertools.product order
    return tuple((x >> (n - 1 - i)) & 1 for i in range(n))


def _append(sums: np.ndarray) -> np.ndarray:
    # the append step s + b - xor_int(s, b) for b = 0 and b = 1 on every
    # sum, interleaved: the sums of every width-k assignment in product
    # order become those of every width-(k + 1) assignment
    s, b = sums[:, None], np.arange(2)
    return (s + b - xor_int(s, b)).reshape(-1)


def _plain(value):
    # numpy rows become tuples and numpy scalars Python ints, so a
    # counterexample reads as it would for Python int input
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    return tuple(value) if isinstance(value, list) else value


def _report(name: str, unit: str, mismatch: np.ndarray, witness: Callable) -> CheckReport:
    """PASS over every row, or FAIL at the first True row k of ``mismatch``
    with ``checked`` = k + 1 and the counterexample ``witness(k)``."""
    bad = np.flatnonzero(mismatch)
    if bad.size == 0:
        return CheckReport(name, True, mismatch.shape[0], unit)
    k = int(bad[0])
    return CheckReport(name, False, k + 1, unit, tuple(_plain(v) for v in witness(k)))


def _fold(table: np.ndarray) -> Iterator[tuple[int, int, np.ndarray, np.ndarray]]:
    """Both forms of every k-bit prefix of a bit table's rows, in one pass
    over the bit columns per ``_FOLD_ROWS`` rows.

    Yields (lo, k, recurrent, closed) after bit k of the pass whose first
    row is table row lo: the int64 recurrent form, by the append recurrence
    through ``xor_int``, and the closed form 2^(k-1) * x_1 * ... * x_k, as a
    running product, of the pass's k-bit prefixes.  Each form is one array
    per pass, updated in place.  The table is not validated.
    """
    for lo in range(0, len(table), _FOLD_ROWS):
        rows = table[lo : lo + _FOLD_ROWS]
        recurrent = rows[:, 0].astype(np.int64)
        closed = recurrent.copy()
        yield lo, 1, recurrent, closed
        for k in range(2, rows.shape[1] + 1):
            b = rows[:, k - 1]
            np.subtract(recurrent + b, xor_int(recurrent, b), out=recurrent)
            np.multiply(closed, 2 * b, out=closed)
            yield lo, k, recurrent, closed


def parity_sum_recurrent(bits) -> np.ndarray:
    """Alternating parity sum in O(n) via the append recurrence.

    Appending a bit b to a vector with sum s gives  s + b - xor_int(s, b),
    which collapses to 2*b*s.  Base case: a single bit is its own sum.
    ``bits`` holds one bit vector along its last axis, or a table of them;
    the result is int64 of the table's leading shape.  It takes one step per
    bit over the whole table, with no passes, and is the reference the
    verifiers' forms are tested against.
    """
    table = _bit_table(bits).astype(np.int8, copy=False)
    total = table[..., 0].astype(np.int64)
    for j in range(1, table.shape[-1]):
        b = table[..., j]
        total = total + b - xor_int(total, b)
    return np.asarray(total)


def parity_sum_closed_form(bits) -> np.ndarray:
    """The closed form 2^(n-1) * x_1 * ... * x_n, along the last axis."""
    bits = _bit_table(bits)
    return np.int64(1 << (bits.shape[-1] - 1)) * bits.all(axis=-1)


def _forms(n: int) -> tuple[np.ndarray, np.ndarray]:
    # the recurrent and the closed form of every width-n assignment, in
    # product order, grown from width 1, where a bit is both its forms
    recurrent = closed = np.arange(2, dtype=np.int64)
    for _ in range(n - 1):
        recurrent, closed = _append(recurrent), (closed[:, None] * (0, 2)).reshape(-1)
    return recurrent, closed


def verify_closed_form(n: int) -> CheckReport:
    """Exhaustively confirm direct == recurrent == closed form for width n."""
    if not 1 <= n <= EXHAUSTIVE_LIMIT:
        raise ValueError(f"need 1 <= n <= {EXHAUSTIVE_LIMIT}, got {n}")
    direct = _direct_sums(n)  # before the forms, so the two peaks do not add
    recurrent, closed = _forms(n)
    return _report(
        f"closed-form n={n}",
        "assignments",
        (direct != closed) | (direct != recurrent),
        lambda x: (_bits(x, n), direct[x], recurrent[x], closed[x]),
    )


def verify_closed_form_sampled(n: int, samples: int) -> CheckReport:
    """Width n's report of ``verify_closed_form_sampled_prefixes(n, samples)``."""
    return verify_closed_form_sampled_prefixes(n, samples)[-1]


def verify_closed_form_sampled_prefixes(n: int, samples: int) -> list[CheckReport]:
    """Sampled check of recurrent == closed form past the direct cap, for
    each width k = 1..n on the k-bit prefixes of rows seeded with n.  Report
    k names width k's first failing row, numbered across the fold's passes."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if n > MAX_BITS:
        raise ValueError(f"bit vectors are capped at {MAX_BITS} bits, got {n}")
    table = np.random.default_rng(n).integers(0, 2, size=(samples, n), dtype=np.int8)
    names = [f"closed-form (sampled) n={k}" for k in range(1, n + 1)]
    reports = [CheckReport(name, True, samples, "samples") for name in names]
    for lo, k, recurrent, closed in _fold(table):
        if not reports[k - 1].passed:
            continue  # an earlier pass found this width's first failure
        report = _report(
            names[k - 1],
            "samples",
            recurrent != closed,
            lambda i: (table[lo + i, :k], recurrent[i], closed[i]),
        )
        if not report.passed:
            reports[k - 1] = dataclasses.replace(report, checked=lo + report.checked)
    return reports


def verify_append_recurrence(n: int) -> CheckReport:
    """Check the append step pointwise for every width-n assignment.

    For every prefix p of length n-1 and appended bit b, the direct sum of
    p + (b,) must equal  s + b - xor_int(s, b)  with s the direct sum of p.
    The left operand of xor_int is a full integer here, not a bit; that is
    precisely what the integer extension exists for.
    """
    if not 2 <= n <= EXHAUSTIVE_LIMIT:
        raise ValueError(f"need 2 <= n <= {EXHAUSTIVE_LIMIT}, got {n}")
    # width n - 1 first: see the cache at _direct_sums
    want = _append(_direct_sums(n - 1))
    sums = _direct_sums(n)
    return _report(
        f"recurrence n={n}",
        "cases",
        sums != want,
        lambda x: (_bits(x // 2, n - 1), x % 2, sums[x], want[x]),
    )


def verify_xor_int_laws() -> CheckReport:
    """Check the algebraic laws of xor_int on every triple in [XOR_LAW_LO, XOR_LAW_HI]^3.

    Laws: commutativity, associativity, the two shift laws

        xor_int(x, z) + xor_int(y, z) == xor_int(x + y, z) + z
        xor_int(x, z) - xor_int(y, z) == xor_int(x - y, z) - z

    plus the unary facts x(+)0 == x, x(+)1 == 1 - x, x(+)x == 2x(1 - x),
    which are checked first.  Triples run x-major, laws in the order above.
    """
    name = f"xor-int-laws [{XOR_LAW_LO},{XOR_LAW_HI}]"
    v = np.arange(XOR_LAW_LO, XOR_LAW_HI + 1, dtype=np.int64)
    unary = np.stack(
        (xor_int(v, 0) != v, xor_int(v, 1) != 1 - v, xor_int(v, v) != 2 * v * (1 - v)),
        axis=-1,
    )
    kinds = ("zero", "one", "self")
    facts = _report(name, "triples", unary.any(-1), lambda i: (kinds[unary[i].argmax()], v[i]))
    if not facts.passed:
        return dataclasses.replace(facts, checked=0)  # no triple was checked yet
    x, y, z = (g.reshape(-1) for g in np.meshgrid(v, v, v, indexing="ij"))
    laws = np.stack(
        (
            xor_int(x, y) != xor_int(y, x),
            xor_int(xor_int(x, y), z) != xor_int(x, xor_int(y, z)),
            xor_int(x, z) + xor_int(y, z) != xor_int(x + y, z) + z,
            xor_int(x, z) - xor_int(y, z) != xor_int(x - y, z) - z,
        ),
        axis=-1,
    )

    def witness(k):
        law = laws[k].argmax()
        # commutativity involves x and y only
        kind = ("commutativity", "associativity", "sum-shift", "difference-shift")[law]
        return (kind, x[k], y[k], z[k])[: 3 if law == 0 else 4]

    return _report(name, "triples", laws.any(axis=-1), witness)


def verify_sum_shift_laws(n: int) -> list[CheckReport]:
    """Check the two aggregated shift identities for each width k = 1..n on
    SUM_SHIFT_TRIALS random rows of n + 1 bits, seeded with n.

    For bits x_1..x_k and a bit z:

        sum_i (x_i xor z)            == xor_int(sum_i x_i, z) + (k - 1) * z
        sum_i (-1)^(i-1) (x_i xor z) == xor_int(sum_i (-1)^(i-1) x_i, z)
                                        - ((1 + (-1)^k) // 2) * z

    Width k takes x from the rows' first k bits and z from bit k + 1, so
    width n's z is the last bit.  Report k names width k's first failing row.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rows = np.random.default_rng(n).integers(0, 2, size=(SUM_SHIFT_TRIALS, n + 1), dtype=np.int8)
    bits = np.ascontiguousarray(rows.T)  # row i - 1 holds bit i of every trial
    return [_sum_shift_report(bits[:k], bits[k]) for k in range(1, n + 1)]


def _sum_shift_report(xs: np.ndarray, z_bits: np.ndarray) -> CheckReport:
    # both shift identities on every trial: row i - 1 of xs holds x_i of
    # every trial, and z_bits holds z
    n = len(xs)
    z = z_bits.astype(np.int64)
    flipped = xs ^ z_bits  # x_i xor z, bit by bit
    # sums over the odd positions i = 1, 3, ... (sign +) and the even ones (sign -)
    odd, even = xs[::2].sum(axis=0), xs[1::2].sum(axis=0)
    flipped_odd, flipped_even = flipped[::2].sum(axis=0), flipped[1::2].sum(axis=0)

    left_plain = flipped_odd + flipped_even
    right_plain = xor_int(odd + even, z) + (n - 1) * z
    left_alt = flipped_odd - flipped_even
    right_alt = xor_int(odd - even, z) - ((1 + (-1) ** n) // 2) * z
    return _report(
        f"sum-shift-laws n={n}",
        "samples",
        (left_plain != right_plain) | (left_alt != right_alt),
        lambda k: (xs[:, k], z[k], left_plain[k], right_plain[k], left_alt[k], right_alt[k]),
    )


def alternating_binomial_sides(n: int) -> tuple[int, int]:
    """Both sides of the alternating binomial identity, exact integers.

    Left:  sum_{i=1}^{n-1} (-1)^i * (C(n, i) - 1)
    Right: -(1 + (-1)^n) / 2     (i.e. -1 for even n, 0 for odd n)
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    terms = [math.comb(n, i) - 1 for i in range(1, n)]  # i = 1, 2, ...
    lhs = sum(terms[1::2]) - sum(terms[::2])
    rhs = -((1 + (-1) ** n) // 2)
    return lhs, rhs


def verify_alternating_binomial() -> CheckReport:
    """Check the alternating binomial identity for n = BINOMIAL_LO..BINOMIAL_HI."""
    # the sides stay Python ints; only the mismatch flags become an array
    sides = [alternating_binomial_sides(n) for n in range(BINOMIAL_LO, BINOMIAL_HI + 1)]
    return _report(
        f"alternating-binomial n={BINOMIAL_LO}..{BINOMIAL_HI}",
        "values",
        np.array([lhs != rhs for lhs, rhs in sides]),
        lambda k: (BINOMIAL_LO + k, *sides[k]),
    )
