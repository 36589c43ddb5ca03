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

Everything here is exact integer arithmetic.  The direct sums, P by its
definition for every assignment of a width, come from ``parity_sums``
(``_direct_sums``).  The recurrent and closed forms are int64 arrays, so
the sampled verifier's bit vectors are capped at ``MAX_BITS``.  Every
verifier evaluates its forms over all its inputs at once and reports the
first input where two forms disagree, so its output is deterministic.

The exhaustive verifiers hold no table: in ``itertools.product`` order,
assignment x is assignment x // 2 with the bit x % 2 appended, so
``_bits`` reads an assignment from its index, and both forms of every
width-k assignment grow from width k - 1's by one append step: ``_append``
for the recurrent form, one more factor of the running product
2^(k-1) * x_1 * ... * x_k for the closed form.  ``verify_exhaustive``,
the full mode of ``verify-identity``, runs widths 1..n in one loop, the
only place that makes a width's arrays: it computes each width's direct
sums once, grows both its forms once from the width before, and hands
them to ``verify_closed_form`` and ``verify_append_recurrence``, which
only compare them.  Only the sampled verifier folds a table, of seeded
rows (``_fold``).  The verifiers do not re-validate the arrays they
compare; the tests compare their reports with rebuilds from the
definitions in ``tests/oracle.py``.

Each law check is one array pass over all its cases.  The ``xor_int`` laws
evaluate ``xor_int`` once on the table of pairs and once per nested or
shifted term on the grid of triples.  The sum-shift laws check every width
in one pass over their table (``_sum_shift_reports``), by two running sums
down its rows, of x_i and of (-1)^(i-1) * x_i.  The binomial check reads
all its sides from one int64 Pascal triangle (``_pascal``).

Prefix policy: the sampled closed-form check and the sum-shift laws each
draw one table seeded with n and check every width k = 1..n on a prefix of
its rows.  The closed form takes the k-bit prefixes of n-bit rows; the
sum-shift laws take x from the first k bits of (n + 1)-bit rows and z from
bit k + 1.  Each width still sees independent, uniform rows, and width n's
rows are those seeded with n; a smaller width's rows, and so its report
under a broken ``xor_int``, depend on n.

Nothing outlives a call: the module holds no arrays and no cache.
``verify_exhaustive`` keeps a width's arrays in its loop's locals only
while a later width still reads them.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Iterator

import numpy as np

# the largest n for the exhaustive verifiers.  Each width costs a few int64
# arrays of 2^n entries and no table of assignments: `verify-identity --n 20`
# takes 0.38-0.45 s and peaks at 78 MiB RSS in a fresh interpreter (2-core
# Xeon)
EXHAUSTIVE_LIMIT = 20

# the widest bit vector of the sampled verifier: its forms' values reach
# 2^(n-1), so at n <= 62 they and the sums and differences of two of them
# stay inside int64
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


def xor_int(x, y):
    """Integer extension of xor: x + y - 2*x*y.

    Agrees with xor, x + y mod 2, whenever both arguments are bits, but is
    defined for all integers (Python ints never overflow), and elementwise
    on arrays.
    """
    return x + y - 2 * x * y


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


def _direct_sums(n: int) -> np.ndarray:
    # P by its definition, of every width-n assignment in product order: the
    # coefficient of subset mask S is the sign of a |S|-element subset, so
    # by symmetry the mask's bit order does not matter
    signs = np.full(1, -1, dtype=np.int64)
    for _ in range(n):
        signs = np.concatenate((signs, -signs))  # -(-1)^popcount of 0..2^n - 1
    signs[0] = 0
    return parity_sums(signs)


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


def verify_exhaustive(n: int) -> list[CheckReport]:
    """The reports of ``verify_closed_form`` for widths k = 1..n, then of
    ``verify_append_recurrence`` for k = 2..n.

    Width k's direct sums are made once, for both verifiers at k and the
    recurrence at k + 1, and its forms are grown once, from width k - 1's.
    Each array goes once no later width needs it, the widest forms before
    the last recurrence check."""
    if not 1 <= n <= EXHAUSTIVE_LIMIT:
        raise ValueError(f"need 1 <= n <= {EXHAUSTIVE_LIMIT}, got {n}")
    closed_form, recurrence = [], []
    recurrent = closed = np.arange(2, dtype=np.int64)  # width 1: a bit is both its forms
    for k in range(1, n + 1):
        direct = _direct_sums(k)  # before the forms, so the two peaks do not add
        if k > 1:  # one append step, and one more factor of the running product
            recurrent, closed = _append(recurrent), (closed[:, None] * (0, 2)).reshape(-1)
        closed_form.append(verify_closed_form(k, direct, recurrent, closed))
        if k == n:
            recurrent = closed = None
        if k > 1:
            recurrence.append(verify_append_recurrence(k, below, direct))
        below = direct
    return closed_form + recurrence


def verify_closed_form(
    n: int, direct: np.ndarray, recurrent: np.ndarray, closed: np.ndarray
) -> CheckReport:
    """Confirm direct == recurrent == closed form for every width-n
    assignment, from width n's direct sums and both its forms in product
    order, as ``verify_exhaustive`` hands them."""
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


def verify_append_recurrence(n: int, below: np.ndarray, sums: np.ndarray) -> CheckReport:
    """Check the append step pointwise for every width-n assignment.

    For every prefix p of length n-1 and appended bit b, the direct sum of
    p + (b,) must equal  s + b - xor_int(s, b)  with s the direct sum of p.
    The left operand of xor_int is a full integer here, not a bit; that is
    precisely what the integer extension exists for.  ``below`` and
    ``sums`` are the direct sums of widths n - 1 and n, as
    ``verify_exhaustive`` hands them.
    """
    want = _append(below)
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
    xor_int runs five times: once on the table of pairs, which the unary
    facts, commutativity and the terms xor_int(x, z) and xor_int(y, z) read,
    and once on the (x, y, z) grid for each nested or shifted term.
    """
    name = f"xor-int-laws [{XOR_LAW_LO},{XOR_LAW_HI}]"
    v = np.arange(XOR_LAW_LO, XOR_LAW_HI + 1, dtype=np.int64)
    pairs = xor_int(v[:, None], v)  # pairs[i, j] = xor_int(v[i], v[j])
    zero, one = -XOR_LAW_LO, 1 - XOR_LAW_LO  # the columns of y = 0 and y = 1
    facts = (pairs[:, zero] != v, pairs[:, one] != 1 - v, pairs.diagonal() != 2 * v * (1 - v))
    kinds = ("zero", "one", "self")
    report = _report(
        name, "triples", facts[0] | facts[1] | facts[2], lambda i: (kinds[_first(facts, i)], v[i])
    )
    if not report.passed:
        return dataclasses.replace(report, checked=0)  # no triple was checked yet
    # axis 0 is x, axis 1 y and axis 2 z
    x, y, z, grid = v[:, None, None], v[:, None], v, (v.size,) * 3
    xz, yz = pairs[:, None, :], pairs
    laws = (
        np.broadcast_to((pairs != pairs.T)[:, :, None], grid),
        xor_int(pairs[:, :, None], z) != xor_int(x, yz),
        xz + yz != xor_int(x + y, z) + z,
        xz - yz != xor_int(x - y, z) - z,
    )

    def witness(k):
        triple = np.unravel_index(k, grid)
        law = _first(laws, triple)
        # commutativity involves x and y only
        kind = ("commutativity", "associativity", "sum-shift", "difference-shift")[law]
        return (kind, *v[list(triple)])[: 3 if law == 0 else 4]

    return _report(name, "triples", (laws[0] | laws[1] | laws[2] | laws[3]).reshape(-1), witness)


def _first(flags: tuple[np.ndarray, ...], index) -> int:
    # the first of the flag arrays that is True at index
    return next(j for j, flag in enumerate(flags) if flag[index])


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
    return _sum_shift_reports(np.ascontiguousarray(rows.T))


def _sum_shift_reports(bits: np.ndarray) -> list[CheckReport]:
    """Both shift identities for every width k = 1..n of a table of n + 1
    bits per trial, in one pass: row i - 1 holds bit i of every trial, and
    width k takes x_1..x_k from the first k rows and z from row k + 1.

    Two running sums down the rows, S = sum_i x_i and A = sum_i (-1)^(i-1)
    x_i, give every width's sides at once: x xor 1 = 1 - x, so the left
    sides are S + z * (k - 2S) and A + z * ((k mod 2) - 2A).  Row k - 1 of
    every array below belongs to width k."""
    n = bits.shape[0] - 1
    # every sum, side and term of xor_int lies in [-2(n + 1), 2(n + 1)]
    dtype = np.min_scalar_type(-2 * (n + 1) - 1)
    xs, z = bits[:-1], bits[1:].astype(dtype)
    k = np.arange(1, n + 1, dtype=dtype)[:, None]  # row k - 1's: width k, and x_k's position
    odd = k % 2  # k mod 2, and (-1)^(k-1) = 2 * odd - 1
    # sums[k - 1] holds S and A of width k, as a running sum row by row:
    # np.cumsum is several times slower on these short small-int rows
    sums = np.stack((xs, xs * (2 * odd - 1)), axis=1)
    for i in range(1, n):
        np.add(sums[i - 1], sums[i], out=sums[i])
    s, a = sums[:, 0], sums[:, 1]
    sides = (
        s + z * (k - 2 * s),
        xor_int(s, z) + (k - 1) * z,
        a + z * (odd - 2 * a),
        xor_int(a, z) - (1 - odd) * z,
    )
    mismatch = (sides[0] != sides[1]) | (sides[2] != sides[3])
    return [
        _report(
            f"sum-shift-laws n={width}",
            "samples",
            mismatch[width - 1],
            lambda t: (xs[:width, t], z[width - 1, t], *(side[width - 1, t] for side in sides)),
        )
        for width in range(1, n + 1)
    ]


def _pascal(hi: int) -> np.ndarray:
    # C(n, i) at [n, i] for 0 <= i <= n <= hi, zero above the diagonal:
    # exact in int64 while row n's sum 2^n stays below 2^63
    triangle = np.zeros((hi + 1, hi + 1), dtype=np.int64)
    triangle[:, 0] = 1
    for n in range(1, hi + 1):
        np.add(triangle[n - 1, 1:], triangle[n - 1, :-1], out=triangle[n, 1:])
    return triangle


def verify_alternating_binomial() -> CheckReport:
    """Check the alternating binomial identity for n = BINOMIAL_LO..BINOMIAL_HI,
    every side read from one Pascal triangle in int64."""
    n = np.arange(BINOMIAL_LO, BINOMIAL_HI + 1, dtype=np.int64)
    i = np.arange(BINOMIAL_HI + 1, dtype=np.int64)
    sign, inner = 1 - 2 * (i % 2), (1 <= i) & (i < n[:, None])  # (-1)^i; i = 1..n - 1
    lhs = np.where(inner, (_pascal(BINOMIAL_HI)[n] - 1) * sign, 0).sum(axis=1)
    rhs = n % 2 - 1  # -(1 + (-1)^n) / 2
    return _report(
        f"alternating-binomial n={BINOMIAL_LO}..{BINOMIAL_HI}",
        "values",
        lhs != rhs,
        lambda k: (BINOMIAL_LO + k, lhs[k], rhs[k]),
    )
