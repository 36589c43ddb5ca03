"""Mod-2 parity identities and their exhaustive verifiers.

The central quantity is the alternating sum of subset xor-parities of a bit
vector (x_1, ..., x_n):

    sum over singletons  -  sum over pairs  +  sum over triples  -  ...

which equals the closed form 2^(n-1) * x_1 * ... * x_n.  Because the partial
sums leave {0, 1}, the xor operation is extended from bits to all integers as
``x + y - 2*x*y`` (``xor_int``); the recurrent evaluation of the parity sum is
built on that extension.  ``parity_sums`` gives the sum for all 2^n inputs
at once, to the exhaustive verifiers and to the simulator's linear trace.

Everything here is exact integer arithmetic.  ``parity_sum_direct`` is the
literal definition for one bit vector, in Python ints.  The recurrent and
closed forms take a table of bit vectors along its last axis and return
int64 arrays, so bit vectors are capped at ``MAX_BITS``.  Every verifier has
one shape: build its input table once (all assignments in
``itertools.product`` order, or seeded random rows), evaluate each form over
the whole table, and report the first row where two forms disagree, so its
output is deterministic.  The recurrent form is one fold over bit columns,
one pass per bit; the sampled verifier folds the tables of many widths in
lockstep, so a bit costs one pass for all of them.  The one cache holds the
direct sums of the last two widths, read-only over immutable bytes.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
from typing import Callable, Sequence

import numpy as np

# the largest n for the exhaustive verifiers and parity_sum_direct.  All 2^n
# assignments are one int8 table plus a few int64 columns: `verify-identity
# --n 20` takes 1.1-1.3 s and peaks at 125-148 MiB RSS in a fresh
# interpreter, while the verifiers alone take 4.7 s and 236 MiB at n = 21
# (2-core Xeon)
EXHAUSTIVE_LIMIT = 20

# the forms' values reach 2^(n-1), so at n <= 62 they and the sums and
# differences of two of them stay inside int64
MAX_BITS = 62

XOR_LAW_LO, XOR_LAW_HI = -8, 8  # verify_xor_int_laws: every triple in [-8, 8]^3
BINOMIAL_LO, BINOMIAL_HI = 2, 60  # verify_alternating_binomial: n = 2..60
SUM_SHIFT_TRIALS = 500  # verify_sum_shift_laws: seeded rows per width
# the recurrent fold takes at most this many rows per pass, so its int64
# sums and temporaries stay at 64 KiB each.  Longer passes are slower per
# row: widths 1..24 at 1,000 samples fold in 0.9 ms in passes of 8,000 rows
# and in 1.7-2.3 ms in one pass of 24,000, and one width of 1,000,000 rows
# in 89 ms in passes against 160-170 ms in one (2-core Xeon)
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
    # (WHT a)[x] = sum_s (-1)^popcount(s & x) a[s], one butterfly per index bit
    a, h = c, 1
    while h < a.shape[0]:
        pairs = a.reshape(-1, 2, h)
        a = np.stack((pairs[:, 0] + pairs[:, 1], pairs[:, 0] - pairs[:, 1]), axis=1).reshape(-1)
        h *= 2
    return (c.sum() - a) // 2


# the one cache: verify-identity runs verify_closed_form(k) and then
# verify_append_recurrence(k), which reuse the sums of widths k - 1 and k.
# Results are read-only arrays over immutable bytes
@functools.lru_cache(maxsize=2)
def _direct_sums(n: int) -> np.ndarray:
    # parity_sum_direct of every width-n assignment, in product order: the
    # coefficient of subset mask S is the sign of a |S|-element subset, so
    # by symmetry the mask's bit order does not matter
    odd = np.zeros(1, dtype=np.int64)
    for _ in range(n):
        odd = np.concatenate((odd, 1 - odd))  # popcount parity of 0..2^n - 1
    signs = 2 * odd - 1
    signs[0] = 0
    # backed by immutable bytes, so no view or base can be made writable
    return np.frombuffer(parity_sums(signs).tobytes(), dtype=np.int64)


def _assignments(n: int) -> np.ndarray:
    # all 2^n width-n bit vectors as int8 rows, in itertools.product order
    x = np.arange(1 << n)
    table = np.empty((1 << n, n), dtype=np.int8)
    for i in range(n):
        table[:, i] = (x >> (n - 1 - i)) & 1
    return table


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


def _fold(tables: list[np.ndarray]) -> np.ndarray:
    """The append recurrence over the rows of bit tables, widest table first.

    Returns the int64 sums of every row, table after table.  The tables are
    laid out as one column per bit, so the rows that have a bit j are a
    prefix of column j, and each bit is one pass over that prefix whatever
    the rows' widths.
    """
    columns = np.empty((tables[0].shape[1], sum(map(len, tables))), dtype=np.int8)
    start = 0
    for table in tables:
        columns[: table.shape[1], start : start + len(table)] = table.T
        start += len(table)
    total = columns[0].astype(np.int64)
    for j in range(1, len(columns)):
        rows = sum(len(t) for t in tables if t.shape[1] > j)
        s, b = total[:rows], columns[j, :rows]
        np.subtract(s + b, xor_int(s, b), out=s)
    return total


def parity_sum_recurrent(bits) -> np.ndarray:
    """Alternating parity sum in O(n) via the append recurrence.

    Appending a bit b to a vector with sum s gives  s + b - xor_int(s, b),
    which collapses to 2*b*s.  Base case: a single bit is its own sum.
    ``bits`` holds one bit vector along its last axis, or a table of them;
    the result is int64 of the table's leading shape.
    """
    bits = _bit_table(bits)
    table = bits.reshape(-1, bits.shape[-1])
    passes = range(0, max(len(table), 1), _FOLD_ROWS)
    sums = np.concatenate([_fold([table[lo : lo + _FOLD_ROWS]]) for lo in passes])
    return sums.reshape(bits.shape[:-1])


def parity_sum_closed_form(bits) -> np.ndarray:
    """The closed form 2^(n-1) * x_1 * ... * x_n, along the last axis."""
    bits = _bit_table(bits)
    return np.int64(1 << (bits.shape[-1] - 1)) * bits.all(axis=-1)


def verify_closed_form(n: int) -> CheckReport:
    """Exhaustively confirm direct == recurrent == closed form for width n."""
    if not 1 <= n <= EXHAUSTIVE_LIMIT:
        raise ValueError(f"need 1 <= n <= {EXHAUSTIVE_LIMIT}, got {n}")
    table = _assignments(n)
    direct = _direct_sums(n)
    recurrent = parity_sum_recurrent(table)
    closed = parity_sum_closed_form(table)
    return _report(
        f"closed-form n={n}",
        "assignments",
        (direct != closed) | (direct != recurrent),
        lambda k: (table[k], direct[k], recurrent[k], closed[k]),
    )


def verify_closed_form_sampled(n: int, samples: int) -> CheckReport:
    """Sampled check of recurrent == closed form past the direct cap, seeded with n."""
    (report,) = verify_closed_form_sampled_widths([n], samples)
    return report


def verify_closed_form_sampled_widths(widths: Sequence[int], samples: int) -> list[CheckReport]:
    """``verify_closed_form_sampled(n, samples)`` for each n in ``widths``.

    Each width draws its own seeded table, and the closed form checks each
    table in one call, but the recurrent forms of several widths are folded
    in lockstep: one pass per bit over all their rows, not one per width.  A
    pass takes at most ``_FOLD_ROWS`` rows, so widths fold together while
    their tables fit, and a larger table folds alone, in slices.
    """
    if min(widths) < 1:
        raise ValueError(f"need n >= 1, got {min(widths)}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    if max(widths) > MAX_BITS:
        raise ValueError(f"bit vectors are capped at {MAX_BITS} bits, got {max(widths)}")
    step = min(samples, _FOLD_ROWS)
    per_group = _FOLD_ROWS // step
    order = sorted(set(widths), reverse=True)
    reports = {}
    for i in range(0, len(order), per_group):
        reports.update(_sampled_group(order[i : i + per_group], samples, step))
    return [reports[n] for n in widths]


def _sampled_group(widths: list[int], samples: int, step: int) -> dict[int, CheckReport]:
    # widths in descending order; each pass folds rows lo..lo + step of
    # every table, which is all of them unless the group is one wide table
    tables = [
        np.random.default_rng(n).integers(0, 2, size=(samples, n), dtype=np.int8) for n in widths
    ]
    sums = np.empty((len(tables), samples), dtype=np.int64)
    for lo in range(0, samples, step):
        folded = _fold([table[lo : lo + step] for table in tables])
        sums[:, lo : lo + step] = folded.reshape(len(tables), -1)
    reports = {}
    for n, table, recurrent in zip(widths, tables, sums):
        closed = parity_sum_closed_form(table)
        reports[n] = _report(
            f"closed-form (sampled) n={n}",
            "samples",
            recurrent != closed,
            lambda k: (table[k], recurrent[k], closed[k]),
        )
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
    # assignment x is assignment x // 2 of width n - 1 with the bit x % 2 appended
    base, b = np.repeat(_direct_sums(n - 1), 2), np.arange(1 << n) % 2
    sums = _direct_sums(n)
    want = base + b - xor_int(base, b)
    return _report(
        f"recurrence n={n}",
        "cases",
        sums != want,
        lambda k: (_assignments(n - 1)[k // 2], b[k], sums[k], want[k]),
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


def verify_sum_shift_laws(n: int) -> CheckReport:
    """Check the two aggregated shift identities on SUM_SHIFT_TRIALS random bit vectors.

    For bits x_1..x_n and a bit z:

        sum_i (x_i xor z)            == xor_int(sum_i x_i, z) + (n - 1) * z
        sum_i (-1)^(i-1) (x_i xor z) == xor_int(sum_i (-1)^(i-1) x_i, z)
                                        - ((1 + (-1)^n) // 2) * z

    Each trial is one random row of n + 1 bits, z the last, seeded with n.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    rows = np.random.default_rng(n).integers(0, 2, size=(SUM_SHIFT_TRIALS, n + 1), dtype=np.int8)
    bits = np.ascontiguousarray(rows.T)  # row i - 1 holds x_i of every trial, row n holds z
    xs, z = bits[:n], bits[n].astype(np.int64)
    flipped = xs ^ bits[n]  # x_i xor z, bit by bit
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
        lambda k: (rows[k, :n], z[k], left_plain[k], right_plain[k], left_alt[k], right_alt[k]),
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
