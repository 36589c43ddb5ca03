"""Mod-2 parity identities and their exhaustive verifiers.

The central quantity is the alternating sum of subset xor-parities of a bit
vector (x_1, ..., x_n):

    sum over singletons  -  sum over pairs  +  sum over triples  -  ...

which equals the closed form 2^(n-1) * x_1 * ... * x_n.  Because the partial
sums leave {0, 1}, the xor operation is extended from bits to all integers as
``x + y - 2*x*y`` (``xor_int``); the recurrent evaluation of the parity sum is
built on that extension.  ``parity_sums`` gives the sum for all 2^n inputs
at once, to the exhaustive verifiers and to the simulator's linear trace.

Everything here is exact integer arithmetic.  The verifiers enumerate their
whole input space (or a seeded random sample) and report the first
counterexample in enumeration order, so their output is deterministic.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# bounds parity_sum_direct and the verifiers' per-assignment loop; at 14
# verify_closed_form plus verify_append_recurrence take 0.35 s (2-core Xeon)
EXHAUSTIVE_LIMIT = 14


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class SignedParityTerm:
    """One subset of bit positions together with its alternating sign.

    Odd-sized subsets enter the parity sum with +1, even-sized with -1.
    The same terms, in the same order, drive the synthesizer's block list.
    """

    subset: tuple[int, ...]

    def __post_init__(self):
        if len(self.subset) == 0:
            raise ValueError("subset must be nonempty")
        if any(i < 0 for i in self.subset):
            raise ValueError("subset indices must be nonnegative")
        if any(a >= b for a, b in zip(self.subset, self.subset[1:])):
            raise ValueError("subset indices must be strictly increasing")

    @property
    def sign(self) -> int:
        return 1 if len(self.subset) % 2 else -1

    def parity(self, bits: Sequence[int]) -> int:
        """Xor of the selected bits."""
        value = 0
        for i in self.subset:
            value ^= bits[i]
        return value


def signed_parity_terms(n: int) -> list[SignedParityTerm]:
    """All nonempty subsets of range(n) in canonical order.

    Canonical order is subset size ascending, lexicographic within a size.
    ``parity_sum_direct`` and the circuit synthesizer both rely on it.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    return [
        SignedParityTerm(combo)
        for k in range(1, n + 1)
        for combo in itertools.combinations(range(n), k)
    ]


def _as_bit(x: int) -> int:
    if x not in (0, 1):
        raise ValueError(f"expected a bit in {{0, 1}}, got {x!r}")
    return x


def _as_bits(bits: Sequence[int]) -> tuple[int, ...]:
    out = tuple(_as_bit(b) for b in bits)
    if not out:
        raise ValueError("bit vector must be nonempty")
    return out


def xor_mod2(x: int, y: int) -> int:
    """Xor of two bits: x + y mod 2."""
    return (_as_bit(x) + _as_bit(y)) % 2


def xor_int(x: int, y: int) -> int:
    """Integer extension of xor: x + y - 2*x*y.

    Agrees with :func:`xor_mod2` whenever both arguments are bits, but is
    defined for all integers (Python ints never overflow).
    """
    return x + y - 2 * x * y


def parity_sum_direct(bits: Sequence[int]) -> int:
    """Alternating sum of subset xor-parities, by its definition.

    Sums sign * parity over the 2^n - 1 terms of ``signed_parity_terms(n)``,
    as the reference ``parity_sums`` is tested against.  Cost is O(n 2^n),
    so ``EXHAUSTIVE_LIMIT`` guards against accidental huge n.
    """
    bits = _as_bits(bits)
    n = len(bits)
    if n > EXHAUSTIVE_LIMIT:
        raise ValueError(f"direct enumeration capped at n={EXHAUSTIVE_LIMIT}, got n={n}")
    return sum(term.sign * term.parity(bits) for term in signed_parity_terms(n))


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


def _direct_sums(n: int) -> list[int]:
    # parity_sum_direct of every width-n assignment; position 0 is the most
    # significant bit, so entry x is the x-th assignment in product order
    coeffs = np.zeros(1 << n, dtype=np.int64)
    for term in signed_parity_terms(n):
        coeffs[sum(1 << (n - 1 - i) for i in term.subset)] = term.sign
    return parity_sums(coeffs).tolist()


def parity_sum_recurrent(bits: Sequence[int]) -> int:
    """Alternating parity sum in O(n) via the append recurrence.

    Appending a bit b to a vector with sum s gives  s + b - xor_int(s, b),
    which collapses to 2*b*s.  Base case: a single bit is its own sum.
    """
    bits = _as_bits(bits)
    total = bits[0]
    for b in bits[1:]:
        total = total + b - xor_int(total, b)
    return total


def parity_sum_closed_form(bits: Sequence[int]) -> int:
    """The closed form 2^(n-1) * x_1 * ... * x_n."""
    bits = _as_bits(bits)
    return (1 << (len(bits) - 1)) if all(bits) else 0


def verify_closed_form(n: int) -> CheckReport:
    """Exhaustively confirm direct == recurrent == closed form for width n."""
    if not 1 <= n <= EXHAUSTIVE_LIMIT:
        raise ValueError(f"need 1 <= n <= {EXHAUSTIVE_LIMIT}, got {n}")
    direct_sums = _direct_sums(n)
    for x, bits in enumerate(itertools.product((0, 1), repeat=n)):
        direct = direct_sums[x]
        recurrent = parity_sum_recurrent(bits)
        closed = parity_sum_closed_form(bits)
        if direct != closed or direct != recurrent:
            return CheckReport(
                name=f"closed-form n={n}",
                passed=False,
                checked=x + 1,
                unit="assignments",
                counterexample=(bits, direct, recurrent, closed),
            )
    return CheckReport(f"closed-form n={n}", True, len(direct_sums), "assignments")


def verify_closed_form_sampled(n: int, samples: int, seed: int = 0) -> CheckReport:
    """Sampled check of recurrent == closed form, for n beyond the direct cap."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if samples < 1:
        raise ValueError(f"need samples >= 1, got {samples}")
    rng = random.Random(seed)
    for k in range(samples):
        bits = tuple(rng.randint(0, 1) for _ in range(n))
        recurrent = parity_sum_recurrent(bits)
        closed = parity_sum_closed_form(bits)
        if recurrent != closed:
            return CheckReport(
                name=f"closed-form (sampled) n={n}",
                passed=False,
                checked=k + 1,
                unit="samples",
                counterexample=(bits, recurrent, closed),
            )
    return CheckReport(f"closed-form (sampled) n={n}", True, samples, "samples")


def verify_append_recurrence(n: int) -> CheckReport:
    """Check the append step pointwise for every width-n assignment.

    For every prefix p of length n-1 and appended bit b, the direct sum of
    p + (b,) must equal  s + b - xor_int(s, b)  with s the direct sum of p.
    The left operand of xor_int is a full integer here, not a bit; that is
    precisely what the integer extension exists for.
    """
    if not 2 <= n <= EXHAUSTIVE_LIMIT:
        raise ValueError(f"need 2 <= n <= {EXHAUSTIVE_LIMIT}, got {n}")
    prefix_sums, sums = _direct_sums(n - 1), _direct_sums(n)
    for x, bits in enumerate(itertools.product((0, 1), repeat=n)):
        # bits[:-1] is assignment x // 2 of width n - 1
        base, b = prefix_sums[x // 2], bits[-1]
        want = base + b - xor_int(base, b)
        if sums[x] != want:
            return CheckReport(
                name=f"recurrence n={n}",
                passed=False,
                checked=x + 1,
                unit="cases",
                counterexample=(bits[:-1], b, sums[x], want),
            )
    return CheckReport(f"recurrence n={n}", True, len(sums), "cases")


def verify_xor_int_laws(lo: int = -8, hi: int = 8) -> CheckReport:
    """Check the algebraic laws of xor_int on every triple in [lo, hi]^3.

    Laws: commutativity, associativity, the two shift laws

        xor_int(x, z) + xor_int(y, z) == xor_int(x + y, z) + z
        xor_int(x, z) - xor_int(y, z) == xor_int(x - y, z) - z

    plus the unary facts x(+)0 == x, x(+)1 == 1 - x, x(+)x == 2x(1 - x).
    """
    if lo > hi:
        raise ValueError(f"empty range [{lo}, {hi}]")
    values = range(lo, hi + 1)
    checked = 0

    def fail(kind, *witness):
        return CheckReport(
            name=f"xor-int-laws [{lo},{hi}]",
            passed=False,
            checked=checked,
            unit="triples",
            counterexample=(kind,) + witness,
        )

    for x in values:
        if xor_int(x, 0) != x:
            return fail("zero", x)
        if xor_int(x, 1) != 1 - x:
            return fail("one", x)
        if xor_int(x, x) != 2 * x * (1 - x):
            return fail("self", x)
    for x in values:
        for y in values:
            for z in values:
                checked += 1
                if xor_int(x, y) != xor_int(y, x):
                    return fail("commutativity", x, y)
                if xor_int(xor_int(x, y), z) != xor_int(x, xor_int(y, z)):
                    return fail("associativity", x, y, z)
                if xor_int(x, z) + xor_int(y, z) != xor_int(x + y, z) + z:
                    return fail("sum-shift", x, y, z)
                if xor_int(x, z) - xor_int(y, z) != xor_int(x - y, z) - z:
                    return fail("difference-shift", x, y, z)
    return CheckReport(f"xor-int-laws [{lo},{hi}]", True, checked, "triples")


def verify_sum_shift_laws(n: int, trials: int, seed: int = 0) -> CheckReport:
    """Check the two aggregated shift identities on random bit vectors.

    For bits x_1..x_n and a bit z:

        sum_i (x_i xor z)            == xor_int(sum_i x_i, z) + (n - 1) * z
        sum_i (-1)^(i-1) (x_i xor z) == xor_int(sum_i (-1)^(i-1) x_i, z)
                                        - ((1 + (-1)^n) // 2) * z
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if trials < 1:
        raise ValueError(f"need trials >= 1, got {trials}")
    rng = random.Random(seed)
    for k in range(trials):
        xs = [rng.randint(0, 1) for _ in range(n)]
        z = rng.randint(0, 1)

        left_plain = sum(xor_mod2(x, z) for x in xs)
        right_plain = xor_int(sum(xs), z) + (n - 1) * z

        signed = [x if i % 2 == 0 else -x for i, x in enumerate(xs)]
        left_alt = sum(
            t if i % 2 == 0 else -t
            for i, t in enumerate(xor_mod2(x, z) for x in xs)
        )
        right_alt = xor_int(sum(signed), z) - ((1 + (-1) ** n) // 2) * z

        if left_plain != right_plain or left_alt != right_alt:
            return CheckReport(
                name=f"sum-shift-laws n={n}",
                passed=False,
                checked=k + 1,
                unit="samples",
                counterexample=(tuple(xs), z, left_plain, right_plain, left_alt, right_alt),
            )
    return CheckReport(f"sum-shift-laws n={n}", True, trials, "samples")


def alternating_binomial_sides(n: int) -> tuple[int, int]:
    """Both sides of the alternating binomial identity, exact integers.

    Left:  sum_{i=1}^{n-1} (-1)^i * (C(n, i) - 1)
    Right: -(1 + (-1)^n) / 2     (i.e. -1 for even n, 0 for odd n)
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    lhs = sum((-1) ** i * (math.comb(n, i) - 1) for i in range(1, n))
    rhs = -((1 + (-1) ** n) // 2)
    return lhs, rhs


def verify_alternating_binomial(lo: int = 2, hi: int = 60) -> CheckReport:
    """Check the alternating binomial identity for every n in [lo, hi]."""
    if lo < 2 or lo > hi:
        raise ValueError(f"need 2 <= lo <= hi, got [{lo}, {hi}]")
    checked = 0
    for n in range(lo, hi + 1):
        checked += 1
        lhs, rhs = alternating_binomial_sides(n)
        if lhs != rhs:
            return CheckReport(
                name=f"alternating-binomial n={lo}..{hi}",
                passed=False,
                checked=checked,
                unit="values",
                counterexample=(n, lhs, rhs),
            )
    return CheckReport(f"alternating-binomial n={lo}..{hi}", True, checked, "values")
