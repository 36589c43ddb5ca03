import itertools
import math
import operator
from functools import reduce

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from mcusynth import z2identity
from mcusynth.z2identity import (
    EXHAUSTIVE_LIMIT,
    MAX_BITS,
    alternating_binomial_sides,
    parity_sum_closed_form,
    parity_sum_direct,
    parity_sum_recurrent,
    parity_sums,
    signed_parity_terms,
    verify_alternating_binomial,
    verify_append_recurrence,
    verify_closed_form,
    verify_closed_form_sampled,
    verify_sum_shift_laws,
    verify_xor_int_laws,
    xor_int,
    xor_mod2,
)

bits_vectors = st.lists(st.sampled_from([0, 1]), min_size=1, max_size=12)


def naive_parity_sum(bits):
    """Independent oracle: literal subset enumeration, no bitmask tricks."""
    n = len(bits)
    total = 0
    for k in range(1, n + 1):
        sign = 1 if k % 2 else -1
        for combo in itertools.combinations(range(n), k):
            total += sign * reduce(operator.xor, (bits[i] for i in combo))
    return total


class TestXor:
    def test_table(self):
        assert xor_mod2(0, 0) == 0
        assert xor_mod2(0, 1) == 1
        assert xor_mod2(1, 0) == 1
        assert xor_mod2(1, 1) == 0

    def test_rejects_non_bits(self):
        with pytest.raises(ValueError):
            xor_mod2(2, 0)
        with pytest.raises(ValueError):
            xor_mod2(0, -1)

    def test_int_extension_values(self):
        assert xor_int(1, 1) == 0
        assert xor_int(2, 3) == -7
        # x (+) 1 == 1 - x on all integers
        assert xor_int(5, 1) == -4

    def test_int_extension_matches_bits(self):
        for x, y in itertools.product((0, 1), repeat=2):
            assert xor_int(x, y) == xor_mod2(x, y)

    @given(st.integers(), st.integers())
    def test_commutative(self, x, y):
        assert xor_int(x, y) == xor_int(y, x)

    @given(st.integers(), st.integers(), st.integers())
    def test_associative(self, x, y, z):
        assert xor_int(xor_int(x, y), z) == xor_int(x, xor_int(y, z))

    @given(st.integers(), st.integers(), st.integers())
    def test_shift_laws(self, x, y, z):
        assert xor_int(x, z) + xor_int(y, z) == xor_int(x + y, z) + z
        assert xor_int(x, z) - xor_int(y, z) == xor_int(x - y, z) - z

    @given(st.integers())
    def test_unary_facts(self, x):
        assert xor_int(x, 0) == x
        assert xor_int(x, 1) == 1 - x
        assert xor_int(x, x) == 2 * x * (1 - x)


class TestParitySum:
    def test_known_values(self):
        assert parity_sum_direct([1, 1]) == 2
        assert parity_sum_direct([1, 1, 1]) == 4
        assert parity_sum_direct([1, 1, 0]) == 0
        assert parity_sum_direct([1, 1, 1, 1]) == 8

    def test_recurrent_known_values(self):
        assert parity_sum_recurrent([1, 1, 1]) == 4
        assert parity_sum_recurrent([1, 1, 1, 1, 1]) == 16
        for n in (2, 5, 9):
            assert parity_sum_recurrent([0] + [1] * (n - 1)) == 0

    def test_single_bit(self):
        assert parity_sum_direct([0]) == 0
        assert parity_sum_direct([1]) == 1

    def test_against_naive_enumeration(self):
        for n in range(1, 9):
            for bits in itertools.product((0, 1), repeat=n):
                assert parity_sum_direct(bits) == naive_parity_sum(bits)

    @given(bits_vectors)
    def test_three_routes_agree(self, bits):
        direct = parity_sum_direct(bits)
        assert direct == parity_sum_recurrent(bits)
        assert direct == parity_sum_closed_form(bits)

    def test_zero_annihilates_and_all_ones(self):
        for n in range(1, 11):
            assert parity_sum_direct([1] * n) == 1 << (n - 1)
            if n > 1:
                assert parity_sum_direct([1] * (n - 1) + [0]) == 0

    def test_input_validation(self):
        with pytest.raises(ValueError):
            parity_sum_direct([])
        with pytest.raises(ValueError):
            parity_sum_direct([0, 2])
        with pytest.raises(ValueError):
            parity_sum_recurrent([])

    def test_resource_guard(self):
        with pytest.raises(ValueError):
            parity_sum_direct([1] * (EXHAUSTIVE_LIMIT + 1))

    def test_int64_bound(self):
        # 2^(n-1) at the widest accepted vector; one bit more is refused,
        # not wrapped
        widest = [1] * MAX_BITS
        assert parity_sum_recurrent(widest) == parity_sum_closed_form(widest) == 1 << 61
        for form in (parity_sum_recurrent, parity_sum_closed_form):
            with pytest.raises(ValueError, match="capped at 62 bits"):
                form([1] * 63)
        with pytest.raises(ValueError, match="capped at 62 bits"):
            verify_closed_form_sampled(63, samples=1)

    @given(st.integers(1, 10).flatmap(lambda n: st.lists(
        st.lists(st.sampled_from([0, 1]), min_size=n, max_size=n), min_size=1, max_size=8
    )))
    def test_array_forms_match_definition(self, rows):
        # one call per form covers the whole table
        n = len(rows[0])
        recurrent, closed = parity_sum_recurrent(rows), parity_sum_closed_form(rows)
        direct = z2identity._direct_sums(n)
        for k, bits in enumerate(rows):
            want = parity_sum_direct(bits)
            assert recurrent[k] == closed[k] == direct[int("".join(map(str, bits)), 2)] == want


class TestParitySums:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_signed_table_matches_definition(self, n):
        # subset mask bit n-1-i is position i, so entry x of the result is
        # the x-th assignment in itertools.product order
        table = np.zeros(1 << n, dtype=np.int64)
        for sign, subset in signed_parity_terms(n):
            table[sum(2 ** (n - 1 - i) for i in subset)] = sign
        sums = parity_sums(table)
        for x, bits in enumerate(itertools.product((0, 1), repeat=n)):
            assert sums[x] == parity_sum_direct(bits), bits

    @given(st.integers(0, 6).flatmap(
        lambda n: st.lists(st.integers(-(10**6), 10**6), min_size=1 << n, max_size=1 << n)
    ))
    def test_any_coefficients(self, coeffs):
        sums = parity_sums(np.array(coeffs))
        for x in range(len(coeffs)):
            want = sum(c * (bin(s & x).count("1") % 2) for s, c in enumerate(coeffs))
            assert sums[x] == want


class TestSignedParityTerms:
    def test_canonical_order(self):
        terms = signed_parity_terms(3)
        assert [subset for _, subset in terms] == [
            (0,), (1,), (2,),
            (0, 1), (0, 2), (1, 2),
            (0, 1, 2),
        ]

    def test_covers_all_subsets_once(self):
        for n in range(1, 7):
            terms = signed_parity_terms(n)
            assert len(terms) == (1 << n) - 1
            assert len({subset for _, subset in terms}) == len(terms)

    def test_sign_rule(self):
        for sign, subset in signed_parity_terms(5):
            assert sign == (-1) ** (len(subset) - 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            signed_parity_terms(0)


class TestVerifiers:
    @pytest.mark.parametrize("n", [1, 2, 4, 10, 14, EXHAUSTIVE_LIMIT])
    def test_closed_form_passes(self, n):
        report = verify_closed_form(n)
        assert report.passed
        assert report.checked == 1 << n

    def test_closed_form_range_guard(self):
        with pytest.raises(ValueError):
            verify_closed_form(0)
        with pytest.raises(ValueError):
            verify_closed_form(EXHAUSTIVE_LIMIT + 1)

    def test_closed_form_sampled(self):
        report = verify_closed_form_sampled(20, samples=500)
        assert report.passed
        assert report.checked == 500

    @pytest.mark.parametrize("n", [2, 3, 5, 8, 14, EXHAUSTIVE_LIMIT])
    def test_append_recurrence_passes(self, n):
        report = verify_append_recurrence(n)
        assert report.passed
        assert report.checked == 1 << n

    @pytest.mark.parametrize(
        "broken, want",
        [("parity_sum_closed_form", (0, 0, 1)), ("parity_sum_recurrent", (0, 1, 0))],
        ids=["closed_form", "recurrent"],
    )
    def test_closed_form_reports_first_failure(self, monkeypatch, broken, want):
        # wrong at two assignments; the report names the earlier one
        bad, later = (0, 1, 1, 0, 1), (1, 1, 0, 0, 0)
        real = getattr(z2identity, broken)

        def marked(bits):
            return real(bits) + ((bits == bad).all(axis=-1) | (bits == later).all(axis=-1))

        monkeypatch.setattr(z2identity, broken, marked)
        report = verify_closed_form(5)
        assert not report.passed
        assert report.checked == list(itertools.product((0, 1), repeat=5)).index(bad) + 1
        assert report.counterexample == (bad,) + want
        assert all(type(v) is int for v in bad + report.counterexample[1:])
        assert report.summary() == (
            f"closed-form n=5: FAIL (14 assignments) counterexample={(bad,) + want!r}"
        )

    @pytest.mark.parametrize(
        "wrong_at, prefix, b, checked",
        # xor_int(s, b) with s the prefix sum: 0 unless the prefix is all
        # ones, where it is 2^(n-2) = 4 at n = 4
        [((0, 1), (0, 0, 0), 1, 2), ((4, 0), (1, 1, 1), 0, 15)],
        ids=["zero_prefix", "all_ones_prefix"],
    )
    def test_append_recurrence_reports_first_failure(
        self, monkeypatch, wrong_at, prefix, b, checked
    ):
        real = z2identity.xor_int
        a, b_at = wrong_at
        monkeypatch.setattr(
            z2identity, "xor_int", lambda x, y: real(x, y) + ((x == a) & (y == b_at))
        )
        report = verify_append_recurrence(4)
        assert not report.passed
        assert report.checked == checked
        got_prefix, got_b, got, want = report.counterexample
        assert (got_prefix, got_b) == (prefix, b)
        assert want == got - 1
        assert all(type(v) is int for v in got_prefix + (got_b, got, want))

    def test_closed_form_sampled_reports_first_failure(self, monkeypatch):
        # wrong on every sample that ends (1, 1); the report names the
        # first, which is not the first row
        real, tables = z2identity.parity_sum_closed_form, []

        def marked(bits):
            tables.append(bits)
            return real(bits) + bits[..., -2:].all(axis=-1)

        monkeypatch.setattr(z2identity, "parity_sum_closed_form", marked)
        report = verify_closed_form_sampled(6, samples=200)
        (table,) = tables
        k = next(i for i, row in enumerate(table.tolist()) if row[-2:] == [1, 1])
        assert k > 0
        bits = tuple(table[k].tolist())
        closed = 32 if all(bits) else 0
        want = (bits, closed, closed + 1)
        assert not report.passed
        assert report.checked == k + 1
        assert report.counterexample == want
        assert all(type(v) is int for v in bits + report.counterexample[1:])
        assert report.summary() == (
            f"closed-form (sampled) n=6: FAIL ({k + 1} samples) counterexample={want!r}"
        )

    @pytest.mark.parametrize(
        "wrong_at, checked, counterexample",
        # xor_int(5, 0) and xor_int(3, 3) break the unary facts x(+)0 and
        # x(+)x, which are checked before any triple.  xor_int(2, -1) is first reached as the inner
        # xor_int(y, z) of associativity at (-8, 2, -1), triple 178 in
        # x-major order
        [
            ((5, 0), 0, ("zero", 5)),
            ((3, 3), 0, ("self", 3)),
            ((2, -1), 178, ("associativity", -8, 2, -1)),
        ],
        ids=["zero", "self", "triple"],
    )
    def test_xor_int_laws_report_first_failure(
        self, monkeypatch, wrong_at, checked, counterexample
    ):
        real, (a, b) = z2identity.xor_int, wrong_at
        monkeypatch.setattr(z2identity, "xor_int", lambda x, y: real(x, y) + ((x == a) & (y == b)))
        report = verify_xor_int_laws()
        assert not report.passed
        assert report.checked == checked
        assert report.counterexample == counterexample
        assert all(type(v) is int for v in report.counterexample[1:])

    def test_xor_int_laws_pass(self):
        report = verify_xor_int_laws()
        assert report.passed
        assert report.summary() == "xor-int-laws [-8,8]: PASS (4913 triples)"

    def test_sum_shift_laws_pass(self):
        for n in (1, 2, 3, 7):
            assert verify_sum_shift_laws(n, trials=300).passed

    def test_sampled_rows_are_seeded_with_n(self, monkeypatch):
        # verify-identity's sampled report lines are fixed by n and --samples
        real, tables = z2identity.parity_sum_closed_form, []
        monkeypatch.setattr(
            z2identity, "parity_sum_closed_form", lambda bits: tables.append(bits) or real(bits)
        )
        assert verify_closed_form_sampled(7, samples=40).passed
        want = np.random.default_rng(7).integers(0, 2, size=(40, 7), dtype=np.int8)
        assert [t.tolist() for t in tables] == [want.tolist()]

    def test_sum_shift_hand_case_plain(self):
        # xs = (1,1,1), z = 1: left side 0, right side (3 (+) 1) + 2 = 0
        xs, z, n = (1, 1, 1), 1, 3
        left = sum(xor_mod2(x, z) for x in xs)
        right = xor_int(sum(xs), z) + (n - 1) * z
        assert left == right == 0

    def test_sum_shift_hand_case_alternating(self):
        # xs = (1,0), z = 1: left side -1, right side (1 (+) 1) - 1 = -1
        xs, z, n = (1, 0), 1, 2
        left = xor_mod2(xs[0], z) - xor_mod2(xs[1], z)
        right = xor_int(xs[0] - xs[1], z) - ((1 + (-1) ** n) // 2) * z
        assert left == right == -1

    def test_report_summary_format(self):
        report = verify_closed_form(2)
        assert report.summary() == "closed-form n=2: PASS (4 assignments)"


class TestAlternatingBinomial:
    def test_small_values(self):
        assert alternating_binomial_sides(2) == (-1, -1)
        assert alternating_binomial_sides(3) == (0, 0)
        assert alternating_binomial_sides(4) == (-1, -1)

    def test_matches_direct_formula(self):
        # recompute the left side from scratch as a cross-check
        for n in range(2, 30):
            lhs, rhs = alternating_binomial_sides(n)
            brute = sum((-1) ** i * (math.comb(n, i) - 1) for i in range(1, n))
            assert lhs == brute
            assert rhs == (-1 if n % 2 == 0 else 0)

    def test_range_verifier(self):
        report = verify_alternating_binomial()
        assert report.passed
        assert report.checked == 59
        assert report.summary() == "alternating-binomial n=2..60: PASS (59 values)"

    def test_rejects_small_n(self):
        with pytest.raises(ValueError):
            alternating_binomial_sides(1)
