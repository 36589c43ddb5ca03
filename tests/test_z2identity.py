import dataclasses
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mcusynth import z2identity
from mcusynth.z2identity import (
    EXHAUSTIVE_LIMIT,
    MAX_BITS,
    parity_sums,
    verify_alternating_binomial,
    verify_append_recurrence,
    verify_closed_form,
    verify_closed_form_sampled,
    verify_closed_form_sampled_prefixes,
    verify_exhaustive,
    verify_sum_shift_laws,
    verify_xor_int_laws,
    xor_int,
)

from oracle import (
    alternating_binomial_sides,
    parity_sum_closed_form,
    parity_sum_direct,
    parity_sum_recurrent,
    signed_parity_terms,
)

bits_vectors = st.lists(st.sampled_from([0, 1]), min_size=1, max_size=12)

# xor_int, and mutants of it that the verifiers must catch
XOR_MUTANTS = {
    None: xor_int,
    "x+y-xy": lambda x, y: x + y - x * y,
    "at(2,1)": lambda x, y: xor_int(x, y) + ((x == 2) & (y == 1)),
    "at(4,1)": lambda x, y: xor_int(x, y) + ((x == 4) & (y == 1)),
    "at(0,1)": lambda x, y: xor_int(x, y) + ((x == 0) & (y == 1)),
}
FOLD_ROWS = [z2identity._FOLD_ROWS, 1, 7, 64]


def sum_shift_one_width_at_a_time(n, xor):
    """verify_sum_shift_laws(n) under ``xor``, each width k rebuilt alone in
    Python ints: x is the first k bits of a row seeded with n, z its bit
    k + 1."""
    rows = np.random.default_rng(n).integers(0, 2, size=(500, n + 1), dtype=np.int8).tolist()
    want = []
    for k in range(1, n + 1):
        report = z2identity.CheckReport(f"sum-shift-laws n={k}", True, 500, "samples")
        for i, row in enumerate(rows):
            xs, z = row[:k], row[k]
            flipped = [x ^ z for x in xs]
            sides = (
                sum(flipped),
                int(xor(sum(xs), z)) + (k - 1) * z,
                sum(flipped[::2]) - sum(flipped[1::2]),
                int(xor(sum(xs[::2]) - sum(xs[1::2]), z)) - ((1 + (-1) ** k) // 2) * z,
            )
            if sides[0] != sides[1] or sides[2] != sides[3]:
                report = dataclasses.replace(
                    report, passed=False, checked=i + 1, counterexample=(tuple(xs), z, *sides)
                )
                break
        want.append(report)
    return want


def mark_fold(monkeypatch, form, hit):
    """Make ``form`` ("recurrent" or "closed") of the sampled verifier's fold
    one too large on the rows whose k-bit prefix ``hit(prefixes)`` marks."""
    real, which = z2identity._fold, ("recurrent", "closed").index(form)

    def marked(table):
        for lo, k, *forms in real(table):
            forms[which] = forms[which] + hit(table[lo : lo + len(forms[0]), :k])
            yield lo, k, *forms

    monkeypatch.setattr(z2identity, "_fold", marked)


class TestXor:
    def test_table(self):
        assert xor_int(0, 0) == 0
        assert xor_int(0, 1) == 1
        assert xor_int(1, 0) == 1
        assert xor_int(1, 1) == 0

    def test_int_extension_values(self):
        assert xor_int(1, 1) == 0
        assert xor_int(2, 3) == -7
        # x (+) 1 == 1 - x on all integers
        assert xor_int(5, 1) == -4

    def test_int_extension_matches_bits(self):
        for x, y in itertools.product((0, 1), repeat=2):
            assert xor_int(x, y) == x ^ y

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

    def test_int64_bound(self):
        # 2^(n-1) at the sampled verifier's widest vector; one bit more is
        # refused, not wrapped
        widest = [1] * MAX_BITS
        assert parity_sum_recurrent(widest) == parity_sum_closed_form(widest) == 1 << 61
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


class TestFold:
    @given(
        # a fill of ones makes long all-ones prefixes, whose forms are nonzero
        arrays(
            np.int8,
            st.tuples(st.integers(1, 40), st.integers(1, MAX_BITS)),
            elements=st.integers(0, 1),
            fill=st.integers(0, 1),
        ),
        st.sampled_from(FOLD_ROWS),
    )
    @settings(max_examples=100, deadline=None)
    def test_both_forms_of_every_prefix(self, table, fold_rows):
        # every pass yields each width once, in order, and both running
        # forms equal the public forms of the pass's k-bit prefixes
        rows, n = table.shape
        want = [
            (parity_sum_recurrent(table[:, :k]), parity_sum_closed_form(table[:, :k]))
            for k in range(1, n + 1)
        ]
        with mock.patch.object(z2identity, "_FOLD_ROWS", fold_rows):
            seen = []
            for lo, k, recurrent, closed in z2identity._fold(table):
                seen.append((lo, k))
                part = slice(lo, min(lo + fold_rows, rows))
                assert recurrent.dtype == closed.dtype == np.int64
                assert recurrent.tolist() == want[k - 1][0][part].tolist()
                assert closed.tolist() == want[k - 1][1][part].tolist()
        assert seen == [(lo, k) for lo in range(0, rows, fold_rows) for k in range(1, n + 1)]


class TestExhaustiveForms:
    @pytest.mark.parametrize("n", range(1, 11))
    def test_both_forms_of_every_assignment(self, n):
        # entry x of each form belongs to assignment x in product order,
        # which _bits reads back from x
        rows = list(itertools.product((0, 1), repeat=n))
        recurrent, closed = z2identity._forms(n)
        assert recurrent.dtype == closed.dtype == np.int64
        assert recurrent.tolist() == parity_sum_recurrent(rows).tolist()
        assert closed.tolist() == parity_sum_closed_form(rows).tolist()
        assert [z2identity._bits(x, n) for x in range(1 << n)] == rows


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
        for n in (0, EXHAUSTIVE_LIMIT + 1):
            with pytest.raises(ValueError):
                verify_exhaustive(n)

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
        "broken, want", [("closed", (0, 0, 1)), ("recurrent", (0, 1, 0))],
        ids=["closed_form", "recurrent"],
    )
    def test_closed_form_reports_first_failure(self, monkeypatch, broken, want):
        # one form is wrong at two assignments, so only its comparison with
        # the direct sums fails; the report names the earlier one
        bad, later = (0, 1, 1, 0, 1), (1, 1, 0, 0, 0)
        order = list(itertools.product((0, 1), repeat=5))
        hits = np.isin(np.arange(32), [order.index(bad), order.index(later)])
        real, which = z2identity._forms, ("recurrent", "closed").index(broken)

        def marked(n):
            forms = list(real(n))
            forms[which] = forms[which] + hits
            return tuple(forms)

        monkeypatch.setattr(z2identity, "_forms", marked)
        report = verify_closed_form(5)
        assert not report.passed
        assert report.checked == order.index(bad) + 1
        assert report.counterexample == (bad,) + want
        assert all(type(v) is int for v in bad + report.counterexample[1:])
        assert report.summary() == (
            f"closed-form n=5: FAIL (14 assignments) counterexample={(bad,) + want!r}"
        )

    @pytest.mark.parametrize("n", [1, 2, 6, 7, 8])
    @pytest.mark.parametrize("mutant", list(XOR_MUTANTS))
    def test_closed_form_matches_one_row_at_a_time(self, mutant, n):
        # the report rebuilt row by row from the definition and the public
        # forms, alone and as verify_exhaustive's width n; its reports are
        # those of the one-width verifiers, called alone
        with mock.patch.object(z2identity, "xor_int", XOR_MUTANTS[mutant]):
            got = verify_closed_form(n)
            reports = verify_exhaustive(n)
            assert reports == [verify_closed_form(k) for k in range(1, n + 1)] + [
                verify_append_recurrence(k) for k in range(2, n + 1)
            ]
            want = z2identity.CheckReport(f"closed-form n={n}", True, 1 << n, "assignments")
            for i, bits in enumerate(itertools.product((0, 1), repeat=n)):
                direct = parity_sum_direct(bits)
                forms = (direct, int(parity_sum_recurrent(bits)), int(parity_sum_closed_form(bits)))
                if len(set(forms)) > 1:
                    want = dataclasses.replace(
                        want, passed=False, checked=i + 1, counterexample=(bits, *forms)
                    )
                    break
        assert got == reports[n - 1] == want

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
        # the fold's closed form is wrong on every prefix that ends (1, 1);
        # the report names the first, which is not the first row.  Width 6
        # is folded last, on the whole rows
        tables = []
        mark_fold(monkeypatch, "closed", lambda p: tables.append(p) or p[:, -2:].all(axis=-1))
        report = verify_closed_form_sampled(6, samples=200)
        table = tables[-1]
        assert table.shape == (200, 6)
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

    def test_sampled_failure_in_a_later_pass(self, monkeypatch):
        # the fold's closed form of width 5 is wrong on one 5-bit prefix, which
        # first shows in a later pass and shows again in a pass after that:
        # the report names its first row, numbered from the table's start
        n, k, samples, fold_rows = 10, 5, 200, 8
        table = np.random.default_rng(n).integers(0, 2, size=(samples, n), dtype=np.int8)
        prefixes = [tuple(row[:k]) for row in table.tolist()]
        first = {}
        for i, prefix in enumerate(prefixes):
            first.setdefault(prefix, i)
        bad = max(first, key=first.get)
        i = first[bad]
        assert i >= fold_rows
        assert any(p == bad for p in prefixes[(i // fold_rows + 1) * fold_rows :])
        mark_fold(monkeypatch, "closed", lambda p: p.shape[1] == k and (p == bad).all(axis=-1))
        monkeypatch.setattr(z2identity, "_FOLD_ROWS", fold_rows)
        reports = verify_closed_form_sampled_prefixes(n, samples)
        closed = 16 if all(bad) else 0
        assert reports[k - 1] == z2identity.CheckReport(
            f"closed-form (sampled) n={k}", False, i + 1, "samples", (bad, closed, closed + 1)
        )
        assert [r.summary() for r in reports[:k - 1] + reports[k:]] == [
            f"closed-form (sampled) n={w}: PASS ({samples} samples)"
            for w in range(1, n + 1)
            if w != k
        ]

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
            assert [r.summary() for r in verify_sum_shift_laws(n)] == [
                f"sum-shift-laws n={k}: PASS (500 samples)" for k in range(1, n + 1)
            ]

    @given(st.integers(1, 24), st.sampled_from(list(XOR_MUTANTS)))
    @settings(max_examples=100, deadline=None)
    def test_sum_shift_prefixes_match_one_width_at_a_time(self, n, mutant):
        # each width k's report rebuilt alone in Python ints: x is the first
        # k bits of a row seeded with n, z its bit k + 1
        xor = XOR_MUTANTS[mutant]
        with mock.patch.object(z2identity, "xor_int", xor):
            got = verify_sum_shift_laws(n)
        assert got == sum_shift_one_width_at_a_time(n, xor)

    def test_sum_shift_rows_are_seeded_with_n(self, monkeypatch):
        # width k checks the first k bits of the rows seeded with n against
        # their bit k + 1, so width n's rows are the same whatever its
        # neighbours.  The one-pass helper is given those rows, one bit per
        # row; under an xor_int that is off by one everywhere, each width
        # fails at the first row and names its first k bits and bit k + 1
        real, given = z2identity._sum_shift_reports, []
        monkeypatch.setattr(
            z2identity, "_sum_shift_reports", lambda bits: given.append(bits) or real(bits)
        )
        assert all(r.passed for r in verify_sum_shift_laws(6))
        rows = np.random.default_rng(6).integers(0, 2, size=(500, 7), dtype=np.int8)
        assert [bits.T.tolist() for bits in given] == [rows.tolist()]
        monkeypatch.setattr(z2identity, "xor_int", lambda x, y: xor_int(x, y) + 1)
        reports = verify_sum_shift_laws(6)
        assert [(r.checked, r.counterexample[:2]) for r in reports] == [
            (1, (tuple(rows[0, :k].tolist()), int(rows[0, k]))) for k in range(1, 7)
        ]

    @pytest.mark.parametrize(
        "n, dtype", [(62, np.int8), (63, np.int16), (64, np.int16), (127, np.int16)]
    )
    def test_sum_shift_sides_fit_their_dtype(self, n, dtype):
        # the one pass keeps its sums in the smallest integer type that
        # holds -2(n + 1) - 1: int8 up to n = 62, int16 from n = 63.  Its
        # ring operations wrap in a type too small, so a correct xor_int
        # still passes there, but the sides that a failing width names
        # wrap.  With xor_int as x + y, the plain right side at z = 1 is
        # sum x_i + k, past int8 at n = 127, and every report still
        # equals the Python-int rebuild
        seen = []

        def plus(x, y):
            seen.append(x.dtype)
            return x + y

        with mock.patch.object(z2identity, "xor_int", plus):
            got = verify_sum_shift_laws(n)
        assert set(seen) == {np.dtype(dtype)}
        assert got == sum_shift_one_width_at_a_time(n, lambda x, y: x + y)

    @given(st.integers(-9, 9), st.integers(-9, 9))
    @settings(max_examples=60, deadline=None)
    def test_xor_int_laws_match_a_triple_loop(self, a, b):
        # xor_int wrong at the single point (a, b): the report equals a
        # Python loop over the unary facts, then over the triples in
        # x-major order and the laws in order, in plain ints
        def mutant(x, y):
            return xor_int(x, y) + ((x == a) & (y == b))

        with mock.patch.object(z2identity, "xor_int", mutant):
            got = verify_xor_int_laws()
        assert got == xor_int_laws_reference(mutant)
        assert all(type(v) is int for v in (got.counterexample or ())[1:])

    @given(
        st.integers(1, 24),
        st.integers(1, 64),
        st.sampled_from(list(XOR_MUTANTS)),
        st.sampled_from(FOLD_ROWS),
    )
    @settings(max_examples=100, deadline=None)
    def test_prefixes_match_one_width_at_a_time(self, n, samples, mutant, fold_rows):
        # each width k's report rebuilt alone from the k-bit prefixes of the
        # rows seeded with n, through the recurrent form and the closed
        # form.  Small passes split the table, so a width's first failure
        # may lie in any pass
        xor = XOR_MUTANTS[mutant]
        with mock.patch.object(z2identity, "xor_int", xor), mock.patch.object(
            z2identity, "_FOLD_ROWS", fold_rows
        ):
            got = verify_closed_form_sampled_prefixes(n, samples)
            rows = np.random.default_rng(n).integers(0, 2, size=(samples, n), dtype=np.int8)
            want = []
            for k in range(1, n + 1):
                table = rows[:, :k]
                recurrent, closed = parity_sum_recurrent(table), parity_sum_closed_form(table)
                bad = [i for i in range(samples) if recurrent[i] != closed[i]]
                name = f"closed-form (sampled) n={k}"
                if bad:
                    i = bad[0]
                    witness = (tuple(table[i].tolist()), int(recurrent[i]), int(closed[i]))
                    want.append(z2identity.CheckReport(name, False, i + 1, "samples", witness))
                else:
                    want.append(z2identity.CheckReport(name, True, samples, "samples"))
        assert got == want

    def test_sampled_rows_are_seeded_with_n(self, monkeypatch):
        # verify-identity's sampled report lines are fixed by n and
        # --samples: width k checks the k-bit prefixes of the rows seeded
        # with n, so width n's rows are the same whatever n's neighbours
        tables = []
        mark_fold(monkeypatch, "closed", lambda p: tables.append(p.copy()) or False)
        assert verify_closed_form_sampled(7, samples=40).passed
        want = np.random.default_rng(7).integers(0, 2, size=(40, 7), dtype=np.int8)
        assert [t.tolist() for t in tables] == [want[:, :k].tolist() for k in range(1, 8)]

    def test_sum_shift_hand_case_plain(self):
        # xs = (1,1,1), z = 1: left side 0, right side (3 (+) 1) + 2 = 0
        xs, z, n = (1, 1, 1), 1, 3
        left = sum((x + z) % 2 for x in xs)
        right = xor_int(sum(xs), z) + (n - 1) * z
        assert left == right == 0

    def test_sum_shift_hand_case_alternating(self):
        # xs = (1,0), z = 1: left side -1, right side (1 (+) 1) - 1 = -1
        xs, z, n = (1, 0), 1, 2
        left = (xs[0] + z) % 2 - (xs[1] + z) % 2
        right = xor_int(xs[0] - xs[1], z) - ((1 + (-1) ** n) // 2) * z
        assert left == right == -1

    def test_report_summary_format(self):
        report = verify_closed_form(2)
        assert report.summary() == "closed-form n=2: PASS (4 assignments)"


def xor_int_laws_reference(xor):
    """verify_xor_int_laws' report, rebuilt one case at a time in Python ints."""
    name, values = "xor-int-laws [-8,8]", range(z2identity.XOR_LAW_LO, z2identity.XOR_LAW_HI + 1)
    for v in values:
        for kind, holds in (
            ("zero", xor(v, 0) == v),
            ("one", xor(v, 1) == 1 - v),
            ("self", xor(v, v) == 2 * v * (1 - v)),
        ):
            if not holds:
                return z2identity.CheckReport(name, False, 0, "triples", (kind, v))
    for i, (x, y, z) in enumerate(itertools.product(values, repeat=3)):
        for kind, holds, case in (
            ("commutativity", xor(x, y) == xor(y, x), (x, y)),
            ("associativity", xor(xor(x, y), z) == xor(x, xor(y, z)), (x, y, z)),
            ("sum-shift", xor(x, z) + xor(y, z) == xor(x + y, z) + z, (x, y, z)),
            ("difference-shift", xor(x, z) - xor(y, z) == xor(x - y, z) - z, (x, y, z)),
        ):
            if not holds:
                return z2identity.CheckReport(name, False, i + 1, "triples", (kind, *case))
    return z2identity.CheckReport(name, True, len(values) ** 3, "triples")


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

    def test_pascal_triangle_is_exact(self):
        # every entry the verifier reads is C(n, i); a cap raised past what
        # int64 holds wraps an entry and fails here
        hi = z2identity.BINOMIAL_HI
        triangle = z2identity._pascal(hi)
        assert triangle.dtype == np.int64
        assert triangle.tolist() == [
            [math.comb(n, i) for i in range(hi + 1)] for n in range(hi + 1)
        ]

    @pytest.mark.parametrize("n, i", [(2, 1), (37, 12), (60, 59), (41, 0), (41, 41)])
    def test_reports_a_wrong_triangle_entry(self, monkeypatch, n, i):
        # C(n, i) one too large: row n fails with the sides it read, unless
        # i lies outside the sum's 1..n - 1
        real = z2identity._pascal

        def perturbed(hi):
            triangle = real(hi)
            triangle[n, i] += 1
            return triangle

        monkeypatch.setattr(z2identity, "_pascal", perturbed)
        report = verify_alternating_binomial()
        if not 1 <= i < n:
            assert report.summary() == "alternating-binomial n=2..60: PASS (59 values)"
            return
        lhs, rhs = alternating_binomial_sides(n)
        want = (n, lhs + (-1) ** i, rhs)
        assert report == z2identity.CheckReport(
            "alternating-binomial n=2..60", False, n - 1, "values", want
        )
        assert all(type(v) is int for v in report.counterexample)


def shifted(a, z, c):
    """The weighted shift's right side, xor_int(a, z) + (c - 1) * z: equal to
    c * (x xor z) for a = c * x, and summed over terms with a and c summed."""
    return xor_int(a, z) + (c - 1) * z


def flipped_sum(x, b):
    """sum_S sigma(S) * (parity(x_S) xor b) over the nonempty subsets S of x."""
    return sum(sign * ((sum(x[i] for i in S) % 2) ^ b) for sign, S in signed_parity_terms(len(x)))


class TestInduction:
    """The lemmas of the induction in the z2identity docstring, each checked
    on a grid that proves it: a polynomial of degree at most d in each
    variable that vanishes on d + 1 points per variable is zero (Alon,
    "Combinatorial Nullstellensatz", 1999).  Each test also checks the lemma
    where the step uses it, on every assignment of a few bits."""

    GRID = range(-3, 4)

    def test_append_step(self):
        """P(x, b) = s + b - sum_S sigma(S) * (parity(x_S) xor b), and
        s + b - shifted(s, b, 1) = 2*b*s.  The second is of degree 1 in s and
        in b, so 2 values of each prove it; the grid has 7.  It is the step
        that ``_append`` takes, and the first splits the definition."""
        for s, b in itertools.product(self.GRID, repeat=2):
            assert s + b - shifted(s, b, 1) == 2 * b * s, (s, b)
        assert z2identity._append(np.array(self.GRID)).tolist() == [
            2 * b * s for s in self.GRID for b in (0, 1)
        ]
        for n in range(1, 7):
            for *x, b in itertools.product((0, 1), repeat=n + 1):
                assert parity_sum_direct([*x, b]) == parity_sum_direct(x) + b - flipped_sum(x, b)

    def test_weighted_shift(self):
        """c * (x xor z) = shifted(c * x, z, c) for bits x, z and every
        integer c, and shifted sums termwise.  With x xor z = x + z - 2*x*z
        both are of degree at most 1 in each of c, x, z and the a, c and z
        of two terms, so 2 values of each prove them; c and a take 7 values,
        and x and z are bits."""
        for c, x, z in itertools.product(self.GRID, (0, 1), (0, 1)):
            assert c * (x ^ z) == shifted(c * x, z, c), (c, x, z)
        for a, c, a2, c2 in itertools.product(self.GRID, repeat=4):
            for z in (0, 1):
                assert shifted(a, z, c) + shifted(a2, z, c2) == shifted(a + a2, z, c + c2)

    def test_subset_sign_sum(self):
        """sum_S sigma(S) over the nonempty subsets of m >= 1 bits is
        1 - (1 - 1)^m = 1, the binomial theorem at -1: not a polynomial
        identity in m, so the values m = 1..60 are a spot check.  Then the
        flipped parities sum to shifted(s, b, 1) = xor_int(s, b) on every
        assignment of up to 6 bits, the lemma that closes the step."""
        for m in range(1, 61):
            assert sum((-1) ** (k + 1) * math.comb(m, k) for k in range(1, m + 1)) == 1, m
        for m in range(1, 7):
            assert sum(sign for sign, _ in signed_parity_terms(m)) == 1
            for *x, b in itertools.product((0, 1), repeat=m + 1):
                assert flipped_sum(x, b) == shifted(parity_sum_direct(x), b, 1), (x, b)
