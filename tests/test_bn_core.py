"""Core numerology: rho, the k-gonal refinement, kappa two ways, duality,
and the step-by-step search that is the oracle for the trivial closure."""

import re
from math import isqrt

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from bnkappa import bn_core
from bnkappa.bn_core import (
    BNLocus,
    KappaBranch,
    KappaResult,
    clifford_index,
    general_gonality,
    kappa,
    kappa_brute,
    kappa_closed,
    r_prime,
    rho,
    rho_pflueger,
)
from bnkappa.certificates import trivial_closure
from bnkappa.errors import DomainError, InternalError
from bnkappa.maximal_loci import d_max


def admissible_triples(gmax, require_range=True):
    """All (g, r, d) with rho < 0, and 2r <= d <= g-1 when require_range."""
    for g in range(3, gmax + 1):
        for r in range(1, g):
            lo = 2 * r if require_range else 0
            hi = g - 1 if require_range else 2 * g - 2
            for d in range(lo, hi + 1):
                if rho(g, r, d) < 0:
                    yield g, r, d


# ---------------------------------------------------------------------------
# rho / gamma / r_prime


def test_rho_frozen():
    assert rho(20, 3, 17) == -4
    assert rho(20, 4, 19) == -5
    assert rho(20, 2, 15) == -1
    assert rho(20, 1, 10) == -2
    assert rho(4, 1, 2) == -2
    assert rho(20, 1, 12) == 2  # non-negative: kappa undefined there


def test_rho_domain():
    with pytest.raises(DomainError):
        rho(1, 1, 1)
    with pytest.raises(DomainError):
        rho(20, -1, 5)


def test_clifford_index_frozen():
    assert clifford_index(3, 17) == 11
    assert clifford_index(2, 15) == 11
    assert clifford_index(1, 2) == 0


def test_r_prime_frozen():
    assert r_prime(20, 3, 17) == 3
    assert r_prime(20, 1, 10) == 1
    assert r_prime(20, 5, 21) == min(5, 20 - 21 + 5 - 1)


@given(
    st.integers(-10**12, 10**12),
    st.integers(-10**12, 10**12) | st.integers(-5, 5),
    st.integers(-10**12, 10**12),
)
def test_r_prime_is_the_min_of_its_two_cutoffs(g, r, d):
    assert r_prime(g, r, d) == min(r, g - d + r - 1)


def test_general_gonality():
    assert general_gonality(4) == 3
    assert general_gonality(20) == 11
    assert general_gonality(21) == 12


# ---------------------------------------------------------------------------
# rho_pflueger


def test_rho_pflueger_frozen():
    # (20,3,17): terms over l = 0..3 are -4, 5-k, 12-2k, 17-3k
    assert rho_pflueger(20, 3, 17, 6) == 0
    assert rho_pflueger(20, 3, 17, 7) == -2
    assert rho_pflueger(20, 3, 17, 100) == -4  # l = 0 term dominates for huge k
    assert rho_pflueger(20, 1, 10, 10) == 0
    assert rho_pflueger(20, 1, 10, 11) == -1


def rho_pflueger_linear(g, r, d, k):
    """rho_k from its definition: the maximum over every l = 0..max(0, r')."""
    top = max(0, r_prime(g, r, d))
    return max(rho(g, r - l, d) - l * k for l in range(0, top + 1))


def test_rho_pflueger_matches_linear_maximum_on_every_small_tuple():
    count = 0
    for g in range(2, 31):
        for r in range(0, g + 2):
            for d in range(0, 2 * g + 2):
                for k in range(2, g + 3):
                    assert rho_pflueger(g, r, d, k) == rho_pflueger_linear(g, r, d, k), (
                        g, r, d, k,
                    )
                    count += 1
    assert count == 512_836


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_rho_pflueger_matches_linear_maximum_at_huge_genus(data):
    # r' = min(r, g - d + r - 1) is kept <= 2,000 so the oracle stays cheap:
    # either the rank is small or the degree is close to g + r
    g = data.draw(st.integers(min_value=2, max_value=10**9), label="g")
    if data.draw(st.booleans(), label="small rank"):
        r = data.draw(st.integers(min_value=0, max_value=min(g + 1, 2_000)), label="r")
        d = data.draw(st.integers(min_value=0, max_value=2 * g + 1), label="d")
    else:
        r = data.draw(st.integers(min_value=0, max_value=g + 1), label="r")
        d = data.draw(st.integers(min_value=max(0, g + r - 2_001), max_value=2 * g + 1), label="d")
    top = max(0, r_prime(g, r, d))
    assert top <= 2_000
    # k either anywhere or placing the parabola's vertex (r + 1 + g - d + r - k)/2
    # at a drawn l in [0, r'], off by a few
    l = data.draw(st.integers(min_value=0, max_value=top), label="vertex")
    near = r + 1 + g - d + r - 2 * l + data.draw(st.integers(-3, 3), label="offset")
    k = data.draw(
        st.integers(min_value=2, max_value=g + 2) | st.just(min(max(near, 2), g + 2)), label="k"
    )
    assert rho_pflueger(g, r, d, k) == rho_pflueger_linear(g, r, d, k)


def test_rho_pflueger_requires_k_at_least_2():
    with pytest.raises(DomainError):
        rho_pflueger(20, 3, 17, 1)


@pytest.mark.parametrize("fn, args, message", [
    (rho_pflueger, (1, 1, 1, 2), "rho_pflueger requires g >= 2, r >= 0, d >= 0; got (1, 1, 1)"),
    (rho_pflueger, (2, -1, 1, 2), "rho_pflueger requires g >= 2, r >= 0, d >= 0; got (2, -1, 1)"),
    (rho_pflueger, (2, 1, -1, 2), "rho_pflueger requires g >= 2, r >= 0, d >= 0; got (2, 1, -1)"),
    # rho(10, 6, 11) = -25 < 0, one degree short of d = 2r
    (kappa_brute, (10, 6, 11), "kappa_brute requires d - 2r >= 0, got -1"),
])
def test_each_function_refuses_one_step_outside_its_domain(fn, args, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        fn(*args)


def test_rho_pflueger_monotone_in_k():
    for g, r, d in admissible_triples(25):
        values = [rho_pflueger(g, r, d, k) for k in range(2, g + 2)]
        assert all(a >= b for a, b in zip(values, values[1:])), (g, r, d)


def test_rho_pflueger_stabilizes_to_rho():
    # for k >= g+1 and gamma >= 0 the l = 0 term wins outright
    for g, r, d in admissible_triples(30):
        assert rho_pflueger(g, r, d, g + 1) == rho(g, r, d), (g, r, d)
        assert rho_pflueger(g, r, d, g + 5) == rho(g, r, d)


def test_rho_pflueger_parabola_vertex_equivalence():
    # the l-th term is a downward parabola in l with vertex at
    # l* = (g - k - gamma + 1)/2; its integer max sits at ceil(l*) clamped
    # to [0, r'], so that single evaluation must equal the full scan
    for g, r, d in admissible_triples(30):
        gamma = clifford_index(r, d)
        rp = r_prime(g, r, d)
        for k in range(2, general_gonality(g) + 1):
            lstar_ceil = -((k + gamma - g - 1) // 2)
            l = min(max(lstar_ceil, 0), rp)
            single = rho(g, r - l, d) - l * k
            assert single == rho_pflueger(g, r, d, k), (g, r, d, k)


@given(
    st.integers(min_value=3, max_value=200),
    st.integers(min_value=1, max_value=60),
    st.integers(min_value=0, max_value=260),
    st.integers(min_value=2, max_value=120),
)
@settings(max_examples=300)
def test_rho_pflueger_at_least_rho_property(g, r, d, k):
    assert rho_pflueger(g, r, d, k) >= rho(g, r, d)


# ---------------------------------------------------------------------------
# kappa: brute, closed, dispatch


def test_kappa_brute_frozen():
    assert kappa_brute(20, 1, 10) == KappaResult(10, KappaBranch.BRUTE_FORCE)
    assert kappa_brute(20, 3, 17).value == 6
    assert kappa_brute(20, 4, 19).value == 5
    assert kappa_brute(4, 1, 2).value == 2


def brute_domain(gmax):
    """All (g, r, d) kappa_brute accepts: rho < 0, d >= 2r and g - d + r >= 1."""
    for g in range(2, gmax + 1):
        for r in range(1, g):
            for d in range(2 * r, g + r):
                if rho(g, r, d) < 0:
                    yield g, r, d


def test_kappa_brute_matches_linear_scan():
    # the scan over every k is the definition the bisection must reproduce
    for g, r, d in brute_domain(60):
        cap = general_gonality(g)
        scan = max(k for k in range(2, cap + 1) if rho_pflueger(g, r, d, k) >= 0)
        expected = KappaResult(scan, KappaBranch.BRUTE_FORCE)
        assert kappa_brute(g, r, d) == expected, (g, r, d)


@pytest.mark.parametrize("rho_k", [0, -1])
def test_kappa_brute_internal_errors(monkeypatch, rho_k):
    # rho_k >= 0 at the general gonality, or rho_2 < 0, contradicts the theory
    monkeypatch.setattr(bn_core, "_rho_k", lambda g, a, h, top, k: rho_k)
    with pytest.raises(InternalError):
        kappa_brute(20, 3, 17)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_kappa_brute_logarithmic_at_huge_genus(monkeypatch, r):
    g = 10**9
    d = d_max(g, r)
    calls = []
    original = bn_core._rho_k

    def counted(*args):
        calls.append(args)
        return original(*args)

    # every probe goes through the unchecked kernel, so counting it counts them
    monkeypatch.setattr(bn_core, "_rho_k", counted)
    value = kappa_brute(g, r, d).value
    assert 1 <= len(calls) <= 2 + general_gonality(g).bit_length()
    assert value == kappa_closed(g, r, d).value


def test_kappa_closed_frozen():
    res = kappa_closed(20, 3, 17)
    assert (res.value, res.branch) == (6, KappaBranch.CLOSED_SECOND_CASE)
    res = kappa_closed(4, 1, 2)
    assert (res.value, res.branch) == (2, KappaBranch.CLOSED_FIRST_CASE)
    res = kappa_closed(34, 2, 24)
    assert (res.value, res.branch) == (12, KappaBranch.CLOSED_SECOND_CASE)
    assert kappa_closed(20, 1, 10).branch == KappaBranch.CLOSED_FIRST_CASE
    assert kappa_closed(20, 1, 10).value == 10


def test_kappa_undefined_when_rho_nonnegative():
    for fn in (kappa, kappa_brute, kappa_closed):
        with pytest.raises(DomainError):
            fn(20, 1, 12)


def test_kappa_closed_requires_low_degree():
    # rho(20,5,21) = -4 but d > g-1, outside the closed formula's domain
    with pytest.raises(DomainError):
        kappa_closed(20, 5, 21)


def test_kappa_dispatch_serre_reduction():
    # (20,5,21) reduces to its dual (20,3,17)
    res = kappa(20, 5, 21)
    assert res.branch == KappaBranch.SERRE_DUAL_REDUCTION
    assert res.value == 6
    assert res.value == kappa_brute(20, 5, 21).value
    # the dual shares rho and the Clifford index, which the CLI prints
    assert (rho(20, 5, 21), clifford_index(5, 21)) == (rho(20, 3, 17), clifford_index(3, 17))
    assert rho(20, 5, 21) == -4


def test_kappa_dispatch_matches_brute_above_serre_range():
    # every admissible high-degree locus with a computable brute value
    for g in range(4, 36):
        for r in range(1, g):
            for d in range(g, 2 * g - 2):
                if rho(g, r, d) >= 0 or d - 2 * r < 0 or g - d + r < 1:
                    continue
                assert kappa(g, r, d).value == kappa_brute(g, r, d).value, (g, r, d)


@pytest.mark.parametrize(
    "g, r, d",
    [
        (10, 6, 11),  # d < 2r above g - 1: the dual has gamma = -1 too
        (10, 10, 19),  # g - d + r = 1 (forces d > 2g - 2): no dual
        (10, 11, 19),  # d > 2g - 2: the dual degree would be negative
    ],
)
def test_kappa_without_a_closed_value_raises_without_brute_force(monkeypatch, g, r, d):
    assert rho(g, r, d) < 0

    def fail(*args):
        raise AssertionError("kappa called kappa_brute")

    monkeypatch.setattr(bn_core, "kappa_brute", fail)
    with pytest.raises(DomainError):
        kappa(g, r, d)


def serre_dual(g, r, d):
    """Indices (g, g - d + r - 1, 2g - 2 - d) of the Serre-dual locus, from the
    definition: a series D of rank r and degree d has residual K - D of degree
    2g - 2 - d and, by Riemann-Roch, rank g - d + r - 1."""
    s, e = g - d + r - 1, 2 * g - 2 - d
    if s < 0 or e < 0:
        raise DomainError(f"Serre dual of ({g},{r},{d}) has negative rank or degree")
    return g, s, e


def kappa_two_step(g, r, d):
    """kappa's oracle: kappa_closed itself for d <= g - 1, and for d > g - 1
    kappa_closed on serre_dual's indices, wrapped in a second result.

    For rho >= 0, kappa_closed raises the error kappa raises.
    """
    rv = rho(g, r, d)
    if d <= g - 1 or rv >= 0:
        return kappa_closed(g, r, d)
    dual = kappa_closed(*serre_dual(g, r, d))
    return KappaResult(dual.value, KappaBranch.SERRE_DUAL_REDUCTION)


def _outcome(fn, g, r, d):
    try:
        return fn(g, r, d)
    except DomainError as exc:
        return str(exc)


KAPPA_ERRORS = (
    "rho requires g >= 2, r >= 0, d >= 0",
    "kappa undefined outside rho < 0",
    "kappa requires d - 2r >= 0",
)


def test_kappa_equals_the_two_step_route_on_every_small_triple():
    # in and out of the domain, negative indices and g < 2 included; kappa
    # refuses exactly off its domain, rho < 0 and d >= 2r, and there the
    # two-step route, whose dual step checks its indices, refuses too
    seen = set()
    for g in range(0, 61):
        for r in range(-1, g + 3):
            for d in range(-1, 2 * g + 3):
                got, want = _outcome(kappa, g, r, d), _outcome(kappa_two_step, g, r, d)
                off_domain = g < 2 or r < 0 or d < 0 or rho(g, r, d) >= 0 or d < 2 * r
                assert isinstance(got, str) == off_domain, (g, r, d)
                if off_domain:
                    assert isinstance(want, str), (g, r, d)
                    seen.update(p for p in KAPPA_ERRORS if got.startswith(p))
                    assert got.startswith(KAPPA_ERRORS), got
                else:
                    assert got == want, (g, r, d)
                # kappa_closed is kappa, bar its one refusal of the Serre-dual range
                refused = g >= 2 and r >= 0 and d > g - 1 and rho(g, r, d) < 0
                assert _outcome(kappa_closed, g, r, d) == (
                    f"kappa_closed requires d <= g - 1, got d={d}, g={g}" if refused else got
                ), (g, r, d)
    assert seen == set(KAPPA_ERRORS)


@pytest.mark.parametrize("fn, texts", [
    (kappa_closed, (
        "rho requires g >= 2, r >= 0, d >= 0",
        "kappa undefined outside rho < 0",
        "kappa_closed requires d <= g - 1",
        "kappa requires d - 2r >= 0",
    )),
    (kappa_brute, (
        "rho requires g >= 2, r >= 0, d >= 0",
        "kappa undefined outside rho < 0",
        "kappa_brute requires d - 2r >= 0",
    )),
], ids=["kappa_closed", "kappa_brute"])
def test_each_kappa_route_raises_only_its_own_texts_on_every_small_triple(fn, texts):
    # rho < 0 alone gives r >= 1 (rho(g, 0, d) = d) and g - d + r >= 1 (else
    # rho >= g), so neither route checks them, and every text occurs
    seen = set()
    for g in range(0, 61):
        for r in range(-1, g + 3):
            for d in range(-1, 2 * g + 3):
                try:
                    fn(g, r, d)
                except DomainError as exc:
                    text = str(exc)
                    assert text.startswith(texts), text
                    seen.update(p for p in texts if text.startswith(p))
                else:
                    assert r >= 1 and g - d + r >= 1, (g, r, d)
    assert seen == set(texts)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_kappa_on_the_dual_route_equals_the_two_step_route_at_huge_genus(data):
    g = data.draw(st.integers(3, 10**9), label="g")
    r = data.draw(st.integers(max(1, isqrt(g) - 2), g - 2) | st.integers(1, g - 2), label="r")
    lo, hi = max(g, 2 * r), min(d_max(g, r), 2 * g - 2)
    assume(lo <= hi)
    d = data.draw(st.integers(lo, hi), label="d")
    want = kappa_two_step(g, r, d)
    assert want.branch == KappaBranch.SERRE_DUAL_REDUCTION and rho(g, r, d) < 0
    assert kappa(g, r, d) == want


@pytest.mark.parametrize("g, r, d, branch", [
    (20, 5, 21, KappaBranch.SERRE_DUAL_REDUCTION),
    (10**9, 10**8, 10**9, KappaBranch.SERRE_DUAL_REDUCTION),
    (20, 3, 17, KappaBranch.CLOSED_SECOND_CASE),
    (4, 1, 2, KappaBranch.CLOSED_FIRST_CASE),
])
def test_kappa_builds_one_result_and_computes_rho_once(monkeypatch, g, r, d, branch):
    results, rhos = [], []
    original_rho = bn_core.rho

    def counted_result(*args):
        results.append(args)
        return KappaResult(*args)

    def counted_rho(*args):
        rhos.append(args)
        return original_rho(*args)

    want = kappa(g, r, d)
    monkeypatch.setattr(bn_core, "KappaResult", counted_result)
    monkeypatch.setattr(bn_core, "rho", counted_rho)
    assert kappa(g, r, d) == want
    assert want.branch == branch
    assert len(results) == 1
    assert rhos == [(g, r, d)]


@pytest.mark.parametrize("fn, args, text", [
    (kappa, (4, 1, 2),
     "KappaResult(value=2, branch=<KappaBranch.CLOSED_FIRST_CASE: 'closed-first-case'>)"),
    (kappa, (20, 3, 17),
     "KappaResult(value=6, branch=<KappaBranch.CLOSED_SECOND_CASE: 'closed-second-case'>)"),
    (kappa, (20, 5, 21),
     "KappaResult(value=6, branch=<KappaBranch.SERRE_DUAL_REDUCTION: 'serre-dual-reduction'>)"),
    (kappa_brute, (20, 1, 10),
     "KappaResult(value=10, branch=<KappaBranch.BRUTE_FORCE: 'brute-force'>)"),
])
def test_kappa_result_repr_frozen(fn, args, text):
    assert repr(fn(*args)) == text


def test_kappa_result_equality_and_hash():
    res, plain = kappa(20, 3, 17), (6, KappaBranch.CLOSED_SECOND_CASE)
    same = KappaResult(*plain)
    assert res == same and not res != same
    assert hash(res) == hash(same) == hash(plain)
    assert res != KappaResult(6, KappaBranch.BRUTE_FORCE) and res != KappaResult(7, plain[1])
    # a plain named tuple: equal to the tuple of its fields, in both orders
    assert res == plain and plain == res and not res != plain and not plain != res
    assert len({res, same, plain}) == 1


def test_kappa_result_is_immutable_and_ordered_as_a_tuple():
    res = kappa(20, 3, 17)
    for name in ("value", "branch", "other"):
        with pytest.raises(AttributeError):
            setattr(res, name, 7)
    assert (res.value, res.branch) == (6, KappaBranch.CLOSED_SECOND_CASE)
    # the tuple's order: by value first, so rank 4's kappa 5 sits below rank 3's 6
    assert kappa(20, 4, 19) < res and res > kappa(20, 4, 19)
    assert res <= (6, res.branch) and res >= res
    assert sorted([res, kappa(20, 4, 19)]) == [kappa(20, 4, 19), res]
    with pytest.raises(TypeError):  # equal values fall through to the branch, an unordered Enum
        res < KappaResult(6, KappaBranch.BRUTE_FORCE)


def test_kappa_oracle_equivalence_small():
    # the full g <= 60 sweep runs in the acceptance suite; keep a quick gate here
    for g, r, d in admissible_triples(40):
        assert kappa_closed(g, r, d).value == kappa_brute(g, r, d).value, (g, r, d)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_kappa_brute_equals_kappa_at_huge_genus_on_both_routes(data):
    # kappa_brute's a, h and r', computed once per call, beyond the exhaustive
    # g <= 60 sweeps; a rank above isqrt(g) is what lets d reach g and beyond
    g = data.draw(st.integers(5, 10**12), label="g")
    if data.draw(st.booleans(), label="Serre-dual route"):
        low = isqrt(g) + 1
        r = data.draw(st.integers(low, min(g - 2, low + 50)) | st.integers(low, g - 2), label="r")
        lo, hi = max(g, 2 * r), d_max(g, r)
        branches = {KappaBranch.SERRE_DUAL_REDUCTION}
    else:
        top = (g - 1) // 2
        r = data.draw(st.integers(1, min(top, 50)) | st.integers(1, top), label="r")
        lo, hi = 2 * r, min(d_max(g, r), g - 1)
        branches = {KappaBranch.CLOSED_FIRST_CASE, KappaBranch.CLOSED_SECOND_CASE}
    assert lo <= hi, (g, r)
    d = data.draw(st.integers(lo, hi), label="d")
    want = kappa(g, r, d)
    assert want.branch in branches
    assert kappa_brute(g, r, d).value == want.value


def test_kappa_at_least_2_and_at_most_general_gonality():
    for g, r, d in admissible_triples(45):
        value = kappa_closed(g, r, d).value
        assert 2 <= value <= general_gonality(g)
        assert d - 2 * r >= 0
        assert rho_pflueger(g, r, d, 2) >= 0


# ---------------------------------------------------------------------------
# the memo on BNLocus


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_locus_memo_equals_the_functions_at_huge_genus(data):
    g = data.draw(st.integers(3, 10**9), label="g")
    r = data.draw(st.integers(1, min(g - 2, isqrt(g) + 1)) | st.integers(1, g - 2), label="r")
    hi = min(d_max(g, r), 2 * g - 2)
    assume(2 * r <= hi)
    d = data.draw(st.integers(2 * r, hi), label="d")
    locus = BNLocus(g, r, d)
    want_rho, want_kappa = bn_core.rho(g, r, d), bn_core.kappa(g, r, d)
    assert want_rho < 0
    for _ in range(2):  # the first read computes, the second reads the memo
        assert locus.rho == want_rho
        assert locus.kappa == want_kappa


@pytest.mark.parametrize("g, r, d", [
    (5, 1, 9),  # d > 2g - 2: rho >= 0, so kappa is undefined
    (10, 5, 8),  # rho < 0 but d < 2r: no closed value
])
def test_locus_kappa_outside_its_domain_raises_on_every_call(g, r, d):
    with pytest.raises(DomainError) as expected:
        kappa(g, r, d)
    locus = BNLocus(g, r, d)
    for _ in range(3):
        with pytest.raises(DomainError) as raised:
            locus.kappa
        assert str(raised.value) == str(expected.value)


def test_used_and_fresh_loci_are_indistinguishable():
    used, fresh, other = BNLocus(20, 3, 17), BNLocus(20, 3, 17), BNLocus(20, 2, 14)
    used.rho, used.kappa
    assert used == fresh and hash(used) == hash(fresh)
    assert repr(used) == repr(fresh) == "BNLocus(g=20, r=3, d=17)"
    assert str(used) == str(fresh)
    assert not used < fresh and not fresh < used
    assert sorted([used, other]) == sorted([fresh, other]) == [other, fresh]
    assert {used: 1}[fresh] == 1
    assert tuple(used) == (20, 3, 17)
    assert BNLocus._fields == ("g", "r", "d")


def test_locus_repr_str_and_keywords_frozen():
    locus = BNLocus(20, 3, 17)
    assert repr(locus) == "BNLocus(g=20, r=3, d=17)"
    assert str(locus) == "(g=20, r=3, d=17)"
    assert f"{locus}" == "(g=20, r=3, d=17)"
    assert BNLocus(g=20, r=3, d=17) == locus
    assert (locus.g, locus.r, locus.d) == (20, 3, 17)


def test_locus_order_and_hash_are_those_of_g_r_d():
    triples = [(21, 1, 9), (20, 4, 19), (20, 3, 18), (20, 3, 17), (2, 0, 0), (20, 0, 25)]
    loci = [BNLocus(*t) for t in triples]
    assert [tuple((x.g, x.r, x.d)) for x in sorted(loci)] == sorted(triples)
    for a, ta in zip(loci, triples):
        assert hash(a) == hash(BNLocus(*ta)) == hash(ta)
        for b, tb in zip(loci, triples):
            assert (a < b, a <= b, a > b, a >= b, a == b) == (
                ta < tb, ta <= tb, ta > tb, ta >= tb, ta == tb
            ), (a, b)


@pytest.mark.parametrize("args, text", [
    ((1, 1, 0), "genus must be >= 2, got 1"),
    ((-5, -1, -1), "genus must be >= 2, got -5"),
    ((20, -1, 5), "rank and degree must be >= 0, got r=-1 d=5"),
    ((20, 3, -1), "rank and degree must be >= 0, got r=3 d=-1"),
    ((2, -2, -3), "rank and degree must be >= 0, got r=-2 d=-3"),
])
def test_locus_domain_error_texts_frozen(args, text):
    with pytest.raises(DomainError) as raised:
        BNLocus(*args)
    assert str(raised.value) == text
    with pytest.raises(DomainError) as raised:
        BNLocus(**dict(zip("grd", args)))
    assert str(raised.value) == text


def test_locus_equals_hashes_and_orders_like_its_plain_tuple():
    # a named tuple of (g, r, d): equal to the plain tuple, in both orders
    locus, plain = BNLocus(20, 3, 17), (20, 3, 17)
    assert locus == plain and plain == locus and not locus != plain
    assert hash(locus) == hash(plain) and len({locus, plain}) == 1
    assert locus < (20, 4, 0) and (20, 3, 16) < locus and locus <= plain <= locus
    assert isinstance(locus, tuple) and len(locus) == 3


@pytest.mark.parametrize("read", [(), ("rho",), ("rho", "kappa")])
def test_locus_refuses_every_assignment_and_deletion(read):
    locus = BNLocus(20, 3, 17)
    for name in read:
        getattr(locus, name)
    for name in ("g", "r", "d", "rho", "kappa", "gamma", "other"):
        with pytest.raises(AttributeError):
            setattr(locus, name, 5)
        with pytest.raises(AttributeError):
            delattr(locus, name)
    with pytest.raises(AttributeError):
        locus.rho = 5
    # nothing above reached the memo: it holds what was read, and only that
    assert set(vars(locus)) == set(read)
    assert (locus.g, locus.r, locus.d) == (20, 3, 17)
    assert (locus.rho, locus.kappa) == (rho(20, 3, 17), kappa(20, 3, 17))


def test_locus_domain_error_is_not_memoized():
    locus = BNLocus(10, 5, 8)  # rho < 0 but d < 2r: kappa has no value
    for _ in range(2):
        with pytest.raises(DomainError):
            locus.kappa
        assert "kappa" not in vars(locus)


def test_locus_make_and_replace_validate():
    locus = BNLocus(20, 3, 17)
    made, replaced = BNLocus._make((20, 4, 19)), locus._replace(r=4, d=19)
    assert type(made) is type(replaced) is BNLocus and made == replaced == (20, 4, 19)
    assert vars(replaced) == {}  # a new locus, with a memo of its own
    for build, text in (
        (lambda: BNLocus._make((1, -1, 0)), "genus must be >= 2, got 1"),
        (lambda: BNLocus._make([20, 3, -1]), "rank and degree must be >= 0, got r=3 d=-1"),
        (lambda: locus._replace(g=1), "genus must be >= 2, got 1"),
        (lambda: locus._replace(r=-1), "rank and degree must be >= 0, got r=-1 d=17"),
    ):
        with pytest.raises(DomainError) as raised:
            build()
        assert str(raised.value) == text
    with pytest.raises(TypeError):
        BNLocus._make((20, 3))


# ---------------------------------------------------------------------------
# Serre duality


def test_equal_rho_and_gamma_means_identical_or_serre_dual():
    # rho and the Clifford index pin a locus down up to Serre duality
    for g in range(3, 41):
        groups = {}
        for r in range(0, g + 1):
            for d in range(0, 2 * g - 1):
                key = (rho(g, r, d), clifford_index(r, d))
                groups.setdefault(key, []).append(BNLocus(g, r, d))
        for members in groups.values():
            for a in members:
                for b in members:
                    if a != b:
                        assert serre_dual(a.g, a.r, a.d) == tuple(b), (a, b)


def test_serre_invariance_of_rho_gamma_rhok():
    # tested, not assumed: any counterexample here is a finding
    for g in range(3, 31):
        for r in range(0, g):
            for d in range(0, 2 * g - 1):
                try:
                    _, s, e = serre_dual(g, r, d)
                except DomainError:
                    continue
                assert rho(g, r, d) == rho(g, s, e)
                assert clifford_index(r, d) == clifford_index(s, e)
                for k in range(2, general_gonality(g) + 1):
                    assert rho_pflueger(g, r, d, k) == rho_pflueger(g, s, e, k), (g, r, d, k)


# ---------------------------------------------------------------------------
# trivial specializations: the step relation and the search over it, kept here
# as the oracle for certificates.trivial_closure, which gives the same set in
# closed form


def trivial_specializations(g, r, d):
    """One-step containments that hold for every curve.

    A series of rank r and degree d yields one of degree d + 1 (add a base
    point), so (g, r, d) always specializes to (g, r, d+1).  Removing a
    non-base point yields (g, r-1, d-1); that target is only recorded while
    it is a proper locus, i.e. while rho(g, r-1, d-1) < 0.
    """
    if r < 1:
        raise DomainError(f"trivial_specializations requires r >= 1, got {r}")
    out = [BNLocus(g, r, d + 1)]
    if d >= 1 and rho(g, r - 1, d - 1) < 0:
        out.append(BNLocus(g, r - 1, d - 1))
    return out


def trivial_closure_by_search(g, r, d):
    """All loci reachable from (g, r, d) by one or more trivial steps, walked."""
    start = BNLocus(g, r, d)
    seen = set()
    frontier = [start]
    while frontier:
        node = frontier.pop()
        if node.r < 1 or node.d >= 2 * node.g - 2:
            continue
        for nxt in trivial_specializations(node.g, node.r, node.d):
            if nxt.d <= 2 * nxt.g - 2 and nxt not in seen and nxt != start:
                seen.add(nxt)
                frontier.append(nxt)
    return seen


def test_trivial_specializations_frozen():
    assert trivial_specializations(20, 4, 19) == [BNLocus(20, 4, 20)]
    # (20,3,17): rho(20,2,16) = +2, so only the degree bump survives
    assert trivial_specializations(20, 3, 17) == [BNLocus(20, 3, 18)]
    # (20,4,17): rho(20,3,16) = -8 < 0, so the rank drop applies too
    assert trivial_specializations(20, 4, 17) == [
        BNLocus(20, 4, 18),
        BNLocus(20, 3, 16),
    ]
    # rank-1 series never drop to rank 0
    assert trivial_specializations(20, 1, 10) == [BNLocus(20, 1, 11)]


def test_trivial_specializations_requires_positive_rank():
    with pytest.raises(DomainError):
        trivial_specializations(20, 0, 5)


def test_trivial_closure_matches_search_on_every_small_start():
    # Every start with g <= 25 and r, d in 0..2g+1.  Steps raise the degree or
    # lower the rank, so the search's set is the union over the steps x -> y
    # of {y} and y's set, and empty where no step is taken.  Visiting ranks
    # upward and degrees downward, each y is checked before x, so this is the
    # search with one step per start; walking it from every start takes
    # minutes.  Each set is kept as one degree interval per rank, and a union
    # that would leave a gap fails, so comparing the intervals with
    # TrivialClosure.degrees compares the sets without building them.
    def merge(into, rank, lo, hi):
        if rank in into:
            a, b = into[rank]
            assert lo <= b + 1 and a <= hi + 1, "the union leaves a gap"
            lo, hi = min(a, lo), max(b, hi)
        into[rank] = (lo, hi)

    for g in range(2, 26):
        done = {}
        for r in range(0, 2 * g + 2):
            done = {key: value for key, value in done.items() if key[0] == r - 1}
            for d in range(2 * g + 1, -1, -1):
                want = {}
                if r >= 1 and d < 2 * g - 2:
                    for step in trivial_specializations(g, r, d):
                        merge(want, step.r, step.d, step.d)
                        for rank, (lo, hi) in done[step.r, step.d].items():
                            merge(want, rank, lo, hi)
                closure = trivial_closure(BNLocus(g, r, d))
                for s in range(0, r + 2):
                    lo, hi = want.get(s, (0, -1))
                    assert closure.degrees(s) == range(lo, hi + 1), (g, r, d, s)
                done[r, d] = want


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_trivial_closure_matches_search_at_larger_genus(data):
    g = data.draw(st.integers(min_value=26, max_value=120), label="g")
    r = data.draw(st.integers(min_value=0, max_value=2 * g + 1), label="r")
    d = data.draw(st.integers(min_value=0, max_value=2 * g + 1), label="d")
    closure, walked = trivial_closure(BNLocus(g, r, d)), trivial_closure_by_search(g, r, d)
    by_rank = {}
    for x in walked:
        by_rank.setdefault(x.r, []).append(x.d)
    assert set(by_rank) <= set(range(1, r + 1))
    for s in range(0, r + 2):
        assert list(closure.degrees(s)) == sorted(by_rank.get(s, [])), (g, r, d, s)
    assert all(x in closure for x in walked)
    assert len(closure) == len(walked)


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_trivial_closure_membership_matches_search(data):
    g = data.draw(st.integers(min_value=26, max_value=120), label="g")
    r = data.draw(st.integers(min_value=0, max_value=2 * g + 1), label="r")
    d = data.draw(st.integers(min_value=0, max_value=2 * g + 1), label="d")
    closure, walked = trivial_closure(BNLocus(g, r, d)), trivial_closure_by_search(g, r, d)
    s = data.draw(st.integers(min_value=0, max_value=r + 1), label="s")
    e = data.draw(st.integers(min_value=0, max_value=2 * g + 1), label="e")
    if walked and data.draw(st.booleans(), label="use a hit"):
        hit = data.draw(st.sampled_from(sorted(walked, key=lambda x: (x.r, x.d))), label="hit")
        s, e = hit.r, hit.d
    candidates = [
        BNLocus(g, r, d),  # the start
        BNLocus(g, s, e),
        BNLocus(g + 1, s, e),  # another genus
        BNLocus(g, 0, e),
        BNLocus(g, s, 2 * g - 1),
    ]
    for x in candidates:
        assert (x in closure) == (x in walked), x
    assert (g, s, e) not in closure  # a plain tuple is not a locus


def test_trivial_closure_len_is_the_walks_size():
    starts = [
        (26, 0, 5), (26, 3, 49), (26, 3, 50), (26, 52, 0), (26, 53, 53),
        (60, 1, 30), (60, 5, 40), (60, 12, 3), (120, 4, 100), (120, 241, 0),
    ]
    for g, r, d in starts:
        closure = trivial_closure(BNLocus(g, r, d))
        assert len(closure) == len(trivial_closure_by_search(g, r, d)), (g, r, d)


def test_trivial_closure_rejects_an_invalid_start():
    # the start is a BNLocus, so an invalid one is refused as it is built
    for (g, r, d), text in (
        ((1, 1, 0), "genus must be >= 2, got 1"),
        ((20, -1, 5), "rank and degree must be >= 0, got r=-1 d=5"),
        ((20, 3, -1), "rank and degree must be >= 0, got r=3 d=-1"),
    ):
        with pytest.raises(DomainError) as raised:
            trivial_closure(BNLocus(g, r, d))
        assert str(raised.value) == text
