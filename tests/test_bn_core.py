"""Core numerology: rho, the k-gonal refinement, kappa two ways, duality."""

import pytest
from hypothesis import given, settings
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
    serre_dual,
    trivial_specializations,
)
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


def test_rho_pflueger_requires_k_at_least_2():
    with pytest.raises(DomainError):
        rho_pflueger(20, 3, 17, 1)


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
    res = kappa_brute(20, 1, 10)
    assert (res.value, res.branch, res.rho, res.gamma) == (
        10,
        KappaBranch.BRUTE_FORCE,
        -2,
        8,
    )
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
        expected = KappaResult(scan, KappaBranch.BRUTE_FORCE, rho(g, r, d), clifford_index(r, d))
        assert kappa_brute(g, r, d) == expected, (g, r, d)


@pytest.mark.parametrize("rho_k", [0, -1])
def test_kappa_brute_internal_errors(monkeypatch, rho_k):
    # rho_k >= 0 at the general gonality, or rho_2 < 0, contradicts the theory
    monkeypatch.setattr(bn_core, "rho_pflueger", lambda g, r, d, k: rho_k)
    with pytest.raises(InternalError):
        kappa_brute(20, 3, 17)


@pytest.mark.parametrize("r", [1, 2, 3])
def test_kappa_brute_logarithmic_at_huge_genus(monkeypatch, r):
    g = 10**9
    d = d_max(g, r)
    calls = []
    original = bn_core.rho_pflueger

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(bn_core, "rho_pflueger", counted)
    value = kappa_brute(g, r, d).value
    assert len(calls) <= 2 + general_gonality(g).bit_length()
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
    assert res.rho == rho(20, 5, 21) == -4


def test_kappa_dispatch_matches_brute_above_serre_range():
    # every admissible high-degree locus with a computable brute value
    for g in range(4, 36):
        for r in range(1, g):
            for d in range(g, 2 * g - 2):
                if rho(g, r, d) >= 0 or d - 2 * r < 0 or g - d + r < 1:
                    continue
                assert kappa(g, r, d).value == kappa_brute(g, r, d).value, (g, r, d)


def test_kappa_oracle_equivalence_small():
    # the full g <= 60 sweep runs in the acceptance suite; keep a quick gate here
    for g, r, d in admissible_triples(40):
        assert kappa_closed(g, r, d).value == kappa_brute(g, r, d).value, (g, r, d)


def test_kappa_at_least_2_and_at_most_general_gonality():
    for g, r, d in admissible_triples(45):
        value = kappa_closed(g, r, d).value
        assert 2 <= value <= general_gonality(g)
        assert d - 2 * r >= 0
        assert rho_pflueger(g, r, d, 2) >= 0


# ---------------------------------------------------------------------------
# Serre duality


def test_serre_dual_frozen():
    assert serre_dual(20, 3, 17) == BNLocus(20, 5, 21)
    assert serre_dual(20, 5, 21) == BNLocus(20, 3, 17)
    assert serre_dual(4, 1, 3) == BNLocus(4, 1, 3)  # self-dual


def test_serre_dual_rejects_out_of_range():
    with pytest.raises(DomainError):
        serre_dual(20, 1, 40)  # dual degree would be negative


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
                        assert serre_dual(a.g, a.r, a.d) == b, (a, b)


def test_serre_invariance_of_rho_gamma_rhok():
    # tested, not assumed: any counterexample here is a finding
    for g in range(3, 31):
        for r in range(0, g):
            for d in range(0, 2 * g - 1):
                try:
                    dual = serre_dual(g, r, d)
                except DomainError:
                    continue
                assert rho(g, r, d) == rho(dual.g, dual.r, dual.d)
                assert clifford_index(r, d) == clifford_index(dual.r, dual.d)
                for k in range(2, general_gonality(g) + 1):
                    assert rho_pflueger(g, r, d, k) == rho_pflueger(
                        dual.g, dual.r, dual.d, k
                    ), (g, r, d, k)


# ---------------------------------------------------------------------------
# trivial specializations


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
