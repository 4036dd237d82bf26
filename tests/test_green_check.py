"""Quadrature verification of the two nonlocal Green identities."""

import gc
import weakref
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from planeangle import green_check
from planeangle.core import PlaneAngleError, make_geometry
from planeangle.green_check import (
    MAX_QUAD_NODES,
    Field,
    GreenConfig,
    SupportViolation,
    _identity_terms,
    bump_trig_pair,
    green_residual_dirichlet,
    green_residual_neumann,
    term_magnitudes,
)

B1, B2, B3 = 0.3, 1.3, 2.3
GEO = make_geometry([B1, B2, B3])
PHI12 = B2 - B1


def zero_u_pair():
    zero = lambda r, p: np.zeros_like(np.asarray(r, float))
    return replace(bump_trig_pair(), u=Field(zero, zero, zero, zero))


def test_zero_u_gives_zero_residual():
    cfg = GreenConfig(GEO, 0.7, 1.0, PHI12)
    pair = zero_u_pair()
    assert green_residual_dirichlet(cfg, pair) == 0.0
    assert green_residual_neumann(cfg, pair) == 0.0


@pytest.mark.parametrize("chi12", [0.01, 1.0, 1.5, 2.0, 100.0])
def test_dirichlet_identity_small_residual(chi12):
    cfg = GreenConfig(GEO, 0.7, chi12, PHI12)
    pair = bump_trig_pair()
    scale = sum(term_magnitudes(cfg, pair, neumann=False))
    assert green_residual_dirichlet(cfg, pair) < 1e-8 * scale


@pytest.mark.parametrize("chi12", [0.01, 1.0, 1.5, 2.0, 100.0])
def test_neumann_identity_small_residual(chi12):
    cfg = GreenConfig(GEO, 0.4, chi12, PHI12)
    pair = bump_trig_pair()
    scale = sum(term_magnitudes(cfg, pair, neumann=True))
    assert green_residual_neumann(cfg, pair) < 1e-8 * scale


def test_residual_drops_when_order_doubles():
    pair = bump_trig_pair()
    r8 = green_residual_neumann(GreenConfig(GEO, 0.4, 2.0, PHI12, order=8), pair)
    r16 = green_residual_neumann(GreenConfig(GEO, 0.4, 2.0, PHI12, order=16), pair)
    assert r8 >= 10.0 * r16


def test_residual_scales_linearly_in_u():
    cfg = GreenConfig(GEO, 0.7, 1.5, PHI12)
    pair = bump_trig_pair()
    base = green_residual_dirichlet(cfg, pair)
    scaled_pair = replace(pair, u=pair.u.map(lambda x: 3.5 * x))
    scaled = green_residual_dirichlet(cfg, scaled_pair)
    # linear to summation roundoff, measured against the term scale
    term_scale = sum(term_magnitudes(cfg, pair, neumann=False))
    assert abs(scaled - 3.5 * base) <= 1e-13 * term_scale


def test_residual_invariant_under_v_conjugation():
    cfg = GreenConfig(GEO, 0.7, 1.5, PHI12)
    pair = bump_trig_pair()
    base = green_residual_dirichlet(cfg, pair)
    conj_pair = replace(pair, v1=pair.v1.map(np.conj), v2=pair.v2.map(np.conj))
    conj = green_residual_dirichlet(cfg, conj_pair)
    assert abs(base - conj) <= 1e-13 * max(base, 1e-300) + 1e-15


def test_no_expansion_specialization():
    # chi12 = 1 makes the adjoint-side factors trivial: the Dirichlet and
    # Neumann identities must agree on their shared terms, and both hold
    cfg = GreenConfig(GEO, 0.7, 1.0, PHI12)
    pair = bump_trig_pair()
    terms_d = term_magnitudes(cfg, pair, neumann=False)
    terms_n = term_magnitudes(cfg, pair, neumann=True)
    # shared: K1, K2 on the LHS (0, 1) and RHS (5, 6), and the gamma_2 jump (4)
    for i in (0, 1, 4, 5, 6):
        assert terms_d[i] == terms_n[i]
    scale = sum(terms_d)
    assert green_residual_dirichlet(cfg, pair) < 1e-8 * scale
    assert green_residual_neumann(cfg, pair) < 1e-8 * scale


def test_config_validation():
    with pytest.raises(Exception):
        GreenConfig(GEO, 0.5, -1.0, PHI12)
    with pytest.raises(Exception):
        GreenConfig(GEO, 0.5, 1.0, PHI12 + 0.1)
    for alpha, chi12 in [(0.5, np.inf), (0.5, np.nan), (np.nan, 1.0), (np.inf, 1.0)]:
        with pytest.raises(PlaneAngleError, match="finite"):
            GreenConfig(GEO, alpha, chi12, PHI12)
    # constructing is cheap; the area arrays would hold (panels * order)^2 values
    GreenConfig(GEO, 0.5, 1.0, PHI12, order=MAX_QUAD_NODES // 48, panels=48)
    for order, panels in [(MAX_QUAD_NODES // 48 + 1, 48), (300, 48), (2, MAX_QUAD_NODES)]:
        with pytest.raises(PlaneAngleError, match="nodes per axis"):
            GreenConfig(GEO, 0.5, 1.0, PHI12, order=order, panels=panels)


def test_pair_support_validation():
    with pytest.raises(SupportViolation):
        replace(bump_trig_pair(), support=(-1.0, 2.0))


def counting_pair():
    """bump_trig_pair with every field component counting its area calls.

    The area quadrature passes a radius column and an angle row (2-D
    arguments), the ray terms 1-D vectors, so only 2-D calls are counted.
    """
    calls = Counter()

    def counted(name, f):
        def g(r, p):
            if np.ndim(r) == 2:
                calls[name] += 1
            return f(r, p)

        return g

    base = bump_trig_pair()
    fields = {
        k: Field(*(counted(k + "." + c, f) for c, f in zip(Field._fields, getattr(base, k))))
        for k in ("u", "v1", "v2")
    }
    return replace(base, **fields), calls


def all_outputs(cfgs, next_pair):
    out = []
    for cfg in cfgs:
        for neumann, residual in ((False, green_residual_dirichlet), (True, green_residual_neumann)):
            out.append(residual(cfg, next_pair()))
            out.append(term_magnitudes(cfg, next_pair(), neumann=neumann))
    return out


def test_area_integrals_evaluated_once_per_key():
    pair, calls = counting_pair()
    cfgs = [GreenConfig(GEO, alpha, chi12, PHI12)
            for alpha in (0.7, -0.4) for chi12 in (1.5, 0.01, 100.0)]
    warm = all_outputs(cfgs, lambda: pair)
    # 24 evaluations, one area key whatever chi12 is: each sector's fields
    # once, U on both sectors
    assert calls == {
        "u.lap": 2, "u.value": 2,
        "v1.value": 1, "v1.lap": 1,
        "v2.value": 1, "v2.lap": 1,
    }
    # a copy of the pair shares its fields but starts without area integrals
    cold = all_outputs(cfgs, lambda: replace(pair))
    assert calls["u.lap"] == 2 + 2 * len(cold)
    assert warm == cold


def test_area_integrals_die_with_their_pair():
    # no module keeps the pair, or its memos, alive after the caller drops it
    pair = bump_trig_pair()
    term_magnitudes(GreenConfig(GEO, 0.7, 1.5, PHI12), pair)
    green_residual_neumann(GreenConfig(GEO, -0.4, 2.0, PHI12), pair)
    assert len(pair.areas) == 1 and len(pair.last) == 1
    gone = weakref.ref(pair)
    del pair
    gc.collect()
    assert gone() is None


def test_returned_terms_are_fresh_lists():
    cfg = GreenConfig(GEO, 0.7, 1.5, PHI12)
    pair = bump_trig_pair()
    mags = term_magnitudes(cfg, pair)
    expected = list(mags)
    mags[0] = -1.0
    mags.append(0.0)
    lhs, rhs = _identity_terms(cfg, pair, neumann=False)
    lhs[0] = rhs[1] = 0.0
    lhs.append(1.0)
    assert term_magnitudes(cfg, pair) == expected


def test_identity_terms_evaluated_once_per_config(monkeypatch):
    # a residual and the magnitudes at an equal config and flavour share one
    # evaluation, in either order; any other key evaluates again and takes
    # the pair's one slot.  Every output equals a memo-free pair's.
    evaluated = []
    identity_terms = green_check._identity_terms

    def spy(cfg, pair, neumann):
        evaluated.append((cfg.alpha, cfg.chi12, neumann))
        return identity_terms(cfg, pair, neumann)

    monkeypatch.setattr(green_check, "_identity_terms", spy)
    pair = bump_trig_pair()
    dirichlet = (False, green_residual_dirichlet)
    neumann = (True, green_residual_neumann)
    steps = [
        (0.7, 1.5, dirichlet, True), (0.7, 1.5, dirichlet, False),
        (0.7, 1.5, neumann, False), (0.7, 1.5, neumann, True),
        (-0.4, 2.0, dirichlet, True), (0.7, 1.5, dirichlet, True),
        (-0.4, 2.0, dirichlet, False), (-0.4, 2.0, dirichlet, True),
    ]
    want_evals = [(0.7, 1.5, False), (0.7, 1.5, True), (-0.4, 2.0, False),
                  (0.7, 1.5, False), (-0.4, 2.0, False)]
    for alpha, chi12, (flag, residual), residual_first in steps:
        outputs = []
        for fresh in (False, True):
            target = replace(pair) if fresh else pair
            cfg = GreenConfig(GEO, alpha, chi12, PHI12)  # equal, not the same object
            calls = [lambda: residual(cfg, target), lambda: term_magnitudes(cfg, target, neumann=flag)]
            outputs.append([call() for call in (calls if residual_first else calls[::-1])])
            if fresh:
                evaluated.pop()
            else:
                assert list(pair.last) == [(cfg, flag)] and len(pair.areas) == 1
        assert outputs[0] == outputs[1]
    assert evaluated == want_evals
