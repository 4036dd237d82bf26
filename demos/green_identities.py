"""Quadrature check of the two nonlocal Green identities.

For a compactly supported test field u and a piecewise-harmonic adjoint
pair (V1, V2), the Dirichlet-type and Neumann-type identities balance area
integrals over both sectors against ray terms, including the scaled and
rotated adjoint contributions.  The residual is pure quadrature error and
shrinks rapidly as the Gauss-Legendre order grows.
"""

from planeangle.core import make_geometry
from planeangle.green_check import (
    GreenConfig,
    bump_trig_pair,
    green_residual_dirichlet,
    green_residual_neumann,
    term_magnitudes,
)

geo = make_geometry([0.3, 1.3, 2.3])
phi12 = 1.0
pair = bump_trig_pair()

print("term scale and residual at order 12, 48 radial panels:")
for chi12 in (0.1, 1.0, 1.5, 2.0, 10.0):
    cfg = GreenConfig(geo, 0.7, chi12, phi12)
    scale_d = sum(term_magnitudes(cfg, pair, neumann=False))
    scale_n = sum(term_magnitudes(cfg, pair, neumann=True))
    rd = green_residual_dirichlet(cfg, pair)
    rn = green_residual_neumann(cfg, pair)
    print(
        "  chi12 = %4.1f : dirichlet %.2e / %.2e   neumann %.2e / %.2e"
        % (chi12, rd, scale_d, rn, scale_n)
    )

print()
print("residual decay under order refinement (chi12 = 2):")
for order in (4, 8, 16, 24):
    cfg = GreenConfig(geo, 0.4, 2.0, phi12, order=order)
    print("  order %2d : neumann residual %.3e" % (order, green_residual_neumann(cfg, pair)))
