"""Weighted Sobolev norms on a sector grid.

The E norm augments the usual weighted seminorm with lower-order terms so
that it stays equivalent uniformly in the weight; the H norm keeps only the
homogeneous weight.  Trace ratios compare the ray trace of a function with
its interior norm and stay bounded for concentrating bump families.
"""

import numpy as np

from planeangle.core import GridFunction, SectorGrid, make_geometry
from planeangle.manufactured import exp_bump
from planeangle.weighted_norms import WeightParams, e_norm, h_norm, trace_ratio

geo = make_geometry([np.pi / 6, np.pi / 2, 5 * np.pi / 6])


grid = SectorGrid(geo, 0.3, 1.0, 48, 48)
u = GridFunction.from_callable(grid, lambda r, p: r * np.cos(p) + 0.5 * np.sin(2 * p))

print("norms of r cos(phi) + 0.5 sin(2 phi) on r in [0.3, 1]:")
print("  %6s %4s %12s %12s" % ("a", "l", "E", "H"))
for a in (-0.5, 0.0, 0.7):
    for l in (0, 1, 2):
        p = WeightParams(a, l)
        print("  %6.1f %4d %12.5f %12.5f" % (a, l, e_norm(u, p), h_norm(u, p)))

print()
print("trace ratios for a shrinking bump family (a = 0.5, l = 1):")
p = WeightParams(0.5, 1)
wide = SectorGrid(geo, 0.5, 3.0, 256, 64)
for s in (1.0, 0.5, 0.25, 0.125):
    bump = exp_bump(0.6, 0.6 + s)
    v = GridFunction.from_callable(wide, lambda r, phi: bump(r)[0] * np.cos(phi))
    print("  support width %.3f : ratio %.4f" % (s, trace_ratio(v, "gamma1", p)))
print("the ratio stays bounded as the support concentrates")
