"""Geometry and grid types shared by every other module.

A plane angle is split into R equal sectors by the rays phi = b_1 < ... <
b_{R+1}, all gaps equal to d.  Grids live on a truncated annular piece
r_min <= r <= r_max of the angle; the radius r = 0 is always excluded.
"""

from dataclasses import dataclass, field

import numpy as np

SPACING_TOL = 1e-12


class PlaneAngleError(Exception):
    """Base class for all errors raised by this package."""


class TooFewAngles(PlaneAngleError):
    pass


class OutOfRange(PlaneAngleError):
    pass


class NonUniformSpacing(PlaneAngleError):
    pass


class IncompatibleGrid(PlaneAngleError):
    pass


@dataclass(frozen=True)
class AngleGeometry:
    """Rays b_1 < ... < b_{R+1} with equal spacing d (radians)."""

    angles: tuple
    d: float

    @property
    def num_sectors(self):
        """Number of sectors R."""
        return len(self.angles) - 1

    @property
    def opening(self):
        """Full opening b_{R+1} - b_1."""
        return self.angles[-1] - self.angles[0]


def make_geometry(angles):
    """Build an AngleGeometry from a strictly increasing list of ray angles.

    The angles must lie in (0, 2*pi) and be equally spaced to within
    SPACING_TOL; the stored spacing d is the mean gap.
    """
    angles = tuple(float(b) for b in angles)
    if len(angles) < 2:
        raise TooFewAngles("need at least 2 ray angles, got %d" % len(angles))
    arr = np.asarray(angles)
    if not (arr[0] > 0.0 and arr[-1] < 2.0 * np.pi):
        raise OutOfRange("angles must lie strictly inside (0, 2*pi)")
    gaps = np.diff(arr)
    if np.any(gaps <= 0.0):
        raise OutOfRange("angles must be strictly increasing")
    d = float(np.mean(gaps))
    if np.any(np.abs(gaps - d) >= SPACING_TOL):
        raise NonUniformSpacing(
            "ray gaps %s are not equal within %g" % (gaps.tolist(), SPACING_TOL)
        )
    return AngleGeometry(angles=angles, d=d)


@dataclass(frozen=True)
class SectorGrid:
    """Tensor grid on the truncated sector [r_min, r_max] x [b_1, b_{R+1}].

    n_r radial intervals and n_phi angular intervals across the full angle;
    nodes are (n_r+1) x (n_phi+1).  n_phi must be divisible by R so that the
    angular shift by d maps grid columns onto grid columns.
    """

    geometry: AngleGeometry
    r_min: float
    r_max: float
    n_r: int
    n_phi: int

    def __post_init__(self):
        if not (0.0 < self.r_min < self.r_max):
            raise IncompatibleGrid("need 0 < r_min < r_max")
        R = self.geometry.num_sectors
        if self.n_phi % R != 0:
            raise IncompatibleGrid(
                "n_phi=%d not divisible by R=%d" % (self.n_phi, R)
            )
        if self.n_r < 3 or self.n_phi < 2 * R:
            raise IncompatibleGrid("grid too coarse: n_r >= 3, n_phi >= 2R")

    @property
    def dr(self):
        return (self.r_max - self.r_min) / self.n_r

    @property
    def dphi(self):
        return self.geometry.opening / self.n_phi

    @property
    def shift_columns(self):
        """Number of grid columns spanned by one sector (shift by d)."""
        return self.n_phi // self.geometry.num_sectors

    @property
    def r_nodes(self):
        return self.r_min + self.dr * np.arange(self.n_r + 1)

    @property
    def phi_nodes(self):
        return self.geometry.angles[0] + self.dphi * np.arange(self.n_phi + 1)

    def meshgrid(self):
        """(r, phi) node coordinate arrays of shape (n_r+1, n_phi+1)."""
        return np.meshgrid(self.r_nodes, self.phi_nodes, indexing="ij")


@dataclass(frozen=True)
class GridFunction:
    """Complex nodal values on a SectorGrid, indexed (radial, angular)."""

    grid: SectorGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        expected = (self.grid.n_r + 1, self.grid.n_phi + 1)
        if vals.shape != expected:
            raise IncompatibleGrid(
                "value shape %s, grid wants %s" % (vals.shape, expected)
            )
        object.__setattr__(self, "values", vals)

    @classmethod
    def from_callable(cls, grid, func):
        """Sample func(r, phi) at the grid nodes.

        func is called once, on the radial nodes as an (n_r+1, 1) column and
        the angular nodes as a (1, n_phi+1) row, so it must broadcast its
        arguments like numpy arithmetic does: a term in r alone is evaluated
        n_r+1 times, not at every node.  Its result, a scalar or any array
        that broadcasts to the node shape, is spread over all nodes.
        """
        r, phi = np.meshgrid(grid.r_nodes, grid.phi_nodes, indexing="ij", sparse=True)
        return cls(grid, np.full((grid.n_r + 1, grid.n_phi + 1), func(r, phi), dtype=complex))
