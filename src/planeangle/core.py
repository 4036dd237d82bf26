"""Geometry and grid types shared by every other module.

A plane angle is split into R equal sectors by the rays phi = b_1 < ... <
b_{R+1}, all gaps equal to d.  Grids live on a truncated annular piece
r_min <= r <= r_max of the angle; the radius r = 0 is always excluded.
exp_bump is the package's C-infinity bump, numpy only like the rest here.
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


class SingularSystem(PlaneAngleError):
    """A linear system of the solver is singular; the CLI exits 5."""


class SolverFailure(PlaneAngleError):
    """A solve or the coercivity probe did not certify its answer; the CLI exits 5."""


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

    The angles must be numbers (not NaN) in (0, 2*pi), equally spaced to
    within SPACING_TOL; the stored spacing d is the mean gap.
    """
    angles = tuple(float(b) for b in angles)
    if len(angles) < 2:
        raise TooFewAngles("need at least 2 ray angles, got %d" % len(angles))
    arr = np.asarray(angles)
    gaps = np.diff(arr)
    if not (arr[0] > 0.0 and arr[-1] < 2.0 * np.pi and np.all(gaps > 0.0)):
        raise OutOfRange("angles must increase strictly inside (0, 2*pi), got %s" % (angles,))
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
        if not (0.0 < self.r_min < self.r_max < np.inf):
            raise IncompatibleGrid("need 0 < r_min < r_max < inf")
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


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Read-only complex nodal values on a SectorGrid, indexed (radial, angular).

    A complex array is held, not copied, and made read-only in place (another
    view of its memory can still write it).  Equality is identity.  derived
    caches what is computed from the values (the norms' derivative table)
    and dies with the field.
    """

    grid: SectorGrid
    values: np.ndarray = field(repr=False)
    derived: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        expected = (self.grid.n_r + 1, self.grid.n_phi + 1)
        if vals.shape != expected:
            raise IncompatibleGrid(
                "value shape %s, grid wants %s" % (vals.shape, expected)
            )
        vals.flags.writeable = False
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


def exp_bump(r0, r1):
    """jet(r) -> (eta, eta', eta'') of the C-infinity bump on (r0, r1).

    eta(r) = exp(-1/q) with q = 1 - t^2 and t = (r - mid)/half, mid and
    half the midpoint and half-width of (r0, r1); peak value 1/e, 0 outside.
    One mask and one exp per call serve all three.
    """
    mid = 0.5 * (r0 + r1)
    half = 0.5 * (r1 - r0)

    def jet(r):
        t = (np.asarray(r, float) - mid) / half
        eta, deta, ddeta = np.zeros_like(t), np.zeros_like(t), np.zeros_like(t)
        m = np.abs(t) < 1.0
        tm = t[m]
        q = 1.0 - tm**2
        e = np.exp(-1.0 / q)
        eta[m] = e
        deta[m] = e * (-2.0 * tm / q**2)
        ddeta[m] = e * (4.0 * tm**2 / q**4 - 2.0 / q**2 - 8.0 * tm**2 / q**3)
        return eta, deta / half, ddeta / half**2

    return jet
