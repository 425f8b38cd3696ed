"""Toy phase spaces: euclidean planes, round spheres, and their products.

A phase space supplies everything the flow and quadrature layers need:
coordinate names for the expression grammar, the symplectic pairing and a
compatible metric evaluated pointwise on sample batches, the passage from
a Hamiltonian gradient to its vector field, projection back onto the
constraint manifold after an integration step, and parameter-space
sampling for extrema searches and normalization integrals.

Point batches are numpy arrays of shape (m, dim) in ambient coordinates:
(x1, y1, ..., xn, yn) for euclidean factors, unit vectors (p1, p2, p3)
scaled area forms for sphere factors, concatenated for products.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from ..errors import UnboundedDomain

Box = Sequence[tuple[float, float]]


class PhaseSpace:
    """Interface shared by all factors; see module docstring."""

    dim: int
    param_dim: int
    coord_names: tuple[str, ...]
    is_compact: bool

    def omega(self, points: np.ndarray, a: np.ndarray, b: np.ndarray
              ) -> np.ndarray:
        """Symplectic pairing omega_p(a, b), pointwise over the batch."""
        raise NotImplementedError

    def metric_norm2(self, points: np.ndarray, a: np.ndarray) -> np.ndarray:
        """Squared norm of tangent vectors in the compatible metric."""
        raise NotImplementedError

    def vector_field_from_gradient(self, points: np.ndarray,
                                   grad: np.ndarray) -> np.ndarray:
        """X_H from the ambient gradient of H, via dH = omega(X_H, .)."""
        raise NotImplementedError

    def project(self, points: np.ndarray) -> np.ndarray:
        """Retract ambient points onto the space (identity for euclidean)."""
        raise NotImplementedError

    def param_box(self, box: Box | None) -> list[tuple[float, float]]:
        """Parameter-space box for extrema scans.

        Euclidean coordinates require the caller's bounding box; compact
        factors provide their own chart bounds.
        """
        raise NotImplementedError

    def embed(self, params: np.ndarray) -> np.ndarray:
        """Map parameter-space samples (m, param_dim) to points (m, dim)."""
        raise NotImplementedError

    def quadrature_grid(self, resolution: int
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Points and positive weights integrating functions over the
        space (compact factors only)."""
        raise NotImplementedError


class EuclideanSpace(PhaseSpace):
    """R^(2n) with coordinates x1, y1, ..., xn, yn and omega = sum dx^dy."""

    def __init__(self, pairs: int = 1):
        if pairs < 1:
            raise ValueError("need at least one (x, y) pair")
        self.pairs = pairs
        self.dim = 2 * pairs
        self.param_dim = self.dim
        names = []
        for i in range(1, pairs + 1):
            names += [f"x{i}", f"y{i}"]
        self.coord_names = tuple(names)
        self.is_compact = False

    # Both sums run left to right over the coordinates, as numpy's own
    # reduction does for fewer than 8 terms (it turns pairwise from 8),
    # without the cost of reducing over a narrow trailing axis.
    def omega(self, points, a, b):
        total = a[..., 0] * b[..., 1] - a[..., 1] * b[..., 0]
        for i in range(2, self.dim, 2):
            total = total + (a[..., i] * b[..., i + 1]
                             - a[..., i + 1] * b[..., i])
        return total

    def metric_norm2(self, points, a):
        total = a[..., 0] * a[..., 0]
        for i in range(1, self.dim):
            total = total + a[..., i] * a[..., i]
        return total

    def vector_field_from_gradient(self, points, grad):
        field = np.empty_like(grad)
        field[..., 0::2] = grad[..., 1::2]
        field[..., 1::2] = -grad[..., 0::2]
        return field

    def project(self, points):
        return points

    def param_box(self, box):
        if box is None:
            raise UnboundedDomain(
                "euclidean coordinates need an explicit bounding box")
        box = [tuple(map(float, pair)) for pair in box]
        if len(box) != self.dim:
            raise ValueError(f"box needs {self.dim} coordinate ranges")
        return box

    def embed(self, params):
        return params

    def quadrature_grid(self, resolution):
        raise UnboundedDomain("no canonical finite measure on R^2n")

    def __repr__(self):
        return f"EuclideanSpace(pairs={self.pairs})"


class SphereSpace(PhaseSpace):
    """Round sphere of total area a, realized on the unit sphere in R^3
    with area form scaled by a / (4 pi).

    Coordinates p1, p2, p3 with p1^2 + p2^2 + p3^2 = 1.  The compatible
    metric is the round metric under the same scaling, so the height
    Hamiltonian p3 rotates about the vertical axis with period a / 2.
    """

    def __init__(self, area: float = 1.0):
        area = float(area)
        if area <= 0:
            raise ValueError("sphere area must be positive")
        self.area = area
        self.scale = area / (4 * math.pi)
        self.dim = 3
        self.param_dim = 2
        self.coord_names = ("p1", "p2", "p3")
        self.is_compact = True

    def omega(self, points, a, b):
        return self.scale * np.sum(points * np.cross(a, b), axis=-1)

    def metric_norm2(self, points, a):
        tangent = a - np.sum(a * points, axis=-1, keepdims=True) * points
        return self.scale * np.sum(tangent * tangent, axis=-1)

    def vector_field_from_gradient(self, points, grad):
        return -np.cross(points, grad) / self.scale

    def project(self, points):
        radius = np.linalg.norm(points, axis=-1, keepdims=True)
        return points / radius

    def param_box(self, box):
        return [(0.0, math.pi), (0.0, 2 * math.pi)]

    def embed(self, params):
        theta, phi = params[..., 0], params[..., 1]
        sin_theta = np.sin(theta)
        return np.stack(
            (sin_theta * np.cos(phi), sin_theta * np.sin(phi),
             np.cos(theta)), axis=-1)

    def quadrature_grid(self, resolution):
        # latitude midpoints avoid the poles and keep the node set
        # symmetric under reflection, so odd zonal functions integrate
        # to zero exactly
        n = max(int(resolution), 2)
        theta = (np.arange(n) + 0.5) * math.pi / n
        phi = np.arange(2 * n) * (2 * math.pi) / (2 * n)
        tt, pp = np.meshgrid(theta, phi, indexing="ij")
        params = np.stack((tt.ravel(), pp.ravel()), axis=-1)
        weights = (self.scale * np.sin(tt).ravel()
                   * (math.pi / n) * (2 * math.pi / (2 * n)))
        return self.embed(params), weights

    def __repr__(self):
        return f"SphereSpace(area={self.area})"


class ProductSpace(PhaseSpace):
    """Product of factors with concatenated coordinates.

    Coordinate names are re-indexed globally so products of like factors
    stay unambiguous (second sphere gets p4, p5, p6 and so on).
    """

    def __init__(self, factors: Sequence[PhaseSpace]):
        factors = tuple(factors)
        if not factors:
            raise ValueError("a product needs at least one factor")
        self.factors = factors
        self.dim = sum(f.dim for f in factors)
        self.param_dim = sum(f.param_dim for f in factors)
        self.is_compact = all(f.is_compact for f in factors)
        names: list[str] = []
        pair_count = 0
        sphere_count = 0
        self._slices: list[slice] = []
        self._param_slices: list[slice] = []
        offset = 0
        param_offset = 0
        for factor in factors:
            self._slices.append(slice(offset, offset + factor.dim))
            self._param_slices.append(
                slice(param_offset, param_offset + factor.param_dim))
            offset += factor.dim
            param_offset += factor.param_dim
            if isinstance(factor, EuclideanSpace):
                for _ in range(factor.pairs):
                    pair_count += 1
                    names += [f"x{pair_count}", f"y{pair_count}"]
            elif isinstance(factor, SphereSpace):
                names += [f"p{sphere_count + i}" for i in (1, 2, 3)]
                sphere_count += 3
            else:
                raise ValueError("products nest only plain factors")
        self.coord_names = tuple(names)

    def omega(self, points, a, b):
        total = 0
        for factor, sl in zip(self.factors, self._slices):
            total = total + factor.omega(points[..., sl], a[..., sl],
                                         b[..., sl])
        return total

    def metric_norm2(self, points, a):
        total = 0
        for factor, sl in zip(self.factors, self._slices):
            total = total + factor.metric_norm2(points[..., sl], a[..., sl])
        return total

    def vector_field_from_gradient(self, points, grad):
        parts = [
            factor.vector_field_from_gradient(points[..., sl],
                                              grad[..., sl])
            for factor, sl in zip(self.factors, self._slices)
        ]
        return np.concatenate(parts, axis=-1)

    def project(self, points):
        parts = [
            factor.project(points[..., sl])
            for factor, sl in zip(self.factors, self._slices)
        ]
        return np.concatenate(parts, axis=-1)

    def param_box(self, box):
        out: list[tuple[float, float]] = []
        cursor = 0
        for factor in self.factors:
            if isinstance(factor, EuclideanSpace):
                if box is None:
                    raise UnboundedDomain(
                        "euclidean factor needs a bounding box")
                piece = box[cursor:cursor + factor.dim]
                cursor += factor.dim
                out.extend(factor.param_box(piece))
            else:
                out.extend(factor.param_box(None))
        return out

    def embed(self, params):
        parts = [
            factor.embed(params[..., sl])
            for factor, sl in zip(self.factors, self._param_slices)
        ]
        return np.concatenate(parts, axis=-1)

    def quadrature_grid(self, resolution):
        grids = [factor.quadrature_grid(resolution)
                 for factor in self.factors]
        points, weights = grids[0]
        for more_points, more_weights in grids[1:]:
            m, k = len(points), len(more_points)
            points = np.concatenate(
                (np.repeat(points, k, axis=0),
                 np.tile(more_points, (m, 1))), axis=-1)
            weights = np.repeat(weights, k) * np.tile(more_weights, m)
        return points, weights

    def __repr__(self):
        return f"ProductSpace({list(self.factors)!r})"


def euclidean_plane() -> EuclideanSpace:
    """R^2 with coordinates x1, y1."""
    return EuclideanSpace(1)


def sphere_space(area: float = 1.0) -> SphereSpace:
    return SphereSpace(area)


def product_space(*factors: PhaseSpace) -> ProductSpace:
    return ProductSpace(factors)
