"""Linear algebra over the bounded Novikov subring.

The bounded subring is a valuation ring: among finitely many elements the
one of smallest valuation divides all the others.  That makes a Smith-type
normal form reachable with a single clearing pass per pivot, and gives
finitely generated cohomology modules the shape

    (free part)^a  (+)  sum_i  (bounded subring) / T^(lambda_i)

with well-defined torsion exponents lambda_i > 0.  This module computes
that decomposition for explicit cochain complexes and derives the
quantities built from it: the count of torsion exponents surviving a
positive level, the resulting intersection-number floor and the torsion
threshold.

Matrices are dense and immutable, and all entries share one truncation
level, so a decomposition is exact whenever its exponents lie below that
level.  They also share one exponent denominator (see ``novikov``), so
elimination compares and adds integer exponents and never rescales.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Sequence

from .errors import NotAComplex, PrecisionExhausted
from .novikov import (NovikovElement, _common_denominator, _order,
                      _over_leading_coefficient, _rescaled, divide_exact,
                      parse)
from .rationals import INFINITE, Level, as_level


class NovikovMatrix:
    """Immutable dense matrix of Novikov elements sharing one truncation
    and one exponent denominator."""

    __slots__ = ("rows", "cols", "entries", "trunc")

    def __init__(self, entries: Sequence[Sequence], trunc: Level | None = None,
                 shape: tuple[int, int] | None = None):
        grid = [[parse(value) for value in row] for row in entries]
        rows = len(grid)
        cols = len(grid[0]) if rows else 0
        if shape is not None:
            # only needed to give empty matrices an explicit shape
            if rows and (rows, cols) != shape:
                raise ValueError(f"entries disagree with shape {shape}")
            rows, cols = shape
        if any(len(row) != cols for row in grid):
            raise ValueError("ragged matrix")
        level = INFINITE if trunc is None else as_level(trunc)
        for row in grid:
            for value in row:
                level = min(level, value.trunc)
        grid = [[value.retruncate(level) for value in row] for row in grid]
        den = _common_denominator(value for row in grid for value in row)
        grid = tuple(
            tuple(_rescaled(value, den) for value in row) for row in grid)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", grid)
        object.__setattr__(self, "trunc", level)

    def __setattr__(self, name, value):
        raise AttributeError("NovikovMatrix is immutable")

    def __reduce__(self):
        # copy and pickle would restore the slots through __setattr__
        return NovikovMatrix, (self.entries, self.trunc, self.shape)

    @classmethod
    def identity(cls, size: int, trunc: Level = INFINITE) -> "NovikovMatrix":
        one = NovikovElement.one()
        zero = NovikovElement.zero()
        return cls([[one if i == j else zero for j in range(size)]
                    for i in range(size)], trunc)

    @classmethod
    def zeros(cls, rows: int, cols: int, trunc: Level = INFINITE) -> "NovikovMatrix":
        zero = NovikovElement.zero()
        return cls([[zero] * cols for _ in range(rows)], trunc,
                   shape=(rows, cols))

    def entry(self, i: int, j: int) -> NovikovElement:
        return self.entries[i][j]

    def __mul__(self, other: "NovikovMatrix") -> "NovikovMatrix":
        if not isinstance(other, NovikovMatrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ValueError(f"shape mismatch {self.shape} x {other.shape}")
        grid = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = NovikovElement.zero()
                for k in range(self.cols):
                    acc = acc + self.entries[i][k] * other.entries[k][j]
                row.append(acc)
            grid.append(row)
        return NovikovMatrix(grid, shape=(self.rows, other.cols))

    def __sub__(self, other: "NovikovMatrix") -> "NovikovMatrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return NovikovMatrix(
            [[self.entries[i][j] - other.entries[i][j]
              for j in range(self.cols)] for i in range(self.rows)],
            shape=self.shape)

    def __eq__(self, other) -> bool:
        if not isinstance(other, NovikovMatrix):
            return NotImplemented
        return self.entries == other.entries and self.trunc == other.trunc

    def __hash__(self) -> int:
        return hash((self.entries, self.trunc))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    def is_zero_below_truncation(self) -> bool:
        """True when every entry vanishes below the shared level."""
        return all(value.valuation() >= self.trunc
                   for row in self.entries for value in row)

    def diagonal(self) -> tuple[NovikovElement, ...]:
        return tuple(self.entries[k][k]
                     for k in range(min(self.rows, self.cols)))

    def __repr__(self) -> str:
        return f"<NovikovMatrix {self.rows}x{self.cols} mod T^{self.trunc}>"


@dataclass(frozen=True)
class SmithNormalForm:
    """u * matrix * v = diagonal, with u, v invertible over the subring.

    The normal form keeps the pivots of a forward elimination.  The
    diagonal is built from them, and u and v from the source matrix by a
    two-sided elimination, each on first read.
    """

    pivot_valuations: tuple[Fraction, ...]
    _pivots: tuple[NovikovElement, ...] = field(repr=False, compare=False)
    _source: NovikovMatrix = field(repr=False)

    @property
    def rank(self) -> int:
        return len(self.pivot_valuations)

    @cached_property
    def diagonal(self) -> NovikovMatrix:
        source = self._source
        zero = NovikovElement.zero(source.trunc)
        grid = [[zero] * source.cols for _ in range(source.rows)]
        for k, pivot in enumerate(self._pivots):
            grid[k][k], = _over_leading_coefficient((pivot,), pivot)
        return NovikovMatrix(grid, source.trunc, shape=source.shape)

    @cached_property
    def _transforms(self) -> tuple[NovikovMatrix, NovikovMatrix]:
        _, _, u, v = _eliminate(self._source)
        return NovikovMatrix(u), NovikovMatrix(v)

    @cached_property
    def u(self) -> NovikovMatrix:
        return self._transforms[0]

    @cached_property
    def v(self) -> NovikovMatrix:
        return self._transforms[1]


def _pivot_position(work, k: int, rows: int, cols: int):
    """The entry of smallest valuation in the block from (k, k), ties
    broken by lowest (row, col); None when the block vanishes."""
    pivot_pos = None
    pivot_order = INFINITE
    for i in range(k, rows):
        row = work[i]
        for j in range(k, cols):
            order = _order(row[j])
            if order < pivot_order:
                pivot_order = order
                pivot_pos = (i, j)
    return pivot_pos


def smith_normal_form(matrix: NovikovMatrix) -> SmithNormalForm:
    """Diagonalize by valuation pivoting.

    Each round picks the entry of smallest valuation in the remaining
    block (ties broken by lowest (row, col)), moves it to (k, k) and
    clears the rows below it by exact division, which always succeeds
    because the pivot's valuation is minimal.  Pivot valuations come out
    non-decreasing; the diagonal entries are the pivots over their
    leading coefficients.
    """
    pivots = _forward(matrix)
    return SmithNormalForm(
        pivot_valuations=tuple(p.valuation() for p in pivots),
        _pivots=tuple(pivots),
        _source=matrix,
    )


def _forward(matrix: NovikovMatrix) -> list[NovikovElement]:
    """The pivots of the forward elimination behind smith_normal_form.

    Row i loses (a_ik / pivot) times the pivot row over the columns after
    k.  Clearing the pivot row as well, as ``_eliminate`` does, is a
    column operation that changes only that row, so it moves neither the
    remaining block nor the pivots and is left out.
    """
    work = [list(row) for row in matrix.entries]
    rows, cols = matrix.rows, matrix.cols
    # at infinite truncation a quotient that is an infinite series
    # raises; dividing the pivot row raises where _eliminate does
    exact = matrix.trunc == INFINITE
    pivots: list[NovikovElement] = []
    for k in range(min(rows, cols)):
        pivot_pos = _pivot_position(work, k, rows, cols)
        if pivot_pos is None:
            break
        pi, pj = pivot_pos
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
        if pj != k:
            # rows above k are never read again
            for row in work[k:]:
                row[k], row[pj] = row[pj], row[k]
        pivot_row = work[k]
        pivot = pivot_row[k]
        pivots.append(pivot)
        # a zero of the pivot row leaves its column unchanged
        support = [j for j in range(k + 1, cols) if pivot_row[j]]
        if exact:
            for j in support:
                divide_exact(pivot_row[j], pivot)
        for i in range(k + 1, rows):
            row = work[i]
            if row[k].is_zero():
                continue
            factor = divide_exact(row[k], pivot)
            for j in support:
                row[j] = row[j] - factor * pivot_row[j]
    return pivots


def _eliminate(matrix: NovikovMatrix):
    """The two-sided elimination behind ``SmithNormalForm.u`` and ``.v``:
    the pivoting of smith_normal_form, clearing both the pivot column and
    the pivot row.  Returns the reduced grid, the pivot valuations and
    the row and column transforms u and v as grids."""
    work = [list(row) for row in matrix.entries]
    # every entry is stored over this denominator; the transforms are
    # brought to it too, so no ring operation below rescales
    den = _common_denominator(value for row in work for value in row)
    u = [[_rescaled(value, den) for value in row] for row in
         NovikovMatrix.identity(matrix.rows).entries]
    v = [[_rescaled(value, den) for value in row] for row in
         NovikovMatrix.identity(matrix.cols).entries]
    pivots: list[Fraction] = []

    for k in range(min(matrix.rows, matrix.cols)):
        pivot_pos = _pivot_position(work, k, matrix.rows, matrix.cols)
        if pivot_pos is None:
            break
        pi, pj = pivot_pos
        if pi != k:
            work[k], work[pi] = work[pi], work[k]
            u[k], u[pi] = u[pi], u[k]
        if pj != k:
            for row in work:
                row[k], row[pj] = row[pj], row[k]
            for row in v:
                row[k], row[pj] = row[pj], row[k]

        pivot = work[k][k]
        # normalize the leading coefficient to 1
        u[k] = _over_leading_coefficient(u[k], pivot)
        work[k] = _over_leading_coefficient(work[k], pivot)
        pivot = work[k][k]
        pivots.append(pivot.valuation())

        # clear the pivot column with row operations; the pivot row is
        # zero before column k, so only columns k.. change
        for i in range(matrix.rows):
            if i == k or work[i][k].is_zero():
                continue
            factor = divide_exact(work[i][k], pivot)
            work[i][k:] = [work[i][j] - factor * work[k][j]
                           for j in range(k, matrix.cols)]
            u[i] = [u[i][j] - factor * u[k][j] for j in range(matrix.rows)]
        # the pivot column is now zero off the diagonal, so clearing the
        # pivot row only changes the row itself
        for j in range(matrix.cols):
            if j == k or work[k][j].is_zero():
                continue
            factor = divide_exact(work[k][j], pivot)
            work[k][j] = work[k][j] - factor * pivot
            for i in range(matrix.cols):
                v[i][j] = v[i][j] - factor * v[i][k]

    return work, pivots, u, v


class ChainComplex:
    """Finite cochain complex of free modules over the bounded subring.

    ranks[k] is the rank in degree k; differentials[k] maps degree k to
    degree k+1 and is given as a matrix with ranks[k+1] rows and ranks[k]
    columns.  Consecutive differentials must compose to zero below the
    shared truncation level.
    """

    __slots__ = ("ranks", "differentials", "trunc")

    def __init__(self, ranks: Sequence[int],
                 differentials: Sequence[NovikovMatrix]):
        ranks = tuple(int(r) for r in ranks)
        differentials = tuple(differentials)
        if len(differentials) != max(len(ranks) - 1, 0):
            raise ValueError("need exactly one differential per adjacent "
                             "pair of degrees")
        for k, matrix in enumerate(differentials):
            if matrix.shape != (ranks[k + 1], ranks[k]):
                raise ValueError(
                    f"differential {k} has shape {matrix.shape}, "
                    f"expected {(ranks[k + 1], ranks[k])}")
        level = min((m.trunc for m in differentials), default=INFINITE)
        object.__setattr__(self, "ranks", ranks)
        object.__setattr__(self, "differentials", differentials)
        object.__setattr__(self, "trunc", level)

    def __setattr__(self, name, value):
        raise AttributeError("ChainComplex is immutable")

    def __reduce__(self):
        return ChainComplex, (self.ranks, self.differentials)

    def top_degree(self) -> int:
        return len(self.ranks) - 1

    def validate(self) -> None:
        # truncating an honest complex leaves compositions with entries of
        # valuation at or above the shared level, so that is the tolerance
        for k in range(len(self.differentials) - 1):
            lower = self.differentials[k]
            upper = self.differentials[k + 1]
            if lower.rows == 0 or lower.cols == 0 or upper.rows == 0:
                continue
            composed = upper * lower
            if any(value.valuation() < self.trunc
                   for row in composed.entries for value in row):
                raise NotAComplex(
                    f"differentials {k} and {k + 1} do not compose to "
                    "zero below the truncation level")


@dataclass(frozen=True)
class ModuleDecomposition:
    """Free rank plus torsion exponents, sorted descending."""

    betti: int
    torsion: tuple[Fraction, ...]

    def __post_init__(self):
        ordered = tuple(sorted(self.torsion, reverse=True))
        object.__setattr__(self, "torsion", ordered)
        if any(value <= 0 for value in ordered):
            raise ValueError("torsion exponents must be positive")
        if self.betti < 0:
            raise ValueError("free rank must be nonnegative")


def decompose(complex_: ChainComplex, degree: int | None = None
              ) -> ModuleDecomposition:
    """Cohomology of the complex as free rank plus torsion exponents.

    In a single degree k the free rank is ranks[k] minus the ranks of the
    two adjacent differentials, and the torsion exponents are the positive
    pivot valuations of the incoming differential: its image sits inside
    the degree-k cocycles as a direct sum of multiples T^(lambda) of basis
    vectors, each contributing a cyclic summand of exponent lambda.  With
    degree=None the decompositions of all degrees are aggregated.
    """
    complex_.validate()
    forms = [smith_normal_form(matrix) for matrix in complex_.differentials]

    def single(k: int) -> ModuleDecomposition:
        incoming = forms[k - 1] if k >= 1 else None
        outgoing = forms[k] if k < len(forms) else None
        betti = complex_.ranks[k]
        torsion: list[Fraction] = []
        if incoming is not None:
            betti -= incoming.rank
            torsion = [value for value in incoming.pivot_valuations
                       if value > 0]
        if outgoing is not None:
            betti -= outgoing.rank
        if betti < 0:
            # the compositions vanish below the truncation level yet the
            # ranks overlap, so no exact complex truncates to this data;
            # only a higher level could tell what went wrong
            raise PrecisionExhausted(
                f"adjacent differentials overlap in degree {k}; "
                "raise the truncation level")
        return ModuleDecomposition(betti=betti, torsion=tuple(torsion))

    if degree is not None:
        if not 0 <= degree <= complex_.top_degree():
            raise ValueError(f"degree {degree} outside 0..{complex_.top_degree()}")
        return single(degree)

    betti = 0
    torsion: list[Fraction] = []
    for k in range(len(complex_.ranks)):
        piece = single(k)
        betti += piece.betti
        torsion.extend(piece.torsion)
    return ModuleDecomposition(betti=betti, torsion=tuple(torsion))


def b_count(decomposition: ModuleDecomposition, level) -> int:
    """Number of torsion exponents at or above the positive level."""
    level = Fraction(level)
    if level <= 0:
        raise ValueError("the counting level must be positive")
    return sum(1 for value in decomposition.torsion if value >= level)


def intersection_bound(decomposition: ModuleDecomposition, hofer_norm) -> int:
    """Lower bound for intersections of a Lagrangian with its image under
    a Hamiltonian diffeomorphism of the given Hofer norm: the free rank
    plus twice the torsion exponents surviving that norm."""
    return decomposition.betti + 2 * b_count(decomposition, hofer_norm)


def torsion_threshold(decomposition: ModuleDecomposition) -> Level:
    """Displacement-energy threshold read off a decomposition: +inf when
    a free part survives, the largest torsion exponent otherwise, zero
    for the vanishing module."""
    if decomposition.betti > 0:
        return INFINITE
    if decomposition.torsion:
        return decomposition.torsion[0]
    return Fraction(0)


# -- JSON codecs --------------------------------------------------------

def _fields(data, where: str, names: tuple[str, ...]) -> None:
    """Check that ``data`` is an object holding every field in ``names``."""
    if not isinstance(data, dict):
        raise ValueError(f"{where} must be an object with fields "
                         f"{', '.join(names)}; got {type(data).__name__}")
    for name in names:
        if name not in data:
            raise ValueError(f"{where} has no {name!r} field")


def _is_count(value) -> bool:
    """A non-negative int, not a bool."""
    return isinstance(value, int) and not isinstance(value, bool) \
        and value >= 0


def _field_level(data: dict, where: str) -> Level | None:
    """The optional ``trunc`` field as a level above 0; a lower level
    would hide every entry and make each answer look free."""
    value = data.get("trunc")
    if value is None:
        return None
    try:
        if isinstance(value, bool):  # a JSON true is not the level 1
            raise TypeError
        level = as_level(value)
    except (ValueError, TypeError):
        raise ValueError(f"{where} field 'trunc' is not a level (p/q or "
                         f"inf): {value!r}") from None
    if level <= 0:
        raise ValueError(f"{where} field 'trunc' needs a level above 0; "
                         f"got {value!r}")
    return level


def matrix_from_json(data: dict, trunc: Level | None = None,
                     where: str = "matrix JSON") -> NovikovMatrix:
    """The matrix ``{"rows", "cols", "entries", "trunc"?}``; ``trunc``
    overrides the file's level.  A missing or malformed field raises
    ValueError naming it after ``where``."""
    _fields(data, where, ("rows", "cols", "entries"))
    entries = data["entries"]
    if not (isinstance(entries, list)
            and all(isinstance(row, list) for row in entries)):
        raise ValueError(f"{where} field 'entries' must be a list of rows; "
                         f"got {entries!r}")
    if len(entries) != data["rows"] or any(
            len(row) != data["cols"] for row in entries):
        raise ValueError(f"{where} shape disagrees with entries")
    level = trunc if trunc is not None else _field_level(data, where)

    def entry(i, j, value):
        try:
            return parse(value)
        except (ValueError, TypeError) as exc:
            raise ValueError(f"{where} row {i} column {j}: {exc}") from None
    matrix = NovikovMatrix([[entry(i, j, value) for j, value in enumerate(row)]
                            for i, row in enumerate(entries)], level)
    if matrix.rows == 0:
        return NovikovMatrix.zeros(data["rows"], data["cols"])
    return matrix


def complex_from_json(data: dict, trunc: Level | None = None) -> ChainComplex:
    """The complex ``{"ranks", "differentials", "trunc"?}``, each
    differential a matrix object; ``trunc`` overrides the file's level,
    which overrides each differential's own."""
    _fields(data, "complex JSON", ("ranks", "differentials"))
    level = trunc if trunc is not None \
        else _field_level(data, "complex JSON")
    ranks = data["ranks"]
    if not isinstance(ranks, list) or not all(map(_is_count, ranks)):
        raise ValueError("complex JSON field 'ranks' must be a list of "
                         f"non-negative integers; got {ranks!r}")
    blobs = data["differentials"]
    if not isinstance(blobs, list):
        raise ValueError("complex JSON field 'differentials' must be a "
                         f"list; got {blobs!r}")
    if len(blobs) != max(len(ranks) - 1, 0):
        raise ValueError("need exactly one differential per adjacent "
                         "pair of degrees")
    matrices = []
    for index, blob in enumerate(blobs):
        where = f"complex JSON differential {index}"
        _fields(blob, where, ("rows", "cols"))
        if blob["rows"] == 0 or blob["cols"] == 0:
            matrix = NovikovMatrix.zeros(ranks[index + 1], ranks[index])
        else:
            matrix = matrix_from_json(blob, level, where)
        matrices.append(matrix)
    return ChainComplex(ranks, matrices)
