r"""Square-tiled surfaces given by a pair of permutations.

An origami on ``n`` unit cells is encoded by two permutations of
``{1, ..., n}``:

- ``h`` sends each cell to its right neighbour (right edge glued to the left
  edge of ``h(i)``),
- ``v`` sends each cell to its top neighbour (top edge glued to the bottom
  edge of ``v(i)``).

The cycles of ``h`` are the horizontal cylinders (rings of cells sharing a
horizontal core curve), the cycles of ``v`` the vertical ones.  The surface
is connected exactly when the group generated by ``h`` and ``v`` acts
transitively on the cells.

Cone points are read off the commutator ``v^-1 h^-1 v h``: following it
from a cell walks once around the top-right corner of that cell (right,
up, left, down), so its cycles are the vertices of the square tiling and a
cycle of length ``m`` collects ``4m`` right angles — a cone point of angle
``2*pi*m``.  The other three commutator orders are conjugate to this one
and share its cycle type.  Every cell lies on exactly one cycle, so the
orders total ``n``, and Euler's formula with ``V`` cycles, ``E = 2n`` edges
and ``F = n`` faces gives ``2 - 2g = V - n``, which is the Gauss–Bonnet
identity ``sum_vertices (m - 1) = 2g - 2``.

A horizontal and a vertical core meet once in every cell their cylinders
share.  Each permutation is walked once: the walk lists its cycles and
numbers each cell's cylinder, and one count of the cells by their pair of
numbers gives that table N, the :class:`IntersectionMatrix`, by its nonzero
cells.  :func:`reached_rows` is the one search over N's support: it tests
transitivity (of an origami and of a pair's O′) and, under
:func:`support_is_primitive`, primitivity.

The running example throughout the package is the three-cell L-shaped
origami ``h = (1 2)(3)``, ``v = (1 3)(2)``: two horizontal cylinders
``A1 = {1, 2}``, ``A2 = {3}``, two vertical cylinders ``B1 = {1, 3}``,
``B2 = {2}``, a single cone point of angle ``6*pi`` and genus 2.
"""

from __future__ import annotations

import operator
from collections import Counter
from collections.abc import Mapping
from functools import cached_property, lru_cache
from itertools import repeat
from types import MappingProxyType
from typing import Dict, List, NamedTuple, Sequence, Set, Tuple

from .errors import (CertificationError, ComplexityError, InputError, InvalidOrigami,
                     NotFillingError, np)

HORIZONTAL = "horizontal"
VERTICAL = "vertical"
SIDES = (HORIZONTAL, VERTICAL)


class _Record:
    """Read-only fields, as on a frozen dataclass: ``__init__`` stores them in
    ``__dict__`` (where ``cached_property`` keeps its values too), ``==``
    compares the ones ``_fields`` names and ``repr`` shows them."""

    _fields: Tuple[str, ...] = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        return tuple([getattr(self, f) for f in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __repr__(self) -> str:
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields, self._key()))
        return f"{type(self).__name__}({shown})"


class IntersectionMatrix(_Record):
    """Geometric intersection numbers of two transverse core-curve families.

    The stored form is :attr:`sparse_rows`: per row, the (column, count)
    pairs of its nonzero cells in column order.  ``entries[i][j]``, the
    intersection number of the i-th curve of the row family with the j-th
    curve of the column family, is the dense table derived from them on
    first use; comparison, hashing and ``repr`` read the cells only.  For
    an origami these are the cell counts shared by cylinder pairs, so the
    row sums are the horizontal cylinder lengths, the column sums the
    vertical ones, and the grand total is the number of squares.
    ``row_index`` and ``col_index`` map each label to its position,
    read-only, built on first use.

    The constructor takes the cells and checks them in one pass: the
    columns of each row increase within the column labels, and each count
    is positive.
    """

    _fields = ("sparse_rows", "row_labels", "col_labels")

    def __init__(self, rows: Tuple[Tuple[Tuple[int, int], ...], ...],
                 row_labels: Tuple[str, ...], col_labels: Tuple[str, ...]):
        k, l = len(row_labels), len(col_labels)
        if k == 0 or l == 0:
            raise InputError("intersection matrix must be nonempty")
        if len(rows) != k:
            raise InputError("label count does not match matrix shape")
        for row in rows:
            last = -1
            for j, count in row:
                if not last < j < l:
                    raise InputError(
                        f"cell columns must increase within 0..{l - 1} in each row")
                if not count > 0:
                    raise InputError("a stored cell must hold a positive count")
                last = j
        self.__dict__.update(sparse_rows=rows, row_labels=row_labels, col_labels=col_labels)

    @classmethod
    def _counted(cls, *fields) -> "IntersectionMatrix":
        """N from cells that an origami counted, stored with no second check."""
        m = cls.__new__(cls)
        m.__dict__.update(zip(cls._fields, fields))
        return m

    def __hash__(self) -> int:
        return hash(self._key())

    @cached_property
    def row_index(self) -> Mapping[str, int]:
        return MappingProxyType(dict(zip(self.row_labels, range(len(self.row_labels)))))

    @cached_property
    def col_index(self) -> Mapping[str, int]:
        return MappingProxyType(dict(zip(self.col_labels, range(len(self.col_labels)))))

    @property
    def shape(self) -> Tuple[int, int]:
        return len(self.row_labels), len(self.col_labels)

    def total(self) -> int:
        return sum([count for row in self.sparse_rows for _, count in row])

    @cached_property
    def entries(self) -> Tuple[Tuple[int, ...], ...]:
        """The dense table, 0 off the cells; built once, for the readers
        that want every pair (the JSON form, audits over all pairs)."""
        out = []
        for row in self.sparse_rows:
            dense = [0] * len(self.col_labels)
            for j, count in row:
                dense[j] = count
            out.append(tuple(dense))
        return tuple(out)

    @cached_property
    def cells(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The nonzero cells in row order (rows i, columns j, float entries)."""
        rows = self.sparse_rows
        i = np.repeat(np.arange(len(rows)), [len(row) for row in rows])
        j = np.array([j for row in rows for j, _ in row], dtype=np.intp)
        n = np.array([count for row in rows for _, count in row], dtype=float)
        return i, j, n

    @cached_property
    def array(self) -> np.ndarray:
        """The entries as a read-only float array, built once per matrix
        from the cells."""
        i, j, n = self.cells
        out = np.zeros(self.shape)
        out[i, j] = n
        out.flags.writeable = False
        return out

    @cached_property
    def gram_nonzeros(self) -> int:
        """The number of nonzero entries of N^T N, counted once per matrix:
        N is nonnegative, so no sum cancels and the float product counts
        exactly."""
        return int(np.count_nonzero(self.array.T @ self.array))

    @cached_property
    def core_labels(self) -> Tuple[str, ...]:
        """Every core, rows (horizontal A1..) then columns (vertical B1..);
        built once per matrix."""
        return tuple(self.row_labels) + tuple(self.col_labels)

    @cached_property
    def core_pairings(self) -> Dict[str, np.ndarray]:
        """Per side, i(core_k, core_l) for the cores k of that side (rows)
        and every core l in the order of :attr:`core_labels` (columns): N or
        N^T beside a zero block for the side's own cores.  Read-only, built
        once per matrix."""
        n = self.array
        h, v = n.shape
        horizontal, vertical = np.zeros((h, h + v)), np.zeros((v, h + v))
        horizontal[:, h:], vertical[:, :h] = n, n.T
        horizontal.flags.writeable = vertical.flags.writeable = False
        return {HORIZONTAL: horizontal, VERTICAL: vertical}


def reached_rows(row_cols: Sequence[Sequence[int]],
                 col_rows: Sequence[Sequence[int]]) -> Set[int]:
    """The rows that a search of a support graph reaches from row 0.

    ``row_cols[i]`` lists the columns of the nonzero cells of row i and
    ``col_rows[j]`` the rows of the nonzero cells of column j, so the
    search steps over the nonzero cells only.  A symmetric support passes
    its row lists as both, with no column index.
    """
    seen_rows, seen_cols, frontier = {0}, set(), [0]
    while frontier:
        for j in row_cols[frontier.pop()]:
            if j in seen_cols:
                continue
            seen_cols.add(j)
            for i in col_rows[j]:
                if i not in seen_rows:
                    seen_rows.add(i)
                    frontier.append(i)
    return seen_rows


def support_is_primitive(row_cols: Sequence[Sequence[int]], n_cols: int) -> bool:
    """No zero row, no zero column, connected bipartite support graph.

    ``row_cols[i]`` lists the columns of the nonzero cells of row i.  This
    is the shape under which the two-sided eigensystem closes: every
    component of either family meets the other, and the support does not
    split into independent blocks.
    """
    if not row_cols or not n_cols:
        return False
    col_rows = [[] for _ in range(n_cols)]
    for i, cols in enumerate(row_cols):
        for j in cols:
            col_rows[j].append(i)
    if not all(row_cols) or not all(col_rows):
        return False
    # with no zero column, reaching every row reaches every column too
    return len(reached_rows(row_cols, col_rows)) == len(row_cols)


class Cylinder(NamedTuple):
    """A maximal ring of cells around a common (horizontal or vertical) core.

    ``cells`` lists the cycle in permutation order starting from its smallest
    cell id; the combinatorial length equals the number of cells, which is
    the core curve's intersection count with the transverse full family.
    """

    side: str
    label: str
    cells: Tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.cells)


def _as_int(x, what: str) -> int:
    """``x`` as an int: what ``operator.index`` takes (NumPy integers too), no bool."""
    if not isinstance(x, bool):
        try:
            return operator.index(x)
        except TypeError:
            pass
    raise InvalidOrigami(f"{what} must be an integer, got {x!r}")


def _as_permutation(images: Sequence[int], n: int, name: str) -> Tuple[int, ...]:
    try:
        if isinstance(images, (str, bytes, Mapping)):  # read as keys or characters
            raise TypeError
        cells = list(images)
    except TypeError:
        raise InvalidOrigami(f"{name} must be a list of integers") from None
    if not set(map(type, cells)) <= {int}:
        try:
            # operator.index takes bools, so they are refused first
            if bool in map(type, cells):
                raise TypeError
            cells = list(map(operator.index, cells))
        except TypeError:
            raise InvalidOrigami(f"each image in {name} must be an integer") from None
    if len(cells) != n:
        raise InvalidOrigami(f"{name} must list images of all {n} cells")
    if len(set(cells)) != n or min(cells) < 1 or max(cells) > n:
        raise InvalidOrigami(f"{name} is not a bijection of 1..{n}: {cells}")
    return tuple(cells)


def _cycles(perm: Sequence[int], scale: int = 1) -> Tuple[List[Tuple[int, ...]], List[int]]:
    """The cycles of ``perm`` (read from 1), each from its smallest cell, and
    per cell (from 1 too) its cycle's number times ``scale``.  The scan meets
    a cycle first at its smallest cell, so they come in increasing order of it."""
    of = [-1] * len(perm)
    cycles = []
    for start in range(1, len(perm)):
        if of[start] < 0:
            of[start] = key = len(cycles) * scale
            cycle = [start]
            cur = perm[start]
            while cur != start:
                cycle.append(cur)
                of[cur] = key
                cur = perm[cur]
            cycles.append(tuple(cycle))
    return cycles, of


@lru_cache(maxsize=1024)
def _labels(prefix: str, count: int) -> Tuple[str, ...]:
    return tuple([f"{prefix}{k}" for k in range(1, count + 1)])


class Origami:
    """A connected square-tiled surface; see module docstring for the model.

    The constructor enforces well-formedness only (bijections, transitivity):
    it reads each permutation once, walks it once for its cylinders and each
    cell's cylinder number, counts N from those numbers, and tests
    transitivity on N.  The cone orders walk the commutator on first use.
    The genus >= 2 complexity gate is applied by :meth:`validate`, so that
    structural identities remain checkable on torus covers too.
    """

    _parent = None

    def __init__(self, n: int, h: Sequence[int], v: Sequence[int]):
        n = _as_int(n, "the number of cells")
        if n < 1:
            raise InvalidOrigami(f"need a positive number of cells, got {n!r}")
        self.n = n
        self.h = _as_permutation(h, n, "h")
        self.v = _as_permutation(v, n, "v")
        self._key = (n, self.h, self.v)  # an O′ has its parent's and its supports
        hor, row_of = _cycles((0, *self.h))
        ver, col_key = _cycles((0, *self.v), len(hor))
        # tuple.__new__ builds each Cylinder from (side, label, cells) in C
        self._cyls = {side: tuple(map(tuple.__new__, repeat(Cylinder),
                                      zip(repeat(side), _labels(prefix, len(cycles)), cycles)))
                      for side, prefix, cycles in ((HORIZONTAL, "A", hor), (VERTICAL, "B", ver))}
        missing = self._build_matrix(row_of, col_key)
        if missing:
            raise InvalidOrigami(
                f"surface is disconnected: cells {missing} unreachable from cell 1"
            )

    def _restricted(self, rows: Sequence[str], cols: Sequence[str]) -> "Origami":
        """O′ of the horizontal cores ``rows`` and the vertical ``cols``: the
        cells whose two cylinders are used, in increasing order, with the
        first-return maps of h and v.  Its cylinders keep this origami's
        labels and order, so N(O′) is N restricted to the supports.  Raises
        NotFillingError if a used core meets no other, or they do not connect."""
        used = {side: [c for c in self._cyls[side] if c.label in labels]
                for side, labels in ((HORIZONTAL, set(rows)), (VERTICAL, set(cols)))}
        hor, ver = ({cell for c in used[side] for cell in c.cells} for side in used)
        new = {cell: k for k, cell in enumerate(sorted(hor & ver), 1)}
        o = Origami.__new__(Origami)
        o.n, o._parent = len(new), self
        o._key, o._cyls, perms, index = (self._key, tuple(rows), tuple(cols)), {}, {}, {}
        for side, scale in ((HORIZONTAL, 1), (VERTICAL, len(used[HORIZONTAL]))):
            perm, of, kept = [0] * (len(new) + 1), [-1] * (len(new) + 1), []
            for i, c in enumerate(used[side]):
                cycle = [new[cell] for cell in c.cells if cell in new]
                if not cycle:
                    raise NotFillingError(f"the families do not fill: {c.label} meets "
                                          "no core of the other family")
                for a, b in zip(cycle, cycle[1:] + cycle[:1]):
                    perm[a], of[a] = b, i * scale
                k = cycle.index(min(cycle))
                kept.append(Cylinder(side, c.label, (*cycle[k:], *cycle[:k])))
            perms[side], index[side], o._cyls[side] = tuple(perm[1:]), of, tuple(kept)
        o.h, o.v = perms[HORIZONTAL], perms[VERTICAL]
        if o._build_matrix(index[HORIZONTAL], index[VERTICAL]):
            raise NotFillingError("the families do not fill: their cores fall into "
                                  "more than one connected piece")
        return o

    @property
    def parent(self) -> "Origami":
        """The origami that :meth:`_restricted` cut this one from, or itself."""
        return self._parent or self

    def _build_matrix(self, row_of: List[int], col_key: List[int]) -> List[int]:
        """Store N by one count of ``i + j * k`` over the cells, for a cell's
        horizontal cylinder ``row_of[cell] = i`` and vertical ``col_key[cell]
        = j * k`` (k rows).  Returns the cells that <h, v> does not carry
        cell 1 (in A1) to, in order: the orbit of a cell is the union of the
        cylinders it meets, so these are the cells of the rows that the
        search over N's support from A1 does not reach."""
        hor, ver = self._cyls[HORIZONTAL], self._cyls[VERTICAL]
        rows, row_cols, col_rows = [[] for _ in hor], [[] for _ in hor], [[] for _ in ver]
        # column-major, so each row's columns increase; unused cell 0 is key -2
        for key, count in sorted(Counter(map(operator.add, row_of, col_key)).items())[1:]:
            j, i = divmod(key, len(hor))
            rows[i].append((j, count))
            row_cols[i].append(j)
            col_rows[j].append(i)
        self._matrix = IntersectionMatrix._counted(tuple(map(tuple, rows)), *(
            tuple([c.label for c in cylinders]) for cylinders in (hor, ver)))
        reached = reached_rows(row_cols, col_rows)
        return sorted(cell for i, c in enumerate(hor) if i not in reached for cell in c.cells)

    # ------------------------------------------------------------------
    # cylinders and the intersection matrix

    def cylinders(self, side: str) -> Tuple[Cylinder, ...]:
        """Cylinders of one side, sorted by smallest cell, labelled A1../B1..."""
        if side not in (HORIZONTAL, VERTICAL):
            raise InputError(f"unknown side {side!r}")
        return self._cyls[side]

    def intersection_matrix(self) -> IntersectionMatrix:
        """Cell-sharing counts n_ij of (horizontal cylinder, vertical cylinder).

        Equals the geometric intersection number of the two core curves: the
        cores cross once in every cell their cylinders share.  Row sums are
        the horizontal cylinder lengths, column sums the vertical ones, and
        the grand total is ``n``.  Built with the origami and stored by its
        nonzero cells, at most ``n`` of them; the dense table is derived
        only for the readers that ask for it.
        """
        return self._matrix

    # ------------------------------------------------------------------
    # singularity analysis

    def cone_orders(self) -> Tuple[int, ...]:
        """Cone angles as multiples of 2*pi, one per vertex, sorted descending.

        The cycle lengths of the commutator ``v^-1 h^-1 v h`` (see the module
        docstring): a cycle of length m is a cone point of angle 2*pi*m.
        """
        return self._cone_orders

    @cached_property
    def _cone_orders(self) -> Tuple[int, ...]:
        # v^-1 h^-1 v h = (h∘v)^-1 ∘ (v∘h): one inverse, of h∘v; lists read from 1
        h, v = (0, *self.h), (0, *self.v)
        hv_inv = [0] * len(h)
        for cell, image in enumerate(map(h.__getitem__, self.v), 1):
            hv_inv[image] = cell
        seen, orders = [False] * len(h), []
        for start in range(1, len(h)):
            if not seen[start]:
                m, cur = 0, start
                while not seen[cur]:
                    seen[cur] = True
                    m += 1
                    cur = hv_inv[v[h[cur]]]
                orders.append(m)
        return tuple(sorted(orders, reverse=True))

    def genus(self) -> int:
        """Genus via Gauss–Bonnet: sum of (m - 1) over cone orders is 2g - 2."""
        excess = sum(m - 1 for m in self.cone_orders())
        if excess % 2:
            raise CertificationError("odd total angle excess on a closed surface")
        return 1 + excess // 2

    def validate(self) -> "ValidationSummary":
        """Full structural summary; rejects surfaces of genus < 2.

        Connectivity and bijectivity were already enforced at construction;
        this adds the complexity gate needed for the geodesic constructions
        (on the torus all directions are flat and the boundary theory below
        degenerates).
        """
        g = self.genus()
        if g < 2:
            raise ComplexityError(
                f"genus {g} surface is too simple; need genus >= 2"
            )
        return self.summary()

    def summary(self) -> "ValidationSummary":
        return ValidationSummary(
            n=self.n,
            horizontal=self.cylinders(HORIZONTAL),
            vertical=self.cylinders(VERTICAL),
            cone_orders=self.cone_orders(),
            genus=self.genus(),
            matrix=self.intersection_matrix(),
        )

    def __repr__(self) -> str:
        return f"Origami(n={self.n}, h={list(self.h)}, v={list(self.v)})"

    def __eq__(self, other) -> bool:
        return isinstance(other, Origami) and self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


class ValidationSummary(NamedTuple):
    n: int
    horizontal: Tuple[Cylinder, ...]
    vertical: Tuple[Cylinder, ...]
    cone_orders: Tuple[int, ...]
    genus: int
    matrix: IntersectionMatrix

    def to_json(self) -> dict:
        return {
            "squares": self.n,
            "genus": self.genus,
            "coneAngles2Pi": list(self.cone_orders),
            "cylinders": {
                "horizontal": [
                    {"id": c.label, "cells": list(c.cells), "length": c.length}
                    for c in self.horizontal
                ],
                "vertical": [
                    {"id": c.label, "cells": list(c.cells), "length": c.length}
                    for c in self.vertical
                ],
            },
            "intersectionMatrix": [list(row) for row in self.matrix.entries],
        }


# ---------------------------------------------------------------------------
# JSON form


def parse_origami(data: Mapping) -> Origami:
    """Build an origami from ``{"squares": n, "h": [...], "v": [...]}``.

    ``h`` and ``v`` list 1-indexed images: ``h[i-1]`` is the right neighbour
    of cell ``i``.
    """
    if not isinstance(data, Mapping):
        raise InputError("origami file must contain a JSON object")
    missing = {"squares", "h", "v"} - set(data)
    if missing:
        raise InputError(f"origami object missing keys {sorted(missing)}")
    return Origami(_as_int(data["squares"], "'squares'"), data["h"], data["v"])


def origami_to_json(o: Origami) -> dict:
    return {"squares": o.n, "h": list(o.h), "v": list(o.v)}


# ---------------------------------------------------------------------------
# built-in catalog

_CATALOG_DATA = {
    # L-shaped, 3 cells: the running example. Genus 2, one 6*pi cone point.
    "l-2-2": (3, [2, 1, 3], [3, 2, 1]),
    # L-shaped, horizontal arm of 3 cells, vertical arm of 2. Genus 2.
    "l-3-2": (4, [2, 3, 1, 4], [4, 2, 3, 1]),
    # L-shaped, horizontal arm of 2 cells, vertical arm of 3. Genus 2.
    "l-2-3": (4, [2, 1, 3, 4], [3, 2, 4, 1]),
    # 4-cell staircase: two horizontal and three vertical cylinders. Genus 2.
    "staircase-4": (4, [2, 1, 4, 3], [1, 3, 2, 4]),
    # one cylinder in each direction meeting in all 4 cells. Genus 2.
    "one-cylinder-4": (4, [2, 3, 4, 1], [2, 4, 1, 3]),
    # the 8-cell origami with four 4*pi cone points. Genus 3.
    "quaternion-8": (8, [2, 3, 4, 1, 6, 7, 8, 5], [5, 8, 7, 6, 3, 2, 1, 4]),
}


def catalog() -> Dict[str, Origami]:
    """Built-in origamis (genus 2 and 3) used by the check suites and tests."""
    return {name: Origami(*data) for name, data in _CATALOG_DATA.items()}


def builtin(name: str) -> Origami:
    try:
        data = _CATALOG_DATA[name]
    except KeyError:
        raise InputError(
            f"unknown builtin origami {name!r}; have {sorted(_CATALOG_DATA)}"
        ) from None
    return Origami(*data)
