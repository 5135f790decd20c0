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

The running example throughout the package is the three-cell L-shaped
origami ``h = (1 2)(3)``, ``v = (1 3)(2)``: two horizontal cylinders
``A1 = {1, 2}``, ``A2 = {3}``, two vertical cylinders ``B1 = {1, 3}``,
``B2 = {2}``, a single cone point of angle ``6*pi`` and genus 2.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .errors import CertificationError, ComplexityError, InputError, InvalidOrigami
from .multicurve import HORIZONTAL, VERTICAL, IntersectionMatrix


@dataclass(frozen=True)
class Cylinder:
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
        cells = list(images)
    except TypeError:
        raise InvalidOrigami(f"{name} must be a list of integers") from None
    try:
        # operator.index takes bools, so they are refused first
        if bool in map(type, cells):
            raise TypeError
        perm = tuple(map(operator.index, cells))
    except TypeError:
        raise InvalidOrigami(f"each image in {name} must be an integer") from None
    if len(perm) != n:
        raise InvalidOrigami(f"{name} must list images of all {n} cells")
    if sorted(perm) != list(range(1, n + 1)):
        raise InvalidOrigami(f"{name} is not a bijection of 1..{n}: {list(perm)}")
    return perm


def _cycles(perm: Tuple[int, ...]) -> List[Tuple[int, ...]]:
    n = len(perm)
    seen = [False] * (n + 1)
    cycles = []
    for start in range(1, n + 1):
        if seen[start]:
            continue
        cycle = [start]
        seen[start] = True
        cur = perm[start - 1]
        while cur != start:
            cycle.append(cur)
            seen[cur] = True
            cur = perm[cur - 1]
        cycles.append(tuple(cycle))
    cycles.sort(key=min)
    return cycles


class Origami:
    """A connected square-tiled surface; see module docstring for the model.

    The constructor enforces well-formedness only (bijections, transitivity).
    The genus >= 2 complexity gate is applied by :meth:`validate`, so that
    structural identities remain checkable on torus covers too.
    """

    def __init__(self, n: int, h: Sequence[int], v: Sequence[int]):
        n = _as_int(n, "the number of cells")
        if n < 1:
            raise InvalidOrigami(f"need a positive number of cells, got {n!r}")
        self.n = n
        self.h = _as_permutation(h, n, "h")
        self.v = _as_permutation(v, n, "v")
        self._check_transitive()
        self._cyls: Dict[str, Tuple[Cylinder, ...]] = {}
        self._matrix: IntersectionMatrix = None
        self._cone_orders: Tuple[int, ...] = None

    def _check_transitive(self) -> None:
        seen = {1}
        frontier = [1]
        while frontier:
            c = frontier.pop()
            for image in (self.h[c - 1], self.v[c - 1]):
                if image not in seen:
                    seen.add(image)
                    frontier.append(image)
        if len(seen) != self.n:
            missing = sorted(set(range(1, self.n + 1)) - seen)
            raise InvalidOrigami(
                f"surface is disconnected: cells {missing} unreachable from cell 1"
            )

    # ------------------------------------------------------------------
    # cylinders and the intersection matrix

    def cylinders(self, side: str) -> Tuple[Cylinder, ...]:
        """Cylinders of one side, sorted by smallest cell, labelled A1../B1..."""
        if side not in (HORIZONTAL, VERTICAL):
            raise InputError(f"unknown side {side!r}")
        if side not in self._cyls:
            perm = self.h if side == HORIZONTAL else self.v
            prefix = "A" if side == HORIZONTAL else "B"
            self._cyls[side] = tuple(
                Cylinder(side, f"{prefix}{k + 1}", cells)
                for k, cells in enumerate(_cycles(perm))
            )
        return self._cyls[side]

    def cylinder(self, side: str, label: str) -> Cylinder:
        for c in self.cylinders(side):
            if c.label == label:
                return c
        raise InputError(f"no {side} cylinder labelled {label!r}")

    def intersection_matrix(self) -> IntersectionMatrix:
        """Cell-sharing counts n_ij of (horizontal cylinder, vertical cylinder).

        Equals the geometric intersection number of the two core curves: the
        cores cross once in every cell their cylinders share.  Row sums are
        the horizontal cylinder lengths, column sums the vertical ones, and
        the grand total is ``n``.
        """
        if self._matrix is None:
            hor = self.cylinders(HORIZONTAL)
            ver = self.cylinders(VERTICAL)
            col_of = {}
            for j, c in enumerate(ver):
                for cell in c.cells:
                    col_of[cell] = j
            entries = [[0] * len(ver) for _ in hor]
            for i, c in enumerate(hor):
                for cell in c.cells:
                    entries[i][col_of[cell]] += 1
            self._matrix = IntersectionMatrix(
                tuple(tuple(row) for row in entries),
                tuple(c.label for c in hor),
                tuple(c.label for c in ver),
            )
        return self._matrix

    # ------------------------------------------------------------------
    # singularity analysis

    def cone_orders(self) -> Tuple[int, ...]:
        """Cone angles as multiples of 2*pi, one per vertex, sorted descending.

        The cycle lengths of the commutator ``v^-1 h^-1 v h`` (see the module
        docstring): a cycle of length m is a cone point of angle 2*pi*m.
        """
        if self._cone_orders is None:
            h_inv = [0] * self.n
            v_inv = [0] * self.n
            for cell, (right, top) in enumerate(zip(self.h, self.v), 1):
                h_inv[right - 1] = cell
                v_inv[top - 1] = cell
            commutator = tuple(
                v_inv[h_inv[self.v[right - 1] - 1] - 1] for right in self.h
            )
            lengths = (len(cycle) for cycle in _cycles(commutator))
            self._cone_orders = tuple(sorted(lengths, reverse=True))
        return self._cone_orders

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
        return (
            isinstance(other, Origami)
            and self.n == other.n
            and self.h == other.h
            and self.v == other.v
        )

    def __hash__(self) -> int:
        return hash((self.n, self.h, self.v))


@dataclass(frozen=True)
class ValidationSummary:
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
            "intersectionMatrix": self.matrix.as_lists(),
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


def load_origami(path) -> Origami:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None
    return parse_origami(data)


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
