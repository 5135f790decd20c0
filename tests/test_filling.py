"""The genus test of filling against an independent count of regions.

A transverse pair of core families fills the surface exactly when every
region of the complement of their union is a disc.  The oracle here cuts
each cell into 4 quadrants along the used core midlines, joins quadrants
across uncut midlines and across cell edges with union-find, and counts the
regions.  With V crossings (the kept cells) the union of the cores has
Euler characteristic -V, so the regions' characteristics sum to V + χ(S);
each is at most 1, with equality exactly for a disc.  So the pair fills iff
#regions = V + χ(S).  χ(S) is counted here too, from the corners of the
cells, not from the origami's cone points.
"""

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from origeo.errors import InvalidOrigami
from origeo.multicurve import (
    FillingStatus,
    WeightedMulticurve,
    filling_origami,
    filling_status,
)
from origeo.origami import HORIZONTAL, VERTICAL, Origami

# the quadrants of a cell, and the corners of a cell
BL, BR, TL, TR = range(4)


def _classes(size, pairs):
    """The number of classes of the equivalence on range(size) that the
    pairs generate."""
    parent = list(range(size))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for a, b in pairs:
        parent[find(a)] = find(b)
    return sum(1 for a in range(size) if find(a) == a)


def _label_of_cell(o, side):
    return {cell: c.label for c in o.cylinders(side) for cell in c.cells}


def regions_fill(o, rows, cols):
    """Whether the horizontal cores ``rows`` and the vertical cores ``cols``
    cut the surface into discs only: #regions = V + χ(S)."""
    hor, ver = _label_of_cell(o, HORIZONTAL), _label_of_cell(o, VERTICAL)

    def q(cell, part):
        return 4 * (cell - 1) + part

    # a used horizontal core cuts its cells' bottom quadrants from the top
    # ones, a used vertical core the left quadrants from the right ones
    joins = []
    for cell in range(1, o.n + 1):
        if ver[cell] not in cols:
            joins += [(q(cell, BL), q(cell, BR)), (q(cell, TL), q(cell, TR))]
        if hor[cell] not in rows:
            joins += [(q(cell, BL), q(cell, TL)), (q(cell, BR), q(cell, TR))]
    # the right edge of a cell is the left edge of h(cell), its top edge the
    # bottom edge of v(cell): quadrants and corners meet across them alike
    edges = []
    for cell, right, top in zip(range(1, o.n + 1), o.h, o.v):
        edges += [(q(cell, TR), q(right, TL)), (q(cell, BR), q(right, BL)),
                  (q(cell, TL), q(top, BL)), (q(cell, TR), q(top, BR))]
    regions = _classes(4 * o.n, joins + edges)
    chi = _classes(4 * o.n, edges) - o.n  # V - E + F with E = 2n, F = n
    crossings = sum(1 for cell in range(1, o.n + 1)
                    if hor[cell] in rows and ver[cell] in cols)
    return regions == crossings + chi


@st.composite
def origami_and_supports(draw):
    n = draw(st.integers(2, 10))
    h = draw(st.permutations(range(1, n + 1)))
    v = draw(st.permutations(range(1, n + 1)))
    try:
        o = Origami(n, h, v)
    except InvalidOrigami:  # not transitive
        assume(False)
    supports = []
    for side in (HORIZONTAL, VERTICAL):
        labels = [c.label for c in o.cylinders(side)]
        supports.append(draw(st.lists(st.sampled_from(labels), min_size=1, unique=True)))
    return o, *supports


def _pair(o, rows, cols):
    return (WeightedMulticurve(o, HORIZONTAL, {lab: 1 for lab in rows}),
            WeightedMulticurve(o, VERTICAL, {lab: 1 for lab in cols}))


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(origami_and_supports())
def test_genus_test_agrees_with_the_regions_of_the_complement(instance):
    o, rows, cols = instance
    a, b = _pair(o, rows, cols)
    fills = filling_status(a, b) is FillingStatus.FILLING_CERTIFIED
    assert fills == regions_fill(o, set(rows), set(cols))
    if fills:
        cut = filling_origami(a, b)  # O itself when both supports are full
        # the used cores, in O's order; N(O′) is N restricted to them
        n, n_cut = o.intersection_matrix(), cut.intersection_matrix()
        assert n_cut.row_labels == a.support and n_cut.col_labels == b.support
        assert n_cut.entries == tuple(
            tuple(n.entries[n.row_index[r]][n.col_index[c]] for c in b.support)
            for r in a.support)
        assert cut.parent is o and cut.genus() == o.genus()


def test_restricted_origami_keeps_the_labels_and_order_of_its_host():
    # O′ keeps the 3 cells of A2 (renumbered 1, 2, 3); B1 keeps cell 4 and B2
    # cells 2 and 3, so O′'s own smallest cells would order B2 first
    o = Origami(4, [1, 3, 4, 2], [4, 3, 2, 1])
    rows, cols = ("A2",), ("B1", "B2")
    assert regions_fill(o, set(rows), set(cols))
    cut = filling_origami(*_pair(o, rows, cols))
    assert (cut.n, cut.h, cut.v) == (3, (2, 3, 1), (2, 1, 3))
    assert [(c.label, c.cells) for c in cut.cylinders(VERTICAL)] == [
        ("B1", (3,)), ("B2", (1, 2))]
    assert [(c.label, c.cells) for c in cut.cylinders(HORIZONTAL)] == [("A2", (1, 2, 3))]
    plain = Origami(cut.n, cut.h, cut.v)
    assert [c.cells for c in plain.cylinders(VERTICAL)] == [(1, 2), (3,)]
    assert cut != plain and cut.parent is o and plain.parent is plain
    assert cut.intersection_matrix().entries == ((1, 2),)
    assert cut.genus() == o.genus() == 2
