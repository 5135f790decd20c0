import json
import random
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from origeo import cli
from origeo.errors import ComplexityError, InputError, InvalidOrigami
from origeo.origami import (
    HORIZONTAL,
    VERTICAL,
    IntersectionMatrix,
    Origami,
    builtin,
    catalog,
    origami_to_json,
    parse_origami,
)
from origeo.sampling import random_connected_origami


def test_three_cell_l_shape_structure():
    o = builtin("l-2-2")
    assert o.n == 3
    assert [c.label for c in o.cylinders(HORIZONTAL)] == ["A1", "A2"]
    assert [c.label for c in o.cylinders(VERTICAL)] == ["B1", "B2"]
    assert o.cylinders(HORIZONTAL)[0].cells == (1, 2)
    assert o.cylinders(VERTICAL)[0].cells == (1, 3)
    assert o.cone_orders() == (3,)
    assert o.genus() == 2


def test_three_cell_l_shape_intersection_matrix():
    m = builtin("l-2-2").intersection_matrix()
    assert m.entries == ((1, 1), (1, 0))
    assert m.row_labels == ("A1", "A2")
    assert m.col_labels == ("B1", "B2")


def test_cylinders_of_an_unknown_side_are_refused():
    with pytest.raises(InputError, match="unknown side 'diagonal'"):
        builtin("l-2-2").cylinders("diagonal")


def test_one_cylinder_origami_has_single_loop_each_way():
    o = builtin("one-cylinder-4")
    m = o.intersection_matrix()
    assert m.entries == ((4,),)
    assert o.genus() == 2


def test_catalog_genus_spread():
    genera = {name: builtin(name).genus() for name in catalog()}
    assert len(genera) >= 5
    assert set(genera.values()) == {2, 3}
    assert genera["quaternion-8"] == 3


@pytest.mark.parametrize("name", catalog())
def test_catalog_validates(name):
    summary = builtin(name).validate()
    data = summary.to_json()
    assert data["squares"] == builtin(name).n
    assert data["genus"] >= 2
    assert sum(data["coneAngles2Pi"]) == data["squares"]


def test_cone_walk_matches_euler_count():
    # number of cone points = n - 2(g - 1) - ... via the angle sum:
    # sum of (order - 1) over cone points must be 2g - 2
    for name in catalog():
        o = builtin(name)
        assert sum(m - 1 for m in o.cone_orders()) == 2 * o.genus() - 2


def test_torus_is_rejected_by_validate_but_constructible():
    o = Origami(1, (1,), (1,))
    assert o.genus() == 1
    with pytest.raises(ComplexityError):
        o.validate()


def test_disconnected_pair_rejected():
    with pytest.raises(InvalidOrigami, match=r"^surface is disconnected: cells \[3, 4\] "
                                             "unreachable from cell 1$"):
        Origami(4, (2, 1, 4, 3), (1, 2, 3, 4))


def _orbit_of_cell_1(h, v):
    """The cells reached from cell 1 by h and v: the reference for the
    connectivity test, which runs on N's support graph."""
    seen, frontier = {1}, [1]
    while frontier:
        c = frontier.pop()
        for image in (h[c - 1], v[c - 1]):
            if image not in seen:
                seen.add(image)
                frontier.append(image)
    return seen


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(st.permutations(range(1, n + 1)),
                                                     st.permutations(range(1, n + 1)))))
def test_connectivity_agrees_with_the_cell_orbit(pair):
    h, v = pair
    n = len(h)
    missing = sorted(set(range(1, n + 1)) - _orbit_of_cell_1(h, v))
    if not missing:
        assert Origami(n, h, v).n == n
        return
    with pytest.raises(InvalidOrigami) as caught:
        Origami(n, h, v)
    assert str(caught.value) == (
        f"surface is disconnected: cells {missing} unreachable from cell 1")


def test_non_bijection_rejected():
    for h, message in [
        ((1, 1, 3), "h is not a bijection of 1..3: [1, 1, 3]"),  # a duplicate image
        ((0, 1, 2), "h is not a bijection of 1..3: [0, 1, 2]"),
        ((1, 2, 4), "h is not a bijection of 1..3: [1, 2, 4]"),  # out of range
        ((1, 2), "h must list images of all 3 cells"),  # short
        # the type is checked before the length, the length before the bijection
        ((1, 2.5), "each image in h must be an integer"),
        ((1, 1), "h must list images of all 3 cells"),
    ]:
        # and h before v, whatever is wrong with v
        for v in ((2, 3, 1), "bad", (1, 1, 3)):
            with pytest.raises(InvalidOrigami) as caught:
                Origami(3, h, v)
            assert str(caught.value) == message


@pytest.mark.parametrize(
    "images",
    [
        pytest.param("213", id="str"),
        pytest.param(b"\x02\x01\x03", id="bytes"),
        pytest.param({2: 0, 1: 0, 3: 0}, id="mapping"),
        pytest.param({"a": 1}, id="json-object"),
    ],
)
def test_a_permutation_that_is_not_a_list_is_refused_by_name(images):
    # read as an iterable, each of these would be its characters, bytes or
    # keys, and the bytes and the first mapping would pass as [2, 1, 3]
    with pytest.raises(InvalidOrigami, match="^v must be a list of integers$"):
        Origami(3, [2, 1, 3], images)
    with pytest.raises(InvalidOrigami, match="^v must be a list of integers$"):
        parse_origami({"squares": 3, "h": [2, 1, 3], "v": images})


def test_tuples_and_arrays_are_accepted_as_permutations():
    for v in ((3, 2, 1), np.array([3, 2, 1]), range(3, 0, -1)):
        assert Origami(3, [2, 1, 3], v) == builtin("l-2-2")


def test_origamis_and_their_restrictions_store_n_without_a_second_check(monkeypatch):
    """N is counted from the walks, which make its cells well formed; the
    checking constructor is for cells from anywhere else."""
    from origeo.multicurve import WeightedMulticurve, filling_origami

    calls = []
    checked = IntersectionMatrix.__init__
    monkeypatch.setattr(IntersectionMatrix, "__init__",
                        lambda self, *args: calls.append(args) or checked(self, *args))
    o = parse_origami({"squares": 4, "h": [1, 3, 4, 2], "v": [4, 3, 2, 1]})
    o.validate()
    cut = filling_origami(WeightedMulticurve(o, HORIZONTAL, {"A2": 1}),
                          WeightedMulticurve(o, VERTICAL, {"B1": 1, "B2": 1}))
    assert cut.parent is o and cut.intersection_matrix().entries == ((1, 2),)
    assert calls == []
    for m in (o.intersection_matrix(), cut.intersection_matrix()):
        assert IntersectionMatrix(m.sparse_rows, m.row_labels, m.col_labels) == m
    assert len(calls) == 2


def test_no_cells_and_a_non_iterable_permutation_are_refused():
    with pytest.raises(InvalidOrigami, match="^need a positive number of cells, got 0$"):
        Origami(0, [], [])
    with pytest.raises(InvalidOrigami, match="^h must be a list of integers$"):
        Origami(3, 5, [3, 2, 1])


@pytest.mark.parametrize("data", [[3, [2, 1, 3], [3, 2, 1]], "l-2-2", None])
def test_parse_refuses_a_non_object(data):
    with pytest.raises(InputError, match="^origami file must contain a JSON object$"):
        parse_origami(data)


def test_equal_origamis_hash_alike():
    a, b = builtin("l-2-2"), Origami(3, [2, 1, 3], [3, 2, 1])
    assert a == b and hash(a) == hash(b)
    assert len({a, b, builtin("l-3-2")}) == 2


def test_parse_round_trip():
    o = builtin("staircase-4")
    again = parse_origami(origami_to_json(o))
    assert again.h == o.h and again.v == o.v and again.n == o.n


@pytest.mark.parametrize(
    "data",
    [
        {"h": [1], "v": [1]},
        {"squares": "three", "h": [2, 1, 3], "v": [3, 2, 1]},
        {"squares": 3, "h": [2, 1, 3]},
        {"squares": 3, "h": "bad", "v": [3, 2, 1]},
    ],
)
def test_parse_rejects_malformed(data):
    with pytest.raises(InputError):
        parse_origami(data)


@pytest.mark.parametrize(
    "data, named",
    [
        ({"squares": 3, "h": [2.5, 1, 3], "v": [3, 2, 1]}, "h"),
        ({"squares": 3, "h": [2, 1, 3.0], "v": [3, 2, 1]}, "h"),
        ({"squares": 3, "h": [2, 1, 3], "v": ["3", 2, 1]}, "v"),
        ({"squares": 3, "h": [2, 1, 3], "v": [3, 2, True]}, "v"),
        ({"squares": True, "h": [1], "v": [1]}, "squares"),
        ({"squares": 3.0, "h": [2, 1, 3], "v": [3, 2, 1]}, "squares"),
    ],
)
def test_parse_rejects_fractional_boolean_and_string_cells(data, named):
    with pytest.raises(InvalidOrigami, match=named):
        parse_origami(data)


def test_numpy_integer_cells_are_accepted():
    o = Origami(np.int64(3), np.array([2, 1, 3]), [np.int32(3), 2, 1])
    assert (o.n, o.h, o.v) == (3, (2, 1, 3), (3, 2, 1))
    assert all(type(x) is int for x in (o.n, *o.h, *o.v))


def test_load_rejects_missing_and_bad_files(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert cli.main(["validate", missing]) == 2
    assert f"error: cannot read {missing}: " in capsys.readouterr().err
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert cli.main(["validate", str(bad)]) == 2
    assert f"error: {bad} is not valid JSON: " in capsys.readouterr().err


def test_load_accepts_valid_file(tmp_path, capsys):
    path = tmp_path / "o.json"
    path.write_text(json.dumps({"squares": 3, "h": [2, 1, 3], "v": [3, 2, 1]}))
    assert cli.main(["validate", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["genus"] == 2


def test_unknown_builtin():
    with pytest.raises(InputError):
        builtin("torus-of-revolution")



def corner_walk_orders(o):
    """Reference cone orders: union-find over the 4n corner slots of the cells.

    The right and top edge gluings identify corner slots of neighbouring
    cells; a class of 4m slots is a cone point of angle 2*pi*m.
    """
    parent = list(range(4 * o.n))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def slot(cell, corner):  # corners BL, BR, TR, TL are 0, 1, 2, 3
        return 4 * (cell - 1) + corner

    for cell in range(1, o.n + 1):
        right, top = o.h[cell - 1], o.v[cell - 1]
        for a, b in ((slot(cell, 1), slot(right, 0)), (slot(cell, 2), slot(right, 3)),
                     (slot(cell, 3), slot(top, 0)), (slot(cell, 2), slot(top, 1))):
            parent[find(a)] = find(b)
    sizes = Counter(find(a) for a in range(4 * o.n))
    assert all(size % 4 == 0 for size in sizes.values())
    return tuple(sorted((size // 4 for size in sizes.values()), reverse=True))


def _staircase(n):
    """h swaps (1 2)(3 4)..., v swaps (2 3)(4 5)...: n/2 and n/2 + 1 cylinders."""
    h = [i + 2 if i % 2 == 0 else i for i in range(n)]
    v = [1] + [i + 2 if i % 2 == 1 else i for i in range(1, n - 1)] + [n]
    return Origami(n, h, v)


def _relabelled(o, sigma):
    """The same surface with cell c renamed sigma[c - 1]."""
    h, v = [0] * o.n, [0] * o.n
    for c in range(1, o.n + 1):
        h[sigma[c - 1] - 1] = sigma[o.h[c - 1] - 1]
        v[sigma[c - 1] - 1] = sigma[o.v[c - 1] - 1]
    return Origami(o.n, h, v)


@st.composite
def _origamis(draw):
    n = draw(st.integers(1, 60))
    rng = random.Random(draw(st.integers(0, 10**6)))
    o = random_connected_origami(rng, n)
    sigma = list(range(1, n + 1))
    rng.shuffle(sigma)
    return o, sigma


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(_origamis())
def test_cone_orders_match_the_corner_walk(case):
    o, sigma = case
    orders = o.cone_orders()
    assert orders == corner_walk_orders(o)
    assert sum(orders) == o.n
    assert _relabelled(o, sigma).cone_orders() == orders
    assert Origami(o.n, o.v, o.h).cone_orders() == orders


@pytest.mark.parametrize("n", [10, 20, 40, 80, 160])
def test_staircase_cone_orders_match_the_corner_walk(n):
    o = _staircase(n)
    assert o.cone_orders() == corner_walk_orders(o)
    assert o.genus() >= 2


@pytest.mark.parametrize("name", sorted(catalog()))
def test_catalog_cone_orders_match_the_corner_walk(name):
    o = builtin(name)
    assert o.cone_orders() == corner_walk_orders(o)
    assert o.cone_orders() is o.cone_orders()


def _cell_counts(o):
    """Reference N: +1 at (h-cycle, v-cycle) for every cell, each family's
    cycles numbered in increasing order of their smallest cell."""
    def cycle_of(perm):
        cycles = set()
        for cell in range(1, o.n + 1):
            orbit, cur = {cell}, perm[cell - 1]
            while cur != cell:
                orbit.add(cur)
                cur = perm[cur - 1]
            cycles.add(frozenset(orbit))
        ordered = sorted(cycles, key=min)
        return {cell: k for k, cyc in enumerate(ordered) for cell in cyc}, len(ordered)

    (row, k), (col, l) = cycle_of(o.h), cycle_of(o.v)
    return Counter((row[c], col[c]) for c in range(1, o.n + 1)), k, l


@st.composite
def _matrix_cases(draw):
    """A random origami, or a staircase with its cells relabelled."""
    if draw(st.booleans()):
        return draw(_origamis())[0]
    n = draw(st.sampled_from([4, 10, 20, 40, 160]))
    return _relabelled(_staircase(n), draw(st.permutations(range(1, n + 1))))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(_matrix_cases())
def test_intersection_matrix_is_the_per_cell_count(o):
    counts, k, l = _cell_counts(o)
    n = o.intersection_matrix()
    assert "entries" not in vars(n)  # the cells are the stored form
    cells = sorted(counts)  # row order, columns increasing in each row
    assert n.shape == (k, l)
    assert n.total() == o.n
    assert n.sparse_rows == tuple(
        tuple((j, counts[i, j]) for j in range(l) if (i, j) in counts) for i in range(k))
    i, j, values = n.cells
    assert (i.dtype.kind, j.dtype.kind, values.dtype) == ("i", "i", np.float64)
    assert list(zip(i.tolist(), j.tolist())) == cells
    assert values.tolist() == [float(counts[c]) for c in cells]
    dense = tuple(tuple(counts[i, j] for j in range(l)) for i in range(k))
    assert np.array_equal(n.array, np.array(dense, dtype=float))
    assert not n.array.flags.writeable
    assert n.entries == dense
