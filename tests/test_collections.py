"""Exceptional collections: mutation, classification, serialization."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from stabctl import exc_collections as xc
from stabctl.klattice import EulerMatrix, euler_pair


def _basis_collection(entries, euler_rows):
    size = len(euler_rows)
    objs = tuple(
        xc.ExcObject(f"E{i}", tuple(1 if k == i else 0 for k in range(size)))
        for i in range(size)
    )
    euler = EulerMatrix(tuple(tuple(r) for r in euler_rows))
    return xc.make_collection(objs, xc.HomTable(size, entries), euler)


def _triangle():
    return _basis_collection(
        {(0, 1): {0: 3}, (1, 2): {0: 3}, (0, 2): {0: 6}},
        ((1, 3, 6), (0, 1, 3), (0, 0, 1)),
    )


def _random_collection(rng: random.Random, size: int):
    entries = {}
    rows = [[0] * size for _ in range(size)]
    for i in range(size):
        rows[i][i] = 1
    for i in range(size):
        for j in range(i + 1, size):
            chi = rng.randint(-4, 4)
            rows[i][j] = chi
            if chi > 0:
                entries[(i, j)] = {rng.choice((0, 2)): chi}
            elif chi < 0:
                entries[(i, j)] = {1: -chi}
    return _basis_collection(entries, rows)


def _random_open_collection(rng: random.Random, size: int):
    """Random table with unknown entries and entries over one or two degrees."""
    entries = {}
    rows = [[int(i == j) for j in range(size)] for i in range(size)]
    for i in range(size):
        for j in range(i + 1, size):
            chi = rng.randint(-3, 3)
            rows[i][j] = chi
            roll = rng.random()
            if roll < 0.25:
                entries[(i, j)] = None
                continue
            # (-1)**k has the sign of chi
            k = 2 * rng.randint(-1, 1) + (chi < 0)
            extra = rng.randint(1, 2) if roll < 0.5 else 0
            if chi or extra:
                entries[(i, j)] = {k: abs(chi) + extra, k + 1: extra}
    return _basis_collection(entries, rows)


def _opposite(c):
    """The opposite collection: order reversed, entry (i, j) moved to
    (n-1-j, n-1-i) with the same degrees, Euler matrix transposed."""
    n = c.size
    entries = {(n - 1 - j, n - 1 - i): e for (i, j), e in c.table.items()}
    euler = EulerMatrix(tuple(zip(*c.euler.entries)))
    return xc.make_collection(c.objects[::-1], xc.HomTable(n, entries), euler)


def test_left_mutation_is_right_mutation_of_the_opposite():
    rng = random.Random(33)
    exact = unknown = 0
    for _ in range(400):
        size = rng.randint(2, 6)
        c = _random_open_collection(rng, size)
        op = _opposite(c)
        assert _opposite(op) == c
        for i in range(size - 1):
            if c.table.entry(i, i + 1) is None:
                with pytest.raises(ValueError):
                    xc.mutate(c, i, xc.LEFT)
                with pytest.raises(ValueError):
                    xc.mutate(op, size - 2 - i, xc.RIGHT)
                continue
            left = xc.mutate(c, i, xc.LEFT)
            dual = _opposite(xc.mutate(op, size - 2 - i, xc.RIGHT))
            new = dual.objects[i]
            assert new.label.startswith("R[")
            objects = list(dual.objects)
            objects[i] = replace(new, label="L" + new.label[1:])
            assert left == replace(dual, objects=tuple(objects))
            for j in range(size):
                if j not in (i, i + 1):
                    e = left.table.entry(min(i, j), max(i, j))
                    exact += e is not None
                    unknown += e is None
    # both outcomes of the degree bound occur
    assert exact > 200 and unknown > 200


def test_make_collection_rejects_table_euler_mismatch():
    with pytest.raises(ValueError):
        _basis_collection({(0, 1): {0: 2}}, ((1, 3), (0, 1)))


def test_mutation_moves_classes():
    c = _triangle()
    right = xc.mutate(c, 0, xc.RIGHT)
    assert tuple(o.kclass for o in right.objects) == ((0, 1, 0), (-1, 3, 0), (0, 0, 1))
    left = xc.mutate(c, 1, xc.LEFT)
    assert tuple(o.kclass for o in left.objects) == ((1, 0, 0), (0, 3, -1), (0, 1, 0))
    assert right.euler == c.euler


def test_mutation_pair_entry_dualizes():
    c = _triangle()
    assert xc.mutate(c, 0, xc.RIGHT).table.entry(0, 1) == {0: 3}
    shifted = xc.shift_objects(c, (1, 0, 0))
    assert shifted.table.entry(0, 1) == {1: 3}
    assert xc.mutate(shifted, 0, xc.RIGHT).table.entry(0, 1) == {-1: 3}


def test_mutation_bounds_give_exact_entries_when_one_branch_dies():
    # an orthogonal far pair collapses the degree bound to a single value
    c = _basis_collection(
        {(0, 1): {0: 2}, (1, 2): {0: 2}},
        ((1, 2, 0), (0, 1, 2), (0, 0, 1)),
    )
    right = xc.mutate(c, 0, xc.RIGHT)
    assert right.table.entry(0, 1) == {0: 2}
    # old (0,2) entry is empty, so the new (1,2) bound is the shifted (0,2)
    # branch joined with the pair sum: only the pair sum survives
    assert right.table.entry(1, 2) == {0: 4}
    assert right.table.entry(0, 2) == {0: 2}


def test_mutation_bound_branches_shift_by_the_pair_degrees_and_by_one():
    # Hom(E0, E1) sits in degree 1, so each branch of the right bound
    # Hom(R, E2) in (Hom(E1, E2) + S) | (Hom(E0, E2) + 1) lands in degree 1
    via_kept = _basis_collection(
        {(0, 1): {1: 2}, (1, 2): {0: 1}}, ((1, -2, 0), (0, 1, 1), (0, 0, 1))
    )
    assert xc.mutate(via_kept, 0, xc.RIGHT).table.entry(1, 2) == {1: 2}
    via_mutated = _basis_collection(
        {(0, 1): {1: 2}, (0, 2): {0: 3}}, ((1, -2, 3), (0, 1, 0), (0, 0, 1))
    )
    assert xc.mutate(via_mutated, 0, xc.RIGHT).table.entry(1, 2) == {1: 3}


def test_mutation_bounds_leave_ambiguous_entries_unknown():
    c = _triangle()
    assert xc.mutate(c, 0, xc.RIGHT).table.entry(1, 2) is None
    assert xc.mutate(c, 1, xc.RIGHT).table.entry(0, 2) is None


def test_mutate_requires_known_pair_entry():
    c = xc.mutate(_triangle(), 0, xc.RIGHT)
    assert c.table.entry(1, 2) is None
    with pytest.raises(ValueError):
        xc.mutate(c, 1, xc.RIGHT)


def test_round_trip_preserves_surviving_entries():
    rng = random.Random(31)
    for _ in range(150):
        size = rng.randint(2, 4)
        c = _random_collection(rng, size)
        for i in range(size - 1):
            for first, second in ((xc.RIGHT, xc.LEFT), (xc.LEFT, xc.RIGHT)):
                back = xc.mutate(xc.mutate(c, i, first), i, second)
                assert tuple(o.kclass for o in back.objects) == tuple(
                    o.kclass for o in c.objects
                )
                for (a, b), e in back.table.items():
                    if e is not None:
                        assert dict(e) == dict(c.table.entry(a, b))


def test_mutated_class_satisfies_reflection_formula():
    rng = random.Random(32)
    for _ in range(100):
        c = _random_collection(rng, 3)
        i = rng.randint(0, 1)
        chi = euler_pair(c.euler, c.objects[i].kclass, c.objects[i + 1].kclass)
        right = xc.mutate(c, i, xc.RIGHT)
        assert right.objects[i].kclass == c.objects[i + 1].kclass
        got = right.objects[i + 1].kclass
        want = tuple(
            chi * b - a for a, b in zip(c.objects[i].kclass, c.objects[i + 1].kclass)
        )
        assert got == want


def test_resolve_entry():
    c = xc.mutate(_triangle(), 0, xc.RIGHT)
    fixed = xc.resolve_entry(c, 1, 2, {0: 3})
    assert fixed.table.entry(1, 2) == {0: 3}
    with pytest.raises(ValueError):
        xc.resolve_entry(fixed, 1, 2, {0: 3})
    with pytest.raises(ValueError):
        xc.resolve_entry(c, 1, 2, {0: 4})


def test_classify_flags():
    strong = _triangle()
    flags = xc.classify(strong)
    assert (flags.strong, flags.ext, flags.regular, flags.orthogonal) == (
        True,
        False,
        True,
        False,
    )
    ext = _basis_collection({(0, 1): {1: 2}}, ((1, -2), (0, 1)))
    flags = xc.classify(ext)
    assert flags.ext and not flags.strong
    orth = _basis_collection({}, ((1, 0), (0, 1)))
    flags = xc.classify(orth)
    assert flags.orthogonal and flags.strong and flags.ext


def test_ext_shift_produces_an_ext_collection():
    c = _triangle()
    p = xc.ext_shift(c)
    assert xc.classify(xc.shift_objects(c, p)).ext
    assert p == (2, 1, 0)


def test_shift_objects_moves_degrees():
    c = _triangle()
    shifted = xc.shift_objects(c, (2, 1, 0))
    assert shifted.table.entry(0, 1) == {1: 3}
    assert shifted.table.entry(0, 2) == {2: 6}
    assert shifted.table.entry(1, 2) == {1: 3}
    # the shift field tracks how far the underlying object moved down
    assert [o.shift for o in shifted.objects] == [-2, -1, 0]


def test_collection_serialization_round_trip():
    c = xc.mutate(_triangle(), 0, xc.RIGHT)
    data = xc.collection_to_data(c)
    assert data["table"]["1,2"] is None
    back = xc.collection_from_data(data)
    assert back == c
    # euler can be rebuilt from a complete table over a basis
    full = _triangle()
    data = xc.collection_to_data(full)
    del data["euler"]
    assert xc.collection_from_data(data) == full


def test_hom_table_text_round_trip():
    table = xc.HomTable(3, {(0, 1): {0: 3}, (1, 2): None, (0, 2): {}})
    text = xc.format_hom_table(table)
    back = xc.parse_hom_table(text, 3)
    assert back == table
