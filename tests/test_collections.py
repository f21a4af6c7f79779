"""Exceptional collections: mutation, classification, serialization."""

from __future__ import annotations

import random
from dataclasses import replace

import pytest

from stabctl import exc_collections as xc
from stabctl import pn_model as pn
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
    shifted = _reference_shift_objects(c, (1, 0, 0))
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


# -- local-update constructions against their make_collection references --


def _reference_mutate(c, i, direction):
    """`mutate` as it was when it ended in `make_collection`."""
    n = c.size
    if not (0 <= i < n - 1):
        raise ValueError(f"no adjacent pair at {i}")
    if direction == xc.LEFT:
        kp, mp, s, letter = i, i + 1, 1, "L"
    elif direction == xc.RIGHT:
        kp, mp, s, letter = i + 1, i, -1, "R"
    else:
        raise ValueError(f"unknown direction {direction!r}")
    pair = c.table.entry(i, i + 1)
    if pair is None:
        raise ValueError(f"cannot mutate: entry ({i},{i + 1}) is unknown")
    k_obj, m_obj = c.objects[kp], c.objects[mp]
    chi = c.chi(i, i + 1)
    new_class = tuple(chi * a - b for a, b in zip(k_obj.kclass, m_obj.kclass))
    objects = list(c.objects)
    objects[mp] = k_obj
    objects[kp] = xc.ExcObject(f"{letter}[{k_obj.label}]({m_obj.label})", new_class)
    entries = {
        (a, b): e for (a, b), e in c.table.items() if a not in (i, i + 1) and b not in (i, i + 1)
    }
    entries[(i, i + 1)] = {-k: d for k, d in pair.items()}
    for j in range(n):
        if j in (i, i + 1):
            continue
        jk, jm, t = ((j, kp), (j, mp), s) if j < i else ((kp, j), (mp, j), -s)
        entries[jm] = c.table.entry(*jk)
        via_k, via_m = c.table.support(*jk), c.table.support(*jm)
        if via_k is None or via_m is None:
            entries[jk] = None
            continue
        dset = {a + t * k for a in via_k for k in pair} | {b + t for b in via_m}
        pairing = euler_pair(c.euler, objects[jk[0]].kclass, objects[jk[1]].kclass)
        entries[jk] = xc._entry_from_bound(dset, pairing, f"({jk[0]},{jk[1]})")
    return xc.make_collection(objects, xc.HomTable(n, entries), c.euler)


def _shifted(o, k):
    """The object o[k]: its class times (-1)^k, its module k degrees further down."""
    if k == 0:
        return o
    kclass = tuple(-x for x in o.kclass) if k % 2 else o.kclass
    return replace(o, label=f"{o.label}[{k}]", kclass=kclass, shift=o.shift - k)


def _reference_shift_objects(c, p):
    """The collection {E_i[p_i]}, whose entry (i, j) moves its degrees by p_i - p_j."""
    p = tuple(int(x) for x in p)
    if len(p) != c.size:
        raise ValueError("shift vector length mismatch")
    objects = [_shifted(o, k) for o, k in zip(c.objects, p)]
    entries = {}
    for (i, j), e in c.table.items():
        entries[(i, j)] = None if e is None else {k + p[i] - p[j]: d for k, d in e.items()}
    return xc.make_collection(objects, xc.HomTable(c.size, entries), c.euler)


def _reference_resolve_entry(c, i, j, dims):
    if c.table.entry(i, j) is not None:
        raise ValueError(f"entry ({i},{j}) is already exact")
    chi = c.chi(i, j)
    if xc.chi_of_entry(dims) != chi:
        raise ValueError(
            f"resolved entry ({i},{j}) sums to {xc.chi_of_entry(dims)}, pairing gives {chi}"
        )
    return xc.make_collection(c.objects, c.table.with_entry(i, j, dims), c.euler)


def _outcome(fn, *args):
    """('ok', collection) or ('error', message) for one call."""
    try:
        return "ok", fn(*args)
    except ValueError as exc:
        return "error", str(exc)


def _assert_same(got, want):
    assert got[0] == want[0], (got, want)
    if got[0] == "error":
        assert got[1] == want[1]
        return
    a, b = got[1], want[1]
    assert [o.label for o in a.objects] == [o.label for o in b.objects]
    assert [o.kclass for o in a.objects] == [o.kclass for o in b.objects]
    assert all(type(x) is int for o in a.objects for x in o.kclass)
    assert all(type(x) is int for _, e in a.table.items() if e for kv in e.items() for x in kv)
    assert [o.shift for o in a.objects] == [o.shift for o in b.objects]
    assert list(a.table.items()) == list(b.table.items())
    assert a.table.has_unknown() == b.table.has_unknown()
    assert a.euler == b.euler
    # every result is still a valid collection by the full check
    xc.make_collection(a.objects, a.table, a.euler)


def _random_resolution(rng, c, i, j):
    """Dims for the unknown entry (i, j): usually summing to the pairing,
    sometimes off by one, sometimes spread over two degrees or with a
    zero dimension."""
    chi = c.chi(i, j)
    k = 2 * rng.randint(-1, 1) + (chi < 0)
    dims = {k: abs(chi)}
    roll = rng.random()
    if roll < 0.2:
        dims[k] += 1
    elif roll < 0.4:
        dims = {k: abs(chi) + 1, k + 1: 1}
    elif roll < 0.5:
        dims[k + 2] = 0
    return dims


def _start_collections(rng):
    for n, b in ((1, 0), (2, -1), (2, 1), (3, 0)):
        yield pn.pn_collection(n, b)
    for _ in range(300):
        size = rng.randint(2, 6)
        c = _random_open_collection(rng, size) if rng.random() < 0.7 else _random_collection(rng, size)
        if rng.random() < 0.3:
            c = _reference_shift_objects(c, [rng.randint(-2, 2) for _ in range(size)])
        yield c


def test_mutate_matches_the_make_collection_reference_on_random_walks():
    rng = random.Random(1101)
    counts = {"ok": 0, "error": 0, "resolved": 0, "shifted": 0}
    for start in _start_collections(rng):
        c = start
        for _ in range(14):
            roll = rng.random()
            unknown = [key for key, e in c.table.items() if e is None]
            if unknown and roll < 0.25:
                i, j = rng.choice(unknown)
                dims = _random_resolution(rng, c, i, j)
                got = _outcome(xc.resolve_entry, c, i, j, dims)
                _assert_same(got, _outcome(_reference_resolve_entry, c, i, j, dims))
                if got[0] == "ok":
                    c = got[1]
                    counts["resolved"] += 1
                continue
            if roll < 0.32:
                p = [rng.randint(-1, 2) for _ in range(c.size)]
                got = _outcome(_reference_shift_objects, c, p)
                if got[0] == "ok":
                    c = got[1]
                    counts["shifted"] += 1
                continue
            i = rng.randint(-1, c.size - 1) if rng.random() < 0.1 else rng.randint(0, c.size - 2)
            direction = "up" if rng.random() < 0.03 else rng.choice((xc.LEFT, xc.RIGHT))
            got = _outcome(xc.mutate, c, i, direction)
            _assert_same(got, _outcome(_reference_mutate, c, i, direction))
            counts[got[0]] += 1
            if got[0] == "ok":
                c = got[1]
    # the walks reach every path: results, refusals, resolutions and shifts
    assert all(v > 100 for v in counts.values()), counts


def test_resolve_entry_refuses_like_its_reference():
    m = xc.mutate(_triangle(), 0, xc.RIGHT)
    for i, j, dims in (
        (1, 2, {0: 3}),
        (1, 2, {0: 3, 4: 0}),
        (1, 2, {0: 4}),
        (1, 2, {0: 5, 1: 2}),
        (0, 1, {0: 3}),
        (2, 1, {0: 3}),
        (1, 3, {0: 3}),
    ):
        _assert_same(
            _outcome(xc.resolve_entry, m, i, j, dims),
            _outcome(_reference_resolve_entry, m, i, j, dims),
        )
    # a negative dimension is refused by the table, with the same text
    neg = _basis_collection({(0, 1): None}, ((1, -3), (0, 1)))
    got = _outcome(xc.resolve_entry, neg, 0, 1, {0: -3})
    assert got == ("error", "negative dimension in entry (0,1)")
    _assert_same(got, _outcome(_reference_resolve_entry, neg, 0, 1, {0: -3}))


def test_mutated_tables_share_nothing_a_caller_can_change():
    c = _random_collection(random.Random(7), 5)
    out = xc.mutate(c, 1, xc.RIGHT)
    before, after = list(c.table.items()), list(out.table.items())
    assert any(e is None for _, e in after) and sum(bool(e) for _, e in after) > 3
    for table in (c.table, out.table):
        for key, _ in table.items():
            got = table.entry(*key)
            if got is not None:
                got[99] = 1
    for key, e in out.table.items():
        if e is None:
            chi = out.chi(*key)
            xc.resolve_entry(out, *key, {0: chi} if chi >= 0 else {1: -chi})
        out.table.with_entry(*key, {5: 7})
        out.table.with_entry(*key, None)
    xc.mutate(out, 3, xc.LEFT)
    assert list(c.table.items()) == before
    assert list(out.table.items()) == after


def test_mutation_refuses_a_label_already_in_use():
    c = _basis_collection({(0, 1): {0: 2}}, ((1, 2, 0), (0, 1, 0), (0, 0, 1)))
    objects = list(c.objects)
    objects[2] = replace(objects[2], label="R[E1](E0)")
    clash = xc.make_collection(objects, c.table, c.euler)
    with pytest.raises(ValueError, match="^duplicate labels$"):
        xc.mutate(clash, 0, xc.RIGHT)
    with pytest.raises(ValueError, match="^duplicate labels$"):
        _reference_mutate(clash, 0, xc.RIGHT)
    assert xc.mutate(clash, 0, xc.LEFT).objects[0].label == "L[E0](E1)"
