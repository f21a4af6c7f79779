"""Exceptional collections with graded Hom tables and mutations.

A collection stores objects (label, lattice class, presentation shift), a
graded Hom table for forward pairs, and the Euler pairing of the ambient
lattice.  Tables track exactness per entry: after a mutation an entry is
either forced by the long-exact-sequence degree bound together with the
Euler pairing, or it is marked unknown (None) until resolved from outside.

Left and right mutation share one construction: one object of the pair is
kept and moves past the other, which is replaced by the cone, up to shift,
of the universal map between them.  The two directions differ only in which
object is kept and in the sign of the degree bounds, since a left mutation
is a right mutation in the opposite category (Bondal 1989).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

from .klattice import EulerMatrix, euler_pair

LEFT = "left"
RIGHT = "right"

KClass = tuple[int, ...]


@dataclass(frozen=True)
class ExcObject:
    """One exceptional object, known by its label and lattice class.

    `shift` records how the object relates to a module-category model: the
    object is a module placed in homological degree `-shift`, so its class
    carries the sign (-1)**shift of the module's class.
    """

    label: str
    kclass: KClass
    shift: int = 0


def chi_of_entry(entry: dict[int, int]) -> int:
    # the parity test keeps the sum an int for negative degrees too
    return sum(-d if k % 2 else d for k, d in entry.items())


def _store(entries: dict, i: int, j: int, e: dict[int, int] | None) -> None:
    """Put the cleaned entry e at (i, j): zero dimensions dropped, an empty
    entry left out, a negative dimension refused."""
    if e is None:
        entries[(i, j)] = None
        return
    clean = {k: d for k, d in ((int(k), int(d)) for k, d in e.items()) if d != 0}
    if any(d < 0 for d in clean.values()):
        raise ValueError(f"negative dimension in entry ({i},{j})")
    if clean:
        entries[(i, j)] = clean


class HomTable:
    """Graded forward-Hom dimensions for an ordered collection.

    entries maps (i, j) with i < j to {degree: dim} or to None (unknown).
    A missing key means a known empty entry.
    """

    def __init__(self, size: int, entries: dict[tuple[int, int], dict[int, int] | None] | None = None):
        if size < 1:
            raise ValueError("table needs at least one object")
        self.size = size
        self._entries: dict[tuple[int, int], dict[int, int] | None] = {}
        for (i, j), e in (entries or {}).items():
            if not (0 <= i < j < size):
                raise ValueError(f"bad table key ({i},{j})")
            _store(self._entries, i, j, e)

    @classmethod
    def _of_clean(cls, size: int, entries: dict[tuple[int, int], dict[int, int] | None]) -> HomTable:
        """A table over entries that are already clean: valid keys, each value
        None or a nonempty dict of positive dimensions.  The dicts are stored,
        not copied; no table ever changes a stored dict, so tables share them."""
        table = cls.__new__(cls)
        table.size = size
        table._entries = entries
        return table

    def _check(self, i: int, j: int) -> None:
        if not (0 <= i < j < self.size):
            raise ValueError(f"bad pair ({i},{j})")

    def entry(self, i: int, j: int) -> dict[int, int] | None:
        self._check(i, j)
        e = self._entries.get((i, j), {})
        return dict(e) if e is not None else None

    def support(self, i: int, j: int) -> frozenset[int] | None:
        e = self.entry(i, j)
        return None if e is None else frozenset(e)

    def min_degree(self, i: int, j: int) -> float:
        """Minimal nonzero degree; +inf for an empty entry."""
        e = self.entry(i, j)
        if e is None:
            raise ValueError(f"entry ({i},{j}) is unknown")
        return min(e) if e else math.inf

    def has_unknown(self) -> bool:
        return any(e is None for e in self._entries.values())

    def items(self):
        for i in range(self.size):
            for j in range(i + 1, self.size):
                yield (i, j), self.entry(i, j)

    def with_entry(self, i: int, j: int, e: dict[int, int] | None) -> HomTable:
        self._check(i, j)
        new = dict(self._entries)
        new.pop((i, j), None)
        _store(new, i, j, e)
        return HomTable._of_clean(self.size, new)

    def __eq__(self, other) -> bool:
        if not isinstance(other, HomTable):
            return NotImplemented
        if self.size != other.size:
            return False
        return all(self.entry(i, j) == other.entry(i, j) for (i, j), _ in self.items())

    def __repr__(self) -> str:
        parts = [f"({i},{j}):{'?' if e is None else e}" for (i, j), e in self.items() if e is None or e]
        return f"HomTable({self.size}, {', '.join(parts)})"


@dataclass(frozen=True)
class ExcCollection:
    """A valid exceptional collection with its Hom table.

    Invariants: labels are distinct; every class has length euler.rank and
    chi(E_i, E_i) = 1; every backward pairing chi(E_j, E_i), j > i, is 0;
    every exact entry (i, j) sums to chi(E_i, E_j).  `make_collection`
    checks them on outside input.  `mutate` and `resolve_entry` build their
    results directly, since each keeps them by theory (see `mutate` for the
    three-line proof; Gorodentsev and Rudakov 1987; Bondal 1990).  No
    shifted collection is built: the chart layer reads a shift p off the
    table, as the degree k + p_i - p_j of entry (i, j).
    """

    objects: tuple[ExcObject, ...]
    table: HomTable
    euler: EulerMatrix

    @property
    def size(self) -> int:
        return len(self.objects)

    def kclass(self, i: int) -> KClass:
        return self.objects[i].kclass

    def chi(self, i: int, j: int) -> int:
        return euler_pair(self.euler, self.kclass(i), self.kclass(j))


def make_collection(objects, table: HomTable, euler: EulerMatrix) -> ExcCollection:
    objects = tuple(objects)
    if not objects:
        raise ValueError("empty collection")
    if table.size != len(objects):
        raise ValueError("table size mismatch")
    labels = [o.label for o in objects]
    if len(set(labels)) != len(labels):
        raise ValueError("duplicate labels")
    for o in objects:
        if len(o.kclass) != euler.rank:
            raise ValueError("class length does not match the lattice rank")
        if euler_pair(euler, o.kclass, o.kclass) != 1:
            raise ValueError(f"class of {o.label} is not exceptional")
    n = len(objects)
    for i in range(n):
        for j in range(i + 1, n):
            back = euler_pair(euler, objects[j].kclass, objects[i].kclass)
            if back != 0:
                raise ValueError(f"backward pairing ({j},{i}) is {back}, not 0")
            e = table.entry(i, j)
            if e is not None:
                chi = euler_pair(euler, objects[i].kclass, objects[j].kclass)
                if chi_of_entry(e) != chi:
                    raise ValueError(
                        f"entry ({i},{j}) sums to {chi_of_entry(e)} but the pairing gives {chi}"
                    )
    return ExcCollection(objects, table, euler)


def _entry_from_bound(dset: set[int], chi: int, where: str) -> dict[int, int] | None:
    """Resolve an entry from its possible-degree set and its Euler number.

    With the Euler number read off the entries the set is built from, as
    `mutate` does, neither check below can fail; they guard that argument.
    """
    if not dset:
        if chi != 0:
            raise ValueError(f"entry {where}: no degrees allowed but pairing is {chi}")
        return {}
    if len(dset) == 1:
        (k0,) = dset
        d = -chi if k0 % 2 else chi
        if d < 0:
            raise ValueError(f"entry {where}: forced dimension {d} is negative")
        return {k0: d} if d else {}
    return None


def mutate(c: ExcCollection, i: int, direction: str) -> ExcCollection:
    """Mutate the adjacent pair (E, F) = (E_i, E_{i+1}).

    The kept object K moves past the mutated object M and M becomes N.
    Left mutation keeps E, giving (L[E](F), E); right mutation keeps F,
    giving (F, R[F](E)).  N has class chi(E, F) K - M.  With s = +1 for
    left and -1 for right and S the degrees of Hom(E, F), the triangle
    relating K, M and N bounds the degrees of N against every other object:
    Hom(X, N) lies in (Hom(X, K) + sS) | (Hom(X, M) + s) and Hom(N, Y) in
    (Hom(K, Y) - sS) | (Hom(M, Y) - s).

    The result is built directly, without a `make_collection` pass: a
    mutation keeps every invariant that pass checks (Gorodentsev and
    Rudakov, Duke Math. J. 1987; Bondal, Math. USSR Izv. 1990).  With
    chi = chi(E, F), so chi(K, M) + chi(M, K) = chi:
      chi(N, N) = chi^2 - chi*chi + 1 = 1;
      N's backward pairings are chi*0 - 0 = 0, and K's against N is
      chi - chi = 0;
      every copied entry keeps its Euler sum, the negated pair entry sums
      to chi, the pairing of the new pair, and each entry of N is forced
      by its own pairing.
    Only the new label can break the collection, so it alone is checked.
    Entries away from positions i and i + 1 are shared with c's table, and
    each pairing of N is read off two exact entries, chi(X, N) =
    chi * chi(X, K) - chi(X, M), so no Euler form is evaluated.
    """
    n = c.size
    if not (0 <= i < n - 1):
        raise ValueError(f"no adjacent pair at {i}")
    if direction == LEFT:
        kp, mp, s, letter = i, i + 1, 1, "L"
    elif direction == RIGHT:
        kp, mp, s, letter = i + 1, i, -1, "R"
    else:
        raise ValueError(f"unknown direction {direction!r}")
    src = c.table._entries
    pair = src.get((i, i + 1), {})
    if pair is None:
        raise ValueError(f"cannot mutate: entry ({i},{i + 1}) is unknown")

    k_obj, m_obj = c.objects[kp], c.objects[mp]
    chi = chi_of_entry(pair)
    new_class = tuple(chi * a - b for a, b in zip(k_obj.kclass, m_obj.kclass))
    label = f"{letter}[{k_obj.label}]({m_obj.label})"
    objects = list(c.objects)
    # K takes M's position and N takes K's
    objects[mp] = k_obj
    objects[kp] = ExcObject(label, new_class)
    entries = {(a, b): e for (a, b), e in src.items() if a not in (i, i + 1) and b not in (i, i + 1)}
    if pair:
        entries[(i, i + 1)] = {-k: d for k, d in pair.items()}
    for j in range(n):
        if j in (i, i + 1):
            continue
        # jk keys X_j against position kp (K before, N after), jm against
        # mp (M before, K after); t is s for Hom(X_j, N), -s for Hom(N, X_j)
        jk, jm, t = ((j, kp), (j, mp), s) if j < i else ((kp, j), (mp, j), -s)
        k_entry, m_entry = src.get(jk, {}), src.get(jm, {})
        if jk in src:
            entries[jm] = k_entry
        if k_entry is None or m_entry is None:
            entries[jk] = None
            continue
        dset = {a + t * k for a in k_entry for k in pair} | {b + t for b in m_entry}
        # the pairing of X_j with N is chi times its pairing with K less its
        # pairing with M, and exact entries sum to their pairings
        pairing = chi * chi_of_entry(k_entry) - chi_of_entry(m_entry)
        e = _entry_from_bound(dset, pairing, f"({jk[0]},{jk[1]})")
        if e != {}:
            entries[jk] = e

    # M's label is part of the new one, so only the others can clash
    if any(o.label == label for o in c.objects):
        raise ValueError("duplicate labels")
    return ExcCollection(tuple(objects), HomTable._of_clean(n, entries), c.euler)


def resolve_entry(c: ExcCollection, i: int, j: int, dims: dict[int, int]) -> ExcCollection:
    """Replace an unknown entry with externally supplied graded dimensions.

    Only the resolved entry changes, and its Euler sum is checked here, so
    the result is a valid collection without a `make_collection` pass."""
    if c.table.entry(i, j) is not None:
        raise ValueError(f"entry ({i},{j}) is already exact")
    chi = c.chi(i, j)
    if chi_of_entry(dims) != chi:
        raise ValueError(f"resolved entry ({i},{j}) sums to {chi_of_entry(dims)}, pairing gives {chi}")
    return ExcCollection(c.objects, c.table.with_entry(i, j, dims), c.euler)


@dataclass(frozen=True)
class CollectionFlags:
    strong: bool
    ext: bool
    regular: bool
    orthogonal: bool


def classify(c: ExcCollection) -> CollectionFlags:
    strong = ext = regular = orthogonal = True
    for (i, j), e in c.table.items():
        if e is None:
            raise ValueError(f"cannot classify: entry ({i},{j}) is unknown")
        if e:
            orthogonal = False
        if any(k != 0 for k in e):
            strong = False
        if any(k < 1 for k in e):
            ext = False
        if len(e) > 1:
            regular = False
    return CollectionFlags(strong=strong, ext=ext, regular=regular, orthogonal=orthogonal)


# -- serialization ---------------------------------------------------------


def collection_to_data(c: ExcCollection) -> dict:
    table = {}
    for (i, j), e in c.table.items():
        if e is None:
            table[f"{i},{j}"] = None
        elif e:
            table[f"{i},{j}"] = {str(k): d for k, d in sorted(e.items())}
    return {
        "labels": [o.label for o in c.objects],
        "classes": [list(o.kclass) for o in c.objects],
        "shifts": [o.shift for o in c.objects],
        "euler": [list(row) for row in c.euler.entries],
        "table": table,
    }


def _derive_euler(classes: list[KClass], table: HomTable) -> EulerMatrix:
    """Gram matrix from the table when the classes form a unimodular basis."""
    from . import _linalg

    n = len(classes)
    if any(len(cl) != n for cl in classes):
        raise ValueError("euler matrix required: classes do not form a square basis")
    cmat = _linalg.frac_matrix([[classes[j][r] for j in range(n)] for r in range(n)])
    cinv = _linalg.frac_inverse(cmat)
    if cinv is None:
        raise ValueError("euler matrix required: classes are not a basis")
    u = [[0] * n for _ in range(n)]
    for i in range(n):
        u[i][i] = 1
        for j in range(i + 1, n):
            e = table.entry(i, j)
            if e is None:
                raise ValueError("euler matrix required: table has unknown entries")
            u[i][j] = chi_of_entry(e)
    m = _linalg.frac_matmul(
        _linalg.frac_matmul([list(row) for row in zip(*cinv)], _linalg.frac_matrix(u)), cinv
    )
    entries = []
    for row in m:
        out_row = []
        for x in row:
            if x.denominator != 1:
                raise ValueError("derived pairing is not integral")
            out_row.append(int(x))
        entries.append(tuple(out_row))
    return EulerMatrix(tuple(entries))


def _field(name: str, value, read):
    """read(value), with a JSON value of the wrong shape refused by its field name."""
    try:
        return read(value)
    except (TypeError, AttributeError) as exc:
        raise ValueError(f"malformed {name!r} field: {exc}") from None


def _json_int(value) -> int:
    """value when it is a JSON integer; a float, bool or string is refused, not truncated."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{value!r} is not an integer")
    return value


_KEY_INT = re.compile(r"0|-?[1-9][0-9]*")


def _key_int(text: str) -> int:
    """The number in a table key, spelled as `str` spells an int.

    One spelling per integer, so no two keys of a table or an entry can
    name the same pair or degree.
    """
    if not _KEY_INT.fullmatch(text):
        raise TypeError(f"{text!r} is not a plain integer")
    return int(text)


def _pair_key(text: str) -> tuple[int, int]:
    """The pair (i, j) of a table key "i,j"."""
    parts = text.split(",")
    if len(parts) != 2:
        raise TypeError(f"{text!r} is not a pair of integers")
    return _key_int(parts[0]), _key_int(parts[1])


def _entry_from_data(e):
    return None if e is None else {_key_int(k): _json_int(d) for k, d in e.items()}


def _json_labels(value) -> list[str]:
    """value when it is a JSON list of strings; a string is refused, not split into characters."""
    if not isinstance(value, list) or not all(isinstance(x, str) for x in value):
        raise TypeError(f"{value!r} is not a list of strings")
    return value


def collection_from_data(data: dict, table: HomTable | None = None) -> ExcCollection:
    labels = _field("labels", data["labels"], _json_labels)
    classes = _field("classes", data["classes"], lambda v: [tuple(map(_json_int, c)) for c in v])
    shifts = _field("shifts", data.get("shifts", [0] * len(labels)), lambda v: list(map(_json_int, v)))
    for name, values in (("classes", classes), ("shifts", shifts)):
        if len(values) != len(labels):
            raise ValueError(f"malformed {name!r} field: {len(values)} entries for {len(labels)} labels")
    if table is None:
        # HomTable drops zero dimensions and refuses keys out of order or range
        table = _field(
            "table",
            data.get("table") or {},
            lambda t: HomTable(len(labels), {_pair_key(k): _entry_from_data(e) for k, e in t.items()}),
        )
    if data.get("euler") is not None:
        euler = _field("euler", data["euler"], lambda v: EulerMatrix([list(map(_json_int, r)) for r in v]))
    else:
        euler = _derive_euler(classes, table)
    objects = [ExcObject(lab, cl, sh) for lab, cl, sh in zip(labels, classes, shifts)]
    return make_collection(objects, table, euler)
