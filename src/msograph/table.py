"""Relation tables over the vertices of one graph, stored as rows of
bitmasks: for each tuple of the leading arguments, the bitmask of the
last one.  ``plans.Binding.tabulate`` makes them, with rows that fill
on first read, and ``logic.materialize`` returns them full."""

from __future__ import annotations

from collections.abc import Set as AbstractSet
from typing import Iterator, Optional


def bits(m: int) -> Iterator[int]:
    """The vertices of a bitmask, in increasing order."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def transpose(rows: list[int]) -> list[int]:
    """The columns of a square matrix of bit rows: bit p of column q is
    bit q of row p."""
    cols = [0] * len(rows)
    for p, m in enumerate(rows):
        bit = 1 << p
        while m:
            low = m & -m
            cols[low.bit_length() - 1] |= bit
            m ^= low
    return cols


def _column(rows, depth: int, i: int):
    """Rows nested depth levels deep with level i moved to the leaves:
    nested lists indexed by the other levels, in order, whose leaves are
    bitmasks of the index at level i."""
    if i:
        return [_column(r, depth - 1, i - 1) for r in rows]
    if depth == 1:
        return transpose(rows)
    return [_column([r[b] for r in rows], depth - 1, 0)
            for b in range(len(rows))]


class LazyRows(dict):
    """Rows that fill on first read: the row at v is fn(*prefix, v), made
    when first subscripted and kept; above the last of depth levels, the
    rows of the tuples that start with prefix and v.  A hit is a plain
    dict subscript."""

    __slots__ = ("fn", "depth", "prefix")

    def __init__(self, fn, depth: int, prefix: tuple[int, ...] = ()):
        self.fn = fn
        self.depth = depth
        self.prefix = prefix

    def __missing__(self, v: int):
        if self.depth == 1:
            row = self.fn(*self.prefix, v)
        else:
            row = LazyRows(self.fn, self.depth - 1, (*self.prefix, v))
        self[v] = row
        return row


def _filled(rows, n: int, depth: int):
    """rows as nested lists, the rows not read yet made in index order."""
    if not isinstance(rows, LazyRows):
        return rows
    if depth == 1:
        return [rows[v] for v in range(n)]
    return [_filled(rows[v], n, depth - 1) for v in range(n)]


def _count(rows, depth: int) -> int:
    if depth <= 0:
        return rows.bit_count()
    return sum(_count(r, depth - 1) for r in rows)


class Table(AbstractSet):
    """A relation over the vertices 0..n-1 of one graph, stored as rows:
    nested lists indexed by the leading arity-1 arguments whose leaves
    are bitmasks of the last argument (for arity 0, 1 if the empty tuple
    holds).  The rows may be ``LazyRows``, which fill on first read;
    every reader other than ``rows`` at the last position fills them
    all first, in index order, and keeps them as nested lists.  As a
    set it holds the tuples themselves: it compares equal to the plain
    set of them, ``len`` counts them and ``|``, ``&`` and ``-`` return
    frozensets."""

    def __init__(self, n: int, arity: int, rows):
        self.n = n
        self.arity = arity
        self._rows = rows
        self._by_position: dict[int, object] = {}
        self._len: Optional[int] = None

    def fill(self) -> "Table":
        """The table with every row made, in index order."""
        self._rows = _filled(self._rows, self.n, self.arity - 1)
        return self

    @classmethod
    def _from_iterable(cls, it):
        return frozenset(it)

    def rows(self, position: int):
        """The rows over one argument position: nested lists indexed by
        the arguments at the other positions, in order, whose leaves are
        bitmasks of the argument at position.  At the last position they
        are the table's own rows, lazy or not; another position fills the
        table and is transposed once, here."""
        if position == self.arity - 1:
            return self._rows
        got = self._by_position.get(position)
        if got is None:
            got = self._by_position[position] = _column(
                self.fill()._rows, self.arity - 1, position)
        return got

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        self.fill()
        if self.arity == 0:
            if self._rows:
                yield ()
            return

        def walk(rows, prefix):
            if len(prefix) == self.arity - 1:
                for v in bits(rows):
                    yield prefix + (v,)
            else:
                for i, sub in enumerate(rows):
                    yield from walk(sub, prefix + (i,))
        yield from walk(self._rows, ())

    def __len__(self) -> int:
        if self._len is None:
            self.fill()
            self._len = _count(self._rows, self.arity - 1)
        return self._len

    def __contains__(self, t) -> bool:
        if not (isinstance(t, tuple) and len(t) == self.arity and
                all(isinstance(v, int) and 0 <= v < self.n for v in t)):
            return False
        if not t:
            return bool(self._rows)
        node = self.fill()._rows
        for v in t[:-1]:
            node = node[v]
        return bool((node >> t[-1]) & 1)

    def __repr__(self) -> str:
        return f"Table({sorted(self)!r})"
