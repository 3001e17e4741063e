"""Product state spaces, sparse nonnegative integer tables, and moves.

States are 1-based coordinate tuples; cell i of a space is its i-th state
in lexicographic order.  `state_index` is the one state -> cell lookup and
the one place a state outside its space is refused.  A Table maps states
to positive counts and is immutable, hashable and totally ordered, so
tables can be used directly as set members and dict keys during fiber
searches; it checks its counts, and its states meet their space through
`state_index`.  A Move is a pair of disjointly supported tables of equal
degree; applying it subtracts the negative part and adds the positive part.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Union

from .errors import InvalidMoveError, InvalidStateError, MoveNotApplicableError, TooLargeError

State = tuple[int, ...]


# The most cells a state space may have.  Margin maps, packed tables and
# move sets all take time and memory that grow with the cells, so a larger
# space is refused where it is made.  The largest model any command or test
# uses has 1,024 cells (a 5-cycle at four levels).
MAX_CELLS = 1 << 16


@dataclass(frozen=True)
class StateSpace:
    """Levels d_v >= 2, one per vertex; the cells are prod([d_v])."""

    levels: tuple[int, ...]

    def __post_init__(self):
        if not self.levels:
            raise InvalidStateError("state space needs at least one vertex")
        if any(not isinstance(d, int) or d < 2 for d in self.levels):
            raise InvalidStateError(f"every level must be an integer >= 2, got {self.levels}")
        object.__setattr__(self, "levels", tuple(self.levels))
        if self.total_cells > MAX_CELLS:
            raise TooLargeError(f"{self.total_cells} cells exceed the cap of {MAX_CELLS}")

    @property
    def n_vertices(self) -> int:
        return len(self.levels)

    @property
    def total_cells(self) -> int:
        n = 1
        for d in self.levels:
            n *= d
        return n

    def check_state(self, x: State) -> None:
        if len(x) != len(self.levels):
            raise InvalidStateError(f"state {x} has arity {len(x)}, expected {len(self.levels)}")
        for v, (c, d) in enumerate(zip(x, self.levels), start=1):
            if not isinstance(c, int) or not 1 <= c <= d:
                raise InvalidStateError(f"coordinate {v} of state {x} outside 1..{d}")

    def states(self) -> Iterator[State]:
        """All states in index order (last coordinate fastest)."""
        return iter(self.states_by_index)

    @cached_property
    def states_by_index(self) -> tuple[State, ...]:
        """All states in index order, built once; index order is lexicographic."""
        return tuple(itertools.product(*(range(1, d + 1) for d in self.levels)))

    @cached_property
    def index_by_state(self) -> dict[State, int]:
        """The inverse of `states_by_index`, built once."""
        return {x: i for i, x in enumerate(self.states_by_index)}


def state_index(x: State, space: StateSpace) -> int:
    """The position of a state in `space.states_by_index`.  A state the space
    lacks raises InvalidStateError; a coordinate equal to an int (1.0, True)
    finds that int's cell."""
    try:
        return space.index_by_state[x]
    except (KeyError, TypeError):
        space.check_state(x)  # raises: no state of the space was found
        raise


class Table:
    """Immutable sparse table: states with positive integer counts."""

    __slots__ = ("_cells", "_degree", "_hash")

    def __init__(self, cells: Union[Mapping[State, int], Iterable[tuple[State, int]]] = ()):
        if isinstance(cells, Mapping):
            items = cells.items()
        else:
            items = list(cells)
        merged: dict[State, int] = {}
        for state, count in items:
            state = tuple(state)
            if not isinstance(count, int) or count < 0:
                raise InvalidStateError(f"count for {state} must be a nonnegative integer")
            if count:
                merged[state] = merged.get(state, 0) + count
        canon = tuple(sorted(merged.items()))
        object.__setattr__(self, "_cells", canon)
        object.__setattr__(self, "_degree", sum(c for _, c in canon))
        object.__setattr__(self, "_hash", hash(canon))

    def __setattr__(self, name, value):
        raise AttributeError("Table is immutable")

    @classmethod
    def _trusted(cls, cells: tuple[tuple[State, int], ...]) -> "Table":
        """A table from cells its caller built: sorted distinct state tuples
        with positive int counts.  Nothing is checked or merged."""
        t = object.__new__(cls)
        object.__setattr__(t, "_cells", cells)
        object.__setattr__(t, "_degree", sum(c for _, c in cells))
        object.__setattr__(t, "_hash", hash(cells))
        return t

    @property
    def degree(self) -> int:
        return self._degree

    @property
    def support(self) -> tuple[State, ...]:
        return tuple(s for s, _ in self._cells)

    def items(self) -> tuple[tuple[State, int], ...]:
        return self._cells

    def __bool__(self) -> bool:
        return bool(self._cells)

    def __len__(self) -> int:
        return len(self._cells)

    def __eq__(self, other) -> bool:
        return isinstance(other, Table) and self._cells == other._cells

    def __lt__(self, other: "Table") -> bool:
        return self._cells < other._cells

    def __le__(self, other: "Table") -> bool:
        return self._cells <= other._cells

    def __hash__(self) -> int:
        return self._hash

    def __add__(self, other: "Table") -> "Table":
        counts = dict(self._cells)
        for s, c in other._cells:
            counts[s] = counts.get(s, 0) + c
        return Table(counts)

    def scale(self, k: int) -> "Table":
        if k < 0:
            raise InvalidStateError("scale factor must be nonnegative")
        return Table({s: k * c for s, c in self._cells})

    def dominates(self, other: "Table") -> bool:
        """Entrywise self >= other."""
        counts = dict(self._cells)
        return all(counts.get(s, 0) >= c for s, c in other._cells)

    def __repr__(self) -> str:
        body = ", ".join(f"{''.join(map(str, s))}:{c}" for s, c in self._cells)
        return f"Table({{{body}}})"


class Move:
    """A reversible move: add `plus`, remove `minus`; disjoint supports, equal degree."""

    __slots__ = ("plus", "minus")

    def __init__(self, plus: Table, minus: Table):
        if plus.degree != minus.degree:
            raise InvalidMoveError(f"degree mismatch: {plus.degree} vs {minus.degree}")
        if not plus:
            raise InvalidMoveError("empty move")
        if set(plus.support) & set(minus.support):
            raise InvalidMoveError("plus and minus overlap; not a minimal support decomposition")
        object.__setattr__(self, "plus", plus)
        object.__setattr__(self, "minus", minus)

    def __setattr__(self, name, value):
        raise AttributeError("Move is immutable")

    @property
    def degree(self) -> int:
        return self.plus.degree

    def reverse(self) -> "Move":
        return Move(self.minus, self.plus)

    def canonical(self) -> "Move":
        """Orient so the smallest cell overall sits in the plus part."""
        return self if self.plus._cells[0][0] < self.minus._cells[0][0] else self.reverse()

    def key(self):
        c = self.canonical()
        return (c.plus.items(), c.minus.items())

    def __eq__(self, other) -> bool:
        return isinstance(other, Move) and self.plus == other.plus and self.minus == other.minus

    def __hash__(self) -> int:
        return hash((self.plus, self.minus))

    def __repr__(self) -> str:
        return f"Move(+{self.plus!r} -{self.minus!r})"


def apply_move(t: Table, m: Move) -> Table:
    """t - minus + plus; raises MoveNotApplicableError when minus exceeds t somewhere."""
    counts = dict(t.items())
    for s, c in m.minus.items():
        have = counts.get(s, 0)
        if have < c:
            raise MoveNotApplicableError(f"cell {s}: need {c}, have {have}")
        if have == c:
            del counts[s]
        else:
            counts[s] = have - c
    for s, c in m.plus.items():
        counts[s] = counts.get(s, 0) + c
    return Table(counts)
