"""Minimum-cost one-to-one assignment on a rectangular matrix.

Kuhn's Hungarian method in the shortest-augmenting-path form of Crouse,
"On implementing 2D rectangular assignment algorithms" (IEEE TAES 2016),
ported step for step from the solver behind
``scipy.optimize.linear_sum_assignment``. A tall matrix is transposed, a
maximisation is negated, columns are scanned in reverse order, ties go to
an unassigned column and the duals are updated with the same adds and
subtracts in the same order, so the result is scipy's ``(rows, cols)`` on
every matrix, ties included. The first row is placed without the loop: with
every column free and every dual at zero, the loop takes the first index of
its minimum, so a one-row (or, transposed, one-column) matrix costs one
``min``.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import InvalidInputError, NumericalError

_INF = math.inf
_INFEASIBLE = "cost matrix is infeasible: no finite matching"


def linear_assignment(
    cost: Sequence[Sequence[float]], maximize: bool = False
) -> tuple[list[int], list[int]]:
    """Rows and columns of an optimal assignment of ``cost``, rows ascending.

    Every row of a wide matrix (every column of a tall one) is assigned.
    +inf marks a forbidden pair (-inf when maximizing); a NaN entry, a -inf
    entry (+inf when maximizing) or a matrix with no finite matching raises
    ``NumericalError``.
    """
    matrix = []
    for values in cost:
        row = [-float(x) for x in values] if maximize else [float(x) for x in values]
        for x in row:
            if x != x or x == -_INF:
                bad = "+inf entries (maximizing)" if maximize else "-inf entries"
                raise NumericalError(f"cost matrix contains NaN or {bad}")
        matrix.append(row)
    nr = len(matrix)
    nc = len(matrix[0]) if nr else 0
    for row in matrix:
        if len(row) != nc:
            raise InvalidInputError("cost matrix rows must all have the same length")
    if nr == 0 or nc == 0:
        return [], []
    transpose = nc < nr
    if transpose:
        matrix = [list(column) for column in zip(*matrix)]
        nr, nc = nc, nr
    col4row = _shortest_augmenting_paths(matrix, nr, nc)
    if transpose:
        order = sorted(range(nr), key=col4row.__getitem__)
        return [col4row[j] for j in order], order
    return list(range(nr)), col4row


def _shortest_augmenting_paths(matrix: list[list[float]], nr: int, nc: int) -> list[int]:
    """Column of each row for a wide (nr <= nc) matrix without NaN or -inf."""
    # The first row meets only free columns and zero duals: the loop below
    # would take the first index of its minimum and leave every v at 0 (its
    # r = 0 + c - 0 - 0 is c up to the sign of a zero, which no test sees).
    lowest = min(matrix[0])
    if lowest == _INF:
        raise NumericalError(_INFEASIBLE)
    first = matrix[0].index(lowest)
    if nr == 1:
        return [first]
    u = [0.0] * nr
    u[0] += lowest
    v = [0.0] * nc
    path = [-1] * nc
    col4row = [-1] * nr
    row4col = [-1] * nc
    col4row[0] = first
    row4col[first] = 0
    for cur_row in range(1, nr):
        # Filled in reverse, so a constant matrix gives the identity matching.
        remaining = list(range(nc - 1, -1, -1))
        shortest = [_INF] * nc
        rows_seen: list[int] = []
        cols_seen: list[int] = []
        min_val = 0.0
        i = cur_row
        while True:
            index = -1
            lowest = _INF
            row = matrix[i]
            u_i = u[i]
            for it, j in enumerate(remaining):
                r = min_val + row[j] - u_i - v[j]
                s = shortest[j]
                if r < s:
                    path[j] = i
                    shortest[j] = s = r
                # Among equal costs prefer a free column: it ends the path.
                if s < lowest or (s == lowest and row4col[j] == -1):
                    lowest = s
                    index = it
            min_val = lowest
            if min_val == _INF:
                raise NumericalError(_INFEASIBLE)
            j = remaining[index]
            cols_seen.append(j)
            remaining[index] = remaining[-1]
            remaining.pop()
            if row4col[j] == -1:
                break
            i = row4col[j]
            rows_seen.append(i)

        # Each dual moves on its own, so visiting order does not change a bit.
        u[cur_row] += min_val
        for i in rows_seen:
            u[i] += min_val - shortest[col4row[i]]
        for j in cols_seen:
            v[j] -= min_val - shortest[j]

        while True:
            i = path[j]
            row4col[j] = i
            col4row[i], j = j, col4row[i]
            if i == cur_row:
                break
    return col4row
