"""The in-repo linear assignment solver.

``linear_assignment`` must return exactly the ``(rows, cols)`` of
``scipy.optimize.linear_sum_assignment`` on every matrix, ties included, and
refuse exactly the matrices scipy refuses (NaN or -inf entries after the
negation of a maximization, no finite matching), with ``NumericalError``. scipy is the test oracle only: the
pipeline itself must run without importing it.
"""

import math
import os
import random
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linear_sum_assignment

import objassoc
from objassoc.assignment import linear_assignment
from objassoc.errors import InvalidInputError, NumericalError
from objassoc.tracking import FORBIDDEN_COST, solve_assignment

INF = math.inf


def oracle(cost, maximize=False):
    """scipy's (rows, cols) as int lists, or None when scipy refuses."""
    matrix = np.array(cost, dtype=float).reshape(len(cost), len(cost[0]) if cost else 0)
    try:
        rows, cols = linear_sum_assignment(matrix, maximize=maximize)
    except ValueError:
        return None
    return rows.tolist(), cols.tolist()


def solved(cost, maximize=False):
    """linear_assignment's (rows, cols), or None when it refuses."""
    try:
        return linear_assignment(cost, maximize=maximize)
    except NumericalError:
        return None


def optimal_assignment_count(cost):
    """Number of assignments of the smaller side reaching the minimum total."""
    nr, nc = len(cost), len(cost[0])
    if nr > nc:
        cost = [list(column) for column in zip(*cost)]
        nr, nc = nc, nr
    totals = [sum(cost[i][p[i]] for i in range(nr)) for p in permutations(range(nc), nr)]
    return totals.count(min(totals))


@st.composite
def matrices(draw):
    """(cost, maximize) over shapes 0-9 x 0-9 in both orientations."""
    nr = draw(st.integers(0, 9))
    nc = draw(st.integers(0, 9))
    kind = draw(st.sampled_from(["ties", "unit_forbidden", "all_forbidden", "inf", "int_max"]))
    if kind == "ties":
        entry = st.sampled_from([0.0, 1.0, 2.0])
    elif kind == "unit_forbidden":
        entry = st.one_of(
            st.floats(0.0, 1.0, exclude_max=True), st.just(FORBIDDEN_COST)
        )
    elif kind == "all_forbidden":
        entry = st.just(FORBIDDEN_COST)
    elif kind == "inf":
        entry = st.one_of(st.floats(0.0, 1.0, exclude_max=True), st.just(INF))
    else:
        entry = st.integers(0, 4)
    cost = draw(st.lists(st.lists(entry, min_size=nc, max_size=nc), min_size=nr, max_size=nr))
    maximize = kind == "int_max" or (kind == "ties" and draw(st.booleans()))
    return cost, maximize


class TestOracle:
    @settings(max_examples=600, deadline=None)
    @given(matrices())
    def test_equals_scipy_rows_and_columns(self, case):
        cost, maximize = case
        assert solved(cost, maximize) == oracle(cost, maximize)

    def test_seeded_tie_heavy_set_equals_scipy(self):
        rng = random.Random(20160601)
        with_ties = 0
        cases = 400
        for _ in range(cases):
            nr, nc = rng.randint(1, 6), rng.randint(1, 6)
            cost = [[float(rng.choice((0, 1, 2))) for _ in range(nc)] for _ in range(nr)]
            maximize = rng.random() < 0.5
            assert solved(cost, maximize) == oracle(cost, maximize), (cost, maximize)
            signed = [[-x for x in row] for row in cost] if maximize else cost
            with_ties += optimal_assignment_count(signed) > 1
        # the set exercises tie-breaking, not just unique optima
        assert with_ties > cases // 2

    def test_seeded_refusals_match_scipy(self):
        rng = random.Random(7)
        refused = 0
        for _ in range(400):
            nr, nc = rng.randint(1, 5), rng.randint(1, 5)
            pool = (0.25, 0.5, 1.0, INF, INF, -INF, math.nan)
            cost = [[rng.choice(pool) if rng.random() < 0.3 else 0.5 for _ in range(nc)]
                    for _ in range(nr)]
            maximize = rng.random() < 0.3
            expected = oracle(cost, maximize)
            refused += expected is None
            assert solved(cost, maximize) == expected, (cost, maximize)
        assert refused > 50

    def test_arrays_and_lists_agree(self):
        rng = np.random.default_rng(3)
        table = rng.integers(0, 5, size=(7, 4))
        assert linear_assignment(table, maximize=True) == linear_assignment(
            table.tolist(), maximize=True
        )


class TestRefusals:
    @pytest.mark.parametrize("bad", [math.nan, -INF], ids=["nan", "neg_inf"])
    def test_invalid_entry_is_named(self, bad):
        with pytest.raises(NumericalError, match="NaN or -inf"):
            linear_assignment([[0.5, bad], [1.0, 2.0]])

    def test_positive_inf_is_invalid_when_maximizing(self):
        with pytest.raises(NumericalError, match=r"NaN or \+inf entries \(maximizing\)"):
            linear_assignment([[1.0, INF]], maximize=True)
        # and -inf is then merely forbidden
        assert linear_assignment([[-INF, 1.0]], maximize=True) == ([0], [1])

    @pytest.mark.parametrize(
        "cost",
        [
            [[INF, INF]],
            [[INF], [INF], [INF]],
            [[1.0, INF], [2.0, INF]],
            [[0.0, INF], [0.0, INF], [INF, INF]],
        ],
        ids=["one_row", "one_column", "wide", "tall"],
    )
    def test_infeasible_matrix_is_named(self, cost):
        assert oracle(cost) is None
        with pytest.raises(NumericalError, match="infeasible"):
            linear_assignment(cost)

    def test_ragged_rows_rejected(self):
        with pytest.raises(InvalidInputError):
            linear_assignment([[1.0, 2.0], [3.0]])

    def test_tracking_passes_the_refusal_on(self):
        with pytest.raises(NumericalError):
            solve_assignment([[math.nan, 0.5], [0.5, 0.5]])


class TestShapes:
    @pytest.mark.parametrize(
        "cost", [[], [[], []], np.zeros((0, 4)), np.zeros((3, 0))], ids=["0x0", "2x0", "0x4", "3x0"]
    )
    def test_empty_shapes_assign_nothing(self, cost):
        assert linear_assignment(cost) == ([], [])
        assert linear_assignment(cost, maximize=True) == ([], [])

    def test_one_row_tie_goes_to_the_first_index(self):
        assert linear_assignment([[2.0, 0.5, 0.5, 0.5]]) == ([0], [1])
        assert linear_assignment([[0.0, -0.0]]) == ([0], [0])
        assert linear_assignment([[1, 3, 3]], maximize=True) == ([0], [1])

    def test_one_column_tie_goes_to_the_first_index(self):
        assert linear_assignment([[3.0], [1.0], [1.0]]) == ([1], [0])
        assert linear_assignment([[INF], [FORBIDDEN_COST], [FORBIDDEN_COST]]) == ([1], [0])

    def test_constant_square_matrix_gives_identity(self):
        assert linear_assignment([[1.0] * 5 for _ in range(5)]) == ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4])

    def test_tall_matrix_rows_ascend(self):
        rows, cols = linear_assignment([[5.0, 0.0], [0.0, 5.0], [1.0, 1.0]])
        assert (rows, cols) == ([0, 1], [1, 0])

    def test_returns_plain_ints(self):
        rows, cols = linear_assignment(np.eye(3))
        assert all(type(x) is int for x in rows + cols)


def test_pipeline_runs_without_importing_scipy():
    code = (
        "import sys\n"
        "from dataclasses import replace\n"
        "import objassoc.cli\n"
        "from objassoc.association import run_association\n"
        "from objassoc.config import RunConfig\n"
        "from objassoc.metrics import evaluate\n"
        "from objassoc.synth import generate, preset\n"
        "config = RunConfig()\n"
        "dataset = generate(replace(preset('aisle_quick'), seed=0))\n"
        "result = run_association(\n"
        "    dataset.keyframes, group_size=config.group_size,\n"
        "    group_overlap=config.group_overlap, tracker_params=config.tracker_params(),\n"
        "    assoc_params=config.assoc_params(), base_cov=config.base_cov(),\n"
        "    refine_params=config.refine_params())\n"
        "report = evaluate(result.landmarks, result.assignments, dataset)\n"
        "assert report.association_accuracy > 0.0\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    paths = (str(Path(objassoc.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH"))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, env=env
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"
