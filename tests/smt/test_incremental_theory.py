"""Tests of the incremental DPLL(T) theory engine and the OMT on top of it.

The engine keeps one warm-started simplex and retracts bounds between
checks.  The random-problem tests compare :class:`Optimize` against a
brute-force oracle that enumerates every Boolean assignment and solves
each skeleton's linear program with a fresh :class:`Simplex`: no SAT
core, no bound retraction, no strengthening rounds.
"""

import itertools
import random
from fractions import Fraction

import pytest

from repro.smt import (
    Bool,
    CheckResult,
    Implies,
    Not,
    Optimize,
    Or,
    Real,
    RealVal,
    SmtSolver,
)
from repro.smt.rational import DeltaRational
from repro.smt.simplex import Simplex


def random_omt_problem(seed: int):
    """A random guarded-scheduling OMT instance: maximize the sum of reals.

    Each real lies in [0, 10].  A guard ``(b, x, bound)`` with ``bound`` in
    0..8 asserts ``b -> x <= bound`` and ``not b -> x >= 10 - bound``;
    ``(x, y, gap)`` pairs assert ``x + gap <= y + 10``; one Boolean is forced.
    Returns the instance as plain data for :func:`build` and :func:`oracle`.
    """
    rng = random.Random(seed)
    num_reals = rng.randint(2, 4)
    num_bools = rng.randint(1, 3)
    guards = [(rng.randrange(num_bools), rng.randrange(num_reals), rng.randint(0, 8))
              for _ in range(rng.randint(2, 6))]
    pairs = [(rng.randrange(num_reals), rng.randrange(num_reals), rng.randint(-5, 5))
             for _ in range(rng.randint(1, 4))]
    pairs = [(first, second, gap) for first, second, gap in pairs if first != second]
    return num_reals, num_bools, guards, pairs, rng.randrange(num_bools)


def build(problem, opt: Optimize):
    num_reals, num_bools, guards, pairs, force = problem
    xs = [Real(f"x{i}") for i in range(num_reals)]
    bs = [Bool(f"b{i}") for i in range(num_bools)]
    for x in xs:
        opt.add(x >= RealVal(0), x <= RealVal(10))
    for bool_index, real_index, bound in guards:
        opt.add(Implies(bs[bool_index], xs[real_index] <= RealVal(bound)))
        opt.add(Or(bs[bool_index], xs[real_index] >= RealVal(10 - bound)))
    for first, second, gap in pairs:
        opt.add(xs[first] + RealVal(gap) <= xs[second] + RealVal(10))
    opt.add(bs[force])
    objective = xs[0]
    for x in xs[1:]:
        objective = objective + x
    return opt.maximize(objective)


def oracle(problem):
    """The optimum over all Boolean assignments, or ``None`` when UNSAT."""
    num_reals, num_bools, guards, pairs, force = problem
    best = None
    for values in itertools.product((False, True), repeat=num_bools):
        if not values[force]:
            continue
        simplex = Simplex()
        xs = [simplex.variable(f"x{i}") for i in range(num_reals)]
        bounds = [(x, "lower", 0) for x in xs] + [(x, "upper", 10) for x in xs]
        for bool_index, real_index, bound in guards:
            if values[bool_index]:
                bounds.append((xs[real_index], "upper", bound))
            else:
                bounds.append((xs[real_index], "lower", 10 - bound))
        for first, second, gap in pairs:
            slack = simplex.slack_for({f"x{first}": Fraction(1), f"x{second}": Fraction(-1)})
            bounds.append((slack, "upper", 10 - gap))
        conflict = None
        for var, kind, bound in bounds:
            assert_bound = simplex.assert_upper if kind == "upper" else simplex.assert_lower
            conflict = conflict or assert_bound(var, DeltaRational.of(bound), (var, kind))
        if conflict is not None or simplex.check() is not None:
            continue
        optimum = simplex.maximize({f"x{i}": Fraction(1) for i in range(num_reals)})
        if best is None or optimum.value > best:
            best = optimum.value
    return best


class TestOptimizeVsBruteForce:
    @pytest.mark.parametrize("seed", range(40))
    def test_random_omt_optimum_matches_oracle(self, seed):
        problem = random_omt_problem(seed)
        opt = Optimize()
        handle = build(problem, opt)
        expected = oracle(problem)
        result = opt.check()
        if expected is None:
            assert result == CheckResult.UNSAT
            return
        assert result == CheckResult.SAT
        assert opt.statistics()["optimality"] == "proven"
        assert handle.value() == expected
        # The model attains the optimum, also where strict bounds leave
        # some skeleton's supremum unattained (seeds 6, 18, 26, 38).
        model = opt.model()
        assert sum(model[f"x{i}"] for i in range(problem[0])) == expected


class TestBoundRetraction:
    @pytest.mark.parametrize("seed", range(6))
    def test_repeated_checks_stay_consistent(self, seed):
        """Re-checking after adding constraints retracts stale bounds."""
        rng = random.Random(1000 + seed)
        x, y = Real("x"), Real("y")
        solver = SmtSolver()
        solver.add(x >= RealVal(0), y >= RealVal(0))
        assert solver.check() == CheckResult.SAT
        cap = rng.randint(3, 12)
        solver.add(x + y <= RealVal(cap))
        assert solver.check() == CheckResult.SAT
        model = solver.model()
        assert model[x] + model[y] <= cap
        solver.add(x >= RealVal(cap + 1))
        assert solver.check() == CheckResult.UNSAT

    def test_boolean_skeleton_flip_retracts_bounds(self):
        """Bounds of a refuted skeleton must not leak into the next check."""
        choose = Bool("choose")
        x = Real("x")
        solver = SmtSolver()
        solver.add(Implies(choose, x >= RealVal(5)))
        solver.add(Implies(Not(choose), x <= RealVal(1)))
        solver.add(x <= RealVal(3))  # forces "not choose"
        assert solver.check() == CheckResult.SAT
        model = solver.model()
        assert model.eval_bool("choose") is False
        assert model[x] <= 1


class TestSimplexBacktracking:
    def test_mark_undo_restores_bounds(self):
        simplex = Simplex()
        var = simplex.variable("x")
        assert simplex.assert_lower(var, DeltaRational.of(0), "lo") is None
        mark = simplex.mark()
        assert simplex.assert_upper(var, DeltaRational.of(5), "hi") is None
        assert simplex.assert_lower(var, DeltaRational.of(2), "lo2") is None
        simplex.undo_to(mark)
        # The upper bound is gone and the lower bound is back to 0.
        assert simplex.assert_lower(var, DeltaRational.of(100), "huge") is None
        assert simplex.check() is None

    def test_undo_after_conflicting_interval(self):
        simplex = Simplex()
        slack = simplex.slack_for({"x": Fraction(1), "y": Fraction(1)})
        mark = simplex.mark()
        assert simplex.assert_upper(slack, DeltaRational.of(1), "up") is None
        conflict = simplex.assert_lower(slack, DeltaRational.of(2), "low")
        assert conflict == ["up", "low"]
        simplex.undo_to(mark)
        assert simplex.assert_lower(slack, DeltaRational.of(2), "low") is None
        assert simplex.check() is None

    def test_slack_rows_survive_backtracking(self):
        simplex = Simplex()
        poly = {"x": Fraction(2), "y": Fraction(-1)}
        slack = simplex.slack_for(poly)
        mark = simplex.mark()
        simplex.assert_upper(slack, DeltaRational.of(4), "up")
        simplex.undo_to(mark)
        assert simplex.slack_for(poly) == slack


class TestStatisticsApi:
    def test_smt_solver_statistics_aggregates_sat_counters(self):
        solver = SmtSolver()
        a, b = Bool("a"), Bool("b")
        solver.add(Or(a, b), Or(Not(a), b), Or(a, Not(b)))
        assert solver.check() == CheckResult.SAT
        stats = solver.statistics()
        assert stats["theory_checks"] >= 1
        for key in ("sat_decisions", "sat_conflicts", "sat_propagations",
                    "theory_pivots", "theory_conflicts"):
            assert key in stats

    def test_optimize_statistics_without_private_reach(self):
        x = Real("x")
        opt = Optimize()
        opt.add(x >= RealVal(0), x <= RealVal(7))
        opt.maximize(x)
        assert opt.check() == CheckResult.SAT
        stats = opt.statistics()
        assert stats["improvement_rounds"] >= 1
        assert "sat_conflicts" in stats and "sat_decisions" in stats
        assert "theory_checks" in stats
