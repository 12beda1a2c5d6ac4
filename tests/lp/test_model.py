"""Tests for the LP modeling layer."""

import math

import numpy as np
import pytest

from repro.errors import SolverError
from repro.lp.model import Constraint, LinearProgram, Variable, lp_sum
from tests.oracles.lp_verify import evaluate, violation


class TestLinExpr:
    def test_variable_addition_builds_terms(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        expr = x + y
        assert expr.terms[x] == 1.0
        assert expr.terms[y] == 1.0
        assert expr.constant == 0.0

    def test_scalar_multiplication(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        expr = 3 * x
        assert expr.terms[x] == 3.0

    def test_right_and_left_multiplication_agree(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        assert (2 * x).terms[x] == (x * 2).terms[x]

    def test_repeated_variable_coefficients_accumulate(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        expr = x + x + 3 * x
        assert expr.terms[x] == pytest.approx(5.0)

    def test_constant_folding(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        expr = x + 2 + 3
        assert expr.constant == pytest.approx(5.0)

    def test_evaluate(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        expr = 2 * x + -1 * y + 1
        assert evaluate(expr, {"x": 3.0, "y": 4.0}) == pytest.approx(3.0)

    def test_evaluate_missing_variable_defaults_zero(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        assert evaluate(x + 1, {}) == pytest.approx(1.0)


class TestConstraint:
    def test_le_builds_constraint(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        con = x + 1 <= 5
        assert con.sense == "<="
        assert con.rhs == pytest.approx(4.0)

    def test_ge_builds_constraint(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        con = 2 * x >= 3
        assert con.sense == ">="
        assert con.rhs == pytest.approx(3.0)

    def test_eq_builds_constraint(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        con = x == 7
        assert isinstance(con, Constraint)
        assert con.sense == "=="
        assert con.rhs == pytest.approx(7.0)

    def test_both_sides_expressions(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        con = x + 2 <= y + -1
        # x - y <= -3
        assert con.rhs == pytest.approx(-3.0)
        assert con.expr.terms[x] == 1.0
        assert con.expr.terms[y] == -1.0

    def test_violation_metrics(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        le = x <= 3
        assert violation(le, {"x": 5.0}) == pytest.approx(2.0)
        assert violation(le, {"x": 2.0}) == 0.0
        eq = x == 3
        assert violation(eq, {"x": 5.0}) == pytest.approx(2.0)


class TestVariable:
    def test_bounds_validation(self):
        with pytest.raises(SolverError):
            Variable("bad", lower=2.0, upper=1.0)

    def test_duplicate_name_rejected(self):
        lp = LinearProgram()
        lp.add_variable("x")
        with pytest.raises(SolverError, match="duplicate"):
            lp.add_variable("x")

class TestLinearProgram:
    def test_constraint_foreign_variable_rejected(self):
        lp1 = LinearProgram("a")
        lp2 = LinearProgram("b")
        x1 = lp1.add_variable("x")
        with pytest.raises(SolverError, match="not.*registered"):
            lp2.add_constraint(x1 <= 1)

    def test_add_constraint_requires_comparison(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        with pytest.raises(SolverError, match="expression comparison"):
            lp.add_constraint(x + 1)  # type: ignore[arg-type]

    def test_to_dense_shapes(self):
        lp = LinearProgram()
        x = lp.add_variable("x", upper=10.0)
        y = lp.add_variable("y")
        lp.add_constraint(x + y <= 4)
        lp.add_constraint(x + -1 * y >= 1)
        lp.add_constraint(x + 2 * y == 3)
        lp.set_objective(x + y)
        dense = lp.to_dense()
        assert dense.A_ub.shape == (2, 2)  # <= and flipped >=
        assert dense.A_eq.shape == (1, 2)
        assert dense.c.tolist() == [1.0, 1.0]
        assert dense.upper[0] == 10.0
        assert math.isinf(dense.upper[1])

    def test_ge_row_is_negated(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.add_constraint(x >= 2)
        dense = lp.to_dense()
        assert dense.A_ub[0, 0] == -1.0
        assert dense.b_ub[0] == -2.0

    def test_evaluate_objective_with_constant(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        lp.set_objective(2 * x + 7)
        assert evaluate(lp.objective, {"x": 1.5}) == pytest.approx(10.0)

    def test_has_integer_variables(self):
        lp = LinearProgram()
        lp.add_variable("x")
        assert not lp.has_integer_variables
        lp.add_variable("n", is_integer=True)
        assert lp.has_integer_variables


class TestLpSum:
    def test_sums_mixed_items(self):
        lp = LinearProgram()
        x = lp.add_variable("x")
        y = lp.add_variable("y")
        expr = lp_sum([x, 2 * y, 3])
        assert expr.terms[x] == 1.0
        assert expr.terms[y] == 2.0
        assert expr.constant == 3.0

    def test_empty_sum_is_zero(self):
        expr = lp_sum([])
        assert expr.constant == 0.0
        assert not expr.terms
