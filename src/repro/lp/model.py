"""Algebraic LP/ILP modeling layer.

This is the reproduction's substitute for the Gurobi Python API used by
the paper's optimization simulator: variables, linear expressions built
with operator overloading, ``<=``/``>=``/``==`` constraints, and a
:class:`LinearProgram` container that lowers the model to dense numpy
arrays for :mod:`repro.lp.scipy_backend` (HiGHS).

Example
-------
>>> lp = LinearProgram("demo")
>>> x = lp.add_variable("x", lower=0.0)
>>> y = lp.add_variable("y", lower=0.0)
>>> _ = lp.add_constraint(x + 2 * y <= 14, name="cap")
>>> _ = lp.add_constraint(3 * x >= y)
>>> lp.set_objective(-x + -1 * y)  # maximize x + y
>>> lp.num_variables
2
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Tuple, Union

import numpy as np

from repro.errors import SolverError

Number = Union[int, float]

#: Sentinel for an unbounded-above variable.
INF = math.inf


class LinExpr:
    """An affine expression ``sum(coef_i * var_i) + constant``.

    Immutable in spirit: arithmetic operators return new expressions.
    Coefficients are keyed by :class:`Variable` objects (hashable by
    identity), so two distinct variables may share a display name
    without colliding — although :class:`LinearProgram` forbids
    duplicate names at registration time anyway.
    """

    __slots__ = ("terms", "constant")

    def __init__(
        self,
        terms: Optional[Mapping["Variable", float]] = None,
        constant: float = 0.0,
    ) -> None:
        self.terms: Dict[Variable, float] = dict(terms or {})
        self.constant = float(constant)

    # -- construction helpers -------------------------------------------------
    def copy(self) -> "LinExpr":
        return LinExpr(self.terms, self.constant)

    def _add_inplace(self, other: Union["LinExpr", "Variable", Number], sign: float) -> "LinExpr":
        if isinstance(other, Variable):
            self.terms[other] = self.terms.get(other, 0.0) + sign
        elif isinstance(other, LinExpr):
            for var, coef in other.terms.items():
                self.terms[var] = self.terms.get(var, 0.0) + sign * coef
            self.constant += sign * other.constant
        elif isinstance(other, (int, float)):
            self.constant += sign * other
        else:  # pragma: no cover - defensive
            return NotImplemented
        return self

    # -- operators -------------------------------------------------------------
    def __add__(self, other: Union["LinExpr", "Variable", Number]) -> "LinExpr":
        return self.copy()._add_inplace(other, 1.0)

    __radd__ = __add__

    def __mul__(self, factor: Number) -> "LinExpr":
        if not isinstance(factor, (int, float)):
            return NotImplemented
        return LinExpr(
            {var: coef * factor for var, coef in self.terms.items()},
            self.constant * factor,
        )

    __rmul__ = __mul__

    # -- comparisons build constraints ------------------------------------------
    def __le__(self, rhs: Union["LinExpr", "Variable", Number]) -> "Constraint":
        return Constraint.from_sides(self, rhs, "<=")

    def __ge__(self, rhs: Union["LinExpr", "Variable", Number]) -> "Constraint":
        return Constraint.from_sides(self, rhs, ">=")

    def __eq__(self, rhs: object) -> "Constraint":  # type: ignore[override]
        if isinstance(rhs, (LinExpr, Variable, int, float)):
            return Constraint.from_sides(self, rhs, "==")
        return NotImplemented

    __hash__ = None  # type: ignore[assignment]


class Variable:
    """A decision variable with bounds and optional integrality.

    The paper's decision variable ``x_ij`` (amount of monitoring
    capacity offloaded from Busy node *i* to candidate *j*) is a
    continuous non-negative variable; integrality is supported so the
    formulation can also be solved as a true ILP (HiGHS MILP via
    :mod:`repro.lp.scipy_backend`).
    """

    __slots__ = ("name", "lower", "upper", "is_integer", "index")

    def __init__(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = INF,
        is_integer: bool = False,
        index: int = -1,
    ) -> None:
        if lower > upper:
            raise SolverError(f"variable {name!r}: lower bound {lower} > upper bound {upper}")
        self.name = name
        self.lower = float(lower)
        self.upper = float(upper)
        self.is_integer = bool(is_integer)
        self.index = index

    # Arithmetic promotes to LinExpr.
    def _expr(self) -> LinExpr:
        return LinExpr({self: 1.0})

    def __add__(self, other):
        return self._expr() + other

    __radd__ = __add__

    def __neg__(self):
        return self._expr() * -1.0

    def __mul__(self, factor):
        return self._expr() * factor

    __rmul__ = __mul__

    def __le__(self, rhs):
        return self._expr() <= rhs

    def __ge__(self, rhs):
        return self._expr() >= rhs

    def __eq__(self, rhs):  # type: ignore[override]
        if isinstance(rhs, (LinExpr, Variable, int, float)):
            return self._expr() == rhs
        return NotImplemented

    def __hash__(self) -> int:
        return id(self)


@dataclass
class Constraint:
    """A linear constraint ``expr (sense) rhs`` in canonical form.

    ``expr`` holds all variable terms; the scalar right-hand side has
    been normalized so that ``expr.constant == 0``.
    """

    expr: LinExpr
    sense: str  # "<=", ">=", "=="
    rhs: float
    name: str = ""

    @staticmethod
    def from_sides(
        lhs: Union[LinExpr, Variable, Number],
        rhs: Union[LinExpr, Variable, Number],
        sense: str,
    ) -> "Constraint":
        """Build a constraint from free-form ``lhs (sense) rhs`` sides."""
        expr = LinExpr()
        expr = expr._add_inplace(lhs, 1.0)
        expr = expr._add_inplace(rhs, -1.0)
        rhs_value = -expr.constant
        expr.constant = 0.0
        return Constraint(expr=expr, sense=sense, rhs=rhs_value)


@dataclass
class DenseForm:
    """Dense matrix form of an LP, consumed by the HiGHS backend.

    minimize ``c @ x`` subject to
    ``A_ub @ x <= b_ub``, ``A_eq @ x == b_eq``, ``lower <= x <= upper``.
    """

    c: np.ndarray
    A_ub: np.ndarray
    b_ub: np.ndarray
    A_eq: np.ndarray
    b_eq: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    variable_names: List[str] = field(default_factory=list)


class LinearProgram:
    """A minimization LP/ILP assembled incrementally.

    The API intentionally mirrors the subset of ``gurobipy`` /
    ``pulp`` used by the paper's simulator: ``add_variable``,
    ``add_constraint``, ``set_objective`` (always *minimize*, matching
    Eq. 3's min-cost objective β).
    """

    def __init__(self, name: str = "lp") -> None:
        self.name = name
        self._variables: List[Variable] = []
        self._by_name: Dict[str, Variable] = {}
        self._constraints: List[Constraint] = []
        self._objective = LinExpr()

    # -- model building ---------------------------------------------------------
    def add_variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: float = INF,
        is_integer: bool = False,
    ) -> Variable:
        """Register a new decision variable and return its handle."""
        if name in self._by_name:
            raise SolverError(f"duplicate variable name {name!r} in program {self.name!r}")
        var = Variable(name, lower, upper, is_integer, index=len(self._variables))
        self._variables.append(var)
        self._by_name[name] = var
        return var

    def add_constraint(self, constraint: Constraint, name: str = "") -> Constraint:
        """Attach a constraint produced by expression comparison."""
        if not isinstance(constraint, Constraint):
            raise SolverError(
                "add_constraint expects an expression comparison such as "
                "`x + y <= 3`; got " + repr(constraint)
            )
        for var in constraint.expr.terms:
            if self._by_name.get(var.name) is not var:
                raise SolverError(
                    f"constraint references variable {var.name!r} that is not "
                    f"registered with program {self.name!r}"
                )
        if name:
            constraint.name = name
        elif not constraint.name:
            constraint.name = f"c{len(self._constraints)}"
        self._constraints.append(constraint)
        return constraint

    def set_objective(self, expr: Union[LinExpr, Variable, Number]) -> None:
        """Set the (minimization) objective."""
        holder = LinExpr()
        holder._add_inplace(expr, 1.0)
        self._objective = holder

    # -- introspection ------------------------------------------------------------
    @property
    def constraints(self) -> Tuple[Constraint, ...]:
        return tuple(self._constraints)

    @property
    def objective(self) -> LinExpr:
        return self._objective

    @property
    def num_variables(self) -> int:
        return len(self._variables)

    @property
    def has_integer_variables(self) -> bool:
        return any(v.is_integer for v in self._variables)

    # -- lowering -------------------------------------------------------------------
    def to_dense(self) -> DenseForm:
        """Lower the model to dense arrays (ub rows, eq rows, bounds)."""
        n = len(self._variables)
        c = np.zeros(n)
        for var, coef in self._objective.terms.items():
            c[var.index] += coef

        ub_rows: List[np.ndarray] = []
        ub_rhs: List[float] = []
        eq_rows: List[np.ndarray] = []
        eq_rhs: List[float] = []
        for con in self._constraints:
            row = np.zeros(n)
            for var, coef in con.expr.terms.items():
                row[var.index] += coef
            if con.sense == "<=":
                ub_rows.append(row)
                ub_rhs.append(con.rhs)
            elif con.sense == ">=":
                ub_rows.append(-row)
                ub_rhs.append(-con.rhs)
            elif con.sense == "==":
                eq_rows.append(row)
                eq_rhs.append(con.rhs)
            else:  # pragma: no cover - Constraint.from_sides guards this
                raise SolverError(f"unknown constraint sense {con.sense!r}")

        return DenseForm(
            c=c,
            A_ub=np.array(ub_rows).reshape(len(ub_rows), n) if ub_rows else np.zeros((0, n)),
            b_ub=np.asarray(ub_rhs, dtype=float),
            A_eq=np.array(eq_rows).reshape(len(eq_rows), n) if eq_rows else np.zeros((0, n)),
            b_eq=np.asarray(eq_rhs, dtype=float),
            lower=np.array([v.lower for v in self._variables]),
            upper=np.array([v.upper for v in self._variables]),
            integrality=np.array([v.is_integer for v in self._variables], dtype=bool),
            variable_names=[v.name for v in self._variables],
        )


def lp_sum(items: Iterable[Union[LinExpr, Variable, Number]]) -> LinExpr:
    """Sum an iterable of expressions/variables/numbers into a LinExpr.

    Equivalent of ``gurobipy.quicksum`` — avoids quadratic blowup from
    ``sum()`` building throwaway intermediates.
    """
    total = LinExpr()
    for item in items:
        total._add_inplace(item, 1.0)
    return total
