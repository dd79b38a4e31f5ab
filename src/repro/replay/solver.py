"""A small constraint solver over bounded integer variables.

Supports affine (linear + constant) expressions with the relational
operators the symbolic executor produces.  Solving combines interval
bound propagation with budgeted enumeration, which is exact on the small
domains guest programs use while still exhibiting the exponential blow-up
that makes real inference-based replay expensive.

This is deliberately *not* an SMT engine: it is the minimal solver an
ODR/ESD-style inference pipeline needs in this substrate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.errors import SolverError
from repro.util.intervals import Interval


@dataclass(frozen=True)
class SymVar:
    """A symbolic integer variable (e.g. one input value)."""

    name: str

    def __repr__(self) -> str:
        return f"${self.name}"


class Affine:
    """An affine integer expression: sum of coeff*var plus a constant."""

    __slots__ = ("coeffs", "const")

    def __init__(self, coeffs: Optional[Dict[SymVar, int]] = None,
                 const: int = 0):
        self.coeffs = {v: c for v, c in (coeffs or {}).items() if c != 0}
        self.const = const

    @staticmethod
    def of(value) -> "Affine":
        if isinstance(value, Affine):
            return value
        if isinstance(value, SymVar):
            return Affine({value: 1})
        if isinstance(value, int):
            return Affine(const=value)
        raise SolverError(f"cannot lift {value!r} to an affine expression")

    @property
    def is_constant(self) -> bool:
        return not self.coeffs

    def add(self, other: "Affine") -> "Affine":
        coeffs = dict(self.coeffs)
        for var, coeff in other.coeffs.items():
            coeffs[var] = coeffs.get(var, 0) + coeff
        return Affine(coeffs, self.const + other.const)

    def sub(self, other: "Affine") -> "Affine":
        return self.add(other.scale(-1))

    def scale(self, factor: int) -> "Affine":
        return Affine({v: c * factor for v, c in self.coeffs.items()},
                      self.const * factor)

    def mul(self, other: "Affine") -> "Affine":
        if self.is_constant:
            return other.scale(self.const)
        if other.is_constant:
            return self.scale(other.const)
        raise SolverError("nonlinear multiplication is not supported")

    def variables(self) -> List[SymVar]:
        return list(self.coeffs)

    def evaluate(self, assignment: Dict[SymVar, int]) -> int:
        total = self.const
        for var, coeff in self.coeffs.items():
            if var not in assignment:
                raise SolverError(f"unassigned variable {var}")
            total += coeff * assignment[var]
        return total

    def bounds(self, domains: Dict[SymVar, Interval]) -> Interval:
        """Interval of possible values under the given variable domains."""
        result = Interval.point(self.const)
        for var, coeff in self.coeffs.items():
            domain = domains.get(var, Interval.top())
            if domain.is_empty:
                return Interval.empty()
            term = domain.mul(Interval.point(coeff))
            result = result.add(term)
        return result

    def __repr__(self) -> str:
        parts = [f"{c}*{v}" for v, c in self.coeffs.items()]
        parts.append(str(self.const))
        return " + ".join(parts)


# Relational operators over `expr REL 0`.
RELOPS = ("==", "!=", "<=", "<", ">=", ">")

_NEGATE = {"==": "!=", "!=": "==", "<=": ">", "<": ">=",
           ">=": "<", ">": "<="}

# Bounds on solving effort: propagation rounds before giving up on a
# fixpoint, and values tried by one enumeration before it gives up.
MAX_ROUNDS = 20
MAX_ENUMERATE = 200_000


@dataclass(frozen=True)
class Constraint:
    """``expr REL 0`` over an affine expression."""

    expr: Affine
    relop: str

    def __post_init__(self):
        if self.relop not in RELOPS:
            raise SolverError(f"bad relop {self.relop!r}")

    def negate(self) -> "Constraint":
        return Constraint(self.expr, _NEGATE[self.relop])

    def satisfied_by(self, assignment: Dict[SymVar, int]) -> bool:
        value = self.expr.evaluate(assignment)
        return {
            "==": value == 0, "!=": value != 0,
            "<=": value <= 0, "<": value < 0,
            ">=": value >= 0, ">": value > 0,
        }[self.relop]

    def __repr__(self) -> str:
        return f"({self.expr} {self.relop} 0)"


@dataclass
class ConstraintSystem:
    """A conjunction of constraints plus per-variable domains."""

    constraints: List[Constraint] = field(default_factory=list)
    domains: Dict[SymVar, Interval] = field(default_factory=dict)
    # Enumeration effort spent by the most recent solve() call.
    last_enumerated: int = 0

    def add(self, constraint: Constraint) -> None:
        self.constraints.append(constraint)

    def set_domain(self, var: SymVar, domain: Interval) -> None:
        self.domains[var] = domain

    def variables(self) -> List[SymVar]:
        seen: Dict[SymVar, None] = dict.fromkeys(self.domains)
        for constraint in self.constraints:
            for var in constraint.expr.variables():
                seen.setdefault(var, None)
        return list(seen)

    # -- propagation ------------------------------------------------------

    def propagate(self) -> Dict[SymVar, Interval]:
        """Narrow variable domains by interval bound propagation."""
        domains = {var: self.domains.get(var, Interval.top())
                   for var in self.variables()}
        for __ in range(MAX_ROUNDS):
            changed = False
            for constraint in self.constraints:
                if self._refine(constraint, domains):
                    changed = True
            if any(d.is_empty for d in domains.values()):
                return domains
            if not changed:
                break
        return domains

    def _refine(self, constraint: Constraint,
                domains: Dict[SymVar, Interval]) -> bool:
        """Refine each variable of ``constraint`` given the others."""
        changed = False
        expr, relop = constraint.expr, constraint.relop
        for var, coeff in expr.coeffs.items():
            rest = Affine({v: c for v, c in expr.coeffs.items()
                           if v != var}, expr.const)
            rest_bounds = rest.bounds(domains)
            if rest_bounds.is_empty:
                continue
            # coeff*var REL -rest  =>  bounds on var.
            target = rest_bounds.negate()
            narrowed = self._solve_var(domains[var], coeff, relop, target)
            if narrowed != domains[var]:
                domains[var] = narrowed
                changed = True
        return changed

    @staticmethod
    def _solve_var(domain: Interval, coeff: int, relop: str,
                   target: Interval) -> Interval:
        """Narrow ``domain`` so that ``coeff*var REL target`` can hold.

        ``target`` is the interval of achievable values for the rest of
        the expression negated; refinement keeps every var value for
        which *some* rest value satisfies the relation (sound: never
        drops a feasible value).
        """
        if coeff == 0 or domain.is_empty or target.is_empty:
            return domain

        def ceil_div(a: int, b: int) -> int:
            return -((-a) // b)

        if relop == "==":
            # coeff*var must land inside target.
            if coeff > 0:
                lo = ceil_div(target.lo, coeff)
                hi = target.hi // coeff
            else:
                lo = ceil_div(target.hi, coeff)
                hi = target.lo // coeff
            return domain.intersect(Interval(lo, hi))
        if relop in ("<=", "<"):
            # coeff*var <= max(target); strict tightens by one.
            bound = target.hi - (1 if relop == "<" else 0)
            if coeff > 0:
                return domain.refine_le(bound // coeff)
            return domain.refine_ge(ceil_div(bound, coeff))
        if relop in (">=", ">"):
            bound = target.lo + (1 if relop == ">" else 0)
            if coeff > 0:
                return domain.refine_ge(ceil_div(bound, coeff))
            return domain.refine_le(bound // coeff)
        return domain  # "!=" gives no interval information

    # -- solving -------------------------------------------------------------

    def solve(self) -> Optional[Dict[SymVar, int]]:
        """Find one satisfying assignment, or None.

        Propagates bounds first, then enumerates variables smallest-domain
        first with constraint checking at each full assignment.  The
        enumeration count is stored in :attr:`last_enumerated` so callers
        can meter inference effort.
        """
        self.last_enumerated = 0
        domains = self.propagate()
        if any(d.is_empty for d in domains.values()):
            return None
        variables = sorted(domains, key=lambda v: len(domains[v]))
        assignment: Dict[SymVar, int] = {}

        def backtrack(index: int) -> Optional[Dict[SymVar, int]]:
            if index == len(variables):
                if all(c.satisfied_by(assignment) for c in self.constraints):
                    return dict(assignment)
                return None
            var = variables[index]
            for value in domains[var]:
                self.last_enumerated += 1
                if self.last_enumerated > MAX_ENUMERATE:
                    return None
                assignment[var] = value
                if self._partial_ok(assignment):
                    found = backtrack(index + 1)
                    if found is not None:
                        return found
                del assignment[var]
            return None

        return backtrack(0)

    def _partial_ok(self, assignment: Dict[SymVar, int]) -> bool:
        """Check constraints whose variables are all assigned."""
        for constraint in self.constraints:
            if all(v in assignment for v in constraint.expr.variables()):
                if not constraint.satisfied_by(assignment):
                    return False
        return True
