"""Exact-arithmetic toolkit for integer linear programs with bounded
subdeterminants.

The package provides exact integer linear algebra (determinants, Hermite and
Smith normal forms, minor statistics, lattice point enumeration), problem
models for canonical and generalized standard forms, polynomial reductions
between the forms, an exact rational simplex for the LP relaxations, dynamic
programming solvers for bounded and unbounded standard-form instances, group
minimization over finite Abelian groups, locality and feasibility
specializations, closed-form sparsity/proximity bound evaluation, and
brute-force oracles used to verify everything at desk scale.

:func:`solve` is the one entry point over all of them: it picks or checks
the algorithm for the instance's form and runs it.
"""

from .solver import solve

__all__ = ["solve"]
__version__ = "0.1.0"
