import numpy as np
import pytest

from smop import L1, ProblemData, SortedL1, SparseMatrix


@pytest.fixture
def scalar_data():
    """1x1 instance: phi(lam) = min(lam, 1), solution x(lam) = max(1 - lam, 0)."""
    return ProblemData(SparseMatrix.from_dense([[1.0]]), np.array([1.0]), rho=0.3)


@pytest.fixture
def diagonal_data():
    """diag(1, 2) instance: for lam <= 1, x(lam) = (1 - lam, (2 - lam)/4) and
    phi(lam) = lam * sqrt(5)/2 (verified by scalar calculus per coordinate)."""
    A = SparseMatrix.from_dense([[1.0, 0.0], [0.0, 2.0]])
    return ProblemData(A, np.array([1.0, 1.0]), rho=0.5)


class _ApgOnly:
    """A penalty with an empty solution piece: ``solve_reduced`` finds no
    Newton point, so it solves by APG alone."""

    def piece(self, x):
        J = np.empty(0, dtype=np.int64)
        return J, np.empty(0), J, np.empty(0)


class _ApgOnlyL1(_ApgOnly, L1):
    pass


class _ApgOnlySortedL1(_ApgOnly, SortedL1):
    def restrict(self, size):
        return _ApgOnlySortedL1(super().restrict(size).weights)


@pytest.fixture
def apg_only_l1():
    """l1 solved without the Newton step, the reference it is measured against."""
    return _ApgOnlyL1()


@pytest.fixture
def apg_only():
    """Maps ``L1()`` or a ``SortedL1`` to the same penalty solved by APG alone."""
    return lambda reg: _ApgOnlyL1() if isinstance(reg, L1) else _ApgOnlySortedL1(reg.weights)
