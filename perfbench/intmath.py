"""Small exact integer linear algebra for the benchmark's generators and
checks, written apart from ``deltailp.intlinalg`` so a fault there cannot
hide in a check."""

from __future__ import annotations

from fractions import Fraction


def det(rows: list[list[int]]) -> int:
    """Determinant by fraction-free (Bareiss) elimination."""
    a = [list(r) for r in rows]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def rank(rows: list[list[int]]) -> int:
    a = [[Fraction(v) for v in r] for r in rows]
    r = 0
    cols = len(a[0]) if a else 0
    for col in range(cols):
        piv = next((i for i in range(r, len(a)) if a[i][col] != 0), None)
        if piv is None:
            continue
        a[r], a[piv] = a[piv], a[r]
        for i in range(len(a)):
            if i != r and a[i][col] != 0:
                f = a[i][col] / a[r][col]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return r


def adjugate(rows: list[list[int]]) -> list[list[int]]:
    """adj(A) with A adj(A) = det(A) I, from cofactors (Cramer's rule)."""
    n = len(rows)
    if n == 1:
        return [[1]]
    adj = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            minor = [
                [rows[r][c] for c in range(n) if c != j] for r in range(n) if r != i
            ]
            adj[j][i] = (-1) ** (i + j) * det(minor)
    return adj
