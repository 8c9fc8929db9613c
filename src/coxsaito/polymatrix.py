"""Rectangular matrices of polynomials: products, determinants, adjugates.

Determinants use memoized cofactor expansion, which adjugates share.  Every
entry of a product and every cofactor expansion is one `dot`, the sum of
products over integer numerators.
"""

from __future__ import annotations

from .poly import as_poly, dot


class PolyMatrix:
    __slots__ = ("ring", "m", "n", "e")

    def __init__(self, ring, entries):
        self.ring = ring
        self.e = [list(row) for row in entries]
        self.m = len(self.e)
        self.n = len(self.e[0]) if self.m else 0
        for row in self.e:
            if len(row) != self.n:
                raise ValueError("ragged matrix")
            for p in row:
                if p.ring != ring:
                    raise ValueError("matrix entry in a different ring")

    @staticmethod
    def from_scalars(ring, rows):
        return PolyMatrix(ring, [[ring.const(c) for c in row] for row in rows])

    def __getitem__(self, ij):
        i, j = ij
        return self.e[i][j]

    def col(self, j):
        return [self.e[i][j] for i in range(self.m)]

    def transpose(self):
        return PolyMatrix(self.ring, [[self.e[i][j] for i in range(self.m)] for j in range(self.n)])

    def __mul__(self, other):
        if self.n != other.m:
            raise ValueError("matrix shape mismatch")
        cols = [other.col(j) for j in range(other.n)]
        return PolyMatrix(
            self.ring,
            [[dot(zip(row, col), self.ring) for col in cols] for row in self.e],
        )

    def mul_vec(self, vec):
        if len(vec) != self.n:
            raise ValueError("vector length mismatch")
        return [dot(zip(row, vec), self.ring) for row in self.e]

    def __eq__(self, other):
        return (
            isinstance(other, PolyMatrix)
            and self.m == other.m
            and self.n == other.n
            and self.e == other.e
        )

    def is_symmetric(self):
        if self.m != self.n:
            return False
        return all(
            self.e[i][j] == self.e[j][i] for i in range(self.m) for j in range(i)
        )

    def map(self, fn):
        rows = [[fn(p) for p in row] for row in self.e]
        ring = rows[0][0].ring if rows and rows[0] else self.ring
        return PolyMatrix(ring, rows)

    # -- determinants ------------------------------------------------------

    def _minor_memo(self):
        memo = {}

        def det_sub(rows, cols):
            if not rows:
                return self.ring.one()
            key = (rows, cols)
            got = memo.get(key)
            if got is not None:
                return got
            if len(rows) == 1:
                val = self.e[rows[0]][cols[0]]
            else:
                r0 = self.e[rows[0]]
                rest = rows[1:]
                val = dot(
                    (
                        (r0[c] if k % 2 == 0 else -r0[c], det_sub(rest, cols[:k] + cols[k + 1 :]))
                        for k, c in enumerate(cols)
                        if r0[c]
                    ),
                    self.ring,
                )
            memo[key] = val
            return val

        return det_sub

    def det(self):
        if self.m != self.n:
            raise ValueError("determinant of a non-square matrix")
        all_idx = tuple(range(self.n))
        return self._minor_memo()(all_idx, all_idx)

    def adjugate(self):
        """Matrix ad with self * ad == det(self) * identity, exactly."""
        if self.m != self.n:
            raise ValueError("adjugate of a non-square matrix")
        n = self.n
        det_sub = self._minor_memo()
        all_idx = tuple(range(n))
        out = [[None] * n for _ in range(n)]
        for i in range(n):
            rows = all_idx[:i] + all_idx[i + 1 :]
            for j in range(n):
                cols = all_idx[:j] + all_idx[j + 1 :]
                # entry (j, i) of the adjugate is the signed (i, j) cofactor
                m = det_sub(rows, cols)
                out[j][i] = m if (i + j) % 2 == 0 else -m
        return PolyMatrix(self.ring, out)

    def to_json(self):
        return {"rows": self.m, "cols": self.n, "entries": [[p.to_json() for p in row] for row in self.e]}

    @staticmethod
    def from_json(obj, ring):
        """The matrix obj records; each entry may be a polynomial already
        parsed (`as_poly`)."""
        return PolyMatrix(ring, [[as_poly(p, ring) for p in row] for row in obj["entries"]])

    def __repr__(self):
        return "PolyMatrix[\n" + "\n".join("  [" + ", ".join(map(str, row)) + "]" for row in self.e) + "\n]"


def jacobian(polys, ring=None):
    """Rows are the gradients of the given polynomials."""
    if not polys:
        raise ValueError("empty Jacobian")
    ring = ring or polys[0].ring
    return PolyMatrix(ring, [[p.diff(j) for j in range(ring.n)] for p in polys])


def hessian(f):
    """Symmetric matrix of second partials of f."""
    ring = f.ring
    grads = f.grad()
    rows = []
    for i in range(ring.n):
        rows.append([grads[i].diff(j) for j in range(ring.n)])
    return PolyMatrix(ring, rows)
