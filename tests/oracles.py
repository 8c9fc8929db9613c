"""Reference checks used by the tests only."""

import numpy as np

from coxsaito.catalog import _linear_map, _reflection_matrix
from coxsaito.scalars import scalar_to_json


def reflections(datum):
    """The simple reflections of an irreducible datum, each as the
    substitution x -> M x."""
    return [
        _linear_map(datum.ring, _reflection_matrix(datum.gram, a, datum.ring.d))
        for a in datum.simple_roots
    ]


def is_invariant(datum, f):
    """Invariance under the simple reflections (hence under the group)."""
    return all(s(f) == f for s in reflections(datum))


def _mat_vec(mat, vec, zero):
    return [sum((mat[i][j] * vec[j] for j in range(len(vec))), zero) for i in range(len(mat))]


def reference_orbit(seeds, gens, zero):
    """The seed vectors and every image under repeated v -> g v, g in gens,
    in breadth-first order of discovery, searched on `Fraction`/`Quad`
    tuples."""
    seen = dict.fromkeys(tuple(v) for v in seeds)
    frontier = list(seen)
    while frontier:
        new = []
        for x in frontier:
            for g in gens:
                y = tuple(_mat_vec(g, x, zero))
                if y not in seen:
                    seen[y] = None
                    new.append(y)
        frontier = new
    return list(seen)


def reference_rref_mod(M, p, nun):
    """In-place RREF mod p on the first nun columns of a matrix of residues,
    eliminating above and below every pivot across the full row width and
    reducing after every update; returns the pivot columns, whose rows are
    the first ones in order."""
    m = M.shape[0]
    pivots = []
    for c in range(nun):
        r = len(pivots)
        if r == m:
            break
        nz = np.nonzero(M[r:, c])[0]
        if nz.size == 0:
            continue
        i = r + int(nz[0])
        if i != r:
            M[[r, i]] = M[[i, r]]
        inv = pow(int(M[r, c]), p - 2, p)
        M[r] = (M[r] * inv) % p
        col = M[:, c].copy()
        col[r] = 0
        rows = np.nonzero(col)[0]
        if rows.size:
            M[rows] = (M[rows] - col[rows, None] * M[r][None, :]) % p
        pivots.append(c)
    return tuple(pivots)


def reference_to_json(f):
    """The JSON of a polynomial as printed from its Fraction/Quad
    coefficients, one `scalar_to_json` per term, leading term first."""
    terms = [{"exp": list(e), "coeff": scalar_to_json(c)} for e, c in f.sorted_terms()]
    field = {} if f.ring.d is None else {"d": f.ring.d}
    out = {"vars": list(f.ring.names), "field": field, "terms": terms}
    if any(w != 1 for w in f.ring.weights):
        out["weights"] = list(f.ring.weights)
    return out
