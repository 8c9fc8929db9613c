"""Reference checks used by the tests only."""

from fractions import Fraction

import numpy as np

from coxsaito.catalog import _linear_map, _reflection_matrix
from coxsaito.engine import solve_linear
from coxsaito.scalars import Quad, integer_parts, scalar_to_json


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


def term_key(ring, exp):
    """Sort key of the ring's term order, written out on exponent vectors:
    weighted degree, then degree, then reverse lexicographic (the larger
    last exponent is the smaller term); max() over a support picks the
    leading term."""
    return (sum(w * e for w, e in zip(ring.weights, exp)), sum(exp), tuple(-e for e in reversed(exp)))


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


def scalars(vec, d):
    """The scalar entries of an integer sparse vector (D, {key: numerator})."""
    den, nums = vec
    if d is None:
        return {k: Fraction(x, den) for k, x in nums.items()}
    return {k: Quad(Fraction(a, den), Fraction(b, den), d) for k, (a, b) in nums.items()}


def integer_system(cols, targets, d):
    """The sparse integer form that `engine._modular_solve` takes, of the
    system whose columns are the scalar sparse vectors cols (dicts row ->
    scalar) and whose right-hand sides are targets: (entries, dens, nun),
    a (row, column, numerator) triple per entry, one denominator per
    column, unknowns first, and the number of unknowns."""
    entries, dens = [], []
    for j, vec in enumerate(cols + targets):
        den, nums = integer_parts(vec, d)
        entries += [(r, j, x) for r, x in nums.items()]
        dens.append(den)
    return entries, dens, len(cols)


def exact_membership(target, gens):
    """The graded membership system of a homogeneous target, built as
    `engine.graded_membership_batch` builds it (one unknown per generator
    times cofactor monomial, rows the support's monomials in term order)
    and solved by the exact kernel `solve_linear`.  Returns the cofactors
    (free unknowns zero) of a member, or the separating functional of a
    non-member, solved from the transposed system."""
    ring = target.ring
    d = ring.d
    dt = target.whomog_degree()
    cols = [(i, mu) for i, g in enumerate(gens) for mu in ring.monomials(dt - g.whomog_degree())]
    images = [scalars((p.den, p.num), d)
              for p in (gens[i] * ring.from_dict({mu: 1}) for i, mu in cols)]
    tvec = scalars((target.den, target.num), d)
    monos = sorted(set(tvec).union(*images), reverse=True)
    zero = ring.coeff(0)
    eqs = [({j: im[k] for j, im in enumerate(images) if k in im}, [tvec.get(k, zero)])
           for k in monos]
    sol = solve_linear(eqs, 1)[0]
    if sol is not None:
        return [ring.from_dict({mu: sol[j] for j, (i, mu) in enumerate(cols) if i == g and j in sol})
                for g in range(len(gens))]
    row = {k: r for r, k in enumerate(monos)}
    eqs = [({row[k]: c for k, c in im.items()}, [zero]) for im in images]
    eqs.append(({row[k]: c for k, c in tvec.items()}, [ring.coeff(1)]))
    sol = solve_linear(eqs, 1)[0]
    return ring.from_packed({monos[u]: v for u, v in sol.items()})
