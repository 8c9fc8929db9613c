"""Reference checks used by the tests only."""


def is_invariant(datum, f):
    """Invariance under the simple reflections (hence under the group)."""
    return all(s(f) == f for s in datum.reflections())


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
