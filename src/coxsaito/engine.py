"""Exact ideal membership with witnesses, Groebner bases, dimension.

The cofactors of a homogeneous membership live in one graded piece, so
membership is one sparse linear system over the coefficient field.  Its
rows, one per monomial of the support, are numbered in the ring's term
order, so a separating functional does not depend on the order in which
terms were stored.  Every such system, over Q or Q(sqrt d), is solved
first by elimination modulo word-size primes with rational
reconstruction; a target it finds inconsistent gets its separating
functional the same way, from the transposed system.  Modular answers
are only candidates: a witness or a functional is accepted only once it
verifies exactly, and non-membership is only ever reported together with
such a functional.  Targets the modular run leaves unsettled go to the
exact kernel, through which all exact scalar elimination (solves, ranks,
nullspaces) runs: `echelon`, `reduce_row` and `back_substitute`.

Buchberger's algorithm serves the reducedness test alone (through the
dimension of the singular locus).  Its normal forms, and the univariate
gcds of the codimension-two test, are all division by `Poly.reduce`.
"""

from __future__ import annotations

import heapq
import random
from functools import cache
from fractions import Fraction
from math import gcd, isqrt
from operator import add

import numpy as np

from .poly import Poly, PolyRing, Substitution, dot, poly_pairing
from .scalars import Quad, integer_parts


class EngineError(ValueError):
    pass


# ---------------------------------------------------------------------------
# witnesses


class Witness:
    """Cofactors c_i, one per generator g_i, with sum(c_i * g_i) == target,
    verified on construction."""

    __slots__ = ("target", "gens", "cofactors")

    def __init__(self, target, gens, cofactors):
        self.target = target
        self.gens = list(gens)
        self.cofactors = list(cofactors)
        if len(self.cofactors) != len(self.gens):
            raise ValueError(
                f"witness has {len(self.cofactors)} cofactors for {len(self.gens)} generators"
            )
        if not self.verify():
            raise EngineError("witness identity failed to verify")

    def verify(self):
        return dot(zip(self.cofactors, self.gens), self.target.ring) == self.target

    def to_json(self):
        return {
            "kind": "witness",
            "target": self.target.to_json(),
            "gens": [g.to_json() for g in self.gens],
            "cofactors": [c.to_json() for c in self.cofactors],
        }

    @staticmethod
    def from_json(obj, ring):
        return Witness(
            Poly.from_json(obj["target"], ring),
            [Poly.from_json(g, ring) for g in obj["gens"]],
            [Poly.from_json(c, ring) for c in obj["cofactors"]],
        )


class NonMembership:
    """A linear functional on the graded piece that kills every mu * g_i
    but not the target: an exact certificate that no cofactors exist."""

    __slots__ = ("target", "gens", "functional")

    def __init__(self, target, gens, functional):
        self.target = target
        self.gens = list(gens)
        self.functional = functional
        if not self.verify():
            raise EngineError("non-membership functional failed to verify")

    def verify(self):
        ring = self.target.ring
        dt = self.target.whomog_degree()
        if poly_pairing(self.functional, self.target) == 0:
            return False
        for g in self.gens:
            dg = g.whomog_degree()
            if dg is None or dg > dt:
                continue
            for mu in ring.monomials(dt - dg):
                if poly_pairing(self.functional, _shift_poly(g, mu)) != 0:
                    return False
        return True

    def to_json(self):
        return {
            "kind": "nonmember",
            "target": self.target.to_json(),
            "gens": [g.to_json() for g in self.gens],
            "functional": self.functional.to_json(),
        }

    @staticmethod
    def from_json(obj, ring):
        return NonMembership(
            Poly.from_json(obj["target"], ring),
            [Poly.from_json(g, ring) for g in obj["gens"]],
            Poly.from_json(obj["functional"], ring),
        )


# ---------------------------------------------------------------------------
# exact sparse linear algebra over the scalar field


def reduce_row(work, rhs, pivots):
    """Reduce a sparse row (dict unknown->scalar) and its right-hand sides
    in place against the pivot rows until no pivot unknown is left in it."""
    while True:
        hits = [u for u in work if u in pivots]
        if not hits:
            return
        for u in sorted(hits):
            c = work.pop(u, None)
            if c is None or not c:
                continue
            prow, prhs = pivots[u]
            for v, cv in prow.items():
                if v == u:
                    continue
                s = work.get(v)
                s = -c * cv if s is None else s - c * cv
                if s:
                    work[v] = s
                else:
                    work.pop(v, None)
            for t in range(len(rhs)):
                if prhs[t]:
                    rhs[t] = rhs[t] - c * prhs[t]


def echelon(eqs):
    """Forward elimination of (row dict, rhs list) equations.

    Returns (pivots, bad): pivots maps the smallest unknown of each reduced
    row to that row normalized to 1 there, with its right-hand sides; a
    pivot row holds only unknowns larger than its pivot.  bad is the set of
    right-hand side indices some equation proved inconsistent."""
    pivots = {}
    bad = set()
    for row, rhs in eqs:
        work = dict(row)
        r = list(rhs)
        reduce_row(work, r, pivots)
        if not work:
            bad.update(t for t, x in enumerate(r) if x)
            continue
        u = min(work)
        inv = 1 / work[u]
        work = {v: cv * inv for v, cv in work.items()}
        r = [x * inv for x in r]
        pivots[u] = (work, r)
    return pivots, bad


def back_substitute(pivots, t=None, sol=None):
    """Values of the pivot unknowns, from the largest pivot down, for
    right-hand side t (None: the homogeneous system).  Free unknowns take
    their values from sol and are zero where it has none."""
    sol = dict(sol or {})
    for u in sorted(pivots, reverse=True):
        prow, prhs = pivots[u]
        val = prhs[t] if t is not None else 0
        for v, cv in prow.items():
            if v == u:
                continue
            sv = sol.get(v)
            if sv is not None:
                val = val - cv * sv
        if val:
            sol[u] = val
    return sol


def solve_linear(eqs, nun, nrhs):
    """Solve a sparse linear system with several right-hand sides.

    eqs: list of (coeff dict unknown->scalar, rhs list of length nrhs).
    Returns a list of length nrhs whose entries are either a dict
    unknown->value (free unknowns zero) or None when that rhs is
    inconsistent.  Forward elimination with back substitution; pivots are
    the smallest unknown of each reduced row, so the result is
    deterministic.
    """
    pivots, bad = echelon(eqs)
    return [None if t in bad else back_substitute(pivots, t) for t in range(nrhs)]


def rank_of_vectors(vecs):
    """Rank of a list of sparse vectors (dicts key->scalar)."""
    return len(echelon((vec, ()) for vec in vecs)[0])


# ---------------------------------------------------------------------------
# modular fast path

_PRIME_COUNT = 48


def _gen_primes():
    # word-size primes, 3 mod 4 so square roots are single powers;
    # products of two residues stay inside int64.  For p = 3 mod 4,
    # p - 1 = 2 * odd, so the strong probable-prime test to base a is
    # a^((p-1)/2) = +-1 mod p; bases 2, 3, 5 and 7 make it exact below
    # 3.2e9 (deterministic Miller-Rabin)
    primes = []
    cand = (1 << 25) - 1
    while len(primes) < _PRIME_COUNT:
        cand += 4
        if all(pow(a, cand >> 1, cand) in (1, cand - 1) for a in (2, 3, 5, 7)):
            primes.append(cand)
    return primes


_PRIMES = _gen_primes()


@cache
def _primes_for(d):
    """Primes where d is a quadratic residue, with a canonical square root
    (all generated primes are 3 mod 4, so the root is a power)."""
    if d is None:
        return tuple((p, None) for p in _PRIMES)
    return tuple(
        (p, pow(d, (p + 1) // 4, p)) for p in _PRIMES if pow(d, (p - 1) // 2, p) == 1
    )


def _rat_reconstruct(r, m):
    """Wang rational reconstruction of r mod m; None if no small fraction."""
    bound = isqrt(m) // 2 + 1
    v0, v1 = (m, 0), (r % m, 1)
    while v1[0] >= bound:
        q = v0[0] // v1[0]
        v0, v1 = v1, (v0[0] - q * v1[0], v0[1] - q * v1[1])
    n, d = v1[0], v1[1]
    if d == 0 or abs(d) >= bound:
        return None
    if d < 0:
        n, d = -n, -d
    if gcd(n, d) != 1 or gcd(d, m) != 1:
        return None
    return Fraction(n, d)


def _rref_mod(M, p, nun):
    """In-place RREF mod p on the first nun columns of a matrix of residues;
    returns the pivot columns, whose rows are the first ones in order."""
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


def _modular_solve(cols, targets, nrows, d, accept):
    """Solve for several right-hand sides modulo word-size primes.

    cols (one per unknown) and targets are sparse vectors, dicts row ->
    scalar.  After every prime, each unsettled target whose residues
    reconstruct to a candidate (dict unknown -> scalar, free unknowns zero)
    is passed to accept(t, candidate), which returns the answer built from
    it once that checks exactly and raises EngineError otherwise; a
    rejected candidate makes the run go on to further primes.  Returns
    (answers, inconsistent): the accepted answers, None where there was
    none, and the targets some prime found inconsistent, which are left
    unsettled.

    A prime whose pivot columns are fewer or later than the best seen is
    unlucky and skipped; a better one restarts the reconstruction.
    Quadratic contexts embed sqrt(d) as each of the two square roots mod p;
    the half sum and half difference of the two solves recover the rational
    and surd parts."""
    nun, nrhs = len(cols), len(targets)
    # clear denominators column by column: (row, column, rational part,
    # surd part) integers, and the integer scale of each column
    entries, scales = [], []
    for j, col in enumerate(cols + targets):
        den, nums = integer_parts(col, d)
        if d is None:
            nums = {r: (x, 0) for r, x in nums.items()}
        entries += [(r, j, a, b) for r, (a, b) in nums.items()]
        scales.append(den)
    index = (np.array([e[0] for e in entries], dtype=np.intp),
             np.array([e[1] for e in entries], dtype=np.intp))
    answers = [None] * nrhs
    inconsistent = set()
    pattern = None
    for p, s in _primes_for(d):
        runs = []
        for root in (0,) if d is None else (s, p - s):
            M = np.zeros((nrows, nun + nrhs), dtype=np.int64)
            M[index] = [(a + b * root) % p for _, _, a, b in entries]
            runs.append((_rref_mod(M, p, nun), M))
        pat = runs[0][0]
        if any(other != pat for other, _ in runs):
            continue
        if pat != pattern:
            if pattern is not None and (-len(pat), pat) > (-len(pattern), pattern):
                continue
            pattern, modulus, inconsistent = pat, 1, set()
            acc = [[[0] * len(pat) for _ in range(nrhs)] for _ in runs]
        rank = len(pat)
        for _, M in runs:
            inconsistent.update(np.flatnonzero(M[rank:, nun:].any(axis=0)).tolist())
        # residues of the pivot unknowns: rational parts, then surd parts
        vals = [M[:rank, nun:] for _, M in runs]
        if d is not None:
            vals = [(vals[0] + vals[1]) * ((p + 1) // 2) % p,
                    (vals[0] - vals[1]) % p * pow(2 * s, -1, p) % p]
        minv = pow(modulus, -1, p)
        pending = [t for t in range(nrhs) if answers[t] is None and t not in inconsistent]
        for t in pending:
            for part, residues in zip(vals, acc):
                xs = residues[t]
                for k, r in enumerate(part[:, t].tolist()):
                    xs[k] += modulus * ((r - xs[k]) * minv % p)
        modulus *= p
        for t in pending:
            cand = {}
            for k, c in enumerate(pat):
                v = _rat_reconstruct(acc[0][t][k], modulus)
                if v is not None and d is not None:
                    b = _rat_reconstruct(acc[1][t][k], modulus)
                    v = None if b is None else Quad(v, b, d)
                if v is None:
                    cand = None
                    break
                if v:
                    # undo the column scaling: x_c = y_c * scale_c / scale_t
                    cand[c] = v * scales[c] / scales[nun + t]
            if cand is not None:
                try:
                    answers[t] = accept(t, cand)
                except EngineError:
                    pass  # a wrong reconstruction: more primes
        if all(a is not None or t in inconsistent for t, a in enumerate(answers)):
            break
    return answers, inconsistent


# ---------------------------------------------------------------------------
# graded membership


def _shift_poly(g, mu):
    """g times the monomial with exponent mu."""
    return Poly(g.ring, {tuple(a + b for a, b in zip(mu, e)): c for e, c in g.t.items()})


def graded_membership(target, gens):
    """Decide membership of a homogeneous target in a homogeneous ideal.

    Returns a Witness (with cofactors homogeneous of the complementary
    degrees) or a NonMembership functional.  The decision is exact.
    """
    out = graded_membership_batch([target], gens)
    return out[0]


def graded_membership_batch(targets, gens):
    """Membership of several targets of equal degree in one graded solve.

    Modular first: a target the modular run settles is accepted only as an
    exactly verified witness, and one it finds inconsistent only with an
    exactly verified separating functional, also found modularly.  The
    exact kernel decides whatever is left.  No generators, or only zero
    ones, span the zero ideal: the dual of a monomial of each target then
    separates it."""
    ring = targets[0].ring
    gens = [g for g in gens if g]
    degs = {t.whomog_degree() for t in targets}
    if None in degs or len(degs) > 1:
        raise EngineError("targets must be homogeneous of one degree")
    dt = degs.pop()
    gdegs = []
    for g in gens:
        dg = g.whomog_degree()
        if dg is None:
            raise EngineError("non-homogeneous generator")
        gdegs.append(dg)
    if not gens:
        one = ring.coeff(1)
        return [NonMembership(t, [], ring.from_dict({t.leading()[0]: one})) for t in targets]

    # one column (unknown) per generator times cofactor monomial; one row
    # per monomial of degree dt in the support, numbered in term order so
    # that the system does not depend on the order terms were stored in
    cols = [(i, mu) for i, dg in enumerate(gdegs) for mu in ring.monomials(dt - dg)]
    support = set().union(*(t.t for t in targets))
    for i, mu in cols:
        support.update(tuple(map(add, e, mu)) for e in gens[i].t)
    monos = sorted(support, key=ring.term_key, reverse=True)
    row_index = {e: r for r, e in enumerate(monos)}
    target_vecs = [{row_index[e]: c for e, c in t.t.items()} for t in targets]
    col_vecs = [{row_index[tuple(map(add, e, mu))]: c for e, c in gens[i].t.items()}
                for i, mu in cols]

    def witness(t, sol):
        cof_terms = [dict() for _ in gens]
        for j, v in sol.items():
            i, mu = cols[j]
            cof_terms[i][mu] = v
        return Witness(targets[t], gens, [ring.from_dict(tm) for tm in cof_terms])

    results, inconsistent = _modular_solve(
        col_vecs, target_vecs, len(monos), ring.d, witness
    )
    for t in sorted(inconsistent):
        results[t] = _modular_functional(targets[t], gens, col_vecs, target_vecs[t], monos)

    pending = [t for t, r in enumerate(results) if r is None]
    if pending:
        # exact path: one equation per monomial of degree dt
        zero = ring.coeff(0)
        eq_list = [
            (row, [target_vecs[t].get(r, zero) for t in pending])
            for r, row in enumerate(_transpose(col_vecs, len(monos)))
        ]
        solutions = solve_linear(eq_list, len(cols), len(pending))
        for t, sol in zip(pending, solutions):
            if sol is None:
                results[t] = _nonmember_functional(
                    targets[t], gens, col_vecs, target_vecs[t], monos
                )
            else:
                results[t] = witness(t, sol)
    return results


def _transpose(vecs, nrows):
    """The rows of the matrix whose columns are the sparse vectors vecs."""
    rows = [dict() for _ in range(nrows)]
    for j, vec in enumerate(vecs):
        for r, c in vec.items():
            rows[r][j] = c
    return rows


def _functional(target, gens, monos, sol):
    ring = target.ring
    return NonMembership(target, gens, ring.from_dict({monos[u]: v for u, v in sol.items()}))


def _modular_functional(target, gens, col_vecs, tvec, monos):
    """A separating functional found modulo primes, or None.  The system is
    the transpose of the membership one: one unknown per monomial, every
    column paired to 0 and the target paired to 1."""
    m = len(col_vecs)
    return _modular_solve(
        _transpose(col_vecs + [tvec], len(monos)),
        [{m: target.ring.coeff(1)}],
        m + 1,
        target.ring.d,
        lambda _, sol: _functional(target, gens, monos, sol),
    )[0][0]


def _nonmember_functional(target, gens, col_vecs, tvec, monos):
    """Solve exactly for a separating functional of a non-member, from the
    same transposed system, and verify it."""
    ring = target.ring
    eqs = [(vec, [ring.coeff(0)]) for vec in col_vecs]
    eqs.append((tvec, [ring.coeff(1)]))
    sol = solve_linear(eqs, len(monos), 1)[0]
    if sol is None:
        raise EngineError("membership solver inconsistency (no functional)")
    return _functional(target, gens, monos, sol)


# ---------------------------------------------------------------------------
# Buchberger


def _spair(f, g):
    fe, fc = f.leading()
    ge, gc = g.leading()
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    mf = tuple(a - b for a, b in zip(lcm, fe))
    mg = tuple(a - b for a, b in zip(lcm, ge))
    tf = _shift_poly(f, mf).scale(1 / fc)
    tg = _shift_poly(g, mg).scale(1 / gc)
    return tf - tg


def groebner(gens):
    """Reduced Groebner basis via Buchberger with sugar selection and the
    coprimality and chain criteria."""
    gens = [g for g in gens if g]
    if not gens:
        return []
    ring = gens[0].ring
    key = ring.term_key

    G = []
    sugars = []
    for g in sorted(gens, key=lambda h: key(h.leading()[0])):
        r = g.reduce(G)[1]
        if r:
            G.append(r.monic())
            sugars.append(r.deg())

    heap = []
    counter = 0
    done_pairs = set()

    def lcm_exp(i, j):
        ei = G[i].leading()[0]
        ej = G[j].leading()[0]
        return tuple(max(a, b) for a, b in zip(ei, ej))

    def push_pairs(j):
        nonlocal counter
        ej = G[j].leading()[0]
        for i in range(j):
            ei = G[i].leading()[0]
            lcm = tuple(max(a, b) for a, b in zip(ei, ej))
            if all(a + b == c for a, b, c in zip(ei, ej, lcm)):
                # coprime leading terms: s-pair reduces to zero
                done_pairs.add((i, j))
                continue
            deg_lcm = sum(lcm)
            sugar = max(
                sugars[i] - sum(ei), sugars[j] - sum(ej)
            ) + deg_lcm
            counter += 1
            heapq.heappush(heap, (sugar, deg_lcm, counter, i, j))

    for j in range(len(G)):
        push_pairs(j)

    while heap:
        _, _, _, i, j = heapq.heappop(heap)
        if (i, j) in done_pairs:
            continue
        done_pairs.add((i, j))
        lcm = lcm_exp(i, j)
        # chain criterion
        skip = False
        for k in range(len(G)):
            if k in (i, j):
                continue
            ek = G[k].leading()[0]
            if all(a >= b for a, b in zip(lcm, ek)):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done_pairs and pjk in done_pairs:
                    skip = True
                    break
        if skip:
            continue
        s = _spair(G[i], G[j])
        r = s.reduce(G)[1]
        if r:
            G.append(r.monic())
            sugars.append(max(sugars[i], sugars[j], r.deg()))
            push_pairs(len(G) - 1)

    # interreduce to the unique reduced basis
    reduced = []
    for i, g in enumerate(G):
        others = [h for j, h in enumerate(G) if j != i]
        r = g.reduce(others)[1]
        if r:
            reduced.append(r.monic())
    # removing redundant members can create duplicates; dedupe and sort
    seen = []
    for g in reduced:
        if all(g != h for h in seen):
            seen.append(g)
    final = []
    for i, g in enumerate(seen):
        others = [h for j, h in enumerate(seen) if j != i]
        r = g.reduce(others)[1]
        if r:
            final.append(r.monic())
    final.sort(key=lambda h: key(h.leading()[0]), reverse=True)
    return final


# ---------------------------------------------------------------------------
# dimension, reducedness


def krull_dimension(gens):
    """Dimension of V(gens): maximal size of a variable subset meeting no
    leading-term support of a Groebner basis; -1 for the empty variety."""
    gb = groebner(gens)
    if not gb:
        raise EngineError("dimension of the zero ideal: provide a ring explicitly")
    ring = gb[0].ring
    n = ring.n
    lts = [g.leading()[0] for g in gb]
    if any(sum(e) == 0 for e in lts):
        return -1
    supports = [frozenset(i for i, k in enumerate(e) if k) for e in lts]
    best = -1
    for mask in range(1 << n):
        s = {i for i in range(n) if mask >> i & 1}
        if any(sup <= s for sup in supports):
            continue
        best = max(best, len(s))
    return best


def _pair_cuts_out_points(f, g):
    """Sound finiteness test for V(f, g) in two variables: the pair has
    trivial common content and a nonzero resultant specialization, shown
    by a constant gcd at a point where a leading coefficient survives."""
    if f.is_constant() or g.is_constant():
        return bool(f.is_constant() and f) or bool(g.is_constant() and g)
    # coefficient rows in the second variable, polynomials in the first
    uni = PolyRing(("t",), d=f.ring.d)
    fc, gc = (
        [Poly(uni, {(e[0],): c for e, c in h.t.items() if e[1] == j})
         for j in range(max(e[1] for e in h.t) + 1)]
        for h in (f, g)
    )
    if len(fc) == 1 or len(gc) == 1:
        return False  # no dependence on the second variable; try another cut
    # a common factor free of the second variable divides every coefficient
    acc = uni.zero()
    for row in fc + gc:
        acc = _gcd(row, acc)
    if acc.deg() > 0:
        return False
    # one nonzero value of the resultant in the first variable proves the
    # resultant is a nonzero polynomial, hence no common component.  The
    # specialization at u0 is the resultant of the specialized pair only
    # where a leading coefficient in the second variable survives; there,
    # for two nonzero polynomials, it is nonzero iff their gcd is constant.
    for u0 in (2, 3, -1, 5, -4, 7, 9, -8, 11, 13):
        at = Substitution((u0,), None)
        fs, gs = (
            uni.from_dict({(j,): at(row) for j, row in enumerate(rows)})
            for rows in (fc, gc)
        )
        if fs.deg() < len(fc) - 1 and gs.deg() < len(gc) - 1:
            continue  # both leading coefficients vanish at u0
        if fs and gs and _gcd(fs, gs).deg() == 0:
            return True
    return False


def codim_at_least_two(gens):
    """Sound one-sided test that V(gens) has codimension >= 2.

    The variety is a (weighted) cone, so cutting with a linear 2-plane
    through the origin can only drop the dimension by the cut codimension;
    finiteness of the section is then certified by a coprime pair among
    the restricted generators (trivial common content plus a constant gcd
    at a point where a leading coefficient survives)."""
    gens = [g for g in gens if g]
    if not gens:
        return False
    ring = gens[0].ring
    n = ring.n
    rng = random.Random(1)
    plane_ring = PolyRing(("u_", "v_"), d=ring.d)
    for attempt in range(6):
        if n > 2:
            images = []
            for _i in range(n):
                a = rng.randint(-7, 7)
                b = rng.randint(-7, 7)
                images.append(plane_ring.linear_form([a, b]))
            cut = [g.subst(images).primitive() for g in gens]
        else:
            if attempt > 0:
                break
            cut = [g.primitive() for g in gens]
        cut = [g for g in cut if g]
        cut.sort(key=lambda h: len(h.t))
        for i in range(len(cut)):
            for j in range(i + 1, min(len(cut), i + 4)):
                if _pair_cuts_out_points(cut[i], cut[j]):
                    return True
        # individual generators may share factors (mirrors inside minors);
        # two random combinations behave like a regular sequence
        for _ in range(4):
            f = plane_ring.zero() if n > 2 else ring.zero()
            g = f
            for c in cut:
                f = f + c.scale(rng.randint(-5, 5))
                g = g + c.scale(rng.randint(-5, 5))
            if f and g and _pair_cuts_out_points(f.primitive(), g.primitive()):
                return True
    return False


def squarefree_test(f):
    """Jacobian criterion in characteristic zero: f squarefree iff
    V(f, grad f) has dimension at most dim V(f) - 1."""
    if not f:
        raise EngineError("squarefree test of the zero polynomial")
    if f.is_constant():
        return True
    n = f.ring.n
    gens = [f] + [g for g in f.grad() if g]
    dim = krull_dimension(gens)
    return dim <= n - 2


def _gcd(a, b):
    """A gcd of two univariate polynomials, by Euclid's algorithm."""
    while b:
        a, b = b, a.reduce([b])[1]
    return a
