"""Exact ideal membership with witnesses, Groebner bases, dimension.

The default decision path for homogeneous membership is a single-degree
linear solve over the coefficient field: the cofactors of a homogeneous
membership live in one graded piece, so membership is one sparse exact
linear system.  Systems above a size threshold, over Q or Q(sqrt d), go
through elimination modulo word-size primes with rational reconstruction;
every reconstructed answer is re-verified exactly, and non-membership is
only ever reported together with an exactly verified separating
functional.  All exact scalar elimination (solves, ranks, nullspaces) runs
through one kernel: `echelon`, `reduce_row` and `back_substitute`.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .poly import Poly, PolyRing, poly_pairing
from .scalars import Quad


class EngineError(ValueError):
    pass


class BudgetExceeded(RuntimeError):
    """Raised when a step budget runs out; callers turn this into an
    'indeterminate' certificate rather than hanging."""


@dataclass
class Budget:
    steps: int | None = None
    used: int = 0

    def tick(self, n=1):
        self.used += n
        if self.steps is not None and self.used > self.steps:
            raise BudgetExceeded(f"budget of {self.steps} steps exhausted")


def _budget(b):
    return b if b is not None else Budget(None)


# ---------------------------------------------------------------------------
# ideal bases and witnesses


@dataclass
class IdealBasis:
    """A generator list with grading metadata and an optional Groebner flag."""

    gens: list
    homogeneous: bool = False
    groebner: bool = False

    def __post_init__(self):
        self.gens = [g for g in self.gens if g]
        if self.homogeneous:
            for g in self.gens:
                if g.whomog_degree() is None:
                    raise EngineError("non-homogeneous generator in graded basis")

    @property
    def ring(self):
        return self.gens[0].ring


class Witness:
    """Cofactors c_i with sum(c_i * g_i) == target, verified on construction."""

    __slots__ = ("target", "gens", "cofactors")

    def __init__(self, target, gens, cofactors, check=True):
        self.target = target
        self.gens = list(gens)
        self.cofactors = list(cofactors)
        if check and not self.verify():
            raise EngineError("witness identity failed to verify")

    def verify(self):
        acc = self.target.ring.zero()
        for g, c in zip(self.gens, self.cofactors):
            if c:
                acc = acc + c * g
        return acc == self.target

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

    def __init__(self, target, gens, functional, check=True):
        self.target = target
        self.gens = list(gens)
        self.functional = functional
        if check and not self.verify():
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
                shifted = Poly(ring, {tuple(a + b for a, b in zip(mu, e)): c for e, c in g.t.items()})
                if poly_pairing(self.functional, shifted) != 0:
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


def reduce_row(work, rhs, pivots, budget):
    """Reduce a sparse row (dict unknown->scalar) and its right-hand sides
    in place against the pivot rows until no pivot unknown is left in it."""
    while True:
        hits = [u for u in work if u in pivots]
        if not hits:
            return
        budget.tick(len(hits))
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


def echelon(eqs, budget=None):
    """Forward elimination of (row dict, rhs list) equations.

    Returns (pivots, bad): pivots maps the smallest unknown of each reduced
    row to that row normalized to 1 there, with its right-hand sides; a
    pivot row holds only unknowns larger than its pivot.  bad is the set of
    right-hand side indices some equation proved inconsistent."""
    budget = _budget(budget)
    pivots = {}
    bad = set()
    for row, rhs in eqs:
        work = dict(row)
        r = list(rhs)
        reduce_row(work, r, pivots, budget)
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


def solve_linear(eqs, nun, nrhs, budget=None):
    """Solve a sparse linear system with several right-hand sides.

    eqs: list of (coeff dict unknown->scalar, rhs list of length nrhs).
    Returns a list of length nrhs whose entries are either a dict
    unknown->value (free unknowns zero) or None when that rhs is
    inconsistent.  Forward elimination with back substitution; pivots are
    the smallest unknown of each reduced row, so the result is
    deterministic.
    """
    pivots, bad = echelon(eqs, budget)
    return [None if t in bad else back_substitute(pivots, t) for t in range(nrhs)]


def rank_of_vectors(vecs, budget=None):
    """Rank of a list of sparse vectors (dicts key->scalar)."""
    return len(echelon(((vec, ()) for vec in vecs), budget)[0])


# ---------------------------------------------------------------------------
# modular fast path

_PRIME_COUNT = 48


def _gen_primes():
    # word-size primes, 3 mod 4 so square roots are single powers;
    # products of two residues stay inside int64
    primes = []
    cand = (1 << 25) - 1
    while len(primes) < _PRIME_COUNT:
        cand += 2
        p = cand
        if p % 4 != 3 or p % 3 == 0 or p % 5 == 0 or p % 7 == 0:
            continue
        is_p = True
        f = 11
        while f * f <= p:
            if p % f == 0:
                is_p = False
                break
            f += 2
        if is_p:
            primes.append(p)
    return primes


_PRIMES = _gen_primes()


def _primes_for(d):
    """Primes where d is a quadratic residue, with a canonical square root
    (all generated primes are 3 mod 4, so the root is a power)."""
    if d is None:
        return [(p, None) for p in _PRIMES]
    out = []
    for p in _PRIMES:
        if pow(d, (p - 1) // 2, p) == 1:
            s = pow(d, (p + 1) // 4, p)
            out.append((p, s))
    return out


MODULAR_THRESHOLD = 120_000
MODULAR_THRESHOLD_QUAD = 30_000


def _rat_reconstruct(r, m):
    """Wang rational reconstruction of r mod m; None if no small fraction."""
    bound = int(m**0.5) // 2 + 1
    v0, v1 = (m, 0), (r % m, 1)
    while v1[0] >= bound:
        q = v0[0] // v1[0]
        v0, v1 = v1, (v0[0] - q * v1[0], v0[1] - q * v1[1])
    n, d = v1[0], v1[1]
    if d == 0 or abs(d) >= bound:
        return None
    if d < 0:
        n, d = -n, -d
    from math import gcd

    if gcd(n, d) != 1 or gcd(d, m) != 1:
        return None
    return Fraction(n, d)


def _rref_mod(M, p, nun):
    """In-place RREF mod p on the first nun columns; returns pivot list."""
    np.mod(M, p, out=M)
    m = M.shape[0]
    r = 0
    pivots = []
    for c in range(nun):
        sub = M[r:, c]
        nz = np.nonzero(sub)[0]
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
        pivots.append((r, c))
        r += 1
        if r == m:
            break
    return pivots


def _columns_to_int(cols, row_index):
    """Clear denominators columnwise.  Entries become integer pairs
    (rational part, surd part); the surd part is zero in rational contexts.
    Returns (list of dicts row -> (na, nb), scales)."""
    int_cols = []
    scales = []
    for col in cols:
        denlcm = 1
        for c in col.values():
            if isinstance(c, Quad):
                for q in (c.a, c.b):
                    denlcm = denlcm * q.denominator // _gcd(denlcm, q.denominator)
            else:
                denlcm = denlcm * c.denominator // _gcd(denlcm, c.denominator)
        vec = {}
        for e, c in col.items():
            if isinstance(c, Quad):
                vec[row_index[e]] = (int(c.a * denlcm), int(c.b * denlcm))
            else:
                vec[row_index[e]] = (int(c * denlcm), 0)
        int_cols.append(vec)
        scales.append(denlcm)
    return int_cols, scales


def _gcd(a, b):
    while b:
        a, b = b, a % b
    return a


def _embed_matrix(int_cols, int_rhs, nrows, nun, nrhs, p, s):
    """Dense matrix of residues for one prime and one embedding of sqrt d."""
    M = np.zeros((nrows, nun + nrhs), dtype=np.int64)
    for j, vec in enumerate(int_cols):
        for r, (na, nb) in vec.items():
            M[r, j] = (na + nb * s) % p if s else na % p
    for t, vec in enumerate(int_rhs):
        for r, (na, nb) in vec.items():
            M[r, nun + t] = (na + nb * s) % p if s else na % p
    return M


def _crt_chain(residues, primes):
    x = 0
    m = 1
    for q, rv in zip(primes, residues):
        inv = pow(m % q, q - 2, q)
        x = x + m * ((rv - x) * inv % q)
        m *= q
    return x, m


def _modular_solve(cols, targets, row_index, budget, d=None):
    """Multi-rhs modular solve; returns a list of candidate solutions per
    target (dict unknown -> scalar), with None for targets the modular run
    could not settle.  Candidates are NOT trusted: callers verify exactly.

    Quadratic contexts embed sqrt(d) as each of the two square roots mod p;
    the half sum and half difference of the two solves recover the rational
    and surd parts."""
    nun = len(cols)
    nrhs = len(targets)
    nrows = len(row_index)
    int_cols, col_scales = _columns_to_int(cols, row_index)
    int_rhs, rhs_scales = _columns_to_int(targets, row_index)

    res_a = {}
    res_b = {}
    used_primes = []
    pattern = None
    doubtful = [False] * nrhs
    for p, s in _primes_for(d):
        budget.tick(nrows * nun // 64 + 1)
        runs = []
        ok = True
        for emb in ((s,) if d is None else (s, p - s)):
            M = _embed_matrix(int_cols, int_rhs, nrows, nun, nrhs, p, emb if d else 0)
            pivots = _rref_mod(M, p, nun)
            pat = tuple(c for _, c in pivots)
            if pattern is None:
                pattern = pat
            elif pat != pattern:
                ok = False
                break
            unk_zero = ~M[:, :nun].any(axis=1)
            for t in range(nrhs):
                if np.any(unk_zero & (M[:, nun + t] != 0)):
                    doubtful[t] = True
            runs.append(({c: r for r, c in pivots}, M))
        if not ok:
            continue
        used_primes.append(p)
        inv2 = pow(2, p - 2, p)
        inv2s = pow(2 * s % p, p - 2, p) if d is not None else 0
        for t in range(nrhs):
            for c in pattern:
                if d is None:
                    piv_rows, M = runs[0]
                    res_a.setdefault((t, c), []).append(int(M[piv_rows[c], nun + t]))
                else:
                    (rows1, M1), (rows2, M2) = runs
                    v1 = int(M1[rows1[c], nun + t])
                    v2 = int(M2[rows2[c], nun + t])
                    res_a.setdefault((t, c), []).append((v1 + v2) * inv2 % p)
                    res_b.setdefault((t, c), []).append((v1 - v2) * inv2s % p)
        if len(used_primes) < 2:
            continue
        recon = [None] * nrhs
        all_settled = True
        for t in range(nrhs):
            if doubtful[t]:
                continue
            sol = {}
            good = True
            for c in pattern:
                xa, modulus = _crt_chain(res_a.get((t, c), []), used_primes)
                fa = _rat_reconstruct(xa % modulus, modulus)
                if fa is None:
                    good = False
                    break
                if d is None:
                    if fa:
                        sol[c] = fa
                    continue
                xb, _ = _crt_chain(res_b.get((t, c), []), used_primes)
                fb = _rat_reconstruct(xb % modulus, modulus)
                if fb is None:
                    good = False
                    break
                val = Quad(fa, fb, d)
                if val:
                    sol[c] = val
            if not good:
                all_settled = False
                continue
            recon[t] = sol
        if all_settled:
            out = []
            for t in range(nrhs):
                if recon[t] is None:
                    out.append(None)
                    continue
                # undo column scaling: cofactor = x * col_scale / rhs_scale
                out.append(
                    {
                        c: v * col_scales[c] * Fraction(1, rhs_scales[t])
                        for c, v in recon[t].items()
                    }
                )
            return out
    return [None] * nrhs


# ---------------------------------------------------------------------------
# graded membership


def _shift_poly(ring, g, mu):
    return {tuple(a + b for a, b in zip(mu, e)): c for e, c in g.t.items()}


def graded_membership(target, gens, budget=None):
    """Decide membership of a homogeneous target in a homogeneous ideal.

    Returns a Witness (with cofactors homogeneous of the complementary
    degrees) or a NonMembership functional.  The decision is exact.
    """
    out = graded_membership_batch([target], gens, budget)
    return out[0]


def graded_membership_batch(targets, gens, budget=None):
    """Membership of several targets of equal degree in one graded solve."""
    budget = _budget(budget)
    ring = targets[0].ring
    gens = [g for g in gens if g]
    if not gens:
        raise EngineError("empty generator list")
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

    cols = []  # (gen index, cofactor monomial)
    col_vecs = []
    row_index = {}

    def row_of(e):
        got = row_index.get(e)
        if got is None:
            got = len(row_index)
            row_index[e] = got
        return got

    for i, (g, dg) in enumerate(zip(gens, gdegs)):
        cd = dt - dg
        if cd < 0:
            continue
        for mu in ring.monomials(cd):
            vec = _shift_poly(ring, g, mu)
            cols.append((i, mu))
            col_vecs.append(vec)
    for t in targets:
        for e in t.t:
            row_of(e)
    for vec in col_vecs:
        for e in vec:
            row_of(e)

    target_vecs = [dict(t.t) for t in targets]
    results = [None] * len(targets)

    def witness_from(sol, target):
        cof_terms = [dict() for _ in gens]
        for j, v in sol.items():
            i, mu = cols[j]
            if v:
                cof_terms[i][mu] = v
        return Witness(target, gens, [ring.from_dict(tm) for tm in cof_terms])

    pending = list(range(len(targets)))
    threshold = MODULAR_THRESHOLD if ring.d is None else MODULAR_THRESHOLD_QUAD
    if len(row_index) * max(len(cols), 1) > threshold:
        # modular answers are advisory: only an exactly verified witness is
        # accepted, everything else falls through to the exact path
        modsol = _modular_solve(col_vecs, target_vecs, row_index, budget, d=ring.d)
        still = []
        for t_idx in pending:
            sol = modsol[t_idx]
            if sol is None:
                still.append(t_idx)
                continue
            try:
                results[t_idx] = witness_from(sol, targets[t_idx])
            except EngineError:
                still.append(t_idx)
        pending = still

    if pending:
        # exact path: one equation per monomial of degree dt
        eqs = {}
        for j, vec in enumerate(col_vecs):
            for e, c in vec.items():
                eqs.setdefault(e, {})[j] = c
        zero = ring.coeff(0)
        eq_list = []
        for e in row_index:
            row = eqs.get(e, {})
            rhs = [target_vecs[t].get(e, zero) for t in pending]
            eq_list.append((row, rhs))
        solutions = solve_linear(eq_list, len(cols), len(pending), budget)
        for pos, t_idx in enumerate(pending):
            sol = solutions[pos]
            target = targets[t_idx]
            if sol is None:
                results[t_idx] = _nonmember_functional(
                    target, gens, cols, col_vecs, row_index, budget
                )
            else:
                results[t_idx] = witness_from(sol, target)
    return results


def _nonmember_functional(target, gens, cols, col_vecs, row_index, budget):
    """Build and exactly verify a separating functional for a non-member."""
    ring = target.ring
    # unknowns: one per row (monomial); equations: orthogonality to each
    # column, plus pairing with the target equal to 1
    eqs = []
    for vec in col_vecs:
        row = {row_index[e]: c for e, c in vec.items()}
        eqs.append((row, [ring.coeff(0)]))
    eqs.append(({row_index[e]: c for e, c in target.t.items()}, [ring.coeff(1)]))
    sols = solve_linear(eqs, len(row_index), 1, budget)
    if sols[0] is None:
        raise EngineError("membership solver inconsistency (no functional)")
    rev = {v: k for k, v in row_index.items()}
    func = ring.from_dict({rev[u]: v for u, v in sols[0].items()})
    return NonMembership(target, gens, func)


# ---------------------------------------------------------------------------
# Buchberger


def reduce_full(f, basis, key=None, budget=None):
    """Full normal form of f against a list of nonzero polynomials."""
    if not f:
        return f
    budget = _budget(budget)
    ring = f.ring
    key = key or ring.term_key
    lts = [(g.leading(key), g) for g in basis if g]
    work = dict(f.t)
    rem = {}
    while work:
        budget.tick()
        e = max(work, key=key)
        c = work.pop(e)
        hit = None
        for (ge, gc), g in lts:
            if all(a >= b for a, b in zip(e, ge)):
                hit = (ge, gc, g)
                break
        if hit is None:
            rem[e] = c
            continue
        ge, gc, g = hit
        qe = tuple(a - b for a, b in zip(e, ge))
        qc = c / gc
        for e2, c2 in g.t.items():
            if e2 == ge:
                continue
            e3 = tuple(a + b for a, b in zip(qe, e2))
            s = work.get(e3, None)
            s = -qc * c2 if s is None else s - qc * c2
            if s:
                work[e3] = s
            else:
                work.pop(e3, None)
    return Poly(ring, rem)


def _spair(f, g, key):
    fe, fc = f.leading(key)
    ge, gc = g.leading(key)
    lcm = tuple(max(a, b) for a, b in zip(fe, ge))
    mf = tuple(a - b for a, b in zip(lcm, fe))
    mg = tuple(a - b for a, b in zip(lcm, ge))
    tf = Poly(f.ring, _shift_poly(f.ring, f, mf)).scale(1 / fc)
    tg = Poly(g.ring, _shift_poly(g.ring, g, mg)).scale(1 / gc)
    return tf - tg


def groebner(gens, key=None, budget=None):
    """Reduced Groebner basis via Buchberger with sugar selection and the
    coprimality and chain criteria."""
    budget = _budget(budget)
    gens = [g for g in gens if g]
    if not gens:
        return []
    ring = gens[0].ring
    key = key or ring.term_key

    G = []
    sugars = []
    for g in sorted(gens, key=lambda h: key(h.leading(key)[0])):
        r = reduce_full(g, G, key, budget)
        if r:
            G.append(r.monic(key))
            sugars.append(r.deg())

    heap = []
    counter = 0
    done_pairs = set()

    def lcm_exp(i, j):
        ei = G[i].leading(key)[0]
        ej = G[j].leading(key)[0]
        return tuple(max(a, b) for a, b in zip(ei, ej))

    def push_pairs(j):
        nonlocal counter
        ej = G[j].leading(key)[0]
        for i in range(j):
            ei = G[i].leading(key)[0]
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
        budget.tick()
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
            ek = G[k].leading(key)[0]
            if all(a >= b for a, b in zip(lcm, ek)):
                pik = (min(i, k), max(i, k))
                pjk = (min(j, k), max(j, k))
                if pik in done_pairs and pjk in done_pairs:
                    skip = True
                    break
        if skip:
            continue
        s = _spair(G[i], G[j], key)
        r = reduce_full(s, G, key, budget)
        if r:
            G.append(r.monic(key))
            sugars.append(max(sugars[i], sugars[j], r.deg()))
            push_pairs(len(G) - 1)

    # interreduce to the unique reduced basis
    reduced = []
    for i, g in enumerate(G):
        others = [h for j, h in enumerate(G) if j != i]
        r = reduce_full(g, others, key, budget)
        if r:
            reduced.append(r.monic(key))
    # removing redundant members can create duplicates; dedupe and sort
    seen = []
    for g in reduced:
        if all(g != h for h in seen):
            seen.append(g)
    final = []
    for i, g in enumerate(seen):
        others = [h for j, h in enumerate(seen) if j != i]
        r = reduce_full(g, others, key, budget)
        if r:
            final.append(r.monic(key))
    final.sort(key=lambda h: key(h.leading(key)[0]), reverse=True)
    return final


def normal_form(f, gb, key=None, budget=None):
    """Normal form against a Groebner basis; zero iff f is in the ideal.
    Accepts a flagged IdealBasis or a plain list of basis elements."""
    if isinstance(gb, IdealBasis):
        if not gb.groebner:
            raise EngineError("normal form requires a Groebner-flagged basis")
        gb = gb.gens
    return reduce_full(f, gb, key, budget)


def groebner_basis(basis: IdealBasis, key=None, budget=None) -> IdealBasis:
    out = IdealBasis(groebner(basis.gens, key, budget), homogeneous=basis.homogeneous)
    out.groebner = True
    return out


def ideal_member(f, basis: IdealBasis, key=None, budget=None):
    gb = basis.gens if basis.groebner else groebner(basis.gens, key, budget)
    return not normal_form(f, gb, key, budget)


def ideal_equal(a: IdealBasis, b: IdealBasis, budget=None):
    """Mutual inclusion; graded solves where both sides are homogeneous."""
    budget = _budget(budget)
    if a.homogeneous and b.homogeneous:
        for f in a.gens:
            if isinstance(graded_membership(f, b.gens, budget), NonMembership):
                return False
        for f in b.gens:
            if isinstance(graded_membership(f, a.gens, budget), NonMembership):
                return False
        return True
    gb_a = a.gens if a.groebner else groebner(a.gens, budget=budget)
    gb_b = b.gens if b.groebner else groebner(b.gens, budget=budget)
    return all(not normal_form(f, gb_b, budget=budget) for f in a.gens) and all(
        not normal_form(f, gb_a, budget=budget) for f in b.gens
    )


# ---------------------------------------------------------------------------
# dimension, reducedness, root counting


def krull_dimension(basis: IdealBasis, budget=None):
    """Dimension of V(I): maximal size of a variable subset meeting no
    leading-term support; -1 for the empty variety."""
    if not basis.gens:
        raise EngineError("dimension of the zero ideal: provide a ring explicitly")
    gb = basis.gens if basis.groebner else groebner(basis.gens, budget=budget)
    if not gb:
        return basis.ring.n
    ring = gb[0].ring
    n = ring.n
    key = ring.term_key
    lts = [g.leading(key)[0] for g in gb]
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


def _bivariate_coeff_lists(f, var):
    """Coefficients of f with respect to one of two variables, as
    coefficient lists of univariate polynomials in the other variable."""
    other = 1 - var
    vdeg = max(e[var] for e in f.t)
    odeg = max(e[other] for e in f.t)
    zero = f.ring.coeff(0)
    out = [[zero] * (odeg + 1) for _ in range(vdeg + 1)]
    for e, c in f.t.items():
        out[e[var]][e[other]] = c
    return out


def _pair_cuts_out_points(f, g, budget=None):
    """Sound finiteness test for V(f, g) in two variables: the pair has
    trivial common content and a nonzero resultant specialization, shown
    by a constant gcd at a point where a leading coefficient survives."""
    budget = _budget(budget)
    ring = f.ring
    zero = ring.coeff(0)
    if f.is_constant() or g.is_constant():
        return bool(f.is_constant() and f) or bool(g.is_constant() and g)
    fc = _bivariate_coeff_lists(f, 1)
    gc = _bivariate_coeff_lists(g, 1)
    if len(fc) == 1 or len(gc) == 1:
        return False  # no dependence on the second variable; try another cut
    # a common factor free of the second variable divides every coefficient
    acc = None
    for rows in (fc, gc):
        for row in rows:
            if _uni_deg(row) < 0:
                continue
            acc = row if acc is None else _uni_gcd(acc, row)
            budget.tick()
    if acc is None or _uni_deg(acc) > 0:
        return False
    # one nonzero value of the resultant in the first variable proves the
    # resultant is a nonzero polynomial, hence no common component.  The
    # specialization at u0 is the resultant of the specialized pair only
    # where a leading coefficient in the second variable survives; there,
    # for two nonzero polynomials, it is nonzero iff their gcd is constant.
    for u0 in (2, 3, -1, 5, -4, 7, 9, -8, 11, 13):
        budget.tick()
        u0 = ring.coeff(u0)
        fs = [sum((row[i] * u0**i for i in range(len(row))), zero) for row in fc]
        gs = [sum((row[i] * u0**i for i in range(len(row))), zero) for row in gc]
        if not (fs[-1] or gs[-1]) or _uni_deg(fs) < 0 or _uni_deg(gs) < 0:
            continue
        if _uni_deg(_uni_gcd(fs, gs)) == 0:
            return True
    return False


def codim_at_least_two(gens, seed=1, budget=None, tries=6):
    """Sound one-sided test that V(gens) has codimension >= 2.

    The variety is a (weighted) cone, so cutting with a linear 2-plane
    through the origin can only drop the dimension by the cut codimension;
    finiteness of the section is then certified by a coprime pair among
    the restricted generators (trivial common content plus a constant gcd
    at a point where a leading coefficient survives)."""
    import random

    gens = [g for g in gens if g]
    if not gens:
        return False
    ring = gens[0].ring
    n = ring.n
    rng = random.Random(seed)
    plane_ring = PolyRing(("u_", "v_"), d=ring.d)
    for attempt in range(tries):
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
                if _pair_cuts_out_points(cut[i], cut[j], budget):
                    return True
        # individual generators may share factors (mirrors inside minors);
        # two random combinations behave like a regular sequence
        for _ in range(4):
            f = plane_ring.zero() if n > 2 else ring.zero()
            g = f
            for c in cut:
                f = f + c.scale(rng.randint(-5, 5))
                g = g + c.scale(rng.randint(-5, 5))
            if f and g and _pair_cuts_out_points(f.primitive(), g.primitive(), budget):
                return True
    return False


def squarefree_test(f, budget=None):
    """Jacobian criterion in characteristic zero: f squarefree iff
    V(f, grad f) has dimension at most dim V(f) - 1."""
    if not f:
        raise EngineError("squarefree test of the zero polynomial")
    if f.is_constant():
        return True
    n = f.ring.n
    gens = [f] + [g for g in f.grad() if g]
    dim = krull_dimension(IdealBasis(gens), budget)
    return dim <= n - 2


def _univariate_coeffs(f):
    """Coefficient list of a univariate polynomial (any single active var)."""
    active = set()
    for e in f.t:
        for i, k in enumerate(e):
            if k:
                active.add(i)
    if len(active) > 1:
        raise EngineError("polynomial is not univariate")
    var = active.pop() if active else 0
    deg = max((e[var] for e in f.t), default=0)
    zero = f.ring.coeff(0)
    out = [zero] * (deg + 1)
    for e, c in f.t.items():
        out[e[var]] = c
    return out


def _uni_deg(cs):
    for i in range(len(cs) - 1, -1, -1):
        if cs[i]:
            return i
    return -1


def _uni_mod(a, b):
    """Remainder of univariate coefficient lists over a field."""
    a = list(a)
    db = _uni_deg(b)
    inv = 1 / b[db]
    while True:
        da = _uni_deg(a)
        if da < db:
            return a[: da + 1]
        c = a[da] * inv
        for i in range(db + 1):
            a[da - db + i] = a[da - db + i] - c * b[i]
        a[da] = a[da] * 0  # force exact zero

def _uni_gcd(a, b):
    a, b = list(a), list(b)
    while _uni_deg(b) >= 0:
        a, b = b, _uni_mod(a, b)
    return a


def distinct_root_count(f):
    """Number of distinct complex roots: deg f - deg gcd(f, f')."""
    if not f:
        raise EngineError("root count of the zero polynomial")
    cs = _univariate_coeffs(f)
    d = _uni_deg(cs)
    if d <= 0:
        return 0
    dcs = [cs[i] * i for i in range(1, len(cs))]
    g = _uni_gcd(cs, dcs)
    return d - _uni_deg(g)


def minimal_polynomial(mat, ring):
    """Monic minimal polynomial of a square scalar matrix, as a univariate
    Poly in the given one-variable ring."""
    q = len(mat)
    zero = ring.coeff(0)
    one = ring.coeff(1)
    if q == 0:
        return ring.one()

    def mat_mul(a, b):
        return [
            [sum((a[i][k] * b[k][j] for k in range(q)), zero) for j in range(q)]
            for i in range(q)
        ]

    powers = [[[one if i == j else zero for j in range(q)] for i in range(q)]]
    while True:
        k = len(powers)
        powers.append(mat_mul(powers[-1], mat))
        # look for the first dependence x^k = sum c_i x^i
        eqs = []
        for i in range(q):
            for j in range(q):
                row = {t: powers[t][i][j] for t in range(k) if powers[t][i][j]}
                eqs.append((row, [powers[k][i][j]]))
        sols = solve_linear(eqs, k, 1)
        if sols[0] is not None:
            coeffs = {(k,): one}
            for t, v in sols[0].items():
                if v:
                    coeffs[(t,)] = -v
            return Poly(ring, coeffs)
