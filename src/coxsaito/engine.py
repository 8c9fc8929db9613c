"""Exact ideal membership with witnesses, Groebner bases, dimension.

The cofactors of a homogeneous membership live in one graded piece, so
membership is one sparse linear system over the coefficient field.  Its
rows, one per monomial of the support, are numbered in the ring's term
order (the order of the packed keys), so a separating functional does not
depend on the order in which terms were stored.  Each column is a
generator times a cofactor monomial, read straight off the generator's
integer form: its numerators, under keys shifted by the monomial's key,
over its denominator.  The system has one sparse form, built once: a
(row, column, numerator) triple per nonzero entry and one denominator
per column, the targets' columns after the unknowns'.  Every such
system, over Q or Q(sqrt d), is solved by one elimination modulo a
word-size prime (once per embedding of sqrt d, and over Q when no entry
has a surd part) and p-adic lifting with rational reconstruction
(Dixon); for a target a prime finds inconsistent, `_modular_solve`
forms the transposed system from the same triples (row and column
swapped, the target's equation asking for its denominator) and lifts its
separating functional the same way, from that prime on.  The modular
kernel (`_rref_mod`) eliminates forward only, on the columns right of each
pivot's, reduces mod p only once every 2^62 // p^2 updates (int64
cannot overflow in between), back-substitutes on the right-hand sides
alone, and leaves in the pivot columns the LU factors of the pivot rows
(multipliers, pivot inverses and the row order).  Each lifting step is
one pair of triangular solves on those factors (`_solve_mod`) and one
exact residual update, in int64 while a proven bound keeps it there and
in Python ints past it.  A candidate leaves it as integers, numerators
over one denominator (`accept(t, den, nums)` in `_modular_solve`), and
each cofactor or functional is built from them as an integer form, with
no scalar on the way.  Modular answers are only candidates: a witness or
a functional is accepted only once it verifies exactly, and
non-membership is only ever reported together with such a functional.
Lifting goes on until every target is settled or its subsystem is shown
to be the wrong one; a prime unlucky for a target hands it on to the
other system or the next prime, and a target that no prime settles is an
EngineError.

The exact kernel (`echelon`, `reduce_row` and `back_substitute`) runs
every other exact scalar elimination: solves, ranks and nullspaces.

Buchberger's algorithm serves the reducedness test alone (through the
dimension of the singular locus).  The codimension-two test is a
single one-sided search: a seeded plane cut, then pairs of random combinations
of the cut generators, one of which certifies the claim once it cuts out
finitely many points; a search that certifies nothing refutes nothing.
Buchberger's normal forms, and the univariate gcds of the
codimension-two test, are all division by `Poly.reduce`.
"""

from __future__ import annotations

import heapq
import random
from fractions import Fraction
from functools import cache
from itertools import count
from math import gcd, isqrt, lcm

import numpy as np

from .poly import Poly, PolyRing, _reduced, as_poly, dot, poly_pairing


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
        """The witness obj records, verified; its target and generators
        may be polynomials already parsed (`as_poly`), its cofactors are
        JSON."""
        return Witness(
            as_poly(obj["target"], ring),
            [as_poly(g, ring) for g in obj["gens"]],
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
        """The certificate obj records, verified; each polynomial may be
        one already parsed (`as_poly`)."""
        return NonMembership(
            as_poly(obj["target"], ring),
            [as_poly(g, ring) for g in obj["gens"]],
            as_poly(obj["functional"], ring),
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


def solve_linear(eqs, nrhs):
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
    (all generated primes are 3 mod 4, so the root is a power); every
    prime, with root 0, when d is None."""
    if d is None:
        return tuple((p, 0) for p in _PRIMES)
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


def _rref_mod(M, p, nun, order):
    """Row reduction mod p, in place, of the first nun columns of a matrix
    of residues, carrying the right-hand-side columns M[:, nun:] along.
    Returns the pivot columns C; their rows come first, in pivot order.
    It leaves the values of the pivot unknowns (free unknowns zero) in
    M[:rank, nun:] and the residues that make a right-hand side
    inconsistent in M[rank:, nun:], all reduced mod p.

    Elimination runs forward only, below each pivot, on the columns right
    of the pivot's.  Each update adds less than p^2 in magnitude to an
    entry, so the rows below are reduced mod p only once every room =
    2^62 // p^2 updates, and int64 cannot overflow.  Rows are swapped
    whole, and the list order (the original index of each row) with them.
    Each pivot row is normalized to 1 at its pivot, and the pivot's
    inverse is kept there instead; a row below keeps its multiplier,
    unreduced, in the entry of the pivot's column, which no later update
    reads.  So the pivot columns hold LU factors of the rows in their new
    order: with F = M[:rank, C] % p, L lower triangular with F's entries
    below the diagonal and the pivots (the inverses of F's diagonal) on
    it, and U unit upper triangular with F's entries above it,
    A[order[:rank]][:, C] = L U mod p; every later row is its multipliers
    times U.  Back substitution then runs on the right-hand-side columns
    alone."""
    m = M.shape[0]
    room = max(1, (1 << 62) // (p * p))
    pivots = []
    pending = 0
    for c in range(nun):
        r = len(pivots)
        if r == m:
            break
        col = M[r:, c] % p
        nz = col.nonzero()[0]
        if not nz.size:
            continue
        i = int(nz[0])
        if i:
            top = M[r].copy()
            M[r] = M[r + i]
            M[r + i] = top
            order[r], order[r + i] = order[r + i], order[r]
            col[0], col[i] = col[i], col[0]
            nz = col[1:].nonzero()[0] + 1
        else:
            nz = nz[1:]
        inv = pow(int(col[0]), -1, p)
        row = M[r, c + 1:] % p * inv % p
        M[r, c] = inv
        M[r, c + 1:] = row
        if nz.size:
            M[nz + r, c + 1:] -= col[nz, None] * row
            pending += 1
            if pending == room:
                M[r + 1:, c + 1:] %= p
                pending = 0
        pivots.append(c)
    rank = len(pivots)
    M[rank:, nun:] %= p
    _back_substitute_mod(M[:rank, pivots], M[:rank, nun:], p)
    return tuple(pivots)


def _back_substitute_mod(F, X, p):
    """X <- U^-1 X mod p, in place, for the unit upper triangular U whose
    entries above the diagonal are F's: x_k = b_k - sum over later j of
    U[k, j] x_j, from the last, each a sum of at most room products."""
    rank = len(F)
    room = max(1, (1 << 62) // (p * p))
    for k in range(rank - 2, -1, -1):
        for j in range(k + 1, rank, room):
            X[k] = (X[k] - F[k, j:j + room] @ X[j:j + room]) % p


def _embed(parts, root, p):
    """The residues mod p, as int64, of an integer array's rational parts
    parts[0] plus root times its surd parts parts[-1] (root 0 over Q)."""
    res = parts[0] % p
    if root:
        res = (res + parts[-1] % p * root) % p
    return res.astype(np.int64, copy=False)


def _solve_mod(F, X, p):
    """A_RC^-1 X mod p, in place, from the factors F = M[:rank, C] % p that
    `_rref_mod` leaves: forward substitution with L, then back
    substitution with U.  X holds residues, one row per pivot row in the
    kernel's row order; its rows come out as the pivot unknowns' values."""
    room = max(1, (1 << 62) // (p * p))
    for k in range(len(F)):
        for j in range(0, k, room):
            e = min(k, j + room)
            X[k] = (X[k] - F[k, j:e] @ X[j:e]) % p
        X[k] = X[k] * F[k, k] % p
    _back_substitute_mod(F, X, p)
    return X


def _modular_solve(entries, dens, nun, nrows, d, accept, functional=None, first=0):
    """Solve for several right-hand sides by one elimination modulo a
    word-size prime and p-adic lifting (Dixon's method).

    The system is one sparse integer form: entries holds a (row, column,
    numerator) triple for each nonzero entry, an int over Q and the pair
    (A, B) over Q(sqrt d); the columns are the nun unknowns, then the
    right-hand sides, and dens holds one positive denominator per column,
    under which each of its numerators stands.  The first prime eliminates
    the numerators once per embedding, with every right-hand side
    (`_rref_mod`); its pivots select the nonsingular rank x rank
    subsystem A_RC, whose LU factors the kernel leaves.  Its values of the
    pivot unknowns are the first p-adic digits y_0 of the solution x of
    A_RC x = b_R; then, exactly in integers (pairs (A, B) over Z[sqrt d]),
    r_0 = b_R, r_(k+1) = (r_k - A_RC y_k) / p and y_(k+1) = A_RC^-1
    r_(k+1) mod p (`_solve_mod` on the factors), so that the sum of
    p^k y_k is x mod p^(k+1).  The residuals stay in int64 when
    (2 max|entry| max(d, 1) + 1) rank p < 2^62, and are Python ints
    otherwise: with K = rank (1 + d) max|entry| (d = 0 over Q), each
    residual entry stays below max|entry| + 2 K and each update adds less
    than K p, so no value on the way reaches 2^63.

    After each step that brings the number of digits to a power of two,
    each unsettled target whose values reconstruct to a candidate is
    passed to accept(t, den, nums): the candidate's values, free unknowns
    zero and zeros left out, as integer numerators nums (unknown ->
    numerator, of the same shape as the entries) over the one positive
    denominator den, with the scaling of the columns and of the target
    folded in.  accept returns the answer built from it once that checks
    exactly and raises EngineError otherwise.  Lifting has no step cap:
    the digits converge to the rational solution x, which reconstructs
    once the modulus passes four times the square of its largest numerator
    or denominator, and is then accepted or rejected twice in a row.  A
    target whose residual r_k is zero is settled at once: its digits so
    far are x exactly, in integers, and go to accept; if accept rejects
    them, the subsystem is the wrong one and the target goes on to the
    next prime.
    Primes are tried from the one numbered first.  A target t that prime
    number i finds inconsistent (in its first embedding) has its transposed
    system solved, from prime i on, when a functional callback is given:
    one unknown per row; one equation per unknown column, its numerators
    paired to 0 (the column's denominator is a common factor), and one for
    the target, its numerators paired to its denominator; all with
    denominator 1.  That solve's candidates go to functional(t, den, nums),
    which returns the answer built from them (a separating functional) once
    it checks exactly and raises EngineError otherwise; a target it leaves
    unsettled goes on to the next prime.  With no functional, such a target
    is left unsettled.  Returns (answers, inconsistent): the answers, None
    where there was none, and the targets left inconsistent.

    A candidate rejected twice in a row with the same value means the
    subsystem is the wrong one (the prime was unlucky, or the target is
    inconsistent but not mod p); such targets go on to the next prime.  A
    prime whose pivot columns are fewer or later than the best seen is
    unlucky and skipped; a better one restarts the search.  Quadratic
    contexts embed sqrt(d) as each of the two square roots mod p; the half
    sum and half difference of the two solves recover the rational and
    surd parts; the second embedding eliminates A_RC alone, and a prime
    where that is singular is skipped.  A quadratic system with no surd
    part is solved over Q, with one embedding per prime.  An unlucky
    first prime whose subsystem still has a solution of the whole system
    gives that solution, verified but on other pivots than the exact
    kernel's."""
    nrhs = len(dens) - nun
    rows, where, values = zip(*entries) if entries else ((), (), ())
    # the rational parts of the numerators, then their surd parts if any
    parts = [values] if d is None else [[a for a, _ in values], [b for _, b in values]]
    quad = d is not None and any(parts[1])
    parts = parts[:1 + quad]
    try:
        ent = np.array(parts, dtype=np.int64)
    except OverflowError:
        ent = np.array(parts, dtype=object)
    index = (np.array(rows, dtype=np.intp), np.array(where, dtype=np.intp))
    primes = _primes_for(d if quad else None)

    def subsystem(order, pat, p):
        # the integer parts of A_RC and of the targets on its rows, rows in
        # the kernel's order, in int64 when the residuals cannot overflow
        rank = len(pat)
        rowpos = np.full(nrows, -1)
        rowpos[order[:rank]] = range(rank)
        colpos = np.full(nun + nrhs, -1)
        colpos[list(pat)] = range(rank)
        colpos[nun:] = range(rank, rank + nrhs)
        ri, ci = rowpos[index[0]], colpos[index[1]]
        keep = (ri >= 0) & (ci >= 0)
        big = max(int(ent.max(initial=0)), -int(ent.min(initial=0)))
        growth = 2 * big * (d if quad else 1) + 1
        dtype = np.int64 if growth * rank * p < 1 << 62 else object
        S = np.zeros((len(parts), rank, rank + nrhs), dtype=dtype)
        S[:, ri[keep], ci[keep]] = ent[:, keep]
        return S

    def offer(t, cand):
        # accept's answer from (column, value parts) pairs: undo the
        # column scaling, x_c = y_c * scale_c / scale_t
        den = lcm(*(q.denominator for _, v in cand for q in v))
        nums = {c: tuple(q.numerator * (den // q.denominator) * dens[c] for q in v)
                for c, v in cand}
        if d is None:
            nums = {c: a for c, (a,) in nums.items()}
        elif not quad:
            nums = {c: (a, 0) for c, (a,) in nums.items()}
        return accept(t, den * dens[nun + t], nums)

    answers = [None] * nrhs
    inconsistent = set()
    pattern = None
    for i in range(first, len(primes)):
        if all(a is not None or t in inconsistent for t, a in enumerate(answers)):
            break
        p, s = primes[i]
        M = np.zeros((nrows, nun + nrhs), dtype=np.int64)
        M[index] = _embed(ent, s, p)
        order = list(range(nrows))
        pat = _rref_mod(M, p, nun, order)
        rank = len(pat)
        if pattern is not None and (-rank, pat) > (-len(pattern), pattern):
            continue
        # per embedding: its root, its LU factors and its row order within R;
        # the conjugate embedding factors A_RC alone.  zs: the values of the
        # pivot unknowns, step 0's from the eliminations
        embeddings = [(s, M[:rank, list(pat)] % p, slice(None))]
        zs = [M[:rank, nun:]]
        S = None
        if quad:
            S = subsystem(order, pat, p)
            sub = _embed(S, p - s, p)
            within = list(range(rank))
            if _rref_mod(sub, p, rank, within) != tuple(range(rank)):
                continue  # the embeddings disagree: an unlucky prime
            embeddings.append((p - s, sub[:, :rank] % p, within))
            zs.append(sub[:, rank:])
        if pat != pattern:
            pattern, inconsistent = pat, set()
        bad = set(np.flatnonzero(M[rank:, nun:].any(axis=0)).tolist())
        for t in sorted(bad):
            if functional is None:
                inconsistent.add(t)
            elif answers[t] is None:
                # the target's column becomes equation nun, asking for its denominator
                transposed = [(min(c, nun), r, x) for r, c, x in entries if c < nun or c == nun + t]
                transposed.append((nun, nrows, dens[nun + t] if d is None else (dens[nun + t], 0)))
                answers[t] = _modular_solve(
                    transposed, [1] * (nrows + 1), nrows, nun + 1, d,
                    lambda _, den, nums: functional(t, den, nums), first=i,
                )[0][0]
        active = [t for t in range(nrhs) if answers[t] is None and t not in inconsistent | bad]
        if not active:
            continue
        acc = [[[0] * rank for _ in range(nrhs)] for _ in parts]
        last = [None] * nrhs
        modulus = 1

        for step in count():
            if step:
                if step == 1:
                    if S is None:
                        S = subsystem(order, pat, p)
                    A, r = S[:, :, :rank], S[:, :, rank:]
                # r <- (r - A_RC y) / p, exactly, over Z or Z[sqrt d]
                y = [part.astype(S.dtype) for part in y]
                if quad:
                    (Aa, Ab), (ya, yb), (ra, rb) = A, y, r
                    r = [(ra - Aa @ ya - d * (Ab @ yb)) // p, (rb - Aa @ yb - Ab @ ya) // p]
                else:
                    r = [(r[0] - A[0] @ y[0]) // p]
                zs = [_solve_mod(F, _embed(r, root, p)[within], p) for root, F, within in embeddings]
            # the step's digits: rational parts, then surd parts
            if quad:
                y = [(zs[0] + zs[1]) * ((p + 1) // 2) % p,
                     (zs[0] - zs[1]) % p * pow(2 * s, -1, p) % p]
            else:
                y = zs
            for part, digits in zip(acc, y):
                for k, row in enumerate(digits.tolist()):
                    for t in active:
                        part[t][k] += modulus * row[t]
            modulus *= p
            if step:
                # a target whose residual r_step is zero has the digits so
                # far as its exact integer solution
                exact = ~np.any([part != 0 for part in r], axis=(0, 1))
                for t in [t for t in active if exact[t]]:
                    active.remove(t)
                    values = [(c, [part[t][k] for part in acc]) for k, c in enumerate(pat)]
                    cand = [(c, v) for c, v in values if any(v)]
                    if cand == last[t]:
                        continue  # offered and rejected already
                    try:
                        answers[t] = offer(t, cand)
                    except EngineError:
                        pass  # the wrong subsystem: on to the next prime
            if active and step & (step + 1):
                continue  # the digit count is not a power of two: lift on
            for t in list(active):
                # (column, reconstructed parts) of the nonzero values
                cand = []
                for k, c in enumerate(pat):
                    v = [_rat_reconstruct(part[t][k], modulus) for part in acc]
                    if v[0] is None or v[-1] is None:  # one part over Q, two over Q(sqrt d)
                        last[t] = None
                        break
                    if any(v):
                        cand.append((c, v))
                else:
                    if cand == last[t]:
                        active.remove(t)  # the wrong subsystem: on to the next prime
                        continue
                    last[t] = cand
                    try:
                        answers[t] = offer(t, cand)
                        active.remove(t)
                    except EngineError:
                        pass  # a wrong reconstruction: lift further
            if not active:
                break
    return answers, inconsistent


# ---------------------------------------------------------------------------
# graded membership


def _shift_poly(g, mu):
    """g times the monomial with exponent mu."""
    s = g.ring.pack(mu)
    return Poly(g.ring, g.den, {k + s: x for k, x in g.num.items()})


def graded_membership(target, gens):
    """Decide membership of a homogeneous target in a homogeneous ideal.

    Returns a Witness (with cofactors homogeneous of the complementary
    degrees) or a NonMembership functional.  The decision is exact.
    """
    out = graded_membership_batch([target], gens)
    return out[0]


def graded_membership_batch(targets, gens):
    """Membership of several targets of equal degree in one graded solve.

    A target is accepted only as an exactly verified witness, and one a
    prime finds inconsistent only with an exactly verified functional,
    lifted from the transposed system from that prime on (modulo a prime,
    exactly one of the two systems is consistent).  A target that no prime
    settles raises EngineError.  No generators, or only zero ones, span
    the zero ideal: the dual of a monomial of each target then separates
    it."""
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

    # one column (unknown) per generator times cofactor monomial, then one
    # per target; one row per monomial of degree dt in the support, numbered
    # in term order so that the system does not depend on the order terms
    # were stored in.  Each column is its polynomial's integer form (a
    # generator's shifted), as triples over the polynomial's denominator.
    cols = [(i, mu) for i, dg in enumerate(gdegs) for mu in ring.monomials(dt - dg)]
    shifts = [ring.pack(mu) for _, mu in cols]
    polys = [(gens[i], s) for (i, _), s in zip(cols, shifts)] + [(t, 0) for t in targets]
    monos = sorted({k + s for f, s in polys for k in f.num}, reverse=True)
    row_index = {k: r for r, k in enumerate(monos)}
    entries = [(row_index[k + s], j, x) for j, (f, s) in enumerate(polys) for k, x in f.num.items()]

    def witness(t, den, nums):
        # cofactor i holds the numerators of its columns under their shifts
        cof_nums = [{} for _ in gens]
        for j, x in nums.items():
            cof_nums[cols[j][0]][shifts[j]] = x
        return Witness(targets[t], gens, [_reduced(ring, den, c) for c in cof_nums])

    def functional(t, den, nums):
        # the functional's numerators, one per row, on that row's monomial
        values = _reduced(ring, den, {monos[u]: x for u, x in nums.items()})
        return NonMembership(targets[t], gens, values)

    results, _ = _modular_solve(entries, [f.den for f, _ in polys], len(cols), len(monos), ring.d,
                                witness, functional)
    if any(r is None for r in results):
        raise EngineError("no prime settles the membership system")
    return results


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
    G = []
    sugars = []
    for g in sorted(gens, key=lambda h: max(h.num)):
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
    final.sort(key=lambda h: max(h.num), reverse=True)
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
    # coefficient rows in the second variable, polynomials in the first,
    # each over its polynomial's denominator
    d = f.ring.d
    uni = PolyRing(("t",), d=d)
    unpack, t1 = f.ring.unpack, uni.units[0]
    fe, ge = ([(*unpack(k), x) for k, x in h.num.items()] for h in (f, g))

    def rows(h, terms):
        by_power = {}
        for e0, e1, x in terms:
            by_power.setdefault(e1, {})[e0 * t1] = x
        return [_reduced(uni, h.den, by_power.get(j, {})) for j in range(max(by_power) + 1)]

    def at(h, terms, u0):
        # h at u0 in the first variable: each numerator times u0^e0, summed
        # into its power of the second, in one pass
        sums = {}
        for e0, e1, x in terms:
            w = u0 ** e0
            s = sums.setdefault(e1 * t1, [0, 0])
            if d is None:
                s[0] += x * w
            else:
                s[0] += x[0] * w
                s[1] += x[1] * w
        if d is None:
            return _reduced(uni, h.den, {k: a for k, (a, _) in sums.items() if a})
        return _reduced(uni, h.den, {k: (a, b) for k, (a, b) in sums.items() if a or b})

    fc, gc = rows(f, fe), rows(g, ge)
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
        fs, gs = at(f, fe, u0), at(g, ge, u0)
        if fs.deg() < len(fc) - 1 and gs.deg() < len(gc) - 1:
            continue  # both leading coefficients vanish at u0
        if fs and gs and _gcd(fs, gs).deg() == 0:
            return True
    return False


def codim_at_least_two(gens):
    """Sound one-sided test that V(gens) has codimension >= 2, for
    (weighted) homogeneous generators, or any generators in two variables.

    A nonzero constant generator certifies at once; in one variable there
    is nothing else to decide, since a cone without one holds the origin.
    Otherwise every component of the cone passes through the origin, so a
    linear 2-plane through it cuts the dimension by at most the plane's
    codimension, and finitely many points in the section certify the
    claim.  Each attempt cuts with a seeded plane (a ring of two variables
    is its own plane) and tests pairs of random combinations of the cut
    generators, whose common points contain the section's, by
    `_pair_cuts_out_points`.  Single generators often share factors
    (mirrors inside minors); two random combinations of a finite section
    cut out finitely many points off finitely many proper subspaces of
    coefficients.  A plane map of rank below 2 never certifies: every
    restriction is then zero or divisible by one linear form, which every
    combination shares."""
    gens = [g for g in gens if g]
    if any(g.is_constant() for g in gens):
        return True
    if not gens or gens[0].ring.n < 2:
        return False
    ring = gens[0].ring
    rng = random.Random(1)
    plane = PolyRing(("u_", "v_"), d=ring.d)
    for _ in range(6):
        if ring.n > 2:
            # a wide range keeps the planes off the arrangement's flats: each
            # of six planes drawn from [-7, 7] met B5's minor ideal in a line
            images = [plane.linear_form([rng.randint(-100, 100) for _ in range(2)])
                      for _ in range(ring.n)]
            cut = [g.subst(images).primitive() for g in gens]
        else:
            cut = [g.primitive() for g in gens]
        zero = cut[0].ring.zero()
        for _ in range(4):
            f, g = (sum((c.scale(rng.randint(-5, 5)) for c in cut), zero) for _ in range(2))
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
    """A gcd of two univariate polynomials, by Euclid's algorithm; each
    remainder is taken primitive, a nonzero multiple, so that its
    coefficients do not grow."""
    while b:
        a, b = b, a.reduce([b])[1].primitive()
    return a
