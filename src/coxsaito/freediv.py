"""Discriminant-plus-adjoint free divisor certificates.

The adjoint divisor is cut out by the corner minor of the adjugate of K.
Applying the logarithmic fields to it recovers the full minor ideal; the
resulting basis-change matrix B has constant determinant, the product
matrix K B K'' realizes Saito's criterion for the sum divisor, and the
construction lifts through the invariant map to a free divisor containing
the reflection arrangement.
"""

from __future__ import annotations

from .certs import (
    CheckFailure,
    constant_ratio,
    det_payload,
    division_payload,
    members,
    quotient,
    run_check,
)
from .engine import EngineError, codim_at_least_two, squarefree_test
from .polymatrix import PolyMatrix
from .saito import field_apply


def corner_minor(table_d):
    l = table_d.rank
    return table_d.minors[l - 1, l - 1]


def adjoint_divisor(table_d):
    """The adjoint equation with its two side conditions: it is reduced,
    and the full minor ideal has codimension two (certified when the minor
    table is built)."""
    sd = table_d.saito
    mll = corner_minor(table_d)

    def body():
        if not adjoint_reduced(table_d):
            raise CheckFailure("the adjoint equation is not reduced")
        return {"adjoint": str(mll)}, []

    return run_check("adjoint-divisor", sd.datum.name, body)


def _log_derivatives(table_d):
    """delta_j applied to the corner minor, for all columns j."""
    sd = table_d.saito
    l = table_d.rank
    mll = corner_minor(table_d)
    return [field_apply(sd.K_R, j, mll) for j in range(l)]


def check_derivative_ideal(table_d):
    """The logarithmic derivatives of the adjoint equation generate the
    minor ideal: mutual graded membership with witnesses."""
    sd = table_d.saito
    l = table_d.rank

    def body():
        payload = []
        d_gens = [g for g in _log_derivatives(table_d) if g]
        minor_gens = table_d.all_minors()
        for targets, gens, tag in (
            (d_gens, minor_gens, "derivative-in-minors"),
            (minor_gens, d_gens, "minor-in-derivatives"),
        ):
            found = members(targets, gens, lambda _: f"ideal equality fails ({tag})")
            payload += [w.to_json() for _, w in found]
        return {}, payload

    return run_check("derivative-ideal", sd.datum.name, body)


def solve_basis_change(table_d):
    """The matrix B with dM(delta-tilde_i) = M^l_i, delta-tilde_i = sum_j
    B^j_i delta_j; the last column is the recorded multiple of the Euler
    field, and det B must be a nonzero constant."""
    sd = table_d.saito
    l = table_d.rank
    p_ring = sd.p_ring
    mll = corner_minor(table_d)
    d_gens = _log_derivatives(table_d)

    cols = [None] * l
    found = members(
        [table_d.minors[l - 1, i] for i in range(l - 1)],
        d_gens,
        lambda i: f"no logarithmic field realizes minor {i+1}",
    )
    for i, w in found:
        cols[i] = w.cofactors
    last = [p_ring.zero()] * l
    if l == 1:
        # the corner minor is the constant 1 and B the identity
        last[0] = p_ring.one()
    else:
        euler_val = sd.euler_const * mll.whomog_degree()  # delta_1(mll) = this * mll
        last[0] = p_ring.const(1 / euler_val)
    cols[l - 1] = last

    B = PolyMatrix(p_ring, [[cols[j][i] for j in range(l)] for i in range(l)])
    detB = B.det()
    if not detB or not detB.is_constant():
        raise CheckFailure("basis-change determinant is not a nonzero constant")
    return B, detB.constant_value(), [w.to_json() for _, w in found]


def _once(table_d, key, compute):
    """compute(), run once per table: its result, or the CheckFailure or
    EngineError it raised, is kept on the table for every later check,
    which raises a fresh copy of that error."""
    kept = table_d.kept
    if key not in kept:
        try:
            kept[key] = compute()
        except (CheckFailure, EngineError) as exc:
            kept[key] = exc
    if isinstance(kept[key], Exception):
        raise type(kept[key])(*kept[key].args)
    return kept[key]


def basis_change(table_d):
    """solve_basis_change, solved once per table."""
    return _once(table_d, "basis_change", lambda: solve_basis_change(table_d))


def adjoint_reduced(table_d):
    """Whether the adjoint equation is reduced, tested once per table."""
    return _once(table_d, "adjoint_reduced", lambda: squarefree_test(corner_minor(table_d)))


def check_basis_change(table_d):
    sd = table_d.saito

    def body():
        B, detB, witnesses = basis_change(table_d)
        payload = list(witnesses)
        payload.append(det_payload("det-B", B, detB, []))
        return {"det_B": str(detB), "euler_scale": str(B[0, table_d.rank - 1])}, payload

    return run_check("basis-change", sd.datum.name, body)


def _saito_criterion(Z, f, g, criterion_label, column_label):
    """Saito's criterion for the divisor f * g with the columns of Z as
    candidate logarithmic fields: det Z is a nonzero constant c times f * g,
    and every column applied to f * g is a multiple of it.  Returns c and
    the payload recording both."""
    target = f * g
    c = constant_ratio(
        Z.det(), target, f"{criterion_label}: determinant is not a nonzero constant multiple"
    )
    payload = [det_payload(criterion_label, Z, c, [f, g])]
    for j in range(Z.n):
        val = field_apply(Z, j, target)
        q = quotient(val, target, f"{criterion_label}: column {j+1} is not logarithmic")
        payload.append(division_payload(f"{column_label}-{j+1}", val, target, q))
    return c, payload


def _kpp(sd):
    """K'' = K with its last column replaced by the last unit vector."""
    K = sd.K_R
    l = K.m
    p_ring = sd.p_ring
    return PolyMatrix(
        p_ring,
        [
            [K[i, j] for j in range(l - 1)]
            + [p_ring.one() if i == l - 1 else p_ring.zero()]
            for i in range(l)
        ],
    )


def check_free_divisor_sum(table_d):
    """Saito's criterion for discriminant plus adjoint: the matrix K B K''
    has determinant a constant times disc * adjoint, its columns are
    logarithmic for the product, and the product is reduced."""
    sd = table_d.saito
    mll = corner_minor(table_d)
    disc = sd.disc

    def body():
        B, detB, _ = basis_change(table_d)
        Z = sd.K_R * B * _kpp(sd)
        c, payload = _saito_criterion(Z, disc, mll, "saito-criterion", "log-column")
        if not adjoint_reduced(table_d):
            raise CheckFailure("adjoint equation is not reduced")
        if not squarefree_test(disc):
            raise CheckFailure("discriminant equation is not reduced")
        if not codim_at_least_two([disc, mll]):
            raise CheckFailure("discriminant and adjoint share a component")
        return {"det_const": str(c), "det_B": str(detB)}, payload

    return run_check("free-divisor-sum", sd.datum.name, body)


def check_lift(table_d, cache):
    """The pullback construction: Gamma J^t (B K'' o p) is a Saito matrix
    for the arrangement plus the preimage of the adjoint divisor."""
    sd = table_d.saito
    datum = sd.datum
    mll = corner_minor(table_d)

    def body():
        B, detB, _ = basis_change(table_d)
        W = sd.eta * (B * _kpp(sd)).map(cache)
        mll_x = cache(mll)
        c, payload = _saito_criterion(
            W, datum.delta, mll_x, "lift-criterion", "lift-log-column"
        )
        # reducedness of the pullback: the adjoint is reduced downstairs and
        # its preimage contains no mirror, so the product with delta (a
        # product of pairwise non-proportional linear forms) is reduced
        for f in datum.mirror_forms:
            if mll_x.divisible_by(f):
                raise CheckFailure("a mirror hyperplane lies in the lifted adjoint")
        if not adjoint_reduced(table_d):
            raise CheckFailure("adjoint equation is not reduced")
        return {"det_const": str(c), "adjoint_pullback_terms": len(mll_x.num)}, payload

    return run_check("arrangement-lift", datum.name, body)


def check_distinguished_monomials(sd_norm):
    """Bookkeeping on the linearized matrix: the adjugate entry paired with
    index i contains the monomial p_i p_l^(l-2), and no other."""
    datum = sd_norm.datum
    l = datum.rank

    def body():
        if l > 4:
            raise CheckFailure("symbolic check restricted to rank <= 4")
        kbar = sd_norm.kbar
        ad = kbar.adjugate()
        p_ring = sd_norm.p_ring
        for i in range(l):
            entry = ad[l - 1, l - 1 - i]
            for j in range(l):
                e = [0] * l
                e[j] = 1
                e[l - 1] += l - 2
                coeff = entry.coeff_of(tuple(e))
                if j == i and not coeff:
                    raise CheckFailure(
                        f"distinguished monomial p_{j+1} p_l^{l-2} missing at i={i+1}"
                    )
                if j != i and coeff:
                    raise CheckFailure(
                        f"stray distinguished monomial p_{j+1} p_l^{l-2} at i={i+1}"
                    )
        return {"rank": l}, []

    return run_check("distinguished-monomials", datum.name, body)


# ---------------------------------------------------------------------------
# the published rank-3 fixture


def published_b3_matrix(p_ring):
    """The published Saito matrix for the rank-3 hyperoctahedral
    discriminant, in invariant coordinates x, y, z of weights 2, 4, 6.
    The quadratic term in entry (2,3) is read as -2y^2; the determinant
    cross-check against the discriminant validates that reading."""
    x, y, z = p_ring.gens()
    return PolyMatrix(
        p_ring,
        [
            [x, -4 * (x * x) + 18 * y, -(x * y) + 27 * z],
            [2 * y, x * y + 27 * z, -2 * (y * y) + 18 * (x * z)],
            [3 * z, 6 * (x * z), 6 * (y * z)],
        ],
    )


def published_b3_ideal(p_ring):
    x, y, z = p_ring.gens()
    return [
        x * x * y - 4 * (y * y) + 3 * (x * z),
        x * x * z - 3 * (y * z),
        x * y * z - 9 * (z * z),
    ]


def check_b3_fixture(table_d):
    """The published rank-3 matrix against our apparatus: its determinant
    is a constant multiple of the discriminant, its columns are
    combinations of ours by a constant-determinant matrix over the
    invariant ring, and the published ideal equals our last-row minor
    ideal."""
    sd = table_d.saito
    if sd.datum.name != "B3":
        raise ValueError("fixture check only applies to B3")
    p_ring = sd.p_ring

    def body():
        A = published_b3_matrix(p_ring)
        c = constant_ratio(
            A.det(), sd.disc, "published determinant is not a discriminant multiple"
        )
        payload = [det_payload("published-det", A, c, [sd.disc])]
        # column operations over the invariant ring: B0 = K^{-1} A must have
        # polynomial entries and constant determinant
        scale = sd.disc.scale(table_d.det_const)
        B0 = (table_d.minors * A).map(
            lambda p: quotient(p, scale, "published columns are not combinations of ours")
        )
        detB0 = B0.det()
        if not detB0.is_constant() or not detB0:
            raise CheckFailure("published basis change is not invertible")
        payload.append(det_payload("published-basis-change", B0, detB0.constant_value(), []))
        # the published ideal coincides with our last-row minor ideal
        published = published_b3_ideal(p_ring)
        ours = table_d.row_ideal()
        for targets, gens, tag in ((published, ours, "pub-in-ours"), (ours, published, "ours-in-pub")):
            found = members(targets, gens, lambda _: f"ideal comparison fails ({tag})")
            payload += [w.to_json() for _, w in found]
        return {
            "det_ratio": str(c),
            "basis_change_det": str(detB0.constant_value()),
            "entry_reading": "-2y^2+18xz",
        }, payload

    return run_check("published-fixture", sd.datum.name, body)
