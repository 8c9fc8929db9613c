"""Minor tables and the graded / dual / Hessian rank-condition certificates.

The arrangement side works with the adjugate of J^t over the coordinate
ring; the discriminant side with the adjugate of K over the invariant
ring.  Every membership carries a witness, every claimed non-membership a
separating functional, so certificates re-verify by polynomial identities
alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .certs import CheckFailure, constant_ratio, members, run_check
from .engine import (
    EngineError,
    NonMembership,
    codim_at_least_two,
    graded_membership_batch,
    rank_of_vectors,
)
from .poly import Poly, dot
from .polymatrix import PolyMatrix, hessian
from .saito import SaitoData


ARRANGEMENT = "arrangement"
DISCRIMINANT = "discriminant"


@dataclass
class MinorTable:
    side: str
    saito: SaitoData
    matrix: PolyMatrix  # J^t over S, or K over R
    minors: PolyMatrix  # its adjugate
    defining: Poly = None  # delta (side A) or disc (side D)
    det_const: object = None  # det(matrix) = det_const * defining
    degrees: list = field(default_factory=list)  # degree of row i of the adjugate
    grad_const: object = None  # side A: normalized row = grad_const * grad(delta)
    grad_row: list = field(default_factory=list)
    # side D: what freediv computes once per table, or the failure it raised;
    # a copy made by dataclasses.replace starts empty
    kept: dict = field(default_factory=dict, init=False)

    @property
    def datum(self):
        return self.saito.datum

    @property
    def rank(self):
        return self.datum.rank

    def row_ideal(self):
        l = self.rank
        return [self.minors[l - 1, j] for j in range(l)]

    def all_minors(self):
        l = self.rank
        return [self.minors[i, j] for i in range(l) for j in range(l)]


def build_minor_table(sd, side):
    """All sub-maximal minors with the Cramer identity, degree table,
    gradient row and grade checks certified."""
    datum = sd.datum
    l = datum.rank
    if side == ARRANGEMENT:
        mat = sd.J.transpose()
        defining = datum.delta
        det_const = datum.jac_const
    else:
        mat = sd.K_R
        defining = sd.disc
        det_const = sd.disc_const
    minors = mat.adjugate()

    # Cramer: matrix * adjugate == det_const * defining * identity
    prod = mat * minors
    for i in range(l):
        for j in range(l):
            expect = defining.scale(det_const) if i == j else defining.ring.zero()
            if prod[i, j] != expect:
                raise CheckFailure(f"Cramer identity fails at ({i},{j})")

    # degree table: on the arrangement side row i is equidegree of
    # D_i = sum(m_k) - m_i; on the discriminant side the entry degree is
    # 2*sum(w) - w_i - w_j - 2(l-1), varying within a row
    exps = datum.exponents
    ws = datum.degrees
    total = sum(exps)
    degrees = []
    for i in range(l):
        row_degs = []
        for j in range(l):
            m = minors[i, j]
            if side == ARRANGEMENT:
                expected = total - exps[i]
            else:
                expected = 2 * sum(ws) - ws[i] - ws[j] - 2 * (l - 1)
            if m and m.whomog_degree() != expected:
                raise CheckFailure(
                    f"minor ({i+1},{j+1}) has degree {m.whomog_degree()}, "
                    f"expected {expected}"
                )
            row_degs.append(expected)
        degrees.append(row_degs[0] if side == ARRANGEMENT else row_degs)

    table = MinorTable(
        side=side,
        saito=sd,
        matrix=mat,
        minors=minors,
        defining=defining,
        det_const=det_const,
        degrees=degrees,
    )

    if side == ARRANGEMENT and datum.irreducible:
        _gradient_row(table)
        # the lowest-degree minors are linearly independent over the field
        if rank_of_vectors([m.t for m in table.row_ideal()]) != l:
            raise CheckFailure("last-row minors are linearly dependent")
    # grade >= 2: the minor ideal cuts out codimension two; the last-row
    # minors suffice since their zero locus contains the full one.  The test
    # is one-sided, so a search that finds no certificate refutes nothing
    if not codim_at_least_two(table.row_ideal()):
        raise EngineError("codimension-two test of the minor ideal was inconclusive")
    return table


def _gradient_row(table):
    """Combination of adjugate rows matching grad(delta) up to one constant.

    The identity holds for the column basis whose members other than the
    Euler field annihilate delta; the change of basis only mixes the first
    adjugate row with the others, by the logarithmic quotients.
    """
    sd = table.saito
    datum = sd.datum
    ring = datum.ring
    l = datum.rank
    qs = sd.log_quotients["eta"]
    q1 = qs[0].constant_value()
    ad_gamma = PolyMatrix.from_scalars(ring, datum.gram_dual).adjugate()
    adB = table.minors * ad_gamma  # adjugate of (Gamma J^t)
    cs = [ring.one()] + [qs[i].scale(1 / q1) for i in range(1, l)]
    row = [dot(zip(cs, adB.col(j)), ring) for j in range(l)]
    const = None
    for j in range(l):
        c = constant_ratio(
            row[j], datum.delta.diff(j), "gradient row is not proportional to grad delta"
        )
        if const is None:
            const = c
        elif c != const:
            raise CheckFailure("gradient row constant varies with the column")
    table.grad_const = const
    table.grad_row = row


# ---------------------------------------------------------------------------
# certificates


def check_grc(table):
    """Every sub-maximal minor lies in the ideal of the last-row minors."""
    sd = table.saito
    l = table.rank
    gens = table.row_ideal()

    def body():
        found = members(
            table.all_minors(),
            gens,
            lambda k: f"minor ({k // l + 1},{k % l + 1}) is not in the last-row ideal",
        )
        payload = [w.to_json() for _, w in found]
        constants = {
            "degrees": table.degrees,
            "det_const": str(table.det_const),
        }
        if table.grad_const is not None:
            constants["grad_const"] = str(table.grad_const)
        return constants, payload

    name = "grc-A" if table.side == ARRANGEMENT else "grc-D"
    return run_check(name, sd.datum.name, body)


def check_drc(sd):
    """Last gradient module inside each earlier one, modulo the invariant
    ideal: for j < l every d(p_l)/dx_k has a witness in
    (dp_j/dx_1..dp_j/dx_l) + (p_1..p_l)."""
    datum = sd.datum
    l = datum.rank
    h = datum.coxeter_number

    def body():
        payload = []
        targets = [sd.J[l - 1, k] for k in range(l)]
        for j in range(l - 1):
            gens = [sd.J[j, k] for k in range(l)]
            gens += [p for p in datum.invariants if p.whomog_degree() <= h - 1]
            found = members(
                targets, gens, lambda k: f"drc fails at invariant {j+1}, partial {k+1}"
            )
            payload += [w.to_json() for _, w in found]
        return {"trivial_direction": 1}, payload

    return run_check("drc", datum.name, body)


def check_hrc(sd):
    """Hessian rank condition: for each j some Hessian of a complementary
    invariant sends eta_j outside the invariant ideal; the witnessing pair
    and a separating functional are recorded."""
    datum = sd.datum
    l = datum.rank
    exps = datum.exponents
    h = datum.coxeter_number
    f_gens = [p for p in datum.invariants if p.whomog_degree() <= h - 1]

    def body():
        payload = []
        pairs = []
        for j in range(l):
            found = None
            cands = [i for i in range(l) if exps[i] + exps[j] == h]
            if not cands:
                raise CheckFailure(f"no complementary exponent for j={j+1}")
            for i in cands:
                vec = hessian(datum.invariants[i]).mul_vec(sd.eta.col(j))
                entries = [v for v in vec if v]
                if not entries:
                    continue
                results = graded_membership_batch(entries, f_gens)
                for idx, res in enumerate(results):
                    if isinstance(res, NonMembership):
                        found = (i, idx, res)
                        break
                if found:
                    break
            if not found:
                raise CheckFailure(f"Hessian rank condition fails for j={j+1}")
            i, idx, res = found
            pairs.append([i + 1, j + 1, idx + 1])
            payload.append(res.to_json())
        return {"witness_pairs": pairs}, payload

    return run_check("hrc", datum.name, body)


def equivalence_probe(cert_hrc, cert_drc, cert_grc_a, ctype):
    """The implication chain Hrc => drc => grc must never be violated."""

    def body():
        def v(c):
            return c.verdict

        if v(cert_hrc) == "pass" and v(cert_drc) == "fail":
            raise CheckFailure("Hrc passes but drc fails")
        if v(cert_drc) == "pass" and v(cert_grc_a) == "fail":
            raise CheckFailure("drc passes but grc fails")
        return {
            "hrc": v(cert_hrc),
            "drc": v(cert_drc),
            "grc": v(cert_grc_a),
        }, []

    return run_check("rank-implications", ctype, body)
