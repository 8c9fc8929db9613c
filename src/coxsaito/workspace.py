"""Per-process build cache and suite runner shared by the CLI and tests."""

from __future__ import annotations

from .algebra import (
    build_mul_table,
    check_boolean_split,
    check_fibers,
    check_generator_match,
    check_mul_table,
    check_normalization_gap,
    check_quotient_rule,
    verify_generators,
)
from .catalog import build_datum
from .certs import Certificate, CheckFailure, det_payload, failure_verdict, run_check, zero_combo_payload
from .freediv import (
    adjoint_divisor,
    check_b3_fixture,
    check_basis_change,
    check_derivative_ideal,
    check_distinguished_monomials,
    check_free_divisor_sum,
    check_lift,
)
from .polymatrix import jacobian
from .rankcond import (
    ARRANGEMENT,
    DISCRIMINANT,
    build_minor_table,
    check_drc,
    check_grc,
    check_hrc,
    equivalence_probe,
)
from .saito import build_saito, normalize_linear_part

ALL_SUITES = (
    "datum",
    "saito",
    "grc-A",
    "grc-D",
    "drc",
    "hrc",
    "algebra",
    "fibers",
    "fractions",
    "generators",
    "freediv",
    "lift",
)


def check_datum(datum):
    """The datum's constants and its Jacobian identity det J = jac_const *
    delta as a payload.  The datum was certified where it was built
    (`catalog._assemble`)."""

    def body():
        J = jacobian(datum.invariants, datum.ring)
        payload = [det_payload("jacobian", J, datum.jac_const, [datum.delta])]
        return {
            "order": datum.group_order,
            "mirrors": datum.mirror_count,
            "degrees": datum.degrees,
            "jac_const": str(datum.jac_const),
        }, payload

    return run_check("datum", datum.name, body)


def check_saito_shape(sd):
    """Symmetry, the Euler column, logarithmic fields, and the triangular
    shape of the linear part (with any field obstruction recorded)."""

    def body():
        datum = sd.datum
        if not sd.K_S.is_symmetric() or not sd.K_R.is_symmetric():
            raise CheckFailure("Saito matrix is not symmetric")
        sdn = normalize_linear_part(sd)
        payload = []
        for key, f in (("eta", datum.delta), ("delta", sd.disc)):
            for j, (val, q) in enumerate(zip(sd.log_values[key], sd.log_quotients[key])):
                payload.append(
                    zero_combo_payload(f"{key}-log-{j+1}", [(val, f.ring.one()), (-q, f)])
                )
        constants = {
            "euler_const": str(sd.euler_const),
            "disc_const": str(sd.disc_const),
            "pull_const": str(sd.pull_const),
            "alphas": [str(a) for a in sdn.alphas],
        }
        if sdn.shape_obstruction:
            constants["shape_obstruction"] = sdn.shape_obstruction["reason"]
        if sd.dihedral_shape:
            constants["dihedral"] = {
                k: str(v) for k, v in sd.dihedral_shape.items()
            }
        return constants, payload

    return run_check("saito-shape", sd.datum.name, body)


def check_discriminant_monic(sd):
    """The discriminant is degree rank in the top invariant with constant
    leading coefficient; rank-2 types match the closed normal form.  The
    Saito matrix K_R is recorded with its identity det K_R = disc_const *
    disc (`build_saito`)."""

    def body():
        datum = sd.datum
        l = datum.rank
        p_ring = sd.p_ring
        top = [0] * l
        top[l - 1] = l
        lead = sd.disc.coeff_of(tuple(top))
        if not lead:
            raise CheckFailure("no top power of the highest invariant")
        for e in sd.disc.t:
            if e[l - 1] > l:
                raise CheckFailure("excess power of the highest invariant")
        constants = {"leading": str(lead)}
        payload = []
        if l == 2 and sd.dihedral_shape is not None:
            h = datum.coxeter_number
            shape = sd.dihedral_shape
            lam, a, b = shape["lambda"], shape["a"], shape["b"]
            p1, p2 = p_ring.gen(0), p_ring.gen(1)
            expect = (p1 ** h).scale(2 * a) - (p2 * p2).scale(h * h)
            if h % 2 == 0:
                expect = expect + (p1 ** (h // 2) * p2).scale(2 * b)
            elif b:
                raise CheckFailure("odd Coxeter number with a mixed term")
            lhs = sd.disc.scale(sd.disc_const)
            rhs = expect.scale(lam * lam)
            if lhs != rhs:
                raise CheckFailure("rank-2 discriminant normal form mismatch")
            payload.append(
                zero_combo_payload(
                    "dihedral-form",
                    [(lhs, p_ring.one()), (-rhs, p_ring.one())],
                )
            )
            constants.update({"a": str(a), "b": str(b), "lambda": str(lam)})
        payload.append(det_payload("saito-det", sd.K_R, sd.disc_const, [sd.disc]))
        return constants, payload

    return run_check("discriminant-monic", sd.datum.name, body)


class Workspace:
    """Builds the apparatus per type and runs named suites.

    Every per-type object (Saito data with its pullback map, minor and
    multiplication tables) and every suite's certificates are built once
    per process, in one memo keyed by kind and type, and shared by every
    check that needs them.
    """

    def __init__(self):
        self._memo = {}

    def _once(self, key, build):
        if key not in self._memo:
            self._memo[key] = build()
        return self._memo[key]

    def datum(self, name):
        return self._once(("datum", name), lambda: build_datum(name))

    def saito(self, name):
        return self._once(("saito", name), lambda: build_saito(self.datum(name)))

    def minor_table(self, name, side):
        return self._once(
            ("minors", name, side),
            lambda: build_minor_table(self.saito(name), side),
        )

    def mul_table(self, name, side):
        def build():
            table = self.minor_table(name, side)
            if side == ARRANGEMENT:
                return build_mul_table(table, self.mul_table(name, DISCRIMINANT))
            return build_mul_table(table)

        return self._once(("mul", name, side), build)

    # -- suites ------------------------------------------------------------

    def run_suite(self, name, suite):
        """Run one named suite, once per type; an exception raised while
        building what the suite's checks need becomes a certificate."""

        def build():
            try:
                return self._run_suite(name, suite)
            except Exception as exc:
                verdict, detail = failure_verdict(exc)
            return [Certificate(name=suite, ctype=name, verdict=verdict, detail=detail)]

        return list(self._once(("suite", name, suite), build))

    def _run_suite(self, name, suite):
        datum = self.datum(name)
        if suite == "datum":
            return [check_datum(datum)]
        if not datum.irreducible:
            if suite == "algebra" and all(
                part.name == "A1" for part, _off in datum.factors
            ):
                # Boolean arrangements split into polynomial factors
                return [check_boolean_split(datum)]
            # the remaining suites run per irreducible factor
            certs = []
            for part, _off in datum.factors:
                certs.extend(self.run_suite(part.name, suite))
            return certs
        if suite == "saito":
            sd = self.saito(name)
            return [check_saito_shape(sd), check_discriminant_monic(sd)]
        if suite == "grc-A":
            return [check_grc(self.minor_table(name, ARRANGEMENT))]
        if suite == "grc-D":
            certs = [check_grc(self.minor_table(name, DISCRIMINANT))]
            if name == "B3":
                certs.append(check_b3_fixture(self.minor_table(name, DISCRIMINANT)))
            return certs
        if suite == "drc":
            return [check_drc(self.saito(name))]
        if suite == "hrc":
            hrc = check_hrc(self.saito(name))
            (grc_a,) = self.run_suite(name, "grc-A")
            (drc,) = self.run_suite(name, "drc")
            return [hrc, equivalence_probe(hrc, drc, grc_a, name)]
        if suite == "algebra":
            certs = []
            for side in (ARRANGEMENT, DISCRIMINANT):
                table = self.minor_table(name, side)
                certs.append(verify_generators(table))
                certs.append(check_mul_table(self.mul_table(name, side)))
            return certs
        if suite == "fibers":
            return [check_fibers(self.mul_table(name, ARRANGEMENT))]
        if suite == "fractions":
            return [check_quotient_rule(self.minor_table(name, ARRANGEMENT))]
        if suite == "generators":
            return [
                check_generator_match(
                    self.minor_table(name, ARRANGEMENT),
                    self.minor_table(name, DISCRIMINANT),
                )
            ]
        if suite == "freediv":
            table = self.minor_table(name, DISCRIMINANT)
            certs = [adjoint_divisor(table)]
            if datum.rank > 1:
                # at rank 1 the adjoint minor is the constant 1: it has no
                # logarithmic derivatives and B no Euler column to fix
                certs.append(check_derivative_ideal(table))
                certs.append(check_basis_change(table))
            certs.append(check_free_divisor_sum(table))
            sdn = normalize_linear_part(self.saito(name))
            if sdn.shape_obstruction is None:
                certs.append(check_distinguished_monomials(sdn))
            h = datum.coxeter_number
            if datum.rank == 2 and h % 2 == 1 and h >= 5:
                certs.append(check_normalization_gap(self.saito(name)))
            return certs
        if suite == "lift":
            return [check_lift(self.minor_table(name, DISCRIMINANT))]
        raise ValueError(f"unknown suite {suite!r}")
