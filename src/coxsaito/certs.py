"""Certificates: serializable verdict records with re-checkable payloads.

Every check emits a Certificate whose payload contains enough data to
re-verify the claim by pure polynomial arithmetic (no search): membership
witnesses, separating functionals, stored division quotients, and
determinant identities.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

from .engine import BudgetExceeded, NonMembership, Witness
from .poly import Poly, PolyRing
from .polymatrix import PolyMatrix
from .scalars import scalar_from_json, scalar_to_json


class CheckFailure(Exception):
    """A certified condition failed; the certificate records the reason."""


@dataclass
class Certificate:
    name: str
    ctype: str
    verdict: str  # pass | fail | indeterminate
    constants: dict = field(default_factory=dict)
    payload: list = field(default_factory=list)
    wall_time: float = 0.0
    budget_used: int | None = None
    detail: str = ""

    @property
    def passed(self):
        return self.verdict == "pass"

    def to_json(self):
        return {
            "check": self.name,
            "type": self.ctype,
            "verdict": self.verdict,
            "constants": self.constants,
            "witnesses": self.payload,
            "wall_time": self.wall_time,
            "budget_used": self.budget_used,
            "detail": self.detail,
        }

    @staticmethod
    def from_json(obj):
        return Certificate(
            name=obj["check"],
            ctype=obj["type"],
            verdict=obj["verdict"],
            constants=obj.get("constants", {}),
            payload=obj.get("witnesses", []),
            wall_time=obj.get("wall_time", 0.0),
            budget_used=obj.get("budget_used"),
            detail=obj.get("detail", ""),
        )


def run_check(name, ctype, fn, budget=None):
    """Run a check body, timing it and converting exceptions to verdicts.

    The body returns (constants, payload) on success, raises CheckFailure on
    a refuted condition and BudgetExceeded when out of steps.
    """
    t0 = time.monotonic()
    try:
        constants, payload = fn()
        verdict, detail = "pass", ""
    except CheckFailure as exc:
        constants, payload, verdict, detail = {}, [], "fail", str(exc)
    except BudgetExceeded as exc:
        constants, payload, verdict, detail = {}, [], "indeterminate", str(exc)
    return Certificate(
        name=name,
        ctype=ctype,
        verdict=verdict,
        constants=constants,
        payload=payload,
        wall_time=time.monotonic() - t0,
        budget_used=budget.used if budget is not None else None,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# payload construction and re-verification


def witness_payload(w):
    return w.to_json()


def nonmember_payload(nm):
    return nm.to_json()


def division_payload(label, f, divisor, quotient):
    """Records f == quotient * divisor."""
    return {
        "kind": "division",
        "label": label,
        "f": f.to_json(),
        "divisor": divisor.to_json(),
        "quotient": quotient.to_json(),
    }


def zero_combo_payload(label, pairs):
    """Records sum(a_i * b_i) == 0."""
    return {
        "kind": "zero_combo",
        "label": label,
        "terms": [[a.to_json(), b.to_json()] for a, b in pairs],
    }


def det_payload(label, matrix, constant, factors):
    """Records det(matrix) == constant * product(factors)."""
    return {
        "kind": "det_eq",
        "label": label,
        "matrix": matrix.to_json(),
        "constant": scalar_to_json(constant),
        "factors": [f.to_json() for f in factors],
    }


def _ring_of(poly_json):
    d = poly_json.get("field", {}).get("d")
    return PolyRing(poly_json["vars"], d=d, weights=poly_json.get("weights"))


def verify_payload_item(item):
    """Re-check one payload entry by evaluating its polynomial identity."""
    from .engine import EngineError

    kind = item.get("kind")
    if kind == "witness":
        ring = _ring_of(item["target"])
        try:
            return Witness.from_json(item, ring).verify()
        except EngineError:
            return False
    if kind == "nonmember":
        ring = _ring_of(item["target"])
        try:
            return NonMembership.from_json(item, ring).verify()
        except EngineError:
            return False
    if kind == "division":
        ring = _ring_of(item["f"])
        f = Poly.from_json(item["f"], ring)
        divisor = Poly.from_json(item["divisor"], ring)
        quotient = Poly.from_json(item["quotient"], ring)
        return f == quotient * divisor
    if kind == "zero_combo":
        if not item["terms"]:
            return True
        ring = _ring_of(item["terms"][0][0])
        acc = ring.zero()
        for a, b in item["terms"]:
            acc = acc + Poly.from_json(a, ring) * Poly.from_json(b, ring)
        return not acc
    if kind == "det_eq":
        ring = _ring_of(item["matrix"]["entries"][0][0])
        mat = PolyMatrix.from_json(item["matrix"], ring)
        c = scalar_from_json(item["constant"], d=ring.d)
        rhs = ring.const(c)
        for fj in item["factors"]:
            rhs = rhs * Poly.from_json(fj, ring)
        return mat.det() == rhs
    return False  # unknown payload kinds never verify


def write_report(path, ctype, certs, seeds, version="0.1.0"):
    doc = {
        "version": version,
        "type": ctype,
        "seeds": seeds,
        "checks": [c.to_json() for c in certs],
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return doc


def verify_report_file(path):
    """Re-verify every embedded payload; returns (ok, list of failures)."""
    with open(path) as fh:
        doc = json.load(fh)
    failures = []
    for cj in doc.get("checks", []):
        cert = Certificate.from_json(cj)
        for idx, item in enumerate(cert.payload):
            if cert.verdict == "pass" and not verify_payload_item(item):
                failures.append(f"{cert.name}[{idx}]:{item.get('label', item.get('kind'))}")
    return not failures, failures
