"""Certificates: serializable verdict records with re-checkable payloads.

Every check emits a Certificate whose payload contains enough data to
re-verify the claim by pure polynomial arithmetic (no search): membership
witnesses, separating functionals, stored division quotients, and
determinant identities.
"""

from __future__ import annotations

import json
import time
from math import isqrt
from dataclasses import dataclass, field

from .engine import EngineError, NonMembership, Witness, graded_membership_batch
from .poly import Poly, PolyRing, dot
from .polymatrix import PolyMatrix
from .scalars import scalar_from_json, scalar_to_json


class CheckFailure(Exception):
    """A certified condition failed; the certificate records the reason."""


@dataclass
class Certificate:
    name: str
    ctype: str
    verdict: str  # pass | fail | error
    constants: dict = field(default_factory=dict)
    payload: list = field(default_factory=list)
    wall_time: float = 0.0
    detail: str = ""

    def to_json(self):
        return {
            "check": self.name,
            "type": self.ctype,
            "verdict": self.verdict,
            "constants": self.constants,
            "witnesses": self.payload,
            "wall_time": self.wall_time,
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
            detail=obj.get("detail", ""),
        )


def failure_verdict(exc):
    """(verdict, detail) for an exception that ended a check: fail for a
    refuted condition, error for anything else, with the exception's notes
    appended."""
    if isinstance(exc, CheckFailure):
        return "fail", str(exc)
    notes = getattr(exc, "__notes__", ())
    return "error", "; ".join([f"{type(exc).__name__}: {exc}", *notes])


def run_check(name, ctype, fn):
    """Run a check body, timing it and converting exceptions to verdicts.

    The body returns (constants, payload) on success and raises
    CheckFailure on a refuted condition; any other exception is an error.
    """
    t0 = time.monotonic()
    try:
        constants, payload = fn()
        verdict, detail = "pass", ""
    except Exception as exc:
        constants, payload = {}, []
        verdict, detail = failure_verdict(exc)
    return Certificate(
        name=name,
        ctype=ctype,
        verdict=verdict,
        constants=constants,
        payload=payload,
        wall_time=time.monotonic() - t0,
        detail=detail,
    )


# ---------------------------------------------------------------------------
# the identities every check states: graded membership and exact division


def members(targets, gens, failure):
    """Membership of every nonzero target in the ideal of gens, one graded
    solve per degree, lowest degree first.  Returns (index, Witness) pairs
    in that order; the first non-member raises CheckFailure(failure(index))."""
    by_degree = {}
    for idx, t in enumerate(targets):
        if t:
            by_degree.setdefault(t.whomog_degree(), []).append(idx)
    out = []
    for deg in sorted(by_degree):
        idxs = by_degree[deg]
        results = graded_membership_batch([targets[i] for i in idxs], gens)
        for idx, res in zip(idxs, results):
            if isinstance(res, NonMembership):
                raise CheckFailure(failure(idx))
            out.append((idx, res))
    return out


def quotient(f, g, failure):
    """f / g, zero when f is zero; CheckFailure(failure) when g does not
    divide f."""
    if not f:
        return f
    try:
        return f.exact_div(g)
    except ValueError:
        raise CheckFailure(failure) from None


def constant_ratio(f, g, failure):
    """The nonzero constant c with f == c * g; CheckFailure(failure) when
    there is none."""
    q = quotient(f, g, failure)
    if not q or not q.is_constant():
        raise CheckFailure(failure)
    return q.constant_value()


# ---------------------------------------------------------------------------
# payload construction and re-verification


def division_payload(label, f, divisor, q):
    """Records f == q * divisor."""
    return {
        "kind": "division",
        "label": label,
        "f": f.to_json(),
        "divisor": divisor.to_json(),
        "quotient": q.to_json(),
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
    """The ring a payload item's first polynomial declares; every other
    polynomial of the item must declare the same one (`Poly.from_json`)."""
    d = poly_json.get("field", {}).get("d")
    if d is not None and not (type(d) is int and d > 1 and isqrt(d) ** 2 != d):
        raise ValueError(f"field d = {d!r} is not a non-square integer > 1")
    return PolyRing(poly_json["vars"], d=d, weights=poly_json.get("weights"))


def verify_payload_item(item):
    """Re-check one payload entry by evaluating its polynomial identity."""
    kind = item.get("kind")
    if kind in ("witness", "nonmember"):
        ring = _ring_of(item["target"])
        cls = Witness if kind == "witness" else NonMembership
        try:
            cls.from_json(item, ring)  # verified on construction
        except EngineError:
            return False
        return True
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
        pairs = [(Poly.from_json(a, ring), Poly.from_json(b, ring)) for a, b in item["terms"]]
        return not dot(pairs, ring)
    if kind == "det_eq":
        ring = _ring_of(item["matrix"]["entries"][0][0])
        mat = PolyMatrix.from_json(item["matrix"], ring)
        c = scalar_from_json(item["constant"], d=ring.d)
        rhs = ring.const(c)
        for fj in item["factors"]:
            rhs = rhs * Poly.from_json(fj, ring)
        return mat.det() == rhs
    return False  # unknown payload kinds never verify


def _dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def write_report(path, ctype, certs, seeds):
    """Write the report as compact sorted JSON.  The C encoder encodes each
    witness on its own (`json.dump` would run the pure-Python encoder, and
    one `dumps` of a whole check or document would hold all of its
    fragments at once)."""
    checks = [c.to_json() for c in certs]
    rest = {"version": "0.1.0", "type": ctype, "seeds": seeds}
    with open(path, "w") as fh:
        # "checks" sorts before every other key of the document, and
        # "witnesses" after every other key of a check
        fh.write('{"checks":[')
        for i, check in enumerate(checks):
            if i:
                fh.write(",")
            head = {k: v for k, v in check.items() if k != "witnesses"}
            fh.write(_dumps(head)[:-1])
            fh.write(',"witnesses":[')
            for j, item in enumerate(check["witnesses"]):
                if j:
                    fh.write(",")
                fh.write(_dumps(item))
            fh.write("]}")
        fh.write("],")
        fh.write(_dumps(rest)[1:])
        fh.write("\n")
    return dict(rest, checks=checks)


_VERDICTS = ("pass", "fail", "error")


def verify_report_file(path):
    """Re-verify every embedded payload; returns (ok, list of failures).
    A report whose checks are not a nonempty list of objects, each with a
    verdict of pass, fail or error, raises ValueError."""
    with open(path) as fh:
        doc = json.load(fh)
    checks = doc.get("checks") if isinstance(doc, dict) else None
    if not (isinstance(checks, list) and checks):
        raise ValueError("a report holds a nonempty list of checks")
    if not all(isinstance(cj, dict) and cj.get("verdict") in _VERDICTS for cj in checks):
        raise ValueError(f"every check is an object with a verdict of {', '.join(_VERDICTS)}")
    failures = []
    for cj in checks:
        cert = Certificate.from_json(cj)
        for idx, item in enumerate(cert.payload):
            if not verify_payload_item(item):
                failures.append(f"{cert.name}[{idx}]:{item.get('label', item.get('kind'))}")
    return not failures, failures
