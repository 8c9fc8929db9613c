"""Certificates: serializable verdict records with re-checkable payloads.

Every check emits a Certificate whose payload contains enough data to
re-verify the claim by pure polynomial arithmetic (no search): membership
witnesses, separating functionals, stored division quotients, and
determinant identities.  In memory each payload item is self-contained
JSON.

A report (version REPORT_VERSION) is compact sorted JSON
`{checks, type, version}`.  Each check writes every polynomial of its
payload once, in its table `polys`, and each polynomial slot of an item
(`target`, `gens`, `functional`, `f`, `divisor`, `quotient`, the `terms`
pairs, the `det_eq` matrix entries and `factors`) holds an index into
that table; a witness's `cofactors` are written out in full.  The reader
refuses any other version, and an index that is not an int inside the
table, a table entry that is not an object or an entry used in two rings
(ValueError, exit code 2 under `coxsaito verify`); it parses each entry
once per check.
"""

from __future__ import annotations

import json
import time
from math import isqrt
from dataclasses import dataclass, field

from .engine import EngineError, NonMembership, Witness, graded_membership_batch
from .poly import Poly, PolyRing, as_poly, dot
from .polymatrix import PolyMatrix
from .scalars import scalar_from_json, scalar_to_json


REPORT_VERSION = "0.2.0"  # the one version `verify_report_file` reads


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
    refuted condition, error, named by the exception's type, for anything
    else."""
    if isinstance(exc, CheckFailure):
        return "fail", str(exc)
    return "error", f"{type(exc).__name__}: {exc}"


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


def _ring_of(poly, rings):
    """The ring of a payload item's first polynomial, which every other
    polynomial of the item must lie in (`as_poly`): a parsed polynomial's
    own, or the one a polynomial's JSON declares, kept in rings (one ring
    object per declaration)."""
    if isinstance(poly, Poly):
        return poly.ring
    if not isinstance(poly, dict):
        raise ValueError(f"a polynomial is a JSON object, not {type(poly).__name__}")
    d = poly.get("field", {}).get("d")
    weights = poly.get("weights")
    key = (tuple(poly["vars"]), d, tuple(weights) if weights else None)
    ring = rings.get(key)
    if ring is None:
        if d is not None and not (type(d) is int and d > 1 and isqrt(d) ** 2 != d):
            raise ValueError(f"field d = {d!r} is not a non-square integer > 1")
        ring = rings[key] = PolyRing(poly["vars"], d=d, weights=weights)
    return ring


def verify_payload_item(item):
    """Re-check one payload entry by evaluating its polynomial identity.
    Each polynomial slot holds the polynomial's JSON or, in an item read
    from a report, the polynomial parsed from its check's table; a
    witness's cofactors are always JSON."""
    kind = item.get("kind")
    if kind in ("witness", "nonmember"):
        ring = _ring_of(item["target"], {})
        cls = Witness if kind == "witness" else NonMembership
        try:
            cls.from_json(item, ring)  # verified on construction
        except EngineError:
            return False
        return True
    if kind == "division":
        ring = _ring_of(item["f"], {})
        f = as_poly(item["f"], ring)
        divisor = as_poly(item["divisor"], ring)
        quotient = as_poly(item["quotient"], ring)
        return f == quotient * divisor
    if kind == "zero_combo":
        ring = _ring_of(item["terms"][0][0], {})
        pairs = [(as_poly(a, ring), as_poly(b, ring)) for a, b in item["terms"]]
        return not dot(pairs, ring)
    if kind == "det_eq":
        ring = _ring_of(item["matrix"]["entries"][0][0], {})
        mat = PolyMatrix.from_json(item["matrix"], ring)
        c = scalar_from_json(item["constant"], d=ring.d)
        rhs = ring.const(c)
        for f in item["factors"]:
            rhs = rhs * as_poly(f, ring)
        return mat.det() == rhs
    return False  # unknown payload kinds never verify


def _map_polys(item, fn):
    """A copy of the payload item with fn applied to each polynomial slot
    but a witness's cofactors; an item of an unknown kind is returned as
    it is."""
    kind = item.get("kind")
    out = dict(item)
    if kind in ("witness", "nonmember"):
        out["target"] = fn(item["target"])
        out["gens"] = [fn(g) for g in item["gens"]]
        if kind == "nonmember":
            out["functional"] = fn(item["functional"])
    elif kind == "division":
        for key in ("f", "divisor", "quotient"):
            out[key] = fn(item[key])
    elif kind == "zero_combo":
        out["terms"] = [[fn(a), fn(b)] for a, b in item["terms"]]
    elif kind == "det_eq":
        matrix = item["matrix"]
        out["matrix"] = dict(matrix, entries=[[fn(p) for p in row] for row in matrix["entries"]])
        out["factors"] = [fn(f) for f in item["factors"]]
    return out


# compact sorted JSON; one encoder for every call (`json.dumps` builds one per call)
_dumps = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def _write_list(fh, texts):
    fh.write("[")
    for i, text in enumerate(texts):
        if i:
            fh.write(",")
        fh.write(text)
    fh.write("]")


def write_report(path, ctype, certs):
    """Write the report as compact sorted JSON, each check's polynomials
    once, in its table `polys`, and every payload slot but a cofactor as
    an index into that table; returns the document written.  The C
    encoder encodes each polynomial object once per report and each item
    on its own (`json.dump` would run the pure-Python encoder, and one
    `dumps` of a whole check or document would hold all of its fragments
    at once)."""
    rest = {"type": ctype, "version": REPORT_VERSION}
    encoded = {}  # id of a polynomial's JSON object -> its text
    checks = []
    with open(path, "w") as fh:
        # "checks" sorts before every other key of the document
        fh.write('{"checks":[')
        for i, cert in enumerate(certs):
            table = {}  # text -> (index, object) in the check's polys

            def index(obj):
                text = encoded.get(id(obj))
                if text is None:
                    text = encoded[id(obj)] = _dumps(obj)
                return table.setdefault(text, (len(table), obj))[0]

            items = [_map_polys(item, index) for item in cert.payload]
            check = dict(cert.to_json(), polys=[obj for _, obj in table.values()], witnesses=items)
            checks.append(check)
            if i:
                fh.write(",")
            for j, key in enumerate(sorted(check)):
                fh.write(("," if j else "{") + _dumps(key) + ":")
                if key == "polys":
                    _write_list(fh, table)
                elif key == "witnesses":
                    _write_list(fh, map(_dumps, items))
                else:
                    fh.write(_dumps(check[key]))
            fh.write("}")
        fh.write("],")
        fh.write(_dumps(rest)[1:])
        fh.write("\n")
    return dict(rest, checks=checks)


_VERDICTS = ("pass", "fail", "error")


def _table(entries, rings):
    """The index -> polynomial map of a check's table: each entry is
    parsed once, on first use, in the ring it declares, one ring object
    per declaration in rings."""
    if not isinstance(entries, list):
        raise ValueError("a check's polys is a list")
    parsed = {}

    def poly(i):
        if type(i) is not int or not 0 <= i < len(entries):
            raise ValueError(f"{i!r} is not an index into the check's {len(entries)} polys")
        p = parsed.get(i)
        if p is None:
            p = parsed[i] = Poly.from_json(entries[i], _ring_of(entries[i], rings))
        return p

    return poly


def verify_report_file(path):
    """Re-verify every embedded payload; returns (ok, list of failures).
    A report of another version than REPORT_VERSION, or whose checks are
    not a nonempty list of objects, each with a verdict of pass, fail or
    error and a table of polynomials, raises ValueError, and so does an
    index outside its check's table or a table entry used in two rings."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a report is a JSON object")
    if doc.get("version") != REPORT_VERSION:
        raise ValueError(
            f"unsupported report version {doc.get('version')!r}; this reader takes {REPORT_VERSION}"
        )
    checks = doc.get("checks")
    if not (isinstance(checks, list) and checks):
        raise ValueError("a report holds a nonempty list of checks")
    if not all(isinstance(cj, dict) and cj.get("verdict") in _VERDICTS for cj in checks):
        raise ValueError(f"every check is an object with a verdict of {', '.join(_VERDICTS)}")
    failures = []
    rings = {}
    for cj in checks:
        cert = Certificate.from_json(cj)
        poly = _table(cj.get("polys"), rings)
        for idx, item in enumerate(cert.payload):
            if not verify_payload_item(_map_polys(item, poly)):
                failures.append(f"{cert.name}[{idx}]:{item.get('label', item.get('kind'))}")
    return not failures, failures
