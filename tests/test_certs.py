import json

import pytest

from coxsaito.certs import CheckFailure, constant_ratio, members, quotient, verify_report_file, write_report
from coxsaito.engine import NonMembership, Witness
from coxsaito.poly import PolyRing
from coxsaito.workspace import Workspace


@pytest.fixture
def ring():
    return PolyRing(("x", "y"))


def test_members_in_degree_order(ring):
    x, y = ring.gens()
    targets = [x**3, ring.zero(), x * y, x * y * y]
    found = members(targets, [x, y * y], lambda i: f"target {i}")
    assert [i for i, _ in found] == [2, 0, 3]
    assert all(w.target == targets[i] and w.verify() for i, w in found)


def test_members_names_the_failing_index(ring):
    x, y = ring.gens()
    # the member of degree 2 is solved first; the non-member is index 0
    with pytest.raises(CheckFailure, match="^target 0$"):
        members([y**3, x * y], [x], lambda i: f"target {i}")


def test_quotient_and_constant_ratio(ring):
    x, y = ring.gens()
    assert quotient(x * y, x, "no") == y
    assert not quotient(ring.zero(), x, "no")
    assert constant_ratio(3 * (x * y), x * y, "no") == 3
    for f, g in ((y, x), (x * y, x), (ring.zero(), x)):
        with pytest.raises(CheckFailure, match="^no$"):
            constant_ratio(f, g, "no")
    with pytest.raises(CheckFailure, match="^no$"):
        quotient(y, x, "no")


def test_report_verifies_each_membership_item_once(tmp_path, monkeypatch):
    ws = Workspace()
    certs = [c for suite in ("grc-A", "drc", "hrc") for c in ws.run_suite("A2", suite)]
    path = tmp_path / "report.json"
    write_report(str(path), "A2", certs)
    items = [
        item
        for check in json.loads(path.read_text())["checks"]
        for item in check["witnesses"]
        if item["kind"] in ("witness", "nonmember")
    ]
    assert items
    calls = []
    for cls in (Witness, NonMembership):
        real = cls.verify
        monkeypatch.setattr(cls, "verify", lambda self, real=real: calls.append(self) or real(self))
    ok, failures = verify_report_file(str(path))
    assert ok, failures
    assert len(calls) == len(items)


@pytest.mark.parametrize("suites", [("datum", "saito", "fibers"), ()])
def test_write_report_bytes_match_one_dump(tmp_path, suites):
    ws = Workspace()
    certs = [c for suite in suites for c in ws.run_suite("B2", suite)]
    path = tmp_path / "report.json"
    doc = write_report(str(path), "B2", certs)
    assert len(doc["checks"]) == len(certs)
    want = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    assert path.read_text() == want
