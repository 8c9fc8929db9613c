import json

import pytest

from coxsaito import certs as certs_module
from coxsaito.certs import CheckFailure, constant_ratio, members, quotient, verify_report_file, write_report
from coxsaito.cli import main
from coxsaito.engine import NonMembership, Witness
from coxsaito.poly import Poly, PolyRing
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


FAST_TYPES = ("A1", "A2", "A3", "B2", "B3", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)")


def _slots(item):
    """The table indices an item's polynomial slots hold, cofactors aside."""
    kind = item["kind"]
    if kind in ("witness", "nonmember"):
        yield item["target"]
        yield from item["gens"]
        if kind == "nonmember":
            yield item["functional"]
    elif kind == "division":
        yield from (item["f"], item["divisor"], item["quotient"])
    elif kind == "zero_combo":
        for pair in item["terms"]:
            yield from pair
    elif kind == "det_eq":
        for row in item["matrix"]["entries"]:
            yield from row
        yield from item["factors"]


@pytest.mark.parametrize("name", FAST_TYPES)
def test_report_tables_are_canonical(name, tmp_path, monkeypatch):
    # each polynomial once per check, every entry used, cofactors written
    # out in full, and each entry parsed once when the report is verified
    path = tmp_path / "report.json"
    assert main(["run", "--type", name, "--out", str(path)]) == 0
    text = path.read_text()
    doc = json.loads(text)
    assert text == json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
    entries = cofactors = 0
    for check in doc["checks"]:
        polys = check["polys"]
        assert len({json.dumps(p, sort_keys=True) for p in polys}) == len(polys)
        used = {i for item in check["witnesses"] for i in _slots(item)}
        assert all(type(i) is int for i in used)
        assert used == set(range(len(polys)))
        for item in check["witnesses"]:
            assert all(isinstance(c, dict) for c in item.get("cofactors", []))
            cofactors += len(item.get("cofactors", []))
        entries += len(polys)
    assert entries
    calls = []
    real = Poly.from_json
    monkeypatch.setattr(Poly, "from_json", staticmethod(lambda *args: calls.append(1) or real(*args)))
    ok, failures = verify_report_file(str(path))
    assert ok, failures
    assert len(calls) <= entries + cofactors


def test_write_report_encodes_each_polynomial_object_once(tmp_path, monkeypatch):
    # every payload that records one polynomial shares its JSON object
    # (`Poly.to_json`), and the writer encodes each such object once
    ws = Workspace()
    certs = [c for suite in ("datum", "saito", "grc-A", "grc-D", "drc", "hrc") for c in ws.run_suite("B3", suite)]
    encoded = []
    real = certs_module._dumps
    monkeypatch.setattr(certs_module, "_dumps", lambda obj: encoded.append(obj) or real(obj))
    doc = write_report(str(tmp_path / "report.json"), "B3", certs)
    polys = [obj for obj in encoded if isinstance(obj, dict) and "vars" in obj]
    assert len({id(obj) for obj in polys}) == len(polys)
    occurrences = sum(1 for check in doc["checks"] for item in check["witnesses"] for _ in _slots(item))
    assert len(polys) < occurrences
