import dataclasses
import importlib.util
import json
import sys
from pathlib import Path

import pytest

import coxsaito.catalog as cat
from coxsaito import freediv, rankcond, saito, workspace
from coxsaito.engine import groebner, krull_dimension
from coxsaito.workspace import (
    Workspace,
    check_datum,
    check_discriminant_monic,
    check_saito_shape,
)


@pytest.fixture(scope="module")
def ws():
    return Workspace()


def test_check_datum(ws):
    for name in ("A2", "B3", "I2(8)"):
        cert = check_datum(ws.datum(name))
        assert cert.verdict == "pass", cert.detail
        assert cert.constants["order"] == ws.datum(name).group_order
        from coxsaito.certs import verify_payload_item

        assert all(verify_payload_item(item) for item in cert.payload)


def test_check_datum_product(ws):
    cert = check_datum(ws.datum("B2xA1"))
    assert cert.verdict == "pass", cert.detail
    assert cert.constants["order"] == 16


def test_saito_shape_and_monic(ws):
    for name in ("A3", "B3", "I2(6)"):
        shape = check_saito_shape(ws.saito(name))
        monic = check_discriminant_monic(ws.saito(name))
        assert shape.verdict == "pass", shape.detail
        assert monic.verdict == "pass", monic.detail
    d4 = check_saito_shape(ws.saito("D4"))
    assert d4.verdict == "pass"
    assert "shape_obstruction" in d4.constants


def test_product_suites_run_per_factor(ws):
    certs = ws.run_suite("A1xA1", "saito")
    assert len(certs) == 4  # two factors, two certificates each
    assert all(c.verdict == "pass" for c in certs)
    assert {c.ctype for c in certs} == {"A1"}


def test_discriminant_minor_ideal_dimension(ws):
    # codimension two inside three invariant coordinates
    t = ws.minor_table("B3", "discriminant")
    gb = groebner(t.all_minors())
    assert all(not m.reduce(gb)[1] for m in t.all_minors())
    assert krull_dimension(t.all_minors()) == 1


def test_datum_disk_cache(tmp_path, ws):
    w1 = Workspace(cache_dir=str(tmp_path))
    d1 = w1.datum("B2")
    assert (tmp_path / "B2.datum.json").exists()
    cat._DATUM_CACHE.pop("B2", None)
    w2 = Workspace(cache_dir=str(tmp_path))
    d2 = w2.datum("B2")
    assert d2.delta == d1.delta
    assert d2.invariants == d1.invariants
    assert d2.group_order == 8
    cat._DATUM_CACHE.pop("B2", None)


@pytest.mark.parametrize(
    "name",
    ["A1", "A2", "A3", "B2", "B3", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)", "H3", "D4", "F4"],
)
def test_every_valid_fixture_loads_back(name, tmp_path, monkeypatch):
    # over Q, Q(sqrt 2) and Q(sqrt 5): a fixture passes the certification
    # a fresh build passes, and gives back the datum it records
    datum = cat.build_datum(name)
    cat.save_fixture(datum, tmp_path / f"{name}.datum.json")

    def refuse(tag, param):
        raise AssertionError("the datum was built, not read")

    monkeypatch.setattr(cat, "_build_irreducible", refuse)
    loaded = Workspace(cache_dir=str(tmp_path)).datum(name)
    assert cat.datum_to_json(loaded) == cat.datum_to_json(datum)


@pytest.mark.parametrize("name,factors", [("A2xA2", 1), ("B2xA2", 2)])
def test_product_builds_each_factor_once(name, factors, monkeypatch):
    monkeypatch.setattr(cat, "_DATUM_CACHE", {})
    built = []
    real = cat._build_irreducible
    monkeypatch.setattr(
        cat, "_build_irreducible", lambda tag, param: built.append((tag, param)) or real(tag, param)
    )
    w = Workspace()
    for suite in ("datum", "saito", "grc-A"):
        assert all(c.verdict == "pass" for c in w.run_suite(name, suite))
    assert len(built) == len(set(built)) == factors


def test_product_under_cache_uses_the_factor_fixtures(tmp_path, monkeypatch):
    monkeypatch.setattr(cat, "_DATUM_CACHE", {})
    built_json = json.dumps(cat.datum_to_json(cat.build_datum("B2xA1")), sort_keys=True)
    Workspace(cache_dir=str(tmp_path)).datum("B2xA1")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["A1.datum.json", "B2.datum.json"]
    monkeypatch.setattr(cat, "_DATUM_CACHE", {})
    built = []
    real = cat._build_irreducible
    monkeypatch.setattr(
        cat, "_build_irreducible", lambda tag, param: built.append((tag, param)) or real(tag, param)
    )
    w = Workspace(cache_dir=str(tmp_path))
    prod = w.datum("B2xA1")
    for suite in ("datum", "saito", "grc-A"):
        assert all(c.verdict == "pass" for c in w.run_suite("B2xA1", suite))
    assert not built
    assert all(part is w.datum(part.name) for part, _off in prod.factors)
    assert json.dumps(cat.datum_to_json(prod), sort_keys=True) == built_json


def test_report_round_trip(tmp_path, ws):
    from coxsaito.certs import verify_report_file, write_report

    certs = ws.run_suite("A2", "grc-A") + ws.run_suite("A2", "hrc")
    path = tmp_path / "report.json"
    write_report(str(path), "A2", certs)
    ok, failures = verify_report_file(str(path))
    assert ok, failures
    doc = json.loads(path.read_text())
    assert doc["type"] == "A2"
    assert len(doc["checks"]) == len(certs)


def _count_calls(monkeypatch, module, attr):
    """Wrap module.attr wherever a coxsaito module holds it (callers that
    imported it by name included); returns the list of recorded calls."""
    original = getattr(module, attr)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for name, mod in list(sys.modules.items()):
        if name.split(".")[0] == "coxsaito":
            for key, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, key, counted)
    return calls


def test_hrc_reuses_grc_and_drc_certificates(monkeypatch):
    ws = Workspace()
    (grc_a,) = ws.run_suite("A2", "grc-A")
    (drc,) = ws.run_suite("A2", "drc")
    grc_calls = _count_calls(monkeypatch, rankcond, "check_grc")
    drc_calls = _count_calls(monkeypatch, rankcond, "check_drc")
    hrc, probe = ws.run_suite("A2", "hrc")
    assert grc_calls == [] and drc_calls == []
    assert probe.verdict == "pass"
    assert probe.constants == {"hrc": "pass", "drc": "pass", "grc": "pass"}


def test_repeated_factor_suites_run_once(monkeypatch):
    ws = Workspace()
    counts = {
        attr: _count_calls(monkeypatch, module, attr)
        for module, attr in (
            (workspace, "check_saito_shape"),
            (rankcond, "check_grc"),
            (rankcond, "check_drc"),
            (rankcond, "check_hrc"),
        )
    }
    for suite in ("saito", "grc-A", "drc", "hrc"):
        certs = ws.run_suite("A2xA2", suite)
        assert all(c.verdict == "pass" and c.ctype == "A2" for c in certs)
    assert {attr: len(calls) for attr, calls in counts.items()} == dict.fromkeys(counts, 1)


def test_shared_objects_built_once_per_type(monkeypatch):
    ws = Workspace()
    quotients = _count_calls(monkeypatch, saito, "logarithmic_quotients")
    solves = _count_calls(monkeypatch, freediv, "solve_basis_change")
    for suite in ("saito", "grc-A", "freediv", "lift"):
        assert all(c.verdict == "pass" for c in ws.run_suite("B2", suite))
    assert len(quotients) == 1
    assert len(solves) == 1


def test_inexact_logarithmic_division_is_a_fail_verdict():
    # with delta multiplied by x_1 the eta fields no longer divide it
    ws = Workspace()
    good = ws.datum("A2")
    bad = dataclasses.replace(good, delta=good.delta * good.ring.gen(0))
    ws.datum = lambda name: bad
    certs = ws.run_suite("A2", "saito")
    assert [c.verdict for c in certs] == ["fail"]
    assert "not logarithmic" in certs[0].detail


def test_non_invariant_basic_invariant_is_a_fail_verdict():
    # with p_2 + x_1^3 in place of p_2 the entries of K are not invariant,
    # so they have no expression in the basic invariants
    ws = Workspace()
    good = ws.datum("A2")
    invariants = list(good.invariants)
    invariants[1] = invariants[1] + good.ring.gen(0) ** 3
    bad = dataclasses.replace(good, invariants=invariants)
    ws.datum = lambda name: bad
    certs = ws.run_suite("A2", "saito")
    assert [c.verdict for c in certs] == ["fail"]
    assert "not a polynomial in the basic invariants" in certs[0].detail


def test_trace_targets_resolve():
    # the benchmark's tracer wraps these attributes by name; a rename would
    # otherwise only show up as a failed traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr_path, _metric in tracing.TARGETS:
        owner = importlib.import_module(f"coxsaito.{module}")
        *cls_path, attr = attr_path.split(".")
        for part in cls_path:
            owner = getattr(owner, part)
        assert callable(vars(owner).get(attr)), f"{module}.{attr_path}"
