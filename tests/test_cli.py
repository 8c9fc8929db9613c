import copy
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxsaito import catalog
from coxsaito.cli import main, required_tier
from coxsaito.poly import PolyRing
from coxsaito.workspace import Workspace


def test_required_tiers():
    assert required_tier("A2", "freediv") == "fast"
    assert required_tier("H3", "grc-A") == "fast"
    assert required_tier("H3", "algebra") == "long"
    assert required_tier("F4", "grc-A") == "long"
    assert required_tier("F4", "algebra") == "long"
    assert required_tier("F4", "datum") == "long"
    assert required_tier("F4", "saito") == "long"
    assert required_tier("F4", "grc-D") == "long"
    assert required_tier("F4", "drc") == "long"
    assert required_tier("F4", "hrc") == "long"
    assert required_tier("F4", "fibers") == "long"
    assert required_tier("F4", "generators") == "long"
    assert required_tier("F4", "fractions") == "stretch"
    assert required_tier("F4", "freediv") == "stretch"
    assert required_tier("F4", "lift") == "stretch"
    assert required_tier("H4", "datum") == "stretch"
    assert required_tier("B2xA1", "datum") == "fast"


def test_run_a2_fast(tmp_path, capsys):
    out = tmp_path / "a2.json"
    rc = main(["run", "--type", "A2", "--tier", "fast", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["type"] == "A2"
    assert doc["checks"]
    assert all(c["verdict"] == "pass" for c in doc["checks"])
    names = {c["check"] for c in doc["checks"]}
    assert {"datum", "grc-A", "grc-D", "hrc", "fibers", "arrangement-lift"} <= names


def test_run_selected_suites(tmp_path):
    out = tmp_path / "a3.json"
    rc = main(["run", "--type", "A3", "--suite", "grc-A,freediv", "--tier", "fast", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    names = [c["check"] for c in doc["checks"]]
    assert "grc-A" in names and "free-divisor-sum" in names
    assert "fibers" not in names


def test_unsupported_type_is_usage_error(capsys):
    rc = main(["run", "--type", "E6", "--suite", "hrc"])
    assert rc == 2
    assert "catalog" in capsys.readouterr().err


@pytest.mark.parametrize("command, method", [("run", "run_suite"), ("fixture", "emit_fixtures")])
@pytest.mark.parametrize("name", ["I2(7)", "I2(2)", "A1xI2(9)"])
def test_unsupported_dihedral_order_is_usage_error(command, method, name, tmp_path, monkeypatch,
                                                   capsys):
    _refuse(monkeypatch, method)
    assert main([command, "--type", name, "--out", str(tmp_path / "out")]) == 2
    assert "error: " in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_unknown_suite_is_usage_error(capsys):
    rc = main(["run", "--type", "A2", "--suite", "nonsense"])
    assert rc == 2


def test_stretch_tier_refusal(capsys):
    rc = main(["run", "--type", "H4", "--suite", "grc-A"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "stretch" in err


def test_long_tier_refusal_for_f4(capsys):
    rc = main(["run", "--type", "F4", "--suite", "grc-A", "--tier", "fast"])
    assert rc == 2
    assert "long" in capsys.readouterr().err


def _refuse(monkeypatch, method):
    # the command must stop before it builds anything
    def refuse(self, *args):
        raise AssertionError(f"Workspace.{method} ran")

    monkeypatch.setattr(Workspace, method, refuse)


@pytest.mark.parametrize(
    "path, message",
    [("missing/r.json", "error: report directory"), (".", "is a directory")],
    ids=["missing-directory", "directory"],
)
def test_unwritable_report_path_is_usage_error(path, message, tmp_path, monkeypatch, capsys):
    _refuse(monkeypatch, "run_suite")
    out = tmp_path / path
    assert main(["run", "--type", "A1", "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("path", ["taken", "taken/sub"])
def test_fixture_under_a_regular_file_is_usage_error(path, tmp_path, monkeypatch, capsys):
    _refuse(monkeypatch, "emit_fixtures")
    (tmp_path / "taken").write_text("keep")
    assert main(["fixture", "--type", "A1", "--out", str(tmp_path / path)]) == 2
    assert "is not a directory" in capsys.readouterr().err
    assert (tmp_path / "taken").read_text() == "keep"


def test_build_error_gives_error_verdicts(tmp_path, monkeypatch):
    # an empty in-memory catalog, as in a new process, so the datum is built
    monkeypatch.setattr(catalog, "_DATUM_CACHE", {})

    def broken(tag, param):
        raise RuntimeError(f"{tag}{param}: no datum")

    monkeypatch.setattr(catalog, "_build_irreducible", broken)
    out = tmp_path / "b2.json"
    assert main(["run", "--type", "B2", "--suite", "datum,saito", "--out", str(out)]) == 3
    checks = json.loads(out.read_text())["checks"]
    assert [c["check"] for c in checks] == ["datum", "saito"]
    for c in checks:
        assert c["verdict"] == "error"
        assert c["detail"] == "RuntimeError: B2: no datum"
        assert not c["witnesses"]


def test_budget_steps_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--type", "A2", "--suite", "datum", "--budget-steps", "5"])
    assert exc.value.code == 2
    assert "--budget-steps" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [["run", "--type", "A2", "--suite", "datum"], ["fixture", "--type", "A1"]],
                         ids=["run", "fixture"])
def test_cache_is_usage_error(argv, tmp_path, capsys):
    # every datum is built: there is no fixture directory to read
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out"), "--cache", str(tmp_path)])
    assert exc.value.code == 2
    assert "--cache" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _benchmark_workloads():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", ("A1",) + _benchmark_workloads().WITH_A1)
def test_a1_and_its_products_pass_and_verify(name, tmp_path):
    # the benchmark's correctness gate on its catalog-sweep jobs holding A1
    out = tmp_path / "report.json"
    assert main(["run", "--type", name, "--tier", "fast", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["checks"] and all(c["verdict"] == "pass" for c in doc["checks"])
    # rank 1 leaves out basis-change; a product runs it for its other factor
    assert ("basis-change" in {c["check"] for c in doc["checks"]}) == (name != "A1")
    assert main(["verify", str(out)]) == 0


def test_verify_round_trip(tmp_path, capsys):
    out = tmp_path / "a2.json"
    assert main(["run", "--type", "A2", "--suite", "grc-A", "--tier", "fast", "--out", str(out)]) == 0
    assert main(["verify", str(out)]) == 0


def test_verify_detects_tampering(tmp_path, capsys):
    out = tmp_path / "a2.json"
    main(["run", "--type", "A2", "--suite", "grc-A", "--tier", "fast", "--out", str(out)])
    doc = json.loads(out.read_text())
    # perturb one cofactor coefficient inside the first witness
    for check in doc["checks"]:
        if check["witnesses"]:
            w = check["witnesses"][0]
            w["cofactors"][0]["terms"][0]["coeff"]["a"] = ["123", "1"]
            break
    out.write_text(json.dumps(doc))
    rc = main(["verify", str(out)])
    assert rc == 1
    printed = capsys.readouterr().out
    assert "FAILED" in printed and "grc-A" in printed


def test_verify_malformed_report(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["verify", str(bad)]) == 2


def _deeply_nested_division():
    # a division payload whose f nests 5000 objects deep
    f = '{"f":' * 5000 + "0" + "}" * 5000
    item = '{"kind":"division","label":"deep","f":%s,"divisor":{},"quotient":{}}' % f
    return '{"checks":[{"check":"x","type":"A1","verdict":"pass","witnesses":[%s]}]}' % item


@pytest.mark.parametrize(
    "text",
    ['{"checks":' + "[" * 100000 + "]" * 100000 + "}", _deeply_nested_division()],
    ids=["checks-nested-100000", "division-f-nested-5000"],
)
def test_verify_deeply_nested_report_exit_2(text, tmp_path, capsys):
    # these exited 1 with a RecursionError traceback
    bad = tmp_path / "deep.json"
    bad.write_text(text)
    assert main(["verify", str(bad)]) == 2
    assert "malformed report" in capsys.readouterr().err


def _witnessed(doc):
    return next(c for c in doc["checks"] if c["witnesses"])


def _item(doc, kind):
    return next(w for c in doc["checks"] for w in c["witnesses"] if w["kind"] == kind)


def _cofactor(doc):
    return _item(doc, "witness")["cofactors"][0]


def _first_exp(doc):
    return _cofactor(doc)["terms"][0]["exp"]


def _det_factor(doc):
    return _item(doc, "det_eq")["factors"][0]


def _tampered_under_uppercase_verdict(doc):
    # the check holding the first witness, which gets one cofactor changed
    check = next(c for c in doc["checks"] if any(w["kind"] == "witness" for w in c["witnesses"]))
    check["verdict"] = "PASS"
    _cofactor(doc)["terms"][0]["coeff"]["a"] = ["123", "1"]


# each mutation edits the report in place, or returns a replacement
_MUTATIONS = {
    "checks-int": lambda doc: doc.update(checks=5),
    "witnesses-str": lambda doc: _witnessed(doc).update(witnesses="x"),
    "cofactor-terms-int": lambda doc: _cofactor(doc).update(terms=3),
    "null-coefficient": lambda doc: _cofactor(doc)["terms"][0].update(coeff=None),
    "null-check": lambda doc: doc["checks"].__setitem__(0, None),
    "top-level-list": lambda doc: [doc],
    "zero-denominator": lambda doc: _cofactor(doc)["terms"][0]["coeff"].update(a=["1", "0"]),
    "empty-det-matrix": lambda doc: _item(doc, "det_eq")["matrix"].update(entries=[]),
    "empty-zero-combo-pair": lambda doc: _item(doc, "zero_combo")["terms"].__setitem__(0, []),
    "negative-exponent": lambda doc: _first_exp(doc).__setitem__(0, -1),
    "short-exponent": lambda doc: _first_exp(doc).__delitem__(-1),
    # past the width of a packed key field
    "huge-exponent": lambda doc: _first_exp(doc).__setitem__(0, 1 << 16),
    # the identity still holds on the first cofactors, but a witness has one
    # cofactor per generator
    "extra-cofactor": lambda doc: _item(doc, "witness")["cofactors"].append(_cofactor(doc)),
    # a polynomial declaring a ring other than its item's, or an item ring
    # over no real quadratic field: these verified while every polynomial of
    # an item was parsed in the ring of its first one
    "factor-vars-cut": lambda doc: _det_factor(doc).update(vars=["x1"]),
    "factor-field-square": lambda doc: _det_factor(doc).update(field={"d": 4}),
    "factor-field-zero": lambda doc: _det_factor(doc).update(field={"d": 0}),
    "factor-weights": lambda doc: _det_factor(doc).update(weights=[2, 3]),
    "item-field-square": lambda doc: _item(doc, "det_eq")["matrix"]["entries"][0][0].update(field={"d": 4}),
    # no checks, or a verdict other than pass, fail and error, whose payload
    # went unchecked: these verified with exit 0
    "checks-missing": lambda doc: doc.__delitem__("checks"),
    "checks-empty-object": lambda doc: doc.update(checks={}),
    "checks-empty-list": lambda doc: doc.update(checks=[]),
    "verdict-uppercase-tampered": _tampered_under_uppercase_verdict,
}


@pytest.fixture(scope="module")
def a2_report(tmp_path_factory):
    # datum, saito and grc-A give det_eq, zero_combo and witness payloads
    out = tmp_path_factory.mktemp("a2") / "a2.json"
    argv = ["run", "--type", "A2", "--suite", "datum,saito,grc-A", "--out", str(out)]
    assert main(argv) == 0
    return json.loads(out.read_text())


def test_report_with_budget_used_still_verifies(a2_report, tmp_path):
    # reports written before the step budget was removed carry the key
    assert all("budget_used" not in c for c in a2_report["checks"])
    doc = copy.deepcopy(a2_report)
    for check in doc["checks"]:
        check["budget_used"] = None
    old = tmp_path / "old.json"
    old.write_text(json.dumps(doc))
    assert main(["verify", str(old)]) == 0


@pytest.mark.parametrize("mutation", sorted(_MUTATIONS))
def test_verify_wrong_field_types_exit_2(mutation, a2_report, tmp_path, capsys):
    doc = json.loads(json.dumps(a2_report))
    doc = _MUTATIONS[mutation](doc) or doc
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 2
    assert "malformed report" in capsys.readouterr().err


@pytest.fixture(scope="module")
def i25_report(tmp_path_factory):
    out = tmp_path_factory.mktemp("i25") / "i25.json"
    assert main(["run", "--type", "I2(5)", "--suite", "datum,grc-A", "--out", str(out)]) == 0
    return json.loads(out.read_text())


@pytest.mark.parametrize("bogus_first", [True, False], ids=["bogus-first", "true-first"])
def test_verify_repeated_exponent_exit_2(bogus_first, i25_report, tmp_path, capsys):
    # the first grc-A cofactor gets a second term at the exponent of its
    # first, before or after it: in either order the report is malformed,
    # whichever term the identity would have been checked with
    doc = copy.deepcopy(i25_report)
    check = next(c for c in doc["checks"] if c["check"] == "grc-A")
    cofactor = next(w for w in check["witnesses"] if w["kind"] == "witness")["cofactors"][0]
    true = cofactor["terms"][0]
    assert true["exp"] == [0, 0]
    bogus = {"coeff": {"a": ["7", "1"]}, "exp": [0, 0]}
    cofactor["terms"][:1] = [bogus, true] if bogus_first else [true, bogus]
    bad = tmp_path / "repeated.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 2
    assert "repeated exponent" in capsys.readouterr().err


def test_verify_rejects_negative_exponent_forgery(tmp_path, capsys):
    # y^2 is not in (x), yet x^-1 y^2 * x == y^2 would verify the witness
    ring = PolyRing(("x", "y", "z"))
    x, y, _ = ring.gens()
    item = {"kind": "witness", "target": (y**2).to_json(), "gens": [x.to_json()],
            "cofactors": [(y**2).to_json()]}
    item["cofactors"][0]["terms"][0]["exp"] = [-1, 2, 0]
    check = {"check": "grc-A", "type": "A3", "verdict": "pass", "constants": {},
             "witnesses": [item], "wall_time": 0.0, "detail": ""}
    doc = {"version": "0.1.0", "type": "A3", "seeds": {}, "checks": [check]}
    forged = tmp_path / "forged.json"
    forged.write_text(json.dumps(doc))
    assert main(["verify", str(forged)]) == 2
    assert "malformed exponent" in capsys.readouterr().err


def _leaf_paths(obj, path=()):
    if isinstance(obj, dict) and obj:
        for key, value in obj.items():
            yield from _leaf_paths(value, path + (key,))
    elif isinstance(obj, list) and obj:
        for idx, value in enumerate(obj):
            yield from _leaf_paths(value, path + (idx,))
    else:
        yield path


_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from(["", "x", "0", "-1", "1.5", "witness", "det_eq", "zero_combo"]),
    st.sampled_from([[], {}, [[]], ["1", "0"], {"a": ["1", "0"]}]),
)


@settings(max_examples=80, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_verify_fuzzed_report_never_crashes(data, a2_report, tmp_path):
    doc = copy.deepcopy(a2_report)
    paths = list(_leaf_paths(doc))
    for _ in range(data.draw(st.integers(1, 3))):
        *parents, last = data.draw(st.sampled_from(paths))
        owner = doc
        for key in parents:
            owner = owner[key]
        owner[last] = copy.deepcopy(data.draw(_LEAVES))
        paths = list(_leaf_paths(doc))
    bad = tmp_path / "fuzzed.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) in (0, 1, 2)


def test_fixture_emission_idempotent(tmp_path):
    rc = main(["fixture", "--type", "I2(5)", "--out", str(tmp_path)])
    assert rc == 0
    datum_path = tmp_path / "I2(5).datum.json"
    saito_path = tmp_path / "I2(5).saito.json"
    first = datum_path.read_bytes()
    first_s = saito_path.read_bytes()
    rc = main(["fixture", "--type", "I2(5)", "--out", str(tmp_path)])
    assert rc == 0
    assert datum_path.read_bytes() == first
    assert saito_path.read_bytes() == first_s
    doc = json.loads(saito_path.read_text())
    # the dihedral normal form constants are recorded, with b = 0 for odd h
    assert doc["dihedral"]["b"] == "0"
    assert doc["dihedral"]["h"] == "5"


def test_fixture_b3_records_published_comparison(tmp_path):
    rc = main(["fixture", "--type", "B3", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "B3.saito.json").read_text())
    assert doc["published_matrix_check"]["det_ratio"] == "81"


def test_fixture_minimal_a1(tmp_path):
    rc = main(["fixture", "--type", "A1", "--out", str(tmp_path)])
    assert rc == 0
    doc = json.loads((tmp_path / "A1.datum.json").read_text())
    assert doc["degrees"] == [2]
    assert doc["group_order"] == 2
