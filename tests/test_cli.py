import copy
import importlib.util
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from coxsaito import catalog
from coxsaito.certs import REPORT_VERSION
from coxsaito.cli import main, required_tier
from coxsaito.poly import Poly, PolyRing
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
    # every type the table leaves out has rank 5 or more
    assert required_tier("A6", "datum") == "stretch"
    assert required_tier("B5", "grc-A") == "stretch"
    assert required_tier("D5", "freediv") == "stretch"
    assert required_tier("B2xA1", "datum") == "fast"
    assert required_tier("D3", "freediv") == "fast"


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


@pytest.mark.parametrize("command, method", [("run", "run_suite")])
@pytest.mark.parametrize("name", ["I2(7)", "I2(2)", "A1xI2(9)", "I2(5)xI2(8)"])
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


@pytest.mark.parametrize("argv", [["run", "--type", "A2", "--suite", "datum"]], ids=["run"])
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


def _check_of(doc, kind):
    return next(c for c in doc["checks"] if any(w["kind"] == kind for w in c["witnesses"]))


def _entry(doc, kind, slot):
    # the table entry that slot(item) indexes, for the first item of kind
    check = _check_of(doc, kind)
    return check["polys"][slot(_item(doc, kind))]


def _det_factor(doc):
    return _entry(doc, "det_eq", lambda item: item["factors"][0])


def _set_gen(doc, index):
    # the first generator of the first witness
    _item(doc, "witness")["gens"][0] = index


def _entry_in_two_rings(doc):
    # an item of one ring takes, as its second polynomial, an entry that an
    # item of another ring of the same check uses
    for check in doc["checks"]:
        by_ring = {}
        for item in check["witnesses"]:
            if item["kind"] == "zero_combo":
                by_ring.setdefault(tuple(check["polys"][item["terms"][0][0]]["vars"]), item)
        if len(by_ring) > 1:
            a, b = list(by_ring.values())[:2]
            b["terms"][0][1] = a["terms"][0][1]
            return
    raise AssertionError("no check holds items of two rings")


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
    # an identity with no terms claims nothing: it verified with exit 0
    "zero-combo-no-terms": lambda doc: _item(doc, "zero_combo").update(terms=[]),
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
    "item-field-square": lambda doc: _entry(
        doc, "det_eq", lambda item: item["matrix"]["entries"][0][0]).update(field={"d": 4}),
    # no checks, or a verdict other than pass, fail and error, whose payload
    # went unchecked: these verified with exit 0
    "checks-missing": lambda doc: doc.__delitem__("checks"),
    "checks-empty-object": lambda doc: doc.update(checks={}),
    "checks-empty-list": lambda doc: doc.update(checks=[]),
    "verdict-uppercase-tampered": _tampered_under_uppercase_verdict,
    # this reader takes one report version: an edited one verified with exit 0
    "version-0.1.0": lambda doc: doc.update(version="0.1.0"),
    "version-9.9": lambda doc: doc.update(version="9.9"),
    "version-missing": lambda doc: doc.__delitem__("version"),
    # a polynomial slot holds an index into its check's table, and a
    # witness's cofactors are written out in full
    "index-out-of-range": lambda doc: _set_gen(doc, len(_check_of(doc, "witness")["polys"])),
    "index-negative": lambda doc: _set_gen(doc, -1),
    "index-bool": lambda doc: _set_gen(doc, True),
    "index-str": lambda doc: _set_gen(doc, "0"),
    "index-float": lambda doc: _set_gen(doc, 0.0),
    "polys-not-list": lambda doc: _check_of(doc, "witness").update(
        polys={str(i): p for i, p in enumerate(_check_of(doc, "witness")["polys"])}),
    "entry-not-object": lambda doc: _check_of(doc, "witness")["polys"].__setitem__(
        0, [_check_of(doc, "witness")["polys"][0]]),
    "cofactor-index": lambda doc: _item(doc, "witness")["cofactors"].__setitem__(0, 0),
    "entry-in-two-rings": _entry_in_two_rings,
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


@pytest.mark.parametrize("mutation", ["version-0.1.0", "version-9.9", "version-missing"])
def test_verify_names_an_unsupported_version(mutation, a2_report, tmp_path, capsys):
    doc = copy.deepcopy(a2_report)
    _MUTATIONS[mutation](doc)
    bad = tmp_path / "old.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 2
    assert "unsupported report version" in capsys.readouterr().err


def test_verify_detects_a_tampered_shared_generator(a2_report, tmp_path, capsys):
    # one coefficient of a generator that several witnesses share, written
    # once in its check's table, is changed there; a witness with a nonzero
    # cofactor on it, whose target is another entry, then fails
    doc = copy.deepcopy(a2_report)
    check, index = next(
        (c, w["gens"][j])
        for c in doc["checks"]
        for w in c["witnesses"]
        if w["kind"] == "witness"
        for j, cof in enumerate(w["cofactors"])
        if cof["terms"] and w["gens"][j] != w["target"]
    )
    assert sum(index in w["gens"] for w in check["witnesses"] if w["kind"] == "witness") > 1
    coeff = check["polys"][index]["terms"][0]["coeff"]
    num, den = coeff["a"]
    coeff["a"] = [str(int(num) + int(den)), den]
    bad = tmp_path / "shared.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 1
    assert f"FAILED {check['check']}" in capsys.readouterr().out
    # the cofactor tamper the benchmark applies is caught as before
    doc = copy.deepcopy(a2_report)
    _cofactor(doc)["terms"][0]["coeff"]["a"] = ["123", "1"]
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 1


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
    item = {"kind": "witness", "target": 0, "gens": [1], "cofactors": [(y**2).to_json()]}
    item["cofactors"][0]["terms"][0]["exp"] = [-1, 2, 0]
    check = {"check": "grc-A", "type": "A3", "verdict": "pass", "constants": {},
             "polys": [(y**2).to_json(), x.to_json()], "witnesses": [item], "wall_time": 0.0,
             "detail": ""}
    doc = {"version": REPORT_VERSION, "type": "A3", "seeds": {}, "checks": [check]}
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


def test_fixture_command_is_gone(tmp_path, monkeypatch, capsys):
    # the report is the one output
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main(["fixture", "--type", "A1"])
    assert exc.value.code == 2
    assert "fixture" in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_repeated_suite_runs_once(tmp_path):
    out = tmp_path / "a1.json"
    assert main(["run", "--type", "A1", "--suite", "datum,datum", "--out", str(out)]) == 0
    (check,) = json.loads(out.read_text())["checks"]
    assert check["check"] == "datum"
    assert check["constants"]["degrees"] == [2]
    assert check["constants"]["order"] == 2


@pytest.mark.parametrize("name", ["A2x", "xA2", "A2xxB2"])
def test_empty_product_factor_names_the_type(name, tmp_path, monkeypatch, capsys):
    _refuse(monkeypatch, "run_suite")
    assert main(["run", "--type", name, "--out", str(tmp_path / "out")]) == 2
    assert repr(name) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_report_records_dihedral_constants(tmp_path):
    out = tmp_path / "i25.json"
    assert main(["run", "--type", "I2(5)", "--suite", "saito", "--out", str(out)]) == 0
    shape = next(c for c in json.loads(out.read_text())["checks"] if c["check"] == "saito-shape")
    # the dihedral normal form constants, with b = 0 for odd h
    assert shape["constants"]["dihedral"]["b"] == "0"
    assert shape["constants"]["dihedral"]["h"] == "5"


SAITO_TYPES = ("A1", "A2", "A3", "B2", "B3", "I2(3)", "I2(4)", "I2(5)", "I2(6)", "I2(8)", "D4", "H3")


@pytest.mark.parametrize("name", SAITO_TYPES)
def test_report_records_the_saito_matrix(name, tmp_path, capsys):
    out = tmp_path / "saito.json"
    assert main(["run", "--type", name, "--suite", "saito", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    check = next(c for c in doc["checks"] if c["check"] == "discriminant-monic")
    (item,) = [w for w in check["witnesses"] if w.get("label") == "saito-det"]
    assert item["kind"] == "det_eq"
    sd = Workspace().saito(name)
    entries = item["matrix"]["entries"]
    assert [[Poly.from_json(check["polys"][i], sd.p_ring) for i in row] for row in entries] == sd.K_R.e
    # one coefficient of one K_R entry, changed in the table, breaks det K_R = c * disc
    coeff = check["polys"][entries[0][0]]["terms"][0]["coeff"]
    num, den = coeff["a"]
    coeff["a"] = [str(int(num) + int(den)), den]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["verify", str(bad)]) == 1
    assert "FAILED discriminant-monic" in capsys.readouterr().out
