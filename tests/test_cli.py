"""The verification runner: suite composition, report formats, determinism,
and process exit codes."""

import dataclasses
import errno
import importlib
import json
import math
import os
import pathlib
import pkgutil
import random
import re
import subprocess
import sys

import numpy as np
import pytest

import nksl3
from nksl3 import classify, cli, exactfield, liealg, nkgeom, surfaces
from nksl3.exactfield import ONE, FieldElem
from nksl3.liealg import MVec
from nksl3.classify import GridSpec

COARSE_GRID = "0:1:1/2,-1:1:1/2"
GOLDEN_ALL = pathlib.Path(__file__).parent / "data" / "all_seed0.json"
# float deviations hang on the libm build, not on the program
_DEVIATION = re.compile(r"\d\.\d{3}e[+-]\d+")


def _spec(suite, **kwargs):
    kwargs.setdefault("grid", GridSpec.parse(COARSE_GRID))
    kwargs.setdefault("samples", 10)
    return cli.SuiteSpec(suite, **kwargs)


def test_suite_names():
    assert cli.SUITES == ("field", "algebra", "tensors", "curvature",
                          "examples", "classify", "all")


def test_spec_validation():
    with pytest.raises(ValueError):
        cli.SuiteSpec("nope")
    with pytest.raises(ValueError):
        cli.SuiteSpec("field", tol=0.0)
    with pytest.raises(ValueError):
        cli.SuiteSpec("field", samples=0)


def test_every_suite_is_green():
    for suite in ("field", "algebra", "tensors", "examples", "classify"):
        report = cli.run(_spec(suite))
        assert report.passed, (suite, [r for r in report.checks
                                       if not r.passed])


def test_all_suite_is_the_union():
    report = cli.run(_spec("all"))
    assert report.passed
    names = [record.name for record in report.checks]
    prefixes = {name.split(".")[0] for name in names}
    assert prefixes == {"field", "algebra", "tensors", "curvature",
                        "examples", "classify"}
    parts = sum(len(cli.run(_spec(suite)).checks)
                for suite in cli.SUITES[:-1])
    assert len(names) == parts


def _golden_text(payload):
    payload.pop("elapsed_ms", None)
    for record in payload["checks"]:
        if (record["name"] == "algebra.stabilizer_rotation"
                or record["name"].startswith("examples.")):
            record["witness"] = _DEVIATION.sub("<deviation>", record["witness"])
    return json.dumps(payload, ensure_ascii=False, indent=2) + "\n"


def test_all_report_matches_the_golden_report():
    # `nksl3 all --seed 0` with default flags, byte for byte apart from
    # elapsed_ms and the float deviations; a deliberate witness change
    # regenerates tests/data/all_seed0.json
    report = cli.run(cli.SuiteSpec("all", seed=0))
    golden = json.loads(GOLDEN_ALL.read_text(encoding="utf-8"))
    assert _golden_text(json.loads(report.to_json())) == _golden_text(golden)


def test_checks_sorted_by_name():
    report = cli.run(_spec("algebra"))
    names = [record.name for record in report.checks]
    assert names == sorted(names)


def test_report_totals_and_status():
    report = cli.run(_spec("field"))
    totals = report.totals
    assert totals["total"] == len(report.checks)
    assert totals["pass"] + totals["fail"] == totals["total"]
    assert totals["fail"] == 0
    assert all(record.status in ("pass", "fail") for record in report.checks)
    assert all(record.anchor for record in report.checks)


def test_failing_check_is_reported_not_raised():
    # a hopeless tolerance makes the numeric sweeps fail while exact
    # checks stay green; the report carries the failure instead of raising
    report = cli.run(_spec("algebra", tol=1e-30))
    failed = [record for record in report.checks if not record.passed]
    assert failed
    assert not report.passed
    assert any("deviation" in record.witness for record in failed)


def test_sample_witness_is_rendered_only_on_failure(monkeypatch):
    renders = []
    original_str = FieldElem.__str__

    def counted_str(self):
        renders.append(self)
        return original_str(self)

    monkeypatch.setattr(FieldElem, "__str__", counted_str)
    assert cli.run(_spec("field", seed=4)).passed
    assert len(renders) == 10  # parse_roundtrip's own str(x), once a sample

    # a broken inverse fails on the first draw, named exactly as before
    x = exactfield.random_element(random.Random(4), nonzero=True)
    assert x * x != ONE
    monkeypatch.setattr(FieldElem, "inv", lambda self: self)
    records = {r.name: r for r in cli.run(_spec("field", seed=4)).checks}
    assert records["field.inverse"].witness == f"x*inv(x) != 1 at {x}"


def test_certificate_witness_is_not_a_format_template():
    # the examples witness embeds a dict, braces and all
    failed = [r for r in cli.run(_spec("examples", tol=1e-30)).checks
              if not r.passed]
    assert failed
    assert all(r.witness.startswith("certificate failed: {'") for r in failed)


def test_json_schema():
    report = cli.run(_spec("field", seed=5))
    payload = json.loads(report.to_json())
    assert list(payload) == ["suite", "seed", "checks", "totals",
                             "elapsed_ms"]
    assert payload["suite"] == "field"
    assert payload["seed"] == 5
    for record in payload["checks"]:
        assert list(record) == ["name", "status", "anchor", "witness"]
    assert payload["totals"]["fail"] == 0


def test_json_deterministic_modulo_elapsed():
    blobs = []
    for _ in range(2):
        report = cli.run(_spec("examples", seed=3))
        payload = json.loads(report.to_json())
        payload.pop("elapsed_ms")
        blobs.append(json.dumps(payload, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_empty_report_is_valid_json():
    report = cli.Report("field", 0, (), 0)
    payload = json.loads(report.to_json())
    assert payload["checks"] == []
    assert payload["totals"] == {"pass": 0, "fail": 0, "total": 0}
    assert report.passed  # vacuously green


def test_text_format_shape():
    report = cli.run(_spec("tensors"))
    text = report.to_text()
    lines = text.strip().split("\n")
    assert len(lines) == len(report.checks) + 1
    assert lines[-1].startswith("PASS")
    assert all(line.startswith(("ok", "FAIL")) for line in lines[:-1])


def test_classify_witnesses_carry_the_values():
    report = cli.run(_spec("classify"))
    records = {record.name: record for record in report.checks}
    case2 = records["classify.case2_eliminated"].witness
    assert "4e1 + 2e5" in case2 and "leaves span" in case2
    assert "4e1 + 2e3" in case2  # the transpose-image representative
    mapping = records["classify.mapping"].witness
    for pair in ("1 -> f1", "3+ -> f2", "3- -> f3", "4 -> f4", "5 -> f5"):
        assert pair in mapping
    pinned = records["classify.case4_pinned"].witness
    assert "0 passes" in pinned


def test_main_exit_codes(capsys):
    assert cli.main(["tensors"]) == 0
    capsys.readouterr()
    assert cli.main(["algebra", "--tol", "1e-30", "--samples", "5"]) == 1
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["bogus"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["field", "--tol", "-1"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["field", "--samples", "0"])
    assert exc.value.code == 2
    capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        cli.main(["classify", "--grid", "zz"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_main_json_output(capsys):
    code = cli.main(["field", "--format", "json", "--samples", "5",
                     "--seed", "2"])
    assert code == 0
    out = capsys.readouterr().out
    assert out.endswith("\n")
    payload = json.loads(out)
    assert payload["suite"] == "field" and payload["seed"] == 2


def test_main_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = cli.main(["tensors", "--format", "json", "--out", str(target)])
    assert code == 0
    assert capsys.readouterr().out == ""
    payload = json.loads(target.read_text(encoding="utf-8"))
    assert payload["totals"]["fail"] == 0


def test_main_respects_grid_flag(capsys):
    code = cli.main(["classify", "--grid", COARSE_GRID])
    assert code == 0
    out = capsys.readouterr().out
    assert "0:1:1/2,-1:1:1/2" in out


def test_empty_grid_is_not_evidence(capsys):
    code = cli.main(["classify", "--grid", "0:0:1,0:0:1"])
    assert code == 1
    out = capsys.readouterr().out
    assert "FAIL classify.case4_pinned" in out
    assert "holds no cells" in out


def test_main_out_unwritable_path_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = cli.main(["tensors", "--format", "json", "--out", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1
    assert str(target) in captured.err
    assert not target.exists()


def test_nonfinite_tolerance_is_refused(capsys):
    for argv in (["algebra", "--tol", "nan"], ["examples", "--tol", "inf"]):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert "tolerance" in capsys.readouterr().err
    for tol in (math.nan, math.inf):
        with pytest.raises(ValueError):
            cli.SuiteSpec("field", tol=tol)


def test_oversized_grid_exits_2_without_sweeping(monkeypatch, capsys):
    def no_sweep(*args, **kwargs):
        raise AssertionError("the grid was swept")

    monkeypatch.setattr(cli, "pin_case4", no_sweep)
    for grid in ("0:1000:1/50,-2500:2500:1/2", "0:1e30:1,0:1:1"):
        with pytest.raises(SystemExit) as exc:
            cli.main(["classify", "--grid", grid])
        assert exc.value.code == 2
        assert "above the cap" in capsys.readouterr().err


def test_grid_with_a_huge_exponent_exits_2_at_once():
    # Fraction would spend minutes building 10**100000000; run in a child so
    # that a regression fails on the timeout instead of stalling the suite
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "nksl3.cli", "classify",
                           "--grid", "0:1e100000000:1,0:1:1"],
                          env=env, capture_output=True, text=True, timeout=30)
    assert proc.returncode == 2
    assert "bad grid spec" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unwritable_stdout_exits_2(monkeypatch, capsys):
    class FullStdout:
        def write(self, text):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

        def flush(self):
            pass

    monkeypatch.setattr(sys, "stdout", FullStdout())
    assert cli.main(["tensors", "--format", "json"]) == 2
    err = capsys.readouterr().err
    assert err == f"nksl3: cannot write stdout: {os.strerror(errno.ENOSPC)}\n"


def test_unencodable_stdout_exits_2():
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONIOENCODING="ascii", PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "nksl3.cli", "classify"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith("nksl3: cannot write stdout: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr


def test_oracle_agreement_fails_when_routes_disagree(monkeypatch):
    original = nkgeom.curvature_oracle
    e1, e2 = MVec.basis(1), MVec.basis(2)

    def perturbed(x, y, z):
        raw = original(x, y, z)
        return raw + e1 if (x, y, z) == (e1, e2, e2) else raw

    monkeypatch.setattr(nkgeom, "curvature_oracle", perturbed)
    try:
        records = {r.name: r for r in cli.run(_spec("curvature")).checks}
    finally:
        monkeypatch.undo()
    agreement = records["curvature.oracle_agreement"]
    assert not agreement.passed
    assert "no single sign convention" in agreement.witness


_TABLE_CACHES = (nkgeom.curvature_table, classify.tangency_form)


def test_the_cached_functions_are_the_five_tables():
    # a second cache derived from `_bracket_terms` or `curvature_table`
    # would go stale when a test patches its source table and clears only
    # the caches above; `classify` re-imports `curvature_table`, so each
    # cache is named by where it is defined
    cached = set()
    for info in pkgutil.iter_modules(nksl3.__path__):
        module = importlib.import_module(f"nksl3.{info.name}")
        for value in vars(module).values():
            members = vars(value).values() if isinstance(value, type) else ()
            for obj in (value, *members):
                if (hasattr(obj, "cache_clear")
                        and obj.__module__.startswith("nksl3.")):
                    cached.add((obj.__module__, obj.__qualname__))
    assert cached == {("nksl3.liealg", "_metric_rows"),
                      ("nksl3.liealg", "_dual"),
                      ("nksl3.liealg", "_bracket_terms"),
                      ("nksl3.nkgeom", "curvature_table"),
                      ("nksl3.classify", "tangency_form")}


def _curvature_records_with(monkeypatch, name, value, module=nkgeom):
    """The curvature suite's records with `module.<name>` patched to
    `value`, every cache of the table cleared before and after."""
    for cached in _TABLE_CACHES:
        cached.cache_clear()
    monkeypatch.setattr(module, name, value)
    try:
        return {r.name: r for r in cli.run(_spec("curvature")).checks}
    finally:
        monkeypatch.undo()
        for cached in _TABLE_CACHES:
            cached.cache_clear()


def test_oracle_agreement_fails_on_a_negated_five_term(monkeypatch):
    original = nkgeom._five_term
    records = _curvature_records_with(
        monkeypatch, "_five_term",
        lambda x, y, z: tuple(-c for c in original(x, y, z)))
    assert not records["curvature.oracle_agreement"].passed


@pytest.mark.parametrize("index", range(5))
def test_oracle_agreement_fails_on_one_changed_coefficient(monkeypatch, index):
    # each of the five terms is needed: one integer coefficient over D
    # lowered by one leaves a tensor the bracket route refutes, and whose
    # Ricci trace is no longer 5 times the metric
    mutant = list(nkgeom._COEFFICIENTS)
    mutant[index] -= 1
    records = _curvature_records_with(monkeypatch, "_COEFFICIENTS", tuple(mutant))
    agreement = records["curvature.oracle_agreement"]
    assert not agreement.passed
    assert "no single sign convention" in agreement.witness
    assert not records["curvature.einstein"].passed


def test_symmetries_fail_on_a_table_with_one_entry_dropped(monkeypatch):
    # the check reads the integer table.  Drop one coefficient of
    # R(eᵢ, eⱼ)eₖ with i < j and i < k, leaving R(eⱼ, eᵢ)eₖ standing: the
    # sweep reaches (i, j, k) before (j, i, k) and before the Bianchi sums
    # at (j, k, i) and (k, i, j), and it checks antisymmetry first
    denominator, entries = nkgeom.curvature_table()
    dropped = next(entry for entry in entries if entry[0] < min(entry[1:3]))
    i, j, k, _, _ = dropped
    kept = tuple(entry for entry in entries if entry != dropped)
    records = _curvature_records_with(
        monkeypatch, "curvature_table", lambda: (denominator, kept), cli)
    symmetries = records["curvature.symmetries"]
    assert not symmetries.passed
    assert symmetries.witness == (
        f"not antisymmetric in the first pair at ({i + 1}, {j + 1}, {k + 1})")
    assert records["curvature.einstein"].passed


def test_stabilizer_rotation_fails_on_a_nan_deviation(monkeypatch):
    # NaN on every sample, then on the first of ten only: one NaN among
    # finite deviations must survive the running maximum
    calls = []

    def first_nan(t, s, x):
        calls.append(x)
        value = liealg.ad_numeric(t, s, x)
        return [math.nan] * 6 if len(calls) == 1 else value

    for fake in (lambda t, s, x: np.full(6, np.nan), first_nan):
        monkeypatch.setattr(cli, "ad_numeric", fake)
        records = {r.name: r for r in cli.run(_spec("algebra")).checks}
        rotation = records["algebra.stabilizer_rotation"]
        assert not rotation.passed
        assert rotation.witness == "max deviation nan > tol"
    assert len(calls) == 10


def test_the_program_runs_without_numpy():
    # numpy is a test dependency only: importing the CLI loads none of it,
    # and every check passes with it blocked
    src = pathlib.Path(cli.__file__).parents[1]
    env = dict(os.environ, PYTHONPATH=str(src))
    imported = subprocess.run(
        [sys.executable, "-c",
         "import sys, nksl3.cli; print('numpy' in sys.modules)"],
        env=env, capture_output=True, text=True, timeout=60)
    assert imported.returncode == 0, imported.stderr
    assert imported.stdout == "False\n"
    blocked = subprocess.run(
        [sys.executable, "-c",
         "import sys; sys.modules['numpy'] = None\n"
         "from nksl3 import cli\n"
         "sys.exit(cli.main(['all', '--format', 'json']))"],
        env=env, capture_output=True, text=True, timeout=120)
    assert blocked.returncode == 0, blocked.stderr
    assert json.loads(blocked.stdout)["totals"]["fail"] == 0


@pytest.mark.parametrize("pairs, witness", [
    ({(0, 2)}, "bracket not antisymmetric at (1, 3)"),
    ({(0, 1), (1, 0)}, "Jacobi broke at (1, 2, 3)"),
])
def test_jacobi_check_fails_on_a_broken_table(monkeypatch, pairs, witness):
    # flipping [e1, e3] alone breaks antisymmetry; flipping both orders of
    # [e1, e2] keeps it and breaks the Jacobi identity
    flipped = tuple(tuple((j, tuple((k, -c) for k, c in terms)
                           if (i, j) in pairs else terms) for j, terms in row)
                    for i, row in enumerate(liealg._bracket_terms()))
    monkeypatch.setattr(liealg, "_bracket_terms", lambda: flipped)
    records = {r.name: r for r in cli.run(_spec("algebra")).checks}
    assert records["algebra.jacobi"].witness == witness
    assert not records["algebra.jacobi"].passed


@pytest.mark.parametrize("change, witness", [
    ({}, "plane curvatures 4, 1, 1, 0; the null plane is refused"),
    ({"f2": FieldElem(2)}, "f2 plane: sectional 1"),
    ({"f4": None}, "degenerate plane was not refused"),
], ids=["table", "wrong_constant", "nondegenerate_null"])
def test_sectional_constants_read_the_family_table(monkeypatch, change,
                                                   witness):
    for fid, curvature in change.items():
        monkeypatch.setitem(surfaces.FAMILIES, fid, dataclasses.replace(
            surfaces.FAMILIES[fid], expected_curvature=curvature))
    records = {r.name: r for r in cli.run(_spec("curvature")).checks}
    assert records["curvature.sectional_constants"].witness == witness
    assert records["curvature.sectional_constants"].passed == (not change)
    assert records["curvature.einstein"].witness \
        == "Ricci tensor equals 5 times the metric, exactly"
