"""The verification runner: suite composition, report formats, determinism,
and process exit codes."""

import errno
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys

import pytest

from nksl3 import cli, exactfield, liealg, nkgeom
from nksl3.exactfield import ONE, FieldElem
from nksl3.liealg import MVec
from nksl3.classify import GridSpec

COARSE_GRID = "0:1:1/2,-1:1:1/2"
GOLDEN_ALL = pathlib.Path(__file__).parent / "data" / "all_seed0.json"
# float deviations hang on the libm and numpy build, not on the program
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
    payload = json.loads(cli.emit(report, "json"))
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
        payload = json.loads(cli.emit(report, "json"))
        payload.pop("elapsed_ms")
        blobs.append(json.dumps(payload, sort_keys=True))
    assert blobs[0] == blobs[1]


def test_empty_report_is_valid_json():
    report = cli.Report("field", 0, (), 0)
    payload = json.loads(cli.emit(report, "json"))
    assert payload["checks"] == []
    assert payload["totals"] == {"pass": 0, "fail": 0, "total": 0}
    assert report.passed  # vacuously green


def test_text_format_shape():
    report = cli.run(_spec("tensors"))
    text = cli.emit(report, "text")
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
    original = nkgeom._oracle_raw
    e1, e2 = MVec.basis(1), MVec.basis(2)

    def perturbed(x, y, z):
        raw = original(x, y, z)
        return raw + e1 if (x, y, z) == (e1, e2, e2) else raw

    nkgeom.oracle_sign.cache_clear()
    monkeypatch.setattr(nkgeom, "_oracle_raw", perturbed)
    try:
        records = {r.name: r for r in cli.run(_spec("curvature")).checks}
    finally:
        monkeypatch.undo()
        nkgeom.oracle_sign.cache_clear()
    agreement = records["curvature.oracle_agreement"]
    assert not agreement.passed
    assert "no single sign convention" in agreement.witness


@pytest.mark.parametrize("pairs, witness", [
    ({(0, 2)}, "bracket not antisymmetric at (1, 3)"),
    ({(0, 1), (1, 0)}, "Jacobi broke at (1, 2, 3)"),
])
def test_jacobi_check_fails_on_a_broken_table(monkeypatch, pairs, witness):
    # flipping [e1, e3] alone breaks antisymmetry; flipping both orders of
    # [e1, e2] keeps it and breaks the Jacobi identity
    flipped = tuple((i, j, tuple((k, -c) for k, c in terms)
                     if (i, j) in pairs else terms)
                    for i, j, terms in liealg._bracket_terms())
    monkeypatch.setattr(liealg, "_bracket_terms", lambda: flipped)
    records = {r.name: r for r in cli.run(_spec("algebra")).checks}
    assert records["algebra.jacobi"].witness == witness
    assert not records["algebra.jacobi"].passed
