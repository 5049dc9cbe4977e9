"""The command-line surface: payloads, schemas, exit codes, rendering."""

import io
import json
import time

import jsonschema
import pytest

from equideform.cli import REPORT_SCHEMAS, main

COVER_53 = {
    "p": 5,
    "log_order": 1,
    "genus_quotient": 0,
    "orbits": [{"filtration": {"orders": [[3, 5]]}}],
    "cyclic": True,
}

DIV_2K = {"coeffs": [{"orbit": 0, "n": 12}]}


def run(capsys, *argv):
    status = main(list(argv))
    out = capsys.readouterr().out
    return status, out


def run_json(capsys, *argv):
    status, out = run(capsys, *argv)
    return status, json.loads(out)


@pytest.fixture
def cover_path(tmp_path):
    path = tmp_path / "cover.json"
    path.write_text(json.dumps(COVER_53))
    return str(path)


@pytest.fixture
def divisor_path(tmp_path):
    path = tmp_path / "divisor.json"
    path.write_text(json.dumps(DIV_2K))
    return str(path)


def test_dim_cyclic(capsys, cover_path):
    status, report = run_json(capsys, "dim", "--case", "cyclic", cover_path)
    assert status == 0
    jsonschema.validate(report, REPORT_SCHEMAS["dim"])
    assert report["value"] == 3
    assert report["formula"] == "cyclic"
    assert report["inputs"]["p"] == 5


def test_dim_tame_reference_value(capsys, cover_path):
    status, report = run_json(capsys, "dim", "--case", "tame", cover_path)
    assert status == 0
    assert report["value"] == -2  # 3*0 - 3 + 1; the tame count may go negative


def test_dim_weakly_hypothesis_failure_exits_2(capsys, cover_path):
    status, report = run_json(capsys, "dim", "--case", "weakly", cover_path)
    assert status == 2
    jsonschema.validate(report, REPORT_SCHEMAS["error"])
    assert report["error"] == "NotWeaklyRamifiedError"
    assert "G_2 nontrivial" in report["message"]
    assert report["hypothesis"] == "G_2(P) trivial at every ramified point"


def test_dim_reads_stdin(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(COVER_53)))
    status, report = run_json(capsys, "dim", "--case", "cyclic", "-")
    assert status == 0 and report["value"] == 3


def test_dim_bad_json_exits_1(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{nope")
    status, report = run_json(capsys, "dim", "--case", "cyclic", str(path))
    assert status == 1
    assert report["error"] == "ValidationError"


def test_dim_missing_file_exits_1(capsys, tmp_path):
    status, report = run_json(
        capsys, "dim", "--case", "cyclic", str(tmp_path / "absent.json")
    )
    assert status == 1


def test_usage_error_exits_1(capsys):
    status, report = run_json(capsys, "dim", "--case", "sideways", "x.json")
    assert status == 1
    jsonschema.validate(report, REPORT_SCHEMAS["error"])


def test_unknown_subcommand_exits_1(capsys):
    status, report = run_json(capsys, "frobnicate")
    assert status == 1


def test_tot(capsys, cover_path, divisor_path):
    status, report = run_json(capsys, "tot", cover_path, divisor_path)
    assert status == 0
    jsonschema.validate(report, REPORT_SCHEMAS["tot"])
    assert report["tot"] == 3
    assert report["degree_x"] == 12
    assert report["degree_y_pushforward"] == 2
    assert report["pushforward"]["coeffs"] == [{"orbit": 0, "n": 2}]


def test_tot_degree_too_small_exits_2(capsys, cover_path, tmp_path):
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"coeffs": [{"orbit": 0, "n": 6}]}))
    status, report = run_json(capsys, "tot", cover_path, str(small))
    assert status == 2
    assert report["error"] == "DegreeTooSmallError"
    assert report["hypothesis"] == "deg(D) > 2g_X - 2"


def test_homology_explicit(capsys):
    status, report = run_json(
        capsys, "homology", "--p", "5", "--s", "1", "--alpha", "1", "--beta", "0"
    )
    assert status == 0
    jsonschema.validate(report, REPORT_SCHEMAS["homology"])
    assert report["complex"] == {"h0": 1, "h1": 1, "difference": 0}
    assert report["closed"]["h0"] == 1
    assert report["match"] is True


def test_homology_random_needs_seed(capsys):
    status, report = run_json(capsys, "homology", "--p", "3", "--s", "2", "--random")
    assert status == 1
    assert "--seed" in report["message"]


def test_homology_random_is_deterministic(capsys):
    a = run_json(capsys, "homology", "--p", "3", "--s", "2", "--random",
                 "--seed", "9")
    b = run_json(capsys, "homology", "--p", "3", "--s", "2", "--random",
                 "--seed", "9")
    assert a == b
    assert a[0] == 0
    assert a[1]["match"] is True


def test_homology_degenerate_alpha_exits_2(capsys):
    status, report = run_json(
        capsys, "homology", "--p", "5", "--s", "1", "--alpha", "0", "--beta", "1"
    )
    assert status == 2
    assert report["error"] == "AlphaNotInjectiveError"


def test_local_normalize(capsys):
    status, report = run_json(
        capsys, "local", "normalize", "--p", "3", "--series=-3:1,-2:1",
        "--prec", "6",
    )
    assert status == 0
    jsonschema.validate(report, REPORT_SCHEMAS["local.normalize"])
    assert report["valuation"] == -2
    assert len(report["corrections"]) == 1
    assert report["input"]["terms"] == [[-3, 1], [-2, 1]]


def test_local_normalize_split_exits_2(capsys):
    status, report = run_json(
        capsys, "local", "normalize", "--p", "2", "--series=-4:1,-1:1",
        "--prec", "2",
    )
    assert status == 2
    assert report["error"] == "NonNegativeValuationError"


def test_local_jump(capsys):
    status, report = run_json(
        capsys, "local", "jump", "--p", "5", "--series=-3:1", "--prec", "14"
    )
    assert status == 0
    jsonschema.validate(report, REPORT_SCHEMAS["local.jump"])
    assert report["pole_order"] == 3
    assert report["jump"] == 3
    assert report["r"] * 5 + report["l"] * 3 == 1


def test_local_jump_needs_series(capsys):
    status, report = run_json(capsys, "local", "jump", "--p", "5")
    assert status == 1
    assert "--series" in report["message"]


def test_local_tower(capsys):
    status, report = run_json(
        capsys, "local", "tower", "--p", "2", "--rank", "2", "--prec", "10"
    )
    assert status == 0
    jsonschema.validate(report, REPORT_SCHEMAS["local.tower"])
    assert report["rank"] == 2
    assert report["checks"] == {
        "structure": True,
        "consistency": True,
        "beta_is_alpha_squared": True,
    }
    for alpha, beta in report["pairs"]:
        assert alpha != 0


def test_local_tower_explicit_constants_need_field(capsys):
    status, report = run_json(
        capsys, "local", "tower", "--p", "2", "--rank", "2", "--constants", "2",
    )
    assert status == 1
    assert "--m >= --rank" in report["message"]


def assert_bad_flag(capsys, flag, *argv):
    status, report = run_json(capsys, *argv)
    assert status == 1
    jsonschema.validate(report, REPORT_SCHEMAS["error"])
    assert report["error"] == "ValidationError"
    assert flag in report["message"]


def test_field_degree_must_be_positive(capsys):
    assert_bad_flag(capsys, "--m", "local", "jump", "--p", "5", "--series=-3:1", "--m", "0")


def test_generator_count_must_be_positive(capsys):
    assert_bad_flag(capsys, "--s", "homology", "--p", "5", "--s", "0", "--random",
                    "--seed", "1")


def test_tower_rank_must_be_positive(capsys):
    assert_bad_flag(capsys, "--rank", "local", "tower", "--p", "2", "--rank", "0")


def test_precision_must_be_positive(capsys):
    assert_bad_flag(capsys, "--prec", "local", "jump", "--p", "5", "--series=-3:1",
                    "--prec", "-5")


def test_field_too_large_for_tables_fails_fast(capsys):
    start = time.perf_counter()
    status, report = run_json(capsys, "homology", "--p", "2", "--s", "12", "--random",
                              "--seed", "1")
    assert time.perf_counter() - start < 1.0
    assert status == 1
    jsonschema.validate(report, REPORT_SCHEMAS["error"])
    assert "GF(2^12)" in report["message"]


def test_homology_over_a_field_past_1021_elements(capsys):
    # GF(37^2) has 1369 elements, but its tables fit the byte ceiling
    status, report = run_json(capsys, "homology", "--p", "37", "--s", "2", "--random",
                              "--seed", "1")
    assert status == 0
    assert report["match"] is True


def test_local_weierstrass(capsys):
    status, report = run_json(
        capsys, "local", "weierstrass", "--p", "2",
        "--pole-numbers", "0,4,5,8", "--bound", "8",
    )
    assert status == 0
    jsonschema.validate(report, REPORT_SCHEMAS["local.weierstrass"])
    assert report["passed"] is True and report["witness"] == 5
    status, report = run_json(capsys, "local", "weierstrass", "--p", "2")
    assert status == 1


def test_oracle_one_pole_member(capsys):
    status, report = run_json(capsys, "oracle", "--p", "5", "--f", "x^3")
    assert status == 0
    jsonschema.validate(report, REPORT_SCHEMAS["oracle"])
    assert report["genus"] == 4
    assert report["tot"] == 3
    assert report["m_l"] == {"1": 1, "3": 1, "5": 1}
    assert report["ranks"] == [9, 6, 4, 2, 1, 0]
    assert report["match"] is True
    names = [c["name"] for c in report["crosschecks"]]
    assert "dim_cyclic" in names and "m_regular_cyclic_p" in names


def test_oracle_augmented_weakly_member(capsys):
    status, report = run_json(
        capsys, "oracle", "--p", "5", "--f", "x + x^-1", "--divisor", "2K+3Rred"
    )
    assert status == 0
    assert report["m_l"] == {"5": 3}
    names = [c["name"] for c in report["crosschecks"]]
    assert "free_rank_aug" in names and "small_blocks" in names
    assert report["match"] is True


def test_oracle_rejects_bad_f(capsys):
    status, report = run_json(capsys, "oracle", "--p", "5", "--f", "x^5")
    assert status == 1
    assert "divisible" in report["message"]


def test_crosscheck_members(capsys):
    for p, f in [(5, "x^3"), (3, "x^4"), (5, "x + x^-1")]:
        status, report = run_json(capsys, "crosscheck", "--p", str(p), "--f", f)
        assert status == 0
        jsonschema.validate(report, REPORT_SCHEMAS["crosscheck"])
        assert report["match"] is True
        assert all(c["match"] for c in report["checks"])


def test_crosscheck_includes_triangle_for_weakly(capsys):
    status, report = run_json(capsys, "crosscheck", "--p", "5", "--f", "x + x^-1")
    names = [c["name"] for c in report["checks"]]
    assert "triangle_free_minus_homology" in names
    status, report = run_json(capsys, "crosscheck", "--p", "5", "--f", "x^3")
    names = [c["name"] for c in report["checks"]]
    assert "triangle_free_minus_homology" not in names
    assert "dx_valuation_at_inf" in names


def test_table_format(capsys, cover_path):
    status, out = run(capsys, "dim", "--case", "cyclic", cover_path,
                      "--format", "table")
    assert status == 0
    assert "{" not in out
    lines = [l for l in out.splitlines() if l.strip()]
    keys = {l.split()[0] for l in lines}
    assert "value" in keys and "inputs.p" in keys


def test_table_format_for_lists(capsys):
    status, out = run(capsys, "oracle", "--p", "5", "--f", "x^3",
                      "--format", "table")
    assert status == 0
    assert "crosschecks.0.name" in out


def test_homology_disagreement_is_internal_exits_3(capsys, monkeypatch):
    from equideform import cli

    monkeypatch.setattr(cli, "homology_dims", lambda ab: (7, 0))
    status, report = run_json(
        capsys, "homology", "--p", "5", "--s", "1", "--alpha", "1", "--beta", "0"
    )
    assert status == 3
    jsonschema.validate(report, REPORT_SCHEMAS["error"])
    assert report["error"] == "ConsistencyError"
    assert report["hypothesis"] == "internal cross-check"


def test_unstable_basis_is_internal_exits_3(capsys, monkeypatch):
    from equideform.ascurve import ASCurve

    rr_basis = ASCurve.rr_basis
    # dropping the constant leaves the images of the y^b outside the span
    monkeypatch.setattr(ASCurve, "rr_basis", lambda self, d: rr_basis(self, d)[1:])
    status, report = run_json(capsys, "oracle", "--p", "5", "--f", "x^3")
    assert status == 3
    jsonschema.validate(report, REPORT_SCHEMAS["error"])
    assert report["error"] == "BasisNotStableError"


def test_unexpected_exception_is_a_payload_not_a_traceback(capsys, monkeypatch):
    from equideform.ascurve import ASCurve

    def broken(self, divisor):
        raise ZeroDivisionError("planted")

    monkeypatch.setattr(ASCurve, "decompose", broken)
    status, report = run_json(capsys, "oracle", "--p", "5", "--f", "x^3")
    assert status == 3
    jsonschema.validate(report, REPORT_SCHEMAS["error"])
    assert report == {"error": "ZeroDivisionError", "message": "planted"}
    status, out = run(capsys, "crosscheck", "--p", "5", "--f", "x^3", "--format", "table")
    assert status == 3
    assert "Traceback" not in out and "ZeroDivisionError" in out


def test_internal_errors_are_not_hypothesis_failures():
    from equideform.errors import (
        BasisNotStableError,
        ConsistencyError,
        DimensionMismatchError,
        InternalError,
        PreconditionError,
    )

    for cls in (BasisNotStableError, ConsistencyError, DimensionMismatchError):
        assert issubclass(cls, InternalError) and not issubclass(cls, PreconditionError)
