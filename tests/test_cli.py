"""The command-line surface: payloads, schemas, exit codes, rendering."""

import io
import json
import os
import subprocess
import sys
import time

import jsonschema
import pytest

import equideform
from equideform.cli import _JSON_TYPES, _KEYWORDS, REPORT_SCHEMAS, _validate, main
from equideform.errors import InternalError

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


def test_parser_is_built_once_and_handlers_are_found_per_call(capsys, cover_path, monkeypatch):
    from equideform import cli

    assert run_json(capsys, "dim", "--case", "cyclic", cover_path)[1]["value"] == 3
    assert cli._build_parser() is cli._build_parser()
    patched = {"value": 7, "formula": "patched", "inputs": {}}
    monkeypatch.setattr(cli, "_cmd_dim", lambda args: (patched, "dim", 0))
    assert run_json(capsys, "dim", "--case", "cyclic", cover_path) == (0, patched)
    # the cached parser still turns every usage error into a JSON payload
    for argv in (["dim", "--case", "sideways", "x.json"], ["frobnicate"], ["dim"]):
        status, report = run_json(capsys, *argv)
        assert status == 1 and report["error"] == "ValidationError", argv


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


def _run_python(code, *argv):
    src = os.path.dirname(os.path.dirname(equideform.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        capture_output=True, text=True, timeout=60, env=env,
    )


_MAIN = "import sys; from equideform.cli import main; sys.exit(main(sys.argv[1:]))"


def test_huge_homology_field_is_refused_before_it_is_built():
    # make_field would run Rabin's test with a 2^100000 exponent
    out = _run_python(_MAIN, "homology", "--p", "2", "--s", "100000", "--random",
                      "--seed", "1")
    assert out.returncode == 1, out.stderr
    report = json.loads(out.stdout)
    assert report["error"] == "ValidationError"
    assert report["message"].startswith("GF(2^100000) needs over 2^111 MiB")

    # with --m given, the field degree is --m, not --s
    out = _run_python(_MAIN, "homology", "--p", "2", "--s", "3", "--m", "100000",
                      "--random", "--seed", "1")
    assert out.returncode == 1, out.stderr
    assert json.loads(out.stdout)["message"].startswith("GF(2^100000) needs")


def test_large_prime_is_refused_quickly():
    # p = 2^61 - 1: trial division to sqrt(p) would run for hours
    for argv in (["homology", "--p", "2305843009213693951", "--s", "1", "--random",
                  "--seed", "1"],
                 ["oracle", "--p", "2305843009213693951", "--f", "x^3"]):
        start = time.perf_counter()
        out = _run_python(_MAIN, *argv)
        assert time.perf_counter() - start < 10, argv
        assert out.returncode == 1, out.stderr
        assert json.loads(out.stdout)["error"] == "ValidationError", argv


def test_local_field_past_the_order_ceiling_is_refused_quickly():
    # finding the modulus of GF(2^96) took 4.3 s, and of GF(2^200) far longer
    for m in ("200", "100000"):
        start = time.perf_counter()
        out = _run_python(_MAIN, "local", "jump", "--p", "2", "--m", m, "--series=-3:1")
        assert time.perf_counter() - start < 10, m
        assert out.returncode == 1, out.stderr
        assert json.loads(out.stdout) == {
            "error": "ValidationError",
            "message": "GF(2^%s) has more than 2^32 elements, the ceiling for "
            "extension fields" % m,
        }


def test_tower_over_a_huge_prime_is_refused_quickly():
    # every nonzero constant of GF(2^61 - 1) was listed before the first try
    for extra in ([], ["--rank", "2"]):
        start = time.perf_counter()
        out = _run_python(_MAIN, "local", "tower", "--p", "2305843009213693951", *extra)
        assert time.perf_counter() - start < 10, extra
        assert out.returncode == 1, out.stderr
        assert json.loads(out.stdout)["error"] == "ValidationError", extra


def test_oracle_too_large_to_allocate_is_refused(capsys):
    # sigma on L(2K) would be a dense 3000003 x 3000003 int64 matrix, 65 TiB
    start = time.perf_counter()
    status, report = run_json(capsys, "oracle", "--p", "1000003", "--f", "x^3")
    assert time.perf_counter() - start < 1.0
    assert status == 1
    jsonschema.validate(report, REPORT_SCHEMAS["error"])
    assert report["error"] == "ValidationError"
    assert report["message"] == "L(D) has dimension 3000003; the cap is 4096"


def test_series_too_long_to_allocate_is_refused(capsys):
    # the Frobenius of a window that grows with p would take 50.9 TiB
    status, report = run_json(capsys, "crosscheck", "--p", "1000003", "--f", "x")
    assert status == 1
    assert report["error"] == "ValidationError"
    assert "exceeds the cap" in report["message"]


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


# -- the report validator against jsonschema ----------------------------------


def _reports(capsys, cover_path, divisor_path):
    runs = {
        "dim": ["dim", "--case", "cyclic", cover_path],
        "tot": ["tot", cover_path, divisor_path],
        "homology": ["homology", "--p", "3", "--s", "2", "--random", "--seed", "1"],
        "local.normalize": ["local", "normalize", "--p", "3", "--series=-3:1,-2:1"],
        "local.jump": ["local", "jump", "--p", "5", "--series=-3:1"],
        "local.tower": ["local", "tower", "--p", "2", "--rank", "2", "--prec", "10"],
        "local.weierstrass": ["local", "weierstrass", "--p", "2", "--pole-numbers",
                              "0,4,5,8", "--bound", "8"],
        "oracle": ["oracle", "--p", "5", "--f", "x + x^-1"],
        "crosscheck": ["crosscheck", "--p", "3", "--f", "x^4"],
        "error": ["dim", "--case", "weakly", cover_path],
    }
    assert sorted(runs) == sorted(REPORT_SCHEMAS)
    out = {}
    for kind, argv in runs.items():
        status, out[kind] = run_json(capsys, *argv)
        assert status == (2 if kind == "error" else 0), (kind, out[kind])
    return out


_WRONG = ["text", 7, True, 2.5, [], {}, None]


def _mutations(value, schema):
    """(what, changed value) pairs, each one change at one node the schema describes."""
    kind = schema.get("type")
    for bad in _WRONG + ([2.0] if kind == "integer" else []):
        yield "%s as %r" % (kind, bad), bad
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            yield "drop %s" % key, {k: v for k, v in value.items() if k != key}
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                for what, bad in _mutations(value[key], sub):
                    yield "%s: %s" % (key, what), dict(value, **{key: bad})
    elif isinstance(value, list):
        filler = value[0] if value else 0
        if "minItems" in schema:
            yield "minItems", value[: schema["minItems"] - 1]
        if "maxItems" in schema:
            yield "maxItems", value + [filler] * (schema["maxItems"] + 1 - len(value))
        if "items" in schema:
            for bad in _WRONG:
                yield "item %r" % (bad,), value + [bad]
            if value:
                for what, bad in _mutations(value[0], schema["items"]):
                    yield "[0]: %s" % what, [bad] + value[1:]


def _fits(value, schema):
    try:
        _validate(value, schema)
    except InternalError:
        return False
    return True


def test_validator_agrees_with_jsonschema(capsys, cover_path, divisor_path):
    outcomes = set()
    for kind, report in _reports(capsys, cover_path, divisor_path).items():
        schema = REPORT_SCHEMAS[kind]
        reference = jsonschema.validators.validator_for(schema)(schema)
        assert _fits(report, schema) and reference.is_valid(report), kind
        cases = list(_mutations(report, schema))
        disagree = [what for what, bad in cases if _fits(bad, schema) != reference.is_valid(bad)]
        assert not disagree, (kind, disagree)
        outcomes |= {(what.split(": ")[-1], _fits(bad, schema)) for what, bad in cases}
    # each kind of change was made, and the checks went both ways
    for what, fits in [("integer as True", False), ("integer as 2.0", True),
                       ("drop message", False), ("minItems", False), ("maxItems", False),
                       ("item 'text'", False), ("boolean as 7", False)]:
        assert (what, fits) in outcomes, what


def _schema_nodes(schema):
    yield schema
    for sub in schema.get("properties", {}).values():
        yield from _schema_nodes(sub)
    if "items" in schema:
        yield from _schema_nodes(schema["items"])


def test_schemas_use_only_the_validated_keywords():
    for kind, schema in REPORT_SCHEMAS.items():
        jsonschema.validators.validator_for(schema).check_schema(schema)
        for node in _schema_nodes(schema):
            assert set(node) <= _KEYWORDS, (kind, node)
            assert node.get("type", "object") in _JSON_TYPES, (kind, node)


def test_validator_refuses_unsupported_keywords():
    for schema in ({"type": "integer", "minimum": 0}, {"type": "number"}, {"enum": [1]},
                   {"type": "array", "items": {"const": 1}}):
        with pytest.raises(InternalError, match="unsupported schema"):
            _validate([1], schema)


def test_report_failing_its_schema_exits_3(capsys, cover_path, monkeypatch):
    from equideform import cli

    bad = {"value": True, "formula": "cyclic", "inputs": {}}
    monkeypatch.setattr(cli, "_cmd_dim", lambda args: (bad, "dim", 0))
    status, report = run_json(capsys, "dim", "--case", "cyclic", cover_path)
    assert status == 3
    assert report["error"] == "InternalError"
    assert "report.value is not of type integer" in report["message"]


def test_cli_runs_without_jsonschema(cover_path):
    blocked = "import sys; sys.modules['jsonschema'] = None; " + _MAIN[len("import sys; "):]
    for argv in (["dim", "--case", "cyclic", cover_path],
                 ["homology", "--p", "3", "--s", "2", "--random", "--seed", "1"]):
        out = _run_python(blocked, *argv)
        assert out.returncode == 0, out.stderr
        assert json.loads(out.stdout)
    out = _run_python("import sys, equideform.cli; print('jsonschema' in sys.modules)")
    assert out.stdout.strip() == "False", out.stderr


_RUN_MODULE = (
    "import runpy; runpy.run_module('equideform.cli', run_name='__main__', alter_sys=True)"
)


def test_dim_and_tot_run_without_numpy(cover_path, divisor_path):
    # python -m equideform.cli, with and without numpy importable
    blocked = "import sys; sys.modules['numpy'] = None; " + _RUN_MODULE
    for argv in (["dim", "--case", "cyclic", cover_path], ["tot", cover_path, divisor_path]):
        plain = _run_python(_RUN_MODULE, *argv)
        out = _run_python(blocked, *argv)
        assert plain.returncode == 0, plain.stderr
        assert out.returncode == 0, out.stderr
        assert out.stdout == plain.stdout
        assert json.loads(out.stdout)


def test_importing_the_package_loads_no_submodule():
    out = _run_python(
        "import sys, equideform; print([m for m in sys.modules if m.startswith('equideform.')])"
    )
    assert out.stdout.strip() == "[]", out.stderr
