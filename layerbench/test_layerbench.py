"""The benchmark's own tests: its checks pass on the program and catch planted faults.

    python3 -m pytest layerbench -q
"""

import json
import os
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import expect  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _smoke(name, trace=0):
    result, record = run.run_workload(name, 1, 0, trace, smoke=True)
    return result, record


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_check_passes_on_the_program(name):
    result, record = _smoke(name)
    assert result["failed"] == 0, record["problems"]
    assert result["correct"]
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        wanted = {m["name"] for m in json.load(handle)["end_to_end"]}
    assert set(result["metrics"]) == wanted


def test_traced_run_reports_every_layer_metric():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        wanted = {m["name"] for m in json.load(handle)["per_layer"]}
    result, _ = _smoke("jordan_large", trace=1)
    assert set(result["metrics"]) == wanted
    assert result["metrics"]["kernels.rank.calls"]["value"] > 0
    assert result["metrics"]["localfield.mul.calls"]["value"] == 0


def test_listed_workloads_exist():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as handle:
        listed = {w["name"] for w in json.load(handle)["workloads"]}
    assert listed <= set(workloads.WORKLOADS)


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        make = workloads.WORKLOADS[name]().inputs
        first = make(workloads.rng_for(name, 5), False)
        again = make(workloads.rng_for(name, 5), False)
        other = make(workloads.rng_for(name, 6), False)
        assert first == again
        assert first != other


def test_planted_wrong_decomposition_is_caught(monkeypatch):
    from equideform.ascurve import ASCurve

    real = ASCurve.decompose

    def off_by_one(self, divisor):
        dec = real(self, divisor)
        ranks = (dec.ranks[0], dec.ranks[1] - 1) + tuple(dec.ranks[2:])
        return types.SimpleNamespace(
            dim=dec.dim, ranks=ranks, mult=dec.mult, tot=dec.tot + 1
        )

    monkeypatch.setattr(ASCurve, "decompose", off_by_one)
    result, _ = _smoke("jordan_large")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_planted_wrong_genus_is_caught(monkeypatch):
    from equideform.ascurve import ASCurve

    real = ASCurve.genus.fget
    monkeypatch.setattr(ASCurve, "genus", property(lambda self: real(self) + 1))
    result, _ = _smoke("crosscheck_prime")
    assert not result["correct"]
    assert result["failed"] == result["attempted"]


def test_planted_wrong_jump_and_homology_are_caught(monkeypatch):
    from equideform import homology, localfield

    real_jump, real_dims = localfield.measure_jump, homology.homology_dims
    monkeypatch.setattr(localfield, "measure_jump", lambda ext, c=1: real_jump(ext, c) + 1)
    monkeypatch.setattr(
        homology, "homology_dims", lambda ab: (real_dims(ab)[0], real_dims(ab)[1] + 1)
    )
    result, record = _smoke("ext_fields")
    assert not result["correct"]
    problems = " ".join(record["problems"])
    assert "jump" in problems and "homology" in problems


def test_cli_checks_reject_planted_reports():
    wl = workloads.CliCold()
    ops = {op.kind: op for op in wl.inputs(workloads.rng_for("cli_cold", 1), False)}
    p, orders = ops["dim"].args["p"], ops["dim"].args["orders"]
    dim = expect.deformation_dim(p, orders)
    good = json.dumps({"value": dim, "formula": "cyclic", "inputs": {}})
    bad = json.dumps({"value": dim + 1, "formula": "cyclic", "inputs": {}})
    assert wl.check(ops["dim"], (0, good, 0.0, None)) == []
    assert wl.check(ops["dim"], (0, bad, 0.0, None))
    assert wl.check(ops["dim"], (1, good, 0.0, None))
    assert wl.check(ops["dim"], (0, good[:-1], 0.0, None))
    jump = json.dumps({"pole_order": 5, "r": 2, "l": -3, "jump": 4})
    assert wl.check(ops["jump"], (0, jump, 0.0, None))


def test_own_field_matches_documented_moduli():
    # the lowest irreducible moduli: GF(8) = F_2[x]/(x^3 + x + 1), GF(25) = F_5[x]/(x^2 + 2)
    assert expect.field(2, 3).modulus == (1, 1, 0, 1)
    assert expect.field(5, 2).modulus == (2, 0, 1)
    f4 = expect.field(2, 2)
    w = 2  # the class of x in GF(4) = F_2[x]/(x^2 + x + 1)
    assert f4.mul(w, w) == 3 and f4.mul(w, 3) == 1
