"""The four workloads: seeded inputs, one call per operation, and its checks.

Each workload turns a seed into a fixed list of operations (one round).  The
cells of a round (field, genus, pole shape) are fixed so that every seed
costs about the same.  The seed picks the coefficients, the random elements
of the homology and normalization inputs, and, where that barely changes the
cost, which side a single pole sits on and how two poles split a fixed total
order.  ``check`` returns the list of problems with an output; every expected
value comes from ``expect``, never from a stored copy of an earlier run.
"""

import contextlib
import io
import json
import os
import random
import re
import subprocess
import sys
import threading
from dataclasses import dataclass

import expect

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
SRC = os.path.join(os.path.dirname(HERE), "src")


def child_env():
    """The environment of a child process: the checkout's program first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


@dataclass
class Op:
    kind: str
    label: str
    args: dict


def _f_string(p, n0, ninf, rng):
    terms = []
    if ninf:
        terms.append("%d*x^%d" % (rng.randrange(1, p), ninf))
    if n0:
        terms.append("%d*x^-%d" % (rng.randrange(1, p), n0))
    return " + ".join(terms)


def _one_pole(p, n, rng):
    """A single pole of order n, at x = 0 or x = infinity by the seed."""
    return (n, 0) if rng.random() < 0.5 else (0, n)


def _split(p, total, spread, rng):
    """Two poles with n0 + ninf = total, both coprime to p, near an even split."""
    options = [
        (n0, total - n0)
        for n0 in range(total // 2 - spread, total // 2 + spread + 1)
        if n0 % p and (total - n0) % p
    ]
    return rng.choice(options)


def _curve_op(kind, p, n0, ninf, rng, **extra):
    f = _f_string(p, n0, ninf, rng)
    orders = tuple(n for n in (n0, ninf) if n)
    return Op(kind, "p=%d f=%s" % (p, f), dict(p=p, f=f, orders=orders, n0=n0, ninf=ninf, **extra))


# -- checks shared by the in-process and the process-per-operation workloads --


def _schema_problems(report, kind):
    import jsonschema
    from equideform.cli import REPORT_SCHEMAS

    try:
        jsonschema.validate(report, REPORT_SCHEMAS[kind])
    except jsonschema.ValidationError as exc:
        return ["report does not fit the %s schema: %s" % (kind, exc.message)]
    return []


def _parse_report(rc, text, kind):
    if rc != 0:
        return None, ["exit code %d: %s" % (rc, text.strip()[-300:])]
    try:
        report = json.loads(text)
    except json.JSONDecodeError:
        return None, ["output is not one JSON document: %r" % text[-300:]]
    return report, _schema_problems(report, kind)


def _crosscheck_problems(args, report):
    p, orders = args["p"], args["orders"]
    g = expect.genus(p, orders)
    dim = expect.deformation_dim(p, orders)
    problems = []
    if report["genus"] != g:
        problems.append("genus %s != %d by Riemann-Hurwitz" % (report["genus"], g))
    if not report["match"]:
        problems.append("crosscheck reports a mismatch")
    checks = {c["name"]: c for c in report["checks"]}
    want = {"canonical_degree": 2 * g - 2, "tot_riemann_roch_2K": dim, "dim_cyclic": dim}
    sides = [s for s, n in zip(("0", "inf"), (args["n0"], args["ninf"])) if n]
    for side, n in zip(sides, orders):
        d = expect.different(p, n)
        want["pole_order_at_%s" % side] = -n
        want["different_at_%s" % side] = d
        want["dx_valuation_at_%s" % side] = d - (2 * p if side == "inf" else 0)
    for name, value in want.items():
        if name not in checks:
            problems.append("check %s missing" % name)
        elif checks[name]["oracle"] != value or checks[name]["formula"] != value:
            problems.append("%s: %s, expected %d" % (name, checks[name], value))
    return problems


def _tower_problems(p, gf_fieldstr, pairs):
    m = re.fullmatch(r"GF\((\d+)(?:\^(\d+))?\)", gf_fieldstr)
    own = expect.field(int(m.group(1)), int(m.group(2) or 1))
    problems = []
    alphas = [a for a, _ in pairs]
    for a, b in pairs:
        if a == 0:
            problems.append("alpha is zero")
        if b != own.mul(a, a):
            problems.append("beta %d != alpha^2 = %d in %s" % (b, own.mul(a, a), gf_fieldstr))
    if not own.independent_over_prime_field(alphas):
        problems.append("alphas %s are F_%d-dependent" % (alphas, p))
    return problems


def _homology_problems(p, s, gf_fieldstr, alpha, beta, h0, h1):
    m = re.fullmatch(r"GF\((\d+)(?:\^(\d+))?\)", gf_fieldstr)
    own = expect.field(p, int(m.group(2) or 1))
    want = expect.homology_expected(own, alpha, beta)
    got = h0 - h1 if p == 2 else (h0, h1)
    if got != want:
        return ["homology %s, expected %s" % (got, want)]
    return []


# -- in-process workloads -------------------------------------------------------


class CrosscheckPrime:
    """``cli.main(["crosscheck", ...])`` in process, over prime fields."""

    name = "crosscheck_prime"
    in_process = True
    # its costly cache, the field tables, is filled in set-up; a first round
    # ran no slower than later ones, so there is no warm-up round
    warm_up = False
    modules = ("equideform.cli",)
    # (p, n0, ninf) with the pole orders at x = 0 and x = infinity.  The
    # median falls on the three copies of the middle cell: five cells are
    # cheaper and five dearer, so the median latency does not jump between cells.
    CELLS = (
        (2, 0, 5), (3, 7, 0), (3, 4, 5), (5, 3, 4), (7, 9, 0),
        (11, 4, 3), (11, 4, 3), (11, 4, 3),
        (7, 0, 41), (5, 33, 0), (7, 8, 10), (13, 0, 25), (11, 29, 0),
    )
    SMOKE = ((2, 0, 5), (5, 3, 4), (7, 9, 0))

    def inputs(self, rng, smoke):
        return [
            _curve_op("crosscheck", p, n0, ninf, rng)
            for p, n0, ninf in (self.SMOKE if smoke else self.CELLS)
        ]

    def fields(self, ops):
        return sorted({(op.args["p"], 1) for op in ops})

    def prepare(self, ops, workdir, traced):
        from equideform import cli

        self.cli = cli

    def run(self, op):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = self.cli.main(["crosscheck", "--p", str(op.args["p"]), "--f", op.args["f"]])
        return rc, buf.getvalue()

    def check(self, op, out):
        report, problems = _parse_report(*out, "crosscheck")
        if report is None or problems:
            return problems
        return _crosscheck_problems(op.args, report)


class JordanLarge:
    """``ASCurve.decompose`` on L(2K) and L(2K + 3 R_red), genus 60 to 312."""

    name = "jordan_large"
    in_process = True
    # its costly cache, the field tables, is filled in set-up; a first round
    # ran no slower than later ones, so there is no warm-up round
    warm_up = False
    modules = ("equideform.ascurve",)
    # (p, n0, ninf, spread): spread > 0 lets the seed split n0 + ninf between
    # two poles, otherwise the seed puts the single pole at 0 or infinity.
    # Each curve gives two operations of nearly equal cost, and the middle
    # curve by cost, (13, x^35), is well apart from its neighbours, so it
    # holds the median latency.
    CELLS = (
        (5, 0, 31, 0), (11, 0, 13, 0), (7, 21, 21, 4), (7, 0, 60, 0),
        (13, 0, 35, 0),
        (11, 27, 28, 4), (13, 0, 50, 0), (17, 0, 30, 0), (17, 0, 40, 0),
    )
    SMOKE = ((5, 0, 31, 0), (7, 21, 21, 4))

    def inputs(self, rng, smoke):
        ops = []
        for p, n0, ninf, spread in self.SMOKE if smoke else self.CELLS:
            if spread:
                n0, ninf = _split(p, n0 + ninf, spread, rng)
            else:
                n0, ninf = _one_pole(p, ninf, rng)
            curve = _curve_op("decompose", p, n0, ninf, rng)
            for extra in (0, 3):
                label = "%s D=2K%s" % (curve.label, "+3Rred" if extra else "")
                ops.append(Op("decompose", label, dict(curve.args, extra=extra)))
        return ops

    def fields(self, ops):
        return sorted({(op.args["p"], 1) for op in ops})

    def prepare(self, ops, workdir, traced):
        from equideform.ascurve import ASCurve

        self.curve = ASCurve

    def run(self, op):
        curve = self.curve(op.args["p"], op.args["f"])
        return curve.genus, curve.decompose(curve.two_k_plus(op.args["extra"]))

    def check(self, op, out):
        genus, dec = out
        p, orders, extra = op.args["p"], op.args["orders"], op.args["extra"]
        g = expect.genus(p, orders)
        problems = expect.jordan_problems(p, dec.dim, dec.ranks, dec.mult)
        want_dim = 3 * g - 3 + extra * len(orders)  # deg(2K + extra R_red) + 1 - g
        if genus != g:
            problems.append("genus %d != %d by Riemann-Hurwitz" % (genus, g))
        if dec.dim != want_dim:
            problems.append("dim L(D) = %d, expected %d" % (dec.dim, want_dim))
        if not extra and dec.tot != expect.deformation_dim(p, orders):
            problems.append(
                "tot %d != deformation dim %d" % (dec.tot, expect.deformation_dim(p, orders))
            )
        return problems


class ExtFields:
    """Towers, extensions, normalization and homology over GF(p^m), m >= 2."""

    name = "ext_fields"
    in_process = True
    # a first round fills the Artin-Schreier root cache and runs about 25 %
    # slower, so one untimed round goes first
    warm_up = True
    modules = ("equideform.localfield", "equideform.homology")
    # The median of a round falls on the three rank-2 towers, whose inputs
    # do not depend on the seed: eleven cheap operations (normalization and
    # homology) sit below them and eleven dearer ones (rank 3 and 4 towers,
    # extensions) above.
    TOWERS = ((2, 2, 24), (3, 2, 24), (5, 2, 24), (2, 3, 24), (2, 4, 24))
    # (p, m, pole order, precision)
    EXTENSIONS = (
        (2, 2, 7, 48), (2, 3, 7, 40), (3, 2, 7, 32), (5, 2, 3, 56), (7, 2, 4, 32),
        (7, 2, 4, 40), (2, 4, 9, 32), (3, 3, 4, 40), (2, 8, 5, 32),
    )
    # (p, m, l, l2, n0, precision): x = w^p - w + x0, w = a s^-l + b s^-l2
    NORMALIZE = (
        (2, 2, 6, 4, 3, 40), (3, 2, 5, 3, 5, 40), (5, 2, 4, 2, 3, 60),
        (2, 4, 9, 5, 7, 60), (7, 2, 3, 2, 5, 40),
    )
    HOMOLOGY = ((2, 8), (2, 6), (3, 5), (5, 3), (7, 2), (13, 2))
    SMOKE = dict(TOWERS=TOWERS[:1], EXTENSIONS=EXTENSIONS[:1], NORMALIZE=NORMALIZE[:1],
                 HOMOLOGY=HOMOLOGY[::2])

    def inputs(self, rng, smoke):
        cells = self.SMOKE if smoke else dict(
            TOWERS=self.TOWERS, EXTENSIONS=self.EXTENSIONS,
            NORMALIZE=self.NORMALIZE, HOMOLOGY=self.HOMOLOGY,
        )
        ops = []
        for p, n, prec in cells["TOWERS"]:
            ops.append(Op("tower", "p=%d rank=%d" % (p, n), dict(p=p, n=n, prec=prec)))
        for p, m, n, prec in cells["EXTENSIONS"]:
            q = p**m
            terms = {-n: rng.randrange(1, q)}
            terms.update({e: rng.randrange(1, q) for e in range(-n + 1, 3)})
            ops.append(Op("extension", "GF(%d^%d) N=%d" % (p, m, n),
                          dict(p=p, m=m, n=n, prec=prec, terms=terms)))
        for p, m, l, l2, n0, prec in cells["NORMALIZE"]:
            ops.append(self._normalize_op(rng, p, m, l, l2, n0, prec))
        for p, s in cells["HOMOLOGY"]:
            ops.append(self._homology_op(rng, p, s))
        return ops

    @staticmethod
    def _normalize_op(rng, p, m, l, l2, n0, prec):
        own = expect.field(p, m)
        a, b = rng.randrange(1, own.q), rng.randrange(1, own.q)
        terms = {-n0: rng.randrange(1, own.q)}
        terms.update({e: rng.randrange(1, own.q) for e in range(-n0 + 1, 3)})
        for e, c in ((-l * p, own.power(a, p)), (-l2 * p, own.power(b, p)),
                     (-l, own.neg(a)), (-l2, own.neg(b))):
            terms[e] = own.add(terms.get(e, 0), c)
        return Op("normalize", "GF(%d^%d) l=%d N=%d" % (p, m, l, n0),
                  dict(p=p, m=m, n0=n0, prec=prec, terms=terms,
                       corrections=[(-l, a), (-l2, b)]))

    @staticmethod
    def _homology_op(rng, p, s):
        own = expect.field(p, s)
        while True:
            alpha = [rng.randrange(1, own.q) for _ in range(s)]
            if own.independent_over_prime_field(alpha):
                break
        if p == 2 and rng.random() < 0.5:
            c = rng.randrange(1, own.q)
            beta = [own.mul(c, a) for a in alpha]
        else:
            beta = [rng.randrange(own.q) for _ in range(s)]
        return Op("homology", "GF(%d^%d)" % (p, s), dict(p=p, s=s, alpha=alpha, beta=beta))

    def fields(self, ops):
        out = set()
        for op in ops:
            a = op.args
            if op.kind == "tower":
                out.add((a["p"], a["n"]))
            elif op.kind == "homology":
                out.update({(a["p"], a["s"]), (a["p"], 1)})
            else:
                out.add((a["p"], a["m"]))
        return sorted(out)

    def prepare(self, ops, workdir, traced):
        from equideform import gf, homology, localfield

        self.gf, self.homology, self.lf = gf, homology, localfield

    def run(self, op):
        a = op.args
        if op.kind == "tower":
            tower = self.lf.default_tower(a["p"], a["n"], prec=a["prec"])
            pairs = tower.alpha_beta_pairs()
            for g in tower.generators:
                tower.check_structure(g)
                tower.check_consistency(g)
            return repr(tower.field), [(x.code(), y.code()) for x, y in pairs]
        if op.kind == "homology":
            gf_field = self.gf.make_field(a["p"], a["s"])
            ab = self.homology.AlphaBeta(
                gf_field, a["s"],
                tuple(gf_field.from_code(c) for c in a["alpha"]),
                tuple(gf_field.from_code(c) for c in a["beta"]),
            )
            return repr(gf_field), self.homology.homology_dims(ab)
        gf_field = self.gf.make_field(a["p"], a["m"])
        coeffs = {e: gf_field.from_code(c) for e, c in a["terms"].items()}
        if op.kind == "extension":
            x = self.lf.series(gf_field, coeffs, a["prec"] + 8)
            ext = self.lf.build_extension(x, a["prec"])
            return ext.m, self.lf.measure_jump(ext)
        x = self.lf.series(gf_field, coeffs, a["prec"])
        normalized, corrections = self.lf.as_normalize(x)
        return normalized.valuation(), [
            [(e, c.code()) for e, c in w.terms()] for w in corrections
        ]

    def check(self, op, out):
        a = op.args
        if op.kind == "tower":
            return _tower_problems(a["p"], *out)
        if op.kind == "homology":
            gf_fieldstr, (h0, h1) = out
            return _homology_problems(a["p"], a["s"], gf_fieldstr, a["alpha"], a["beta"], h0, h1)
        if op.kind == "extension":
            m, jump = out
            if (m, jump) != (a["n"], a["n"]):
                return ["pole order %d and jump %d, expected %d" % (m, jump, a["n"])]
            return []
        valuation, corrections = out
        problems = []
        if valuation != -a["n0"]:
            problems.append("normalized valuation %d, expected %d" % (valuation, -a["n0"]))
        if corrections != [[t] for t in a["corrections"]]:
            problems.append("corrections %s, expected %s" % (corrections, a["corrections"]))
        return problems


# -- a fresh process per operation -------------------------------------------------


class CliCold:
    """``python -m equideform.cli`` per operation, cycling the subcommands."""

    name = "cli_cold"
    in_process = False
    # every operation is a fresh process
    warm_up = False
    modules = ("equideform.cli",)

    def inputs(self, rng, smoke):
        ops = []
        n = rng.choice((6, 7, 8, 9))
        ops.append(Op("dim", "dim p=5 N=%d" % n, dict(p=5, orders=(n,))))
        n = rng.choice((6, 7, 8, 9))
        ops.append(Op("tot", "tot p=5 N=%d" % n, dict(p=5, orders=(n,))))
        ops.append(Op("homology", "homology p=3 s=3",
                      dict(p=3, s=3, seed=rng.randrange(10**6))))
        ops.append(Op("homology", "homology p=2 s=8",
                      dict(p=2, s=8, seed=rng.randrange(10**6))))
        series = ",".join("%d:%d" % (e, rng.randrange(1, 9)) for e in range(-5, 3))
        ops.append(Op("jump", "local jump GF(3^2) N=5", dict(p=3, m=2, n=5, series=series)))
        ops.append(Op("tower", "local tower p=2 rank=2", dict(p=2, n=2)))
        n0, ninf = _one_pole(5, 7, rng)
        ops.append(_curve_op("oracle", 5, n0, ninf, rng))
        n0, ninf = _one_pole(3, 11, rng)
        ops.append(_curve_op("crosscheck", 3, n0, ninf, rng))
        return ops

    def fields(self, ops):
        out = set()
        for op in ops:
            a = op.args
            out.add((a["p"], 1))
            if op.kind in ("homology", "jump", "tower"):
                out.add((a["p"], a.get("m") or a.get("s") or a.get("n")))
        return sorted(out)

    def prepare(self, ops, workdir, traced):
        """Write the cover and divisor files and fix each operation's argv."""
        self.workdir, self.traced = workdir, traced
        for i, op in enumerate(ops):
            a = op.args
            if op.kind in ("dim", "tot"):
                p, (n,) = a["p"], a["orders"]
                cover = os.path.join(self.workdir, "cover%d.json" % i)
                with open(cover, "w") as handle:
                    json.dump({"p": p, "log_order": 1, "genus_quotient": 0, "cyclic": True,
                               "orbits": [{"filtration": {"orders": [[n, p]]}}]}, handle)
                if op.kind == "dim":
                    a["argv"] = ["dim", cover, "--case", "cyclic"]
                else:
                    divisor = os.path.join(self.workdir, "divisor%d.json" % i)
                    two_k = 2 * expect.canonical_coeffs(p, (n,))[0]
                    with open(divisor, "w") as handle:
                        json.dump({"coeffs": [{"orbit": 0, "n": two_k}]}, handle)
                    a["argv"] = ["tot", cover, divisor]
            elif op.kind == "homology":
                a["argv"] = ["homology", "--p", str(a["p"]), "--s", str(a["s"]),
                             "--random", "--seed", str(a["seed"])]
            elif op.kind == "jump":
                a["argv"] = ["local", "jump", "--p", str(a["p"]), "--m", str(a["m"]),
                             "--series=" + a["series"]]
            elif op.kind == "tower":
                a["argv"] = ["local", "tower", "--p", str(a["p"]), "--rank", str(a["n"])]
            else:
                a["argv"] = [op.kind, "--p", str(a["p"]), "--f", a["f"]]

    def run(self, op):
        if self.traced:
            timing = os.path.join(self.workdir, "timing.json")
            cmd = [sys.executable, CHILD, "cli", timing] + op.args["argv"]
        else:
            cmd = [sys.executable, "-m", "equideform.cli"] + op.args["argv"]
        proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=child_env()
        )
        killer = threading.Timer(60, proc.kill)
        killer.start()
        try:
            text = proc.stdout.read().decode(errors="replace")
        finally:
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
            killer.cancel()
            killer.join()
        child = None
        if self.traced:
            with open(timing) as handle:
                child = json.load(handle)
            os.remove(timing)
        return proc.returncode, text, usage.ru_maxrss / 1024.0, child

    def check(self, op, out):
        rc, text = out[0], out[1]
        kind = {"jump": "local.jump", "tower": "local.tower"}.get(op.kind, op.kind)
        report, problems = _parse_report(rc, text, kind)
        if report is None or problems:
            return problems
        a = op.args
        p = a["p"]
        if op.kind in ("dim", "tot"):
            dim = expect.deformation_dim(p, a["orders"])
            key = "value" if op.kind == "dim" else "tot"
            if report[key] != dim:
                return ["%s %s, expected %d" % (key, report[key], dim)]
            return []
        if op.kind == "homology":
            cx = report["complex"]
            return _homology_problems(p, a["s"], report["field"], report["alpha"],
                                      report["beta"], cx["h0"], cx["h1"])
        if op.kind == "jump":
            if (report["pole_order"], report["jump"]) != (a["n"], a["n"]):
                return ["pole order and jump %s, expected %d" % (report, a["n"])]
            return []
        if op.kind == "tower":
            problems = _tower_problems(p, report["field"], report["pairs"])
            if not all(report["checks"].values()):
                problems.append("tower checks failed: %s" % report["checks"])
            return problems
        if op.kind == "oracle":
            g = expect.genus(p, a["orders"])
            mult = [report["m_l"].get(str(l), 0) for l in range(1, p + 1)]
            problems = expect.jordan_problems(p, report["dim"], report["ranks"], mult)
            if report["dim"] != 3 * g - 3:
                problems.append("dim L(2K) %d != 3g - 3 = %d" % (report["dim"], 3 * g - 3))
            if report["tot"] != expect.deformation_dim(p, a["orders"]):
                problems.append("tot %d != deformation dim" % report["tot"])
            if not report["match"]:
                problems.append("oracle reports a mismatch")
            return problems
        return _crosscheck_problems(a, report)


WORKLOADS = {w.name: w for w in (CrosscheckPrime, JordanLarge, ExtFields, CliCold)}


def rng_for(name, seed):
    """The random source of a workload's inputs; the same seed gives the same inputs."""
    return random.Random("%s:%d" % (name, seed))
