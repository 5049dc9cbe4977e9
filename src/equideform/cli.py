"""Command-line surface: dispatch to the formulas and the oracles.

Subcommands
-----------
dim         evaluate a closed-form dimension on a cover JSON file
tot         indecomposable-summand count of H^0(O(D)) from cover + divisor JSON
homology    chain-complex homology vs closed form for punctual sections
local       series-level tools: normalize, jump, tower, weierstrass
oracle      decompose L(D) on an explicit curve y^p - y = f(x)
crosscheck  run every formula/oracle pair for one curve and report matches

All reports are JSON on stdout (``--format table`` renders the same data
as aligned key/value rows).  Exit codes: 0 success, 1 for malformed input
or a failed crosscheck, 2 when a mathematical hypothesis of the requested
operation fails (the payload names the hypothesis), 3 when an internal
cross-check disagrees or any other exception escapes: a bug, reported as
a JSON error payload rather than a traceback.

Randomized inputs always require an explicit ``--seed``.
"""

import argparse
import functools
import importlib
import json
import random
import sys

from .errors import (
    ConsistencyError,
    InternalError,
    PreconditionError,
    ValidationError,
)

# Each subcommand loads only the layers it runs, so `dim` and `tot` start
# without numpy and `local` without the cover and formula layers.  _load
# binds a layer's module and the names listed for it, and keeps a name
# already bound, so a patched one stays; the module __getattr__ does the
# same for code outside that reads or patches cli.<name>.
_LAZY = {
    "ascurve": ("ASCurve",),
    "cover": ("CoverData",),
    "divisors": ("OrbitDivisor", "floor_pushforward_closed", "tot_riemann_roch"),
    "formulas": (),
    "gf": ("_check_table_size", "make_field"),
    "homology": ("AlphaBeta", "closed_form", "homology_dims", "random_alpha_beta"),
    "localfield": (
        "Tower",
        "as_normalize",
        "build_extension",
        "default_tower",
        "measure_jump",
        "series",
        "weierstrass_check",
    ),
    "primes": ("_is_prime",),
}


def _load(*modules):
    for module in modules:
        source = importlib.import_module("." + module, __package__)
        globals().setdefault(module, source)
        for name in _LAZY[module]:
            globals().setdefault(name, getattr(source, name))


def __getattr__(name):
    for module, names in _LAZY.items():
        if name == module or name in names:
            _load(module)
            return globals()[name]
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = ["main", "REPORT_SCHEMAS"]


# ---------------------------------------------------------------------------
# published report schemas (one per subcommand, plus the error payload)

_CHECK_SCHEMA = {
    "type": "object",
    "required": ["name", "formula", "oracle", "match"],
    "properties": {
        "name": {"type": "string"},
        "formula": {"type": "integer"},
        "oracle": {"type": "integer"},
        "match": {"type": "boolean"},
    },
}

_SERIES_SCHEMA = {
    "type": "object",
    "required": ["terms", "prec"],
    "properties": {
        "terms": {
            "type": "array",
            "items": {
                "type": "array",
                "minItems": 2,
                "maxItems": 2,
                "items": {"type": "integer"},
            },
        },
        "prec": {"type": "integer"},
    },
}

REPORT_SCHEMAS = {
    "dim": {
        "type": "object",
        "required": ["value", "formula", "inputs"],
        "properties": {
            "value": {"type": "integer"},
            "formula": {"type": "string"},
            "inputs": {"type": "object"},
        },
    },
    "tot": {
        "type": "object",
        "required": ["tot", "degree_x", "pushforward"],
        "properties": {
            "tot": {"type": "integer"},
            "degree_x": {"type": "integer"},
            "pushforward": {"type": "object"},
        },
    },
    "homology": {
        "type": "object",
        "required": ["p", "s", "field", "alpha", "beta", "complex", "closed", "match"],
        "properties": {
            "p": {"type": "integer"},
            "s": {"type": "integer"},
            "field": {"type": "string"},
            "alpha": {"type": "array", "items": {"type": "integer"}},
            "beta": {"type": "array", "items": {"type": "integer"}},
            "complex": {"type": "object"},
            "closed": {"type": "object"},
            "match": {"type": "boolean"},
        },
    },
    "local.normalize": {
        "type": "object",
        "required": ["input", "normalized", "valuation", "corrections"],
        "properties": {
            "input": _SERIES_SCHEMA,
            "normalized": _SERIES_SCHEMA,
            "valuation": {"type": "integer"},
            "corrections": {"type": "array", "items": _SERIES_SCHEMA},
        },
    },
    "local.jump": {
        "type": "object",
        "required": ["pole_order", "r", "l", "jump"],
        "properties": {
            "pole_order": {"type": "integer"},
            "r": {"type": "integer"},
            "l": {"type": "integer"},
            "jump": {"type": "integer"},
        },
    },
    "local.tower": {
        "type": "object",
        "required": ["p", "rank", "field", "constants", "pairs", "checks"],
        "properties": {
            "p": {"type": "integer"},
            "rank": {"type": "integer"},
            "field": {"type": "string"},
            "constants": {"type": "array", "items": {"type": "integer"}},
            "pairs": {"type": "array"},
            "checks": {"type": "object"},
        },
    },
    "local.weierstrass": {
        "type": "object",
        "required": ["passed", "witness", "reason"],
        "properties": {
            "passed": {"type": "boolean"},
            "witness": {"type": "integer"},
            "reason": {"type": "string"},
        },
    },
    "oracle": {
        "type": "object",
        "required": [
            "p", "f", "divisor", "genus", "dim", "ranks", "m_l", "tot",
            "crosschecks", "match",
        ],
        "properties": {
            "p": {"type": "integer"},
            "f": {"type": "string"},
            "divisor": {"type": "string"},
            "genus": {"type": "integer"},
            "dim": {"type": "integer"},
            "ranks": {"type": "array", "items": {"type": "integer"}},
            "m_l": {"type": "object"},
            "tot": {"type": "integer"},
            "crosschecks": {"type": "array", "items": _CHECK_SCHEMA},
            "match": {"type": "boolean"},
        },
    },
    "crosscheck": {
        "type": "object",
        "required": ["p", "f", "genus", "checks", "match"],
        "properties": {
            "p": {"type": "integer"},
            "f": {"type": "string"},
            "genus": {"type": "integer"},
            "checks": {"type": "array", "items": _CHECK_SCHEMA},
            "match": {"type": "boolean"},
        },
    },
    "error": {
        "type": "object",
        "required": ["error", "message"],
        "properties": {
            "error": {"type": "string"},
            "message": {"type": "string"},
            "hypothesis": {"type": "string"},
        },
    },
}


# the report validator: exactly the JSON Schema keywords the schemas above use

_JSON_TYPES = {
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
    "string": lambda v: isinstance(v, str),
    "boolean": lambda v: isinstance(v, bool),
    # as in JSON Schema, 2.0 is an integer and true is not
    "integer": lambda v: (isinstance(v, int) and not isinstance(v, bool))
    or (isinstance(v, float) and v.is_integer()),
}

_KEYWORDS = {"type", "required", "properties", "items", "minItems", "maxItems"}


def _validate(value, schema, where="report"):
    """Raise InternalError unless ``value`` fits ``schema``.

    Any keyword outside ``_KEYWORDS`` is an error too, so a schema can never
    carry a constraint that goes unchecked.
    """
    unknown = sorted(set(schema) - _KEYWORDS)
    if unknown or schema.get("type", "object") not in _JSON_TYPES:
        raise InternalError("unsupported schema at %s: %r" % (where, schema))
    if "type" in schema and not _JSON_TYPES[schema["type"]](value):
        raise InternalError("%s is not of type %s: %r" % (where, schema["type"], value))
    if isinstance(value, dict):
        for key in schema.get("required", ()):
            if key not in value:
                raise InternalError("%s lacks the required key %r" % (where, key))
        for key, sub in schema.get("properties", {}).items():
            if key in value:
                _validate(value[key], sub, "%s.%s" % (where, key))
    elif isinstance(value, list):
        low, high = schema.get("minItems", 0), schema.get("maxItems", len(value))
        if not low <= len(value) <= high:
            raise InternalError(
                "%s has %d items, outside [%d, %d]" % (where, len(value), low, high)
            )
        if "items" in schema:
            for i, item in enumerate(value):
                _validate(item, schema["items"], "%s[%d]" % (where, i))


# ---------------------------------------------------------------------------
# small helpers

def _load_json(path):
    try:
        if path == "-":
            return json.load(sys.stdin)
        with open(path) as handle:
            return json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationError("invalid JSON in %s: %s" % (path, exc)) from None
    except OSError as exc:
        raise ValidationError("cannot read %s: %s" % (path, exc)) from None


def _parse_series(field, text, prec):
    terms = {}
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            e_str, c_str = chunk.split(":")
            e, c = int(e_str), int(c_str)
        except ValueError:
            raise ValidationError(
                "series terms look like 'exponent:coefficient', got %r" % chunk
            ) from None
        if e in terms:
            raise ValidationError("duplicate exponent %d in series" % e)
        terms[e] = field.from_code(c % field.q)
    if not terms:
        raise ValidationError("the series needs at least one term")
    return series(field, terms, prec)


def _series_json(x):
    return {
        "terms": [[e, c.code()] for e, c in x.terms()],
        "prec": x.prec,
    }


def _parse_codes(field, text, what):
    out = []
    for chunk in text.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        try:
            code = int(chunk)
        except ValueError:
            raise ValidationError("%s entries are integer codes, got %r" % (what, chunk)) from None
        if not 0 <= code < field.q:
            raise ValidationError(
                "%s code %d outside [0, %d) for %r" % (what, code, field.q, field)
            )
        out.append(field.from_code(code))
    return out


def _check(name, formula_value, oracle_value):
    return {
        "name": name,
        "formula": int(formula_value),
        "oracle": int(oracle_value),
        "match": int(formula_value) == int(oracle_value),
    }


def _flatten(obj, prefix=""):
    rows = []
    if isinstance(obj, dict):
        for key in obj:
            rows.extend(_flatten(obj[key], "%s%s." % (prefix, key)))
    elif isinstance(obj, list) and any(isinstance(v, (dict, list)) for v in obj):
        for i, v in enumerate(obj):
            rows.extend(_flatten(v, "%s%d." % (prefix, i)))
    else:
        rows.append((prefix.rstrip("."), obj))
    return rows


def _emit(report, kind, fmt):
    _validate(report, REPORT_SCHEMAS[kind])
    if fmt == "table":
        rows = _flatten(report)
        width = max(len(k) for k, _ in rows)
        for key, value in rows:
            if isinstance(value, list):
                value = " ".join(str(v) for v in value)
            print("%-*s  %s" % (width, key, value))
    else:
        print(json.dumps(report, indent=2))


# ---------------------------------------------------------------------------
# subcommands (each returns (report, kind, exit_status))

def _cmd_dim(args):
    _load("cover", "formulas")
    cover = CoverData.from_json(_load_json(args.cover))
    func = {
        "tame": formulas.dim_tame,
        "cyclic": formulas.dim_cyclic,
        "weakly": formulas.dim_weakly_ramified,
    }[args.case]
    return func(cover).to_json(), "dim", 0


def _cmd_tot(args):
    _load("cover", "divisors")
    cover = CoverData.from_json(_load_json(args.cover))
    divisor = OrbitDivisor.from_json(cover, _load_json(args.divisor))
    pushed = floor_pushforward_closed(divisor)
    report = {
        "tot": tot_riemann_roch(divisor),
        "degree_x": divisor.degree_x(),
        "degree_y_pushforward": pushed.degree_y(),
        "pushforward": pushed.to_json(),
    }
    return report, "tot", 0


def _cmd_homology(args):
    _load("primes", "gf", "homology")
    # refuse a field too large for tables before make_field, whose
    # irreducibility test takes time exponential in the degree; a composite
    # p is left to make_field's NotPrimeError
    if _is_prime(args.p):
        _check_table_size(args.p, args.m or args.s)
    if args.random:
        if args.seed is None:
            raise ValidationError("--random requires an explicit --seed")
        field = make_field(args.p, args.m) if args.m else None
        ab = random_alpha_beta(args.p, args.s, random.Random(args.seed), field=field)
    else:
        if args.alpha is None or args.beta is None:
            raise ValidationError("give --alpha and --beta, or use --random --seed")
        field = make_field(args.p, args.m or args.s)
        alpha = _parse_codes(field, args.alpha, "alpha")
        beta = _parse_codes(field, args.beta, "beta")
        if len(alpha) != args.s or len(beta) != args.s:
            raise ValidationError(
                "need s = %d alpha and beta entries, got %d and %d"
                % (args.s, len(alpha), len(beta))
            )
        ab = AlphaBeta(field, args.s, tuple(alpha), tuple(beta))
    h0, h1 = homology_dims(ab)
    closed = closed_form(ab)
    if ab.field.p == 2:
        match = closed.difference == h0 - h1
    else:
        match = (closed.h0, closed.h1) == (h0, h1)
    if not match:
        raise ConsistencyError(
            "closed-form homology %r differs from the chain complex (%d, %d)"
            % (closed, h0, h1)
        )
    report = {
        "p": ab.field.p,
        "s": ab.s,
        "field": repr(ab.field),
        "alpha": [a.code() for a in ab.alpha],
        "beta": [b.code() for b in ab.beta],
        "complex": {"h0": h0, "h1": h1, "difference": h0 - h1},
        "closed": closed.to_json(),
        "match": match,
    }
    return report, "homology", 0


def _cmd_local(args):
    _load("gf", "localfield")
    field = make_field(args.p, args.m)
    if args.what == "normalize":
        x = _parse_series(field, args.series, args.prec)
        normalized, corrections = as_normalize(x)
        report = {
            "input": _series_json(x),
            "normalized": _series_json(normalized),
            "valuation": normalized.valuation(),
            "corrections": [_series_json(w) for w in corrections],
        }
        return report, "local.normalize", 0
    if args.what == "jump":
        x = _parse_series(field, args.series, args.prec + 8)
        ext = build_extension(x, args.prec)
        report = {
            "pole_order": ext.m,
            "r": ext.r,
            "l": ext.l,
            "jump": measure_jump(ext, args.c),
        }
        return report, "local.jump", 0
    if args.what == "tower":
        if args.constants is not None:
            tower_field = make_field(args.p, args.m)
            constants = _parse_codes(tower_field, args.constants, "constants")
            tower = Tower(tower_field, args.rank, constants, prec=args.prec)
        else:
            tower = default_tower(args.p, args.rank, prec=args.prec)
        pairs = tower.alpha_beta_pairs()
        checks = {"structure": True, "consistency": True, "beta_is_alpha_squared": True}
        for g in tower.generators:
            tower.check_structure(g)
            tower.check_consistency(g)
        for alpha, beta in pairs:
            if beta != alpha * alpha:
                checks["beta_is_alpha_squared"] = False
        report = {
            "p": tower.p,
            "rank": tower.n,
            "field": repr(tower.field),
            "constants": [c.code() for c in tower.constants],
            "pairs": [[a.code(), b.code()] for a, b in pairs],
            "checks": checks,
        }
        return report, "local.tower", 0
    if args.what == "weierstrass":
        try:
            nums = [int(v) for v in args.pole_numbers.split(",") if v.strip()]
        except ValueError:
            raise ValidationError("--pole-numbers is a comma list of integers") from None
        report = weierstrass_check(nums, args.bound).to_json()
        return report, "local.weierstrass", 0
    raise ValidationError("unknown local tool %r" % args.what)


_DIVISOR_CHOICES = ("2K", "2K+3Rred")


def _oracle_divisor(curve, name):
    if name == "2K":
        return curve.two_k_plus()
    if name == "2K+3Rred":
        return curve.two_k_plus(extra_r_red=3)
    raise ValidationError("divisor must be one of %s" % (_DIVISOR_CHOICES,))


def _oracle_checks(curve, name, divisor, dec):
    cov = curve.cover()
    weakly = all(o.is_weakly_ramified() for o in cov.orbits)
    checks = [_check("tot_riemann_roch_%s" % name, tot_riemann_roch(divisor), dec.tot)]
    if name == "2K":
        checks.append(_check("dim_cyclic", formulas.dim_cyclic(cov).value, dec.tot))
        checks.append(
            _check(
                "m_regular_cyclic_p",
                formulas.m_regular_cyclic_p(cov).value,
                dec.multiplicity(curve.p),
            )
        )
        if weakly:
            checks.append(
                _check(
                    "dim_weakly_ramified",
                    formulas.dim_weakly_ramified(cov).value,
                    dec.tot,
                )
            )
    elif name == "2K+3Rred" and weakly:
        checks.append(
            _check(
                "free_rank_aug",
                formulas.free_rank_aug(cov).value,
                dec.multiplicity(curve.p),
            )
        )
        checks.append(_check("small_blocks", 0, sum(dec.mult[: curve.p - 1])))
    return checks


def _cmd_oracle(args):
    _load("formulas", "divisors", "ascurve")
    curve = ASCurve(args.p, args.f)
    divisor = _oracle_divisor(curve, args.divisor)
    dec = curve.decompose(divisor)
    checks = _oracle_checks(curve, args.divisor, divisor, dec)
    match = all(c["match"] for c in checks)
    report = {
        "p": curve.p,
        "f": args.f,
        "divisor": args.divisor,
        "genus": curve.genus,
        "dim": dec.dim,
        "ranks": list(dec.ranks),
        "m_l": {str(l): m for l, m in enumerate(dec.mult, start=1) if m},
        "tot": dec.tot,
        "crosschecks": checks,
        "match": match,
    }
    return report, "oracle", 0 if match else 1


def _cmd_crosscheck(args):
    _load("formulas", "divisors", "ascurve")
    curve = ASCurve(args.p, args.f)
    cov = curve.cover()
    weakly = all(o.is_weakly_ramified() for o in cov.orbits)
    checks = []
    for side in curve.sides:
        vals = curve.local_valuations(side)
        n = curve.pole_order(side)
        checks.append(_check("pole_order_at_%s" % side, -n, vals["y"]))
        checks.append(_check("different_at_%s" % side, curve.different(side), vals["different"]))
        # div(dx) = pullback(-2 [x = inf]) + R, so v(dx) is d at a point
        # over x = 0 and d - 2p at a point over x = inf
        predicted_dx = curve.different(side) - (2 * curve.p if side == "inf" else 0)
        checks.append(_check("dx_valuation_at_%s" % side, predicted_dx, vals["dx"]))
    checks.append(
        _check("canonical_degree", 2 * curve.genus - 2, curve.canonical_x().degree_x())
    )
    for name in _DIVISOR_CHOICES:
        divisor = _oracle_divisor(curve, name)
        dec = curve.decompose(divisor)
        checks.extend(_oracle_checks(curve, name, divisor, dec))
    if weakly:
        free = formulas.free_rank_aug(cov).value
        hom = formulas.homology_dims_closed(cov)
        checks.append(
            _check(
                "triangle_free_minus_homology",
                free - hom.difference,
                formulas.dim_cyclic(cov).value,
            )
        )
    match = all(c["match"] for c in checks)
    report = {
        "p": curve.p,
        "f": args.f,
        "genus": curve.genus,
        "checks": checks,
        "match": match,
    }
    return report, "crosscheck", 0 if match else 1


# ---------------------------------------------------------------------------
# argument parsing

class _Parser(argparse.ArgumentParser):
    """argparse with usage errors routed through the exit-code contract."""

    def error(self, message):
        raise ValidationError(message)


def _positive_int(text):
    """argparse type for degrees, counts and precisions: an integer >= 1."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError("expected an integer >= 1, got %r" % text)
    return value


@functools.lru_cache(maxsize=None)
def _build_parser():
    """The argument parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(
        prog="equideform",
        description="Exact dimension formulas for wild p-group curve actions, "
        "with curve-level oracles.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    def common(sp):
        sp.add_argument(
            "--format", choices=("json", "table"), default="json",
            help="output rendering (default json)",
        )

    sp = sub.add_parser("dim", help="closed-form dimension from a cover JSON file")
    sp.add_argument("cover", help="cover JSON path, or - for stdin")
    sp.add_argument("--case", choices=("tame", "cyclic", "weakly"), required=True)
    common(sp)

    sp = sub.add_parser("tot", help="summand count of H^0(O(D)) from cover + divisor JSON")
    sp.add_argument("cover", help="cover JSON path, or - for stdin")
    sp.add_argument("divisor", help="divisor JSON path")
    common(sp)

    sp = sub.add_parser("homology", help="punctual-section homology, complex vs closed form")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--s", type=_positive_int, required=True, help="number of group generators")
    sp.add_argument("--m", type=_positive_int, default=None, help="field degree (default s)")
    sp.add_argument("--alpha", help="comma list of field codes, length s")
    sp.add_argument("--beta", help="comma list of field codes, length s")
    sp.add_argument("--random", action="store_true", help="sample alpha/beta (needs --seed)")
    sp.add_argument("--seed", type=int, default=None)
    common(sp)

    sp = sub.add_parser("local", help="series-level tools")
    sp.add_argument("what", choices=("normalize", "jump", "tower", "weierstrass"))
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--m", type=_positive_int, default=1, help="residue field degree")
    sp.add_argument("--series", help="exponent:coefficient pairs, comma separated")
    sp.add_argument("--prec", type=_positive_int, default=24)
    sp.add_argument("--c", type=int, default=1, help="translation used to measure the jump")
    sp.add_argument("--rank", type=_positive_int, default=1, help="tower rank n")
    sp.add_argument("--constants", help="tower constants as field codes (needs --m)")
    sp.add_argument("--pole-numbers", dest="pole_numbers", help="comma list of integers")
    sp.add_argument("--bound", type=int, default=None)
    common(sp)

    sp = sub.add_parser("oracle", help="Jordan decomposition of L(D) on y^p - y = f(x)")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", required=True, help='Laurent polynomial, e.g. "x^3" or "x + x^-1"')
    sp.add_argument("--divisor", choices=_DIVISOR_CHOICES, default="2K")
    common(sp)

    sp = sub.add_parser("crosscheck", help="all formula/oracle pairs for one curve")
    sp.add_argument("--p", type=int, required=True)
    sp.add_argument("--f", required=True)
    common(sp)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except ValidationError as exc:
        _emit(exc.payload(), "error", "json")
        return 1
    fmt = getattr(args, "format", "json")
    try:
        if args.subcommand == "local":
            if args.what in ("normalize", "jump") and not args.series:
                raise ValidationError("%s needs --series" % args.what)
            if args.what == "weierstrass":
                if args.pole_numbers is None or args.bound is None:
                    raise ValidationError("weierstrass needs --pole-numbers and --bound")
            if args.what == "tower" and args.constants is not None and args.m < args.rank:
                raise ValidationError("explicit constants need --m >= --rank")
        # looked up at call time, so a handler patched onto the module is used
        report, kind, status = globals()["_cmd_" + args.subcommand](args)
        _emit(report, kind, fmt)
    except ValidationError as exc:
        _emit(exc.payload(), "error", fmt)
        return 1
    except PreconditionError as exc:
        _emit(exc.payload(), "error", fmt)
        return 2
    except InternalError as exc:
        _emit(exc.payload(), "error", fmt)
        return 3
    except Exception as exc:
        _emit({"error": type(exc).__name__, "message": str(exc)}, "error", fmt)
        return 3
    return status


if __name__ == "__main__":
    sys.exit(main())
