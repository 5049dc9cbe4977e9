"""Spans around the calls into each layer of equideform, recorded from outside.

``Tracer.install`` replaces each traced public function with a wrapper in
every namespace where a caller looks it up (module attributes, names bound by
``from ... import``, and class attributes for methods), and ``uninstall``
puts the originals back.  A span is (name, operation, parent, start, end,
work); spans are kept in memory and summarised by ``layer_metrics``.

Self time is a span's duration minus the durations of its direct children;
``.ms`` sums only the outermost span of each name, so a name nested inside
itself (a tower built inside ``default_tower``) is not counted twice.
"""

import functools
import time

SPAN_NAMES = (
    "gf.tables",
    "kernels.rank",
    "kernels.matmul",
    "localfield.mul",
    "localfield.inverse",
    "localfield.compose",
    "localfield.pth_power",
    "localfield.build_extension",
    "localfield.as_normalize",
    "localfield.tower",
    "ascurve.decompose",
    "ascurve.local_valuations",
    "homology.homology_dims",
    "homology.build_complex",
    "cli.main",
)


def _table_bytes(field, *_):
    # add and mul (q x q), neg and inv (q), and the q x q x (2m - 1) product
    # buffer that FiniteField._build_tables allocates, all int64
    q, m = field.q, field.m
    return 8 * (2 * q * q + 2 * q + q * q * (2 * m - 1))


def _cells(a, *_):
    return a.shape[0] * a.shape[1]


def _macs(a, b, *_):
    return a.shape[0] * a.shape[1] * b.shape[1]


class Tracer:
    def __init__(self):
        self.names = []
        self.ops = []
        self.parents = []
        self.starts = []
        self.ends = []
        self.work = []
        self.op = -1  # operation index; -1 is set-up and warm-up
        self._stack = []
        self._undo = []

    def _wrap(self, name, func, work=None):
        code = SPAN_NAMES.index(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            idx = len(self.names)
            self.names.append(code)
            self.ops.append(self.op)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.work.append(work(*args) if work else 0)
            self.starts.append(0.0)
            self.ends.append(0.0)
            self._stack.append(idx)
            self.starts[idx] = time.perf_counter()
            try:
                return func(*args, **kwargs)
            finally:
                self.ends[idx] = time.perf_counter()
                self._stack.pop()

        return traced

    def _patch(self, name, owners, attr, work=None):
        original = getattr(owners[0], attr)
        wrapper = self._wrap(name, original, work)
        for owner in owners:
            if getattr(owner, attr) is original:
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)

    def install(self):
        from equideform import ascurve, cli, gf, homology, kernels, localfield

        series = localfield.LaurentSeriesTrunc

        def pairs(a, b):
            return len(a.coeffs) * (len(b.coeffs) if isinstance(b, series) else 1)

        self._patch("gf.tables", [gf.FiniteField], "_build_tables", _table_bytes)
        self._patch("kernels.rank", [kernels], "rank", _cells)
        self._patch("kernels.matmul", [kernels], "matmul", _macs)
        self._patch("localfield.mul", [series], "__mul__", pairs)
        self._patch("localfield.mul", [series], "__rmul__", pairs)
        self._patch("localfield.inverse", [series], "inverse")
        self._patch("localfield.pth_power", [series], "pth_power")
        self._patch("localfield.compose", [localfield], "compose")
        self._patch(
            "localfield.build_extension", [localfield, ascurve, cli], "build_extension"
        )
        self._patch("localfield.as_normalize", [localfield, cli], "as_normalize")
        self._patch("localfield.tower", [localfield, cli], "default_tower")
        for method in ("__init__", "alpha_beta_pairs", "check_structure", "check_consistency"):
            self._patch("localfield.tower", [localfield.Tower], method)
        self._patch("ascurve.decompose", [ascurve.ASCurve], "decompose")
        self._patch("ascurve.local_valuations", [ascurve.ASCurve], "local_valuations")
        self._patch("homology.homology_dims", [homology, cli], "homology_dims")
        self._patch("homology.build_complex", [homology], "build_complex")
        self._patch("cli.main", [cli], "main")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def export(self):
        """The spans as plain lists, for a results file or another process."""
        return {
            "names": list(SPAN_NAMES),
            "spans": [
                [n, o, p, round(s, 7), round(e, 7), w]
                for n, o, p, s, e, w in zip(
                    self.names, self.ops, self.parents, self.starts, self.ends, self.work
                )
            ],
        }


class Totals:
    """Per-name sums over one or more exported span sets.

    Spans of timed operations count everywhere; table builds count also in
    set-up, because a process builds each field's tables once.
    """

    def __init__(self):
        self.calls = {n: 0 for n in SPAN_NAMES}
        self.ms = {n: 0.0 for n in SPAN_NAMES}
        self.self_ms = {n: 0.0 for n in SPAN_NAMES}
        self.work = {n: 0 for n in SPAN_NAMES}
        self.tables = [0, 0.0, 0]  # builds, ms, bytes
        self.top_ms = 0.0  # time inside outermost spans of timed operations

    def add(self, exported):
        names = exported["names"]
        spans = exported["spans"]
        child_ms = [0.0] * len(spans)
        for _, _, parent, start, end, _ in spans:
            if parent >= 0:
                child_ms[parent] += (end - start) * 1e3
        for i, (code, op, parent, start, end, work) in enumerate(spans):
            name = names[code]
            dur = (end - start) * 1e3
            if name == "gf.tables":
                self.tables[0] += 1
                self.tables[1] += dur
                self.tables[2] += work
            if op < 0:
                continue
            self.calls[name] += 1
            self.work[name] += work
            self.self_ms[name] += dur - child_ms[i]
            j = parent
            while j >= 0 and names[spans[j][0]] != name:
                j = spans[j][2]
            if j < 0:
                self.ms[name] += dur
            if parent < 0:
                self.top_ms += dur


def layer_metrics(totals, ops, processes, cli_times):
    """Per-layer metrics: per timed operation, except gf.tables per process."""
    per_op = 1.0 / max(ops, 1)
    per_proc = 1.0 / max(processes, 1)
    out = {
        "gf.tables.builds": (totals.tables[0] * per_proc, "count"),
        "gf.tables.ms": (totals.tables[1] * per_proc, "ms"),
        "gf.tables.mb": (totals.tables[2] / 2**20 * per_proc, "MB"),
    }
    for stem, unit in (("rank", "cells"), ("matmul", "macs")):
        name = "kernels." + stem
        out[name + ".calls"] = (totals.calls[name] * per_op, "count")
        out[name + ".ms"] = (totals.ms[name] * per_op, "ms")
        out[name + "." + unit] = (totals.work[name] * per_op, unit)
    for stem in ("mul", "inverse", "compose", "pth_power"):
        name = "localfield." + stem
        out[name + ".calls"] = (totals.calls[name] * per_op, "count")
        out[name + ".self_ms"] = (totals.self_ms[name] * per_op, "ms")
    out["localfield.mul.coeff_pairs"] = (totals.work["localfield.mul"] * per_op, "pairs")
    name = "localfield.build_extension"
    out[name + ".calls"] = (totals.calls[name] * per_op, "count")
    out[name + ".ms"] = (totals.ms[name] * per_op, "ms")
    out[name + ".self_ms"] = (totals.self_ms[name] * per_op, "ms")
    out["localfield.as_normalize.ms"] = (totals.ms["localfield.as_normalize"] * per_op, "ms")
    out["localfield.tower.ms"] = (totals.ms["localfield.tower"] * per_op, "ms")
    out["ascurve.decompose.calls"] = (totals.calls["ascurve.decompose"] * per_op, "count")
    out["ascurve.decompose.self_ms"] = (totals.self_ms["ascurve.decompose"] * per_op, "ms")
    out["ascurve.local_valuations.ms"] = (
        totals.ms["ascurve.local_valuations"] * per_op, "ms")
    out["homology.homology_dims.calls"] = (
        totals.calls["homology.homology_dims"] * per_op, "count")
    out["homology.homology_dims.ms"] = (totals.ms["homology.homology_dims"] * per_op, "ms")
    out["homology.build_complex.self_ms"] = (
        totals.self_ms["homology.build_complex"] * per_op, "ms")
    out["cli.main.self_ms"] = (totals.self_ms["cli.main"] * per_op, "ms")
    for key in ("import_ms", "main_ms", "process_ms"):
        out["cli." + key] = (cli_times[key] * per_op, "ms")
    return out


def layer_shares(totals, op_ms_total):
    """Share of the timed operations' time spent in each layer's own code."""
    shares = {}
    for name in SPAN_NAMES:
        layer = name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + totals.self_ms[name]
    shares["outside traced calls"] = op_ms_total - totals.top_ms
    return {k: v / op_ms_total for k, v in shares.items()} if op_ms_total else shares
