"""Layered benchmark of equideform.

    python3 layerbench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--compare OLD]
    python3 layerbench/run.py --smoke

Run from the root of a checkout; the program is imported from its ``src``.
A run makes one round of operations from the seed, sets up, runs one
untimed warm-up round where the program has caches to fill, then whole
rounds, stopping at the round boundary nearest to S seconds, checking every
output.  ``ops_per_s`` is the rate of a round made of each operation's
median time over the run's rounds, and ``setup_s`` the median of one
fresh-process set-up after each round.  ``--trace 0`` reports the end-to-end
metrics and ``--trace 1`` the per-layer ones.  The last line of
standard output is the result as JSON; a results file with the machine,
the revision and every metric goes to ``layerbench/results/``.  ``--compare
OLD`` prints, on standard error, each metric's ratio to the one in the
results file OLD.  ``--smoke`` runs one small round of every workload, traced
and untraced, and exits 1 if any operation failed.
"""

import argparse
import datetime
import importlib
import importlib.util
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

import tracing
import workloads

ROOT = os.path.dirname(workloads.HERE)
SRC = workloads.SRC
RESULTS = os.path.join(workloads.HERE, "results")


def setup_seconds(wl, ops):
    """A fresh process's time to import the program and build its tables."""
    fields = ";".join("%d,%d" % f for f in wl.fields(ops))
    cmd = [sys.executable, workloads.CHILD, "setup", ",".join(wl.modules), fields]
    out = subprocess.run(
        cmd, env=workloads.child_env(), capture_output=True, text=True, timeout=120, check=True
    )
    return float(out.stdout.split()[-1])


def run_workload(name, seed, seconds, trace, smoke=False):
    """One run; returns (result line, record for the results file)."""
    wl = workloads.WORKLOADS[name]()
    ops = wl.inputs(workloads.rng_for(name, seed), smoke)
    for module in wl.modules:
        importlib.import_module(module)
    tracer = tracing.Tracer().install() if trace and wl.in_process else None
    workdir = None
    if wl.in_process:
        from equideform.gf import make_field

        for p, m in wl.fields(ops):
            make_field(p, m).tables()
    else:
        workdir = os.path.join(RESULTS, "work-%d" % os.getpid())
        os.makedirs(workdir, exist_ok=True)
    try:
        wl.prepare(ops, workdir, bool(trace))
        if wl.warm_up and not smoke:
            for op in ops:
                wl.run(op)
        setup = None if trace else (lambda: setup_seconds(wl, ops))
        state = _timed_rounds(wl, ops, seconds, tracer, setup)
    finally:
        if tracer:
            tracer.uninstall()
        if workdir:
            shutil.rmtree(workdir, ignore_errors=True)

    lat = state["latencies"]
    by_op = [statistics.median(lat[i::len(ops)]) for i in range(len(ops))]
    if trace:
        totals = tracing.Totals()
        processes = 1
        if tracer:
            state["spans"].append(tracer.export())
        else:
            processes = len(state["spans"])
        for exported in state["spans"]:
            totals.add(exported)
        layer = tracing.layer_metrics(totals, len(lat), processes, state["cli"])
        shares = tracing.layer_shares(totals, sum(lat) * 1e3)
        if not wl.in_process:
            for key in ("import_ms", "process_ms"):
                part = state["cli"][key] / (sum(lat) * 1e3)
                shares["cli " + key[:-3]] = part
                shares["outside traced calls"] -= part
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in layer.items()}
    else:
        peak = state["child_rss"] if not wl.in_process else (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
        metrics = {
            "ops_per_s": {"value": len(ops) / sum(by_op), "unit": "1/s"},
            "setup_s": {"value": statistics.median(state["setup_times"]), "unit": "s"},
            "peak_rss_mb": {"value": peak, "unit": "MB"},
        }
        shares = None
    result = {
        "correct": not state["wrong"],
        "attempted": len(lat),
        "failed": state["failed"],
        "metrics": metrics,
    }
    record = dict(
        result,
        workload=name, seed=seed, seconds=seconds, trace=trace, smoke=smoke,
        rounds=state["rounds"], round_rates=state["round_rates"], ops_per_round=len(ops),
        setup_times=state["setup_times"],
        latency_ms_p50=statistics.median(lat) * 1e3,
        problems=state["problems"][:20],
        median_ms_by_op={op.label: t * 1e3 for op, t in zip(ops, by_op)},
        latencies_ms=[t * 1e3 for t in lat],
        layer_shares=shares, machine=_machine(), revision=_revision(),
        when=datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
    )
    if trace:
        record["spans"] = state["spans"]
    return result, record


def _timed_rounds(wl, ops, seconds, tracer, setup):
    state = dict(latencies=[], failed=0, wrong=0, problems=[], rounds=0, round_rates=[], spans=[],
                 setup_times=[], child_rss=0.0,
                 cli=dict(import_ms=0.0, main_ms=0.0, process_ms=0.0))
    lat = state["latencies"]
    start = time.perf_counter()
    paused = 0.0
    while True:
        for op in ops:
            if tracer:
                tracer.op = len(lat)
            t0 = time.perf_counter()
            try:
                out = wl.run(op)
                error = None
            except Exception as exc:  # a failed operation is counted, not fatal
                out, error = None, exc
            dt = time.perf_counter() - t0
            lat.append(dt)
            if error is not None:
                problems = ["raised %s: %s" % (type(error).__name__, error)]
            else:
                try:
                    problems = wl.check(op, out)
                except Exception as exc:
                    problems = ["check raised %s: %s" % (type(exc).__name__, exc)]
                state["wrong"] += bool(problems)
            if problems:
                state["failed"] += 1
                state["problems"].append("%s: %s" % (op.label, "; ".join(problems)))
            if not wl.in_process and out is not None:
                _, _, rss, child = out
                state["child_rss"] = max(state["child_rss"], rss)
                if child is not None:
                    for span in child["trace"]["spans"]:
                        span[1] = len(lat) - 1
                    state["spans"].append(child["trace"])
                    cli = state["cli"]
                    cli["import_ms"] += child["import_ms"]
                    cli["main_ms"] += child["main_ms"]
                    cli["process_ms"] += dt * 1e3 - child["import_ms"] - child["main_ms"]
        state["rounds"] += 1
        round_s = sum(lat[-len(ops):])
        state["round_rates"].append(len(ops) / round_s)
        if setup is not None:
            # one set-up sample per round, so that they spread over the run
            t0 = time.perf_counter()
            state["setup_times"].append(setup())
            paused += time.perf_counter() - t0
        # stop at the round boundary nearest to the run length
        if time.perf_counter() - start - paused + round_s / 2 >= seconds:
            return state


def _machine():
    import numpy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": "%s %s" % (blas.get("name", "?"), blas.get("version", "?")),
        "numba": importlib.util.find_spec("numba") is not None,
        "platform": platform.platform(),
    }


def _revision():
    """The commit of the checkout, or None when it is not a git work tree."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs")) as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def write_record(record):
    os.makedirs(RESULTS, exist_ok=True)
    stamp = datetime.datetime.now().strftime("%Y%m%d-%H%M%S")
    path = os.path.join(
        RESULTS, "%s-seed%d-trace%d-%s-%d.json"
        % (record["workload"], record["seed"], record["trace"], stamp, os.getpid())
    )
    spans = record.pop("spans", None)
    if spans is not None:
        record["spans_file"] = os.path.basename(path)[:-5] + "-spans.json"
        with open(os.path.join(RESULTS, record["spans_file"]), "w") as handle:
            json.dump(spans, handle, separators=(",", ":"))
    with open(path, "w") as handle:
        json.dump(record, handle, indent=1)
    return path


def compare(old_path, new):
    with open(old_path) as handle:
        old = json.load(handle)["metrics"]
    for name, entry in new["metrics"].items():
        base = old.get(name, {}).get("value")
        value, unit = entry["value"], entry["unit"]
        ratio = "%.3f" % (value / base) if base else "n/a"
        print("%-34s %12.6g %-6s base %12s  ratio %s"
              % (name, value, unit, "-" if base is None else "%.6g" % base, ratio),
              file=sys.stderr)


def smoke():
    bad = 0
    for name in workloads.WORKLOADS:
        for trace in (0, 1):
            t0 = time.perf_counter()
            result, record = run_workload(name, 1, 0, trace, smoke=True)
            ok = result["correct"] and not result["failed"]
            bad += not ok
            print("%-18s trace=%d  %d ops, %d failed, %.1f s%s"
                  % (name, trace, result["attempted"], result["failed"],
                     time.perf_counter() - t0, "" if ok else "  " + "; ".join(record["problems"])))
    return 1 if bad else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", metavar="OLD", help="results file to compare against")
    parser.add_argument("--smoke", action="store_true", help="one small round of everything")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "equideform", "__init__.py")):
        sys.exit("layerbench: no equideform sources under %s" % SRC)
    sys.path.insert(0, SRC)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    if args.seconds < 0:
        parser.error("--seconds must be >= 0")
    result, record = run_workload(args.workload, args.seed, args.seconds, args.trace)
    path = write_record(record)
    print("results written to %s" % os.path.relpath(path, ROOT), file=sys.stderr)
    if args.compare:
        compare(args.compare, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
