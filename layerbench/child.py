"""Child processes of the benchmark; equideform comes from PYTHONPATH.

    child.py setup MODULES FIELDS
        Import MODULES (comma separated) and build the lookup tables of each
        field in FIELDS ("p,m;p,m;..."); print the seconds this took.
    child.py cli TIMING_FILE ARGV...
        Time ``import equideform.cli`` and ``main(ARGV)`` with the layer
        wrappers installed, write the times and spans to TIMING_FILE, and
        exit with main's status.
"""

import importlib
import json
import sys
import time

import tracing


def setup(modules, fields):
    start = time.perf_counter()
    for name in modules.split(","):
        importlib.import_module(name)
    from equideform.gf import make_field

    for spec in filter(None, fields.split(";")):
        p, m = spec.split(",")
        make_field(int(p), int(m)).tables()
    print(repr(time.perf_counter() - start))


def cli(timing_file, argv):
    start = time.perf_counter()
    from equideform import cli as program

    imported = time.perf_counter()
    tracer = tracing.Tracer().install()
    tracer.op = 0
    begin = time.perf_counter()
    status = program.main(argv)
    end = time.perf_counter()
    tracer.uninstall()
    sys.stdout.flush()
    with open(timing_file, "w") as handle:
        json.dump(
            {
                "import_ms": (imported - start) * 1e3,
                "main_ms": (end - begin) * 1e3,
                "trace": tracer.export(),
            },
            handle,
        )
    return status


if __name__ == "__main__":
    if sys.argv[1] == "setup":
        setup(sys.argv[2], sys.argv[3])
    elif sys.argv[1] == "cli":
        sys.exit(cli(sys.argv[2], sys.argv[3:]))
    else:
        sys.exit("unknown child mode %r" % sys.argv[1])
