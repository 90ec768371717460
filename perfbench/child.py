"""One benchmark run in a fresh process: import the package, run the operations.

Usage: child.py SPEC.json RESULT.json, both written and read by run.py.
The spec names the package source directory, the CLI argument lists and
whether to trace.  BLAS threads are pinned by the parent through the
environment before this process starts.  Operations run one after the
other through ``necklace_walks.cli.main``; the result holds the ready
time (for set-up), per-operation wall time, exit code and output size,
CPU time and peak RSS over the operations, and the spans of a traced run.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
import traceback
import warnings


def _cpu() -> float:
    usage = resource.getrusage(resource.RUSAGE_SELF)
    return usage.ru_utime + usage.ru_stime


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    sys.path.insert(0, spec["src"])
    t_import = time.perf_counter()
    from necklace_walks import cli
    from necklace_walks.errors import AmbiguousDegeneracyWarning

    ready = time.perf_counter()
    result = {"ready": ready, "import_s": ready - t_import}

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        import spans

        tracer = spans.Tracer()
        tracer.install()

    ops = []
    cpu0, t0 = _cpu(), time.perf_counter()
    for i, argv in enumerate(spec["ops"]):
        rec = None
        if tracer is not None:
            tracer.op = i
            rec = tracer.open("cli.op")
        start = time.perf_counter()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = cli.main(argv)
            except Exception:  # an operation that crashes counts as failed
                traceback.print_exc()
                code = -1
        wall = time.perf_counter() - start
        if rec is not None:
            tracer.close(rec)
            _time_averager_setup(tracer)
        output = argv[argv.index("--output") + 1]
        ops.append({
            "wall_s": wall,
            "exit": code,
            "bytes_out": os.path.getsize(output) if os.path.exists(output) else 0,
            "warnings": sum(issubclass(w.category, AmbiguousDegeneracyWarning) for w in caught),
        })
    # The trace probes above run between operations; their time is excluded.
    probes = sum(s.get("setup_s") or 0.0 for s in tracer.spans) if tracer else 0.0
    result["wall_s"] = time.perf_counter() - t0 - probes
    result["cpu_s"] = _cpu() - cpu0
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result["ops"] = ops
    if tracer is not None:
        tracer.uninstall()
        result["trace"] = tracer.export()
    result["env"] = environment()
    with open(result_path, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


def _time_averager_setup(tracer) -> None:
    """Time one averager set-up on each mixing_time call's spectrum and start.

    per_T_s subtracts it from the mixing_time span; a limiting_distribution
    call builds the same machinery without any T evaluation.
    """
    limiting = tracer.originals.get("dynamics.limiting_distribution")
    for rec, args, kwargs in tracer.mixing_calls:
        rec["setup_s"] = None
        if limiting is None:
            continue
        start = time.perf_counter()
        try:
            limiting(args[0], args[1], tau_deg=kwargs.get("tau_deg"))
        except (TypeError, IndexError):
            continue
        rec["setup_s"] = time.perf_counter() - start
    tracer.mixing_calls.clear()


def environment() -> dict:
    """Versions, core count and the BLAS library with its live thread count."""
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(np),
    }


def _blas_threads(np) -> int | None:
    """Threads the bundled OpenBLAS reports, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
