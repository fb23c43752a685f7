"""One benchmark process: import wfgibbs from the checkout, load the
generated config, and optionally run one CLI command, traced or not.

    python3 bench/worker.py '<json request>'

The request holds ``src``, ``config``, ``result`` and optionally ``argv``,
``trace`` and ``software`` (record library versions and BLAS threads).
The process writes a JSON result file with the monotonic
time at which it was ready (imports done, config loaded), and for a
command its wall time, exit code, peak RSS and, when traced, its spans.
"""

from __future__ import annotations

import ctypes
import json
import resource
import sys
import time
from pathlib import Path


def _software() -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        paths = {line.split()[-1] for line in fh if "openblas" in line and ".so" in line}
    for path in sorted(paths):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                threads = int(getter())
                break
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": blas.get("name"),
            "blas_version": blas.get("version"), "blas_threads": threads}


def main() -> int:
    request = json.loads(sys.argv[1])
    src = Path(request["src"]).resolve()
    sys.path.insert(0, str(src))
    import wfgibbs
    from wfgibbs import cli

    if src not in Path(wfgibbs.__file__).resolve().parents:
        print(f"wfgibbs imported from {wfgibbs.__file__}, not from {src}", file=sys.stderr)
        return 2
    cli.load_config(request["config"])
    result = {"ready": time.monotonic()}

    if request.get("argv"):
        tracer = None
        if request.get("trace"):
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        start = time.perf_counter()
        try:
            code = cli.main(request["argv"])
        finally:
            wall = time.perf_counter() - start
            if tracer is not None:
                result.update(spans=tracer.spans, wrapped=tracer.wrapped,
                              restored=tracer.restore())
        result.update(wall_s=wall, exit_code=code,
                      peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    if request.get("software"):
        result["software"] = _software()
    with open(request["result"], "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
