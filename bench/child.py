"""
One benchmark operation, run in a fresh interpreter so that no memo table of
`adlv` (`_datum_cache`, `_context_cache`, `_target_cache`, the `AffineWeyl`
tables) is warm from an earlier operation.

    python3 -E -s bench/child.py SPEC.json RESULT.json

SPEC.json holds:
  src     directory that holds the `adlv` package under test
  data    root data to build during set-up, as [type, rank, variant] triples
  calls   argv lists of `adlv` CLI calls ("survey" or "query"), run in order
  trace   whether to install the per-layer tracer (see layertrace.py)
  work    scratch directory for traced workers' statistics

RESULT.json gets the set-up time, each call's latency, output text or error,
the peak resident memory of this process and its workers, and, when traced,
the merged per-layer statistics.
"""

from __future__ import annotations

import io
import json
import os
import resource
import sys
import time


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    src = os.path.abspath(spec["src"])

    start = time.perf_counter()
    sys.path.insert(0, src)
    import adlv
    from adlv import affine_context, build_root_datum, cli
    for ctype, rank, variant in spec["data"]:
        affine_context(build_root_datum(ctype, rank, variant))
    setup_s = time.perf_counter() - start

    if not os.path.abspath(adlv.__file__).startswith(src + os.sep):
        raise SystemExit(f"bench: imported adlv from {adlv.__file__}, not from {src}")

    tracer = None
    if spec["trace"]:
        from layertrace import Tracer
        tracer = Tracer(spec["work"])
        tracer.install()

    commands = {"survey": cli.cmd_survey, "query": cli.cmd_query}
    calls = []
    for argv in spec["calls"]:
        t0 = time.perf_counter()
        buf = io.StringIO()
        entry = {}
        try:
            args = cli.build_parser().parse_args(argv)
            cmd = commands[args.cmd]
            rc = tracer.op(cmd, args, buf) if tracer else cmd(args, buf)
            entry["rc"] = rc
        except (Exception, SystemExit) as exc:  # the CLI reports bad input by SystemExit
            entry["error"] = f"{type(exc).__name__}: {exc}"
        entry["s"] = time.perf_counter() - t0
        entry["out"] = buf.getvalue()
        calls.append(entry)

    rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                 resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    result = {"setup_s": setup_s, "calls": calls, "peak_rss_kb": rss_kb}
    if tracer is not None:
        result["trace"] = tracer.collect()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
