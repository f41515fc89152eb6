"""
Record the benchmark's reference outputs from the current `src/adlv`.

    python3 bench/make_reference.py

Writes bench/reference/<survey workload>.jsonl (the survey's exact output)
and bench/reference/query-pool.tsv: every (x, class) with ell(x) <= 6 in the
component of a class of slope bound <= 4 on A2 (SL), C2, G2 and GL3, with
its cutoff, sweep size (0 when a certificate decides it), status, dimension
and a SHA-256 prefix of its `adlv query` output.  The
committed files were recorded from the code the benchmark was introduced
with; re-record only when a change of output is intended.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor

import run

POOL_SLOPE_BOUND = 4
POOL_MAX_LEN = 6


def enumerate_pool():
    """
    The pool entries with their default cutoff and the number of w a sweep
    up to that cutoff visits (the work estimate that run.draw_queries sorts by).
    """
    sys.path.insert(0, run.SRC)
    from adlv import affine_context, build_root_datum, cli, enumerate_classes
    from adlv.engine import default_cutoff, omega_window, sweep_elements
    from adlv.sigma import standard_representative
    rows = []
    sweeps = {}
    for label, spec in run.QUERY_DATA.items():
        ctx = affine_context(build_root_datum(*spec))
        for cls in enumerate_classes(ctx, POOL_SLOPE_BOUND):
            b = standard_representative(ctx, cls)
            for x in cli.survey_elements(ctx, cls, POOL_MAX_LEN):
                cutoff = default_cutoff(ctx, x, cls)
                omegas = omega_window(ctx, cls, [x, b])
                key = (label, cutoff, tuple(sorted(omegas)))
                if key not in sweeps:
                    sweeps[key] = len(sweep_elements(ctx, cutoff, omegas))
                rows.append({"data": label, "class_key": cls.key(),
                             "x": ctx.format(x), "length": str(ctx.length(x)),
                             "cutoff": str(cutoff), "sweep": str(sweeps[key])})
    return rows


def main():
    jobs = os.cpu_count() or 1
    os.makedirs(run.REFERENCE, exist_ok=True)
    os.makedirs(os.path.join(run.ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="ref-", dir=os.path.join(run.ROOT, ".bench_work"))
    deadline = time.monotonic() + 10 ** 6

    for name, wl in run.WORKLOADS.items():
        if "argv" not in wl:
            continue
        argv = list(wl["argv"])
        if wl["fresh_cache"]:
            argv += ["--cache-dir", tempfile.mkdtemp(prefix="cache-", dir=work)]
        res = run.run_child(work, [list(d) for d in wl["data"]], [argv], False, deadline)
        call = res["calls"][0]
        if "error" in call:
            raise SystemExit(f"{name}: {call['error']}")
        with open(os.path.join(run.REFERENCE, name + ".jsonl"), "w", encoding="utf-8") as fh:
            fh.write(call["out"])
        print(f"{name}: {call['out'].count(chr(10)) - 1} records, {call['s']:.1f} s")

    rows = enumerate_pool()
    chunks = [rows[i::jobs * 4] for i in range(jobs * 4)]
    data = [list(d) for d in run.QUERY_DATA.values()]

    def answer(chunk):
        res = run.run_child(work, data, [run.query_argv(r) for r in chunk], False,
                            deadline)
        for row, call in zip(chunk, res["calls"]):
            errs = run.query_invariant_errors(call["out"]) if "error" not in call \
                else [call["error"]]
            if errs:
                raise SystemExit(f"{run.query_argv(row)}: {errs}")
            comp = json.loads(call["out"])["computed"]
            if str(comp["cutoff"]) != row["cutoff"]:
                raise SystemExit(f"{run.query_argv(row)}: cutoff {comp['cutoff']}")
            row["status"] = comp["status"]
            if comp["status"] == "empty-certified":
                row["sweep"] = "0"
            row["dim"] = "" if comp["dim"] is None else str(comp["dim"])
            row["sha256_16"] = run.digest(call["out"])

    with ThreadPoolExecutor(jobs) as ex:
        for fut in [ex.submit(answer, ch) for ch in chunks]:
            fut.result()
    cols = ["data", "class_key", "x", "length", "cutoff", "sweep", "status", "dim",
            "sha256_16"]
    with open(run.POOL_FILE, "w", encoding="utf-8") as fh:
        fh.write("\t".join(cols) + "\n")
        for row in rows:
            fh.write("\t".join(row[c] for c in cols) + "\n")
    counts = {}
    for row in rows:
        counts[row["status"]] = counts.get(row["status"], 0) + 1
    print(f"query pool: {len(rows)} entries {counts}")
    shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    main()
