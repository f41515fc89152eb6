"""
The adlv benchmark: end-to-end and per-layer performance of the `adlv` CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --report [--seed N] [--seconds S] [--out FILE]

Run from the root of a checkout.  Each operation runs in a fresh interpreter
(bench/child.py) against the checkout's own `src/adlv`.  The first form runs
one workload for S seconds: with --trace 0 it reports the end-to-end metrics,
with --trace 1 the per-layer metrics of traced operations.  Every output is
checked against the committed reference in bench/reference; any mismatch
makes the run exit 1.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.

--report runs every workload untraced and traced, three times each in
turn, prints every metric by name and unit, the tracing overhead (median
over the three pairs) and any per-layer count that did not repeat between
the traced runs, and with --out writes it all to FILE as JSON.  bench/README.md describes the workloads and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
REFERENCE = os.path.join(BENCH, "reference")
POOL_FILE = os.path.join(REFERENCE, "query-pool.tsv")

SETUP_PER_OP = 6           # set-up children before each operation; the
                           # fastest of the run is reported
QUERIES_PER_PASS = 80      # a query-mix run makes two passes when they fit,
                           # so p90 has sixteen samples beyond it
RUN_LIMIT_S = 170          # every child is killed past this point of a run
TRACE_PAIRS = 3            # --report: untraced/traced run pairs per workload

QUERY_DATA = {"A2-SL": ("A", 2, "SL"), "C2": ("C", 2, ""),
              "G2": ("G", 2, ""), "GL3": ("GL", 3, "")}

WORKLOADS = {
    "survey-c2-sweep": {
        "data": [("C", 2, "")],
        "argv": ["survey", "--type", "C", "--rank", "2", "--class-key", "trivial",
                 "--max-len", "10", "--jobs", "1"],
        "fresh_cache": True,
    },
    "survey-a3-certify": {
        "data": [("A", 3, "")],
        "argv": ["survey", "--type", "A", "--rank", "3", "--class-key", "trivial",
                 "--max-len", "2", "--jobs", "2"],
        "fresh_cache": False,
    },
    "query-mix": {"data": list(QUERY_DATA.values())},
}

STATUSES = ("nonempty", "empty-certified", "empty-up-to-cutoff")

# Per-layer metrics.  Timed layers report .calls, .s (inclusive seconds,
# summed over processes), .self_s (minus the timed layers they call) and
# .share (.s over the operation's busy time in all processes).
TIMED_LAYERS = [
    "roots.semistandard_parabolics", "engine.emptiness_certificate",
    "sigma.levi_classes_with_newton", "cli.record_for", "cli.survey_elements",
    "engine.survey_batch", "engine.sweep_elements", "engine.solve",
    "engine.orbit_dim_table", "engine.fold_step", "cache.put", "cli.pool_map",
]
COUNTERS = [
    "affine.mul.calls", "affine.inv.calls", "affine.wall_data.calls",
    "affine.length.calls", "affine.reduced_word.calls", "alcoves.is_p_alcove.calls",
    "engine.orientation_profile.calls", "cache.get.calls", "engine.fold_entries",
    "engine.frontier_peak", "engine.sweep_w", "affine.elements",
    "cli.survey_worker.calls",
]
RATIOS = ["engine.certificate_hit_frac", "cache.hit_frac"]
OP_TIMES = ["cli.op.s", "cli.op.self_s", "cli.survey_worker.s"]


def per_layer_names():
    names = []
    for layer in TIMED_LAYERS:
        names += [layer + ".calls", layer + ".s", layer + ".self_s", layer + ".share"]
    return names + COUNTERS + RATIOS + OP_TIMES


def per_layer_unit(name):
    if name.endswith(".s") or name.endswith("_s"):
        return "s"
    if name.endswith(".share") or name.endswith("_frac"):
        return "fraction"
    return "count"


# ---------------------------------------------------------------------------
# inputs


def load_pool():
    """The committed query pool with each entry's reference answer."""
    with open(POOL_FILE, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [dict(zip(header, line.rstrip("\n").split("\t"))) for line in fh]
    return rows


def query_argv(row):
    ctype, rank, variant = QUERY_DATA[row["data"]]
    argv = ["query", "--type", ctype, "--rank", str(rank)]
    if variant:
        argv += ["--variant", variant]
    return argv + ["--class-key", row["class_key"], "--x", row["x"]]


def draw_queries(pool, rng, n=QUERIES_PER_PASS):
    """
    n pool entries drawn with rng, one from each of n equal bins of the
    pool sorted by root datum and then by a work estimate: the number of w
    the sweep visits (0 when a certificate decides the query) times
    ell(x) + 1 fold steps.  Every seed thus asks the same mix of cheap and
    expensive queries.
    """
    def cost_key(row):
        return (row["data"], int(row["sweep"]) * (int(row["length"]) + 1),
                row["class_key"], row["x"])

    ordered = sorted(pool, key=cost_key)
    picked = []
    for i in range(n):
        lo, hi = i * len(ordered) // n, (i + 1) * len(ordered) // n
        picked.append(ordered[rng.randrange(lo, hi)])
    rng.shuffle(picked)
    return picked


# ---------------------------------------------------------------------------
# running children


def child_env():
    # the child also runs with -E, which ignores the PYTHON* variables
    return {k: v for k, v in os.environ.items() if k != "ADLV_CACHE_DIR"}


def run_child(work, data, calls, trace, deadline):
    """Run one operation in a fresh interpreter; returns its result dict."""
    stats = tempfile.mkdtemp(prefix="op-", dir=work)
    spec_path = os.path.join(stats, "spec.json")
    result_path = os.path.join(stats, "result.json")
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump({"src": SRC, "data": data, "calls": calls, "trace": trace,
                   "work": stats}, fh)
    cmd = [sys.executable, "-E", "-s", os.path.join(BENCH, "child.py"),
           spec_path, result_path]
    # a session of its own, so that a timeout also stops forked workers
    proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), start_new_session=True,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    try:
        _, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise RuntimeError("operation timed out")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)   # stray workers, if any
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise RuntimeError("operation exited %d: %s"
                           % (proc.returncode, err.decode(errors="replace")[-2000:]))
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# correctness


def check_survey(out, ref_text):
    """Number of reference records not reproduced byte for byte."""
    ref = ref_text.splitlines()
    got = out.splitlines()
    bad = sum(1 for i, line in enumerate(ref) if i >= len(got) or got[i] != line)
    if bad == 0 and (len(got) != len(ref) or out != ref_text):
        bad = 1
    return min(bad, len(ref) - 1)


def query_invariant_errors(text):
    try:
        rec = json.loads(text)
        comp = rec["computed"]
    except (ValueError, KeyError, TypeError):
        return ["output is not a query record"]
    errs = []
    if comp.get("status") not in STATUSES:
        errs.append("illegal status %r" % comp.get("status"))
    if comp.get("status") == "nonempty":
        if not isinstance(comp.get("dim"), int) or comp["dim"] < 0:
            errs.append("nonempty without an integer dim >= 0")
        if not comp.get("witness_w"):
            errs.append("nonempty without a witness")
    for flag in ("agree_shrunken", "agree_levi"):
        if rec.get(flag) is False:
            errs.append(flag + " is false")
    return errs


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def check_query(call, row):
    """List of problems with one query call against its pool entry."""
    if "error" in call:
        return [call["error"]]
    errs = query_invariant_errors(call["out"])
    if call.get("rc") != 0:
        errs.append("exit code %r" % call.get("rc"))
    if digest(call["out"]) != row["sha256_16"]:
        errs.append("output differs from the reference")
    return errs


# ---------------------------------------------------------------------------
# one workload


def percentile(xs, q):
    """Linear interpolation between closest ranks (q in [0, 1])."""
    xs = sorted(xs)
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def layer_values(trace):
    timers = trace["timers"]
    counts = trace["counts"]

    def t(name, i):
        return timers.get(name, [0, 0.0, 0.0])[i]

    busy = t("cli.op", 1) - t("cli.pool_map", 1) + t("cli.survey_worker", 1)
    vals = {}
    for layer in TIMED_LAYERS:
        vals[layer + ".calls"] = t(layer, 0)
        vals[layer + ".s"] = t(layer, 1)
        vals[layer + ".self_s"] = t(layer, 2)
        vals[layer + ".share"] = t(layer, 1) / busy if busy > 0 else 0.0
    for name in COUNTERS:
        if name == "engine.frontier_peak":
            vals[name] = trace["frontier_peak"]
        elif name == "affine.elements":
            vals[name] = trace["elements"]
        elif name == "cli.survey_worker.calls":
            vals[name] = t("cli.survey_worker", 0)
        else:
            vals[name] = counts.get(name[: -len(".calls")] if name.endswith(".calls")
                                    else name, 0)
    cert_calls = t("engine.emptiness_certificate", 0)
    vals["engine.certificate_hit_frac"] = (
        counts.get("engine.emptiness_certificate.hits", 0) / cert_calls
        if cert_calls else 0.0)
    gets = counts.get("cache.get", 0)
    vals["cache.hit_frac"] = counts.get("cache.get.hits", 0) / gets if gets else 0.0
    vals["cli.op.s"] = t("cli.op", 1)
    vals["cli.op.self_s"] = t("cli.op", 2)
    vals["cli.survey_worker.s"] = t("cli.survey_worker", 1)
    return vals


def is_count(name):
    return per_layer_unit(name) == "count"


def run_workload(name, seed, seconds, trace, log=sys.stderr):
    """Run one workload; returns (summary dict, per-op layer values, spans)."""
    if not os.path.isfile(os.path.join(SRC, "adlv", "__init__.py")):
        raise FileNotFoundError(f"no adlv package under {SRC}")
    wl = WORKLOADS[name]
    data = [list(d) for d in wl["data"]]
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    work = tempfile.mkdtemp(prefix="run-", dir=os.path.join(ROOT, ".bench_work"))
    try:
        if name == "query-mix":
            pool = load_pool()
            rng = random.Random(seed)
            ref_text = None
        else:
            with open(os.path.join(REFERENCE, name + ".jsonl"), encoding="utf-8") as fh:
                ref_text = fh.read()

        # set-up: import adlv and build the root data and affine contexts.
        # This child writes the bytecode caches and is not counted.
        run_child(work, data, [], False, deadline)

        setups, latencies, op_times, layers, spans = [], [], [], [], []
        attempted = failed = decided = undecided = 0
        decided_s = 0.0
        peak_kb = 0
        start = time.monotonic()
        while True:
            iter_start = time.monotonic()
            # set-up samples are spread over the run, so that they see the
            # machine in the same states as the operations do
            setups += [run_child(work, data, [], False, deadline)["setup_s"]
                       for _ in range(SETUP_PER_OP)]
            if name == "query-mix":
                # each pass draws new queries, before its child starts
                rows = draw_queries(pool, rng)
                op_calls = [query_argv(r) for r in rows]
            else:
                op_calls = [list(wl["argv"])]
                if wl["fresh_cache"]:
                    op_calls[0] += ["--cache-dir", tempfile.mkdtemp(prefix="cache-", dir=work)]
            res = run_child(work, data, op_calls, bool(trace), deadline)
            peak_kb = max(peak_kb, res["peak_rss_kb"])
            op_times.append(sum(c["s"] for c in res["calls"]))
            for i, call in enumerate(res["calls"]):
                latencies.append(call["s"])
                decided_s += call["s"]
                if name == "query-mix":
                    errs = check_query(call, rows[i])
                    attempted += 1
                    decided += 1
                    failed += bool(errs)
                    undecided += rows[i]["status"] == "empty-up-to-cutoff"
                    for e in errs:
                        print(f"bench: FAIL {' '.join(op_calls[i])}: {e}", file=log)
                else:
                    n = ref_text.count("\n") - 1
                    bad = n if "error" in call else check_survey(call["out"], ref_text)
                    attempted += n
                    decided += n
                    failed += bad
                    undecided += ref_text.count('"status": "empty-up-to-cutoff"')
                    if bad:
                        print(f"bench: FAIL {name}: {call.get('error') or '%d records differ from the reference' % bad}",
                              file=log)
            if trace:
                layers.append(layer_values(res["trace"]))
                if not spans:
                    spans = res["trace"]["spans"]
            # stop when one more operation would end further past the
            # measuring time than the run now falls short of it.  query-mix
            # makes a second pass unless it would not end before the time
            # limit, so that a slow program still reports its figures.
            iter_wall = time.monotonic() - iter_start
            enough = (name != "query-mix" or len(op_times) >= 2
                      or time.monotonic() + 1.25 * iter_wall >= deadline)
            if enough and time.monotonic() - start + iter_wall / 2 >= seconds:
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass    # another run still uses it

    summary = {
        "workload": name, "seed": seed, "ops": len(op_times),
        "attempted": attempted, "failed": failed, "decided": decided,
        "metrics": {
            "setup_s": min(setups),
            "decided_per_s": decided / decided_s,
            "latency_p50_s": statistics.median(latencies),
            "latency_p90_s": percentile(latencies, 0.9),
            "peak_rss_mb": peak_kb / 1024.0,
        },
        "samples": len(latencies),
        "op_s_median": statistics.median(op_times),
        "failed_frac": failed / attempted,
        "undecided_frac": undecided / attempted,
    }
    return summary, layers, spans


def merge_layers(name, layers, log=sys.stderr):
    """
    Counts from the first traced operation, times as medians over all.  The
    operations of a survey run repeat one input, so their counts must agree;
    query-mix passes draw different queries.
    """
    out = {}
    unstable = []
    for key in per_layer_names():
        vals = [lv[key] for lv in layers]
        if is_count(key):
            out[key] = vals[0]
            if name != "query-mix" and any(v != vals[0] for v in vals):
                unstable.append(key)
        else:
            out[key] = statistics.median(vals)
    for key in unstable:
        print(f"bench: count {key} differs between traced operations: "
              f"{[lv[key] for lv in layers]}", file=log)
    return out, unstable


E2E_UNITS = {"setup_s": "s", "decided_per_s": "1/s", "latency_p50_s": "s",
             "latency_p90_s": "s", "peak_rss_mb": "MB"}


def contract_run(args):
    summary, layers, spans = run_workload(args.workload, args.seed, args.seconds,
                                          args.trace)
    if args.trace:
        values, _ = merge_layers(args.workload, layers)
        metrics = {k: {"value": values[k], "unit": per_layer_unit(k)}
                   for k in per_layer_names()}
        os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
        path = os.path.join(ROOT, ".bench_out",
                            f"{args.workload}-seed{args.seed}-spans.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"columns": ["id", "parent", "name", "start", "end"],
                       "spans": spans}, fh)
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]}
                   for k, v in summary["metrics"].items()}
    print(f"workload {summary['workload']} seed {summary['seed']}: "
          f"{summary['ops']} operations, {summary['samples']} latency samples")
    for k, m in metrics.items():
        print(f"{k} {m['value']!r} {m['unit']}")
    print(f"failed_frac {summary['failed_frac']!r} fraction")
    print(f"undecided_frac {summary['undecided_frac']!r} fraction")
    correct = summary["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": summary["attempted"],
                      "failed": summary["failed"], "metrics": metrics}))
    return 0 if correct else 1


def report(args):
    """Every metric of every workload, tracing overhead and count stability."""
    out = {
        "machine": {"nproc": os.cpu_count(), "python": platform.python_version(),
                    "implementation": platform.python_implementation(),
                    "platform": platform.platform()},
        "seed": args.seed, "seconds": args.seconds, "trace_pairs": TRACE_PAIRS,
        "workloads": {},
    }
    ok = True
    for name in WORKLOADS:
        # untraced and traced runs alternate, so that each pair sees the
        # machine in about the same state
        plain, traced = [], []
        for _ in range(TRACE_PAIRS):
            plain.append(run_workload(name, args.seed, args.seconds, 0)[0])
            summary, layers, _ = run_workload(name, args.seed, args.seconds, 1)
            ok = ok and summary["failed"] == 0
            traced.append(merge_layers(name, layers))
        first = traced[0][0]
        unstable = sorted({k for values, unstable_in_run in traced
                           for k in unstable_in_run} |
                          {k for values, _ in traced for k in first
                           if is_count(k) and values[k] != first[k]})
        overheads = [values["cli.op.s"] / p["op_s_median"] - 1
                     for p, (values, _) in zip(plain, traced)]
        overhead = statistics.median(overheads)
        ok = ok and all(p["failed"] == 0 for p in plain)
        attempted = sum(p["attempted"] for p in plain)
        entry = {
            "end_to_end": {k: {"value": statistics.median(p["metrics"][k] for p in plain),
                               "unit": E2E_UNITS[k]}
                           for k in E2E_UNITS},
            "failed_frac": sum(p["failed"] for p in plain) / attempted,
            "undecided_frac": statistics.median(p["undecided_frac"] for p in plain),
            "attempted": attempted,
            "latency_samples": sum(p["samples"] for p in plain),
            "trace_overhead_frac": overhead,
            "trace_overhead_fracs": overheads,
            "per_layer": {k: {"value": first[k], "unit": per_layer_unit(k)}
                          for k in per_layer_names()},
            "unstable_counts": unstable,
        }
        out["workloads"][name] = entry
        print(f"== {name} (seed {args.seed}, {TRACE_PAIRS} untraced and "
              f"{TRACE_PAIRS} traced runs; end-to-end values are medians over "
              f"the untraced runs, per-layer values from the first traced run)")
        for k, m in entry["end_to_end"].items():
            print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
        print(f"  {'failed_frac':40s} {entry['failed_frac']:.6g} fraction")
        print(f"  {'undecided_frac':40s} {entry['undecided_frac']:.6g} fraction")
        print(f"  {'trace_overhead_frac':40s} {overhead:.6g} fraction "
              f"(median of {', '.join('%.3f' % o for o in overheads)})")
        for k, m in entry["per_layer"].items():
            print(f"  {k:40s} {m['value']:.6g} {m['unit']}")
        print(f"  counts repeat exactly between {TRACE_PAIRS} traced runs" if not unstable
              else "  UNSTABLE counts: " + ", ".join(unstable))
        sys.stdout.flush()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(out, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--report", action="store_true")
    ap.add_argument("--out", default=None, help="with --report: write JSON here")
    args = ap.parse_args(argv)
    if args.report == bool(args.workload):
        ap.error("give exactly one of --workload and --report")
    # on SIGTERM, unwind through run_child's cleanup so no child outlives us
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return report(args) if args.report else contract_run(args)
    except (OSError, RuntimeError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
