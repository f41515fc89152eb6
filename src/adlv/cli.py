"""
Command-line front end.

Subcommands:

  classes   print the catalog of sigma-conjugacy classes up to a slope bound
  query     decide one X_x(b), with certificates and predictions
  survey    sweep all x up to a length bound in the class's component,
            comparing the computed status against the predictions
  figure    rank-2 SVG/TSV picture of the emptiness/dimension pattern

Exit codes: 0 = ran, 1 = usage error, bad input or a path that cannot be
used (one "adlv: ..." line on stderr), 2 = a disagreement was found in
--check mode.

query, survey and figure take --cache-dir (default $ADLV_CACHE_DIR).  survey
and figure share one driver, survey_results: the same x, the same default
cutoff and the same cache entries.  A result is turned into JSON once, by
AdlvResult.to_json, where it is decided: with --jobs above 1, a certified x
in the parent, which prepares the survey before it forks, and a walked x in
its forked worker.  Cache hits and worker results are used as JSON from
there on.  survey runs in one process by default (--jobs 1): the workers
split only the fold walk, a small part of a survey, and forking them cost
more than it saved on A4 surveys to length 6 and 7.

JSON output schema (version 1).  Survey records and query output carry:
x, length, shrunken, eta1, eta2, class_key, computed {status, dim,
witness_w, cutoff, certificates}, predicted_shrunken {status, dim} | null,
predicted_levi {status} | null, agree_shrunken, agree_levi (null = not
applicable or undecided).  For a basic class the emptiness certificate is
the Levi obstruction that predicted_levi reads, so agree_levi is true for
every decided x by construction; the conjectural half of that rule (no
obstruction => non-empty) shows only as undecided x, and --check can exit 2
only through agree_shrunken.  Queries add schema_version, the order flag
bruhat_geq_some_conjugate, p_alcove_for_proper_parabolic, and with
--explain a p_alcove_reports list with per-parabolic violation rows.  The
survey summary line carries schema_version, counts and disagreement
totals.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import nullcontext
from fractions import Fraction

from . import engine as eng
from . import sigma as sg
from .affine import affine_context
from .alcoves import eta1, eta2, is_shrunken
from .cache import CacheStore, cache_key
from .roots import build_root_datum, semistandard_parabolics, standard_parabolic

SCHEMA_VERSION = 1


def build_parser():
    ap = argparse.ArgumentParser(prog="adlv", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    def common(p, with_class=True):
        p.add_argument("--type", required=True, help="Cartan type: A, B, C, D, G, GL")
        p.add_argument("--rank", required=True, type=int)
        p.add_argument("--variant", default="", help="lattice variant (default: adjoint/GL)")
        if with_class:
            p.add_argument("--class-key", dest="class_key", required=True,
                           help='e.g. "nu=[1,-1/2,-1/2];kappa=[0,0,0]", or "trivial"')
            p.add_argument("--cache-dir", default=os.environ.get("ADLV_CACHE_DIR"))

    p = sub.add_parser("classes", help="catalog of classes up to a slope bound")
    common(p, with_class=False)
    p.add_argument("--bound", type=int, required=True,
                   help="max pairing of the Newton point against 2rho")
    p.add_argument("--format", choices=("json", "tsv"), default="json")

    p = sub.add_parser("query", help="decide one affine Deligne-Lusztig variety")
    common(p)
    p.add_argument("--x", required=True, help='element, e.g. "t[3,1,-4]*s1*s2*s1" or "s0*s1*s2"')
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--explain", action="store_true",
                   help="include per-parabolic P-alcove reports with witness rows")

    p = sub.add_parser("survey", help="length-bounded survey with predictions")
    common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--jobs", type=int, default=1,
                   help="forked worker processes for the fold walk (default: 1)")
    p.add_argument("--format", choices=("json", "tsv"), default="json")
    p.add_argument("--check", action="store_true",
                   help="exit 2 when the computed results contradict a prediction")
    p.add_argument("--out", default=None, help="write records here instead of stdout")

    p = sub.add_parser("figure", help="rank-2 SVG picture")
    common(p)
    p.add_argument("--max-len", type=int, required=True)
    p.add_argument("--cutoff", type=int, default=None)
    p.add_argument("--out", required=True, help="SVG output path")
    p.add_argument("--tsv", default=None, help="optional TSV twin")
    return ap


def parse_class_key(ctx, text: str):
    datum = ctx.datum
    if text.strip() in ("trivial", "1", "one"):
        return sg.classify(ctx, ctx.identity)
    try:
        parts = dict(kv.split("=", 1) for kv in text.split(";"))
        nu = tuple(Fraction(v) for v in parts["nu"].strip("[]").split(","))
        kappa = tuple(int(v) for v in parts["kappa"].strip("[]").split(","))
        if len(nu) != datum.d or len(kappa) != datum.lambda_g.d:
            raise ValueError(f"nu needs {datum.d} coordinates and kappa "
                             f"{datum.lambda_g.d}")
        return sg.class_from_invariants(datum, nu, kappa)
    except (KeyError, ValueError, ZeroDivisionError) as exc:
        raise SystemExit(f"adlv: cannot parse class key {text!r}: {exc}")


def _datum(args):
    """The root datum named by --type, --rank and --variant."""
    try:
        return build_root_datum(args.type, args.rank, args.variant)
    except ValueError as exc:
        raise SystemExit(f"adlv: {exc}")


def class_row(ctx, cls):
    datum = ctx.datum
    rep = sg.standard_representative(ctx, cls)
    fund, fp = sg.fundamental_representative(ctx, cls)
    return {
        "key": cls.key(),
        "newton": [str(v) for v in cls.newton],
        "kappa": list(cls.kappa),
        "home_levi_simple_roots": sorted(
            datum.simple_idx.index(i) + 1 for i in cls.home_simple),
        "basic": sg.is_basic(datum, cls),
        "defect": sg.defect(ctx, cls),
        "standard_rep": ctx.format(rep),
        "fundamental_rep": ctx.format(fund),
        "fundamental_parabolic": {"conjugator": datum.weyl.words[fp.u],
                                  "levi": sorted(datum.simple_idx.index(i) + 1
                                                 for i in fp.levi_simple)},
    }


def cmd_classes(args, out=sys.stdout):
    datum = _datum(args)
    ctx = affine_context(datum)
    classes = sg.enumerate_classes(ctx, args.bound)
    seen = set()
    for c in classes:
        pair = (c.newton, c.kappa)
        if pair in seen:
            raise RuntimeError(f"duplicate (newton, kappa) pair in class {c.key()}")
        seen.add(pair)
    rows = [class_row(ctx, c) for c in classes]
    if args.format == "json":
        json.dump({"datum": datum.json_descriptor(), "bound": args.bound,
                   "classes": rows}, out, indent=1)
        out.write("\n")
    else:
        out.write("key\tbasic\tdefect\tstandard_rep\tfundamental_rep\n")
        for r in rows:
            out.write("%s\t%d\t%d\t%s\t%s\n" % (r["key"], r["basic"], r["defect"],
                                                r["standard_rep"], r["fundamental_rep"]))
    return 0


def record_for(ctx, cls, xid, computed):
    """
    The survey and query record of x; computed is AdlvResult.to_json.  For a
    basic class predicted_levi is read off computed: the emptiness
    certificate of the sweep is necessary_condition, the test that
    engine.predict_levi makes, so the prediction is "empty" iff computed
    carries a certificate.  Certificates do not depend on the cutoff, and
    cached results carry them, so warm and cold records are equal.
    """
    datum = ctx.datum
    basic = sg.is_basic(datum, cls)
    rec = {
        "x": ctx.format(xid),
        "length": ctx.length(xid),
        "shrunken": is_shrunken(ctx, xid),
        "eta1": _wname(datum, eta1(ctx, xid)),
        "eta2": _wname(datum, eta2(ctx, xid)),
        "class_key": cls.key(),
        "computed": computed,
        "predicted_shrunken": None,
        "predicted_levi": None,
        "agree_shrunken": None,
        "agree_levi": None,
    }
    if basic:
        status = "empty" if computed["certificates"] else "nonempty-predicted"
        rec["predicted_levi"] = {"status": status}
        if computed["status"] == "nonempty":
            rec["agree_levi"] = status == "nonempty-predicted"
        elif computed["status"] == "empty-certified":
            rec["agree_levi"] = status == "empty"
        # empty-up-to-cutoff stays None: logged, never a disagreement
        if rec["shrunken"]:
            pstat, pdim = eng.predict_shrunken(ctx, xid, cls)
            rec["predicted_shrunken"] = {"status": pstat, "dim": pdim}
            if computed["status"] == "nonempty":
                rec["agree_shrunken"] = (pstat == "nonempty" and pdim == computed["dim"])
            elif computed["status"] == "empty-certified":
                rec["agree_shrunken"] = pstat == "empty"
    return rec


def _wname(datum, w):
    word = datum.weyl.words[w]
    return "*".join("s%d" % (i + 1) for i in word) if word else "e"


def cmd_query(args, out=sys.stdout):
    datum = _datum(args)
    ctx = affine_context(datum)
    cls = parse_class_key(ctx, args.class_key)
    try:
        xid = ctx.parse(args.x)
    except ValueError as exc:
        raise SystemExit(f"adlv: cannot parse element {args.x!r}: {exc}")
    cutoff = args.cutoff if args.cutoff is not None else eng.default_cutoff(ctx, xid, cls)
    with CacheStore(args.cache_dir) as store:
        key = _solve_key(ctx, cls, xid, cutoff)
        computed = store.get(key)
        if computed is None:
            computed = eng.solve(ctx, xid, cls, cutoff).to_json(ctx)
            store.put(key, computed)
    rec = record_for(ctx, cls, xid, _in_result_order(computed))
    rec["schema_version"] = SCHEMA_VERSION
    rec["bruhat_geq_some_conjugate"] = _bruhat_flag(ctx, cls, xid)
    rec["p_alcove_for_proper_parabolic"] = next(eng.p_alcove_parabolics(ctx, xid),
                                                None) is not None
    if args.explain:
        rec["p_alcove_reports"] = _p_alcove_reports(ctx, xid)
    json.dump(rec, out, indent=1)
    out.write("\n")
    return 0


def _solve_key(ctx, cls, xid, cutoff):
    """The cache key of one solve result; shared by query, survey and figure."""
    return cache_key(ctx.datum.json_descriptor(), "solve",
                     {"x": ctx.format(xid), "class": cls.key(), "cutoff": cutoff})


def _in_result_order(computed):
    """
    computed with its keys in the order AdlvResult.to_json writes them.  The
    cache stores them sorted, and a warm query prints the bytes of a cold one.
    """
    certs = [{k: c[k] for k in ("kind", "parabolic", "detail")}
             for c in computed["certificates"]]
    return {**{k: computed[k] for k in ("status", "dim", "witness_w", "cutoff")},
            "certificates": certs}


def _p_alcove_reports(ctx, xid):
    from .alcoves import is_p_alcove
    datum = ctx.datum
    rows = []
    for p in semistandard_parabolics(datum):
        rep = is_p_alcove(ctx, xid, p)
        entry = {"conjugator": _wname(datum, p.u),
                 "levi": sorted(datum.simple_idx.index(i) + 1 for i in p.levi_simple),
                 "verdict": rep.verdict}
        if not rep.verdict and rep.witnesses and rep.witnesses[0][1] is not None:
            entry["violations"] = rep.rows_json(datum)
        rows.append(entry)
    return rows


def _bruhat_flag(ctx, cls, xid):
    """Is x >= some finite conjugate of the standard representative?"""
    datum = ctx.datum
    b = sg.standard_representative(ctx, cls)
    for u in datum.weyl.elements():
        g = ctx.intern((0,) * datum.d, u)
        if ctx.bruhat_leq(ctx.conj(g, b), xid):
            return True
    return False


def survey_elements(ctx, cls, max_len):
    """
    All x with ell <= max_len in the component of the class, sorted: the u *
    tau over the ball of W_a, for the one tau of Omega_G with eta_G(tau) =
    kappa of the class.
    """
    datum = ctx.datum
    tau = ctx.omega_element(standard_parabolic(datum, frozenset(datum.simple_idx)), cls.kappa)
    return eng.sweep_elements(ctx, max_len, [tau])


# (ctx, batch) of the survey whose forked workers are running, batch from
# engine.prepare_batch: set just before the fork, so that every worker
# inherits it
_survey_state = None


def _survey_worker(chunk):
    """Walk a chunk of the pending x of the prepared batch; {x: computed}."""
    ctx, batch = _survey_state
    return {x: r.to_json(ctx) for x, r in eng.walk_batch(ctx, batch, chunk).items()}


def fork_map(fn, chunks):
    """
    [fn(chunk) for chunk in chunks], each call in a child forked from this
    process, so that it inherits everything built before the fork.  A child
    sends its result, or the exception it raised, pickled through a pipe, and
    ends in os._exit, so that it never returns into the caller and never
    flushes the stdio buffers it inherited.  The parent re-raises a child's
    exception, raises RuntimeError naming the wait status of a child that
    ended without a result, and on any exception kills and reaps every child
    it has not reaped yet.
    """
    # imported here, so that no other path pays for them at start-up
    import pickle
    import signal
    children = []   # (pid, read end of its pipe), in chunk order
    try:
        for chunk in chunks:
            r, w = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(r)
                os.close(w)
                raise
            if pid == 0:
                code = 1
                try:
                    os.close(r)
                    try:
                        out = True, fn(chunk)
                    except BaseException as exc:  # re-raised by the parent
                        out = False, exc
                    with os.fdopen(w, "wb") as fh:
                        fh.write(pickle.dumps(out))
                    code = 0
                finally:
                    os._exit(code)
            # closed before the next fork, so that only this child holds the
            # write end and the parent reads to its end of file
            os.close(w)
            children.append((pid, os.fdopen(r, "rb")))
        results = []
        while children:
            pid, fh = children[0]
            with fh:
                data = fh.read()
            status = os.waitpid(pid, 0)[1]
            del children[0]
            if not data:
                raise RuntimeError(f"survey worker {pid} ended without a result "
                                   f"(wait status {status})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            results.append(value)
        return results
    finally:
        for pid, fh in children:
            fh.close()
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def survey_results(ctx, cls, max_len, cutoff, store, jobs):
    """
    (xs, cutoff, {x: computed}) for the survey of the class up to max_len:
    the cutoff defaults to max_len + 2h (h the Coxeter number), the records
    come from the store when it holds them and go into it when computed.
    With jobs > 1 this process prepares the uncached x once
    (engine.prepare_batch: the certificates, the kept ball and its wall
    groups) and turns the certified ones into JSON; forked workers then
    split only the walk of the others, each turning its own into JSON.
    """
    global _survey_state
    xs = survey_elements(ctx, cls, max_len)
    if cutoff is None:
        cutoff = max_len + 2 * eng.coxeter_number(ctx.datum)
    results = {}
    # the uncached x, with their cache keys for the write once decided
    todo, keys = [], []
    for x in xs:
        key = _solve_key(ctx, cls, x, cutoff)
        cached = store.get(key)
        if cached is not None:
            results[x] = cached
        else:
            todo.append(x)
            keys.append(key)
    if jobs > 1 and len(todo) > 8:
        batch = eng.prepare_batch(ctx, cls, todo, cutoff)
        for x, r in batch.certified.items():
            results[x] = r.to_json(ctx)
        pending = list(batch.words)
        chunks = [ch for ch in (pending[i::jobs] for i in range(jobs)) if ch]
        _survey_state = (ctx, batch)
        try:
            for part in fork_map(_survey_worker, chunks):
                results.update(part)
        finally:
            _survey_state = None
    elif todo:
        for x, r in eng.survey_batch(ctx, cls, todo, cutoff).items():
            results[x] = r.to_json(ctx)
    for x, key in zip(todo, keys):
        store.put(key, results[x])
    return xs, cutoff, results


def cmd_survey(args, out=sys.stdout):
    datum = _datum(args)
    ctx = affine_context(datum)
    cls = parse_class_key(ctx, args.class_key)
    # open the sink first, so that a path that cannot be written fails
    # before the sweep; the sink and the store close on every exit
    with CacheStore(args.cache_dir) as store, \
            (open(args.out, "w", encoding="utf-8") if args.out else nullcontext(out)) as sink:
        xs, cutoff, results = survey_results(ctx, cls, args.max_len, args.cutoff,
                                             store, args.jobs)
        recs = [record_for(ctx, cls, x, results[x]) for x in xs]
        summary = {
            "schema_version": SCHEMA_VERSION,
            "datum": datum.json_descriptor(), "class": cls.key(),
            "max_len": args.max_len, "cutoff": cutoff, "count": len(recs),
            "nonempty": sum(1 for r in recs if r["computed"]["status"] == "nonempty"),
            "empty_certified": sum(1 for r in recs
                                   if r["computed"]["status"] == "empty-certified"),
            "undecided": sum(1 for r in recs
                             if r["computed"]["status"] == "empty-up-to-cutoff"),
            "disagree_shrunken": sum(1 for r in recs if r["agree_shrunken"] is False),
            "disagree_levi": sum(1 for r in recs if r["agree_levi"] is False),
        }
        if args.format == "json":
            for r in recs:
                sink.write(json.dumps(r, sort_keys=True) + "\n")
            sink.write(json.dumps({"summary": summary}, sort_keys=True) + "\n")
        else:
            from .figure import render_tsv
            sink.write(render_tsv(ctx, [(x, results[x]) for x in xs]))
    if args.check and (summary["disagree_shrunken"] or summary["disagree_levi"]):
        return 2
    return 0


def cmd_figure(args, out=sys.stdout):
    from .figure import drawing_basis, render_svg, render_tsv
    datum = _datum(args)
    try:
        drawing_basis(datum)
    except ValueError:
        raise SystemExit("adlv: figures need a rank-2 type (A2, B2, C2, G2)") from None
    ctx = affine_context(datum)
    cls = parse_class_key(ctx, args.class_key)
    store = CacheStore(args.cache_dir)
    # check that every output opens before the sweep, in append mode, so
    # that one bad path fails first and leaves the other file as it was; an
    # --out that this check created goes again
    new_out = not os.path.exists(args.out)
    try:
        for path in [args.out] + ([args.tsv] if args.tsv else []):
            open(path, "a", encoding="utf-8").close()
    except OSError:
        if new_out and os.path.exists(args.out):
            os.remove(args.out)
        raise
    with store:
        xs, _, results = survey_results(ctx, cls, args.max_len, args.cutoff, store, 1)
    rows = [(x, results[x]) for x in xs]
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(render_svg(ctx, rows))
    if args.tsv:
        with open(args.tsv, "w", encoding="utf-8") as fh:
            fh.write(render_tsv(ctx, rows))
    print(f"wrote {args.out}" + (f" and {args.tsv}" if args.tsv else ""), file=out)
    return 0


def main(argv=None):
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        # argparse uses exit code 2 for usage errors; our contract says 1
        raise SystemExit(1 if exc.code not in (0,) else 0)
    for name, low in (("cutoff", 0), ("max_len", 0), ("jobs", 1), ("bound", 0)):
        value = getattr(args, name, None)
        if value is not None and value < low:
            raise SystemExit(f"adlv: --{name.replace('_', '-')} must be at least "
                             f"{low}, not {value}")
    run = {"classes": cmd_classes, "query": cmd_query, "survey": cmd_survey,
           "figure": cmd_figure}[args.cmd]
    try:
        return run(args)
    except OSError as exc:
        # an --out, --tsv or --cache-dir path that cannot be used
        raise SystemExit(f"adlv: {exc}")


if __name__ == "__main__":
    sys.exit(main())
