import argparse
import ast
import gc
import importlib
import importlib.util
import io
import json
import os
import subprocess
import sys
import warnings

import pytest

from adlv import cli


def run_cli(argv):
    buf = io.StringIO()
    args = cli.build_parser().parse_args(argv)
    if args.cmd == "classes":
        code = cli.cmd_classes(args, out=buf)
    elif args.cmd == "query":
        code = cli.cmd_query(args, out=buf)
    elif args.cmd == "survey":
        code = cli.cmd_survey(args, out=buf)
    elif args.cmd == "figure":
        code = cli.cmd_figure(args, out=buf)
    return code, buf.getvalue()


def test_classes_catalog_sl2():
    code, out = run_cli(["classes", "--type", "A", "--rank", "1",
                         "--variant", "SL", "--bound", "2"])
    assert code == 0
    doc = json.loads(out)
    assert len(doc["classes"]) == 4
    basics = [c for c in doc["classes"] if c["basic"]]
    assert len(basics) == 2
    keys = {c["key"] for c in doc["classes"]}
    assert "nu=[1/2,-1/2];kappa=[0,1]" in keys


def test_classes_bound_zero_counts():
    code, out = run_cli(["classes", "--type", "C", "--rank", "2", "--bound", "0"])
    doc = json.loads(out)
    assert len(doc["classes"]) == 2  # |Lambda_G| rows


def test_query_example_94(tmp_path):
    code, out = run_cli([
        "query", "--type", "A", "--rank", "2", "--variant", "SL",
        "--x", "s0*s1*s2*s1*s0*s1*s2*s0*s1*s2*s0",
        "--class-key", "nu=[2,0,-2];kappa=[0,0,0]", "--cutoff", "8",
        "--cache-dir", str(tmp_path / "cache")])
    assert code == 0
    rec = json.loads(out)
    assert rec["x"] == "t[3,1,-4]*s1*s2*s1"
    assert rec["length"] == 11
    assert rec["computed"]["status"] == "empty-up-to-cutoff"
    assert rec["bruhat_geq_some_conjugate"] is True
    assert rec["p_alcove_for_proper_parabolic"] is False


def test_query_translation_nonempty():
    code, out = run_cli([
        "query", "--type", "A", "--rank", "2", "--variant", "SL",
        "--x", "t[1,0,-1]", "--class-key", "nu=[1,0,-1];kappa=[0,0,0]",
        "--cutoff", "6"])
    rec = json.loads(out)
    assert rec["computed"]["status"] == "nonempty"


def test_query_identity_trivial_class():
    code, out = run_cli([
        "query", "--type", "A", "--rank", "2", "--variant", "SL",
        "--x", "e", "--class-key", "trivial", "--cutoff", "2"])
    rec = json.loads(out)
    assert rec["computed"]["status"] == "nonempty"
    assert rec["computed"]["dim"] == 0
    assert rec["computed"]["witness_w"] == "e"


def survey_lines(argv):
    code, out = run_cli(argv)
    lines = [json.loads(l) for l in out.strip().splitlines()]
    summary = lines[-1]["summary"]
    return code, lines[:-1], summary


def test_survey_deterministic_and_checked(tmp_path):
    argv = ["survey", "--type", "C", "--rank", "2", "--class-key", "trivial",
            "--max-len", "5", "--cutoff", "7", "--check"]
    code1, recs1, sum1 = survey_lines(argv)
    code2, recs2, sum2 = survey_lines(argv)
    assert code1 == code2 == 0
    assert recs1 == recs2
    assert sum1 == sum2
    assert sum1["disagree_shrunken"] == 0 and sum1["disagree_levi"] == 0
    assert sum1["count"] == len(recs1)
    # deterministic order: by length then text
    lens = [r["length"] for r in recs1]
    assert lens == sorted(lens)


def test_survey_parallel_matches_serial():
    base = ["survey", "--type", "C", "--rank", "2", "--class-key", "trivial",
            "--max-len", "4", "--cutoff", "6"]
    _, recs1, sum1 = survey_lines(base)
    _, recs2, sum2 = survey_lines(base + ["--jobs", "2"])
    assert recs1 == recs2 and sum1 == sum2
    # infinite Lambda_G: the Omega-window of each x must not depend on which
    # x share its batch
    gl3 = ["survey", "--type", "GL", "--rank", "3",
           "--class-key", "nu=[1,0,0];kappa=[0,0,1]", "--max-len", "5"]
    _, out1 = run_cli(gl3 + ["--jobs", "1"])
    _, out2 = run_cli(gl3 + ["--jobs", "2"])
    assert out1 == out2
    # a basic class with a non-central b in Omega_G, whose workers walk the
    # members of the Omega-coset path
    a2 = ["survey", "--type", "A", "--rank", "2", "--variant", "SL",
          "--class-key", "nu=[0,0,0];kappa=[0,0,2]", "--max-len", "5"]
    _, out1 = run_cli(a2 + ["--jobs", "1"])
    _, out2 = run_cli(a2 + ["--jobs", "2"])
    assert out1 == out2 and '"nonempty"' in out1


def test_survey_cache_cold_vs_warm(tmp_path):
    cache = str(tmp_path / "c")
    argv = ["survey", "--type", "A", "--rank", "2", "--variant", "SL",
            "--class-key", "trivial", "--max-len", "4", "--cutoff", "6",
            "--cache-dir", cache]
    _, recs_cold, sum_cold = survey_lines(argv)
    assert os.path.exists(os.path.join(cache, "results.jsonl"))
    _, recs_warm, sum_warm = survey_lines(argv)
    assert recs_cold == recs_warm and sum_cold == sum_warm


def test_survey_partial_cache_matches_cold(tmp_path):
    cache = tmp_path / "c"
    argv = ["survey", "--type", "GL", "--rank", "3",
            "--class-key", "nu=[1,0,0];kappa=[0,0,1]", "--max-len", "4",
            "--jobs", "1", "--cache-dir", str(cache)]
    _, cold = run_cli(argv)
    path = cache / "results.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    assert len(lines) > 10
    path.write_text("".join(lines[::2]))
    _, partial = run_cli(argv)
    assert partial == cold
    _, warm = run_cli(argv)
    assert warm == cold


def test_figure_and_tsv_agree_with_survey(tmp_path):
    svg = tmp_path / "fig.svg"
    tsv = tmp_path / "fig.tsv"
    code, _ = run_cli(["figure", "--type", "C", "--rank", "2",
                       "--class-key", "trivial", "--max-len", "4",
                       "--cutoff", "6", "--out", str(svg), "--tsv", str(tsv)])
    assert code == 0
    body = svg.read_text()
    assert body.startswith("<svg") and "polygon" in body
    rows = [l.split("\t") for l in tsv.read_text().strip().splitlines()[1:]]
    _, recs, _ = survey_lines(["survey", "--type", "C", "--rank", "2",
                               "--class-key", "trivial", "--max-len", "4",
                               "--cutoff", "6"])
    by_x = {r["x"]: r for r in recs}
    assert len(rows) == len(recs)
    for x, ln, shr, status, dim in rows:
        rec = by_x[x]
        assert rec["length"] == int(ln)
        assert rec["computed"]["status"] == status
        want_dim = rec["computed"]["dim"]
        assert (dim == "" and want_dim is None) or int(dim) == want_dim


def test_figure_dims_match_shrunken_formula(tmp_path):
    # the printed dimensions on shrunken alcoves follow the chamber rule
    from adlv import engine as eng
    from adlv import sigma as sg
    from adlv.affine import affine_context
    from adlv.roots import build_root_datum
    tsv = tmp_path / "c2.tsv"
    run_cli(["figure", "--type", "C", "--rank", "2", "--class-key", "trivial",
             "--max-len", "8", "--cutoff", "10",
             "--out", str(tmp_path / "c2.svg"), "--tsv", str(tsv)])
    ctx = affine_context(build_root_datum("C", 2, "adjoint"))
    cls = sg.classify(ctx, ctx.identity)
    count = 0
    for line in tsv.read_text().strip().splitlines()[1:]:
        xtext, _ln, shr, status, dim = line.split("\t")
        if shr != "1":
            continue
        x = ctx.parse(xtext)
        pstat, pdim = eng.predict_shrunken(ctx, x, cls)
        if pstat == "empty":
            assert status == "empty-certified"
        else:
            assert status == "nonempty" and int(dim) == pdim
        count += 1
    assert count >= 20


def test_figure_rejects_higher_rank(tmp_path):
    with pytest.raises(SystemExit):
        run_cli(["figure", "--type", "A", "--rank", "3", "--variant", "SL",
                 "--class-key", "trivial", "--max-len", "2",
                 "--out", str(tmp_path / "x.svg")])


def test_figure_rejects_gl3_before_any_output(tmp_path):
    # GL3 has a Weyl group of rank 2 but no plane apartment: one adlv: line
    # and exit 1 before the survey, with no --out or --tsv file made
    svg, tsv = tmp_path / "x.svg", tmp_path / "x.tsv"
    proc = run_cli_process(["figure", "--type", "GL", "--rank", "3", "--class-key",
                            "trivial", "--max-len", "2", "--out", str(svg),
                            "--tsv", str(tsv)])
    assert proc.returncode == 1 and proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert lines == ["adlv: figures need a rank-2 type (A2, B2, C2, G2)"], proc.stderr
    assert not svg.exists() and not tsv.exists()


def _window_listing(ctx, cls, max_len):
    # the x of the class's component over b's Omega window of the sweep
    om = cli.eng.omega_window(ctx, cls, [cli.sg.standard_representative(ctx, cls)])
    return [x for x in cli.eng.sweep_elements(ctx, max_len, om)
            if ctx.omega_class(x) == cls.kappa]


@pytest.mark.parametrize("n", [2, 3])
def test_central_class_survey_lists_its_component(n):
    # the x of the central class t^(k,..,k) are the x of the trivial class
    # times t^(k,..,k), with one length, for k = 2 and 3 as for k = 1, even
    # where kappa lies outside b's Omega window
    from adlv import affine_context, build_root_datum
    ctx = affine_context(build_root_datum("GL", n))
    trivial = cli.survey_elements(ctx, cli.parse_class_key(ctx, "trivial"), 3)
    assert len(trivial) > 1
    for k in (1, 2, 3):
        cls = cli.sg.classify(ctx, ctx.from_translation((k,) * n))
        got = cli.survey_elements(ctx, cls, 3)
        assert len(got) == len(trivial)
        back = ctx.from_translation((-k,) * n)
        assert {ctx.mul(x, back) for x in got} == set(trivial)
        assert [ctx.length(x) for x in got] == [ctx.length(x) for x in trivial]
    code, out = run_cli(["survey", "--type", "GL", "--rank", str(n), "--class-key",
                         f"nu=[{','.join(['2'] * n)}];kappa=[{','.join(['0'] * (n - 1))},{2 * n}]",
                         "--max-len", "3", "--jobs", "1"])
    assert code == 0 and json.loads(out.splitlines()[-1])["summary"]["count"] == len(trivial)


@pytest.mark.parametrize("spec,key", [
    (("C", 2, ""), "trivial"), (("C", 2, ""), "nu=[0,0];kappa=[0,1]"),
    (("A", 2, "SL"), "nu=[0,0,0];kappa=[0,0,1]"), (("A", 2, "SL"), "nu=[1,0,-1];kappa=[0,0,0]"),
    (("GL", 2, ""), "nu=[1,0];kappa=[0,1]"), (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]"),
    (("GL", 3, ""), "nu=[1,1,1];kappa=[0,0,3]"), (("GL", 3, ""), "nu=[0,0,-1];kappa=[0,0,-1]"),
])
def test_survey_elements_match_the_window_listing(spec, key):
    # where b's Omega window holds the twist of kappa, the survey lists the
    # x that the window's sweep, filtered by kappa, lists
    from adlv import affine_context, build_root_datum
    ctx = affine_context(build_root_datum(*spec))
    cls = cli.parse_class_key(ctx, key)
    want = _window_listing(ctx, cls, 4)
    assert want and cli.survey_elements(ctx, cls, 4) == want


def test_usage_error_exit_code():
    proc = subprocess.run([sys.executable, "-m", "adlv.cli", "survey"],
                          capture_output=True, text=True)
    assert proc.returncode == 1


def run_cli_process(argv):
    """Run the CLI on argv in a fresh interpreter; returns the finished process."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, "-m", "adlv.cli", *argv],
                          capture_output=True, text=True, env=env)


A2 = ["--type", "A", "--rank", "2", "--variant", "SL"]
C2 = ["--type", "C", "--rank", "2"]
# a path under a file, which no one can create
UNWRITABLE = os.path.join(os.devnull, "x.out")


@pytest.mark.parametrize("argv", [
    ["query", *A2, "--class-key", "trivial", "--x", "s9"],
    ["query", *A2, "--class-key", "trivial", "--x", "t[1,0]"],
    ["query", *A2, "--class-key", "nu=[1,0];kappa=[0]", "--x", "s1"],
    ["query", "--type", "Q", "--rank", "2", "--class-key", "trivial", "--x", "s1"],
    ["query", *C2, "--class-key", "trivial", "--x", "o[1]"],
    ["query", *C2, "--class-key", "trivial", "--x", "o[5,5]"],
    ["query", *C2, "--class-key", "trivial", "--x", "o[1,0]"],
    ["query", *A2, "--class-key", "nu=[1,0,-1];kappa=[0,0,1]", "--x", "s1"],
    ["query", *A2, "--class-key", "nu=[-1,0,1];kappa=[0,0,0]", "--x", "s1"],
    ["query", *C2, "--class-key", "trivial", "--x", "s1*s2*s1", "--cutoff", "-3"],
    ["survey", *C2, "--class-key", "trivial", "--max-len", "2", "--cutoff", "-1"],
    ["survey", *C2, "--class-key", "trivial", "--max-len", "-1"],
    ["survey", *C2, "--class-key", "trivial", "--max-len", "2", "--jobs", "0"],
    ["figure", *C2, "--class-key", "trivial", "--max-len", "-2", "--out", os.devnull],
    ["classes", *C2, "--bound", "-1"],
    ["survey", *C2, "--class-key", "trivial", "--max-len", "2", "--out", UNWRITABLE],
    ["figure", *C2, "--class-key", "trivial", "--max-len", "2", "--out", UNWRITABLE],
    ["figure", *C2, "--class-key", "trivial", "--max-len", "2", "--out", os.devnull,
     "--tsv", UNWRITABLE],
    ["query", *C2, "--class-key", "trivial", "--x", "s1", "--cache-dir", os.devnull],
    ["survey", *C2, "--class-key", "trivial", "--max-len", "2",
     "--cache-dir", os.devnull],
    ["figure", *C2, "--class-key", "trivial", "--max-len", "2", "--out", os.devnull,
     "--cache-dir", os.devnull],
    ["classes", "--type", "GL", "--rank", "1000000", "--bound", "1"],
], ids=["bad-generator", "short-translation", "short-class-key", "bad-type",
        "short-omega", "omega-not-normal-form", "omega-unit-modulus",
        "class-key-no-class", "class-key-not-dominant", "negative-cutoff",
        "survey-negative-cutoff", "negative-max-len", "jobs-below-1",
        "figure-negative-max-len", "negative-bound", "survey-out-unwritable",
        "figure-out-unwritable", "figure-tsv-unwritable", "query-cache-dir-is-file",
        "survey-cache-dir-is-file", "figure-cache-dir-is-file",
        "rank-far-out-of-range"])
def test_bad_input_is_one_line_and_exit_1(argv):
    proc = run_cli_process(argv)
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("adlv: "), proc.stderr
    assert "Fraction(" not in proc.stderr


def test_failed_figure_leaves_the_svg_alone(tmp_path):
    # an --out that exists keeps its content, and one that did not exist
    # is not left behind as an empty file
    old, new = tmp_path / "a.svg", tmp_path / "new.svg"
    old.write_text("OLD CONTENT")
    for svg in (old, new):
        proc = run_cli_process(["figure", *C2, "--class-key", "trivial",
                                "--max-len", "2", "--out", str(svg), "--tsv", UNWRITABLE])
        assert proc.returncode == 1
        lines = proc.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("adlv: "), proc.stderr
    assert old.read_text() == "OLD CONTENT"
    assert not new.exists()


def test_warm_query_prints_the_cold_bytes(tmp_path):
    # the cache stores a result with sorted keys; the query still prints
    # them in the order of a freshly computed result
    argv = ["query", *C2, "--class-key", "trivial", "--x", "s0*s1*s2*s1",
            "--cache-dir", str(tmp_path / "c")]
    cold, warm = run_cli(argv), run_cli(argv)
    assert warm == cold and '"certificates"' in cold[1]


@pytest.mark.parametrize("argv", [
    [*C2, "--class-key", "trivial", "--max-len", "6"],
    [*C2, "--class-key", "nu=[0,0];kappa=[0,1]", "--max-len", "6"],
    [*A2, "--class-key", "nu=[0,0,0];kappa=[0,0,1]", "--max-len", "5"],
])
def test_levi_prediction_is_read_off_the_certificates(tmp_path, argv):
    # record_for reads predicted_levi of a basic class off the computed
    # certificates: it is predict_levi's status on every x, and a warm
    # survey, whose results come from the cache, prints the cold bytes
    survey = ["survey", *argv, "--cache-dir", str(tmp_path / "c")]
    cold = run_cli(survey)
    assert run_cli(survey) == cold
    ctx = cli.affine_context(cli._datum(cli.build_parser().parse_args(survey)))
    cls = cli.parse_class_key(ctx, argv[argv.index("--class-key") + 1])
    seen = set()
    for line in cold[1].splitlines()[:-1]:
        rec = json.loads(line)
        status = rec["predicted_levi"]["status"]
        assert status == cli.eng.predict_levi(ctx, ctx.parse(rec["x"]), cls)[0], rec["x"]
        seen.add(status)
    assert seen == {"empty", "nonempty-predicted"}


def test_figure_shares_the_survey_cache(tmp_path, monkeypatch):
    args = [*C2, "--class-key", "trivial", "--max-len", "4", "--cutoff", "6"]
    survey_cache, figure_cache = tmp_path / "s", tmp_path / "f"
    run_cli(["survey", *args, "--jobs", "1", "--cache-dir", str(survey_cache)])
    fig = ["figure", *args, "--out", str(tmp_path / "a.svg"),
           "--tsv", str(tmp_path / "a.tsv"), "--cache-dir", str(figure_cache)]
    run_cli(fig)
    written = (figure_cache / "results.jsonl").read_text()
    assert written == (survey_cache / "results.jsonl").read_text()
    cold = [(tmp_path / name).read_text() for name in ("a.svg", "a.tsv")]

    def no_sweep(*args, **kwargs):
        raise AssertionError("a warm figure must not sweep")

    monkeypatch.setattr(cli.eng, "survey_batch", no_sweep)
    (tmp_path / "a.svg").unlink()
    run_cli(fig)
    assert [(tmp_path / name).read_text() for name in ("a.svg", "a.tsv")] == cold
    assert (figure_cache / "results.jsonl").read_text() == written


def test_parallel_survey_writes_the_serial_cache(tmp_path):
    argv = ["survey", "--type", "A", "--rank", "3", "--class-key", "trivial",
            "--max-len", "2"]
    outs = []
    for jobs in ("1", "2"):
        cache = tmp_path / jobs
        outs.append(run_cli(argv + ["--jobs", jobs, "--cache-dir", str(cache)]))
        outs.append((cache / "results.jsonl").read_text())
    assert outs[0] == outs[2] and outs[1] == outs[3]
    assert outs[1].count("\n") == 15


A3_SURVEY = ["survey", "--type", "A", "--rank", "3", "--class-key", "trivial",
             "--max-len", "2", "--jobs", "2"]


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_worker_exception_is_raised_in_the_parent(tmp_path, monkeypatch):
    # the parent re-raises what a worker raised, and the worker, which ends
    # in os._exit, never returns into the CLI to write the survey itself;
    # the --out file is closed on the way out, not left to the collector
    def broken(*args, **kwargs):
        raise ArithmeticError("broken walk")

    monkeypatch.setattr(cli.eng, "walk_batch", broken)
    out = tmp_path / "s.jsonl"
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises(ArithmeticError, match="broken walk"):
            run_cli(A3_SURVEY + ["--cache-dir", str(tmp_path / "c"), "--out", str(out)])
        gc.collect()
    assert [str(w.message) for w in caught if w.category is ResourceWarning] == []
    assert out.read_text() == ""
    assert_no_child_left()


def test_killed_worker_names_its_wait_status(tmp_path, monkeypatch):
    import signal

    def killed(*args, **kwargs):
        os.kill(os.getpid(), signal.SIGKILL)

    monkeypatch.setattr(cli.eng, "walk_batch", killed)
    with pytest.raises(RuntimeError, match=r"wait status %d\b" % signal.SIGKILL):
        run_cli(A3_SURVEY + ["--cache-dir", str(tmp_path / "c")])
    assert_no_child_left()


def test_parallel_survey_does_not_import_multiprocessing(tmp_path):
    # the workers are bare forks: the survey forks (fork_map runs once) and
    # leaves multiprocessing unimported
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    argv = A3_SURVEY + ["--cache-dir", str(tmp_path / "c"), "--out", os.devnull]
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {src!r})",
        "from adlv import cli",
        "forks, fork_map = [], cli.fork_map",
        "cli.fork_map = lambda *args: forks.append(1) or fork_map(*args)",
        f"rc = cli.main({argv!r})",
        "print(rc, len(forks), 'multiprocessing' in sys.modules)",
    ])
    proc = subprocess.run([sys.executable, "-E", "-s", "-c", code],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "1", "False"]
    assert_no_child_left()


@pytest.mark.parametrize("argv", [
    ["--type", "GL", "--rank", "3", "--class-key", "nu=[1/2,1/2,0];kappa=[0,0,1]",
     "--x", "t[2,1,-2]*s1*s2"],
    [*C2, "--class-key", "nu=[1,0];kappa=[0,0]", "--x", "t[-1,0]*s1"],
])
def test_query_under_python_O_matches(monkeypatch, argv):
    # python -O strips assert statements; the checks of adlv raise instead,
    # so a non-basic query under -O prints the bytes of a normal run
    monkeypatch.delenv("ADLV_CACHE_DIR", raising=False)
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    proc = subprocess.run([sys.executable, "-O", "-E", "-s", "-m", "adlv.cli", "query",
                           *argv], cwd=src, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    code, out = run_cli(["query", *argv])
    assert code == 0 and json.loads(out)["computed"]["status"] == "nonempty"
    assert proc.stdout == out.encode()


@pytest.mark.parametrize("spec,key", [(("C", 2, ""), "trivial"),
                                      (("GL", 3, ""), "nu=[1,0,0];kappa=[0,0,1]"),
                                      (("A", 2, "SL"), "nu=[0,0,0];kappa=[0,0,1]")])
def test_survey_worker_only_walks(monkeypatch, spec, key):
    # a worker walks its chunk against the prepared batch it inherits: no
    # certificate, sweep or ball growth, profile, wall key or wall list is
    # computed again, and the chunks give the results of one survey_batch
    from adlv import affine_context, build_root_datum
    ctx = affine_context(build_root_datum(*spec))
    cls = cli.parse_class_key(ctx, key)
    xs = cli.survey_elements(ctx, cls, 4)
    want = {x: r.to_json(ctx) for x, r in cli.eng.survey_batch(ctx, cls, xs, 7).items()}
    batch = cli.eng.prepare_batch(ctx, cls, xs, 7)
    pending = list(batch.words)
    assert batch.certified and len(pending) > 2

    def forbidden(*args, **kwargs):
        raise AssertionError("a worker must only walk")

    for name in ("kept_ball", "sweep_elements", "ball_groups", "orientation_profile",
                 "wall_key", "fold_walls", "emptiness_certificate"):
        monkeypatch.setattr(cli.eng, name, forbidden)
    monkeypatch.setattr(cli, "_survey_state", (ctx, batch))
    got = {}
    for chunk in (pending[0::3], pending[1::3], pending[2::3]):
        got.update(cli._survey_worker(chunk))
    assert got == {x: want[x] for x in pending}
    assert {x: r.to_json(ctx) for x, r in batch.certified.items()} == \
        {x: want[x] for x in xs if x not in got}


def test_every_option_is_read(tmp_path, monkeypatch):
    # an option that the command never reads is dead: it is accepted and
    # does nothing, so each parsed dest but cmd must be read by cmd_<name>
    monkeypatch.delenv("ADLV_CACHE_DIR", raising=False)
    cache = ["--cache-dir", str(tmp_path / "cache")]
    argvs = [
        ["classes", *C2, "--variant", "", "--bound", "1", "--format", "tsv"],
        ["query", *C2, "--class-key", "trivial", "--x", "s1", "--cutoff", "3",
         "--explain", *cache],
        ["survey", *C2, "--class-key", "trivial", "--max-len", "2", "--cutoff", "4",
         "--jobs", "1", "--format", "tsv", "--check", "--out", str(tmp_path / "s.tsv"),
         *cache],
        ["figure", *C2, "--class-key", "trivial", "--max-len", "2", "--cutoff", "4",
         "--out", str(tmp_path / "f.svg"), "--tsv", str(tmp_path / "f.tsv"), *cache],
    ]
    assert sorted(a[0] for a in argvs) == sorted(
        cli.build_parser()._subparsers._group_actions[0].choices)
    for argv in argvs:
        args = cli.build_parser().parse_args(argv)
        reads = set()

        class ReadLog(argparse.Namespace):
            def __getattribute__(self, name):
                reads.add(name)
                return super().__getattribute__(name)

        getattr(cli, "cmd_" + args.cmd)(ReadLog(**vars(args)), out=io.StringIO())
        assert set(vars(args)) - {"cmd"} - reads == set(), argv[0]


def test_trivial_figure_single_alcove(tmp_path):
    svg = tmp_path / "one.svg"
    code, _ = run_cli(["figure", "--type", "C", "--rank", "2",
                       "--class-key", "trivial", "--max-len", "0",
                       "--cutoff", "2", "--out", str(svg)])
    body = svg.read_text()
    assert body.count("<polygon") == 1
    assert 'fill="black"' in body


def test_solve_cache_key_unchanged():
    # query and survey share one key builder; its keys must match the ones
    # earlier versions wrote, so existing caches stay valid
    from adlv import affine_context, build_root_datum, classify
    ctx = affine_context(build_root_datum("C", 2))
    cls = classify(ctx, ctx.identity)
    assert cli._solve_key(ctx, cls, ctx.parse("s0*s1"), 7) == \
        "569e8f8cadb9a72b67b4506f3a7fdc42c1b1faf55fce559d9f2685a42578d2e6"


def test_library_has_no_assert():
    # python -O strips assert statements, and AssertionError reads as one;
    # the library's checks raise RuntimeError or ValueError instead
    src = os.path.dirname(cli.__file__)
    found = []
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), encoding="utf-8") as fh:
                tree = ast.parse(fh.read(), filename=name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert) or _raises_assertion_error(node)]
    assert found == []


def _raises_assertion_error(node):
    """Is node a `raise AssertionError` or `raise AssertionError(...)`?"""
    if not isinstance(node, ast.Raise) or node.exc is None:
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return isinstance(exc, ast.Name) and exc.id == "AssertionError"


def test_module_doctests_pass():
    import doctest
    import pkgutil
    import adlv
    attempted = 0
    for info in pkgutil.iter_modules(adlv.__path__):
        module = importlib.import_module(f"adlv.{info.name}")
        failed, tried = doctest.testmod(module)
        assert failed == 0, info.name
        attempted += tried
    assert attempted >= 3


def test_layertrace_binds_existing_names():
    # bench/layertrace.py wraps functions by (module, class, attribute); a
    # name renamed or deleted in adlv would make --trace 1 fail, so every
    # name its tables bind must exist
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    spec = importlib.util.spec_from_file_location(
        "layertrace", os.path.join(root, "bench", "layertrace.py"))
    trace = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(trace)
    binds = [entry[:3] for entry in trace.TIMED + trace.COUNTED]
    binds.append(("adlv.cli", None, "_survey_worker"))
    assert len(binds) > 20
    missing = []
    for module, cls, attr in binds:
        owner = importlib.import_module(module)
        if cls is not None:
            owner = getattr(owner, cls, None)
        if not callable(getattr(owner, attr, None)):
            missing.append((module, cls, attr))
    assert missing == []
