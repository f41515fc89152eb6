"""
Digests of the CLI output of a checkout, to compare two checkouts byte for
byte in one command.

    python3 tools/survey_digests.py [--root CHECKOUT]
    python3 tools/survey_digests.py [--root CHECKOUT] --pool

The first form runs each command of COMMANDS (CLI surveys, and queries with
--explain) in a fresh interpreter against CHECKOUT/src (default: this
checkout) and prints one line per command, the first 16 hex digits of the
SHA-256 of its standard output and its argv:

    diff <(python3 tools/survey_digests.py --root A) \\
         <(python3 tools/survey_digests.py --root B)

With --pool it instead runs every query of CHECKOUT/bench/reference/
query-pool.tsv, one fresh interpreter per root datum, and checks the digest
of each output against the committed one, as the benchmark does for the
queries it draws.  It prints each mismatch and a count, and exits 1 on any
mismatch.  Only the standard library is used, and nothing is written.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# the commands whose output a change that claims byte-identical output keeps
COMMANDS = [
    "survey --type C --rank 2 --class-key trivial --max-len 10",
    "survey --type A --rank 3 --class-key trivial --max-len 2 --jobs 2",
    "survey --type A --rank 4 --class-key trivial --max-len 5",
    "survey --type D --rank 4 --class-key trivial --max-len 4",
    "survey --type D --rank 4 --class-key nu=[0,0,0,0];kappa=[0,0,1,1] --max-len 4",
    "survey --type B --rank 2 --class-key nu=[0,0];kappa=[0,1] --max-len 8 --jobs 2",
    "survey --type A --rank 2 --variant SL --class-key nu=[0,0,0];kappa=[0,0,2] --max-len 7 "
    "--jobs 2",
    "survey --type C --rank 3 --class-key nu=[0,0,0];kappa=[0,0,1] --max-len 4",
    "survey --type G --rank 2 --class-key trivial --max-len 10",
    "survey --type A --rank 3 --class-key nu=[1,0,0,-1];kappa=[0,0,0,0] --max-len 5",
    "survey --type GL --rank 3 --class-key nu=[1,0,0];kappa=[0,0,1] --max-len 5",
    "survey --type GL --rank 4 --class-key nu=[1,0,0,0];kappa=[0,0,0,1] --max-len 4",
    "survey --type C --rank 2 --class-key nu=[0,2];kappa=[0,0] --max-len 10",
    "survey --type G --rank 2 --class-key nu=[0,1];kappa=[0,0] --max-len 10",
    "survey --type A --rank 2 --variant SL --class-key nu=[1,0,-1];kappa=[0,0,0] --max-len 8",
    "survey --type B --rank 2 --class-key nu=[1,0];kappa=[0,0] --max-len 8",
    "survey --type C --rank 2 --class-key nu=[1,0];kappa=[0,0] --max-len 8",
    "survey --type GL --rank 2 --class-key nu=[1,0];kappa=[0,1] --max-len 8 --jobs 2",
    "survey --type GL --rank 3 --class-key nu=[1,1,1];kappa=[0,0,3] --max-len 5",
    "survey --type GL --rank 3 --class-key nu=[1/2,1/2,0];kappa=[0,0,1] --max-len 5 --jobs 2",
    # the P-alcove reports, their witness rows and finite parts outside W_M
    "query --type A --rank 2 --variant SL --class-key trivial --x t[2,0,-2]*s1 --explain",
    "query --type C --rank 2 --class-key trivial --x t[2,-1]*s1 --explain",
    "query --type C --rank 2 --class-key nu=[1,0];kappa=[0,0] --x t[0,2]*s2 --explain",
    "query --type G --rank 2 --class-key trivial --x s0*s1*s2*s1*s0*s2 --explain",
    "query --type G --rank 2 --class-key nu=[0,1];kappa=[0,0] --x t[1,1]*s2 --explain",
    "query --type GL --rank 3 --class-key nu=[1,0,0];kappa=[0,0,1] --x t[2,-1,0]*s1 --explain",
    "query --type A --rank 3 --class-key trivial --x t[1,-1,0,0]*s2*tau --explain",
    "query --type A --rank 3 --class-key nu=[1,0,0,-1];kappa=[0,0,0,0] --x t[1,0,0,-1]*s1*s3 "
    "--explain",
]

# the root data of the query pool, as bench/run.py names them
POOL_DATA = {"A2-SL": ("A", 2, "SL"), "C2": ("C", 2, ""),
             "G2": ("G", 2, ""), "GL3": ("GL", 3, "")}

# runs in the fresh interpreter: argv lists of queries on stdin as JSON,
# one digest per line on stdout
POOL_RUNNER = """
import hashlib, io, json, sys
sys.path.insert(0, sys.argv[1])
from adlv import cli
for argv in json.load(sys.stdin):
    buf = io.StringIO()
    try:
        cli.cmd_query(cli.build_parser().parse_args(argv), buf)
        print(hashlib.sha256(buf.getvalue().encode()).hexdigest()[:16])
    except (Exception, SystemExit) as exc:
        print("error: %s: %s" % (type(exc).__name__, exc))
"""

RUNNER = "import sys; sys.path.insert(0, sys.argv[1]); from adlv.cli import main; " \
                "sys.exit(main(sys.argv[2:]))"


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def fresh(src: str, code: str, args, stdin=None) -> subprocess.CompletedProcess:
    """Run code in a fresh interpreter with src first on its path."""
    env = {k: v for k, v in os.environ.items() if k != "ADLV_CACHE_DIR"}
    return subprocess.run([sys.executable, "-E", "-s", "-B", "-c", code, src, *args],
                          input=stdin, capture_output=True, env=env, check=False)


def command_digests(src: str) -> int:
    for line in COMMANDS:
        argv = line.split()
        done = fresh(src, RUNNER, argv)
        if done.returncode != 0:
            sys.stderr.write(done.stderr.decode(errors="replace"))
            print(f"{argv[0]} exited {done.returncode}: {line}", file=sys.stderr)
            return 1
        print(f"{digest(done.stdout)}  {' '.join(argv)}", flush=True)
    return 0


def pool_check(src: str, pool_file: str) -> int:
    with open(pool_file, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        rows = [dict(zip(header, line.rstrip("\n").split("\t"))) for line in fh]
    bad = 0
    for data, (ctype, rank, variant) in POOL_DATA.items():
        mine = [row for row in rows if row["data"] == data]
        argvs = [["query", "--type", ctype, "--rank", str(rank)]
                 + (["--variant", variant] if variant else [])
                 + ["--class-key", row["class_key"], "--x", row["x"]] for row in mine]
        done = fresh(src, POOL_RUNNER, [], json.dumps(argvs).encode())
        got = done.stdout.decode().splitlines()
        if done.returncode != 0 or len(got) != len(mine):
            sys.stderr.write(done.stderr.decode(errors="replace"))
            print(f"{data}: the query runner failed", file=sys.stderr)
            return 1
        for row, argv, out in zip(mine, argvs, got):
            if out != row["sha256_16"]:
                bad += 1
                print(f"{out} != {row['sha256_16']}  {' '.join(argv)}")
    print(f"{len(rows) - bad} of {len(rows)} query-pool entries match, {bad} differ")
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--root", default=ROOT, help="the checkout to run (default: this one)")
    ap.add_argument("--pool", action="store_true",
                    help="check the query pool's digests instead of the commands")
    args = ap.parse_args(argv)
    src = os.path.join(os.path.abspath(args.root), "src")
    if args.pool:
        return pool_check(src, os.path.join(args.root, "bench", "reference",
                                            "query-pool.tsv"))
    return command_digests(src)


if __name__ == "__main__":
    sys.exit(main())
