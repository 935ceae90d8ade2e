#!/usr/bin/env python3
"""Build the toolchain and run one benchmark workload.

    python3 perfbench/run.py --workload table1|sweep --seed N \
        --seconds S --trace 0|1

Run from the repository root.  The benchmark is the dune package
`perfbench` (perfbench/src, with its own dune-project), built apart from
the repository's own build: this script puts a dune workspace together
under perfbench/.build from that package and links to the repository's
lib/ and bin/, builds perfbench.exe and xmtserved.exe there (the first
run in a fresh checkout builds everything they need), then runs the
workload in a process of its own.  That process's
last stdout line is the result: {"correct", "attempted", "failed",
"metrics"}.  See perfbench/NOTES.md for what each workload and metric
means.
"""

import argparse
import os
import shutil
import signal
import subprocess
import sys

WORKLOADS = ("table1", "sweep")
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
RUN_DIR = "perfbench/.run"
SRC = "perfbench/src"
WORKSPACE = "perfbench/.build"


def link(target, name):
    """(Re)make [name] a symlink to [target], relative to its directory."""
    if os.path.lexists(name):
        os.unlink(name)
    os.symlink(os.path.relpath(target, os.path.dirname(name)), name)


def workspace():
    """The perfbench project at the root of a workspace of its own, with
    the repository's libraries inside it: they are private to their
    project, so the benchmark has to be in the same one."""
    os.makedirs(os.path.join(WORKSPACE, "perfbench"), exist_ok=True)
    link(os.path.join(SRC, "dune-project"), os.path.join(WORKSPACE, "dune-project"))
    for d in ("lib", "bin"):
        link(d, os.path.join(WORKSPACE, d))
    sources = os.path.join(WORKSPACE, "perfbench")
    for f in os.listdir(sources):
        os.unlink(os.path.join(sources, f))
    for f in os.listdir(SRC):
        if f != "dune-project":
            link(os.path.join(SRC, f), os.path.join(sources, f))


def die(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not all(os.path.isdir(d) for d in ("lib", "bin", SRC)):
        die("run me from the repository root (no lib/, bin/ or perfbench/src here)")
    dune = shutil.which("dune")
    if dune is None and "OPAM_SWITCH_PREFIX" in os.environ:
        dune = os.path.join(os.environ["OPAM_SWITCH_PREFIX"], "bin", "dune")
    if dune is None or not os.path.exists(dune):
        die("dune not found on PATH")

    # the shared dune cache lives outside the checkout: keep it off
    env = dict(os.environ, DUNE_CACHE="disabled")
    workspace()
    # -p: the release build of one package, rooted at the workspace
    build = subprocess.run(
        [dune, "build", "-p", "perfbench", "--display", "quiet",
         "./perfbench/perfbench.exe", "./bin/xmtserved.exe"],
        cwd=WORKSPACE, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    if build.returncode != 0:
        die(f"build failed (dune exit {build.returncode})")

    exe = os.path.join(WORKSPACE, "_build", "default")
    cmd = [os.path.join(exe, "perfbench", "perfbench.exe"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--daemon", os.path.join(exe, "bin", "xmtserved.exe"),
           "--run-dir", RUN_DIR]
    # own process group, so a timeout also takes down the daemon it spawns
    proc = subprocess.Popen(cmd, start_new_session=True)
    try:
        rc = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        die(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.exit(rc)


if __name__ == "__main__":
    main()
