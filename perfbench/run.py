#!/usr/bin/env python3
"""Build the benchmark and cmd/serve from source, then run the benchmark.

Usage, from the repository root:

    python3 perfbench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Every build product, Go cache, scratch file and result stays under
.bench_build/ in the checkout. Build time is not part of any metric. The
arguments are passed through to the benchmark binary (see README.md).
"""

import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
BUILD = os.path.join(ROOT, ".bench_build")


def source_digest():
    """Digest of every Go source and module file, for the result stamp."""
    h = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(ROOT):
        dirnames[:] = sorted(d for d in dirnames if not d.startswith("."))
        for name in sorted(filenames):
            if name.endswith(".go") or name == "go.mod":
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode() + b"\0")
                with open(path, "rb") as f:
                    h.update(f.read())
    return h.hexdigest()[:16]


def commit():
    rev = "none"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True).stdout.strip()[:12]
        except (OSError, subprocess.CalledProcessError):
            pass
    return "git:%s src:%s" % (rev, source_digest())


def main():
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        sys.exit("perfbench: no go.mod at %s; run from a full checkout" % ROOT)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(BUILD, "gocache"),
        "GOPATH": os.path.join(BUILD, "gopath"),
        "GOTMPDIR": os.path.join(BUILD, "tmp"),
        "GOTOOLCHAIN": "local",
        "GOPROXY": "off",
        "GOWORK": "off",
        "CGO_ENABLED": "0",
    })
    for d in ("bin", "tmp"):
        os.makedirs(os.path.join(BUILD, d), exist_ok=True)
    bench_bin = os.path.join(BUILD, "bin", "perfbench")
    serve_bin = os.path.join(BUILD, "bin", "serve")
    for out, pkg in ((bench_bin, "."), (serve_bin, "webmeasure/cmd/serve")):
        r = subprocess.run(["go", "build", "-o", out, pkg], cwd=BENCH, env=env,
                           stdout=sys.stderr)
        if r.returncode != 0:
            sys.exit("perfbench: building %s failed" % pkg)
    os.chdir(ROOT)
    args = [bench_bin, "-serve-bin", serve_bin, "-commit", commit(),
            "-work", os.path.join(BUILD, "work"), "-out", os.path.join(BUILD, "results")]
    sys.stdout.flush()
    os.execve(bench_bin, args + sys.argv[1:], env)


if __name__ == "__main__":
    main()
