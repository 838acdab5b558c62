"""Golden-output runner: one line per CLI invocation, for diffing two trees.

Runs every argv of :data:`ARGVS` as ``python -m sextic.cli ARGV``, and every
script in ``demos/``, each in a fresh interpreter with ``TREE/src`` on
``PYTHONPATH``, and prints one line per run: the sha256 of its exit code,
stdout and stderr, the exit code, and the argv.  A change that should not
alter output is checked by running this on the parent's tree and on the
change's and comparing the two listings with ``diff``::

    python3 tools/golden.py /path/to/parent-checkout > parent.txt
    python3 tools/golden.py > change.txt
    diff parent.txt change.txt

TREE defaults to the checkout holding this script.  A run takes about 100 s
of CPU time, spread over one invocation per CPU at a time.  A run that
outlives its 600 s timeout prints a fixed ``timeout`` digest with exit -1, so
the listing stays complete.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path


def _spectra():
    for j in (0, 1, 2, 3, 5, 10, 20, 30, 40):
        yield ["spectrum", "--mode", "field", "--j", str(j), "--digits", "60"]
    for j in (0, 1, 2, 3, 5, 10, 20):
        yield ["spectrum", "--mode", "free", "--j", str(j), "--digits", "60"]
    yield ["spectrum", "--mode", "free", "--j", "12", "--digits", "200"]
    yield ["spectrum", "--mode", "free", "--j", "2", "--source", "published"]
    # a block whose band has a c_k < 0: its Jacobi matrix comes from the Sturm chain
    yield ["spectrum", "--mode", "free", "--j", "1", "--M", "3", "--omega", "5", "--q", "-2"]
    yield ["spectrum", "--mode", "field", "--j", "1", "--source", "published"]
    yield ["spectrum", "--mode", "free", "--j", "1", "--source", "published", "--M", "3",
           "--omega", "5", "--q", "-2"]
    yield ["spectrum", "--mode", "free", "--j", "3", "--source", "published", "--digits", "20",
           "--format", "pretty"]
    yield ["spectrum", "--mode", "field", "--j", "1", "--oracle", "--oracle-n", "1024"]
    yield ["spectrum", "--mode", "free", "--j", "2", "--oracle"]
    yield ["spectrum", "--mode", "field", "--j", "3", "--format", "pretty"]
    yield ["spectrum", "--mode", "free", "--j", "2", "--format", "pretty"]
    for mode in ("free", "field"):
        for j in (2, 3):
            for gauge in range(12):  # past the viable candidates: exit 2
                yield ["spectrum", "--mode", mode, "--j", str(j), "--gauge", str(gauge)]


def _decoupled():
    """The blocks whose band decouples after row 0 (M = omega = q = 1)."""
    for mode, j, gauge in (("free", 1, 3), ("free", 2, 3), ("free", 3, 3), ("field", 2, 2)):
        level = ["--mode", mode, "--j", str(j), "--gauge", str(gauge)]
        yield ["spectrum", *level]
        yield ["spectrum", *level, "--digits", "80"]
        yield ["spectrum", *level, "--format", "pretty"]
        yield ["compare", *level]
        yield ["wavefunction", *level, "--samples", "4"]


def _argvs():
    for mode in ("free", "field"):
        for j in range(4):
            level = ["--mode", mode, "--j", str(j)]
            yield ["derive", *level]
            yield ["derive", *level, "--format", "pretty"]
            yield ["polys", *level]
            yield ["compare", *level]
        printed = ["--mode", mode, "--j", "1", "--convention", "printed"]
        for command in ("derive", "polys", "spectrum", "wavefunction"):
            yield [command, *printed]
        yield ["spectrum", *printed, "--oracle"]
        yield ["compare", "--mode", mode, "--j", "2", "--gauge", "1", "--convention", "printed"]
        for command in ("derive", "polys", "spectrum", "compare"):
            yield [command, "--mode", mode, "--j", "1", "--q", "-1/2"]
    yield ["derive", "--mode", "field", "--j", "63"]
    yield ["derive", "--mode", "field", "--j", "100"]
    yield ["derive", "--mode", "free", "--j", "64", "--format", "pretty"]
    yield ["polys", "--mode", "field", "--j", "8", "--format", "pretty"]
    yield ["polys", "--mode", "free", "--j", "2", "--gauge", "1"]
    yield ["polys", "--mode", "field", "--j", "3", "--gauge", "0"]
    yield from _spectra()
    yield ["oracle", "--box", "--count", "4"]
    yield ["oracle", "--box", "--count", "4", "--format", "csv"]
    yield ["oracle", "--box", "--rmax", "3.14159265358", "--count", "3", "--format", "pretty"]
    yield ["oracle", "--mode", "free", "--m", "3", "--count", "4"]
    yield ["oracle", "--mode", "field", "--m", "3", "--count", "4"]
    yield ["oracle", "--mode", "field", "--m", "3", "--count", "4", "--convention", "printed"]
    yield ["oracle", "--mode", "free", "--m", "3", "--count", "3", "--convention", "printed"]
    yield ["oracle", "--mode", "free", "--m", "0", "--count", "3"]
    # the level names m = j + 2; --m alongside --j must agree with it
    yield ["oracle", "--mode", "free", "--j", "1", "--count", "3"]
    yield ["oracle", "--mode", "free", "--j", "1", "--m", "3", "--count", "3"]
    yield ["oracle", "--mode", "field", "--m", "2", "--count", "2", "--rmax", "1e6"]
    # overlapping finest-level brackets fall back to the plain solve; eight brackets
    yield ["oracle", "--mode", "free", "--m", "2", "--count", "5", "--M", "3", "--omega", "2",
           "--q", "1/3"]
    yield ["oracle", "--mode", "field", "--m", "3", "--count", "8", "--oracle-n", "8192"]
    # the h^2 bracket width at m = 1; an odd n (no predictor level); one predictor
    # (n/4 = 32 is too coarse)
    yield ["oracle", "--mode", "field", "--m", "1", "--count", "4"]
    yield ["oracle", "--box", "--count", "3", "--oracle-n", "1001"]
    yield ["oracle", "--box", "--count", "3", "--oracle-n", "128"]
    # the n/4 predictor has fewer unknowns than the count, and the counts at the 4n
    # bracket ends refuse the brackets: that level is solved by index, none bisected
    yield ["oracle", "--mode", "free", "--m", "2", "--count", "70", "--oracle-n", "256"]
    # refused at the h level, whose norm the message names
    yield ["oracle", "--box", "--oracle-n", "128", "--rmax", "1e-100"]
    yield ["wavefunction", "--mode", "field", "--j", "2", "--samples", "5"]
    yield ["wavefunction", "--mode", "field", "--j", "2", "--root-index", "1", "--samples", "5"]
    yield ["wavefunction", "--mode", "free", "--j", "1", "--samples", "5"]
    yield ["wavefunction", "--mode", "field", "--j", "2", "--samples", "0"]
    # a far window: refused past the gauge-exponent bound, printed inside it
    yield ["wavefunction", "--mode", "free", "--j", "1", "--samples", "3", "--r-to", "1e300"]
    yield ["wavefunction", "--mode", "free", "--j", "1", "--samples", "3", "--r-to", "1e20"]
    yield ["compare", "--mode", "free", "--j", "3", "--gauge", "0"]
    yield ["compare", "--mode", "free", "--j", "3", "--gauge", "5"]
    yield ["compare", "--mode", "field", "--j", "1", "--convention", "printed"]
    yield ["compare", "--mode", "field", "--j", "2", "--digits", "20"]
    yield ["compare", "--mode", "field", "--j", "1", "--q", "-1"]
    yield ["compare", "--mode", "field", "--j", "1", "--oracle-n", "1024", "--format", "pretty"]
    yield from _decoupled()
    # configuration errors: exit 2 with nothing on stdout
    yield ["polys", "--mode", "field"]
    yield ["polys", "--mode", "field", "--j", "1", "--m", "5"]
    yield ["spectrum", "--mode", "field", "--j", "0", "--digits", "5"]
    for command in ("derive", "polys", "spectrum", "compare", "wavefunction"):
        yield [command, "--mode", "field", "--j", "1", "--q", "0"]
    yield ["spectrum", "--mode", "field", "--j", "1", "--tol", "nan"]
    yield ["oracle", "--mode", "free", "--m", "2", "--count", "0"]
    yield ["oracle", "--mode", "free", "--count", "3"]
    yield ["oracle", "--mode", "field", "--m", "3", "--count", "3", "--convention", "bogus"]
    yield ["oracle", "--mode", "free", "--m", "2", "--count", "2", "--oracle-n=-5"]
    yield ["oracle", "--box", "--oracle-n", "0"]
    yield ["wavefunction", "--mode", "field", "--j", "2", "--samples=-3"]
    yield ["spectrum", "--mode", "free", "--j", "1", "--source", "published", "--gauge", "3"]
    yield ["spectrum", "--mode", "field", "--j", "2", "--source", "published", "--gauge", "0"]
    yield ["verify"]
    yield ["verify", "--fast"]
    for fault in (*FAULT_NAMES, *UNKNOWN_FAULTS):
        yield ["verify", "--fast", "--inject-fault", fault]


#: ``sextic.verify.FAULT_NAMES``: this script imports nothing from the tree it
#: runs, and tests/test_cli.py checks that the two agree.
FAULT_NAMES = ("sl2-sign", "quotient-sign", "parity-sign", "ledger-sign")
#: Not fault names: the parser refuses them, and beside ``--convention bogus``
#: they are the only argvs it refuses.
UNKNOWN_FAULTS = ("sl2-relations", "")
ARGVS = [list(a) for a in dict.fromkeys(map(tuple, _argvs()))]  # the gauge sweep repeats three


def _digest(code: int, out: bytes, err: bytes) -> str:
    h = hashlib.sha256()
    for part in (str(code).encode(), out, err):
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("tree", nargs="?", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout to run (default: the one holding this script)")
    args = parser.parse_args(argv)
    tree = args.tree.resolve()
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    runs = [([sys.executable, "-m", "sextic.cli", *a], "sextic " + shlex.join(a)) for a in ARGVS]
    runs += [([sys.executable, str(demo)], str(demo.relative_to(tree)))
             for demo in sorted((tree / "demos").glob("*.py"))]

    def run(cmd):
        try:
            done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, timeout=600)
        except subprocess.TimeoutExpired:
            return "timeout".ljust(64), -1
        return _digest(done.returncode, done.stdout, done.stderr), done.returncode

    with ThreadPoolExecutor(os.cpu_count() or 1) as pool:
        for (digest, code), (_, label) in zip(pool.map(run, [c for c, _ in runs]), runs):
            print(f"{digest}  exit {code}  {label}", flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
