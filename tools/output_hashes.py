"""SHA-256 of every data file the shipped configs write, at one BLAS thread.

Runs, through the package CLI and into a temporary directory:

* ``bands``, ``decompose``, ``propagate`` and ``reference`` on
  ``configs/propagate.ini``;
* ``bands`` and ``convergence`` on ``configs/convergence.ini``;

then prints one ``<sha256>  <config>/<file>`` line per ``.wf``/``.csv``
output, sorted by name, and after them one
``<config>/<report> [<section>] <key> = <value>`` line per ``[monitors]`` and
``[errors]`` entry of each run report.  Two checkouts whose lines match wrote
bit-identical data and the same report values, so a ``diff`` of two listings
shows both.  Run from anywhere:

    python3 tools/output_hashes.py

The package is imported from the ``src/`` next to this script.  The run
takes about 15 s on a 2-core x86-64 machine.
"""

import os

# BLAS reads its thread count when numpy loads it, so pin it before any import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import hashlib  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fgabloch.cli import main  # noqa: E402
from fgabloch.pipeline import load_report  # noqa: E402

RUNS = (
    ("propagate.ini", ("bands", "decompose", "propagate", "reference")),
    ("convergence.ini", ("bands", "convergence")),
)
REPORT_SECTIONS = ("monitors", "errors")


def run_all(out_root: Path):
    """Run every command into out_root/<config stem>.

    Returns (name -> SHA-256 of each data file, report value lines).
    """
    hashes, values = {}, []
    for config, commands in RUNS:
        out = out_root / Path(config).stem
        for command in commands:
            with contextlib.redirect_stdout(sys.stderr):      # keep stdout for hashes
                code = main([command, "--config", str(ROOT / "configs" / config),
                             "--out", str(out)])
            if code != 0:
                raise SystemExit(f"{command} on {config} exited with {code}")
        for path in sorted(out.iterdir()):
            if path.suffix in (".wf", ".csv"):
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                hashes[f"{out.name}/{path.name}"] = digest
        for path in sorted(out.glob("report_*.txt")):
            report = load_report(path)
            for sect in REPORT_SECTIONS:
                for key, val in report.sections.get(sect, {}).items():
                    values.append(f"{out.name}/{path.name} [{sect}] {key} = {val}")
    return hashes, values


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        hashes, values = run_all(Path(tmp))
        for name, digest in sorted(hashes.items()):
            print(f"{digest}  {name}")
        for line in values:
            print(line)
