"""Print the SHA-256 of every artifact and of the console output of a fixed
set of CLI runs, so that two trees can be compared run for run.

Each command runs in process, through `mdmart.cli.main` of the sources in
this tree's src/, from a fresh temporary directory, with `--seed 7` and the
one relative artifact directory `--out out`; stdout and stderr are caught
together.  Run as a script:

    python tests/artifact_digests.py

and compare the lines it prints with those of another tree.  A line is the
digest, then the command and what was hashed: `console`, or the artifact's
path under out/."""
from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

SEED = 7

RUNS = [
    ["verify", "--budget", "100000"],
    *(["certify", "--model", model] for model in ("rademacher", "heavy_left", "regime_switch")),
    *(["tail", "--budget", "20000", "--model", model] for model in ("rademacher", "heavy_left")),
    *(["tail", "--budget", "20000", "--model", "regime_switch", "--gamma", gamma]
      for gamma in ("0.2", "0.3", "0.45")),
    *(["tail", "--budget", "20000", "--model", "regime_switch", "--n", n]
      for n in ("5", "96", "1601")),
    ["tail", "--budget", "20000", "--model", "regime_switch", "--gamma", "0", "--n", "6400"],
    ["mdp", "--budget", "20000"],
    ["couple"],
    ["mixing"],
    ["mixing", "--n", "2000", "--a", "0.1", "--b-prob", "0.1"],
    ["mixing", "--n", "30000", "--alpha", "0.4"],
]


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def main() -> int:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from mdmart.cli import main as cli

    home = os.getcwd()
    for run in RUNS:
        label = " ".join(run)
        with tempfile.TemporaryDirectory() as tmp:
            os.chdir(tmp)
            try:
                console = io.StringIO()
                with contextlib.redirect_stdout(console), contextlib.redirect_stderr(console):
                    code = cli(["--seed", str(SEED), "--out", "out", *run])
                print(f"{digest(console.getvalue().encode())}  {label}: console (exit {code})")
                for path in sorted(Path("out").rglob("*")):
                    if path.is_file():
                        print(f"{digest(path.read_bytes())}  {label}: {path}")
            finally:
                os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
