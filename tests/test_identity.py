"""Byte identity of the CLI's outputs against recorded sha256 digests.

Two corpora run through `cli.main`, each in a scratch directory:
- README's CLI block, parsed as CI's "README CLI examples" step parses it;
- the outputs of CI's "Thread-count invariance" step, with its failing converge.

Each command's exit code, stdout and stderr, and each file left in the directory,
are digested.  The digests are recorded in identity.json per numpy version and the
SIMD features numpy dispatches to, since the bits depend on both; a key with no
recording skips, naming the key.  To record the running key (only where an output is
meant to change, and say so):

    PYTHONPATH=src python tests/test_identity.py
"""

import contextlib
import hashlib
import io
import json
import os
import shlex
import tempfile
from pathlib import Path

import numpy as np
import pytest

from ratbound import cli

ROOT = Path(__file__).resolve().parents[1]
RECORDING = Path(__file__).with_name("identity.json")

# CI's "Thread-count invariance" step: its ten outputs, then the failing converge
THREAD_COUNT_CORPUS = [
    "measure --family epstein_FT --param T=1 --param tail_tol=1e-4 --out ft.json",
    "measure --family epstein_FT --param T=1 --out ftfull.json",
    "sample --family example1 --param d=2 --param a=0.5 --param t=0.01 --seed 5 --workers 2"
    " --format csv --out d2.csv",
    "sample --family example1 --param d=5 --param a=0.5 --param t=0.001 --seed 5 --workers 2"
    " --out d5.json",
    "converge --family example1 --param d=2 --param a=0.5 --param sweep=t"
    " --param values=1e-1,1e-2,1e-3,1e-4 --seed 2026 --depth 20 --count 10000 --format csv"
    " --out sweep.csv",
    "sample --family example1 --param d=5 --param a=0.5 --param t=0.001 --seed 5 --workers 1"
    " --out d5w1.json",
    "sample --family example1 --param d=2 --param a=0.5 --param t=0.01 --seed 5 --workers 3"
    " --format csv --out d2w3.csv",
    "escape --family epstein_FT --param T=1 --param re=-2:2:31 --param im=-2:2:31"
    " --out escft.csv",
    "escape --family example1 --param d=2 --param a=0.5 --param t=0.01 --param re=-2:2:31"
    " --param im=-2:2:31 --out esce1.csv",
    "properness --family example1 --param d=2 --param a=0.5 --param sweep=t"
    " --param values=1e-1,1e-2,1e-3 --param n=2 --out res.csv",
    "converge --family example1 --param d=2 --param tail_tol=0.5 --param values=0.1,0.01"
    " --seed 2 --depth 6 --count 50 --out bad.csv",
]


def readme_cli_block():
    """The commands of README's CLI block, `ratbound` stripped, as CI's step runs them."""
    text = (ROOT / "README.md").read_text().split("## CLI", 1)[1]
    block = text.split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                if line.strip() and not line.lstrip().startswith("#")]
    assert commands and all(argv[0] == "ratbound" for argv in commands)
    return [" ".join(argv[1:]) for argv in commands]


def recording_key():
    """numpy's version and the SIMD features it dispatches to (show_runtime's "found")."""
    try:
        from numpy._core import _multiarray_umath as umath
    except ImportError:  # numpy < 2
        from numpy.core import _multiarray_umath as umath
    found = [f for f in umath.__cpu_dispatch__ if umath.__cpu_features__[f]]
    return f"numpy {np.__version__} {' '.join(found) or 'baseline'}"


def _sha256(data):
    return hashlib.sha256(data).hexdigest()


def digests(commands, directory):
    """Run `commands` through cli.main in `directory`; the digest of every run and file."""
    runs = {}
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        for command in commands:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(shlex.split(command))
            runs[command] = {"exit": code, "stdout": _sha256(out.getvalue().encode()),
                             "stderr": _sha256(err.getvalue().encode())}
    finally:
        os.chdir(cwd)
    files = {path.name: _sha256(path.read_bytes()) for path in Path(directory).iterdir()}
    return {"runs": runs, "files": files}


CORPORA = {"readme": readme_cli_block, "thread_count": lambda: THREAD_COUNT_CORPUS}


@pytest.mark.parametrize("corpus", sorted(CORPORA))
def test_cli_outputs_keep_their_recorded_bytes(corpus, tmp_path):
    key = recording_key()
    recorded = json.loads(RECORDING.read_text()).get(key)
    if recorded is None:
        pytest.skip(f"no digests recorded for {key!r}")
    assert digests(CORPORA[corpus](), tmp_path) == recorded[corpus]


if __name__ == "__main__":
    recording = json.loads(RECORDING.read_text()) if RECORDING.exists() else {}
    entry = {}
    for name, commands in sorted(CORPORA.items()):
        with tempfile.TemporaryDirectory() as directory:
            entry[name] = digests(commands(), directory)
    recording[recording_key()] = entry
    RECORDING.write_text(json.dumps(recording, indent=1, sort_keys=True) + "\n")
    print(f"recorded {recording_key()!r} in {RECORDING.name}")
