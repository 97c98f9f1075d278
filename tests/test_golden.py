"""The digests of `identity_digest.py` against the committed golden file.

The golden bytes hold for the numpy version, BLAS build and SIMD
extensions named in the file's `#` header, with BLAS on one thread. On
another build the test skips and says which header line differs. A change
that moves the arithmetic on purpose regenerates the file:

    python tests/identity_digest.py > tests/identity_digest.golden.txt
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

TESTS = Path(__file__).resolve().parent
GOLDEN = TESTS / "identity_digest.golden.txt"
ONE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}


def _header(lines):
    return [line for line in lines if line.startswith("#")]


def _skip_on_another_build(golden, found):
    for want, have in zip(golden, found):
        if want != have:
            pytest.skip(f"golden digests were made with '{want}', this build has '{have}'")


def test_identity_digests_match_the_golden_file():
    golden = GOLDEN.read_text(encoding="utf-8").splitlines()
    _skip_on_another_build(_header(golden)[:1], [f"# numpy {np.__version__}"])
    run = subprocess.run(
        [sys.executable, str(TESTS / "identity_digest.py")],
        env={**os.environ, **ONE_THREAD},
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert run.returncode == 0, run.stderr
    lines = run.stdout.splitlines()
    _skip_on_another_build(_header(golden), _header(lines))
    assert lines == golden
