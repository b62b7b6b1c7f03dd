"""Compute output pinned byte for byte: the sha256 of stdout for a fixed list
of CLI calls, as recorded in data/compute_outputs.json.

The list covers every kind, every route and encoding, formal and specialized
alpha and beta (zero, negative and fractional), inhomogeneous z, all three
output formats, variable names whose string order differs from their
priority order (x10 against x2), and dump-weights for every family.  It does
for compute what data/verify_all.jsonl does for verify.

Only when output is meant to change, rewrite the file from the current code:

    PYTHONPATH=src python tests/test_compute_outputs.py
"""

import hashlib
import io
import json
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from grothpoly.cli import main
from grothpoly.models import WeightModel

DATA = Path(__file__).parent / "data" / "compute_outputs.json"


def _requests():
    # (kind, lambda, nvars, extra flags)
    shapes = [
        ("G", "", 3, []),
        ("G", "1", 1, []),
        ("G", "2,1", 3, ["--encoding", "row"]),
        ("G", "2,1", 3, ["--encoding", "column"]),
        ("G", "2,1", 3, ["--route", "dual"]),
        ("G", "3,1", 3, ["--alpha", "1/2", "--beta", "-1/3"]),
        ("G", "3,1", 3, ["--encoding", "column", "--alpha", "-3/2", "--beta", "3/4"]),
        ("G", "2,2", 3, ["--route", "dual", "--alpha", "2/3", "--beta", "-2"]),
        ("G", "2", 2, ["--alpha", "0", "--beta", "1"]),
        ("G", "2", 2, ["--alpha", "1/2"]),
        ("G", "1", 11, []),
        ("g", "2,1", 3, ["--encoding", "row"]),
        ("g", "2,1", 3, ["--encoding", "column"]),
        ("g", "2,2", 3, ["--alpha", "-2/3", "--beta", "3/4"]),
        ("g", "1,1", 2, ["--encoding", "column", "--beta", "0"]),
        ("g", "1,1", 11, []),
        ("j", "2,1", 3, ["--route", "direct"]),
        ("j", "2,1", 3, ["--route", "dual"]),
        ("j", "2,2", 3, ["--alpha", "2", "--beta", "-1/2"]),
        ("j", "2", 2, ["--route", "dual", "--alpha", "-1", "--beta", "1/3"]),
        ("J", "2,1", 2, []),
        ("J", "1", 2, ["--z", "formal", "--alpha", "1/3"]),
        ("s_r", "2,1", 2, []),
        ("s_r", "2", 2, ["--z", "formal"]),
        ("s_c", "2,1", 2, ["--z", "1/2,-1"]),
        ("G", "2", 2, ["--z", "formal"]),
        ("g", "1", 2, ["--z", "1/2,-1", "--alpha", "-1/2"]),
        ("j", "2", 2, ["--z", "formal"]),
    ]
    out = []
    for fmt in ("json", "plain", "latex"):
        for kind, lam, n, extra in shapes:
            out.append(["compute", "--kind", kind, "--lambda", lam, "--nvars", str(n),
                        *extra, "--format", fmt])
    for model in WeightModel:
        out.append(["dump-weights", "--family", model.value, "--max-label", "3"])
    return out


def _digest(argv) -> str:
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(argv)
    assert code == 0, argv
    return hashlib.sha256(buf.getvalue().encode()).hexdigest()


@pytest.fixture(scope="module")
def expected():
    return json.loads(DATA.read_text())


def test_the_recorded_list_is_the_request_list(expected):
    assert list(expected) == [" ".join(argv) for argv in _requests()]


@pytest.mark.parametrize("argv", _requests(), ids=" ".join)
def test_output_is_byte_identical(argv, expected):
    assert _digest(argv) == expected[" ".join(argv)]


if __name__ == "__main__":
    DATA.write_text(json.dumps({" ".join(a): _digest(a) for a in _requests()}, indent=1) + "\n")
