"""Golden bytes: small fixed-seed Scenario 3 fits reproduce committed outputs.

Each case simulates one dataset, runs ``fit`` with a trace, and compares
``summary.json`` byte for byte with ``tests/golden/<case>.json`` and the
trace file with the SHA-256 digest in ``tests/golden/<case>.trace.sha256``.
A change that alters either on purpose (a new random-stream layout, say)
must regenerate these files and say why.
"""

import hashlib
from pathlib import Path

import pytest

from jointdag.cli import main, parse_config, run

GOLDEN = Path(__file__).parent / "golden"
CASES = {
    "defaults": {},
    "corr_b0_sigma2_R4": {"init": "corr", "b": 0.0, "sigma2": 1.5, "R": 4},
}


@pytest.fixture(scope="module")
def sim(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden") / "sim"
    argv = ["simulate", "--scenario", "3", "--setting", "1", "--seed", "6"]
    assert main(argv + ["--n", "40", "--n-test", "10", "--out", str(out)]) == 0
    return out


def fit_case(sim: Path, out: Path, name: str) -> tuple[bytes, str]:
    """Run one golden case; return its summary bytes and trace digest."""
    overrides = {
        "x": str(sim / "X.csv"),
        "y": str(sim / "Y.csv"),
        "iters": 1500,
        "burnin": 500,
        "seed": 12,
        "trace": "trace.jsonl",
        "out": str(out),
    } | CASES[name]
    assert run(parse_config(None, overrides, mode="fit")) == 0
    digest = hashlib.sha256((out / "trace.jsonl").read_bytes()).hexdigest()
    return (out / "summary.json").read_bytes(), digest


@pytest.mark.parametrize("name", sorted(CASES))
def test_fit_matches_golden(sim, tmp_path, name):
    summary, digest = fit_case(sim, tmp_path, name)
    assert summary == (GOLDEN / f"{name}.json").read_bytes()
    assert digest == (GOLDEN / f"{name}.trace.sha256").read_text().strip()
