"""The benchmark's canaries on the kernel: `perfbench/canary.py` pins the
digests of five ciphertexts and of four CLI analysis CSVs (two bifurcation
sweeps and two Lyapunov estimates), and no other test runs those CLI calls
against pinned bytes."""

import importlib.util
from pathlib import Path

CANARY = Path(__file__).resolve().parent.parent / "perfbench" / "canary.py"


def test_benchmark_canaries_match_their_digests(compiled, tmp_path):
    spec = importlib.util.spec_from_file_location("canary", CANARY)
    canary = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(canary)
    assert canary.check(tmp_path) == dict.fromkeys(canary.PINNED, True)
