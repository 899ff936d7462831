"""The CLI's sec6 outputs, byte for byte, against committed references
(see ``tests/data/README.md`` for the command that remakes them)."""

from pathlib import Path

import pytest

from tinregions import example_channel_path
from tinregions.cli import main

DATA = Path(__file__).resolve().parent / "data"


@pytest.mark.parametrize(
    "name, args",
    [
        ("sec6_ts_proper_21.csv", ["region", "--method", "ts-proper", "--betas", "21"]),
        ("sec6_solve_0.5.json", ["solve", "--beta", "0.5"]),
        ("sec6_hull_improper_21.csv", ["region", "--method", "hull-improper", "--betas", "21"]),
        ("sec6_pure_improper_samples.csv", ["region", "--method", "pure-improper-samples"]),
    ],
)
def test_cli_output_matches_the_golden_file(tmp_path, name, args):
    out = tmp_path / name
    assert main([*args, "--channel", str(example_channel_path()), "--out", str(out)]) == 0
    assert out.read_bytes() == (DATA / name).read_bytes()
