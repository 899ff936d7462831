import csv
import json

import numpy as np
import pytest

from tinregions import cli, example_channel_path, load_channel, rate_pair_proper
from tinregions.cli import main
from tinregions.fileio import format_float


def read_region_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def channel_file():
    return str(example_channel_path())


BAD_NUMBERS = [
    ["--eps-cp", "0"],
    ["--eps-cp", "-1"],
    ["--eps-cp", "nan"],
    ["--p1", "nan"],
    ["--p1", "inf"],
    ["--p1", "-1"],
    ["--p2", "nan"],
    ["--p2", "inf"],
    ["--p2", "-1"],
]
BAD_COUNTS = {
    "region": [["--betas", "0"], ["--betas", "-3"], ["--beta", "1.5"]],
    "solve": [["--beta", "1.5"], ["--beta", "nan"]],
    "verify": [
        ["--suite", "theorem1", "--trials", "-5"],
        ["--suite", "lemma1", "--trials", "0"],
        ["--suite", "duality", "--betas", "0"],
        ["--suite", "nesting", "--betas", "-1"],
        # one profile cannot describe the boundary that theorem1 checks
        ["--suite", "theorem1", "--betas", "1"],
        ["--suite", "all", "--betas", "1"],
    ],
}


class TestRegionCommand:
    def test_ts_three_betas_reproduces_reference_points(self, channel_file, tmp_path):
        out = tmp_path / "ts.csv"
        code = main(
            [
                "region", "--channel", channel_file, "--method", "ts-proper",
                "--p1", "10", "--p2", "10", "--betas", "3", "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_region_csv(out)
        assert len(rows) == 3
        assert all(r["status"] == "ok" for r in rows)
        assert float(rows[0]["r2"]) == pytest.approx(3.44236388446505, abs=1e-3)
        assert float(rows[1]["r1"]) == pytest.approx(2.54494936027933, abs=5e-3)
        assert float(rows[1]["r2"]) == pytest.approx(2.54494936027933, abs=5e-3)
        assert float(rows[2]["r1"]) == pytest.approx(5.40086611903573, abs=1e-3)

    def test_single_beta_pure_proper(self, channel_file, tmp_path):
        out = tmp_path / "pp.csv"
        code = main(
            [
                "region", "--channel", channel_file, "--method", "pure-proper",
                "--p1", "10", "--p2", "10", "--betas", "1", "--beta", "1.0",
                "--out", str(out),
            ]
        )
        assert code == 0
        rows = read_region_csv(out)
        assert len(rows) == 1
        assert float(rows[0]["R"]) == pytest.approx(5.40086611903573, abs=1e-3)

    def test_sample_rows_have_blank_beta(self, channel_file, tmp_path):
        out = tmp_path / "imp.csv"
        code = main(
            [
                "region", "--channel", channel_file,
                "--method", "pure-improper-samples",
                "--p1", "10", "--p2", "10", "--out", str(out), "--seed", "1",
            ]
        )
        assert code == 0
        rows = read_region_csv(out)
        assert len(rows) > 100
        assert all(r["beta"] == "" and r["R"] == "" for r in rows)
        r1 = [float(r["r1"]) for r in rows]
        assert all(b <= a for a, b in zip(r1, r1[1:]))

    def test_sample_csv_is_the_pareto_staircase(self, channel_file, tmp_path, monkeypatch):
        # a cloud with repeated r1 values, equal points and dominated
        # points; the rows must be those of the lexsort and running-max
        # staircase, byte for byte
        rng = np.random.default_rng(5)
        cloud = np.round(rng.uniform(0.0, 4.0, (400, 2)), 1)
        cloud = np.vstack([cloud, cloud[:40]])
        monkeypatch.setattr(cli, "pure_improper_samples", lambda ch, budget, cfg: cloud)
        out = tmp_path / "imp.csv"
        code = main(
            [
                "region", "--channel", channel_file,
                "--method", "pure-improper-samples", "--out", str(out),
            ]
        )
        assert code == 0
        order = np.lexsort((-cloud[:, 1], -cloud[:, 0]))
        s = cloud[order]
        running = np.maximum.accumulate(s[:, 1])
        keep = np.concatenate([[True], s[1:, 1] > running[:-1]])
        want = "method,beta,r1,r2,R,status\n" + "".join(
            f"pure-improper-samples,,{format_float(r1)},{format_float(r2)},,ok\n"
            for r1, r2 in s[keep]
        )
        assert out.read_bytes() == want.encode()

    @pytest.mark.parametrize(
        "command, flags",
        [
            pytest.param(command, flags, id=f"{command}-flags{i}")
            for command, counts in BAD_COUNTS.items()
            for i, flags in enumerate(BAD_NUMBERS + counts)
        ],
    )
    def test_unusable_numbers_exit_2(self, channel_file, tmp_path, capsys, command, flags):
        args = [command, "--channel", channel_file, *flags]
        if command == "region":
            args += ["--method", "ts-proper", "--out", str(tmp_path / "x")]
        elif command == "solve":
            args += ["--out", str(tmp_path / "x")]
            if "--beta" not in flags:
                args += ["--beta", "0.5"]
        elif "--suite" not in flags:
            args += ["--suite", "lemma1"]
        assert main(args) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert any(
            word in err
            for word in ("epsilon_cp", "power budgets", "beta must lie", "--trials", "--betas")
        )
        assert not (tmp_path / "x").exists()

    def test_eps_cp_below_float_resolution_exits_2(self, channel_file, tmp_path, capsys):
        # the loop cannot close a gap below the rounding of its bounds; at
        # 1e-20 a profile used to end in a duality-gap error (exit 3)
        out = tmp_path / "x.csv"
        args = ["region", "--channel", channel_file, "--method", "ts-proper", "--betas", "3"]
        assert main([*args, "--eps-cp", "1e-20", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: epsilon_cp")
        assert not out.exists()
        assert main([*args, "--eps-cp", "1e-10", "--out", str(out)]) == 0
        assert all(r["status"] == "ok" for r in read_region_csv(out))

    def test_missing_channel_flag_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--method", "ts-proper", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_removed_eps_bnb_flag_exits_2(self, channel_file, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["region", "--channel", channel_file, "--method", "ts-proper",
                  "--eps-bnb", "1e-6", "--out", str(tmp_path / "x.csv")])
        assert exc.value.code == 2

    def test_unparsable_channel_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"h11\": 1.0}")
        code = main(
            [
                "region", "--channel", str(bad), "--method", "ts-proper",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 2

    def test_byte_identical_for_equal_seeds(self, channel_file, tmp_path):
        outs = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            main(
                [
                    "region", "--channel", channel_file, "--method", "ts-proper",
                    "--p1", "10", "--p2", "10", "--betas", "5", "--out", str(out),
                    "--seed", "7",
                ]
            )
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]


class TestSolveCommand:
    def test_symmetric_point_document(self, channel_file, tmp_path):
        out = tmp_path / "sol.json"
        code = main(
            [
                "solve", "--channel", channel_file, "--beta", "0.5",
                "--p1", "10", "--p2", "10", "--out", str(out),
            ]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert set(doc) >= {"R", "beta", "mu", "lambda", "cuts", "strategies"}
        assert len(doc["strategies"]) <= 4
        taus = [s["tau"] for s in doc["strategies"]]
        assert sum(taus) == pytest.approx(1.0, abs=1e-9)

        # round-trip: re-evaluating the document through the rate model
        # reproduces the reported balanced value
        ch = load_channel(channel_file)
        avg = [0.0, 0.0]
        for s in doc["strategies"]:
            rates = rate_pair_proper(ch, (s["p1"], s["p2"]))
            assert rates.r1 == pytest.approx(s["r1"], abs=1e-9)
            assert rates.r2 == pytest.approx(s["r2"], abs=1e-9)
            avg[0] += s["tau"] * s["r1"]
            avg[1] += s["tau"] * s["r2"]
        assert min(avg[0] / 0.5, avg[1] / 0.5) == pytest.approx(doc["R"], abs=1e-9)

    def test_endpoint_single_strategy(self, channel_file, tmp_path):
        out = tmp_path / "sol1.json"
        assert (
            main(
                [
                    "solve", "--channel", channel_file, "--beta", "1.0",
                    "--p1", "10", "--p2", "10", "--out", str(out),
                ]
            )
            == 0
        )
        doc = json.loads(out.read_text())
        assert doc["R"] == pytest.approx(5.40086611903573, abs=1e-3)
        assert len(doc["strategies"]) == 1

    def test_near_axis_profile_exits_0(self, channel_file, tmp_path):
        # the light user's rate rests on a weight of about 2e-10
        out = tmp_path / "axis.json"
        assert main(["solve", "--channel", channel_file, "--beta", "1e-9", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["status"] == "converged" and len(doc["strategies"]) == 3
        assert doc["R"] == pytest.approx(3.4423, abs=1e-4)

    def test_deterministic_documents(self, channel_file, tmp_path):
        texts = []
        for name in ("s1.json", "s2.json"):
            out = tmp_path / name
            main(
                [
                    "solve", "--channel", channel_file, "--beta", "0.5",
                    "--p1", "10", "--p2", "10", "--out", str(out),
                ]
            )
            texts.append(out.read_bytes())
        assert texts[0] == texts[1]


class TestVerifyCommand:
    def test_lemma1_suite_passes(self, channel_file, capsys):
        code = main(
            [
                "verify", "--channel", channel_file, "--suite", "lemma1",
                "--trials", "20000", "--seed", "7",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out.startswith("PASS lemma1")

    def test_lemma1_suite_passes_without_cross_gain(self, channel_file, tmp_path, capsys):
        doc = json.loads(open(channel_file).read())
        doc["h12"] = {"mag": 0.0, "phase_rad": 0.0}
        path = tmp_path / "no_cross.json"
        path.write_text(json.dumps(doc))
        code = main(["verify", "--channel", str(path), "--suite", "lemma1", "--trials", "5000"])
        assert code == 0
        assert capsys.readouterr().out.startswith("PASS lemma1")

    def test_theorem1_suite_small(self, channel_file, capsys):
        code = main(
            [
                "verify", "--channel", channel_file, "--suite", "theorem1",
                "--trials", "50", "--betas", "21", "--seed", "3",
            ]
        )
        assert code == 0
        assert "PASS theorem1" in capsys.readouterr().out

    def test_duality_suite_small(self, channel_file, capsys):
        code = main(
            [
                "verify", "--channel", channel_file, "--suite", "duality",
                "--betas", "11",
            ]
        )
        assert code == 0
        assert "PASS duality" in capsys.readouterr().out
