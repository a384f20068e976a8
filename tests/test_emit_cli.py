import io
import json
import math

import numpy as np
import pytest

from nhlgi.cli import main
from nhlgi.emit import format_value, write_csv, write_json
from nhlgi.lgi import k3_closed_form
from oracles import read_csv


class TestFormatValue:
    def test_floats_round_trip(self):
        rng = np.random.default_rng(67)
        values = list(rng.normal(size=200)) + [
            0.0, -0.0, 1e-300, 1e300, math.pi, 1.0 / 3.0
        ]
        for x in values:
            assert float(format_value(float(x))) == float(x)

    def test_ints_and_bools(self):
        assert format_value(7) == "7"
        assert format_value(np.int64(-3)) == "-3"
        assert format_value(True) == "1"
        assert format_value(False) == "0"
        assert format_value("text") == "text"


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "table.csv"
        columns = {
            "t": np.array([0.0, 0.1, 0.2]),
            "value": np.array([1.0 / 3.0, -2.5e-17, 1e9]),
        }
        write_csv(path, columns, metadata={"theta": 0.9, "n": 3})
        metadata, got = read_csv(path)
        assert metadata["theta"] == format_value(0.9)
        assert metadata["n"] == "3"
        np.testing.assert_array_equal(got["t"], columns["t"])
        np.testing.assert_array_equal(got["value"], columns["value"])

    def test_byte_stable(self):
        columns = {"a": [0.1, 0.2], "b": [3.0, 4.0]}
        buf1, buf2 = io.StringIO(), io.StringIO()
        write_csv(buf1, columns, metadata={"k": 1.5})
        write_csv(buf2, columns, metadata={"k": 1.5})
        assert buf1.getvalue() == buf2.getvalue()

    def test_unequal_lengths(self):
        with pytest.raises(ValueError):
            write_csv(io.StringIO(), {"a": [1.0], "b": [1.0, 2.0]})

    def test_empty_table_keeps_header(self):
        buf = io.StringIO()
        write_csv(buf, {"a": [], "b": []})
        assert buf.getvalue() == "a,b\n"

    def test_creates_parent_directories(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "out.csv"
        write_csv(path, {"x": [1.0]})
        assert path.exists()

    def test_read_requires_header(self):
        with pytest.raises(ValueError):
            read_csv(io.StringIO(""))


class TestJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "payload.json"
        payload = {"metadata": {"theta": 0.5}, "data": {"k3": [1.0, 2.0]}}
        write_json(path, payload)
        assert json.loads(path.read_text()) == payload


class TestCliTrajectory:
    def test_row_count_and_metadata(self, tmp_path):
        out = tmp_path / "traj.csv"
        rc = main(
            ["trajectory", "--theta", "0", "--tmax", "1.5708", "--step", "0.01",
             "--out", str(out)]
        )
        assert rc == 0
        metadata, columns = read_csv(out)
        assert metadata["command"] == "trajectory"
        assert float(metadata["theta"]) == 0.0
        assert columns["t"].size == 158
        assert set(columns) == {"t", "s_x", "s_y", "s_z", "s_a", "s_b", "s_n", "purity"}
        # Hermitian member: pure precession keeps purity pinned at 1
        np.testing.assert_allclose(columns["purity"], 1.0, atol=1e-8)

    def test_byte_stability(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert main(["trajectory", "--theta", "1.2", "--tmax", "1.0",
                         "--step", "0.05", "--out", str(out)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_stdout_default(self, capsys):
        assert main(["trajectory", "--theta", "0.5", "--tmax", "0.2",
                     "--step", "0.1"]) == 0
        captured = capsys.readouterr().out
        metadata, columns = read_csv(io.StringIO(captured))
        assert metadata["command"] == "trajectory"
        assert columns["t"].size == 3

    def test_json_format(self, tmp_path):
        out = tmp_path / "traj.json"
        assert main(["trajectory", "--theta", "0.3", "--tmax", "0.2",
                     "--step", "0.1", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"metadata", "data"}
        assert len(payload["data"]["t"]) == 3


class TestCliLgi:
    def test_single_spacing(self, tmp_path):
        out = tmp_path / "lgi.csv"
        rc = main(["lgi", "--theta", "0.5236", "--t", "0.7854", "--out", str(out)])
        assert rc == 0
        _, columns = read_csv(out)
        assert columns["k3"].size == 1
        expected = k3_closed_form(0.5236, 0.7854)[3]
        assert columns["k3"][0] == pytest.approx(expected, abs=1e-10)
        assert columns["k3"][0] == pytest.approx(1.75, abs=1e-3)

    def test_grid_matches_identity(self, tmp_path):
        out = tmp_path / "lgi.csv"
        assert main(["lgi", "--theta", "0.9", "--tmax", "1.2", "--step", "0.2",
                     "--out", str(out)]) == 0
        _, columns = read_csv(out)
        np.testing.assert_allclose(
            columns["k3"],
            columns["c12"] + columns["c23"] - columns["c13"],
            atol=1e-12,
        )
        assert np.all(columns["t"] > 0.0)


class TestCliSpeed:
    def test_against_closed_form_column(self, tmp_path):
        out = tmp_path / "speed.csv"
        assert main(["speed", "--theta", "0.8", "--tmax", "1.0", "--step", "0.25",
                     "--out", str(out)]) == 0
        _, columns = read_csv(out)
        np.testing.assert_allclose(columns["v"], columns["v_closed"], rtol=1e-4)


class TestCliDistance:
    def test_direct_mode(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert main(["distance", "--theta", "0,1.2", "--tmax", "1.5708",
                     "--step", "0.7854", "--out", str(out)]) == 0
        metadata, columns = read_csv(out)
        assert metadata["mode"] == "direct"
        # every member reaches the antipode at the half period
        at_half = columns["delta"][np.isclose(columns["t"], 1.5708)]
        np.testing.assert_allclose(at_half, 0.0, atol=1e-4)

    def test_rescaled_mode(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert main(["distance", "--rescaled", "--theta", "0.9", "--tmax", "1.0",
                     "--step", "0.2", "--out", str(out)]) == 0
        metadata, columns = read_csv(out)
        assert metadata["mode"] == "rescaled"
        # trace distance of pure states is the sine of their angle
        np.testing.assert_allclose(
            columns["trace_d"], np.sin(columns["delta"]), atol=1e-10
        )


class TestCliNoise:
    def test_zero_noise_column_matches_closed_form(self, tmp_path):
        out = tmp_path / "noise.csv"
        assert main(["noise", "--theta", "1.1", "--kappa", "0,0.3",
                     "--tmax", "0.8", "--step", "0.2", "--out", str(out)]) == 0
        metadata, columns = read_csv(out)
        assert float(metadata["theta"]) == 1.1
        clean = columns["kappa"] == 0.0
        noisy = columns["kappa"] == 0.3
        assert clean.sum() == noisy.sum() == 4
        # depolarisation strictly reduces the quarter-spacing combination
        assert np.all(columns["k3"][noisy] < columns["k3"][clean])

    def test_delta_parameterisation(self, tmp_path):
        out = tmp_path / "noise.csv"
        assert main(["noise", "--delta", "0.4", "--kappa", "0", "--tmax", "0.4",
                     "--step", "0.2", "--out", str(out)]) == 0
        metadata, _ = read_csv(out)
        assert float(metadata["theta"]) == pytest.approx(math.pi / 2 - 0.4, abs=1e-12)

    def test_defective_lift_exits_1(self, capsys):
        # at the corner with faint noise the lift cannot be diagonalised
        # reliably; the command must fail instead of printing C13 = -1
        rc = main(["noise", "--delta", "1e-6", "--kappa", "1e-9",
                   "--tmax", "0.2", "--step", "0.1"])
        captured = capsys.readouterr()
        assert rc == 1
        assert captured.out == ""
        assert "defective" in captured.err


class TestCliScan:
    def test_small_budget_run(self, tmp_path):
        out = tmp_path / "scan.csv"
        rc = main(["scan", "--theta", "0.6", "--budget", "700", "--seed", "1",
                   "--out", str(out)])
        assert rc == 0
        metadata, columns = read_csv(out)
        assert float(metadata["budget"]) == 700
        s = math.sin(0.6)
        assert columns["k3_max"][0] >= 1.0 + s + s * s - 1e-9
        assert columns["v_max"][0] >= (1.0 + s) / (1.0 - s) - 1e-4

    def test_json_payload(self, tmp_path):
        out = tmp_path / "scan.json"
        assert main(["scan", "--theta", "0.6", "--budget", "700", "--format",
                     "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert set(payload) == {"metadata", "k3", "speed"}
        assert payload["k3"][0]["theta"] == pytest.approx(0.6)
        assert set(payload["k3"][0]["argmax"]) == {
            "theta_s", "phi_s", "theta_q", "phi_q", "t1", "t2", "t3",
        }


class TestCliNoisescan:
    def test_small_grid(self, tmp_path):
        out = tmp_path / "nscan.csv"
        rc = main(["noisescan", "--delta", "0.5", "--kappa", "0,1.0",
                   "--budget", "700", "--out", str(out)])
        assert rc == 0
        _, columns = read_csv(out)
        np.testing.assert_allclose(columns["kappa_scaled"], columns["kappa"] * 1e5)
        assert columns["k3_max"][1] <= columns["k3_max"][0] + 1e-6


class TestCliEmbed:
    def test_fidelity_and_agreement(self, tmp_path):
        out = tmp_path / "embed.csv"
        assert main(["embed", "--delta", "0.3", "--tmax", "1.5",
                     "--step", "0.5", "--out", str(out)]) == 0
        _, columns = read_csv(out)
        np.testing.assert_allclose(columns["fidelity"], 1.0, atol=1e-10)
        np.testing.assert_allclose(
            columns["k3_embedded"], columns["k3_direct"], atol=1e-10
        )
        assert np.all(columns["p_select"] <= 1.0 + 1e-12)


class TestCliCheck:
    def test_single_fast_criterion(self, capsys):
        assert main(["check", "--only", "10", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "criterion 10: PASS" in out


class TestCliErrors:
    def test_domain_error_exits_2(self, capsys):
        assert main(["trajectory", "--theta", "2.0"]) == 2
        assert "invalid parameters" in capsys.readouterr().err

    def test_scan_budget_error_exits_2(self, capsys):
        assert main(["scan", "--theta", "0.5", "--budget", "10"]) == 2
        assert "scan" in capsys.readouterr().err

    def test_embed_degenerate_corner_exits_2(self, capsys):
        assert main(["embed", "--delta", "0"]) == 2
        capsys.readouterr()

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_negative_step_exits_2(self, capsys):
        assert main(["trajectory", "--theta", "0.5", "--step", "-0.1"]) == 2
        capsys.readouterr()
