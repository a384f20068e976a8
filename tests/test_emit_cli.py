import io
import json
import math
import sys
import warnings

import numpy as np
import pytest

import nhlgi.dynamics
from nhlgi.acceptance import run_all
from nhlgi.cli import MAX_GRID_POINTS, _time_grid, main
from nhlgi.dynamics import (
    NHHamiltonian,
    analytic_SB_Sn,
    down_z,
    evolve_pure,
    geodesic_distance_closed_form,
    projector,
    up_y,
    up_z,
)
from nhlgi.emit import format_value, write_csv, write_json
from nhlgi.lgi import CorrelatorEngine, Observable, k3_closed_form
from nhlgi.qmat import trace_distance
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

    @pytest.mark.parametrize(
        "argv, label",
        [
            (["lgi", "--theta", "0,0.7,1.4"], "theta"),
            (["lgi", "--theta", "0,0.7,1.4", "--kappa", "0.1"], "theta"),
            (["noise", "--theta", "1.1", "--kappa", "0,1e-3,0.3"], "kappa"),
        ],
    )
    def test_rows_equal_the_engine(self, argv, label, tmp_path):
        out = tmp_path / "k3.csv"
        assert main(argv + ["--out", str(out)]) == 0
        metadata, columns = read_csv(out)
        q = Observable.canonical()
        engines = {}
        for point, t, *row in zip(columns[label], columns["t"], columns["c12"],
                                  columns["c23"], columns["c13"], columns["k3"]):
            if point not in engines:
                if label == "theta":
                    h, kappa = NHHamiltonian.canonical(point), float(metadata["kappa"])
                else:
                    h, kappa = NHHamiltonian.canonical(float(metadata["theta"])), point
                engines[point] = CorrelatorEngine(h, kappa)
            res = engines[point].k3(up_y(), q, 0.0, t, 2.0 * t)
            assert row == [res.c12, res.c23, res.c13, res.k3]
        assert len(engines) == 3 and columns["t"].size == 3 * 157

    @pytest.mark.parametrize(
        "argv, spacing",
        [
            (["lgi", "--theta", "1.2", "--t", "1e308"], "1e+308"),
            (["noise", "--theta", "1.2", "--kappa", "0", "--tmax", "1e308",
              "--step", "3e307"], None),
            (["lgi", "--theta", "1.2", "--t", "0"], "0.0"),
            (["lgi", "--theta", "1.2", "--t", "-0.5"], "-0.5"),
            (["lgi", "--theta", "1.2", "--t", "nan"], "nan"),
            (["lgi", "--theta", "1.2", "--t", "inf"], "inf"),
        ],
    )
    def test_bad_spacing_exits_2(self, argv, spacing, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "measurement spacing t = " in captured.err
        if spacing is not None:
            assert f"t = {spacing} " in captured.err


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

    @pytest.mark.parametrize("theta", [0.0, 0.7, 1.2, 1.4])
    def test_direct_mode_closed_forms(self, theta, tmp_path):
        out = tmp_path / "dist.csv"
        assert main(["distance", "--theta", repr(theta), "--out", str(out)]) == 0
        _, columns = read_csv(out)
        t = columns["t"]
        assert t.size == 315
        h = NHHamiltonian.canonical(theta)
        np.testing.assert_allclose(
            columns["delta"], geodesic_distance_closed_form(theta, t), rtol=0, atol=1e-12
        )
        np.testing.assert_allclose(
            columns["s_n"], analytic_SB_Sn(h.a_mag, h.b_mag, t)[1], rtol=0, atol=1e-13
        )

    @pytest.mark.parametrize("theta", [0.0, 0.7, 1.3, 1.5])
    def test_direct_mode_at_the_antipode(self, theta, tmp_path):
        # 401 points over [0, pi], one of them within an ulp of pi/2 where the
        # distance vanishes and an arccos of the overlap loses half the digits
        out = tmp_path / "dist.csv"
        assert main(["distance", "--theta", repr(theta), "--tmax", repr(math.pi),
                     "--step", repr(math.pi / 400), "--out", str(out)]) == 0
        _, columns = read_csv(out)
        t = columns["t"]
        assert t.size == 401 and abs(t[200] - math.pi / 2) < 1e-15
        np.testing.assert_allclose(
            columns["delta"],
            geodesic_distance_closed_form(theta, t),
            rtol=0.0,
            atol=1e-13 / math.cos(theta) ** 2,
        )

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

    def test_rescaled_mode_against_eigvalsh(self, tmp_path):
        out = tmp_path / "dist.csv"
        assert main(["distance", "--rescaled", "--theta", "0,0.7,1.2,1.4",
                     "--out", str(out)]) == 0
        _, columns = read_csv(out)
        assert columns["t"].size == 4 * 315
        for theta, t, trace_d in zip(columns["theta"], columns["t"], columns["trace_d"]):
            h = NHHamiltonian.canonical(theta, scale=math.cos(theta))
            rho_a = projector(evolve_pure(h, up_z(), t))
            rho_b = projector(evolve_pure(h, down_z(), t))
            assert abs(trace_d - trace_distance(rho_a, rho_b)) <= 1e-14


class TestCliSweepValidation:
    """The sweeps validate per working point, never per row."""

    @pytest.fixture
    def validations(self, monkeypatch):
        original = nhlgi.dynamics.validate_pure
        calls = []

        def counting(psi):
            calls.append(None)
            return original(psi)

        bound = [
            module for name, module in list(sys.modules.items())
            if name.split(".")[0] == "nhlgi" and getattr(module, "validate_pure", None) is original
        ]
        assert nhlgi.dynamics in bound and nhlgi.lgi in bound and nhlgi.cli in bound
        for module in bound:
            monkeypatch.setattr(module, "validate_pure", counting)
        return calls

    def test_lgi(self, validations, tmp_path):
        thetas = "0,0.3,0.6,0.9,1.2,1.4"
        out = tmp_path / "lgi.csv"
        assert main(["lgi", "--theta", thetas, "--out", str(out)]) == 0
        assert read_csv(out)[1]["t"].size == 6 * 157
        assert 0 < len(validations) <= 2 * 6

    def test_distance_rescaled(self, validations, tmp_path):
        out = tmp_path / "dist.csv"
        assert main(["distance", "--rescaled", "--theta", "0.2,0.8,1.3",
                     "--out", str(out)]) == 0
        assert read_csv(out)[1]["t"].size == 3 * 315
        assert 0 < len(validations) <= 2 * 3


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
        # the K3 search starts its protocol at t = 0 and the speed search
        # runs over states alone, at t = 0
        assert payload["k3"][0]["argmax"]["t1"] == 0.0
        assert payload["speed"][0]["argmax"] == {
            "theta_s": pytest.approx(math.pi / 2), "phi_s": pytest.approx(math.pi / 2),
            "t": 0.0,
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

    @pytest.mark.parametrize("only", ["", ","])
    def test_empty_selection_exits_2(self, only, capsys):
        # running no criterion must not pass vacuously
        assert main(["check", "--only", only]) == 2
        assert "no criterion selected" in capsys.readouterr().err

    def test_repeated_criterion_runs_once(self):
        results = run_all(only=[10, 10], stream=io.StringIO())
        assert [r.number for r in results] == [10]


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


class TestTimeGridLimits:
    """A grid that overflows or exceeds the point limit is refused before
    ``np.arange`` allocates it."""

    @pytest.fixture
    def arange_calls(self, monkeypatch):
        calls = []

        def recording(start, stop, dtype):
            calls.append(stop - start)
            return np.zeros(0)

        monkeypatch.setattr(np, "arange", recording)
        return calls

    @pytest.mark.parametrize(
        "command",
        [
            ["lgi", "--theta", "1"],
            ["noise", "--theta", "1", "--kappa", "0"],
            ["speed", "--theta", "1"],
            ["distance", "--theta", "1"],
            ["trajectory", "--theta", "1"],
        ],
    )
    @pytest.mark.parametrize(
        "tmax, step, message",
        [("1e308", "1e-300", "overflows"), ("1e8", "1", f"points, more than {MAX_GRID_POINTS}")],
    )
    def test_refused_with_exit_2(self, arange_calls, command, tmax, step, message, capsys):
        assert main(command + ["--tmax", tmax, "--step", step]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--tmax / --step" in captured.err
        assert message in captured.err
        assert arange_calls == []

    def test_limit_is_inclusive(self, arange_calls):
        _time_grid(float(MAX_GRID_POINTS), 1.0, include_zero=False)
        assert arange_calls == [MAX_GRID_POINTS]
        with pytest.raises(ValueError, match=f"{MAX_GRID_POINTS + 1} time points"):
            _time_grid(float(MAX_GRID_POINTS), 1.0)
        assert arange_calls == [MAX_GRID_POINTS]
