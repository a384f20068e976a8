import io
import json
import math
import sys
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nhlgi.cli
import nhlgi.dynamics
from nhlgi.acceptance import run_all
from nhlgi.cli import MAX_GRID_POINTS, _time_grid, main
from nhlgi.dynamics import (
    THETA_MAX,
    NHHamiltonian,
    analytic_SB_Sn,
    bloch_of_pure,
    down_y,
    down_z,
    evolve_pure,
    geodesic_distance_closed_form,
    integrate_bloch,
    projector,
    state_from_bloch_angles,
    up_y,
    up_z,
)
from nhlgi.emit import format_value, write_csv, write_json
from nhlgi.lgi import CorrelatorEngine, Observable, k3_closed_form
from nhlgi.qmat import trace_distance
from oracles import (
    closed_form_k3,
    density_from_bloch,
    geodesic,
    noisy_bloch_trajectory,
    protocol,
    pure_bloch_trajectory,
    pure_flow,
    read_csv,
)


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


_SPECIAL_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 5e-324, sys.float_info.max]

# Cell strategy and column constructor of each column kind write_csv meets.
_CELLS = {
    "float64": st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
    "float32": st.floats(width=32),
    "int64": st.integers(-(2**63), 2**63 - 1),
    "uint64": st.integers(0, 2**64 - 1),
    "bool": st.booleans(),
    "str": st.text(max_size=4),
    "list": st.one_of(st.integers(-(2**40), 2**40), st.floats()),
    "floats": st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
    "float64s": st.one_of(st.floats(), st.sampled_from(_SPECIAL_FLOATS)),
    "pairs": st.tuples(st.floats(), st.floats()),
}
_COLUMN_KINDS = {
    "float64": lambda cells: np.array(cells, dtype=np.float64),
    "float32": lambda cells: np.array(cells, dtype=np.float32),
    "int64": lambda cells: np.array(cells, dtype=np.int64),
    "uint64": lambda cells: np.array(cells, dtype=np.uint64),
    "bool": lambda cells: np.array(cells, dtype=bool),
    "str": lambda cells: np.array(cells, dtype=str),
    "list": list,
    # a list of exact Python floats skips numpy; one of numpy floats does not
    "floats": list,
    "float64s": lambda cells: [np.float64(c) for c in cells],
    "pairs": list,
}


def _per_cell_csv(columns: dict, metadata: dict) -> str:
    """The CSV that ``format_value`` gives cell by cell: the reference rendering."""
    lines = [f"# {key} = {format_value(value)}\n" for key, value in metadata.items()]
    lines.append(",".join(columns) + "\n")
    series = [np.atleast_1d(np.asarray(column)) for column in columns.values()]
    n_rows = series[0].shape[0] if series else 0
    lines += [",".join(format_value(s[i]) for s in series) + "\n" for i in range(n_rows)]
    return "".join(lines)


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

    def test_golden_table(self):
        buf = io.StringIO()
        columns = {
            "t": np.array([0.1, -0.0, 5e-324]),
            "v": [1.0 / 3.0, math.nan, -math.inf],
            "n": np.array([2**64 - 1, 0, 7], dtype=np.uint64),
            "ok": np.array([True, False, True]),
            "label": ["a", "%s", "c"],
        }
        write_csv(buf, columns, metadata={"theta": 1.2, "rows": 3, "mode": "direct"})
        assert buf.getvalue() == (
            "# theta = 1.2\n"
            "# rows = 3\n"
            "# mode = direct\n"
            "t,v,n,ok,label\n"
            "0.10000000000000001,0.33333333333333331,18446744073709551615,1,a\n"
            "-0,nan,0,0,%s\n"
            "4.9406564584124654e-324,-inf,7,1,c\n"
        )

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_per_cell_rendering(self, data):
        n_rows = data.draw(st.integers(0, 12))
        kinds = data.draw(st.lists(st.sampled_from(sorted(_COLUMN_KINDS)), max_size=5))
        columns = {
            f"{kind}{i}": _COLUMN_KINDS[kind](
                data.draw(st.lists(_CELLS[kind], min_size=n_rows, max_size=n_rows))
            )
            for i, kind in enumerate(kinds)
        }
        metadata = {"theta": data.draw(_CELLS["float64"]), "n": n_rows, "s": "x"}
        buf = io.StringIO()
        write_csv(buf, columns, metadata)
        assert buf.getvalue() == _per_cell_csv(columns, metadata)

    def test_long_table_matches_per_cell_rendering(self):
        # 9000 rows: more than two blocks of rows, with a partial last one.
        rng = np.random.default_rng(13)
        n = 9000
        floats = rng.normal(size=n) * 10.0 ** rng.integers(-300, 300, size=n)
        floats[rng.integers(0, n, size=50)] = rng.choice(_SPECIAL_FLOATS, size=50)
        columns = {
            "f64": floats,
            "f32": rng.normal(size=n).astype(np.float32),
            "i64": rng.integers(-(2**63), 2**63 - 1, size=n, dtype=np.int64),
            "u64": rng.integers(0, 2**64 - 1, size=n, dtype=np.uint64),
            "b": rng.integers(0, 2, size=n).astype(bool),
            "s": [f"r{i}" for i in range(n)],
        }
        buf = io.StringIO()
        write_csv(buf, columns, {"rows": n})
        assert buf.getvalue() == _per_cell_csv(columns, {"rows": n})


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
        assert metadata["method"] == "exact propagator"
        assert "rtol" not in metadata and "atol" not in metadata
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


class TestCliTrajectoryRoute:
    """Every row of ``nhlgi trajectory`` comes from an exact propagator: the
    pure flow at kappa = 0 and the modal form of the noisy lift at kappa > 0.
    RK45 is the independent route here, not the command's."""

    @pytest.fixture(autouse=True)
    def no_rk45(self, monkeypatch):
        def refused(*args, **kwargs):
            raise AssertionError("nhlgi trajectory ran RK45")

        monkeypatch.setattr(nhlgi.dynamics, "_rk45", refused)
        return monkeypatch

    @staticmethod
    def _run(tmp_path, *argv):
        out = tmp_path / "traj.csv"
        assert main(["trajectory", *argv, "--out", str(out)]) == 0
        return out

    @staticmethod
    def _bloch(columns):
        return np.column_stack([columns["s_x"], columns["s_y"], columns["s_z"]])

    # Distance from the 40-digit flow of H(theta) itself on the CLI grid.
    # The real circle flow was measured within 1.2e-16 at every point; the
    # complex flow of the rounded sec, tan and omega was off by 3.7e-15,
    # 1.4e-7, 1.2e-5 and 2.0e-4.  RK45 was off the rounded matrix's flow by
    # 7.5e-11, 5.9e-4, 5.3e-3 and 8.2e-4.
    @pytest.mark.parametrize(
        "theta", [1.2, math.pi / 2 - 1e-3, math.pi / 2 - 1e-5, math.pi / 2 - 1e-6]
    )
    def test_pure_route_against_closed_form(self, tmp_path, theta):
        _, columns = read_csv(self._run(tmp_path, "--theta", repr(theta)))
        grid = _time_grid(math.pi, 0.01)
        assert columns["t"].tolist() == grid.tolist()
        exact = pure_bloch_trajectory(theta, up_y(), grid)
        assert np.max(np.abs(self._bloch(columns) - exact)) <= 1e-15

    # Measured within 1.1e-10 of RK45 (rtol 1e-10, atol 1e-12).  At kappa =
    # 1e5 the state settles within about 1e-4, so that grid resolves the
    # transient.
    @pytest.mark.parametrize(
        "kappa, grid",
        [("0.01", ()), ("1", ()), ("1e5", ("--tmax", "5e-5", "--step", "1e-6"))],
    )
    @pytest.mark.parametrize("theta", [0.3, 1.2])
    def test_noisy_route_against_rk45(self, tmp_path, no_rk45, theta, kappa, grid):
        _, columns = read_csv(
            self._run(tmp_path, "--theta", repr(theta), "--kappa", kappa, *grid)
        )
        no_rk45.undo()
        reference = integrate_bloch(
            bloch_of_pure(up_y()), NHHamiltonian.canonical(theta), float(kappa), columns["t"]
        )
        assert np.max(np.abs(self._bloch(columns) - reference.bloch)) <= 1e-9

    def test_strong_noise_at_the_default_horizon(self, tmp_path):
        # RK45 needed 1.33e6 right-hand sides for this grid, and refused any
        # --tmax above about 4.7
        _, columns = read_csv(self._run(tmp_path, "--theta", "1.2", "--kappa", "1e5"))
        assert columns["t"].size == 315
        assert np.all(np.isfinite(self._bloch(columns)))
        assert np.all(columns["purity"] <= 1.0 + 1e-12)

    def test_faint_noise_at_the_corner_against_50_digits(self, tmp_path):
        # Against the 50-digit lift of H(theta) from the exactly pure up_y,
        # (0, -1, 0), on 20 seeded rows and the rows at t = 0.3, 0.9, 1.57
        # and 2.8.  The eigendecomposed lift refused the THETA_MAX point (exit
        # 1, "numerically defective"); measured 2.2e-16 there.  At delta =
        # 1e-3 the worst row is t = 1.57, measured 1.7e-11; started from
        # up_y's rounded Bloch vector, an ulp short, it was 1.7e-5 off.
        for theta, kappa, bound in (
            (THETA_MAX, "1e-9", 1e-15),
            (math.pi / 2 - 1e-3, "1e-12", 3e-11),
        ):
            _, columns = read_csv(self._run(tmp_path, "--theta", repr(theta), "--kappa", kappa))
            rng = np.random.default_rng(11)
            rows = sorted({*rng.choice(columns["t"].size, 20, replace=False), 30, 90, 157, 280})
            times = columns["t"][rows].tolist()
            exact = noisy_bloch_trajectory(theta, float(kappa), (0.0, -1.0, 0.0), times)
            assert np.max(np.abs(self._bloch(columns)[rows] - exact)) <= bound

    @pytest.mark.parametrize(
        "theta, kappa",
        [
            (theta, kappa)
            for theta in (0.0, 1.2, math.pi / 2 - 1e-3, THETA_MAX)
            for kappa in ("0", "1e-12", "0.01", "1e5")
        ],
    )
    def test_invariant_s_x_is_zero(self, tmp_path, theta, kappa):
        # the component along A = sec(theta) x starts at 0 and stays there,
        # written as 0 (not -0)
        out = self._run(tmp_path, "--theta", repr(theta), "--kappa", kappa)
        header, *rows = [line.split(",") for line in out.read_text().splitlines()
                         if not line.startswith("#")]
        column = header.index("s_x")
        assert {row[column] for row in rows} == {"0"}

    def test_bad_kappa_exits_2(self, capsys):
        for kappa in ("-0.1", "nan", "inf"):
            assert main(["trajectory", "--theta", "1.2", "--kappa", kappa]) == 2
            assert "kappa must be a finite non-negative rate" in capsys.readouterr().err


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
            (["embed", "--tmax", "1e308", "--step", "3e307"], None),
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
        np.testing.assert_allclose(columns["v"], columns["v_closed"], rtol=1e-13)


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
            columns["s_n"], analytic_SB_Sn(theta, t)[1], rtol=0, atol=1e-13
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

    def test_embed(self, validations, tmp_path):
        # once for the engine's run and once for the circle flow's start
        out = tmp_path / "embed.csv"
        assert main(["embed", "--out", str(out)]) == 0
        assert read_csv(out)[1]["t"].size == 31
        assert 0 < len(validations) <= 2

    def test_speed(self, validations, tmp_path):
        # the start state is validated once per command, not once per row
        out = tmp_path / "speed.csv"
        assert main(["speed", "--theta", "0.2,0.8,1.3", "--out", str(out)]) == 0
        assert read_csv(out)[1]["t"].size == 3 * 315
        assert len(validations) == 1


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

    # Faint noise at the corner, against a 50-digit lift of H(theta) from the
    # exactly pure up_y, (0, -1/2, 0).  The eigendecomposed lift refused
    # delta = 1e-6 (exit 1) and was off by up to 4e-4 at delta = 1e-3.  Fed
    # the Bloch vector of the rounded up_y, of length 1 - 2.2e-16, the closed
    # form was 2.0e-5 off at delta = 1e-3 (at t = 1.57, next to the half
    # period, the last row): near the corner the lift amplifies the purity
    # deficit.  The engine divides by the spinor's squared norm.
    @pytest.mark.parametrize(
        "point, kappa, bound",
        [
            (("--delta", "1e-6"), "1e-12,1e-9", 1e-14),
            (("--theta", "1.5697963267948967"), "1e-12", 3e-10),
        ],
        ids=["delta-1e-6", "delta-1e-3"],
    )
    def test_faint_noise_at_the_corner_against_50_digits(self, tmp_path, point, kappa, bound):
        out = tmp_path / "noise.csv"
        assert main(["noise", *point, "--kappa", kappa, "--out", str(out)]) == 0
        metadata, columns = read_csv(out)
        theta, size = float(metadata["theta"]), columns["t"].size
        rows = sorted(np.random.default_rng(5).choice(size - 1, 11, replace=False)) + [size - 1]
        rho0 = density_from_bloch((0.0, -0.5, 0.0))
        worst = 0.0
        for i in rows:
            t = columns["t"][i]
            exact = protocol(theta, rho0, (0.0, -1.0, 0.0), (0.0, t, 2.0 * t), columns["kappa"][i])
            got = [columns[name][i] for name in ("c12", "c23", "c13", "k3")]
            worst = max(worst, *(abs(a - b) for a, b in zip(got, exact.correlators)))
        assert worst <= bound


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

    def test_corner_rows_by_value(self, tmp_path):
        # CI's corner noisescan: each argmax re-evaluates through the engine
        # to the reported float, the pure maximum dominates the canonical
        # closed form, and the maxima do not rise with kappa
        out = tmp_path / "nscan.json"
        assert main(["noisescan", "--theta", "1.5697963267948967", "--kappa", "0,1e-5,1e-3,1",
                     "--budget", "3000", "--format", "json", "--out", str(out)]) == 0
        rows = json.loads(out.read_text())["results"]
        assert [row["kappa"] for row in rows] == [0.0, 1e-5, 1e-3, 1.0]
        for row in rows:
            am = row["argmax"]
            engine = CorrelatorEngine(NHHamiltonian.canonical(row["theta"]), row["kappa"])
            again = engine.k3(
                state_from_bloch_angles(am["theta_s"], am["phi_s"]),
                Observable.from_angles(am["theta_q"], am["phi_q"]),
                am["t1"],
                am["t2"],
                am["t3"],
            ).k3
            assert again == row["objective"], row["kappa"]
        assert rows[0]["objective"] >= k3_closed_form(rows[0]["theta"], math.pi / 4)[3]
        for before, after in zip(rows, rows[1:]):
            assert after["objective"] <= before["objective"] + 1e-3


class TestCliCornerRows:
    """The corner rows of CI's byte-stability loop, checked by value against
    50 digits at the exact theta."""

    CORNER = "1.5697963267948967,1.5707953267948966"

    def test_speed_against_50_digits(self, tmp_path):
        # the complex flow of the rounded sec, tan and omega was off by up to
        # 2.01 relative at THETA_MAX
        out = tmp_path / "speed.csv"
        assert main(["speed", "--theta", self.CORNER, "--out", str(out)]) == 0
        _, columns = read_csv(out)
        assert columns["v"].size == 630
        rows = zip(columns["theta"], columns["t"], columns["v"])
        worst = max(abs(v / pure_flow(th, up_y(), t)[2] - 1) for th, t, v in rows)
        assert worst <= 4e-15

    def test_trajectory_against_50_digits(self, tmp_path):
        # the complex flow of the rounded sec, tan and omega was off by 1.4e-7
        out = tmp_path / "traj.csv"
        assert main(["trajectory", "--theta", "1.5697963267948967", "--out", str(out)]) == 0
        _, columns = read_csv(out)
        bloch = np.column_stack([columns["s_x"], columns["s_y"], columns["s_z"]])
        exact = pure_bloch_trajectory(1.5697963267948967, up_y(), columns["t"], dps=50)
        assert np.max(np.abs(bloch - exact)) <= 1e-15

    def test_distance_against_50_digits(self, tmp_path):
        # the angle from the flow of up_y to down_y; the complex flow of the
        # rounded sec, tan and omega was off by 2.0e-4 at THETA_MAX
        out = tmp_path / "dist.csv"
        assert main(["distance", "--theta", self.CORNER, "--out", str(out)]) == 0
        _, columns = read_csv(out)
        assert columns["delta"].size == 630
        rows = zip(columns["theta"], columns["t"], columns["delta"])
        worst = max(abs(d - geodesic(pure_flow(th, up_y(), t)[0], down_y())) for th, t, d in rows)
        assert worst <= 1e-15

    def test_lgi_against_50_digits(self, tmp_path):
        # a pure frame built from the rounded sec and tan missed these rows
        # by up to 6.8e-7 and 1.7e-6
        out = tmp_path / "lgi.csv"
        assert main(["lgi", "--theta", "1.5697963267948967,1.5707953267948966",
                     "--out", str(out)]) == 0
        _, columns = read_csv(out)
        rows = zip(columns["theta"], columns["t"], columns["c12"], columns["c23"],
                   columns["c13"], columns["k3"])
        worst = max(
            max(abs(a - b) for a, b in zip(values, closed_form_k3(theta, t)))
            for theta, t, *values in rows
        )
        assert worst <= 1e-14

    def test_scan_against_50_digits(self, tmp_path):
        # the K3 maximum can only lie above the canonical value (2.1e-8 above
        # it here) and re-evaluates through the engine; the speed maximum is
        # compared with 50 digits, since the float closed form is itself off
        # by 1.6e-11 at this theta
        out = tmp_path / "scan.json"
        assert main(["scan", "--theta", "1.5697963267948967", "--budget", "3000",
                     "--seed", "2", "--format", "json", "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        k3, v = payload["k3"][0], payload["speed"][0]
        theta = k3["theta"]
        with mpmath.workdps(50):
            s = mpmath.sin(mpmath.mpf(theta))
            assert k3["objective"] >= 1 + s + s * s - mpmath.mpf(1e-15)
            assert abs(v["objective"] / ((1 + s) / (1 - s)) - 1) <= 2e-15
        am = k3["argmax"]
        engine = CorrelatorEngine(NHHamiltonian.canonical(theta), k3["kappa"])
        again = engine.k3(
            state_from_bloch_angles(am["theta_s"], am["phi_s"]),
            Observable.from_angles(am["theta_q"], am["phi_q"]),
            am["t1"],
            am["t2"],
            am["t3"],
        ).k3
        assert again == k3["objective"]

    def test_rescaled_distance_against_50_digits(self, tmp_path):
        # the flow of cos(theta) H(theta) = sigma_x + i sin(theta) sigma_z
        # from up_z and down_z: delta is their geodesic angle and trace_d its
        # sine (measured 4.4e-16 and 3.3e-16)
        out = tmp_path / "dist.csv"
        assert main(["distance", "--rescaled", "--theta", self.CORNER, "--out", str(out)]) == 0
        _, columns = read_csv(out)
        assert columns["delta"].size == 630
        worst_delta = worst_trace = 0.0
        rows = zip(columns["theta"], columns["t"], columns["delta"], columns["trace_d"])
        for th, t, delta, trace_d in rows:
            a, b = (pure_flow(th, psi, t, scale=math.cos(th))[0] for psi in (up_z(), down_z()))
            angle = geodesic(a, b)
            worst_delta = max(worst_delta, abs(delta - angle))
            worst_trace = max(worst_trace, abs(trace_d - math.sin(angle)))
        assert worst_delta <= 1e-15
        assert worst_trace <= 1e-15

    def test_embed_corner_against_50_digits(self, tmp_path):
        # the direct route is within 6.7e-16 of the closed form at the exact
        # theta; the dilation is within 1.9e-12 of it, its worst row t = 1.55,
        # where the post-selection probability is 4.3e-4
        out = tmp_path / "embed.csv"
        assert main(["embed", "--delta", "1e-3", "--out", str(out)]) == 0
        metadata, columns = read_csv(out)
        theta = float(metadata["theta"])
        rows = columns["t"] <= math.pi / 2
        assert rows.sum() == 31
        worst = max(
            abs(k3 - closed_form_k3(theta, t)[3])
            for t, k3 in zip(columns["t"][rows], columns["k3_direct"][rows])
        )
        assert worst <= 7e-15
        assert np.max(np.abs(columns["k3_embedded"] - columns["k3_direct"])) <= 2e-11

    def test_embed_direct_meets_the_dilation(self, tmp_path):
        # the dilation reads only cos theta and sin theta; the direct route
        # was 6.3e-11 off it at delta = 1e-6
        out = tmp_path / "embed.csv"
        assert main(["embed", "--delta", "1e-6", "--out", str(out)]) == 0
        _, columns = read_csv(out)
        assert np.max(np.abs(columns["k3_direct"] - columns["k3_embedded"])) <= 1e-14


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

    def test_hermitian_limit(self, tmp_path):
        # at theta = 0 the metric is the identity and the dilation still works
        out = tmp_path / "embed.csv"
        assert main(["embed", "--theta", "0", "--tmax", "1.5",
                     "--step", "0.5", "--out", str(out)]) == 0
        _, columns = read_csv(out)
        np.testing.assert_allclose(columns["fidelity"], 1.0, atol=1e-10)
        np.testing.assert_allclose(columns["p_select"], 0.5, atol=1e-12)
        np.testing.assert_allclose(
            columns["k3_embedded"], columns["k3_direct"], atol=1e-10
        )


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

    @pytest.mark.parametrize(
        "command", ["lgi", "noise", "noisescan", "embed", "trajectory", "speed", "distance"]
    )
    def test_theta_refused_with_the_library_message(self, command, capsys):
        assert main([command, "--theta", "1.6"]) == 2
        assert capsys.readouterr().err == (
            "error: invalid parameters: theta must lie in [0, pi/2 - 1e-6], got 1.6\n"
        )

    def test_scan_budget_error_exits_2(self, capsys):
        assert main(["scan", "--theta", "0.5", "--budget", "10"]) == 2
        assert "scan" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["scan", "noisescan"])
    def test_negative_seed_is_named(self, command, capsys):
        assert main([command, "--theta", "0.5", "--budget", "700", "--seed", "-1"]) == 2
        assert capsys.readouterr().err == (
            "error: scan: seed must be a non-negative integer, got -1\n"
        )

    def test_embed_degenerate_corner_exits_2(self, capsys):
        assert main(["embed", "--delta", "0"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("command", ["embed", "noise", "noisescan"])
    def test_delta_below_the_domain_is_named(self, command, capsys):
        # the refusal names the delta the user typed, not the theta it maps to
        assert main([command, "--delta", "1e-7"]) == 2
        assert capsys.readouterr().err == (
            "error: invalid parameters: delta must be at least 1e-6, got 1e-07\n"
        )

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["lgi", "--theta", ""],
            ["noise", "--kappa", ""],
            ["scan", "--theta", ","],
            ["speed", "--theta", ""],
            ["distance", "--theta", " , "],
            ["noisescan", "--kappa", ""],
        ],
        ids=lambda argv: argv[0],
    )
    def test_empty_list_exits_2_naming_the_option(self, argv, tmp_path, capsys):
        # an empty list would write an empty table; it is refused instead
        out = tmp_path / "out.csv"
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(out)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {argv[1]}: expected at least one float" in captured.err
        assert captured.out == "" and not out.exists()

    def test_negative_step_exits_2(self, capsys):
        assert main(["trajectory", "--theta", "0.5", "--step", "-0.1"]) == 2
        capsys.readouterr()


class TestParserKeptPerProcess:
    # the commands of an in-process sweep, at their defaults
    SWEEP = [
        ["lgi", "--theta", "0.3,1.2"],
        ["noise"],
        ["embed"],
        ["trajectory", "--theta", "1.2", "--kappa", "0.01"],
        ["speed"],
        ["distance", "--rescaled"],
    ]

    def test_main_builds_the_parser_once(self, monkeypatch, capsys):
        builds = []
        build = nhlgi.cli.build_parser
        monkeypatch.setattr(nhlgi.cli, "build_parser", lambda: builds.append(1) or build())
        nhlgi.cli._parser.cache_clear()
        try:
            for _ in range(3):
                assert main(["speed", "--theta", "0.5", "--tmax", "0.1"]) == 0
        finally:
            nhlgi.cli._parser.cache_clear()
        capsys.readouterr()
        assert len(builds) == 1
        # build_parser still returns a fresh parser each call
        assert build() is not build()

    @pytest.mark.parametrize("argv", SWEEP, ids=lambda argv: argv[0])
    def test_second_run_writes_the_first_run_bytes(self, argv, tmp_path, capsys):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        assert main(argv + ["--out", str(first)]) == 0
        with pytest.raises(SystemExit) as exc:
            main([argv[0], "--no-such-option"])
        assert exc.value.code == 2
        assert main(argv + ["--out", str(second)]) == 0
        capsys.readouterr()
        assert second.read_bytes() == first.read_bytes()


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
