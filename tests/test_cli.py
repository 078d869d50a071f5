import dataclasses
import math
import os
import random
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from tdsim import (Ensemble, TDTransform, Trajectory, build_generator, build_sphere_lattice,
                   build_transform, plus_state, propagate)
from tdsim.cli import (
    ConfigError,
    PRESETS,
    RunConfig,
    _echo_items,
    _fmt,
    build_parser,
    main,
    parse_config,
    read_config_file,
    render_csv,
    resolve_configs,
    simulate,
    simulate_runs,
    spectrum_eigenvalues,
)
from tdsim.dynamics import KRYLOV_MAX_DIM

QUICK = dict(geometry="line", n="4", t_max="1.0", tracked="plus,2")
# fig4's six runs on 60 atoms, 101 rows each, by an explicit Krylov solver
SMALL_FIG4 = dict(target_count=60, t_max=1.0, solver="krylov")
SMALL_FIG4_FLAGS = ["--preset", "fig4", "--target-count", "60", "--t-max", "1.0",
                    "--solver", "krylov"]


def read_rows(text):
    meta, header, rows = {}, None, []
    for line in text.splitlines():
        if line.startswith("# "):
            key, _, value = line[2:].partition(" = ")
            meta[key] = value
        elif header is None:
            header = line.split(",")
        else:
            rows.append([float(x) for x in line.split(",")])
    return meta, header, np.array(rows)


@pytest.fixture
def no_generator(monkeypatch):
    """Make any generator build in ``simulate`` fail the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("generator built before the tracked check")

    monkeypatch.setattr("tdsim.cli.build_generator", refuse)


@pytest.fixture
def no_K(monkeypatch):
    """Make any build of the pair matrix ``Ensemble.K`` fail the test."""
    def refuse(self):
        raise AssertionError("K was built on the run path")

    monkeypatch.setattr(Ensemble, "K", property(refuse))


@pytest.fixture
def no_oracles(monkeypatch):
    """Make every verification oracle fail the test if anything calls it."""
    import tdsim

    def refuse(*args, **kwargs):
        raise AssertionError("a verification oracle was used on the run path")

    oracles = (tdsim.basis.ladder_weights, tdsim.oracle_expm,
               tdsim.assemble_td_direct, tdsim.transform_generator)
    found = set()
    for name, module in list(sys.modules.items()):
        if name == "tdsim" or name.startswith("tdsim."):
            for attr, value in list(vars(module).items()):
                if any(value is oracle for oracle in oracles):
                    monkeypatch.setattr(module, attr, refuse)
                    found.add(id(value))
    assert len(found) == len(oracles)
    monkeypatch.setattr(TDTransform, "S", property(refuse))
    monkeypatch.setattr(Ensemble, "Kvec", property(refuse))


@pytest.fixture
def counted(monkeypatch):
    """Count generator and eigenvalue-set builds, and the O(N) builds."""
    import tdsim.cli

    counts = {"generator": 0, "eigenvalues": 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in ("build_sphere_lattice", "partition_sections", "section_state",
                 "plus_state"):
        counts[name] = 0
        monkeypatch.setattr(f"tdsim.cli.{name}", counting(name, getattr(tdsim.cli, name)))
    monkeypatch.setattr("tdsim.cli.build_generator",
                        counting("generator", tdsim.cli.build_generator))
    monkeypatch.setattr("tdsim.cli.spectrum_eigenvalues",
                        counting("eigenvalues", tdsim.cli.spectrum_eigenvalues))
    return counts


class TestParseConfig:
    def test_preset_fig1a(self):
        [(suffix, config)] = parse_config({"preset": "fig1a"})
        assert suffix == ""
        assert config.geometry == "line"
        assert config.n == 100
        assert config.spacing == 1.0
        assert config.kernel == "sine"
        assert config.init == "plus"
        assert config.dt == 0.01
        assert config.t_max == 10.0

    def test_preset_with_override(self):
        [(_, config)] = parse_config({"preset": "fig1a", "spacing": "6.2832"})
        assert config.spacing == 6.2832
        assert config.n == 100

    def test_unknown_preset(self):
        with pytest.raises(ConfigError, match="unknown preset"):
            parse_config({"preset": "fig9"})

    def test_unknown_key(self):
        with pytest.raises(ConfigError, match="spacng"):
            parse_config({"spacng": "1.0"})

    def test_bad_values_name_the_key(self):
        for key, value, hint in [
            ("spacing", "-1", "spacing"),
            ("kernel", "cosine", "kernel"),
            ("n", "2.5", "n"),
            ("k0_vec", "1,0", "k0_vec"),
            ("init", "minus", "init"),
            ("tracked", "plus,zero", "tracked"),
            ("tracked", "plus,plus,1", "tracked index plus is repeated"),
            ("tracked", "2,3,minus", "tracked index 2 is repeated"),
            ("init", "ladder:1", "init index must be at least 2"),
            ("init", "section:1", "init index must be at least 2"),
        ]:
            with pytest.raises(ConfigError, match=hint):
                parse_config({key: value})

    def test_section_init_requires_sections(self, no_generator):
        [(_, config)] = parse_config({"init": "section:2"})
        with pytest.raises(ConfigError, match="sections"):
            list(simulate_runs([config]))
        [(_, config)] = parse_config({"init": "section:2", "sections": "2", "n": "4"})
        assert config.sections == 2

    @pytest.mark.parametrize("pairs,message", [
        ({"t_max": "1.0", "dt": "0.3"}, "t_max = 1.0 is not an integer multiple of dt = 0.3"),
        ({"init": "section:2"}, "init 'section:m' requires the sections key"),
        ({"init": "section:3", "sections": "2"}, "section state index must be in 2..2, got 3"),
    ], ids=["grid", "section_init", "section_index"])
    def test_only_a_run_rejects_run_only_keys(self, no_generator, pairs, message):
        [(_, config)] = parse_config({"geometry": "line", "n": "4", **pairs})
        with pytest.raises(ConfigError, match=f"^{re.escape(message)}$"):
            list(simulate_runs([config]))

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "geometry = line\n"
            "n = 6          # trailing comment\n"
            "\n"
            "kernel = exp\n"
        )
        pairs = read_config_file(cfg)
        assert pairs == {"geometry": "line", "n": 6, "kernel": "exp"}

    def test_config_file_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("spam = 1\n")
        with pytest.raises(ConfigError, match="spam"):
            read_config_file(cfg)

    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 6\nkernel = exp\n")
        [(_, config)] = parse_config({"n": "9"}, file=cfg)
        assert config.n == 9
        assert config.kernel == "exp"

    def test_fig4_expands_to_six_runs(self):
        configs = resolve_configs("fig4")
        assert len(configs) == 6
        suffixes = [s for s, _ in configs]
        assert suffixes == [
            "sine_plus", "sine_minus", "sine_3",
            "exp_plus", "exp_minus", "exp_3",
        ]
        kernels = {c.kernel for _, c in configs}
        assert kernels == {"sine", "exp"}
        for _, c in configs:
            assert c.target_count == 1000
            assert c.radius == 6.25 * c.spacing
            if c.init.startswith("section:"):
                assert c.section_axis == "z"

    def test_fig4_rejects_per_run_overrides(self):
        with pytest.raises(ConfigError, match="fixes"):
            resolve_configs("fig4", flag_pairs={"kernel": "sine"})
        # shared overrides are fine
        configs = resolve_configs("fig4", flag_pairs={"t_max": 2.0})
        assert all(c.t_max == 2.0 for _, c in configs)


class TestRunPipeline:
    def test_csv_columns_and_values(self):
        [(_, config)] = parse_config(dict(QUICK))
        meta, header, rows = read_rows(render_csv(simulate(config)))
        assert header == ["t", "pop_plus", "pop_2", "total"]
        assert rows[0][0] == 0.0
        assert abs(rows[0][1] - 1.0) < 1e-12  # starts in |+>
        assert abs(rows[0][3] - 1.0) < 1e-12
        assert rows.shape[0] == 101
        assert meta["solver"] == "eigen"
        assert meta["geometry"] == "line"

    def test_section_init_adds_pop_init(self):
        [(_, config)] = parse_config(
            {"geometry": "line", "n": "6", "sections": "2", "init": "section:2",
             "t_max": "1.0", "tracked": "none"}
        )
        _, header, rows = read_rows(render_csv(simulate(config)))
        assert header == ["t", "pop_init", "total"]
        assert abs(rows[0][1] - 1.0) < 1e-12

    def test_echo_reproduces_file_bit_exactly(self, tmp_path):
        [(_, config)] = parse_config(dict(QUICK))
        first = render_csv(simulate(config))
        echo_lines = [l[2:] for l in first.splitlines() if l.startswith("# ")]
        cfg = tmp_path / "echo.cfg"
        cfg.write_text("\n".join(echo_lines) + "\n")
        [(_, config2)] = parse_config({}, file=cfg)
        second = render_csv(simulate(config2))
        assert first == second

    def test_repeat_runs_bit_identical(self):
        [(_, config)] = parse_config(dict(QUICK))
        a = render_csv(simulate(config))
        b = render_csv(simulate(config))
        assert a == b

    def test_csv_floats_round_trip_exactly(self):
        [(_, config)] = parse_config(dict(QUICK))
        result = simulate(config)
        _, header, rows = read_rows(render_csv(simulate(config)))
        for j, (name, series) in enumerate(result.columns, start=1):
            assert rows[:, j].tolist() == series.values.tolist()
        assert rows[:, 0].tolist() == result.times.tolist()

    def test_krylov_and_eigen_solvers_agree_in_csv(self):
        base = dict(QUICK)
        [(_, c_eig)] = parse_config({**base, "solver": "eigen"})
        [(_, c_kry)] = parse_config({**base, "solver": "krylov"})
        _, _, rows_e = read_rows(render_csv(simulate(c_eig)))
        _, _, rows_k = read_rows(render_csv(simulate(c_kry)))
        assert np.abs(rows_e - rows_k).max() < 1e-8

    def test_stride_thins_output(self):
        [(_, config)] = parse_config({**QUICK, "stride": "10"})
        _, _, rows = read_rows(render_csv(simulate(config)))
        assert rows.shape[0] == 11

    def test_tracked_all(self):
        [(_, config)] = parse_config({**QUICK, "tracked": "all"})
        _, header, _ = read_rows(render_csv(simulate(config)))
        assert header == ["t", "pop_plus", "pop_2", "pop_3", "pop_4", "total"]

    def test_tracked_out_of_range(self, tmp_path):
        [(_, config)] = parse_config({**QUICK, "tracked": "9"})
        with pytest.raises(ConfigError, match="out of range"):
            simulate(config)

    def test_tracked_out_of_range_fails_before_the_generator(self, no_generator):
        [(_, config)] = parse_config({**QUICK, "tracked": "5"})
        with pytest.raises(ConfigError, match="tracked index 5 out of range 1..4"):
            simulate(config)

    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    @pytest.mark.parametrize("solver", ["krylov", "eigen"])
    @pytest.mark.parametrize("init", ["ladder:2", "section:2"])
    def test_run_path_uses_no_oracle(self, no_oracles, kernel, solver, init):
        [(_, config)] = parse_config(
            {"geometry": "sphere", "radius": "2.0", "sections": "2", "kernel": kernel,
             "solver": solver, "init": init, "t_max": "0.5", "tracked": "all"})
        result = simulate(config)
        assert result.config.solver == solver
        assert len(result.columns) == result.ensemble.n + 1 + (init == "section:2")

    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    @pytest.mark.parametrize("geometry", [["--geometry", "line", "--n", "40"],
                                          ["--geometry", "sphere", "--radius", "2.5",
                                           "--sections", "2", "--init", "section:2"]])
    def test_lattice_runs_build_no_K(self, tmp_path, no_K, geometry, kernel):
        assert main(["run", *geometry, "--kernel", kernel, "--t-max", "0.5",
                     "--output", str(tmp_path / "run.csv")]) == 0

    def test_lattice_spectrum_builds_no_K(self, tmp_path, no_K):
        assert main(["spectrum", "--preset", "fig2", "--output", str(tmp_path / "s.csv")]) == 0

    def test_a_few_tracked_states_keep_only_their_td_columns(self):
        def arrays_in(value):
            if isinstance(value, np.ndarray):
                yield value
            elif dataclasses.is_dataclass(value):
                for field in dataclasses.fields(value):
                    yield from arrays_in(getattr(value, field.name))
            elif isinstance(value, (list, tuple)):
                for item in value:
                    yield from arrays_in(item)

        config = RunConfig(geometry="line", n=200, t_max=1.0, tracked="plus,2,3")
        result = simulate(config)
        td = result.td_trajectory
        assert td.amplitudes.shape == (101, 3)  # not (T, N)
        assert max(a.size for a in arrays_in(result)) < 101 * 200  # no T x N array is kept
        e = result.ensemble
        amplitudes = propagate(build_generator(e, "sine"), plus_state(e), 0.01, 1.0).amplitudes
        transform = build_transform(e)
        full, lead = transform.apply(amplitudes), transform.leading(amplitudes, 3)
        assert np.array_equal(lead[:, 1:], full[:, 1:3])
        assert np.abs(lead[:, 0] - full[:, 0]).max() < 1e-14
        assert np.abs(td.amplitudes - full[:, :3]).max() < 1e-14

    @pytest.mark.parametrize("argv", [
        ["--geometry", "line", "--n", "200", "--kernel", "exp", "--sections", "2",
         "--init", "section:2", "--tracked", "plus,2,3", "--t-max", "1.0"],
        ["--preset", "fig1a"]], ids=["krylov", "eigen"])
    def test_runs_form_no_fock_trajectory(self, tmp_path, monkeypatch, argv):
        assert main(["run", *argv, "--output", str(tmp_path / "plain.csv")]) == 0
        amplitudes = Trajectory.amplitudes

        def guarded(traj):
            if traj.basis == "fock":
                raise AssertionError("the run formed its T x N Fock trajectory")
            return amplitudes.func(traj)

        monkeypatch.setattr(Trajectory, "amplitudes", property(guarded))
        assert main(["run", *argv, "--output", str(tmp_path / "guarded.csv")]) == 0
        assert (tmp_path / "guarded.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_render_csv_matches_the_per_value_rendering(self):
        def reference(result):  # one _fmt call per number, row by row
            lines = [f"# {k} = {v}" for k, v in _echo_items(result.config)]
            lines.append(",".join(["t"] + [name for name, _ in result.columns]))
            times = result.times
            values = [series.values for _, series in result.columns]
            for i in range(times.size):
                lines.append(",".join([_fmt(times[i])] + [_fmt(v[i]) for v in values]))
            return "\n".join(lines) + "\n"

        config = RunConfig(geometry="sphere", radius=2.0, sections=2, init="section:2",
                           kernel="exp", t_max=1.0, tracked="all")
        result = simulate(config)
        text = render_csv(result)
        assert text == reference(result)
        body = [line for line in text.splitlines() if not line.startswith("# ")]
        assert body[0].split(",")[1:] == [name for name, _ in result.columns]
        table = np.array([[float(x) for x in row.split(",")] for row in body[1:]])
        expect = np.column_stack([result.times]
                                 + [series.values for _, series in result.columns])
        assert table.shape == expect.shape and table.shape[1] == result.ensemble.n + 3
        assert np.array_equal(table.view(np.uint64), expect.view(np.uint64))

    def test_render_includes_resolved_solver(self):
        [(_, config)] = parse_config(dict(QUICK))
        assert config.solver == "auto"
        text = render_csv(simulate(config))
        assert "# solver = eigen" in text


class TestSpectrum:
    def test_single_atom_row(self, tmp_path):
        path = tmp_path / "spec.csv"
        assert main(["spectrum", "--geometry", "line", "--n", "1", "--output", str(path)]) == 0
        lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "index,real,imag"
        assert lines[1] == "0,-1.0,0.0"

    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    def test_spectrum_csv_matches_the_per_value_rendering(self, tmp_path, kernel):
        [(_, config)] = resolve_configs("fig2", flag_pairs={"kernel": kernel})
        eig = spectrum_eigenvalues(config)
        lines = [f"# {k} = {v}" for k, v in _echo_items(config, ["kernel", "gamma"])]
        lines.append("index,real,imag")
        lines += [f"{i},{_fmt(v.real)},{_fmt(v.imag)}" for i, v in enumerate(eig)]
        out = tmp_path / "s.csv"
        assert main(["spectrum", "--preset", "fig2", "--kernel", kernel,
                     "--output", str(out)]) == 0
        assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
        if kernel == "exp":  # rows of both signs of the imaginary part
            assert eig.imag.min() < 0 < eig.imag.max()

    def test_two_atom_analytic_eigenvalues(self):
        # K = pi/2 line: eigenvalues -gamma (1 +/- 2/pi)
        [(_, config)] = parse_config({"geometry": "line", "n": "2",
                                      "spacing": repr(math.pi / 2)})
        eig = spectrum_eigenvalues(config)
        expect = np.sort([-(1.0 + 2.0 / math.pi), -(1.0 - 2.0 / math.pi)])
        np.testing.assert_allclose(eig.real, expect, atol=1e-12)
        np.testing.assert_allclose(eig.imag, 0.0, atol=1e-12)

    def test_sine_spectrum_real_and_bounded(self):
        [(_, config)] = parse_config({"geometry": "sphere", "radius": "2.0"})
        eig = spectrum_eigenvalues(config)
        n = eig.size
        assert np.abs(eig.imag).max() < 1e-10
        assert eig.real.max() < 1e-8
        assert eig.real.min() > -n - 1e-8

    def test_sine_spectrum_is_exactly_real(self, tmp_path):
        path = tmp_path / "spec.csv"
        assert main(["spectrum", "--geometry", "sphere", "--radius", "3.0",
                     "--target-count", "121", "--output", str(path)]) == 0
        rows = [l.split(",") for l in path.read_text().splitlines()
                if not l.startswith("#")][1:]
        assert len(rows) == 121
        assert all(imag == "0.0" for _, _, imag in rows)
        M = build_generator(build_sphere_lattice(3.0, 1.0, target_count=121), "sine").matrix
        ref = np.linalg.eigvals(M.astype(complex))
        ref = ref[np.lexsort((ref.imag, ref.real))]
        assert np.abs(np.array([float(real) for _, real, _ in rows]) - ref).max() < 1e-12

    def test_exp_spectrum_has_lamb_shifts(self):
        [(_, config)] = parse_config({"geometry": "sphere", "radius": "2.0",
                                      "kernel": "exp"})
        eig = spectrum_eigenvalues(config)
        assert np.abs(eig.imag).max() > 1e-3

    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    def test_spectrum_uses_no_oracle(self, no_oracles, kernel):
        [(_, config)] = parse_config({"geometry": "sphere", "radius": "2.0",
                                      "kernel": kernel})
        assert spectrum_eigenvalues(config).size == 33


class TestMainEntry:
    def test_empty_args_usage_error(self, capsys):
        assert main([]) == 2
        err = capsys.readouterr().err
        assert "fig1a" in err and "fig4" in err

    def test_presets_listing(self, capsys):
        assert main(["presets"]) == 0
        out = capsys.readouterr().out
        for name in PRESETS:
            assert name in out

    def test_run_subcommand(self, tmp_path, capsys):
        out = tmp_path / "mini.csv"
        code = main(["run", "--geometry", "line", "--n", "3", "--t-max", "0.5",
                     "--tracked", "plus", "--output", str(out)])
        assert code == 0
        assert out.exists()
        assert str(out) in capsys.readouterr().out

    def test_run_bad_flag_value(self, capsys):
        code = main(["run", "--geometry", "line", "--n", "0"])
        assert code == 2
        assert "n" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "spectrum"])
    def test_run_infeasible_geometry(self, tmp_path, capsys, no_generator, command):
        for geometry, message in [(["--radius", "1.0", "--target-count", "999"], "target_count"),
                                  (["--radius", "3", "--spacing", "1e200"], "overflow")]:
            code = main([command, "--geometry", "sphere", *geometry,
                         "--output", str(tmp_path / "x.csv")])
            assert code == 2
            assert message in capsys.readouterr().err

    def test_out_of_memory_is_a_one_line_error(self, tmp_path, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise MemoryError("Unable to allocate 58.2 TiB for an array")

        monkeypatch.setattr("tdsim.cli.build_sphere_lattice", refuse)
        code = main(["run", "--geometry", "sphere", "--radius", "1e4",
                     "--output", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == "tdsim: Unable to allocate 58.2 TiB for an array\n"
        assert not (tmp_path / "x.csv").exists()

    def test_spectrum_subcommand(self, tmp_path):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--geometry", "line", "--n", "2",
                     "--output", str(out)])
        assert code == 0
        assert out.read_text().count("\n") >= 3

    def test_t_max_not_a_multiple_of_dt_is_rejected(self, tmp_path, capsys):
        code = main(["run", "--geometry", "line", "--n", "3", "--t-max", "1.0",
                     "--dt", "0.3", "--output", str(tmp_path / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert "1.0" in err and "0.3" in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("n,run_only,message", [
        ("3", ["--t-max", "1.0", "--dt", "0.3"],
         "t_max = 1.0 is not an integer multiple of dt = 0.3"),
        ("4", ["--init", "section:2"], "init 'section:m' requires the sections key"),
    ], ids=["grid", "section_init"])
    def test_spectrum_ignores_run_only_keys(self, tmp_path, capsys, n, run_only, message):
        base = ["--geometry", "line", "--n", n]
        plain, extra = tmp_path / "plain.csv", tmp_path / "extra.csv"
        assert main(["spectrum", *base, "--output", str(plain)]) == 0
        assert main(["spectrum", *base, *run_only, "--output", str(extra)]) == 0
        assert extra.read_text() == plain.read_text()
        capsys.readouterr()
        assert main(["run", *base, *run_only, "--output", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == f"tdsim: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_spectrum_ignores_sections(self, tmp_path, capsys):
        base = ["--geometry", "line", "--n", "3"]
        plain, split = tmp_path / "plain.csv", tmp_path / "split.csv"
        assert main(["spectrum", *base, "--output", str(plain)]) == 0
        assert main(["spectrum", *base, "--sections", "5", "--output", str(split)]) == 0
        assert split.read_text() == plain.read_text()
        capsys.readouterr()
        assert main(["run", *base, "--sections", "5", "--output", str(tmp_path / "x.csv")]) == 2
        assert capsys.readouterr().err == "tdsim: cannot split 3 atoms into 5 sections\n"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flags,message", [
        (["--init", "ladder:5"], "ladder index must be in 2..3, got 5"),
        (["--sections", "5"], "cannot split 3 atoms into 5 sections"),
    ], ids=["ladder", "sections"])
    def test_bad_init_index_or_section_count_exits_2_before_the_generator(
            self, tmp_path, capsys, no_generator, flags, message):
        out = tmp_path / "x.csv"
        assert main(["run", "--geometry", "line", "--n", "3", *flags, "--output", str(out)]) == 2
        assert capsys.readouterr().err == f"tdsim: {message}\n"
        assert not out.exists()

    def test_retired_rk4_solver_exits_2_before_the_generator(self, tmp_path, capsys,
                                                              no_generator):
        cfg = tmp_path / "rk4.cfg"
        cfg.write_text("geometry = line\nn = 3\nt_max = 0.5\nsolver = rk4\n")
        out = tmp_path / "x.csv"
        for source in (["--geometry", "line", "--n", "3", "--solver", "rk4"],
                       ["--config", str(cfg)]):
            assert main(["run", *source, "--output", str(out)]) == 2
            assert capsys.readouterr().err == (
                "tdsim: solver must be one of ['auto', 'eigen', 'krylov'], got 'rk4'\n")
            assert list(tmp_path.iterdir()) == [cfg]

    def test_config_file_output_names_the_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "run.cfg"
        cfg.write_text("geometry = line\nn = 3\nt_max = 0.5\noutput = mine.csv\n")
        assert main(["run", "--config", str(cfg)]) == 0
        assert (tmp_path / "mine.csv").exists()
        assert not (tmp_path / "run.csv").exists()
        assert main(["run", "--config", str(cfg), "--output", "flag.csv"]) == 0
        assert (tmp_path / "flag.csv").read_text() == (tmp_path / "mine.csv").read_text()
        assert not (tmp_path / "run.csv").exists()

    def test_bad_tracked_index_exits_before_the_generator(self, tmp_path, monkeypatch,
                                                          capsys, no_generator):
        monkeypatch.chdir(tmp_path)
        assert main(["run", "--preset", "fig4", "--tracked", "1001"]) == 2
        assert "tracked index 1001 out of range 1..1000" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_unreadable_config_is_a_one_line_error(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "missing.cfg")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tdsim: ") and err.count("\n") == 1
        assert "missing.cfg" in err

    def test_unwritable_output_is_a_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "nonexistent" / "x.csv"
        code = main(["run", "--geometry", "line", "--n", "3", "--t-max", "0.5",
                     "--output", str(out)])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("tdsim: ") and err.count("\n") == 1
        assert "x.csv" in err

    def test_missing_output_directory_exits_before_the_first_run(self, tmp_path, capsys,
                                                                  no_generator):
        out = tmp_path / "nonexistent" / "x.csv"
        assert main(["run", "--preset", "fig4", "--output", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("tdsim: ") and err.count("\n") == 1
        assert "x_sine_plus.csv" in err
        assert not list(tmp_path.iterdir())

    def test_an_output_directory_exits_before_the_first_run(self, tmp_path, capsys,
                                                             no_generator):
        assert main(["run", "--geometry", "line", "--n", "3", "--output", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"tdsim: cannot write {tmp_path}: it is a directory\n"
        assert not list(tmp_path.iterdir())

    def test_auto_solver_above_the_eigen_limit_echoes_krylov(self, tmp_path):
        out = tmp_path / "big.csv"
        assert main(["run", "--geometry", "line", "--n", "501", "--t-max", "0.02",
                     "--output", str(out)]) == 0
        assert "# solver = krylov\n" in out.read_text()

    @pytest.mark.parametrize("init", ["plus", "ladder:2"])
    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    @pytest.mark.parametrize("geometry", [
        ["--geometry", "line", "--n", str(KRYLOV_MAX_DIM + 1), "--spacing", "0.8"],
        ["--geometry", "sphere", "--radius", "4.5", "--target-count", str(KRYLOV_MAX_DIM + 1)],
    ])
    def test_auto_just_past_the_switch_matches_eigen(self, tmp_path, geometry, kernel, init):
        argv = ["run", *geometry, "--kernel", kernel, "--init", init, "--tracked", "plus,2,3",
                "--t-max", "10"]
        rows = {}
        for solver in ("auto", "eigen"):
            out = tmp_path / f"{solver}.csv"
            assert main([*argv, "--solver", solver, "--output", str(out)]) == 0
            meta, header, rows[solver] = read_rows(out.read_text())
            assert meta["solver"] == ("krylov" if solver == "auto" else "eigen")
        assert rows["auto"].shape == rows["eigen"].shape == (1001, len(header))
        assert np.abs(rows["auto"] - rows["eigen"]).max() <= 1e-10

    @pytest.mark.parametrize("preset", ["fig1a", "fig2"])
    def test_auto_presets_at_or_below_the_switch_echo_eigen(self, tmp_path, preset):
        out = tmp_path / "p.csv"
        assert main(["run", "--preset", preset, "--output", str(out)]) == 0
        assert "# solver = eigen\n" in out.read_text()

    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    @pytest.mark.parametrize("k0_vec,code", [("1e200,0,0", 0), ("1e-200,0,0", 0),
                                             ("1.5e308,1.5e308,0", 2)])
    def test_k0_vec_norm_neither_overflows_nor_underflows(self, tmp_path, capsys, kernel,
                                                          k0_vec, code):
        argv = ["run", "--geometry", "line", "--n", "3", "--t-max", "0.1", "--kernel", kernel,
                "--k0-vec", k0_vec, "--output", str(tmp_path / "k.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else
                       f"tdsim: k0_vec must be finite with positive norm, got '{k0_vec}'\n")

    @pytest.mark.parametrize("kernel", ["sine", "exp"])
    @pytest.mark.parametrize("command", ["run", "spectrum"])
    @pytest.mark.parametrize("geometry,k0_vec", [
        (["--geometry", "line", "--n", "3"], "1e308,1e308,0"),
        (["--geometry", "sphere", "--radius", "3"], "1e308,1e308,0"),  # k0.r_j of both signs
        (["--geometry", "line", "--n", "3"], "0,1e308,0"),  # k0.r_j = 0, but K overflows
    ], ids=["line", "sphere", "line-perpendicular"])
    def test_overflowing_k0_vec_is_a_config_error(self, tmp_path, capsys, kernel, command,
                                                  geometry, k0_vec):
        argv = [command, *geometry, "--kernel", kernel, "--k0-vec", k0_vec,
                "--output", str(tmp_path / "k.csv")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 2
        assert capsys.readouterr().err == (
            "tdsim: k0 |r_j - r_i| overflows; shrink k0_vec or the ensemble\n")

    def test_an_oversized_time_grid_is_a_config_error(self, tmp_path, capsys):
        argv = ["run", "--geometry", "line", "--n", "3", "--dt", "1e-12", "--t-max", "1.0",
                "--output", str(tmp_path / "g.csv")]
        assert main(argv) == 2
        assert "keeps 1e+12 rows" in capsys.readouterr().err

    def test_importing_the_cli_leaves_scipy_unloaded(self):
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = "import sys, tdsim.cli; print('scipy' in sys.modules)"
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True, check=True)
        assert done.stdout == "False\n"

    def test_one_parser_serves_every_call_of_a_process(self, tmp_path):
        assert build_parser() is build_parser()
        calls = [["run", "--geometry", "line", "--n", "5", "--t-max", "0.5",
                  "--tracked", "plus,3"],
                 ["spectrum", "--geometry", "sphere", "--radius", "2.0", "--kernel", "exp"]]
        (tmp_path / "fresh").mkdir()
        (tmp_path / "same").mkdir()
        env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
        for i, argv in enumerate(calls):
            out = ["--output", str(tmp_path / "fresh" / f"{i}.csv")]
            subprocess.run([sys.executable, "-m", "tdsim.cli", *argv, *out], env=env,
                           check=True, capture_output=True)
        for i, argv in enumerate(calls):
            assert main([*argv, "--output", str(tmp_path / "same" / f"{i}.csv")]) == 0
        for i in range(len(calls)):
            same, fresh = (tmp_path / side / f"{i}.csv" for side in ("same", "fresh"))
            assert same.read_bytes() == fresh.read_bytes()

    def test_preset_run_writes_named_file(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--preset", "fig2", "--t-max", "0.1"])
        assert code == 0
        assert (tmp_path / "fig2.csv").exists()

    def test_multirun_output_names(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["run", "--preset", "fig4", "--t-max", "0.02", "--n", "0"])
        assert code == 2  # bad override still caught before any run
        code = main(["run", "--preset", "fig4", "--t-max", "0.02",
                     "--target-count", "8", "--radius", "2.0", "--spacing", "1.0"])
        assert code == 0
        for kernel in ("sine", "exp"):
            for tag in ("plus", "minus", "3"):
                assert (tmp_path / f"fig4_{kernel}_{tag}.csv").exists()


class TestGroupedRuns:
    """One CLI call builds each distinct generator once: fig4's six runs use two."""

    def test_fig4_builds_two_generators(self, tmp_path, capsys, counted):
        argv = ["run", *SMALL_FIG4_FLAGS, "--output", str(tmp_path / "g.csv")]
        assert main(argv) == 0
        assert counted["generator"] == 2
        assert main(argv) == 0  # nothing is kept from one call to the next
        assert counted["generator"] == 4
        suffixes = [suffix for suffix, _ in resolve_configs("fig4")]
        assert capsys.readouterr().out.split() == [str(tmp_path / f"g_{s}.csv")
                                                   for s in suffixes] * 2

    def test_each_member_is_prepared_once(self, tmp_path, counted):
        assert main(["run", *SMALL_FIG4_FLAGS, "--output", str(tmp_path / "g.csv")]) == 0
        builds = ("build_sphere_lattice", "partition_sections", "section_state",
                  "plus_state", "generator")
        assert [counted[name] for name in builds] == [6, 4, 4, 2, 2]

    def test_the_whole_call_is_checked_before_any_generator(self, no_generator):
        ok_sine = RunConfig(n=3)
        bad_exp = RunConfig(n=3, kernel="exp", init="ladder:5")
        with pytest.raises(ConfigError, match=r"^ladder index must be in 2\.\.3, got 5$"):
            list(simulate_runs([ok_sine, bad_exp]))

    def test_each_csv_equals_its_own_simulate(self, tmp_path, counted):
        assert main(["run", *SMALL_FIG4_FLAGS, "--output", str(tmp_path / "g.csv")]) == 0
        assert counted["generator"] == 2
        for suffix, config in resolve_configs("fig4", flag_pairs=SMALL_FIG4):
            alone = render_csv(simulate(config))
            assert (tmp_path / f"g_{suffix}.csv").read_text() == alone

    def test_simulate_runs_shares_one_generator_per_kernel(self, counted):
        configs = [config for _, config in resolve_configs("fig4", flag_pairs=SMALL_FIG4)]
        grouped = [render_csv(result) for result in simulate_runs(configs)]
        assert counted["generator"] == 2
        assert grouped == [render_csv(simulate(config)) for config in configs]

    def test_spectrum_computes_two_eigenvalue_sets(self, tmp_path, counted):
        argv = ["spectrum", "--preset", "fig4", "--target-count", "60"]
        assert main([*argv, "--output", str(tmp_path / "s.csv")]) == 0
        assert counted["eigenvalues"] == 2
        for suffix, _ in resolve_configs("fig4", flag_pairs={"target_count": 60}):
            member = (tmp_path / f"s_{suffix}.csv").read_text()
            echo = [l[2:] for l in member.splitlines() if l.startswith("# ")]
            (tmp_path / "echo.cfg").write_text("\n".join(echo) + "\n")  # re-run from its echo
            assert main(["spectrum", "--config", str(tmp_path / "echo.cfg"),
                         "--output", str(tmp_path / "alone.csv")]) == 0
            assert (tmp_path / "alone.csv").read_text() == member

    def test_a_bad_member_fails_before_any_generator(self, tmp_path, capsys, no_generator):
        # two atoms hold fig4's two sections but not its three
        argv = ["run", "--preset", "fig4", "--target-count", "2", "--output",
                str(tmp_path / "g.csv")]
        assert main(argv) == 2
        assert capsys.readouterr().err == "tdsim: cannot split 2 atoms into 3 sections\n"
        assert not list(tmp_path.iterdir())

    def test_grouped_csvs_pass_the_benchmark_output_gates(self, tmp_path, capsys,
                                                          monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1]))
        from perfbench import checks

        assert main(["run", *SMALL_FIG4_FLAGS, "--output", str(tmp_path / "g.csv")]) == 0
        paths = capsys.readouterr().out.split()
        parsed = [checks.check_run_csv(Path(p).read_text()) for p in paths]
        assert len(parsed) == 6
        checks.check_run_reference(parsed, random.Random(13), horizon=0.5)


class TestRunConfigDefaults:
    def test_defaults_are_paper_units(self):
        config = RunConfig()
        assert config.gamma == 1.0
        assert config.dt == 0.01
        assert np.linalg.norm(config.k0_vec) == 1.0
