import csv
import json

import pytest

from vortexprop.runner import (
    SimulateOptions,
    cli_main,
    execute_run,
    parse_dt,
    suite_convergence,
)

from oracles import read_samples_csv


def run_cli(argv):
    return cli_main(argv)


class TestParseDt:
    def test_fraction(self):
        assert parse_dt("1/300") == pytest.approx(1 / 300)

    def test_float(self):
        assert parse_dt("0.05") == 0.05

    def test_zero_denominator_through_cli(self, tmp_path, capsys):
        # argparse turns only TypeError/ValueError into a usage error
        out = tmp_path / "r"
        assert run_cli(["simulate", "--dt", "1/0", "--out", str(out)]) == 2
        assert "argument --dt: invalid parse_dt value: '1/0'" in capsys.readouterr().err
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"dt": "1/0"}))
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "config key 'dt'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("dt", [["--dt", "-1/10"], ["--dt=-1/10"], ["--dt", "-0.1"]])
    def test_negative_dt_reaches_the_dt_check(self, tmp_path, capsys, dt):
        # a negative fraction is the flag's value, not an unknown option
        out = tmp_path / "r"
        assert run_cli(["simulate", "--system", "melon", *dt, "--out", str(out)]) == 1
        assert "dt_over_T=-0.1 must be finite and positive" in capsys.readouterr().err
        assert not out.exists()

    def test_step_count_overflowing_to_inf_prints_the_guard(self, tmp_path, capsys):
        out = tmp_path / "r"
        assert run_cli(["simulate", "--dt", "5e-324", "--total", "1", "--out", str(out)]) == 1
        assert ("error: total_over_T=1.0 in steps of dt_over_T=5e-324 exceeds the 10000000 "
                "step guard") in capsys.readouterr().err
        assert not out.exists()


class TestSimulateCommand:
    def test_writes_run_directory(self, tmp_path):
        out = tmp_path / "a"
        code = run_cli([
            "simulate", "--system", "melon", "--dt", "1/60", "--total", "1",
            "--pitch", "10", "--out", str(out), "--dump-hamiltonian", "--dump-circuit",
        ])
        assert code == 0
        for name in ("samples.csv", "manifest.json", "fig4.dat", "fig5.dat",
                     "fig6.dat", "plot.gp", "hamiltonian.json", "circuit.json"):
            assert (out / name).exists(), name

    def test_manifest_contents(self, tmp_path):
        out = tmp_path / "m"
        run_cli(["simulate", "--system", "melon", "--dt", "1/30", "--total", "1",
                 "--pitch", "10", "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["system"] == "melon"
        assert manifest["config"]["n_steps"] == 30
        assert manifest["config"]["initial_label"] == "10101010"
        assert manifest["constants"]["j_ev"] == pytest.approx(0.0325)
        assert manifest["constants"]["period_fs"] == pytest.approx(40.5054, abs=0.001)
        assert len(manifest["hamiltonian_hash"]) == 64

    VORTEX_AXES = {"b": "Y", "d": "X", "f": "Y", "h": "X"}

    COMBINED_AXES = {**VORTEX_AXES, "i": "X", "k": "Y", "m": "X"}
    BLOCK_KEYS = ("block_states", "diagonalised")

    @pytest.mark.parametrize("flags, want, blocks", [
        (["--system", "melon"], ("dense", 128, 12, VORTEX_AXES), {}),
        (["--system", "combined"], ("blocks", 4096, 10, COMBINED_AXES), {}),
        (["--system", "xxz", "--n", "10"], ("dense", 252, 9, {}), {}),
        (["--system", "xxz", "--n", "12"], ("ops", 924, 11, {}), {}),
        (["--system", "melon", "--exact"], ("exact blocks", 128, None, VORTEX_AXES),
         {"block_states": 16, "diagonalised": 2}),
        (["--system", "combined", "--exact"], ("exact blocks", 4096, None, COMBINED_AXES),
         {"block_states": 64, "diagonalised": 16}),
        (["--system", "xxz", "--exact"], ("expm", 70, None, {}), {}),
    ], ids=["melon", "combined", "xxz-10", "xxz-12", "melon-exact", "combined-exact",
            "xxz-exact"])
    def test_manifest_records_the_propagator(self, tmp_path, flags, want, blocks):
        out = tmp_path / "p"
        run_cli(["simulate", *flags, "--dt", "1/10", "--total", "0.4", "--pitch", "2",
                 "--out", str(out)])
        record = json.loads((out / "manifest.json").read_text())["propagator"]
        assert (record["kind"], record["stored_states"], record["ops_per_step"],
                record["conserved_sites"]) == want
        # exact block runs also record the block size and the eighs (one per orbit)
        assert {k: record[k] for k in self.BLOCK_KEYS if k in record} == blocks

    @pytest.mark.parametrize("system", ["melon", "combined"])
    def test_exact_block_reruns_are_byte_identical(self, tmp_path, system):
        args = ["simulate", "--system", system, "--exact", "--dt", "1/10", "--total", "0.6",
                "--pitch", "2"]
        for run in ("x", "y"):
            run_cli(args + ["--out", str(tmp_path / run)])
        for name in ("samples.csv", "manifest.json"):
            assert (tmp_path / "x" / name).read_bytes() == (tmp_path / "y" / name).read_bytes()

    @pytest.mark.parametrize("flags, norm_bound, energy_bound", [
        (["--system", "melon", "--exact"], 1e-12, 1e-12),
        (["--system", "combined", "--exact"], 1e-12, 1e-12),
        (["--system", "melon"], 1e-12, 0.02),  # criterion 5's Trotter bound, in J
    ], ids=["melon-exact", "combined-exact", "melon"])
    def test_manifest_records_run_health(self, tmp_path, flags, norm_bound, energy_bound):
        out = tmp_path / "h"
        run_cli(["simulate", *flags, "--dt", "1/10", "--total", "2", "--pitch", "2",
                 "--out", str(out)])
        health = json.loads((out / "manifest.json").read_text())["health"]
        assert sorted(health) == ["max_energy_drift", "max_norm_drift"]
        assert 0.0 <= health["max_norm_drift"] < norm_bound
        assert 0.0 <= health["max_energy_drift"] < energy_bound

    def test_csv_round_trip_through_cli(self, tmp_path):
        out = tmp_path / "r"
        run_cli(["simulate", "--system", "xxz", "--n", "4", "--delta", "1.0",
                 "--dt", "1/20", "--total", "1", "--pitch", "4", "--out", str(out)])
        header, rows = read_samples_csv(out / "samples.csv")
        assert header[0] == "step"
        assert rows.shape[0] == 6

    def test_deterministic_csv_bytes(self, tmp_path):
        args = ["simulate", "--system", "melon", "--dt", "1/30", "--total", "1",
                "--pitch", "6"]
        run_cli(args + ["--out", str(tmp_path / "x")])
        run_cli(args + ["--out", str(tmp_path / "y")])
        assert (tmp_path / "x/samples.csv").read_bytes() == (tmp_path / "y/samples.csv").read_bytes()
        assert (tmp_path / "x/manifest.json").read_bytes() == (tmp_path / "y/manifest.json").read_bytes()

    def test_exact_flag(self, tmp_path):
        out = tmp_path / "e"
        code = run_cli(["simulate", "--system", "melon", "--dt", "1/10", "--total", "1",
                        "--pitch", "2", "--exact", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["exact"] is True

    def test_chi_flag_changes_dynamics(self, tmp_path):
        outs = []
        for chi, name in ((0.0, "c0"), (0.4, "c4")):
            out = tmp_path / name
            run_cli(["simulate", "--system", "melon", "--dt", "1/30", "--total", "1",
                     "--pitch", "30", "--chi", str(chi), "--out", str(out)])
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["chi"] == chi
            outs.append((out / "samples.csv").read_bytes())
        assert outs[0] != outs[1]

    def test_dumped_circuit_replays_one_step(self, tmp_path):
        # the dump must be the compiled step bit for bit; that the run equals
        # this circuit to 1e-12 is test_evolve's test_kernel_step_equals_circuit_replay
        import numpy as np
        from vortexprop.circuit import compile_trotter_step
        from vortexprop.hamiltonian import build_hamiltonian
        from vortexprop.lattice import build_system
        from vortexprop.statevector import apply_circuit

        from oracles import circuit_from_dict, init_basis_state

        out = tmp_path / "d"
        run_cli(["simulate", "--system", "melon", "--dt", "1/10", "--total", "0.1",
                 "--pitch", "1", "--out", str(out), "--dump-circuit"])
        dumped = circuit_from_dict(json.loads((out / "circuit.json").read_text()))
        compiled = compile_trotter_step(build_hamiltonian(build_system("melon")), 1 / 10)
        replays = [apply_circuit(init_basis_state("10101010"), c) for c in (dumped, compiled)]
        assert np.array_equal(replays[0].amps, replays[1].amps)

    def test_config_file_then_flags_win(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "xxz", "n": 4, "dt": "1/20",
                                   "total": 2.0, "pitch": 4}))
        out = tmp_path / "c"
        code = run_cli(["simulate", "--config", str(cfg), "--total", "1",
                        "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["system"] == "xxz"      # from config file
        assert manifest["config"]["total_over_T"] == 1.0  # flag wins
        assert manifest["config"]["pitch"] == 4

    def test_abbreviated_flag_beats_config_file(self, tmp_path):
        # argparse accepts the unambiguous prefix --tot for --total
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "xxz", "n": 4, "dt": "1/20", "total": 2.0}))
        out = tmp_path / "t"
        assert run_cli(["simulate", "--config", str(cfg), "--tot", "1", "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["total_over_T"] == 1.0
        assert manifest["config"]["n_steps"] == 20

    @pytest.mark.parametrize("config, message", [
        ({"pitch": True, "dt": 0.1, "total": 0.3},
         "config key 'pitch': expected a string or a number, got True"),
        ({"exact": "no", "dt": 0.1, "total": 0.3},
         "config key 'exact': expected true or false, got 'no'"),
        ({"pitch": 2.5}, "config key 'pitch': invalid int value 2.5"),
        ({"system": "xxz", "n": 4.0}, "config key 'n': invalid int value 4.0"),
        ({"system": "pyramid"}, "config key 'system': 'pyramid' is not one of"),
        ({"total": None}, "config key 'total': expected a string or a number, got None"),
        (3, "error: config file must hold a JSON object"),
        ("dt", "error: config file must hold a JSON object"),
        (["dt"], "error: config file must hold a JSON object"),
        (None, "error: config file must hold a JSON object"),
    ])
    def test_config_value_checked_as_its_flag_exit_1(self, tmp_path, capsys, config, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "r"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_config_values_take_the_flag_types(self, tmp_path):
        # a number for a float flag, text for an int flag, a bool for a switch
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "xxz", "n": "4", "dt": 0.1, "total": 1,
                                   "pitch": "5", "exact": True}))
        out = tmp_path / "t"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        config = json.loads((out / "manifest.json").read_text())["config"]
        assert (config["n"], config["pitch"], config["exact"]) == (4, 5, True)
        assert isinstance(config["total_over_T"], float)

    def test_unknown_config_key_fails(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"banana": 1}))
        assert run_cli(["simulate", "--config", str(cfg)]) == 1

    def test_bad_flags_exit_2(self, capsys):
        assert run_cli(["simulate", "--system", "pyramid"]) == 2
        capsys.readouterr()

    def test_runtime_error_exit_1(self, tmp_path):
        # total not an integer multiple of dt
        assert run_cli(["simulate", "--dt", "0.3", "--total", "1",
                        "--out", str(tmp_path / "z")]) == 1

    @pytest.mark.parametrize("argv, message", [
        (["--system", "xxz", "--chi", "0.5"], "chi=0.5 has no effect on the XXZ chain"),
        (["--system", "melon", "--delta", "2"], "delta=2.0 has no effect on the melon system"),
        (["--system", "melon", "--n", "5"], "n=5 has no effect on the melon system"),
        (["--system", "melon", "--chi", "nan"], "chi=nan must be finite"),
        (["--system", "xxz", "--delta", "inf"], "delta=inf must be finite"),
        (["--system", "melon", "--dt", "inf"], "dt_over_T=inf must be finite and positive"),
        (["--system", "melon", "--dt", "nan"], "dt_over_T=nan must be finite and positive"),
        (["--system", "melon", "--total", "-1"],
         "total_over_T=-1.0 must be finite and non-negative"),
    ])
    def test_ignored_parameter_exit_1(self, tmp_path, capsys, argv, message):
        out = tmp_path / "r"
        assert run_cli(["simulate", *argv, "--out", str(out)]) == 1
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_ignored_parameter_in_config_file_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "combined", "delta": 1.0}))
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r")]) == 1
        assert "delta=1.0 has no effect on the combined system" in capsys.readouterr().err

    def test_chain_length_on_vortex_kind_in_config_file_exit_1(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": "antimelon", "n": 8}))
        out = tmp_path / "r"
        assert run_cli(["simulate", "--config", str(cfg), "--out", str(out)]) == 1
        assert "n=8 has no effect on the antimelon system" in capsys.readouterr().err
        assert not out.exists()

    def test_chain_defaults_to_eight_sites(self, tmp_path):
        out = tmp_path / "x"
        assert run_cli(["simulate", "--system", "xxz", "--dt", "1/10", "--total", "0.2",
                        "--pitch", "1", "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["config"]["n"] == 8


class TestPlotData:
    def test_fig5_has_site_columns(self, tmp_path):
        opts = SimulateOptions(system="melon", dt=1 / 30, total=1.0, pitch=6,
                               out=str(tmp_path / "p"))
        result = execute_run(opts)
        lines = (tmp_path / "p/fig5.dat").read_text().splitlines()
        assert lines[0].startswith("# t_over_T mz_a")
        assert len(lines[1].split()) == 9  # t/T plus 8 site columns

    def test_fig6_columns(self, tmp_path):
        opts = SimulateOptions(system="melon", dt=1 / 30, total=1.0, pitch=6,
                               out=str(tmp_path / "p6"))
        result = execute_run(opts)
        lines = (tmp_path / "p6/fig6.dat").read_text().splitlines()
        assert len(lines[1].split()) == 3  # t/T, magnetization, svinm

    @pytest.mark.parametrize("system, dt, pitch", [("melon", 1 / 30, 6), ("combined", 0.1, 2)])
    def test_figure_cells_are_csv_cells(self, tmp_path, system, dt, pitch):
        # each column of fig4-fig6.dat is, string for string, the samples.csv
        # column of its name; fig6 names svinm_physical svinm
        result = execute_run(SimulateOptions(system=system, dt=dt, total=1.0, pitch=pitch,
                                             out=str(tmp_path)))
        with open(tmp_path / "samples.csv", newline="") as fh:
            header, *rows = list(csv.reader(fh))
        csv_columns = {name: [row[k] for row in rows] for k, name in enumerate(header)}
        for fig in ("fig4", "fig5", "fig6"):
            first, *lines = (tmp_path / f"{fig}.dat").read_text().splitlines()
            names = first.removeprefix("# ").split(" ")
            cells = [line.split(" ") for line in lines]
            assert len(cells) == len(result.samples)
            assert {len(row) for row in cells} == {len(names)}
            for k, name in enumerate(names):
                column = csv_columns["svinm_physical" if name == "svinm" else name]
                assert [row[k] for row in cells] == column, (fig, name)


class TestSuites:
    # the table1 suite runs the full 400T scans and is exercised by the
    # acceptance module; unit tests cover the cheaper suite plus CLI wiring
    def test_convergence_suite_through_cli(self, tmp_path, capsys):
        code = cli_main(["suite", "convergence", "--out", str(tmp_path / "s")])
        assert code == 0
        text = (tmp_path / "s/convergence/convergence.txt").read_text()
        assert "ratio" in text
        assert "max_amp_error" in capsys.readouterr().out

    def test_convergence_ratios_near_two(self, tmp_path):
        errors = suite_convergence(tmp_path / "conv")
        vals = [e for _, e in errors]
        for a, b in zip(vals, vals[1:]):
            assert 1.7 <= a / b <= 2.3

    def test_unknown_suite_exit_2(self, capsys):
        assert cli_main(["suite", "tableX"]) == 2
        assert cli_main(["suite", "fig4"]) == 2
        capsys.readouterr()

    def test_figures_suite_writes_under_figures(self, tmp_path, monkeypatch):
        import vortexprop.runner as runner_mod

        roots = []
        monkeypatch.setattr(runner_mod, "suite_figures", roots.append)
        assert cli_main(["suite", "figures", "--out", str(tmp_path)]) == 0
        assert roots == [tmp_path / "figures"]

    def test_table1_layout_four_rows(self, tmp_path, monkeypatch, capsys):
        import vortexprop.runner as runner_mod

        # a series that never recurs: every row is a lower bound at its t_max
        monkeypatch.setattr(runner_mod, "fidelity_scan",
                            lambda config, t_max: [(0.0, 1.0), (t_max, 0.5)])
        rows = runner_mod.suite_table1(tmp_path)
        assert [name for name, _ in rows] == [
            "XXZ,delta=0", "XXZ,delta=2", "(A),(B) single vortex",
            "(C) combined vortices",
        ]
        text = (tmp_path / "table1.txt").read_text()
        assert ">= 400" in text and "period(T)" in text
        capsys.readouterr()
