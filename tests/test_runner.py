import json

import pytest

from vortexprop.observables import read_samples_csv
from vortexprop.runner import (
    SimulateOptions,
    cli_main,
    emit_plot_data,
    execute_run,
    parse_dt,
    suite_convergence,
)


def run_cli(argv):
    return cli_main(argv)


class TestParseDt:
    def test_fraction(self):
        assert parse_dt("1/300") == pytest.approx(1 / 300)

    def test_float(self):
        assert parse_dt("0.05") == 0.05


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
        from vortexprop.circuit import circuit_from_dict, compile_trotter_step
        from vortexprop.hamiltonian import build_hamiltonian
        from vortexprop.lattice import build_system
        from vortexprop.statevector import apply_circuit, init_basis_state

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

    def test_empty_tracked_omits_amplitude_file(self, tmp_path, capsys):
        from vortexprop.evolve import RunConfig, run_trotter
        from vortexprop.lattice import build_system
        config = RunConfig(system=build_system("melon"), dt_over_T=0.5,
                           total_over_T=1.0, tracked=())
        result = run_trotter(config)
        written = emit_plot_data(result, tmp_path / "noamp")
        names = {p.name for p in written}
        assert "fig4.dat" not in names
        assert "fig5.dat" in names


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

    def test_unknown_suite_exit_2(self):
        assert cli_main(["suite", "tableX"]) == 2

    def test_table1_layout_four_rows(self, tmp_path, monkeypatch, capsys):
        import vortexprop.runner as runner_mod
        from vortexprop.observables import PeriodEstimate

        monkeypatch.setattr(
            runner_mod, "semiclassical_period_scan",
            lambda config, t_max: PeriodEstimate(t_max, 0.999, t_max, lower_bound=True),
        )
        rows = runner_mod.suite_table1(tmp_path)
        assert [name for name, _ in rows] == [
            "XXZ,delta=0", "XXZ,delta=2", "(A),(B) single vortex",
            "(C) combined vortices",
        ]
        text = (tmp_path / "table1.txt").read_text()
        assert ">= 400" in text and "period(T)" in text
        capsys.readouterr()

    def test_jobs_default_from_environment(self, monkeypatch):
        from vortexprop.runner import build_parser
        monkeypatch.setenv("VORTEXPROP_JOBS", "3")
        args = build_parser().parse_args(["suite", "table1"])
        assert args.jobs == 3
        monkeypatch.delenv("VORTEXPROP_JOBS")
        args = build_parser().parse_args(["suite", "table1"])
        assert args.jobs == 1
