import numpy as np
import pytest

from ruinlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


SOLVE_FIG1_II = [
    "solve", "--a", "0.02", "--b", "0.1", "--c", "0.1",
    "--lambda", "0.09", "--m", "1", "--umax", "100", "--points", "200",
]


class TestSolveCommand:
    def test_csv_shape_and_footer(self, capsys):
        code, out, err = run(capsys, *SOLVE_FIG1_II)
        assert code == 0 and err == ""
        lines = out.strip().split("\n")
        assert lines[0] == "u,phi,dphi,ddphi"
        rows = [ln for ln in lines if not ln.startswith("#")][1:]
        assert len(rows) == 200
        footer = [ln for ln in lines if ln.startswith("#")]
        c0_line = next(ln for ln in footer if ln.startswith("# C0 = "))
        assert float(c0_line.split("=")[1]) == pytest.approx(0.295, abs=0.002)
        assert any(ln.startswith("# regime = main") for ln in footer)

    def test_round_trip_formatting(self, capsys):
        _, out, _ = run(capsys, *SOLVE_FIG1_II)
        rows = [ln for ln in out.strip().split("\n")[1:] if not ln.startswith("#")]
        for row in rows[::37]:
            rebuilt = ",".join(f"{float(tok):.12g}" for tok in row.split(","))
            assert rebuilt == row

    def test_preset_riskfree(self, capsys):
        code, out, _ = run(capsys, "solve", "--preset", "fig3-II")
        assert code == 0
        c0_line = next(ln for ln in out.split("\n") if ln.startswith("# C0 = "))
        assert float(c0_line.split("=")[1]) == pytest.approx(0.2046, rel=1e-3)

    def test_preset_capital_stock_reports_p1(self, capsys):
        code, out, _ = run(capsys, "solve", "--preset", "fig5-I", "--umax", "20")
        assert code == 0
        p1_line = next(ln for ln in out.split("\n") if ln.startswith("# P1 = "))
        assert float(p1_line.split("=")[1]) == pytest.approx(0.0595238, rel=1e-4)

    def test_log_p1_reported_when_p1_underflows(self, capsys):
        # mu1 = 200, 2a/b^2 = 30, m = 100: P1 underflows to 0, log P1 does not
        code, out, _ = run(capsys, "solve", "--a", "0.15", "--b", "0.1", "--c", "0",
                           "--lambda", "229", "--m", "100", "--points", "11")
        assert code == 0
        footer = [ln for ln in out.split("\n") if ln.startswith("# ")]
        p1 = footer.index("# P1 = 0")
        assert footer[p1 + 1].startswith("# log_P1 = ")
        assert float(footer[p1 + 1].split("=")[1]) == pytest.approx(-1989.7, abs=0.05)

    def test_log_k_reported_when_k_overflows(self, capsys):
        # fraction 0.05 of ROADMAP item 2's fixed-fraction example,
        # 2a/b^2 = 213: from u_max = 800 the series at infinity truncates at
        # U = 800, where K reads inf and log K = 951 does not
        code, out, _ = run(capsys, "solve", "--a", "0.024", "--b", "0.015", "--c", "0.1",
                           "--lambda", "0.09", "--m", "1", "--umax", "800")
        assert code == 0
        footer = [ln for ln in out.split("\n") if ln.startswith("# ")]
        k = footer.index("# K = inf")
        assert footer[k + 1].startswith("# log_K = ")
        assert float(footer[k + 1].split("=")[1]) == pytest.approx(950.98, abs=0.01)

    @pytest.mark.parametrize("umax", ["nan", "inf", "0"])
    def test_non_finite_umax_exits_2(self, capsys, umax):
        code, _, err = run(capsys, "solve", "--preset", "fig1-II", "--umax", umax)
        assert code == 2
        assert "u_max must be finite" in err

    def test_unconverged_gamma_exits_3(self, capsys):
        # p = lam/a = 1e4: the incomplete-gamma series does not converge at u = 1e4
        code, _, err = run(capsys, "solve", "--a", "1e-5", "--b", "0", "--c", "0",
                           "--lambda", "0.1", "--m", "1", "--umax", "1e4", "--points", "3")
        assert code == 3
        assert "failed to converge" in err

    def test_footer_reports_the_tail_fit(self, capsys):
        # fig2-II (2a/b^2 = 20) has a steep tail, 1 - phi ~ 8.7e17 u^-19,
        # which the series at infinity resolves where it truncates, at
        # U = 100; from the default u_max phi is flat at U = 70.7 first, and
        # the footer holds no K
        code, out, _ = run(capsys, "solve", "--preset", "fig2-II", "--points", "5", "--umax", "100")
        footer = [ln.split(" = ")[0] for ln in out.split("\n") if ln.startswith("# ")]
        assert code == 0
        assert footer == [
            "# regime", "# C0", "# log_C0", "# K", "# log_K", "# exponent", "# u0", "# U",
            "# U_rule", "# tail_term", "# rtol",
        ]
        assert _footer(out, "U_rule") == "truncates"
        assert float(out.split("# K = ")[1].split()[0]) == pytest.approx(8.706888e17, rel=1e-6)
        assert float(out.split("# log_K = ")[1].split()[0]) == pytest.approx(np.log(8.706888e17), rel=1e-9)
        code, out, _ = run(capsys, "solve", "--preset", "fig2-II", "--points", "5")
        footer = [ln.split(" = ")[0] for ln in out.split("\n") if ln.startswith("# ")]
        assert code == 0
        assert footer == [
            "# regime", "# C0", "# log_C0", "# u0", "# U", "# U_rule", "# tail_term", "# rtol",
        ]
        assert _footer(out, "U_rule") == "flat" and float(_footer(out, "tail_term")) < 2.0**-53

    def test_footer_reports_log_c0_where_c0_underflows(self, capsys):
        # log C0 = -1052.06: phi reads 0 on the whole grid, and the footer
        # says that this is not certain ruin
        code, out, _ = run(capsys, "solve", "--a", "2.5915e-5", "--b", "0.0053644", "--c", "9.4014e-4",
                           "--lambda", "0.94568", "--m", "0.029311", "--points", "5")
        assert code == 0
        assert _footer(out, "C0") == "0"
        assert float(_footer(out, "log_C0")) == pytest.approx(-1052.0617, abs=1e-3)
        assert any(ln.startswith("# note = ") and "not certain ruin" in ln for ln in out.split("\n"))

    def test_footer_leaves_out_step_count(self, capsys):
        _, out, _ = run(capsys, *SOLVE_FIG1_II)
        assert not any(ln.startswith("# steps") for ln in out.split("\n"))

    @pytest.mark.parametrize("flag", ["--rtol"])
    def test_non_finite_tolerance_exits_2(self, capsys, flag):
        code, _, err = run(capsys, "solve", "--preset", "fig5-I", flag, "inf")
        assert code == 2
        assert "rtol must be positive and finite" in err

    @pytest.mark.parametrize("command", ["solve", "residual"])
    def test_atol_is_unknown_flag(self, capsys, command):
        # the solve takes one tolerance, the integration's rtol
        with pytest.raises(SystemExit) as exc:
            main([command, "--preset", "fig1-II", "--atol", "1e-12"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --atol" in capsys.readouterr().err

    def test_no_solution_exits_3(self, capsys):
        code, out, err = run(
            capsys, "solve", "--a", "0", "--b", "0", "--c", "0.05",
            "--lambda", "0.09", "--m", "1",
        )
        assert code == 3
        assert "no solution: c <= lambda*m" in err

    def test_zero_solution_flagged(self, capsys):
        code, out, _ = run(
            capsys, "solve", "--a", "0.001", "--b", "0.1", "--c", "0.1",
            "--lambda", "0.09", "--m", "1", "--umax", "10",
        )
        assert code == 0
        assert "ruin certain" in out
        rows = [ln for ln in out.strip().split("\n")[1:] if not ln.startswith("#")]
        assert all(float(r.split(",")[1]) == 0.0 for r in rows)

    def test_missing_params_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--a", "0.02")
        assert code == 2 and "missing parameter" in err

    def test_unknown_preset_exit_2(self, capsys):
        code, _, err = run(capsys, "solve", "--preset", "nope")
        assert code == 2 and "unknown preset" in err

    def test_bad_flag_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--bogus", "1"])
        assert exc.value.code == 2

    def test_output_file_and_gnuplot(self, tmp_path, capsys):
        csv = tmp_path / "sol.csv"
        code, out, _ = run(
            capsys, "solve", "--preset", "fig1-I", "--out", str(csv), "--gnuplot"
        )
        assert code == 0 and out == ""
        text = csv.read_text()
        assert text.startswith("u,phi,dphi,ddphi\n") and text.endswith("\n")
        script = tmp_path / "sol.gp"
        assert script.exists() and str(csv) in script.read_text()

    def test_gnuplot_requires_out(self, capsys):
        code, _, err = run(capsys, "solve", "--preset", "fig1-I", "--gnuplot")
        assert code == 2 and "--gnuplot requires --out" in err

    def test_gnuplot_without_out_solves_nothing(self, capsys, monkeypatch):
        # the flag is checked before the solve, so no CSV reaches stdout
        from ruinlab import cli

        monkeypatch.setattr(cli, "solve", lambda *a, **k: pytest.fail("solved"))
        code, out, _ = run(capsys, "solve", "--preset", "fig1-II", "--gnuplot")
        assert code == 2 and out == ""

    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "a = 0\nb = 0\nc = 0.05\nlambda = 0.09\nm = 1\numax = 10  # comment\n"
        )
        # config alone: nonviable parameters
        code, _, err = run(capsys, "solve", "--config", str(cfg))
        assert code == 3
        # flag overrides the config premium rate
        code, out, _ = run(capsys, "solve", "--config", str(cfg), "--c", "0.1")
        assert code == 0
        c0_line = next(ln for ln in out.split("\n") if ln.startswith("# C0 = "))
        assert float(c0_line.split("=")[1]) == pytest.approx(0.1, abs=1e-12)


class TestResidualCommand:
    def test_classical_sup_residual(self, capsys):
        code, out, _ = run(capsys, "residual", "--preset", "fig1-I", "--points", "101")
        assert code == 0
        sup_line = next(ln for ln in out.split("\n") if "sup_rel_residual" in ln)
        assert float(sup_line.split("=")[1]) < 1e-9


class TestMcCommand:
    ARGS = [
        "mc", "--preset", "fig1-I", "--u", "5", "--n", "2000",
        "--T", "400", "--seed", "42",
    ]

    def test_header_and_determinism(self, capsys):
        code1, out1, _ = run(capsys, *self.ARGS)
        code2, out2, _ = run(capsys, *self.ARGS)
        assert code1 == code2 == 0
        assert out1 == out2
        assert out1.startswith("u,p_hat,stderr,n,T,dt,seed\n")
        row = out1.strip().split("\n")[1].split(",")
        assert float(row[0]) == 5.0 and int(row[3]) == 2000 and int(row[6]) == 42

    def test_multiple_u_values(self, capsys):
        code, out, _ = run(
            capsys, "mc", "--preset", "fig1-I", "--u", "0,2,5", "--n", "500",
            "--T", "100", "--seed", "1",
        )
        assert code == 0
        assert len(out.strip().split("\n")) == 4

    def test_single_path_degenerate(self, capsys):
        code, out, _ = run(
            capsys, "mc", "--preset", "fig1-I", "--u", "5", "--n", "1",
            "--T", "100", "--seed", "9",
        )
        assert code == 0
        row = out.strip().split("\n")[1].split(",")
        assert float(row[1]) in (0.0, 1.0) and float(row[2]) == 0.0

    def test_env_seed_default(self, capsys, monkeypatch):
        monkeypatch.setenv("RUINLAB_SEED", "777")
        code, out, _ = run(
            capsys, "mc", "--preset", "fig1-I", "--u", "5", "--n", "100", "--T", "50"
        )
        assert code == 0
        assert out.strip().split("\n")[1].split(",")[6] == "777"

    def test_missing_u_exit_2(self, capsys):
        code, _, err = run(capsys, "mc", "--preset", "fig1-I")
        assert code == 2 and "requires --u" in err


class TestPresetsCommand:
    def test_lists_all_scenarios(self, capsys):
        code, out, _ = run(capsys, "presets")
        assert code == 0
        for name in ("fig1-I", "fig1-II", "fig2-I", "fig2-II", "fig3-I",
                     "fig3-II", "fig4-I", "fig4-II", "fig5-I", "fig5-II"):
            assert name in out
        assert "P1 = 0.059587" in out  # landmark column present


class TestUnboundedSlopeFormatting:
    def test_riskfree_no_premium_writes_inf(self, capsys):
        code, out, _ = run(capsys, "solve", "--preset", "fig4-II", "--umax", "5",
                           "--points", "6")
        assert code == 0
        first_row = out.split("\n")[1].split(",")
        assert first_row[2] == "inf" and first_row[3] == "-inf"

    def test_capital_stock_low_mu1_writes_inf(self, capsys):
        code, out, _ = run(capsys, "solve", "--preset", "fig5-II", "--umax", "5",
                           "--points", "6")
        assert code == 0
        first_row = out.split("\n")[1].split(",")
        assert first_row[2] == "inf"


def _rows(out):
    return [ln for ln in out.strip().split("\n")[1:] if not ln.startswith("#")]


def _footer(out, key):
    return next(ln for ln in out.split("\n") if ln.startswith(f"# {key} = ")).split("= ")[1]


class TestLayering:
    """flag > config file > preset > library default."""

    def config(self, tmp_path, text):
        path = tmp_path / "run.cfg"
        path.write_text(text)
        return str(path)

    def test_config_over_preset(self, tmp_path, capsys):
        # fig1-I is classical: C0 = 1 - lam m / c
        cfg = self.config(tmp_path, "c = 0.2\n")
        code, out, _ = run(capsys, "solve", "--preset", "fig1-I", "--config", cfg)
        assert code == 0 and float(_footer(out, "C0")) == pytest.approx(0.55, rel=1e-14)
        cfg = self.config(tmp_path, "preset = fig1-I\nc = 0.2\n")
        code, out, _ = run(capsys, "solve", "--config", cfg)
        assert code == 0 and float(_footer(out, "C0")) == pytest.approx(0.55, rel=1e-14)
        # a flag over the config
        code, out, _ = run(capsys, "solve", "--config", cfg, "--c", "0.1")
        assert code == 0 and float(_footer(out, "C0")) == pytest.approx(0.1, rel=1e-14)

    def test_preset_flag_over_config_preset(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "preset = fig1-I\n")
        code, out, _ = run(capsys, "solve", "--config", cfg, "--preset", "fig3-II")
        assert code == 0 and _footer(out, "regime") == "risk-free"
        code, _, err = run(capsys, "solve", "--config", self.config(tmp_path, "preset = nope\n"))
        assert code == 2 and "unknown preset" in err

    def test_typed_config_values(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "preset = fig1-I\npoints = 11\numax = 20\nseed = 3\n")
        code, out, _ = run(capsys, "solve", "--config", cfg)
        rows = _rows(out)
        assert code == 0 and len(rows) == 11 and rows[-1].startswith("20,")
        code, out, _ = run(capsys, "mc", "--config", cfg, "--u", "5", "--n", "10", "--T", "5")
        assert code == 0 and _rows(out)[0].split(",")[6] == "3"
        # argparse converts the value with the flag's type, and exits 2
        bad = self.config(tmp_path, "preset = fig1-I\npoints = 1.5\n")
        with pytest.raises(SystemExit) as exc:
            main(["solve", "--config", bad])
        assert exc.value.code == 2

    def test_residual_reads_config(self, tmp_path, capsys):
        cfg = self.config(tmp_path, "preset = fig1-I\numax = 20\npoints = 11\n")
        code, out, _ = run(capsys, "residual", "--config", cfg)
        flags = run(capsys, "residual", "--preset", "fig1-I", "--umax", "20", "--points", "11")
        assert code == 0 and (code, out) == flags[:2]
        assert len(_rows(out)) == 11

    def test_mc_reads_config(self, tmp_path, capsys):
        cfg = self.config(
            tmp_path, "preset = fig1-II\nu = 1,2\nn = 40\nT = 5\ndt = 0.05\nseed = 7\n"
        )
        code, out, _ = run(capsys, "mc", "--config", cfg)
        flags = run(capsys, "mc", "--preset", "fig1-II", "--u", "1,2", "--n", "40",
                    "--T", "5", "--dt", "0.05", "--seed", "7")
        assert code == 0 and (code, out) == flags[:2]
        assert [r.split(",")[3:] for r in _rows(out)] == [["40", "5", "0.05", "7"]] * 2

    def test_config_seed_over_environment(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("RUINLAB_SEED", "777")
        cfg = self.config(tmp_path, "preset = fig1-I\nu = 5\nn = 10\nT = 5\nseed = 3\n")
        _, out, _ = run(capsys, "mc", "--config", cfg)
        assert _rows(out)[0].split(",")[6] == "3"
        _, out, _ = run(capsys, "mc", "--config", cfg, "--seed", "4")
        assert _rows(out)[0].split(",")[6] == "4"

    # keys that name no flag of the command: residual has no --spacing, mc no
    # --points or --rtol, solve no --u or --seed; func and command are
    # argparse's own destinations, and gnuplot is a switch
    IGNORED = {
        "solve": "u = x\nseed = x\n",
        "residual": "spacing = log\nu = x\n",
        "mc": "spacing = log\npoints = 3\nrtol = x\n",
    }

    @pytest.mark.parametrize(
        "argv",
        [
            ["solve", "--points", "5"],
            ["residual", "--points", "5"],
            ["mc", "--u", "5", "--n", "10", "--T", "5", "--seed", "1"],
        ],
    )
    def test_keys_that_name_no_flag_are_ignored(self, tmp_path, capsys, argv):
        cfg = self.config(
            tmp_path,
            "preset = fig1-II\nfunc = nope\ncommand = mc\nbogus = 1\ngnuplot = 1\n"
            + self.IGNORED[argv[0]],
        )
        code, out, err = run(capsys, argv[0], "--config", cfg, *argv[1:])
        assert (code, err) == (0, "")
        assert out == run(capsys, argv[0], "--preset", "fig1-II", *argv[1:])[1]
