"""End-to-end CLI runs: artifacts, provenance, exit codes, determinism."""

import csv
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from morawetz_lab import kernel
from morawetz_lab.cli import _SPECS, main


def run(argv):
    return main(argv)


# every float option at nan, inf and -inf, in the ``=`` form (argparse reads
# a bare ``-inf`` as a flag); scan-ratio's required options come first
NON_FINITE = [
    [command] + (["--alpha", "1.5", "--s", "0.25"] if command == "scan-ratio" else [])
    + [f"--{name}={value}"]
    for command, spec in _SPECS.items()
    for name, (kind, _) in spec.items() if kind is float
    for value in ("nan", "inf", "-inf")
]


# any value of every option of kernel-decay and a2-scan: ints, floats with
# nan and inf, any regime and malformed alpha lists
FUZZ_VALUES = {
    int: st.one_of(st.integers(0, 4), st.integers(-3, 24),
                   st.sampled_from([1025, 2000, -1100, 2**31, 10**30])),
    float: st.one_of(st.floats(), st.floats(0.0, 4.0), st.floats(-3.0, 1e4)),
    "regime": st.sampled_from(["oncone", "offcone", "lightlike", ""]),
    "alphas": st.lists(st.one_of(st.floats(-4.5, 4.5).map(repr),
                                 st.sampled_from(["nan", "inf", "-inf", "", " ", "x", "1e400",
                                                  "0x1p-3", "1;2"])),
                       max_size=6).map(",".join),
}


@st.composite
def fuzzed_argv(draw, command):
    """``command`` with each of its options given or not, at a drawn value."""
    argv = [command]
    for name, (kind, _) in _SPECS[command].items():
        if draw(st.booleans()):
            value = draw(FUZZ_VALUES[name] if name in FUZZ_VALUES else FUZZ_VALUES[kind])
            argv.append(f"--{name}={value if kind is str else repr(value)}")
    return argv


class TestScanRatio:
    def test_end_to_end_artifacts(self, tmp_path):
        out = tmp_path / "scan"
        code = run([
            "scan-ratio", "--n", "2", "--weight", "spacetime", "--alpha", "2.6",
            "--s", "0.75", "--family", "gaussian", "--lambdas", "0.5,1,2",
            "--grid", "64", "--box", "14.0", "--horizon", "6.0", "--samples", "49",
            "--width", "0.6", "--out", str(out),
        ])
        assert code == 0
        csv = (out / "results.csv").read_text().splitlines()
        assert csv[0] == "# morawetz-lab scan-ratio/v2"
        header = csv[1].split(",")
        for column in ("alpha", "s", "lambda", "numerator", "denominator", "ratio",
                       "n", "N", "box", "horizon", "samples", "refinement", "margin"):
            assert column in header
        assert "tolerance" not in header
        assert len(csv) == 2 + 3  # three lambda rows
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "scan-ratio"
        assert manifest["config"]["alpha"] == 2.6
        assert "fitted_slope" in manifest["summary"]
        assert "analytic_target" in manifest["summary"]
        assert (out / "ratio-scaling.dat").exists()

    # the README example, the 3-d space-time scan at alpha 2, the elastic
    # scan at s 0.3 of the benchmark and a modulated elastic scan (its lambda
    # 0.5 member is dropped for the margin): every ratio and the origin cell,
    # to 1e-12
    @pytest.mark.parametrize("argv, ratios, origin_cell", [
        ("--n 2 --weight spacetime --alpha 2.6 --s 0.75 --family gaussian --lambdas 0.5,1,2 "
         "--grid 64 --box 14 --horizon 6 --samples 49 --width 0.6",
         [3.256454490375001, 3.3736979437732675, 3.431345468628834], 16.82934261050068),
        ("--n 3 --weight spacetime --grid 64 --box 16 --horizon 6.5 --samples 53 --width 0.9 "
         "--s 0.5 --lambdas 0.5,1,2 --alpha 2.0",
         [1.5179464793593989, 1.546140472122307, 1.564410895083117], 0.7034248870653117),
        ("--propagator elastic --n 2 --weight spatial --grid 128 --box 20 --horizon 6 "
         "--samples 97 --width 0.75 --lambdas 0.5,1,2 --s 0.3 --alpha 1.6",
         [2.397543211197654, 2.442556473761174, 2.469397815341509], 7.818476400320492),
        ("--propagator elastic --family modulated --grid 64 --box 14 --horizon 4 --samples 33 "
         "--alpha 1.5 --s 0.25",
         [1.5291909904151992, 1.7069255462037092], 6.217857929831845),
    ], ids=["readme", "scan_ratio_3d", "elastic_2d", "modulated_elastic"])
    def test_ratios_are_pinned(self, argv, ratios, origin_cell, tmp_path):
        assert run(["scan-ratio"] + argv.split() + ["--out", str(tmp_path)]) == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()
        column = rows[1].split(",").index("ratio")
        got = [float(row.split(",")[column]) for row in rows[2:]]
        assert got == pytest.approx(ratios, rel=1e-12, abs=0)
        cell = json.loads((tmp_path / "manifest.json").read_text())["summary"]["singular_cell"]
        assert cell["origin_cell"] == pytest.approx(origin_cell, rel=1e-12, abs=0)

    def test_determinism_byte_identical_csv(self, tmp_path):
        args = ["scan-ratio", "--alpha", "1.5", "--s", "0.25", "--grid", "32",
                "--box", "10.0", "--horizon", "4.0", "--samples", "17",
                "--width", "0.5", "--seed", "7"]
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run(args + ["--out", str(out1)]) == 0
        assert run(args + ["--out", str(out2)]) == 0
        assert (out1 / "results.csv").read_bytes() == (out2 / "results.csv").read_bytes()

    @pytest.mark.parametrize("alpha, truncated", [("2.0", True), ("1.5", False)])
    def test_manifest_reports_singular_cell(self, alpha, truncated, tmp_path):
        # alpha = n is the boundary exponent: the origin cell's integral diverges
        # and is cut after ``refinement`` dyadic shells
        out = tmp_path / "cell"
        code = run(["scan-ratio", "--weight", "spatial", "--n", "2", "--alpha", alpha,
                    "--s", "0.25", "--grid", "32", "--box", "10.0", "--horizon", "4.0",
                    "--samples", "17", "--width", "0.5", "--refinement", "12",
                    "--out", str(out)])
        assert code == 0
        cell = json.loads((out / "manifest.json").read_text())["summary"]["singular_cell"]
        assert cell["truncated"] is truncated
        assert cell["refinement"] == 12
        assert cell["origin_cell"] > 0

    def test_manifest_reports_region_and_fit(self, tmp_path):
        out = tmp_path / "fit"
        code = run(["scan-ratio", "--weight", "spatial", "--n", "2", "--alpha", "1.6",
                    "--s", "0.3", "--grid", "32", "--box", "12.0", "--horizon", "3.0",
                    "--samples", "17", "--width", "0.6", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        summary = manifest["summary"]
        assert summary["region"] == "OnTheorem1Segment"
        assert summary["slope_ci95"] >= 0  # 95% half-width of the fitted slope
        assert summary["margin_min"] > 0
        assert manifest["config"]["alpha"] == 1.6
        assert len((out / "results.csv").read_text().splitlines()) == 2 + 3

    def test_missing_required_option(self, tmp_path, capsys):
        code = run(["scan-ratio", "--out", str(tmp_path / "x")])
        assert code == 2
        assert "required" in capsys.readouterr().err

    def test_unknown_config_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("alpha = 2.0\ns = 0.5\nwidht = 1.0  # typo\n")
        code = run(["scan-ratio", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "widht" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# small deterministic run\n"
            "alpha = 1.5\n s = 0.25\n grid = 32\n box = 10.0\n"
            "horizon = 4.0\n samples = 17\n width = 0.5\n"
        )
        out = tmp_path / "cfg-run"
        code = run(["scan-ratio", "--config", str(cfg), "--alpha", "1.0", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["alpha"] == 1.0  # flag wins over file

    def test_margin_violation_exits_2(self, tmp_path, capsys):
        code = run(["scan-ratio", "--alpha", "1.0", "--s", "0.25", "--grid", "32",
                    "--box", "4.0", "--horizon", "6.0", "--samples", "9",
                    "--out", str(tmp_path / "x")])
        assert code == 2
        assert "lambda" in capsys.readouterr().err.lower()


class TestOtherCommands:
    def test_lp_check(self, tmp_path, capsys):
        out = tmp_path / "lp"
        assert run(["lp-check", "--out", str(out)]) == 0
        printed = capsys.readouterr().out
        assert "partition_deviation" in printed
        rows = (out / "results.csv").read_text().splitlines()
        dev = float(rows[2].split(",")[1])
        assert dev < 1e-12

    def test_kernel_decay_on_cone(self, tmp_path):
        out = tmp_path / "kd"
        code = run(["kernel-decay", "--n", "3", "--k", "0", "--regime", "oncone",
                    "--points", "9", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["slope"] == pytest.approx(-1.0, abs=0.15)
        assert manifest["summary"]["below_floor"] == 0
        # the work of the fit: integrand nodes, in calls of at most a block
        nodes, calls = (manifest["summary"][key] for key in ("integrand_nodes", "integrand_calls"))
        assert 0 < calls <= nodes <= calls * kernel.BLOCK_NODES
        assert (out / "kernel-decay.dat").read_text().startswith("# log10")

    # the README command, and the benchmark's three fits at its warm-up point
    # d0 = 11.25 (two decades and a hair): every abs_value and the slope
    @pytest.mark.parametrize("argv, values, slope", [
        ("--n 3 --k 0 --regime oncone",
         [0.7334246067288165, 0.4917695267779299, 0.34180177651710925, 0.23095699022364963,
          0.1568868447878655, 0.10691144089941979, 0.07282508708665272, 0.049615337177752766,
          0.033802468154915714, 0.023029350365307236, 0.015689713754780933,
          0.010689277545903356, 0.007282520015978579], -1.0007333723117946),
        ("--n 2 --k 3 --regime oncone --dmin 11.25 --dmax 1125.0000025904",
         [14.872907816270496, 12.275984920048973, 10.132623414213011, 8.363523264797463,
          6.903291363020479, 5.698007171264353, 4.703159575735416, 3.882007830873288,
          3.2042255999780718, 2.644781254777043, 2.1830135297298754, 1.801868508792431,
          1.4872698102441528], -0.500000975048548),
        ("--n 3 --k 3 --regime oncone --dmin 11.25 --dmax 1125.0000025904",
         [41.427460578948306, 28.225549884787934, 19.22984426805494, 13.101141516277966,
          8.925703815969394, 6.081011220297466, 4.142944715431402, 2.8225553766274145,
          1.9229845922041806, 1.3101141513379815, 0.8925703806959017, 0.6081011213274768,
          0.41429447106616885], -0.999995865654449),
        ("--n 2 --k 0 --regime offcone --dmin 11.25 --dmax 1125.0000025904",
         [0.05687095242364254, 0.033102761187689705, 0.01851738105544413,
          0.0021538662879646083, 0.0012452627330702055, 5.269022735040639e-05,
          1.6420464629764332e-05, 2.830992673516745e-07, 3.0748194647239376e-08,
          5.119575875778391e-09, 8.943244585567086e-11, 2.2308854287789433e-12,
          9.065832054296325e-15], -6.2394328951742075),
    ], ids=["readme", "oncone_n2", "oncone_n3", "offcone"])
    def test_kernel_decay_is_pinned(self, argv, values, slope, tmp_path):
        assert run(["kernel-decay"] + argv.split() + ["--out", str(tmp_path)]) == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()
        column = rows[1].split(",").index("abs_value")
        got = [float(row.split(",")[column]) for row in rows[2:]]
        assert got == pytest.approx(values, rel=1e-12, abs=0)
        summary = json.loads((tmp_path / "manifest.json").read_text())["summary"]
        assert summary["slope"] == pytest.approx(slope, rel=1e-12, abs=0)

    # the README command, and the benchmark's 4-d scan at the midpoints of its
    # four alpha strata: every product, alpha by alpha over the five cubes
    @pytest.mark.parametrize("argv, products", [
        ("--n-total 3 --alphas 0,0.9,1.8,2.7",
         [1.0, 1.0, 1.0, 1.0, 1.0,
          1.113236134182546, 1.1550879572164467, 1.057393341921654, 1.016215082134745,
          1.0041774843715359,
          1.6454063641919994, 1.90270714632303, 1.246992750948366, 1.0661464144768251,
          1.0167940760986252,
          5.909333283601612, 8.12566055560409, 1.6286915103196116, 1.153790537857056,
          1.038104466525199]),
        ("--n-total 4 --alphas 0.6,1.35,2.25,3.15",
         [1.029432281099545, 1.0424707817963168, 1.0219331108342686, 1.0069204047697153,
          1.0018376825274746,
          1.164789675856642, 1.2407651456039206, 1.1154177591703502, 1.0354366453909498,
          1.0093311821654216,
          1.5967605111467789, 1.8971162013985055, 1.349586773711816, 1.1009593282252594,
          1.0260926223518358,
          3.123758683085394, 4.340701555515793, 1.7816751723626185, 1.205559950481002,
          1.0516537377870234]),
    ], ids=["readme", "quadrature_4d"])
    def test_a2_scan_is_pinned(self, argv, products, tmp_path):
        assert run(["a2-scan"] + argv.split() + ["--out", str(tmp_path)]) == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()
        column = rows[1].split(",").index("product")
        got = [float(row.split(",")[column]) for row in rows[2:]]
        assert got == pytest.approx(products, rel=1e-12, abs=0)

    def test_lp_check_is_pinned(self, tmp_path):
        # the default command, exactly: the cutoff and the projections are
        # evaluated the same way on every run
        assert run(["lp-check", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()
        assert rows[2:] == ["partition_deviation,2.220446049250313e-16,1e-12,True",
                            "reconstruction_error,2.432057129796191e-16,1e-10,True",
                            "annihilation_two_apart,2.641119644208315e-18,1e-12,True"]

    def test_a2_scan(self, tmp_path):
        out = tmp_path / "a2"
        code = run(["a2-scan", "--n-total", "3", "--alphas", "0,1.5", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        per_alpha = manifest["summary"]["max_product_per_alpha"]
        assert per_alpha["0.0"] == 1.0
        assert per_alpha["1.5"] > 1.0
        rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[2:]]
        for alpha, top in per_alpha.items():
            assert top == max(float(r[4]) for r in rows if r[0] == alpha)
        assert manifest["summary"]["monotone_in_alpha"] is True

    def test_a2_scan_side(self, tmp_path):
        out = tmp_path / "a2side"
        code = run(["a2-scan", "--n-total", "3", "--alphas", "1.5", "--side", "4",
                    "--out", str(out)])
        assert code == 0
        rows = [line.split(",") for line in (out / "results.csv").read_text().splitlines()[2:]]
        assert rows and all(float(r[3]) == 4.0 for r in rows)
        centers = {r[1]: r[2] for r in rows}
        assert centers["offset-4.0"] == "16.0;0.0;0.0"

    def test_a2_scan_nan_alpha_exits_2(self, tmp_path, capsys):
        code = run(["a2-scan", "--n-total", "3", "--alphas", "nan", "--out",
                    str(tmp_path / "a2nan")])
        assert code == 2
        assert "Traceback" not in capsys.readouterr().err

    def test_evolve(self, tmp_path):
        out = tmp_path / "ev"
        code = run(["evolve", "--grid", "32", "--box", "16.0", "--horizon", "4.0",
                    "--samples", "9", "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["summary"]["max_energy_drift_rel"] < 1e-10

    def test_evolve_is_pinned(self, tmp_path):
        # the README command: energy and L2 norm at the first, middle and last node
        assert run(["evolve", "--grid", "64", "--box", "20", "--horizon", "6",
                    "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()
        header = rows[1].split(",")
        table = [[float(v) for v in row.split(",")] for row in rows[2:]]
        got = [(row[header.index("t")], row[header.index("energy")],
                row[header.index("l2_displacement")]) for row in table[::len(table) // 2]]
        want = [(-6.0, 6.283185312671342, 1.247281285784768),
                (0.0, 6.283185312671341, 1.7724538509432417),
                (6.0, 6.283185312671341, 1.2472812857847675)]
        assert len(table) == 49
        for row, pinned in zip(got, want, strict=True):
            assert row == pytest.approx(pinned, rel=1e-12, abs=0)

    def test_report_summaries_are_pinned(self, tmp_path):
        assert run(["report", "--out", str(tmp_path)]) == 0
        rows = (tmp_path / "results.csv").read_text().splitlines()
        summary = dict(next(csv.reader([row])) for row in rows[2:])
        decomposition = json.loads(summary["decomposition"])
        assert decomposition.pop("hs_pythagoras_gap") < 1e-14  # round-off only
        assert decomposition == pytest.approx({
            "ratio_potential": 0.6529711576263769,
            "ratio_solenoidal": 0.49770456215658726,
            "triangle_slack": 1.541266762575733,
        }, rel=1e-12, abs=0)
        assert json.loads(summary["local-smoothing"]) == pytest.approx({
            "refinement_change_rel": 0.07981383291309925,
            "value": 3.6850090772302355,
        }, rel=1e-12, abs=0)

    def test_report_battery(self, tmp_path):
        out = tmp_path / "rep"
        code = run(["report", "--out", str(out)])
        assert code == 0
        rows = (out / "results.csv").read_text().splitlines()
        names = {line.split(",")[0] for line in rows[2:]}
        assert {"a2", "kernel", "lp", "ratio", "frequency",
                "decomposition", "local-smoothing"} <= names
        manifest = json.loads((out / "manifest.json").read_text())
        assert "frequency" in manifest["summary"]["experiments"]
        freq_row = next(line for line in rows[2:] if line.startswith("frequency"))
        assert "reference_growth_exponent" in freq_row

    def test_bad_value_type(self, tmp_path, capsys):
        code = run(["kernel-decay", "--k", "zero", "--out", str(tmp_path / "x")])
        assert code == 2


class TestExitCodes:
    def test_accuracy_failure_exits_3(self, tmp_path, monkeypatch, capsys):
        from morawetz_lab import cli
        from morawetz_lab.errors import AccuracyError

        def boom(*args, **kwargs):
            raise AccuracyError("quadrature stalled", achieved=3e-4)

        monkeypatch.setattr(cli, "decay_fit", boom)
        code = run(["kernel-decay", "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "accuracy" in err and "3.00e-04" in err

    def test_non_finite_energy_exits_3(self, tmp_path, capsys):
        # a stiff medium over a tiny horizon keeps the margin but overflows the energy
        with np.errstate(over="ignore", invalid="ignore"):
            code = run(["evolve", "--grid", "16", "--samples", "3", "--horizon", "1e-160",
                        "--lame-mu", "1e307", "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "accuracy" in err and "not finite" in err and "Traceback" not in err
        assert not (tmp_path / "x" / "results.csv").exists()

    @pytest.mark.parametrize("command, target, result", [
        # a fit, a projection and a frequency constant that come back
        # non-finite, from the function each command calls
        ("kernel-decay", "decay_fit", lambda fit: dataclasses.replace(fit, slope=float("nan"))),
        ("lp-check", "lp_project", lambda f: f * np.inf),
        ("report", "frequency_constant_scan",
         lambda scan: dataclasses.replace(scan, constants=(1.0, float("inf")))),
    ])
    def test_non_finite_result_exits_3(self, command, target, result, tmp_path, monkeypatch,
                                       capsys):
        from morawetz_lab import cli

        original = getattr(cli, target)
        monkeypatch.setattr(cli, target, lambda *args, **kwargs: result(original(*args,
                                                                              **kwargs)))
        with np.errstate(invalid="ignore"):
            code = run([command, "--out", str(tmp_path / "x")])
        assert code == 3
        err = capsys.readouterr().err
        assert "accuracy" in err and "not finite" in err and "Traceback" not in err
        assert not (tmp_path / "x" / "results.csv").exists()

    @pytest.mark.parametrize("argv", [
        ["scan-ratio", "--alpha", "nan", "--s", "0.5"],
        ["lp-check", "--box", "inf"],
        ["kernel-decay", "--dmin", "0"],
        ["kernel-decay", "--dmin=-5"],
        ["kernel-decay", "--points=-1"],
        ["kernel-decay", "--rtol=-1"],
        ["evolve", "--width=-1"],
        ["scan-ratio", "--alpha", "1.5", "--s", "0.25", "--config", "{tmp}/tolerance.cfg"],
        ["kernel-decay", "--k", "2000"],
        ["kernel-decay", "--k=-1100"],
        ["kernel-decay", "--dmin", "1e306", "--dmax", "1e308"],
        ["kernel-decay", "--regime", "offcone", "--tau", "1e300", "--dmin", "1e301",
         "--dmax", "1e303"],
        ["scan-ratio", "--grid", "16", "--box", "8", "--horizon", "2", "--samples", "9",
         "--alpha", "0", "--s", "200"],
        ["a2-scan", "--alphas", "0.5", "--n-total", "5"],
        ["a2-scan", "--alphas", "0.5", "--n-total", "40"],
        ["a2-scan", "--side", "1e300", "--alphas", "1.5"],
        ["a2-scan", "--side", "1e-300", "--alphas", "1.5"],
        ["lp-check", "--box", "1e300"],
        ["scan-ratio", "--alpha", "1", "--s", "0", "--grid", "16", "--box", "1e300",
         "--samples", "3", "--horizon", "1"],
        ["lp-check", "--box", "1e-300"],
        ["evolve", "--width", "1e300", "--grid", "16", "--samples", "3"],
        ["evolve", "--horizon", "1e300", "--grid", "16", "--samples", "3"],
        ["a2-scan", "--alphas", ","],
        ["evolve", "--grid", "16", "--samples", "5", "--width", "1e-200"],
        ["scan-ratio", "--alpha", "1", "--s", "0.3", "--width", "1e-200", "--grid", "16",
         "--samples", "5", "--horizon", "1", "--box", "20"],
        # sizes of a huge allocation, refused before it is made
        ["lp-check", "--grid", "1073741824"],
        ["scan-ratio", "--alpha", "1.5", "--s", "0.25", "--n", "3", "--grid", "256"],
        ["evolve", "--samples", "100000000"],
        ["evolve", "--samples", "16385"],
        ["kernel-decay", "--points", "1000000000"],
        ["kernel-decay", "--points", "1025"],
        ["a2-scan", "--n-total", "2147483648"],
        ["a2-scan", "--n-total=-3"],
    ] + NON_FINITE)
    def test_invalid_values_exit_2_without_traceback(self, argv, tmp_path, capsys):
        (tmp_path / "tolerance.cfg").write_text("tolerance = 1e-9\n")  # a removed option
        argv = [arg.format(tmp=tmp_path) for arg in argv]
        assert run(argv + ["--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error") and "Traceback" not in err
        assert not (tmp_path / "x" / "results.csv").exists()
        if "margin" in err:  # a refused margin prints in three significant digits
            assert len(err) < 200, err

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    @pytest.mark.parametrize("command", ["kernel-decay", "a2-scan"])
    def test_fuzzed_options_exit_0_2_or_3(self, command, data, pass_nodes, monkeypatch,
                                          tmp_path, capsys):
        # a small node budget keeps every fit short; pass_nodes fails the test
        # if a pass over it runs
        monkeypatch.setattr(kernel, "MAX_PASS_NODES", 2**12)
        argv = data.draw(fuzzed_argv(command))
        with np.errstate(all="ignore"):
            code = run(argv + ["--out", str(tmp_path / "fuzz")])
        assert code in (0, 2, 3), argv
        assert "Traceback" not in capsys.readouterr().err

    def test_report_has_no_n_option(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["report", "--n", "3", "--out", str(tmp_path / "flag")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --n" in capsys.readouterr().err
        cfg = tmp_path / "run.cfg"
        cfg.write_text("n = 3\n")
        assert run(["report", "--config", str(cfg), "--out", str(tmp_path / "file")]) == 2
        err = capsys.readouterr().err
        assert "unknown option(s) for report: n" in err and "Traceback" not in err

    def test_scan_ratio_has_no_tolerance_option(self, tmp_path, capsys):
        # argparse refuses the removed flag itself, before the configuration layer
        with pytest.raises(SystemExit) as exc:
            run(["scan-ratio", "--alpha", "1.5", "--s", "0.25", "--tolerance", "1e-9",
                 "--out", str(tmp_path / "flag")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --tolerance" in capsys.readouterr().err
        assert not (tmp_path / "flag").exists()

    def test_elastic_propagator_path(self, tmp_path):
        out = tmp_path / "el"
        code = run(["scan-ratio", "--propagator", "elastic", "--alpha", "1.5",
                    "--s", "0.25", "--grid", "32", "--box", "12.0", "--horizon", "3.0",
                    "--samples", "13", "--width", "0.5", "--lame-lambda", "-0.5",
                    "--lame-mu", "1.0", "--out", str(out)])
        assert code == 0
        rows = (out / "results.csv").read_text().splitlines()
        assert len(rows) == 2 + 3
