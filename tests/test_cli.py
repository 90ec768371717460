import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from necklace_walks import (
    NecklaceSpec,
    bloch,
    cli,
    comb1_limiting_distribution,
    full_spectrum,
    limiting_distribution,
    load_pearl_file,
    make_comb_pearl,
    make_cycle_pearl,
    mixing,
    mixing_bound_curve,
    mixing_time,
    vertex_state,
)
from necklace_walks.cli import main


def run_cli(args, capsys):
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def no_solve(monkeypatch):
    """Fail any run that reaches the sector solve or the gap scan."""
    def refuse(*args, **kwargs):
        raise AssertionError("a refused input reached the sector solve or the gap scan")

    monkeypatch.setattr(bloch, "_solve_half", refuse)
    monkeypatch.setattr(cli, "full_spectrum", refuse)
    monkeypatch.setattr(mixing, "gap_scan", refuse)


@pytest.fixture
def path3_source(tmp_path):
    """--pearl-file of the 3-vertex path with roots at its ends: neither comb nor cycle."""
    path = tmp_path / "path3.json"
    path.write_text(json.dumps(path_pearl(3)))
    return ["--pearl-file", str(path)]


def csv_rows(text):
    lines = [l for l in text.strip().split("\n") if not l.startswith("#")]
    return [line.split(",") for line in lines[1:]], lines[0]


class TestSpectrumCommand:
    def test_cycle_k4(self, capsys):
        code, out, _ = run_cli(["spectrum", "--cycle", "--K", "4"], capsys)
        assert code == 0
        rows, header = csv_rows(out)
        assert header == "k,n,lambda"
        assert len(rows) == 4
        lams = sorted(float(r[2]) for r in rows)
        assert np.abs(np.array(lams) - [-2.0, 0.0, 0.0, 2.0]).max() < 1e-12

    def test_comb1_k8_matches_closed_form(self, capsys):
        code, out, _ = run_cli(["spectrum", "--comb-d", "1", "--K", "8"], capsys)
        assert code == 0
        rows, _ = csv_rows(out)
        assert len(rows) == 16
        for r in rows:
            k, n, lam = int(r[0]), int(r[1]), float(r[2])
            c = math.cos(2 * math.pi * k / 8)
            expected = c + (1 if n else -1) * math.sqrt(1 + c * c)
            assert lam == pytest.approx(expected, abs=1e-12)

    def test_pearl_file_with_self_loop_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text('{"m": 3, "edges": [[1, 1]], "root_in": 0, "root_out": 2}')
        code, _, err = run_cli(["spectrum", "--pearl-file", str(bad), "--K", "4"], capsys)
        assert code == 1
        assert "self-loop edge (2, 2)" in err

    @pytest.mark.parametrize("text, message", [
        ('{"m": 3, "edges": 5, "root_in": 0, "root_out": 1}', "malformed pearl object"),
        ('{"m": 3, "edges": [[0, "x"]], "root_in": 0, "root_out": 1}',
         "malformed pearl object"),
        ('{"m": 3}', "malformed pearl object"),
        ("[0, 1]", "malformed pearl object"),
        ('{"m": 3, "edges": [[0, 1]', "Expecting"),
        (b"\xff\xfe{}", "can't decode"),
        ('{"m": 3.9, "edges": [[0, 1]], "root_in": 0, "root_out": 1}', "malformed pearl object"),
        ('{"m": 3, "edges": [[0, 1]], "root_in": 0, "root_out": "1"}', "malformed pearl object"),
        ('{"m": 3, "edges": [[0, 1]], "root_in": true, "root_out": 1}', "malformed pearl object"),
        ('{"m": 3, "edges": [[0, 2.5]], "root_in": 0, "root_out": 1}', "malformed pearl object"),
        ('{"m": 3, "edges": ["01"], "root_in": 0, "root_out": 1}', "malformed pearl object"),
        ('{"m": 3, "edges": [[0, 1, 2]], "root_in": 0, "root_out": 1}',
         "malformed pearl object"),
        pytest.param("[" * 100000 + "]" * 100000, "maximum recursion depth", id="nested-100000-deep"),
    ])
    def test_unreadable_pearl_file_exits_one_naming_the_file(self, text, message, no_solve,
                                                             tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_bytes(text if isinstance(text, bytes) else text.encode())
        code, out, err = run_cli(["spectrum", "--pearl-file", str(bad), "--K", "4"], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {bad}: not a valid pearl file: ")
        assert message in err

    def test_requires_exactly_one_source(self, capsys):
        code, _, err = run_cli(["spectrum", "--cycle", "--comb-d", "1", "--K", "4"], capsys)
        assert code == 1
        assert "exactly one pearl source" in err

    def test_vectors_out(self, tmp_path, capsys):
        path = tmp_path / "vecs.json"
        code, _, _ = run_cli(
            ["spectrum", "--cycle", "--K", "3", "--vectors-out", str(path)], capsys
        )
        assert code == 0
        records = json.loads(path.read_text())
        assert len(records) == 3
        vec = np.array(records[1]["vector_re"]) + 1j * np.array(records[1]["vector_im"])
        assert np.linalg.norm(vec) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("name", ["0", "1", "2", "file"])
    def test_solves_eigenvalues_only(self, name, monkeypatch, tmp_path, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("spectrum ran an eigenvector solve")

        source, pearl = pearl_source(name, tmp_path)
        monkeypatch.setattr(cli, "full_spectrum", refuse)
        monkeypatch.setattr(np.linalg, "eigh", refuse)
        code, out, err = run_cli(["spectrum", *source, "--K", "9"], capsys)
        assert code == 0, err
        assert out == spectrum_rows_by_row(pearl, 9)

    def test_vectors_out_takes_one_solve_and_no_basis(self, monkeypatch, tmp_path, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("the dump took a second solve or read the dense basis")

        monkeypatch.setattr(cli, "all_sector_eigenvalues", refuse)
        monkeypatch.setattr(bloch.FullSpectrum, "vectors", property(refuse))
        path = tmp_path / "v.json"
        code, out, err = run_cli(["spectrum", "--comb-d", "3", "--K", "9", "--vectors-out",
                                  str(path)], capsys)
        assert code == 0, err
        records = json.loads(path.read_text())
        assert [r[2] for r in csv_rows(out)[0]] == [f"{r['lambda']:.15g}" for r in records]

    def test_vectors_out_holds_no_basis(self, tmp_path):
        # N = 480: the lifted basis alone would take 16 N^2 bytes, 3.7 MB.
        argv = ["spectrum", "--comb-d", "3", "--K", "120", "--vectors-out",
                str(tmp_path / "v.json"), "--output", str(tmp_path / "s.csv")]
        assert main(argv) == 0                  # the first call's imports are not traced
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 480**2

    def test_vectors_out_takes_the_eigenvector_solve(self, monkeypatch, tmp_path, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("reached full_spectrum")

        monkeypatch.setattr(cli, "full_spectrum", refuse)
        with pytest.raises(AssertionError, match="reached full_spectrum"):
            main(["spectrum", "--comb-d", "2", "--K", "9", "--vectors-out",
                  str(tmp_path / "v.json")])
        capsys.readouterr()

    @pytest.mark.parametrize("name, K", [("0", 2800), ("1", 1400), ("2", 800), ("file", 480)])
    def test_values_match_the_eigenvector_solve_in_the_last_digit(self, name, K, tmp_path,
                                                                  capsys):
        source, pearl = pearl_source(name, tmp_path)
        code, out, _ = run_cli(["spectrum", *source, "--K", str(K)], capsys)
        assert code == 0
        printed = [r[2] for r in csv_rows(out)[0]]
        solved = full_spectrum(NecklaceSpec(pearl, K)).eigenvalues.ravel()
        assert np.abs(np.array(printed, dtype=float) - solved).max() <= 1e-14
        if name in ("0", "1"):        # the cycle and the d = 1 comb print the same text
            assert printed == [f"{v:.15g}" for v in solved]


class TestLimitingCommand:
    def test_cycle_k8_values(self, capsys):
        code, out, _ = run_cli(
            ["limiting", "--cycle", "--K", "8", "--start", "1"], capsys
        )
        assert code == 0
        rows, header = csv_rows(out)
        assert header == "j,m,vertex_type,pi"
        values = {int(r[0]): float(r[3]) for r in rows}
        assert values[1] == pytest.approx(0.21875, abs=1e-12)
        assert values[5] == pytest.approx(0.21875, abs=1e-12)  # antipode of 1
        assert values[2] == pytest.approx(0.09375, abs=1e-12)
        assert sum(values.values()) == pytest.approx(1.0, abs=1e-9)

    def test_comb1_closed_form_deviation(self, capsys):
        code, out, _ = run_cli(
            ["limiting", "--comb-d", "1", "--K", "21", "--start", "5,base",
             "--closed-form"], capsys
        )
        assert code == 0
        rows, header = csv_rows(out)
        assert header == "j,m,vertex_type,pi,pi_analytic"
        footer = [l for l in out.strip().split("\n") if l.startswith("#")]
        assert len(footer) == 1
        deviation = float(footer[0].split("=")[1])
        assert deviation <= 1e-9

    @pytest.mark.parametrize("source", [["--cycle"], ["--comb-d", "2"], ["--pearl-file"]],
                             ids=["cycle", "comb2", "path3"])
    def test_closed_form_rejected_off_comb1(self, source, no_solve, path3_source, capsys):
        # Refused before the solve: no_solve fails any run that reaches full_spectrum.
        source = path3_source if source == ["--pearl-file"] else source
        code, out, err = run_cli(["limiting", *source, "--K", "8", "--start", "0",
                                  "--closed-form"], capsys)
        assert code == 1
        assert out == ""
        assert "comb-d 1" in err

    def test_tooth_start(self, capsys):
        code, out, _ = run_cli(
            ["limiting", "--comb-d", "1", "--K", "9", "--start", "2,tooth"], capsys
        )
        assert code == 0
        rows, _ = csv_rows(out)
        assert sum(float(r[3]) for r in rows) == pytest.approx(1.0, abs=1e-9)

    def test_bad_start(self, capsys):
        code, _, err = run_cli(
            ["limiting", "--cycle", "--K", "8", "--start", "9"], capsys
        )
        assert code == 1
        assert "start pearl" in err

    @pytest.mark.parametrize("source, start, message", [
        (["--comb-d", "1"], "x", "bad start pearl index in 'x'"),
        (["--comb-d", "1"], "0,1,2", "bad start argument '0,1,2'"),
        (["--cycle"], "0,tooth", "this pearl has no tooth vertex"),
        (["--comb-d", "1"], "0,q", "bad start vertex 'q'"),
        (["--comb-d", "1"], "0,5", "start vertex 5 outside 0..1"),
        (["--pearl-file"], "0,base", "this pearl has no base vertex"),
    ])
    def test_start_refusals(self, source, start, message, capsys, path3_source):
        source = path3_source if source == ["--pearl-file"] else source
        code, out, err = run_cli(["limiting", *source, "--K", "8", "--start", start], capsys)
        assert code == 1
        assert out == ""
        assert message in err


class TestMixCommand:
    def test_bound_dominates_and_reports_tmix(self, capsys):
        code, out, _ = run_cli(
            ["mix", "--cycle", "--K", "16", "--start", "0", "--eps", "0.1",
             "--T-hi", "1e3"], capsys
        )
        assert code == 0
        rows, header = csv_rows(out)
        assert header == "T,tv_distance,tv_bound"
        for r in rows:
            assert float(r[2]) >= float(r[1]) - 1e-12
        footer = out.strip().split("\n")[-1]
        assert footer.startswith("# T_mix(eps=0.1) = ")

    def test_tmix_not_found_footer(self, capsys):
        code, out, _ = run_cli(
            ["mix", "--cycle", "--K", "16", "--start", "0", "--eps", "0.01",
             "--T-hi", "2"], capsys
        )
        assert code == 0
        rows, _ = csv_rows(out)
        footer = out.strip().split("\n")[-1]
        assert footer == f"# T_mix(eps=0.01) not found up to T_hi=2; tv at T_hi = {rows[-1][1]}"

    def test_eps_two_first_grid_point(self, capsys):
        code, out, _ = run_cli(
            ["mix", "--cycle", "--K", "8", "--start", "0", "--eps", "2",
             "--T-hi", "100"], capsys
        )
        assert code == 0
        assert "# T_mix(eps=2) = 1" in out

    def test_bound_curve_column(self, capsys):
        c = (math.sqrt(2) - 1) / math.sqrt(2)
        code, out, _ = run_cli(
            ["mix", "--comb-d", "1", "--K", "16", "--start", "0,base",
             "--eps", "0.1", "--T-hi", "1e3", "--cos-bound-c", str(c)], capsys
        )
        assert code == 0
        rows, header = csv_rows(out)
        assert header == "T,tv_distance,tv_bound,mixing_bound"
        t0, curve0 = float(rows[0][0]), float(rows[0][3])
        expected = 16 / t0 * math.log(8.0) ** 2 / (8 * c)
        assert curve0 == pytest.approx(expected, rel=1e-12)


class TestGapScanCommand:
    def test_cycle_slope(self, capsys):
        code, out, _ = run_cli(
            ["gap-scan", "--d", "0", "--K", "16,32,64,128"], capsys
        )
        assert code == 0
        footer = [l for l in out.strip().split("\n") if l.startswith("#")]
        slope = float(footer[0].split()[-1])
        assert abs(slope + 2.0) < 0.05

    def test_range_expansion_log(self, capsys):
        code, out, _ = run_cli(["gap-scan", "--d", "1", "--K", "16..64"], capsys)
        assert code == 0
        rows, _ = csv_rows(out)
        ks = [int(r[1]) for r in rows]
        assert ks[0] == 16 and ks[-1] == 64
        assert len(ks) >= 3

    def test_single_record_smoke(self, capsys):
        code, out, _ = run_cli(["gap-scan", "--d", "15", "--K", "8"], capsys)
        assert code == 0
        rows, header = csv_rows(out)
        assert header == "d,K,min_gap"
        assert len(rows) == 1
        assert float(rows[0][2]) > 0

    def test_empty_range_exits_one(self, capsys):
        code, out, err = run_cli(["gap-scan", "--d", "1", "--K", "9..3"], capsys)
        assert code == 1
        assert out == ""
        assert "empty range '9..3'" in err


class TestOracleCheckCommand:
    @pytest.mark.parametrize(
        "source", [["--comb-d", "3", "--K", "5"], ["--cycle", "--K", "9"],
                   ["--comb-d", "2", "--K", "6"], ["--comb-d", "1", "--K", "12"]]
    )
    def test_all_checks_pass(self, source, capsys):
        code, out, _ = run_cli(["oracle-check"] + source, capsys)
        assert code == 0
        report = json.loads(out)
        assert report["pass"]
        assert report["checks"]["spectrum_match"]["max_deviation"] <= 1e-9
        if "--cycle" in source or source[:2] == ["--comb-d", "1"]:
            assert "limiting_closed_form" in report["checks"]

    def test_cycle_k9_closed_form_check_present(self, capsys):
        code, out, _ = run_cli(["oracle-check", "--cycle", "--K", "9"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["checks"]["limiting_closed_form"]["pass"]


class TestDeterminism:
    def test_byte_identical_across_runs_and_threads(self, tmp_path):
        """Same config, repeated runs and 1 vs 4 threads: identical bytes."""
        env = dict(os.environ)
        outputs = []
        for threads, name in ((None, "a.csv"), (None, "b.csv"), (4, "c.csv")):
            path = tmp_path / name
            args = [
                sys.executable, "-m", "necklace_walks.cli",
                "limiting", "--comb-d", "2", "--K", "12", "--start", "3,base",
                "--output", str(path),
            ]
            if threads is not None:
                args += ["--threads", str(threads)]
            proc = subprocess.run(args, env=env, capture_output=True)
            assert proc.returncode == 0, proc.stderr
            outputs.append(path.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_env_var_thread_count(self, tmp_path):
        env = dict(os.environ)
        env["NECKLACE_WALKS_THREADS"] = "3"
        path = tmp_path / "env.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "necklace_walks.cli", "spectrum",
             "--comb-d", "1", "--K", "8", "--output", str(path)],
            env=env, capture_output=True,
        )
        assert proc.returncode == 0, proc.stderr
        reference = subprocess.run(
            [sys.executable, "-m", "necklace_walks.cli", "spectrum",
             "--comb-d", "1", "--K", "8"],
            capture_output=True,
        )
        assert path.read_bytes() == reference.stdout


class TestExitCodes:
    def test_config_error_is_one(self, capsys):
        code, _, _ = run_cli(["spectrum", "--cycle", "--K", "2"], capsys)
        assert code == 1

    @pytest.mark.parametrize("k_arg, message", [
        ("1..1000000000", "single --K value"),
        ("8,16", "single --K value"),
        ("eight", "bad --K value"),
    ])
    def test_single_k_command_rejects_list_before_expanding(
            self, k_arg, message, monkeypatch, capsys):
        def expand(*args, **kwargs):
            raise AssertionError("a single-K command expanded its --K argument")

        monkeypatch.setattr(cli, "_parse_int_list", expand)
        code, _, err = run_cli(
            ["mix", "--cycle", "--K", k_arg, "--start", "0", "--eps", "0.1"], capsys
        )
        assert code == 1
        assert message in err

    def test_io_error_is_two(self, capsys):
        code, _, err = run_cli(
            ["spectrum", "--cycle", "--K", "4", "--output",
             "/nonexistent-dir/out.csv"], capsys
        )
        assert code == 2
        assert "I/O error" in err

    def test_fifteen_significant_digits(self, capsys):
        _, out, _ = run_cli(["spectrum", "--comb-d", "1", "--K", "3"], capsys)
        rows, _ = csv_rows(out)
        lam = dict(((int(r[0]), int(r[1])), r[2]) for r in rows)[(0, 1)]
        assert lam == f"{1 + math.sqrt(2):.15g}"


class TestDenseLiftOnDemand:
    @pytest.fixture
    def no_lift(self, monkeypatch):
        from necklace_walks import bloch

        def refuse(y, k, K):
            raise AssertionError(f"bloch._lift reached with {len(k)} of {K} sectors")

        monkeypatch.setattr(bloch, "_lift", refuse)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--comb-d", "2", "--K", "9"],
        ["limiting", "--comb-d", "1", "--K", "12", "--start", "2,base", "--closed-form"],
        ["limiting", "--pearl-file", "PEARL", "--K", "7", "--start", "3,2"],
        ["mix", "--cycle", "--K", "10", "--start", "4", "--eps", "0.1", "--T-hi", "100"],
        ["mix", "--comb-d", "2", "--K", "8", "--start", "1,tooth", "--eps", "0.1",
         "--T-hi", "100"],
    ])
    def test_sector_form_commands_never_lift(self, no_lift, argv, tmp_path, capsys):
        pearl = tmp_path / "pearl.json"
        pearl.write_text(json.dumps({"m": 4, "edges": [[0, 1], [1, 2], [2, 3], [0, 2]],
                                     "root_in": 0, "root_out": 3}))
        argv = [str(pearl) if a == "PEARL" else a for a in argv]
        code, _, err = run_cli(argv, capsys)
        assert code == 0, err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--comb-d", "1", "--K", "4", "--vectors-out", "VECTORS"],
        ["oracle-check", "--comb-d", "1", "--K", "4"],
    ])
    def test_dense_readers_do_lift(self, no_lift, argv, tmp_path, capsys):
        # The dump lifts one sector at a time; only oracle-check builds the whole basis.
        sectors = 1 if "VECTORS" in argv else 4
        argv = [str(tmp_path / "v.json") if a == "VECTORS" else a for a in argv]
        with pytest.raises(AssertionError, match=f"with {sectors} of 4 sectors"):
            main(argv)


class TestInputValidation:
    @pytest.mark.parametrize("argv", [
        ["spectrum", "--comb-d", "1", "--K", "8"],
        ["limiting", "--cycle", "--K", "8", "--start", "0"],
        ["mix", "--cycle", "--K", "8", "--start", "0", "--eps", "0.1"],
        ["gap-scan", "--d", "1", "--K", "8,16"],
        ["oracle-check", "--cycle", "--K", "5"],
    ])
    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_thread_count_below_one_exits_one(self, argv, threads, no_solve, capsys):
        code, out, err = run_cli(argv + ["--threads", threads], capsys)
        assert code == 1
        assert out == ""
        assert "thread count must be >= 1" in err

    @pytest.mark.parametrize("d_arg, k_arg, message", [
        ("1", "1..2000000", "at most 100000"),
        ("1", "8,1..99999,20", "at most 100000"),
        ("1..100001", "8", "at most 100000"),
        ("1", "eight", "bad integer 'eight'"),
        ("1", "8..x", "bad integer 'x'"),
        ("one", "8", "bad integer 'one'"),
    ])
    def test_gap_scan_lists_are_checked_before_expanding(
            self, d_arg, k_arg, message, monkeypatch, capsys):
        def expand(*args, **kwargs):
            raise AssertionError("a refused --K or --d list was expanded")

        monkeypatch.setattr(cli, "_expand_range", expand)
        code, _, err = run_cli(["gap-scan", "--d", d_arg, "--K", k_arg, "--linear"], capsys)
        assert code == 1
        assert message in err

    def test_range_at_the_cap_expands(self):
        values = cli._parse_int_list(f"1..{cli.MAX_LIST_VALUES}", log_spaced=False)
        assert values == list(range(1, cli.MAX_LIST_VALUES + 1))
        assert cli._parse_int_list("16..64,16,100", log_spaced=True) == [
            16, 23, 32, 45, 64, 100]


class TestRangeEnds:
    def test_huge_log_range_exits_one_before_expanding(self, monkeypatch, capsys):
        def expand(*args, **kwargs):
            raise AssertionError("a refused --K list was expanded")

        monkeypatch.setattr(cli, "_expand_range", expand)
        code, _, err = run_cli(["gap-scan", "--d", "1", "--K", "16..1" + "0" * 400], capsys)
        assert code == 1
        assert f"at most at {cli.MAX_LOG_RANGE_END}" in err

    def test_log_count_of_huge_ends_is_finite(self):
        assert cli._range_count(16, 10**400, True) == 2651

    def test_log_flag_is_gone(self, capsys):
        code, _, err = run_cli(["gap-scan", "--d", "1", "--K", "8,16", "--log"], capsys)
        assert code == 1
        assert "--log" in err


class TestMemoryGuard:
    HUGE_K = str(10**15)

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--comb-d", "1", "--K", HUGE_K],
        ["limiting", "--comb-d", "2", "--K", HUGE_K, "--start", "0"],
        ["mix", "--cycle", "--K", HUGE_K, "--start", "0", "--eps", "0.1"],
        ["gap-scan", "--d", "0,1", "--K", f"16,{HUGE_K}"],
    ])
    def test_huge_k_exits_one_before_allocating(self, argv, no_solve, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert "GiB of physical memory" in err

    @pytest.mark.parametrize("command", ["spectrum", "oracle-check", "limiting", "mix"])
    def test_a_huge_comb_d_exits_one_before_the_pearl_is_built(self, command, no_solve,
                                                             monkeypatch, capsys):
        # At about 290 bytes an edge, this pearl alone would take some 29 GB.
        def refuse(d):
            raise AssertionError("the comb pearl was built before the memory guard")

        monkeypatch.setattr(cli, "make_comb_pearl", refuse)
        start = {"limiting": ["--start", "0"], "mix": ["--start", "0", "--eps", "0.1"]}
        code, out, err = run_cli([command, "--comb-d", "100000000", "--K", "3",
                                  *start.get(command, [])], capsys)
        assert code == 1
        assert out == ""
        assert "K=3 with M=100000001" in err and "GiB of physical memory" in err

    @pytest.mark.parametrize("source, M", [(["--cycle"], 1), (["--comb-d", "2"], 3),
                                           (["--pearl-file"], 3)])
    def test_oracle_check_is_priced_once_before_its_pearl_is_built(self, source, M, monkeypatch,
                                                                  path3_source, capsys):
        events, guard, comb = [], cli._guard_memory, cli.make_comb_pearl
        monkeypatch.setattr(cli, "_guard_memory", lambda *a: events.append(a) or guard(*a))
        monkeypatch.setattr(cli, "make_comb_pearl", lambda d: events.append("comb") or comb(d))
        source = path3_source if source == ["--pearl-file"] else source
        code, _, _ = run_cli(["oracle-check", *source, "--K", "5"], capsys)
        assert code == 0
        assert events[0] == (5, M, 0, True)                     # the eigenvector route
        assert events[1:] == (["comb"] if "--comb-d" in source else [])

    def test_vectors_out_counts_the_lifted_basis(self, no_solve, monkeypatch, tmp_path, capsys):
        # A 1 GiB machine: K = 2^20 at M = 2 fits the eigenvalue route, and the refusal
        # comes from the eigenvector route's own price, about 1.06 GiB.
        monkeypatch.setattr(os, "sysconf", lambda name: 1 << 20 if name == "SC_PAGE_SIZE" else 1024)
        cli._guard_memory(1 << 20, 2)
        argv = ["spectrum", "--comb-d", "1", "--K", str(1 << 20),
                "--vectors-out", str(tmp_path / "v.json")]
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert "the 1 GiB of physical memory" in err
        assert out == "" and not (tmp_path / "v.json").exists()

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--comb-d", "1"],
        ["spectrum", "--comb-d", "1", "--vectors-out", "VECTORS"],
        ["limiting", "--comb-d", "2", "--start", "0"],
        ["mix", "--cycle", "--start", "0", "--eps", "0.1", "--T-hi", "100"],
        ["gap-scan", "--d", "0,1,3"],
    ])
    def test_each_price_is_linear_in_K(self, argv, monkeypatch, tmp_path):
        class Priced(Exception):
            pass

        need = []

        def record(*args):
            need.append(cli._need_bytes(*args))
            raise Priced

        monkeypatch.setattr(cli, "_guard_memory", record)
        argv = [str(tmp_path / "v.json") if a == "VECTORS" else a for a in argv]
        for K in (4096, 8192):
            with pytest.raises(Priced):
                main([*argv, "--K", str(K)])
        assert need[1] <= 2 * need[0]


def path_pearl(m):
    """The m-vertex path with a root at each end; the roots share a colour class for odd m."""
    return {"m": m, "edges": [[i, i + 1] for i in range(m - 1)], "root_in": 0, "root_out": m - 1}


PATH_PEARLS = {"path41": path_pearl(41), "path81": path_pearl(81), "path40": path_pearl(40)}


@pytest.mark.filterwarnings("error::necklace_walks.AmbiguousDegeneracyWarning")
class TestMemoryEstimates:
    """Each command's tracemalloc peak against the estimate its guard charges.

    The sweep covers every route: the real eigenvalue stack (cycle, odd
    combs), the complex one (pearl files, the 41- and 81-vertex paths among
    them), the chiral one (even combs, the 40-vertex path), the eigenvector
    solve with the averager (limiting, mix) and the lifted basis.  The
    81-vertex path needs the K M^2 term of the eigenvalue route, the
    cycle and the d = 2 comb at K = 16384 its K M term.
    """

    SWEEP = [  # (pearl, K, commands); mix and --vectors-out run on small necklaces
        ("0", 3, "spectrum limiting gap-scan mix vectors"),
        ("0", 16384, "spectrum limiting gap-scan"),
        ("0", 64, "mix vectors"),
        ("1", 4096, "spectrum limiting gap-scan"),
        ("1", 64, "mix"),
        ("2", 2048, "spectrum limiting gap-scan"),
        ("8", 512, "spectrum limiting gap-scan"),
        ("20", 64, "spectrum limiting gap-scan"),
        ("20", 16, "mix"),
        ("file", 1024, "spectrum limiting"),
        ("file", 32, "mix vectors"),
        ("path41", 128, "spectrum limiting"),
        ("path81", 256, "spectrum"),
        ("path40", 1024, "spectrum"),
        ("2", 16384, "spectrum gap-scan"),
    ]
    TERMS = [(False, 0), (False, 1), (True, 0), (True, 1), None]   # None: FIXED_BYTES

    @pytest.fixture(scope="class")
    def runs(self, tmp_path_factory):
        """(peak bytes, the command's guard arguments) for every command of the sweep."""
        tmp = tmp_path_factory.mktemp("estimates")
        for name, pearl in PATH_PEARLS.items():
            (tmp / f"{name}.json").write_text(json.dumps(pearl))
        out = ["--output", str(tmp / "out.csv")]
        calls, original = [], cli._guard_memory

        def recording(*args, **kwargs):
            calls.append((args, kwargs))
            return original(*args, **kwargs)

        cli._guard_memory = recording
        runs = []
        try:
            for name, K, commands in self.SWEEP:
                if name in PATH_PEARLS:
                    source = ["--pearl-file", str(tmp / f"{name}.json")]
                else:
                    source = pearl_source(name, tmp)[0]
                necklace = ["--K", str(K)]
                for command in commands.split():
                    argv = {
                        "spectrum": ["spectrum", *source, *necklace],
                        "limiting": ["limiting", *source, *necklace, "--start", "0"],
                        "gap-scan": ["gap-scan", "--d", name, *necklace],
                        "mix": ["mix", *source, *necklace, "--start", "0", "--eps", "0.1",
                                 "--T-hi", "100"],
                        "vectors": ["spectrum", *source, *necklace, "--vectors-out",
                                     str(tmp / "v.json")],
                    }[command] + out
                    assert main(argv) == 0          # the first call's imports are not traced
                    calls.clear()
                    tracemalloc.start()
                    try:
                        assert main(argv) == 0
                        peak = tracemalloc.get_traced_memory()[1]
                    finally:
                        tracemalloc.stop()
                    assert len(calls) == 1, argv         # each command is priced once
                    runs.append((argv, peak, calls[0]))
        finally:
            cli._guard_memory = original
        return runs

    def test_each_peak_is_within_its_estimate(self, runs):
        over = [(argv, peak, cli._need_bytes(*args, **kwargs))
                for argv, peak, (args, kwargs) in runs if peak > cli._need_bytes(*args, **kwargs)]
        assert not over

    @pytest.mark.parametrize("term", TERMS)
    def test_every_term_is_needed(self, term, runs, monkeypatch):
        if term is None:
            monkeypatch.setattr(cli, "FIXED_BYTES", 0)
        else:
            vectors, index = term
            coefficients = list(cli.SOLVE_BYTES[vectors])
            coefficients[index] = 0
            monkeypatch.setattr(cli, "SOLVE_BYTES", {**cli.SOLVE_BYTES,
                                                     vectors: tuple(coefficients)})
        assert any(peak > cli._need_bytes(*args, **kwargs) for _, peak, (args, kwargs) in runs)


class TestNonFiniteValues:
    @pytest.mark.parametrize("argv", [
        ["limiting", "--comb-d", "1", "--K", "8", "--start", "0", "--tau-deg", "nan"],
        ["limiting", "--comb-d", "1", "--K", "8", "--start", "0", "--tau-deg", "inf"],
        ["mix", "--comb-d", "1", "--K", "8", "--start", "0", "--eps", "0.1",
         "--tau-deg", "nan"],
    ])
    def test_non_finite_tau_deg_exits_one(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: tau_deg must be positive and finite")

    @pytest.mark.parametrize("limits", [
        ["--T-hi", "inf"],
        ["--T-hi", "1e400"],
        ["--T-lo", "nan"],
        ["--T-lo", "1e-300", "--T-hi", "1e300"],      # T_hi / T_lo overflows
        ["--T-lo", "5e-324"],
    ])
    def test_non_finite_grid_limits_exit_one(self, limits, no_solve, capsys):
        code, out, err = run_cli(
            ["mix", "--cycle", "--K", "8", "--start", "0", "--eps", "0.1", *limits], capsys
        )
        assert code == 1
        assert out == ""
        assert err.startswith("error: bad grid limits")

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_bad_cos_bound_c_exits_one_before_the_solve(self, value, monkeypatch, capsys):
        def refuse(*args, **kwargs):
            raise AssertionError("a bad --cos-bound-c reached the spectrum solve")

        monkeypatch.setattr(cli, "full_spectrum", refuse)
        code, out, err = run_cli(["mix", "--comb-d", "1", "--K", "8", "--start", "0",
                                  "--eps", "0.1", "--cos-bound-c", value], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: --cos-bound-c must be positive and finite")

    @pytest.mark.parametrize("argv, message", [
        (["mix", "--eps", "nan"], "epsilon must lie in (0, 2], got nan"),
        (["mix", "--eps", "3"], "epsilon must lie in (0, 2], got 3.0"),
        (["mix", "--eps", "0"], "epsilon must lie in (0, 2], got 0.0"),
        (["mix", "--eps", "0.1", "--tau-deg", "-1"], "tau_deg must be positive and finite"),
        (["limiting", "--tau-deg", "nan"], "tau_deg must be positive and finite"),
        (["limiting", "--tau-deg", "0"], "tau_deg must be positive and finite"),
    ])
    def test_eps_and_tau_deg_exit_one_before_the_solve(self, argv, message, no_solve, capsys):
        command, *options = argv
        code, out, err = run_cli([command, "--comb-d", "1", "--K", "8", "--start", "0",
                                  *options], capsys)
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {message}")


class TestOptionNames:
    @pytest.mark.parametrize("argv", [
        ["limiting", "--comb-d", "1", "--K", "8", "--st", "0", "--tau", "1e-9"],
        ["spectrum", "--cycle", "--K", "4", "--t", "3"],
    ])
    def test_only_full_option_names_are_accepted(self, argv, capsys):
        code, out, err = run_cli(argv, capsys)
        assert code == 1
        assert out == ""
        assert err.startswith("error: ")


class TestParserReuse:
    NAMES = ["spectrum", "limiting", "mix", "gap-scan", "oracle-check"]
    COMMANDS = [
        ["spectrum", "--comb-d", "1", "--K", "8"],
        ["limiting", "--comb-d", "1", "--K", "8", "--start", "2,base", "--closed-form"],
        ["gap-scan", "--d", "1,2", "--K", "8..32"],
    ]

    def test_one_parser_serves_every_command(self, tmp_path, capsys):
        def run(name, argv):
            path = tmp_path / name
            assert main(argv + ["--output", str(path)]) == 0
            return path.read_bytes()

        fresh = []
        for i, argv in enumerate(self.COMMANDS):
            cli.build_parser.cache_clear()
            fresh.append(run(f"fresh{i}", argv))
        cli.build_parser.cache_clear()
        assert main(["mix", "--comb-d", "1", "--K", "8", "--start", "2,base",
                     "--eps", "x"]) == 1
        reused = [run(f"reused{i}", argv) for i, argv in enumerate(self.COMMANDS * 2)]
        # One parser per distinct command, the failed mix included; the second round reuses.
        assert cli.build_parser.cache_info().misses == 1 + len(self.COMMANDS)
        assert reused == fresh * 2
        capsys.readouterr()

    def test_a_command_builds_only_its_own_parser(self, tmp_path):
        cli.build_parser.cache_clear()
        assert main(self.COMMANDS[0] + ["--output", str(tmp_path / "out.csv")]) == 0
        assert "{spectrum}" in cli.build_parser("spectrum").format_usage()
        assert cli.build_parser.cache_info().misses == 1

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["--help"])
        assert exit_info.value.code == 0
        out = capsys.readouterr().out
        assert all(name in out for name in self.NAMES)

    def test_unknown_command_names_every_choice(self, capsys):
        code, out, err = run_cli(["nosuch"], capsys)
        assert code == 1
        assert out == ""
        assert "invalid choice: 'nosuch'" in err
        assert all(name in err for name in self.NAMES)

    def test_command_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["spectrum", "--help"])
        assert exit_info.value.code == 0
        assert "--vectors-out" in capsys.readouterr().out

    @pytest.mark.parametrize("failed", [
        ["spectrum", "--cycle", "--K", "8", "--bogus"],
        ["limiting", "--comb-d", "1", "--K", "8", "--start"],
        ["gap-scan", "--d", "1"],
        ["nosuch", "--K", "8"],
    ])
    @pytest.mark.parametrize("argv", COMMANDS[:2])
    def test_a_failed_parse_leaves_the_next_command_alone(self, failed, argv, tmp_path,
                                                          capsys):
        cli.build_parser.cache_clear()
        assert main(argv + ["--output", str(tmp_path / "fresh.csv")]) == 0
        assert main(failed) == 1
        assert main(argv + ["--output", str(tmp_path / "after.csv")]) == 0
        assert (tmp_path / "after.csv").read_bytes() == (tmp_path / "fresh.csv").read_bytes()
        capsys.readouterr()


PEARL_FILE = {"m": 5, "edges": [[0, 1], [1, 2], [2, 3], [3, 4], [0, 2], [1, 4]],
              "root_in": 0, "root_out": 3}


def pearl_source(name, tmp_path):
    """The command-line source and the pearl: "file" for PEARL_FILE, else comb d (0: cycle)."""
    if name == "file":
        path = tmp_path / "pearl.json"
        path.write_text(json.dumps(PEARL_FILE))
        return ["--pearl-file", str(path)], load_pearl_file(str(path))
    if name == "0":
        return ["--cycle"], make_cycle_pearl()
    return ["--comb-d", name], make_comb_pearl(int(name))


class TestPearlFileOfAFamily:
    """A pearl file whose graph is the cycle or a comb prints what --cycle / --comb-d d print."""

    @staticmethod
    def pearl_file(pearl, path):
        """``pearl`` as a 0-based pearl file, edges listed last first and high endpoint first."""
        edges = [[b - 1, a - 1] for a, b in sorted(pearl.edges, reverse=True)]
        path.write_text(json.dumps({"m": pearl.m, "edges": edges,
                                    "root_in": pearl.root_in - 1, "root_out": pearl.root_out - 1}))
        return ["--pearl-file", str(path)]

    @pytest.mark.parametrize("d", [0, 1, 2, 3])
    def test_every_command_prints_the_family_bytes(self, d, tmp_path):
        family, pearl = pearl_source(str(d), tmp_path)
        from_file = self.pearl_file(pearl, tmp_path / "pearl.json")
        # Each start with the options it runs under; the cycle has no tooth, and only
        # the d = 1 comb has --closed-form.
        starts = {0: ["1"], 1: ["1,tooth", "2,base --closed-form"]}.get(d, ["1,tooth", "2,1"])
        commands = [["spectrum", "--K", "5"], ["oracle-check", "--K", "5"],
                    ["mix", "--K", "5", "--start", starts[0], "--eps", "0.1", "--T-hi", "100"]]
        commands += [["limiting", "--K", "5", "--start", *start.split()] for start in starts]
        for command in commands:
            texts = []
            for source in (family, from_file):
                out = tmp_path / "out.txt"
                assert main([*command, *source, "--output", str(out)]) == 0, command
                texts.append(out.read_bytes())
            assert texts[0] == texts[1], command
        assert load_pearl_file(from_file[1]).comb_spacing == d


def spectrum_rows_by_row(pearl, K):
    table = bloch.all_sector_eigenvalues(NecklaceSpec(pearl, K))
    lines = ["k,n,lambda"] + [f"{k},{n},{table[k, n]:.15g}"
                              for k in range(K) for n in range(pearl.m)]
    return "\n".join(lines) + "\n"


def limiting_rows_by_row(K):
    neck = NecklaceSpec(make_comb_pearl(1), K)
    pi = limiting_distribution(full_spectrum(neck), vertex_state(neck, 3, 2))
    closed = comb1_limiting_distribution(K, "tooth", 3)
    lines = ["j,m,vertex_type,pi,pi_analytic"]
    for j in range(1, K + 1):
        for m in range(1, 3):
            idx = neck.flat_index(j, m)
            lines.append(f"{j - 1},{m - 1},{neck.pearl.vertex_kind(m)},"
                         f"{pi[idx]:.15g},{closed[idx]:.15g}")
    lines.append(f"# max_abs_deviation = {np.abs(pi - closed).max():.15g}")
    return "\n".join(lines) + "\n"


class TestCsvRows:
    """The column-wise CSV writers against the per-row formatting they replaced."""

    def test_spectrum_rows(self, capsys):
        code, out, _ = run_cli(["spectrum", "--comb-d", "2", "--K", "7"], capsys)
        assert code == 0
        assert out == spectrum_rows_by_row(make_comb_pearl(2), 7)

    def test_spectrum_rows_even_k(self, capsys):
        # Sector K/2 is its own mirror.
        code, out, _ = run_cli(["spectrum", "--comb-d", "2", "--K", "8"], capsys)
        assert code == 0
        assert out == spectrum_rows_by_row(make_comb_pearl(2), 8)

    @pytest.mark.parametrize("K", [7, 8])
    def test_spectrum_rows_pearl_file(self, K, tmp_path, capsys):
        path = tmp_path / "pearl.json"
        path.write_text(json.dumps(PEARL_FILE))
        code, out, _ = run_cli(["spectrum", "--pearl-file", str(path), "--K", str(K)], capsys)
        assert code == 0
        assert out == spectrum_rows_by_row(load_pearl_file(str(path)), K)

    def test_limiting_rows(self, capsys):
        argv = ["limiting", "--comb-d", "1", "--K", "7", "--start", "2,tooth", "--closed-form"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == limiting_rows_by_row(7)

    def test_limiting_rows_even_k(self, capsys):
        argv = ["limiting", "--comb-d", "1", "--K", "8", "--start", "2,tooth", "--closed-form"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        assert out == limiting_rows_by_row(8)

    def test_mix_rows(self, capsys):
        argv = ["mix", "--comb-d", "1", "--K", "9", "--start", "4", "--eps", "0.2",
                "--T-hi", "100", "--cos-bound-c", "0.3"]
        code, out, _ = run_cli(argv, capsys)
        assert code == 0
        neck = NecklaceSpec(make_comb_pearl(1), 9)
        result = mixing_time(full_spectrum(neck), vertex_state(neck, 5, 1), 0.2, 100.0)
        expected = ["T,tv_distance,tv_bound,mixing_bound"] + [
            f"{t:.15g},{result.tv_values[i]:.15g},{result.bound_at_unit / t:.15g},"
            f"{mixing_bound_curve(0.3, 9, t):.15g}"
            for i, t in enumerate(result.grid)]
        assert out.splitlines()[:-1] == expected


class TestFormatColumn:
    """Each distinct value formatted once gives the per-value formatting."""

    SPECIAL = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e-310,
               math.inf, -math.inf, math.nan, 1.0, 1.0 + 2.0 ** -52, -1.0, 0.1]

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_matches_per_value_formatting(self, data):
        pool = data.draw(st.lists(st.floats(allow_nan=True, allow_infinity=True)
                                  | st.sampled_from(self.SPECIAL), min_size=1, max_size=8))
        values = data.draw(st.lists(st.sampled_from(pool), max_size=60))
        x = np.array(values, dtype=float)
        got = cli._format_column(x)
        assert got.shape == x.shape
        assert got.tolist() == list(map("{:.15g}".format, x.tolist()))

    def test_keeps_the_shape_and_every_nan_payload(self):
        nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, -0x0008000000000000],
                        dtype=np.int64).view(float)
        x = np.concatenate([nans, [0.0, -0.0, 0.0]]).reshape(2, 3)
        assert cli._format_column(x).tolist() == [["nan", "nan", "nan"], ["0", "-0", "0"]]


def test_commands_leave_numpy_ma_unloaded(tmp_path):
    """No command pays the first-call import of numpy.ma (np.unique triggers it)."""
    commands = [
        ["spectrum", "--comb-d", "1", "--K", "8"],
        ["limiting", "--comb-d", "1", "--K", "8", "--start", "1,tooth", "--closed-form"],
        ["mix", "--comb-d", "2", "--K", "6", "--start", "0", "--eps", "0.2", "--T-hi", "50"],
        ["gap-scan", "--d", "0,1,3", "--K", "16..64"],
    ]
    code = (
        "import json, sys\n"
        "from necklace_walks import cli\n"
        "for i, argv in enumerate(json.loads(sys.argv[1])):\n"
        "    assert cli.main([*argv, '--output', f'{sys.argv[2]}/{i}.csv']) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, json.dumps(commands), str(tmp_path)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_importing_the_cli_leaves_scipy_unloaded():
    code = "import sys, necklace_walks.cli; print('scipy' in sys.modules)"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


class TestUnreadInputs:
    """Inputs a command never reads are refused; an unread variable changes nothing."""

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--comb-d", "1", "--K", "8", "--tau-deg", "1e-9"],
        ["oracle-check", "--cycle", "--K", "5", "--tau-deg", "nan"],
    ])
    def test_tau_deg_is_refused_where_unread(self, argv, tmp_path, capsys):
        path = tmp_path / "out.csv"
        code, out, err = run_cli(argv + ["--output", str(path)], capsys)
        assert code == 1
        assert out == ""
        assert not path.exists()
        assert "--tau-deg" in err

    @pytest.mark.parametrize("argv", [
        ["spectrum", "--comb-d", "2", "--K", "9"],
        ["gap-scan", "--d", "0,1", "--K", "16..64"],
    ])
    @pytest.mark.parametrize("value", ["0", "abc"])
    def test_threads_variable_is_not_read(self, argv, value, monkeypatch, tmp_path, capsys):
        monkeypatch.delenv("NECKLACE_WALKS_THREADS", raising=False)
        assert main(argv + ["--output", str(tmp_path / "plain.csv")]) == 0
        monkeypatch.setenv("NECKLACE_WALKS_THREADS", value)
        assert main(argv + ["--output", str(tmp_path / "set.csv")]) == 0
        assert (tmp_path / "set.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("K, refused", [("2001", True), ("2000", False)])
    def test_oracle_check_cap_comes_before_the_dense_matrix(self, K, refused, monkeypatch,
                                                            capsys):
        def refuse(necklace):
            raise AssertionError("the dense Hamiltonian was assembled")

        monkeypatch.setattr(cli, "assemble_hamiltonian", refuse)
        if not refused:       # at the cap the check passes and the oracle starts
            with pytest.raises(AssertionError, match="dense Hamiltonian"):
                main(["oracle-check", "--cycle", "--K", K])
            return
        code, out, err = run_cli(["oracle-check", "--cycle", "--K", K], capsys)
        assert code == 1
        assert out == ""
        assert "oracle-check caps at 2000 vertices, got 2001" in err
