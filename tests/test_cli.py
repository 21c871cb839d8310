"""Command-line surface: flags, exit codes, golden outputs."""

from __future__ import annotations

import concurrent.futures
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from math import comb
from pathlib import Path

import numpy as np
import pytest

from partition_ais import (
    ContractViolationError, ExperimentConfig, GStarParams, StopCondition, cli, gen_g_star,
    harness, is_local_optimum, read_instance, run_experiment,
)
from partition_ais.cli import main


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_generate_writes_golden_gstar_file(tmp_path, capsys):
    out = tmp_path / "g8.txt"
    code, stdout, _ = _run(capsys, [
        "generate", "--family", "gstar", "--n", "8", "--s", "2",
        "--eps", "1/4", "--out", str(out),
    ])
    assert code == 0
    assert stdout.startswith("config: command=generate family=gstar n=8 s=2 eps=1/4")
    assert "W=144" in stdout
    expected = (
        "partition v1\nn=8\nmeta=gstar;s=2;eps=1/4;scale=1\n"
        "39\n39\n11\n11\n11\n11\n11\n11\n"
    )
    assert out.read_text(encoding="utf-8") == expected


_U6 = "partition v1\nn=6\nmeta=uniform\n41\n41\n12\n10\n9\n5\n"
_BATCH = ["--trials", "3", "--seed", "2", "--budget", "200", "--threads", "1"]


@pytest.mark.parametrize("argv, expected", [
    (["generate", "--family", "uniform", "--n", "6", "--max-p", "50", "--out", "OUT"],
     "config: command=generate family=uniform n=6 max_p=50 instance_seed=0 out=OUT\n"
     "wrote OUT: n=6 W=134 p_max=43 p_min=3\n"),
    (["generate", "--family", "gstar", "--n", "8", "--s", "2", "--eps", "1/4",
      "--out", "OUT"],
     "config: command=generate family=gstar n=8 s=2 eps=1/4 scale=1 out=OUT\n"
     "wrote OUT: n=8 W=144 p_max=39 p_min=11\n"),
    (["run", "--in", "IN", "--algo", "rls"] + _BATCH,
     "config: command=run in=IN n=6 family=uniform algo=rls trials=3 seed=2 budget=200 "
     "target=makespan<=60 threads=1 format=csv\n"
     "summary: optimum=60 best=60 trials=3 evaluations_mean=134.333 "
     "evaluations_median=200 evaluations_min=3 evaluations_max=200 evaluations_q10=42.4 "
     "evaluations_q90=200 success_rate=0.333333 ratio_mean=1.02778 ratio_median=1.03333 "
     "stuck_rate=0.666667 reinit_total=0 trials_with_reinit=0\n"),
    (["run", "--family", "uniform", "--n", "6", "--max-p", "50", "--algo", "iahyp"] + _BATCH,
     "config: command=run family=uniform n=6 max_p=50 instance_seed=0 algo=iahyp trials=3 "
     "seed=2 budget=200 target=makespan<=69 threads=1 format=csv\n"
     "summary: optimum=69 best=69 trials=3 evaluations_mean=22.3333 evaluations_median=19 "
     "evaluations_min=1 evaluations_max=47 evaluations_q10=4.6 evaluations_q90=41.4 "
     "success_rate=1 ratio_mean=1 ratio_median=1 stuck_rate=0 reinit_total=0 "
     "trials_with_reinit=0\n"),
], ids=["generate-uniform", "generate-gstar", "run-in", "run-uniform"])
def test_instance_sources_print_the_pinned_bytes(tmp_path, capsys, argv, expected):
    """The whole stdout, with the default instance seed and scale; the paths
    of --in and --out are masked."""
    paths = {"IN": tmp_path / "u6.txt", "OUT": tmp_path / "out.txt"}
    paths["IN"].write_text(_U6)
    code, stdout, stderr = _run(capsys, [str(paths.get(a, a)) for a in argv])
    assert (code, stderr) == (0, "")
    for mask, path in paths.items():
        stdout = stdout.replace(str(path), mask)
    assert stdout == expected


_GSTAR_FLAGS = ["--family", "gstar", "--n", "8", "--s", "2", "--eps", "1/4"]
_UNIFORM_FLAGS = ["--family", "uniform", "--n", "8", "--max-p", "10"]
_RUN = ["--algo", "rls", "--budget", "10", "--threads", "1", "--out", "OUT"]


@pytest.mark.parametrize("argv, message", [
    (["run", "--in", "IN", "--n", "99"] + _RUN, "--in takes no --n"),
    (["run", "--in", "IN", "--s", "4"] + _RUN, "--in takes no --s"),
    (["run", "--in", "IN", "--eps", "1/9"] + _RUN, "--in takes no --eps"),
    (["run", "--in", "IN", "--max-p", "3"] + _RUN, "--in takes no --max-p"),
    (["run", "--in", "IN", "--instance-seed", "0"] + _RUN, "--in takes no --instance-seed"),
    (["run"] + _UNIFORM_FLAGS + ["--s", "2", "--eps", "1/4"] + _RUN,
     "--family uniform takes no --s"),
    (["run"] + _GSTAR_FLAGS + ["--max-p", "7", "--instance-seed", "3"] + _RUN,
     "--family gstar takes no --max-p"),
    (["run"] + _GSTAR_FLAGS + ["--instance-seed", "3"] + _RUN,
     "--family gstar takes no --instance-seed"),
    (["generate"] + _GSTAR_FLAGS + ["--max-p", "9", "--seed", "4", "--out", "OUT"],
     "--family gstar takes no --max-p"),
    (["generate"] + _GSTAR_FLAGS + ["--seed", "4", "--out", "OUT"],
     "--family gstar takes no --seed"),
    (["generate"] + _UNIFORM_FLAGS + ["--scale", "3", "--out", "OUT"],
     "--family uniform takes no --scale"),
], ids=[
    "run-in-n", "run-in-s", "run-in-eps", "run-in-max-p", "run-in-instance-seed",
    "run-uniform-s", "run-gstar-max-p", "run-gstar-instance-seed", "generate-gstar-max-p",
    "generate-gstar-seed", "generate-uniform-scale",
])
def test_an_instance_flag_the_source_does_not_take_fails(tmp_path, capsys, argv, message):
    _assert_fails_before_output(tmp_path, capsys, argv, message)


def _assert_fails_before_output(tmp_path, capsys, argv, message):
    """Exit 2 with one error: line, nothing on stdout and no OUT file; IN is
    a small instance file."""
    paths = {"IN": tmp_path / "u6.txt", "OUT": tmp_path / "out.txt"}
    paths["IN"].write_text(_U6)
    code, stdout, stderr = _run(capsys, [str(paths.get(a, a)) for a in argv])
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")
    assert not paths["OUT"].exists()


@pytest.mark.parametrize("argv, message", [
    (["run", "--in", "IN"] + _GSTAR_FLAGS + _RUN, "give either --in or --family, not both"),
    (["run", "--family", "gstar"] + _RUN, "--family needs --n"),
    (["run", "--family", "gstar", "--n", "8", "--s", "2"] + _RUN,
     "family gstar needs --s and --eps"),
    (["generate", "--family", "gstar", "--n", "8", "--eps", "1/4", "--out", "OUT"],
     "family gstar needs --s and --eps"),
    (["run", "--family", "uniform", "--n", "8"] + _RUN, "family uniform needs --max-p"),
    (["run"] + _GSTAR_FLAGS + _RUN + ["--target-ratio", "3/2", "--no-target"],
     "choose one of --target-ratio and --no-target"),
    (["sweep", "--n-list", "8", "--s", "2"] + _RUN,
     "sweep needs --s and --eps for the gstar family"),
    (["run"] + _GSTAR_FLAGS + _RUN + ["--mu", "2"],
     "mu (--mu) other than 1 only applies to ageing"),
], ids=[
    "in-and-family", "family-without-n", "run-gstar-without-eps", "generate-gstar-without-s",
    "uniform-without-max-p", "ratio-and-no-target", "sweep-without-eps", "mu-without-ageing",
])
def test_incomplete_or_conflicting_flags_fail_before_any_output(
    tmp_path, capsys, argv, message
):
    _assert_fails_before_output(tmp_path, capsys, argv, message)


@pytest.mark.parametrize("argv", [
    ["generate"] + _GSTAR_FLAGS,
    ["run"] + _GSTAR_FLAGS + _BATCH + ["--algo", "rls"],
    ["sweep", "--n-list", "8,12", "--s", "2", "--eps", "1/4", "--algo", "rls"] + _BATCH,
], ids=["generate", "run", "sweep"])
@pytest.mark.parametrize("out", ["missing/out.txt", "."], ids=["missing-dir", "dir"])
def test_an_unwritable_out_fails_before_any_trial(monkeypatch, tmp_path, capsys, argv, out):
    def no_batch(config):
        raise AssertionError("a batch was run")

    monkeypatch.setattr(cli, "run_experiment", no_batch)
    code, stdout, stderr = _run(capsys, argv + ["--out", str(tmp_path / out)])
    assert (code, stdout) == (2, "")
    assert stderr.startswith("error: [Errno ") and stderr.count("\n") == 1
    assert not (tmp_path / "missing").exists()


def test_generate_odd_n_fails_with_validation_code(tmp_path, capsys):
    code, _, stderr = _run(capsys, [
        "generate", "--family", "gstar", "--n", "9", "--s", "2",
        "--eps", "1/4", "--out", str(tmp_path / "x.txt"),
    ])
    assert code == 2
    assert "even" in stderr


def test_generate_rejects_float_eps(tmp_path, capsys):
    code, _, stderr = _run(capsys, [
        "generate", "--family", "gstar", "--n", "8", "--s", "2",
        "--eps", "0.25", "--out", str(tmp_path / "x.txt"),
    ])
    assert code == 2
    assert "q/r" in stderr


def test_solve_dp_and_lpt(tmp_path, capsys):
    inst = tmp_path / "g8.txt"
    assert main(["generate", "--family", "gstar", "--n", "8", "--s", "2",
                 "--eps", "1/4", "--out", str(inst)]) == 0
    capsys.readouterr()

    code, stdout, _ = _run(capsys, ["solve", "--in", str(inst), "--method", "dp"])
    assert code == 0
    assert "makespan=72" in stdout

    code, stdout, _ = _run(capsys, [
        "solve", "--in", str(inst), "--method", "dp", "--assignment",
    ])
    assert code == 0
    assert stdout.splitlines()[1:] == ["makespan=72", "assignment=10111000"]

    code, stdout, _ = _run(capsys, [
        "solve", "--in", str(inst), "--method", "brute", "--assignment",
    ])
    assert code == 0
    assert "makespan=72" in stdout
    line = [l for l in stdout.splitlines() if l.startswith("assignment=")][0]
    bits = line.removeprefix("assignment=")
    # every optimal split of this instance puts one heavy and three light
    # jobs on each machine
    assert sorted(bits) == ["0"] * 4 + ["1"] * 4

    code, stdout, _ = _run(capsys, ["solve", "--in", str(inst), "--method", "lpt"])
    assert code == 0
    assert "makespan=" in stdout


def test_solve_brute_capacity_exit_code(tmp_path, capsys):
    inst = tmp_path / "u25.txt"
    assert main(["generate", "--family", "uniform", "--n", "25", "--max-p", "10",
                 "--seed", "1", "--out", str(inst)]) == 0
    capsys.readouterr()
    code, _, stderr = _run(capsys, ["solve", "--in", str(inst), "--method", "brute"])
    assert code == 3
    assert "capacity" in stderr


def test_solve_missing_file(capsys):
    code, _, stderr = _run(capsys, ["solve", "--in", "/nonexistent/x.txt", "--method", "dp"])
    assert code == 2
    assert stderr


def test_solve_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"partition v1\nn=2\n5\n\xff4\n")
    code, stdout, stderr = _run(capsys, ["solve", "--in", str(path), "--method", "dp"])
    assert code == 2
    assert stdout == ""
    assert stderr == "error: line 4: not UTF-8 text\n"


def test_solve_rejects_gstar_parameters_the_family_forbids(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("partition v1\nn=4\nmeta=gstar;s=0;eps=0/0;scale=0\n5\n5\n5\n5\n")
    code, stdout, stderr = _run(capsys, ["solve", "--in", str(path), "--method", "dp"])
    assert (code, stdout) == (2, "")
    assert stderr == "error: line 3: s must be an even number of heavy jobs, at least 2\n"


_RLS_BATCH = ["--s", "2", "--eps", "1/4", "--algo", "rls", "--budget", "50", "--threads", "1"]


@pytest.mark.parametrize("argv, message", [
    (["sweep", "--n-list", "1_0,+12"] + _RLS_BATCH,
     "error: --n-list must be comma-separated integers, got '1_0,+12'\n"),
    (["sweep", "--n-list", "8,\u0661\u0662"] + _RLS_BATCH,
     "error: --n-list must be comma-separated integers, got '8,\u0661\u0662'\n"),
    (["run", "--family", "gstar", "--n", "16"] + _RLS_BATCH + ["--eps", " 1/4"],
     "error: --eps must be a rational q/r, got ' 1/4'\n"),
    (["run", "--family", "gstar", "--n", "16"] + _RLS_BATCH + ["--eps", "+1/4"],
     "error: --eps must be a rational q/r, got '+1/4'\n"),
    (["run", "--family", "gstar", "--n", "16"] + _RLS_BATCH + ["--target-ratio", "3/2_0"],
     "error: --target-ratio must be a rational q/r, got '3/2_0'\n"),
    (["run", "--family", "gstar", "--n", "1_6"] + _RLS_BATCH,
     "argument --n: invalid int value: '1_6'\n"),
    (["run", "--family", "gstar", "--n", "16"] + _RLS_BATCH + ["--s", "+2"],
     "argument --s: invalid int value: '+2'\n"),
    (["run", "--family", "gstar", "--n", "16"] + _RLS_BATCH + ["--budget", "5_0"],
     "argument --budget: invalid int value: '5_0'\n"),
    (["run", "--family", "gstar", "--n", "16"] + _RLS_BATCH + ["--seed=-1_0"],
     "argument --seed: invalid int value: '-1_0'\n"),
    (["run", "--family", "gstar", "--n", "16"] + _RLS_BATCH + ["--threads", " 2"],
     "argument --threads: invalid int value: ' 2'\n"),
    (["verify", "--suite", "oracles", "--seed", "\u0667"],
     "argument --seed: invalid int value: '\u0667'\n"),
], ids=[
    "n-list-underscore-plus", "n-list-arabic", "eps-space", "eps-plus",
    "target-ratio-underscore", "n-underscore", "s-plus", "budget-underscore",
    "seed-minus-underscore", "threads-space", "verify-seed-arabic",
])
def test_integers_on_the_command_line_are_ascii_digits(capsys, argv, message):
    """The instance files' rule, plus one leading minus on integer flags."""
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse's type errors
        code = exc.code
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert captured.err.endswith(message)


@pytest.mark.parametrize("argv", [
    ["generate", "--seed", "-1"],
    ["run", "--instance-seed", "-1", "--algo", "rls", "--budget", "100"],
], ids=["generate", "run"])
def test_a_negative_uniform_seed_fails_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    code, stdout, stderr = _run(capsys, argv + [
        "--family", "uniform", "--n", "8", "--max-p", "10", "--out", str(out),
    ])
    assert code == 2
    assert stdout == ""
    assert stderr == "error: the uniform instance seed must be non-negative\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["generate"],
    ["run", "--algo", "rls", "--budget", "100"],
], ids=["generate", "run"])
def test_a_uniform_max_p_beyond_int64_fails_before_any_output(tmp_path, capsys, argv):
    out = tmp_path / "out.txt"
    code, stdout, stderr = _run(capsys, argv + [
        "--family", "uniform", "--n", "4", "--max-p", str(1 << 63), "--out", str(out),
    ])
    assert code == 2
    assert stdout == ""
    assert stderr == "error: max_p must be below 2^63\n"
    assert not out.exists()


def test_run_requires_an_instance(capsys):
    code, _, stderr = _run(capsys, ["run", "--algo", "rls", "--budget", "100"])
    assert code == 2
    assert "--in or --family" in stderr


def test_run_ageing_demands_tau(capsys):
    code, _, stderr = _run(capsys, [
        "run", "--family", "gstar", "--n", "8", "--s", "2", "--eps", "1/4",
        "--algo", "ageing", "--budget", "100",
    ])
    assert code == 2
    assert "tau" in stderr


def test_run_rejects_stray_algorithm_flags(capsys):
    code, _, stderr = _run(capsys, [
        "run", "--family", "gstar", "--n", "8", "--s", "2", "--eps", "1/4",
        "--algo", "rls", "--tau", "5", "--budget", "100",
    ])
    assert code == 2
    assert "ageing" in stderr
    code, _, stderr = _run(capsys, [
        "run", "--family", "gstar", "--n", "8", "--s", "2", "--eps", "1/4",
        "--algo", "rls", "--restart-len", "5", "--budget", "100",
    ])
    assert code == 2
    assert "restart" in stderr


@pytest.mark.parametrize("threads", ["1", "2"])
def test_run_rejects_a_negative_seed(monkeypatch, capsys, threads):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    code, _, stderr = _run(capsys, [
        "run", "--family", "gstar", "--n", "8", "--s", "2", "--eps", "1/4",
        "--algo", "iahyp", "--trials", "4", "--seed", "-1", "--budget", "100",
        "--threads", threads,
    ])
    assert code == 2
    assert "seeds and indices must be non-negative" in stderr


@pytest.mark.parametrize("source", [
    ["run", "--family", "gstar", "--n", "8"],
    ["sweep", "--n-list", "8"],
    ["sweep", "--n-list", ""],
], ids=["run", "sweep", "sweep-empty"])
@pytest.mark.parametrize("flags, rule", [
    (["--algo", "ageing", "--tau", "5", "--mu", "0"], "mu must be at least 1"),
    (["--algo", "ageing", "--tau", "0"], "tau must be at least 1"),
    (["--algo", "rls-restart", "--restart-len", "0"], "restart_length must be at least 1"),
    (["--algo", "iahyp", "--trials", "0"], "trials must be at least 1"),
    (["--algo", "iahyp", "--threads", "0"], "workers must be at least 1"),
    (["--algo", "iahyp", "--threads", "-3"], "workers must be at least 1"),
    (["--algo", "iahyp", "--seed", "-1"], "seeds and indices must be non-negative"),
], ids=["mu0", "tau0", "restart-len0", "trials0", "threads0", "threads-3", "seed-1"])
def test_bad_batch_values_fail_before_any_output(monkeypatch, capsys, source, flags, rule):
    def no_pool(max_workers):
        raise AssertionError("a pool was started")

    monkeypatch.setattr(cli.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    code, stdout, stderr = _run(capsys, source + [
        "--s", "2", "--eps", "1/4", "--budget", "100", "--trials", "4", "--threads", "2",
    ] + flags)
    assert code == 2
    assert stdout == ""
    assert stderr.startswith("error: ") and rule in stderr


def test_run_is_deterministic_and_writes_csv(tmp_path, capsys):
    outputs = []
    for name in ("a.csv", "b.csv"):
        out = tmp_path / name
        code, stdout, _ = _run(capsys, [
            "run", "--family", "gstar", "--n", "8", "--s", "2", "--eps", "1/4",
            "--algo", "rls", "--trials", "5", "--seed", "3",
            "--budget", "5000", "--threads", "1", "--out", str(out),
        ])
        assert code == 0
        assert stdout.startswith("config: command=run")
        assert "summary:" in stdout
        assert "success_rate=" in stdout
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    header = outputs[0].decode().splitlines()[0]
    assert header == (
        "trial,seed,n,family,algorithm,mu,tau,evaluations,"
        "best_makespan,optimum,ratio,terminated_by,reinit_count"
    )


def test_run_budget_only_mode_for_dp_infeasible_instances(tmp_path, capsys):
    inst = tmp_path / "huge.txt"
    inst.write_text(
        f"partition v1\nn=2\n{1 << 61}\n{1 << 61}\n", encoding="utf-8"
    )
    code, _, stderr = _run(capsys, [
        "run", "--in", str(inst), "--algo", "rls", "--budget", "50",
    ])
    assert code == 2
    assert "--no-target" in stderr

    code, stdout, _ = _run(capsys, [
        "run", "--in", str(inst), "--algo", "rls", "--budget", "50", "--no-target",
    ])
    assert code == 0
    assert "target=none" in stdout

    code, _, stderr = _run(capsys, [
        "run", "--in", str(inst), "--algo", "rls", "--budget", "50",
        "--target-ratio", "3/2",
    ])
    assert code == 2


class _InlinePool:
    """Stands in for ProcessPoolExecutor: records max_workers, starts no process."""

    sizes: list[int] = []

    def __init__(self, max_workers: int) -> None:
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables, chunksize=1):
        return map(fn, *iterables)


@pytest.mark.usefixtures("pool_from_the_first_trial")
@pytest.mark.parametrize("command", ["run", "sweep"])
def test_worker_processes_are_capped_at_the_cpu_count(monkeypatch, capsys, command):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InlinePool)
    monkeypatch.setattr(_InlinePool, "sizes", [])
    source = (
        ["run", "--family", "gstar", "--n", "8"] if command == "run"
        else ["sweep", "--n-list", "8"]
    )

    def argv(trials: int) -> list[str]:
        return source + [
            "--s", "2", "--eps", "1/4", "--algo", "rls", "--trials", str(trials),
            "--budget", "200", "--threads", "5000",
        ]

    code, stdout, _ = _run(capsys, argv(10))
    assert code == 0
    assert " threads=3 " in stdout.splitlines()[0]
    assert _InlinePool.sizes == [3]
    # fewer trials than CPUs: the trial count caps the pool
    code, stdout, _ = _run(capsys, argv(2))
    assert code == 0
    assert " threads=2 " in stdout.splitlines()[0]
    assert _InlinePool.sizes == [3, 2]


def test_run_target_ratio_mode(capsys):
    code, stdout, _ = _run(capsys, [
        "run", "--family", "uniform", "--n", "20", "--max-p", "100",
        "--instance-seed", "5", "--algo", "iahyp", "--trials", "3",
        "--budget", "100000", "--target-ratio", "3/2", "--threads", "1",
    ])
    assert code == 0
    assert "target=ratio<=3/2" in stdout
    assert "success_rate=1" in stdout


def test_sweep_prints_one_line_per_size(capsys):
    code, stdout, _ = _run(capsys, [
        "sweep", "--n-list", "8,12", "--s", "2", "--eps", "1/4",
        "--algo", "iahyp", "--trials", "5", "--seed", "1",
        "--budget", "100000", "--threads", "1",
    ])
    assert code == 0
    lines = stdout.splitlines()
    assert lines[0].startswith("config: command=sweep")
    assert any(l.startswith("n=8 optimum=72") for l in lines)
    assert any(l.startswith("n=12 optimum=120") for l in lines)


def test_sweep_with_empty_n_list_is_a_no_op(tmp_path, capsys):
    for n_list in ("", ","):
        argv = ["sweep", "--n-list", n_list, "--s", "2", "--eps", "1/4", "--algo", "rls",
                "--budget", "100"]
        code, stdout, _ = _run(capsys, argv)
        assert code == 0
        assert stdout.startswith("config: command=sweep")
        assert not [l for l in stdout.splitlines() if l.startswith("n=")]
        # --out still gets a file of its format, with no rows
        for fmt, text in (("csv", ",".join(harness.CSV_COLUMNS) + "\n"),
                          ("json", '{\n  "sweeps": []\n}\n')):
            out = tmp_path / f"empty.{fmt}"
            code, _, _ = _run(capsys, argv + ["--format", fmt, "--out", str(out)])
            assert code == 0
            assert out.read_text(encoding="utf-8") == text


@pytest.mark.parametrize("n_list", ["8", "8,12"])
def test_sweep_seeds_each_size_from_the_shared_seed(tmp_path, capsys, n_list):
    """The rows and summary of size n are those of one batch with master seed
    derive_seed(seed, n) that stops at ratio 1 of its own optimum."""
    out = tmp_path / "sweep.json"
    code, _, _ = _run(capsys, [
        "sweep", "--n-list", n_list, "--s", "2", "--eps", "1/4",
        "--algo", "rls", "--trials", "4", "--seed", "9",
        "--budget", "3000", "--threads", "1", "--format", "json", "--out", str(out),
    ])
    assert code == 0
    sweeps = json.loads(out.read_text())["sweeps"]
    assert [s["n"] for s in sweeps] == [int(n) for n in n_list.split(",")]
    for entry in sweeps:
        n = entry["n"]
        report = harness.run_experiment(harness.ExperimentConfig(
            instance=gen_g_star(GStarParams(n=n, s=2, eps=(1, 4))),
            algorithm="rls",
            trials=4,
            master_seed=harness.derive_seed(9, n),
            stop=StopCondition(3000, target_ratio=Fraction(1)),
            optimum_source="dp",
        ))
        expected = {"n": n, "optimum": report.optimum,
                    "trials": harness.report_rows(report), "summary": report.summary}
        assert entry == json.loads(json.dumps(expected))


# gstar at n=64 and scale 10^6 is beyond the dp solver's capacity guard.
_DP_INFEASIBLE = {
    "run": ["run", "--family", "gstar", "--n", "64"],
    "sweep": ["sweep", "--n-list", "64"],
}


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_budget_only_batch_on_a_dp_infeasible_size(tmp_path, capsys, command):
    out = tmp_path / "rows.csv"
    argv = _DP_INFEASIBLE[command] + [
        "--s", "2", "--eps", "1/4", "--scale", "1000000", "--algo", "rls",
        "--trials", "2", "--budget", "50", "--threads", "1",
    ]
    code, stdout, stderr = _run(capsys, argv + ["--no-target", "--out", str(out)])
    assert (code, stderr) == (0, "")
    assert " target=none " in stdout.splitlines()[0]
    assert "optimum=- " in stdout.splitlines()[1]
    rows = out.read_text().splitlines()[1:]
    assert len(rows) == 2
    assert all(row.split(",")[9:11] == ["", ""] for row in rows)
    # the same batch as JSON: null cells, in the bytes json.dumps writes
    out = tmp_path / "rows.json"
    code, _, stderr = _run(capsys, argv + ["--no-target", "--format", "json", "--out", str(out)])
    assert (code, stderr) == (0, "")
    data = out.read_bytes()
    payload = json.loads(data)
    trials = payload["trials"] if command == "run" else payload["sweeps"][0]["trials"]
    assert [(row["optimum"], row["ratio"]) for row in trials] == [(None, None)] * 2
    assert data == (json.dumps(payload, indent=2) + "\n").encode("utf-8")

    code, stdout, stderr = _run(capsys, argv)
    assert code == 2
    assert stderr == (
        "error: the dp solver cannot resolve an optimum target for this "
        "instance; rerun with --no-target for a budget-only experiment\n"
    )
    code, stdout, stderr = _run(capsys, argv + ["--target-ratio", "3/2"])
    assert code == 2
    assert stderr == (
        "error: --target-ratio needs the exact optimum and the dp solver "
        "cannot handle this instance\n"
    )


def test_run_rejects_a_zero_budget_before_the_dp_optimum(monkeypatch, capsys):
    # the dp solver cannot handle this instance; a zero budget fails on its
    # own rule rather than suggesting --no-target, which would fail on it too
    def no_dp(inst):
        raise AssertionError("the dp solver ran")

    monkeypatch.setattr(cli, "dp_optimal_makespan", no_dp)
    code, stdout, stderr = _run(capsys, [
        "run", "--family", "uniform", "--n", "1000", "--max-p", "1000000",
        "--algo", "rls", "--budget", "0",
    ])
    assert (code, stdout) == (2, "")
    assert stderr == "error: max_evaluations must be at least 1\n"


_GSTAR8 = {
    "run": ["run", "--family", "gstar", "--n", "8"],
    "sweep": ["sweep", "--n-list", "8"],
}


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_zero_denominator_is_a_validation_error(capsys, command):
    argv = _GSTAR8[command] + [
        "--s", "2", "--algo", "rls", "--budget", "100", "--threads", "1",
    ]
    code, stdout, stderr = _run(capsys, argv + ["--eps", "1/4", "--target-ratio", "1/0"])
    assert (code, stdout) == (2, "")
    assert stderr == "error: --target-ratio must be a rational q/r, got '1/0'\n"
    code, stdout, stderr = _run(capsys, argv + ["--eps", "1/0"])
    assert (code, stdout) == (2, "")
    assert stderr == "error: --eps must be a rational q/r, got '1/0'\n"


def _no_batch(config):
    raise AssertionError("a batch ran before every size was resolved")


@pytest.mark.parametrize("n_list, extra, message", [
    ("8,9", ["--no-target"], "n must be an even number of jobs"),
    ("8,64", ["--scale", "1000000"],
     "the dp solver cannot resolve an optimum target for this instance; "
     "rerun with --no-target for a budget-only experiment"),
], ids=["odd-size", "dp-infeasible-size"])
def test_sweep_rejects_a_bad_size_before_the_first_batch(
    monkeypatch, capsys, n_list, extra, message
):
    monkeypatch.setattr(cli, "run_experiment", _no_batch)
    code, stdout, stderr = _run(capsys, [
        "sweep", "--n-list", n_list, "--s", "2", "--eps", "1/4", "--algo", "rls",
        "--trials", "2", "--budget", "100", "--threads", "1",
    ] + extra)
    assert (code, stdout, stderr) == (2, "", f"error: {message}\n")


def test_a_mistagged_gstar_file_gets_a_stuck_rate_from_its_dp_optimum(tmp_path, capsys):
    """A gstar tag on times that are not two-valued, beyond the enumeration
    limit: the batch exports, and its stuck rate counts the trials that ended
    on a local optimum above the DP optimum."""
    inst = tmp_path / "mistagged.txt"
    inst.write_text(
        "partition v1\nn=26\nmeta=gstar;s=2;eps=1/4;scale=1\n"
        + "".join(f"{t}\n" for t in range(60, 34, -1))
    )
    out = tmp_path / "rows.json"
    code, stdout, stderr = _run(capsys, [
        "run", "--in", str(inst), "--algo", "rls", "--trials", "3", "--budget", "500",
        "--threads", "1", "--format", "json", "--out", str(out),
    ])
    assert (code, stderr) == (0, "")
    data = json.loads(out.read_text())
    assert len(data["trials"]) == 3
    report = run_experiment(ExperimentConfig(
        instance=read_instance(str(inst)), algorithm="rls", trials=3, master_seed=0,
        stop=StopCondition(500), optimum_source="dp",
    ))
    stuck = sum(
        r.best_makespan > report.optimum
        and is_local_optimum(report.config.instance, r.best_assignment)
        for r in report.results
    )
    assert data["summary"]["stuck_rate"] == report.summary["stuck_rate"] == stuck / 3
    assert f" stuck_rate={stuck / 3:.6g} " in stdout


def test_sweep_merged_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, _, _ = _run(capsys, [
        "sweep", "--n-list", "8,12", "--s", "2", "--eps", "1/4",
        "--algo", "rls", "--trials", "2", "--seed", "4",
        "--budget", "2000", "--threads", "1", "--out", str(out),
    ])
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 1 + 4
    assert sum(",8,gstar," in l for l in lines) == 2
    assert sum(",12,gstar," in l for l in lines) == 2


# The exported bytes and the stdout of run and sweep for each target mode and
# format, pinned by the first 16 hex digits of their SHA-256. The out= path is
# masked in stdout. Sweep keeps terminated_by=ratio under its default target
# (ratio 1 of each size's optimum) where run stops with terminated_by=target.
_GOLDEN_SOURCES = {
    "run": ["run", "--family", "gstar", "--n", "8"],
    "sweep": ["sweep", "--n-list", "8,12"],
}
_GOLDEN_TARGETS = {"default": [], "ratio": ["--target-ratio", "5/4"], "none": ["--no-target"]}
_GOLDEN = {
    ("run", "default", "csv"): ("6dc788af2633bbfb", "07deb4a5485348f9"),
    ("run", "default", "json"): ("20140c92b2c0761b", "a24ff797975edf0f"),
    ("run", "ratio", "csv"): ("d537c2de3ed9c06b", "4830f3118e19d687"),
    ("run", "ratio", "json"): ("e4919a511e2fabe8", "d430b76cc14e94f7"),
    ("run", "none", "csv"): ("089071324e95ddaa", "f028e57653fdd19c"),
    ("run", "none", "json"): ("1147e4f0782af5f3", "9b829218027da36b"),
    ("sweep", "default", "csv"): ("61765c257cd11c7e", "db705802bc290111"),
    ("sweep", "default", "json"): ("cad2ac83bc21d8bc", "25a76b001f30516c"),
    ("sweep", "ratio", "csv"): ("20ef5a429e266d3f", "e1957a34745c8539"),
    ("sweep", "ratio", "json"): ("23311700374322e2", "19d23bf85aeac2ed"),
    ("sweep", "none", "csv"): ("59053ae6e6a3eb98", "27ef29367f006354"),
    ("sweep", "none", "json"): ("fbd22125c58c03f9", "3d7b7e1ce00d71b6"),
}


@pytest.mark.parametrize("case", sorted(_GOLDEN), ids="-".join)
def test_run_and_sweep_export_the_pinned_bytes(tmp_path, capsys, case):
    command, target, fmt = case
    out = tmp_path / f"out.{fmt}"
    code, stdout, _ = _run(capsys, _GOLDEN_SOURCES[command] + [
        "--s", "2", "--eps", "1/4", "--algo", "ageing", "--mu", "2", "--tau", "30",
        "--trials", "3", "--seed", "5", "--budget", "3000", "--threads", "1",
        "--format", fmt, "--out", str(out),
    ] + _GOLDEN_TARGETS[target])
    assert code == 0
    data = out.read_bytes()
    if (target, fmt) == ("default", "csv"):
        reasons = {line.split(",")[11] for line in data.decode().splitlines()[1:]}
        assert reasons == {"target" if command == "run" else "ratio"}
    if (command, fmt) == ("sweep", "json"):
        sweeps = json.loads(data)["sweeps"]
        assert [(s["n"], s["optimum"]) for s in sweeps] == [(8, 72), (12, 120)]
        assert all(row["n"] == s["n"] for s in sweeps for row in s["trials"])
    digests = tuple(
        hashlib.sha256(b).hexdigest()[:16]
        for b in (data, stdout.replace(str(out), "OUT").encode())
    )
    assert digests == _GOLDEN[case]


def test_verify_suites_pass(capsys):
    code, stdout, _ = _run(capsys, ["verify", "--suite", "properties"])
    assert code == 0
    assert "verify: ok" in stdout
    assert "PASS local_optima_n12" in stdout

    code, stdout, _ = _run(capsys, ["verify", "--suite", "oracles"])
    assert code == 0
    assert "PASS dp_equals_brute_200" in stdout


def test_verify_rejects_an_unknown_suite(capsys):
    code, stdout, stderr = _run(capsys, ["verify", "--suite", "bogus"])
    assert code == 2
    assert stdout == ""
    assert "oracles, properties, trajectories" in stderr


@pytest.mark.parametrize("suite", ["oracles", "trajectories"])
def test_verify_rejects_a_negative_seed(capsys, suite):
    code, stdout, stderr = _run(capsys, ["verify", "--suite", suite, "--seed", "-1"])
    assert code == 2
    assert stdout == ""
    assert stderr == "error: seeds must be non-negative\n"


@pytest.mark.parametrize("suite, seed, message", [
    ("bogus", None, "unknown suite 'bogus'; choose one of oracles, properties, trajectories"),
    ("properties", 5, "suite 'properties' takes no seed"),
    ("oracles", -1, "seeds must be non-negative"),
    ("trajectories", -1, "seeds must be non-negative"),
], ids=["unknown", "properties-seed", "oracles-negative", "trajectories-negative"])
def test_run_suite_holds_the_verify_rules(suite, seed, message):
    from partition_ais import checks

    with pytest.raises(ContractViolationError) as exc:
        checks.run_suite(suite, seed)
    assert str(exc.value) == message


def test_verify_properties_takes_no_seed(capsys):
    code, stdout, stderr = _run(capsys, ["verify", "--suite", "properties", "--seed", "5"])
    assert code == 2
    assert stdout == ""
    assert stderr == "error: suite 'properties' takes no seed\n"

    code, stdout, _ = _run(capsys, ["verify", "--suite", "properties"])
    assert code == 0
    assert stdout.startswith("config: command=verify suite=properties\n")


TRAJECTORIES_STDOUT = """\
config: command=verify suite=trajectories seed=20240902
PASS uniformity_chi2 measured[chi2=50.36 off_weight_samples=0] bound[chi2 <= 111.06]
PASS halfway_weighted_mean measured[mean=148010.4 target=147964.0 rel_err=0.0003] bound[within 1%]
PASS crossing_window measured[rate=1.0000] bound[>= 0.95 in steps [375, 625]]
verify: ok (3/3 checks)
"""


def test_verify_trajectories_prints_the_pinned_bytes(capsys):
    assert _run(capsys, ["verify", "--suite", "trajectories"]) == (0, TRAJECTORIES_STDOUT, "")


def _with_replacement(n, rng, walks):
    return rng.integers(0, n, size=(walks, n))


def _one_order_per_chunk(n, rng, walks):
    return np.tile(rng.permutation(n), (walks, 1))


def _blocks_kept_together(n, rng, walks):
    """Blocks of 10 consecutive positions in random order, each block's
    positions shuffled; at n=8 this is one block, a uniform permutation."""
    ranks = rng.permuted(np.tile(np.arange(-(-n // 10)), (walks, 1)), axis=1)
    return np.argsort(ranks[:, np.arange(n) // 10] + rng.random((walks, n)), axis=1)


@pytest.mark.parametrize("broken, verdicts", [
    (_with_replacement, ["FAIL uniformity_chi2"]),
    (_one_order_per_chunk, ["FAIL uniformity_chi2"]),
    # flips that stay near each other: only crossing_window sees them
    (_blocks_kept_together, ["PASS uniformity_chi2", "FAIL crossing_window"]),
], ids=["_with_replacement", "_one_order_per_chunk", "_blocks_kept_together"])
def test_verify_trajectories_fails_on_broken_flip_orders(monkeypatch, capsys, broken, verdicts):
    from partition_ais import checks

    monkeypatch.setattr(checks, "flip_orders", broken)
    code, stdout, _ = _run(capsys, ["verify", "--suite", "trajectories"])
    assert code == 4
    for verdict in verdicts:
        assert f"\n{verdict} measured[" in stdout
    assert stdout.splitlines()[-1].startswith("verify: FAILED")


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


def test_cli_import_does_not_load_scipy():
    subprocess.run(
        [sys.executable, "-c",
         "import partition_ais.cli, sys\n"
         "for name in ('scipy', 'concurrent.futures', 'multiprocessing'):\n"
         "    assert name not in sys.modules, name"],
        env=_src_env(), check=True,
    )


_VERIFY_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from partition_ais.cli import main
sys.exit(main(["verify", "--suite", sys.argv[1]]))
"""


@pytest.mark.parametrize("suite", ["oracles", "properties", "trajectories"])
def test_verify_runs_without_scipy(capsys, suite):
    done = subprocess.run(
        [sys.executable, "-c", _VERIFY_WITHOUT_SCIPY, suite],
        env=_src_env(), capture_output=True, text=True,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout == _run(capsys, ["verify", "--suite", suite])[1]


def test_uniformity_chi2_bound_is_the_scipy_quantile():
    from scipy import stats

    from partition_ais import checks

    exact = stats.chi2.ppf(1 - 1e-3, comb(8, 4) - 1)
    assert checks._UNIFORMITY_CHI2_BOUND == pytest.approx(exact, rel=1e-12)


def test_unknown_flags_are_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["generate", "--family", "gstar", "--n", "8", "--s", "2",
              "--eps", "1/4", "--out", "/tmp/x", "--frobnicate"])
    assert exc.value.code == 2
