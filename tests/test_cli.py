"""Command-line surface: flags, exit codes, golden outputs."""

from __future__ import annotations

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

from partition_ais import GStarParams, StopCondition, cli, gen_g_star, harness
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
    monkeypatch.setattr(harness, "ProcessPoolExecutor", no_pool)
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


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_worker_processes_are_capped_at_the_cpu_count(monkeypatch, capsys, command):
    monkeypatch.setattr(cli.os, "cpu_count", lambda: 3)
    monkeypatch.setattr(harness, "ProcessPoolExecutor", _InlinePool)
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


def test_sweep_with_empty_n_list_is_a_no_op(capsys):
    code, stdout, _ = _run(capsys, [
        "sweep", "--n-list", "", "--s", "2", "--eps", "1/4",
        "--algo", "rls", "--budget", "100",
    ])
    assert code == 0
    assert stdout.startswith("config: command=sweep")
    assert not [l for l in stdout.splitlines() if l.startswith("n=")]


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


def test_a_mistagged_gstar_file_runs_without_a_stuck_rate(tmp_path, capsys):
    """A gstar tag on times that are not two-valued, beyond the enumeration
    limit: the closed form declines the instance and the batch still exports."""
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
    assert " stuck_rate=- " in stdout
    data = json.loads(out.read_text())
    assert len(data["trials"]) == 3
    assert data["summary"]["stuck_rate"] is None


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


@pytest.mark.parametrize("broken", [_with_replacement, _one_order_per_chunk])
def test_verify_trajectories_fails_on_broken_flip_orders(monkeypatch, capsys, broken):
    from partition_ais import checks

    monkeypatch.setattr(checks, "flip_orders", broken)
    code, stdout, _ = _run(capsys, ["verify", "--suite", "trajectories"])
    assert code == 4
    assert "FAIL uniformity_chi2" in stdout
    assert stdout.splitlines()[-1].startswith("verify: FAILED")


def _src_env():
    src = str(Path(__file__).resolve().parents[1] / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p
    )}


def test_cli_import_does_not_load_scipy():
    subprocess.run(
        [sys.executable, "-c",
         "import partition_ais.cli, sys; assert 'scipy' not in sys.modules"],
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
