"""nessim benchmark: run one workload through the nessim CLI, check every
run's outputs and print the metrics.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1 [--tiny]

Run from anywhere; the checkout is the parent of this file's directory, and
nessim is imported from its ``src/``. With ``--trace 0`` the command is timed
as a user runs it (``python -m nessim.cli``) and the end-to-end metrics are
reported. With ``--trace 1``, untraced and traced runs alternate and the
per-layer metrics are reported. ``--tiny`` shrinks every workload for the
self-test. The last line of standard output is the result as one JSON object;
the line before it holds host and code facts, output digests and mean reward.
See bench/README.md for the workloads, the metrics and how to compare two
commits.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "tracer.py"
WORK_ROOT = ROOT / ".bench_work"

# BLAS and OpenMP threads of every child process: fixed, and no higher than
# nproc. One thread keeps the small matrix products of the DQN steady on a
# shared host.
BLAS_THREADS = 1
SETUP_RUNS = 7
RUN_TIMEOUT_S = 170.0          # the whole benchmark must end within 180 s
CHECKPOINT_SIZES = [6, 128, 128, 729]
REWARD_WINDOW = 1000           # final window of training.csv, as `nessim train` reports

# The acceptance convergence scenario (CONV in tests/test_acceptance.py).
CONV = {
    "k_gbs": 2, "off_ids": [1], "inter_site_m": 300.0, "mu_count": 15,
    "d_min": 20.0, "d_max": 150.0, "rate_min": 2.0, "rate_max": 4.0,
    "pi_thresh": 6, "theta_3db_deg": 6.5, "elev_floor_db": 30.0,
    "zeta": 0.5, "eps_end": 0.01, "eps_decay_steps": 12000,
}
DENSE = {"k_gbs": 2, "off_ids": [1], "mu_count": 2000}


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str       # "train" or "eval"
    config: dict       # ExperimentConfig fields, without seed and work size
    work: int          # training iterations, or eval episodes per policy
    why: str

    @property
    def steps(self) -> int:
        """Environment steps of one run: one per iteration, or per eval step."""
        if self.command == "train":
            return self.work
        return 2 * self.work * self.config["horizon"]  # random and max policies


def workloads(tiny: bool) -> dict[str, Workload]:
    """The workloads; `tiny` shrinks them to a fraction of a second for the self-test."""
    conv = {**CONV, "warmup": 32, "buffer_capacity": 256} if tiny else CONV
    dense = {**DENSE, "mu_count": 200} if tiny else DENSE
    wls = [
        Workload(
            "train-conv", "train", conv, 60 if tiny else 2000,
            "DQN training on the acceptance convergence scenario, well past warmup: "
            "the dqn layer does nearly all the work",
        ),
        Workload(
            "eval-dense", "eval", {**dense, "horizon": 5 if tiny else 100}, 1 if tiny else 2,
            "random and max baselines at 2000 MUs over 100-step episodes: "
            "the network layer's per-step path behind sweep-mus",
        ),
        Workload(
            "redrop-dense", "eval", {**dense, "horizon": 2}, 3 if tiny else 50,
            "as eval-dense with 2-step episodes: every reset redraws 2000 MUs, "
            "so reset and geometry build cost shows",
        ),
    ]
    return {w.name: w for w in wls}


END_TO_END = [
    # name, unit, better
    ("steps_per_s", "1/s", "higher"),
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mib", "MiB", "lower"),
]

# Spans called many times per run get per-call percentiles; the rest get
# counts and times only. The per-layer list must stay within 128 metrics.
HOT_SPANS = [
    "env.reset", "env.step", "env.encode_features",
    "network.RadioGeometry", "network.mean_rx_power", "network.associate_cached",
    "network.check_constraints", "network.objective_value",
    "dqn.forward", "dqn.select_action", "dqn.replay_push", "dqn.train_step",
    "dqn.forward_batch", "dqn.adam_update",
    "baselines.max_policy", "baselines.random_policy",
]
RARE_SPANS = [
    "dqn.sync_target", "dqn.save_checkpoint",
    "harness.generate_scenario", "harness.evaluate_policy",
    "harness.write_training_csv", "harness.write_eval_csv",
]
# Self time only. cli.main is the root: its self time is everything no other
# span covers (argument parsing, config loading); dqn.train's is the training
# loop's own bookkeeping.
ROOT_SPANS = ["cli.main", "dqn.train"]
TAIL_PERCENTILES = (99.9, 99.0, 95.0, 90.0, 75.0)


def per_layer_specs() -> list[tuple[str, str, str]]:
    specs = []
    for span in HOT_SPANS:
        specs += [
            (f"{span}.calls", "count", "lower"),
            (f"{span}.self_s", "s", "lower"),
            (f"{span}.share", "fraction", "lower"),
            (f"{span}.p50_us", "us", "lower"),
            (f"{span}.tail_us", "us", "lower"),
            (f"{span}.tail_pct", "%", "higher"),
        ]
    for span in RARE_SPANS:
        specs += [
            (f"{span}.calls", "count", "lower"),
            (f"{span}.self_s", "s", "lower"),
            (f"{span}.share", "fraction", "lower"),
        ]
    for span in ROOT_SPANS:
        specs += [(f"{span}.self_s", "s", "lower"), (f"{span}.share", "fraction", "lower")]
    specs += [
        ("network.associate_cached.served_ratio", "fraction", "higher"),
        ("env.step.gate_rejects", "count", "lower"),
        ("dqn.train_step.calls_per_step", "fraction", "lower"),
        ("dqn.train_step.macs_computed", "count", "lower"),
        ("network.mean_rx_power.bytes_computed", "bytes", "lower"),
        ("trace.overhead_frac", "fraction", "lower"),
        ("trace.wall_s", "s", "lower"),
        ("trace.runs", "count", "higher"),
    ]
    return specs


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------- host facts

def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


PROBE = """
import json, sys, numpy, nessim
blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
print(json.dumps({"nessim_file": nessim.__file__, "numpy": numpy.__version__,
                  "python": sys.version.split()[0],
                  "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}))
"""


def probe_child() -> dict:
    """Import nessim as the workload children do; refuse a copy outside src/."""
    if not (SRC / "nessim" / "cli.py").is_file():
        raise BenchError(f"no nessim package under {SRC}")
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], cwd=ROOT, env=child_env(),
        capture_output=True, text=True, timeout=60,
    )
    if proc.returncode != 0:
        raise BenchError(f"cannot import nessim from {SRC}: {proc.stderr.strip()}")
    facts = json.loads(proc.stdout.strip().splitlines()[-1])
    if not Path(facts["nessim_file"]).resolve().is_relative_to(SRC):
        raise BenchError(f"nessim resolved to {facts['nessim_file']}, not under {SRC}")
    return facts


def git_facts() -> dict:
    if not (ROOT / ".git").exists() or shutil.which("git") is None:
        return {"commit": None, "dirty": None, "note": "not a git checkout"}

    def git(*args):
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True,
                              timeout=30).stdout.strip()

    return {"commit": git("rev-parse", "HEAD") or None,
            "dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}


def host_facts(child: dict) -> dict:
    return {
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": child["python"],
        "numpy": child["numpy"],
        "blas": child["blas"],
        "blas_threads": BLAS_THREADS,
        "nessim_file": child["nessim_file"],
        "cpu_pinning": "not used (off limits on this host)",
        "frequency_control": "not used (off limits on this host)",
    }


# ---------------------------------------------------------------- running

@dataclasses.dataclass
class Run:
    kind: str          # "setup", "timed" or "traced"
    wall_s: float
    rss_mib: float
    ok: bool
    reason: str = ""
    digest: str = ""
    mean_reward: float = float("nan")
    stats: dict | None = None


def spawn(argv: list[str], log_path: Path, deadline: float) -> tuple[int, float, float]:
    """Run argv to completion; return exit code, wall seconds and peak RSS in MiB."""
    timeout = max(1.0, deadline - time.monotonic())
    with open(log_path, "wb") as log:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=log, stderr=log)
        lock = threading.Lock()
        reaped = False

        def kill():
            with lock:
                if not reaped:
                    proc.kill()

        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        except BaseException:  # interrupted: leave no child running
            proc.kill()
            proc.wait()
            raise
        finally:
            with lock:
                reaped = True
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0  # ru_maxrss is KiB on Linux


class Bench:
    def __init__(self, wl: Workload, seed: int, work_dir: Path, deadline: float):
        self.wl = wl
        self.seed = seed % 2**32
        self.work_dir = work_dir
        self.deadline = deadline
        self.runs: list[Run] = []
        self._count = 0
        # The output checks read checkpoints and config defaults with this
        # checkout's nessim.
        sys.path.insert(0, str(SRC))
        from nessim import dqn, harness
        self._dqn = dqn
        self._cfg = harness.load_config(None, **wl.config)

    def _config(self, setup: bool) -> Path:
        cfg = {**self.wl.config, "seed": self.seed}
        if self.wl.command == "train":
            cfg["iterations"] = 0 if setup else self.wl.work
        else:
            cfg["eval_episodes"] = 0 if setup else self.wl.work
        path = self.work_dir / ("setup.json" if setup else "config.json")
        if not path.exists():
            path.write_text(json.dumps(cfg, sort_keys=True))
        return path

    def run(self, kind: str) -> Run:
        self._count += 1
        out = self.work_dir / f"run{self._count}"
        out.mkdir()
        setup = kind == "setup"
        cli_args = [self.wl.command, "--config", str(self._config(setup)), "--out", str(out)]
        stats_path = self.work_dir / f"stats{self._count}.json"
        if kind == "traced":
            argv = [sys.executable, str(TRACER), str(stats_path), *cli_args]
        else:
            argv = [sys.executable, "-m", "nessim.cli", *cli_args]
        code, wall, rss = spawn(argv, self.work_dir / f"log{self._count}.txt", self.deadline)
        run = Run(kind, wall, rss, ok=code == 0, reason="" if code == 0 else f"exit code {code}")
        if run.ok:
            try:
                run.digest, run.mean_reward = self.check(out, 0 if setup else self.wl.work)
                if kind == "traced":
                    run.stats = json.loads(stats_path.read_text())
            except Exception as exc:  # noqa: BLE001 - any failed check fails the run
                run.ok, run.reason = False, f"{type(exc).__name__}: {exc}"
        shutil.rmtree(out)
        self.runs.append(run)
        return run

    # ------------------------------------------------------------ checks

    def check(self, out: Path, work: int) -> tuple[str, float]:
        """Raise ValueError unless the outputs are well formed; return their
        sha256 digest and the run's mean reward."""
        if self.wl.command == "train":
            files = ["training.csv", "checkpoint.bin"]
            reward = self._check_training(out / "training.csv", work)
            net = self._dqn.load_checkpoint(out / "checkpoint.bin")
            if net.sizes != CHECKPOINT_SIZES:
                raise ValueError(f"checkpoint sizes {net.sizes} != {CHECKPOINT_SIZES}")
        else:
            files = ["eval.csv"]
            reward = self._check_eval(out / "eval.csv")
        h = hashlib.sha256()
        for name in files:
            data = (out / name).read_bytes()
            h.update(f"{name}\0{len(data)}\0".encode())
            h.update(data)
        return h.hexdigest(), reward

    def _check_training(self, path: Path, iterations: int) -> float:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        if len(rows) != iterations:
            raise ValueError(f"training.csv has {len(rows)} rows, expected {iterations}")
        mus = self._cfg.mu_count
        first_loss = max(self._cfg.warmup, self._cfg.batch_size) - 1
        for i, row in enumerate(rows):
            if int(row["iteration"]) != i:
                raise ValueError(f"training.csv row {i} has iteration {row['iteration']}")
            for key in ("reward", "avg_reward", "epsilon"):
                if not math.isfinite(float(row[key])):
                    raise ValueError(f"training.csv row {i}: {key} is {row[key]}")
            # Loss is NaN until the replay buffer holds a warmup's worth of steps.
            if math.isfinite(float(row["loss"])) != (i >= first_loss):
                raise ValueError(f"training.csv row {i}: loss is {row['loss']}")
            if not 0 <= int(row["served"]) <= mus:
                raise ValueError(f"training.csv row {i}: served {row['served']} > {mus}")
        tail = [float(r["reward"]) for r in rows[-REWARD_WINDOW:]]
        return statistics.fmean(tail) if tail else 0.0

    def _check_eval(self, path: Path) -> float:
        with open(path, newline="") as f:
            rows = list(csv.DictReader(f))
        if [r["policy"] for r in rows] != ["random", "max"]:
            raise ValueError(f"eval.csv policies {[r['policy'] for r in rows]}")
        for r in rows:
            if not 0.0 <= float(r["served_fraction"]) <= 1.0:
                raise ValueError(f"eval.csv {r['policy']}: served_fraction {r['served_fraction']}")
            if not math.isfinite(float(r["mean_reward"])):
                raise ValueError(f"eval.csv {r['policy']}: mean_reward {r['mean_reward']}")
        return float(rows[1]["mean_reward"])


# ---------------------------------------------------------------- metrics

def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it (p50 when
    there are too few samples for any)."""
    n = len(sorted_values)
    for pct in TAIL_PERCENTILES:
        if n * (1.0 - pct / 100.0) >= 10:
            return pct, percentile(sorted_values, pct)
    return 50.0, percentile(sorted_values, 50.0)


def end_to_end_metrics(wl: Workload, runs: list[Run]) -> dict[str, float]:
    setup = statistics.median(r.wall_s for r in runs if r.kind == "setup")
    timed = [r for r in runs if r.kind == "timed"]
    return {
        "steps_per_s": statistics.median(wl.steps / max(r.wall_s - setup, 1e-9) for r in timed),
        "wall_s": statistics.median(r.wall_s for r in timed),
        "setup_s": setup,
        "peak_rss_mib": statistics.median(r.rss_mib for r in timed),
    }


def per_layer_metrics(runs: list[Run]) -> dict[str, float]:
    traced = [r for r in runs if r.kind == "traced"]
    timed = [r for r in runs if r.kind == "timed"]
    stats = [r.stats for r in traced]
    med = statistics.median
    m: dict[str, float] = {}
    for span in HOT_SPANS + RARE_SPANS + ROOT_SPANS:
        if span not in ROOT_SPANS:
            m[f"{span}.calls"] = med(len(s["spans"][span]["durations"]) for s in stats)
        m[f"{span}.self_s"] = med(s["spans"][span]["self_s"] for s in stats)
        m[f"{span}.share"] = med(s["spans"][span]["self_s"] / s["root_s"] for s in stats)
        if span in HOT_SPANS:
            pooled = sorted(d for s in stats for d in s["spans"][span]["durations"])
            if pooled:
                pct, value = tail(pooled)
                m[f"{span}.p50_us"] = percentile(pooled, 50.0) * 1e6
                m[f"{span}.tail_us"] = value * 1e6
                m[f"{span}.tail_pct"] = pct
            else:
                m[f"{span}.p50_us"] = m[f"{span}.tail_us"] = m[f"{span}.tail_pct"] = 0.0
    counters = stats[0]["counters"]
    attempts = counters["association_attempts"]
    m["network.associate_cached.served_ratio"] = counters["served"] / attempts if attempts else 0.0
    m["env.step.gate_rejects"] = counters["gate_rejects"]
    steps = counters["steps"]
    m["dqn.train_step.calls_per_step"] = m["dqn.train_step.calls"] / steps if steps else 0.0
    m["dqn.train_step.macs_computed"] = counters["train_step_macs"]
    m["network.mean_rx_power.bytes_computed"] = counters["mean_rx_power_bytes"]
    untraced = med(r.wall_s for r in timed)
    m["trace.overhead_frac"] = med(r.wall_s for r in traced) / untraced - 1.0
    m["trace.wall_s"] = med(s["root_s"] for s in stats)
    m["trace.runs"] = len(traced)
    return m


# ---------------------------------------------------------------- main

def measure(bench: Bench, trace: bool, seconds: float) -> None:
    """Run the workload repeatedly for about `seconds`; a run is started only
    while it is expected to finish inside the window."""
    kinds = ["timed", "traced"] if trace else ["timed"]
    start = time.monotonic()
    while True:
        cycle = time.monotonic()
        for kind in kinds:
            bench.run(kind)
        took = time.monotonic() - cycle
        if time.monotonic() - start + took > seconds or time.monotonic() + took > bench.deadline:
            break


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=sorted(workloads(False)))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--tiny", action="store_true", help="tiny sizes, for the self-test")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + RUN_TIMEOUT_S
    wl = workloads(args.tiny)[args.workload]
    load_before = os.getloadavg()
    try:
        child = probe_child()
    except (BenchError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2

    WORK_ROOT.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{wl.name}-", dir=WORK_ROOT))
    try:
        bench = Bench(wl, args.seed, work_dir, deadline)
        if not args.trace:
            for _ in range(SETUP_RUNS):
                bench.run("setup")
        measure(bench, bool(args.trace), args.seconds)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another benchmark process is using it

    runs = bench.runs
    failed = [r for r in runs if not r.ok]
    problems = [f"{r.kind} run: {r.reason}" for r in failed]
    setup_runs = [r for r in runs if r.ok and r.kind == "setup"]
    work_runs = [r for r in runs if r.ok and r.kind != "setup"]
    if len({r.digest for r in setup_runs}) > 1:
        problems.append("set-up runs disagree on output digest")
    if len({r.digest for r in work_runs}) > 1:
        problems.append("measured runs disagree on output digest")
    ok_kinds = {r.kind for r in work_runs}
    if "timed" not in ok_kinds or (args.trace and "traced" not in ok_kinds):
        problems.append("no successful measured run")
    correct = not problems

    units = {name: unit for name, unit, _ in END_TO_END + per_layer_specs()}
    values = {}
    if correct:
        values = per_layer_metrics(runs) if args.trace else end_to_end_metrics(wl, runs)
    info = {
        "workload": wl.name,
        "seed": args.seed,
        "trace": args.trace,
        "tiny": args.tiny,
        "steps_per_run": wl.steps,
        "run_wall_s": {kind: [round(r.wall_s, 4) for r in runs if r.kind == kind]
                       for kind in ("setup", "timed", "traced")},
        "digest": work_runs[0].digest if work_runs else None,
        "setup_digest": setup_runs[0].digest if setup_runs else None,
        "mean_reward": {"value": work_runs[0].mean_reward if work_runs else None,
                        "unit": "bit/s/Hz", "better": "higher",
                        "note": "max policy for eval, final training window for train"},
        "problems": problems,
        "host": host_facts(child),
        "code": git_facts(),
        "load_avg_before": load_before,
        "load_avg_after": os.getloadavg(),
    }
    for name, value in values.items():
        print(f"{wl.name} {name} = {value:.6g} {units[name]}")
    print(json.dumps(info, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(runs),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
