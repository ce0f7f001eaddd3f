#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the ``qhedge`` command line.

Usage (from the repository root)::

    python3 perfbench/run.py --workload model_based --seed 42 --seconds 24 --trace 0

With ``--trace 0`` every command of the workload is launched as its own
``python -m qhedge.cli`` process, one at a time, with every BLAS/OpenMP
pool pinned to one thread.  Whole passes over the workload repeat while
their summed time is expected to stay within ``--seconds`` (at least one
pass), and the end-to-end metrics are medians over those passes.  With
``--trace 1`` each pass runs once untraced and once through
``traced.py``, which calls ``qhedge.cli.main`` in-process with spans
around the public functions of every module; the per-layer metrics come
from the traced passes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
is a ``{"detail": ...}`` object with quartiles, sample counts, load
averages and the thread pins.  See ``README.md`` for the workloads.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

PINS = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1"}
COMMAND_TIMEOUT_S = 150.0
# Fewest ``import qhedge.cli`` launches behind ``setup_s``.
SETUP_SAMPLES = 7
MB = 1e6

# Criterion 1's market: ATM put, mu = r, sigma = 0.15, lambda = 1e-3.
CRITERION1 = {
    "market.s0": "100", "contract.kind": "put", "contract.strike": "100",
    "market.mu": "0.03", "market.r": "0.03", "market.sigma": "0.15",
    "market.maturity": "1", "market.n_steps": "24", "risk.lambda": "0.001",
    "mc.n_paths": "50000",
}
# Criterion 4's chain: deep ITM put on a 21 x 5 grid, schedule (1, 1).
CHAIN = {
    "market.s0": "100", "contract.kind": "put", "contract.strike": "200",
    "market.mu": "0.03", "market.r": "0.03", "market.sigma": "0.10",
    "market.maturity": "1", "market.n_steps": "12", "risk.lambda": "0.0001",
    "mc.n_paths": "50000", "tabular.n_x": "21", "tabular.n_a": "5",
    "tabular.action_lo": "-1.3", "tabular.action_hi": "0.1",
    "tabular.alpha0": "1", "tabular.k0": "1", "tabular.n_updates": "40000",
}
# Criterion 9's tiny config, for the benchmark's own tests.
TINY = {"mc.n_paths": "400", "market.n_steps": "6", "tabular.n_updates": "2000"}

# Summary keys each command must print.
SUMMARY_KEYS = {
    "compare": ("dp_price0", "dp_hedge0", "bs_price", "bs_delta",
                "price_rel_error", "hedge_abs_error"),
    "dp-solve": ("price0", "hedge0"),
    "utility-price": ("price0",),
    "make-dataset": ("n_records",),
    "fqi-solve": ("price0", "hedge0", "n_warnings"),
    "simulate": ("n_paths", "mean_s_final"),
    "rollout": ("mean_pi0",),
    "tabular-q": ("q0_exact", "q0_learned", "sup_rel_error"),
}
COMMANDS = tuple(SUMMARY_KEYS)

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
              "artifact_mb": "MB"}

# Per-layer metrics from the traced passes: self time of each span, and
# the counts recorded at the same boundaries by traced.py.
SELF_TIMES = (
    "market.simulate_gbm", "basis.evaluate", "regression.solve",
    "dp.solve_dp", "portfolio.solve_local_risk",
    "portfolio.rollout_portfolio", "portfolio.strategy_actions",
    "utility.indifference_price_recursion", "fqi.write_dataset_csv",
    "fqi.read_dataset_csv", "fqi.build_dataset", "fqi.fqi_backward",
    "tabular.discretize", "tabular.q_learn",
    "tabular.exact_backward_induction", "cli.write_csv",
    "cli.dataset_rewards",
)
COUNTS = {
    "basis.evaluate_calls": "count", "basis.evaluate_rows": "count",
    "regression.solve_calls": "count", "tabular.q_learn_updates": "count",
    "cli.write_csv_rows": "count", "fqi.dataset_mb": "MB",
    "cli.write_csv_mb": "MB",
}
# Per-layer metrics that a fixed seed reproduces exactly.
EXACT = (*COUNTS, "basis.evaluate_distinct_frac")


def _cmd_key(command):
    return command.replace("-", "_")


def per_layer_units():
    units = {f"{name}_s": "s" for name in SELF_TIMES}
    units.update(COUNTS)
    units["basis.evaluate_distinct_frac"] = "ratio"
    for command in COMMANDS:
        units[f"cli.{_cmd_key(command)}_s"] = "s"
        units[f"cli.{_cmd_key(command)}_rss_mb"] = "MB"
    units["trace.overhead_frac"] = "ratio"
    units["check.ref_err"] = "ratio"
    return units


class CheckFailed(Exception):
    """A workload's outputs disagree with the paper's reference; ``err``
    is the error the check bounds."""

    def __init__(self, msg, err):
        super().__init__(msg)
        self.err = err


# ---------------------------------------------------------------------------
# workloads


@dataclass(frozen=True)
class Step:
    """One ``qhedge`` command of a workload; ``label`` names its output dir.

    Commands run inside their pass directory and name their files relative
    to it, so every pass passes identical arguments: ``fqi-solve`` hashes
    ``dataset.path`` into its summary.
    """

    label: str
    command: str
    config: dict

    def argv(self):
        cfg = dict(self.config, **{"output.dir": self.label})
        if self.command == "fqi-solve":
            cfg["dataset.path"] = "dataset/dataset.csv"
        args = [self.command]
        for key, val in cfg.items():
            args += [f"--{key}", val]
        return args


@dataclass(frozen=True)
class Workload:
    steps: tuple


def _with(base, seed, tiny, **extra):
    cfg = dict(base, **{"mc.seed": str(seed)})
    cfg.update(extra)
    if tiny:
        cfg.update({k: v for k, v in TINY.items() if k in cfg})
    return cfg


def build_workloads(seed, tiny):
    c1 = _with(CRITERION1, seed, tiny)
    return {
        "model_based": Workload(steps=(
            Step("compare", "compare", c1),
            Step("dp_lo", "dp-solve", dict(c1, **{"risk.lambda": "0.0001"})),
            Step("dp_hi", "dp-solve", dict(c1, **{"risk.lambda": "0.01"})),
            Step("utility", "utility-price", c1),
        )),
        "model_free": Workload(steps=(
            Step("dataset", "make-dataset", dict(c1, **{"dataset.policy": "random"})),
            Step("fqi", "fqi-solve", c1),
        )),
        "chain": Workload(steps=(
            Step("tabular", "tabular-q", _with(CHAIN, seed, tiny)),)),
        "artifacts": Workload(steps=(
            Step("simulate", "simulate", _with(CRITERION1, seed, tiny,
                                               **{"mc.n_paths": "10000"})),
            Step("rollout", "rollout", _with(CRITERION1, seed, tiny, **{
                "mc.n_paths": "10000", "rollout.policy": "local_risk"})),
        )),
    }


def check_model_based(s, passdir, env, workload):
    """Criterion 1: DP within 5 % / 0.05 of Black-Scholes, price rising in
    lambda."""
    err, herr = s["compare"]["price_rel_error"], s["compare"]["hedge_abs_error"]
    prices = [s["dp_lo"]["price0"], s["compare"]["dp_price0"], s["dp_hi"]["price0"]]
    if not (err <= 0.05 and herr <= 0.05):
        raise CheckFailed(f"criterion 1: price err {err:.4g}, hedge err {herr:.4g}", err)
    if not prices[0] < prices[1] < prices[2]:
        raise CheckFailed(f"price not rising in lambda: {prices}", err)
    if not math.isfinite(s["utility"]["price0"]):
        raise CheckFailed("non-finite utility price", err)
    return err


def check_model_free(s, passdir, env, workload):
    """Criterion 3 off-policy: FQI on random actions agrees with a
    ``dp-solve`` on the same seed within 5 % in price and 0.10 in hedge."""
    ref = Step("dp_ref", "dp-solve", workload.steps[-1].config)
    code, _, _ = launch([sys.executable, "-m", "qhedge.cli", *ref.argv()],
                        env, passdir, passdir / "dp_ref.err")
    if code != 0:
        raise CheckFailed(f"reference dp-solve exited {code}: "
                          f"{_tail(passdir / 'dp_ref.err')}", -1.0)
    dp, fqi = read_summary(passdir / ref.label / "summary.txt"), s["fqi"]
    err = abs(fqi["price0"] / dp["price0"] - 1.0)
    herr = abs(fqi["hedge0"] - dp["hedge0"])
    if not (err <= 0.05 and herr <= 0.10):
        raise CheckFailed(f"criterion 3: price err {err:.4g}, hedge err {herr:.4g}", err)
    return err


def check_chain(s, passdir, env, workload):
    """Criterion 4: learned Q within 5 % of exact backward induction."""
    err = s["tabular"]["sup_rel_error"]
    if not err <= 0.05:
        raise CheckFailed(f"criterion 4: sup_rel_error {err:.4g}", err)
    return err


def check_artifacts(s, passdir, env, workload):
    """The CSVs parse back exactly to the arrays computed in-process."""
    out = passdir / "roundtrip.json"
    rollout = workload.steps[-1]
    argv = [sys.executable, str(HERE / "roundtrip.py"), str(out),
            *rollout.argv()]
    code, _, _ = launch(argv, env, passdir, passdir / "roundtrip.err")
    if code != 0 or not out.exists():
        raise CheckFailed(f"round trip exited {code}: "
                          f"{_tail(passdir / 'roundtrip.err')}", -1.0)
    res = json.loads(out.read_text())
    if not res["exact"]:
        raise CheckFailed(f"round trip inexact: {res}", res["max_abs_diff"])
    return res["max_abs_diff"]


CHECKS = {"model_based": check_model_based, "model_free": check_model_free,
          "chain": check_chain, "artifacts": check_artifacts}


# ---------------------------------------------------------------------------
# launching and accounting


def child_env():
    env = dict(os.environ, **PINS)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    return env


def launch(argv, env, cwd, errpath):
    """Run one child to completion; return (exit code, wall s, rusage).

    Resources come from ``os.wait4`` on this child alone: the maxrss of
    ``RUSAGE_CHILDREN`` is a maximum over every child ever reaped.
    """
    with open(errpath, "w") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, env=env, cwd=cwd,
                                stdout=subprocess.DEVNULL, stderr=err)
        killer = threading.Timer(COMMAND_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM is turned into SystemExit by main): stop
            # the child and reap it before leaving.
            proc.kill()
            proc.wait()
            raise
        finally:
            killer.cancel()
        wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def _tail(path, n=300):
    try:
        return Path(path).read_text()[-n:].strip()
    except OSError:
        return ""


def read_summary(path):
    vals = {}
    for line in Path(path).read_text().splitlines():
        key, sep, val = line.partition("=")
        if sep:
            try:
                vals[key] = float(val)
            except ValueError:
                vals[key] = val
    return vals


def dir_digest(path: Path):
    """Name -> sha256 of every file a step wrote."""
    out = {}
    for f in sorted(path.iterdir()):
        h = hashlib.sha256()
        with open(f, "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[f.name] = h.hexdigest()
    return out


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    def fail(self, msg):
        self.failed += 1
        if len(self.errors) < 10:
            self.errors.append(msg)


@dataclass
class StepResult:
    ok: bool
    wall: float
    rss_mb: float
    artifact_bytes: int
    summary: dict
    digest: dict
    layers: dict = None


def run_step(step, passdir, env, tally, traced=False):
    """Launch one command; count it as one operation."""
    tally.attempted += 1
    outdir = passdir / step.label
    argv = [sys.executable, "-m", "qhedge.cli", *step.argv()]
    layers_path = passdir / f"{step.label}.layers.json"
    if traced:
        argv = [sys.executable, str(HERE / "traced.py"), str(layers_path),
                *step.argv()]
    code, wall, usage = launch(argv, env, passdir, passdir / f"{step.label}.err")
    res = StepResult(ok=False, wall=wall, rss_mb=usage.ru_maxrss * 1024 / MB,
                     artifact_bytes=0, summary={}, digest={})
    if code != 0:
        tally.fail(f"{step.command} exited {code}: {_tail(passdir / f'{step.label}.err')}")
        return res
    try:
        res.summary = read_summary(outdir / "summary.txt")
    except OSError as exc:
        tally.fail(f"{step.command}: no summary ({exc})")
        return res
    missing = [k for k in SUMMARY_KEYS[step.command] if k not in res.summary]
    if missing:
        tally.fail(f"{step.command}: summary lacks {missing}")
        return res
    if traced:
        res.layers = json.loads(layers_path.read_text())
    res.artifact_bytes = sum(f.stat().st_size for f in outdir.iterdir())
    res.digest = dir_digest(outdir)
    res.ok = True
    return res


@dataclass
class Pass:
    wall: float
    peak_rss_mb: float
    artifact_mb: float
    steps: dict


def run_pass(workload, name, workdir, env, tally, state, traced=False,
             check=True):
    """One pass over the workload's commands, in a fresh output directory
    that is removed afterwards.  The first good pass of a run is checked
    against the paper's reference (outside the timed region); every later
    pass must reproduce its artifacts byte for byte."""
    passdir = Path(tempfile.mkdtemp(prefix="pass-", dir=workdir))
    try:
        results = {}
        for step in workload.steps:
            results[step.label] = run_step(step, passdir, env, tally, traced)
        p = Pass(wall=sum(r.wall for r in results.values()),
                 peak_rss_mb=max(r.rss_mb for r in results.values()),
                 artifact_mb=sum(r.artifact_bytes for r in results.values()) / MB,
                 steps=results)
        if not check or not all(r.ok for r in results.values()):
            return p
        digests = {label: r.digest for label, r in results.items()}
        if "digests" not in state:
            summaries = {label: r.summary for label, r in results.items()}
            try:
                state["ref_err"] = CHECKS[name](summaries, passdir, env, workload)
                state["digests"] = digests
            except CheckFailed as exc:
                state["ref_err"] = exc.err
                tally.fail(f"{name} check: {exc}")
        elif digests != state["digests"]:
            tally.fail(f"{name}: artifacts differ from the first pass")
        return p
    finally:
        shutil.rmtree(passdir, ignore_errors=True)


def measure_setup(env, workdir, tally):
    """Time for a fresh interpreter to import ``qhedge.cli``."""
    tally.attempted += 1
    code, wall, _ = launch([sys.executable, "-c", "import qhedge.cli"],
                           env, workdir, workdir / "setup.err")
    if code != 0:
        tally.fail(f"import qhedge.cli exited {code}: {_tail(workdir / 'setup.err')}")
    return wall


def quartiles(values):
    vals = sorted(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def describe(values):
    q1, med, q3 = quartiles(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "values": list(values)}


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(traced_pass):
    """Per-layer metrics of one traced pass (summed over its commands)."""
    m = {name: 0.0 for name in per_layer_units()}
    distinct = 0
    for step_res in traced_pass.steps.values():
        spans, counts = step_res.layers["spans"], step_res.layers["counts"]
        for name in SELF_TIMES:
            if name in spans:
                m[f"{name}_s"] += spans[name]["self_s"]
        for name in COUNTS:
            m[name] += counts.get(name, 0)
        m["basis.evaluate_calls"] += spans.get("basis.evaluate", {}).get("calls", 0)
        m["regression.solve_calls"] += spans.get("regression.solve", {}).get("calls", 0)
        distinct += counts.get("basis.evaluate_distinct", 0)
        key = None
        for command in COMMANDS:
            span = spans.get(f"cli.cmd_{_cmd_key(command)}")
            if span:
                key = _cmd_key(command)
                m[f"cli.{key}_s"] += span["total_s"]
        if key:
            m[f"cli.{key}_rss_mb"] = max(m[f"cli.{key}_rss_mb"], step_res.rss_mb)
    if m["basis.evaluate_calls"]:
        m["basis.evaluate_distinct_frac"] = distinct / m["basis.evaluate_calls"]
    return m


def span_table(passes):
    """Every recorded span, aggregated over the traced passes (for detail)."""
    table = {}
    for p in passes:
        for step_res in p.steps.values():
            for name, agg in step_res.layers["spans"].items():
                row = table.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
                for k in row:
                    row[k] += agg[k]
    n = max(len(passes), 1)
    return {name: {k: v / n for k, v in row.items()} for name, row in sorted(table.items())}


# ---------------------------------------------------------------------------
# one run


def run(workload_name, seed, seconds, trace, tiny=False):
    workloads = build_workloads(seed, tiny)
    workload = workloads[workload_name]
    env = child_env()
    tally = Tally()
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{workload_name}-", dir=WORK))
    detail = {"workload": workload_name, "seed": seed, "trace": trace,
              "tiny": tiny, "nproc": os.cpu_count(), "pins": PINS,
              "affinity": len(os.sched_getaffinity(0))}
    try:
        state = {}
        # Untimed warm-up pass at Criterion 9's tiny size: pulls the
        # interpreter, libraries and bytecode into the page cache.
        warm = build_workloads(seed, True)[workload_name]
        run_pass(warm, workload_name, workdir, env, tally, {}, check=False)

        detail["loadavg_before"] = os.getloadavg()
        untraced, traced, setup = [], [], []
        measured = 0.0
        # Start another pass only while the timed time, checks excluded, is
        # expected to stay within ``seconds``; a run's length then does not
        # depend on where the last pass happens to end.  Set-up samples are
        # taken before each pass, so that they see the same host as the
        # passes, and count towards ``seconds``.
        while not untraced or measured * (1 + 1 / len(untraced)) <= seconds:
            if not trace:
                setup.append(measure_setup(env, workdir, tally))
            untraced.append(run_pass(workload, workload_name, workdir, env, tally, state))
            if trace:
                traced.append(run_pass(workload, workload_name, workdir, env,
                                       tally, state, traced=True))
            measured = sum(p.wall for p in untraced + traced) + sum(setup)
        while not trace and len(setup) < SETUP_SAMPLES:
            setup.append(measure_setup(env, workdir, tally))
        detail["loadavg_after"] = os.getloadavg()
        detail["measured_s"] = measured
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass

    good = [p for p in untraced if all(r.ok for r in p.steps.values())]
    if trace:
        good_traced = [p for p in traced if all(r.ok for r in p.steps.values())]
        per_pass = [layer_metrics(p) for p in good_traced]
        metrics = {}
        for name, unit in per_layer_units().items():
            vals = [m[name] for m in per_pass] or [0.0]
            metrics[name] = {"value": statistics.median(vals), "unit": unit}
        if good and good_traced:
            base = statistics.median(p.wall for p in good)
            metrics["trace.overhead_frac"]["value"] = (
                statistics.median(p.wall for p in good_traced) / base - 1.0)
        metrics["check.ref_err"]["value"] = state.get("ref_err", -1.0)
        detail["spans"] = span_table(good_traced)
        detail["untraced_wall_s"] = describe([p.wall for p in good] or [0.0])
    else:
        series = {
            "wall_s": [p.wall for p in good],
            "setup_s": setup,
            "peak_rss_mb": [p.peak_rss_mb for p in good],
            "artifact_mb": [p.artifact_mb for p in good],
        }
        metrics = {}
        for name, unit in END_TO_END.items():
            vals = series[name] or [0.0]
            detail[name] = describe(vals)
            metrics[name] = {"value": detail[name]["median"], "unit": unit}
        detail["step_wall_s"] = {
            step.label: describe([p.steps[step.label].wall for p in good] or [0.0])
            for step in workload.steps}
        detail["ref_err"] = state.get("ref_err")
    detail["errors"] = tally.errors
    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": min(tally.failed, tally.attempted), "metrics": metrics}
    return detail, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=tuple(build_workloads(0, False)))
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="Criterion 9's 400 paths x 6 steps (for tests)")
    args = parser.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "qhedge" / "cli.py").is_file():
        print(f"perfbench: no qhedge sources under {SRC}", file=sys.stderr)
        return 2
    detail, result = run(args.workload, args.seed, args.seconds,
                         bool(args.trace), args.tiny)
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
