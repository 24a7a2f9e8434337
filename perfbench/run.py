"""hgmorse benchmark: four seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is taken from `src/`.
One client drives each workload as a closed loop: an operation starts when
the previous one has finished.  An operation is one `hgmorse` CLI
subprocess, or one state in the in-process `wavefunctions` worker.  Every
output is checked (see verify.py); a failed check counts the operation as
failed and the loop goes on.  For the default seed the outputs are also
compared with the golden records in perfbench/golden/.

--trace 0 runs a fixed number of whole passes of the workload, sized so
that they take about S seconds (workloads.NOMINAL_PASS_S), after set-up,
and reports the end-to-end metrics of BENCHMARK.json.  --trace 1 replays pass 0 of the workload
alternately untraced and traced (spans.py) and reports the per-layer
metrics derived from the spans, with the tracing overhead.

The last stdout line is the result object; the line before it carries the
stamp (commit, versions, nproc) and the run's details.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import spans
import verify
import workloads

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 0
SETUP_REPS = 7
IMPORTTIME_REPS = 3
OP_TIMEOUT_S = 60.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.update({name: "1" for name in THREAD_VARS})
    return env


def spawn_wait(argv: list[str], env: dict, out_path: Path, err_path: Path) -> tuple[float, int, float]:
    """Run argv to completion: (wall seconds, exit code, peak RSS in MB)."""
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
               (os.POSIX_SPAWN_OPEN, 1, str(out_path), flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, str(err_path), flags, 0o644)]
    t0 = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, env, file_actions=actions)
    signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
    try:
        _, status, usage = os.wait4(pid, 0)
    except OpTimeout:
        os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    wall = time.perf_counter() - t0
    return wall, os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024.0


class CliRunner:
    """One `hgmorse` subprocess per operation, traced through spans.py if asked."""

    def __init__(self, env: dict, work: Path) -> None:
        self.env, self.work = env, work

    def run(self, op: dict, op_id: int, spans_path: Path | None = None):
        out, err = self.work / "op.out", self.work / "op.err"
        if spans_path is None:
            prefix = [sys.executable, "-m", "hgmorse.cli"]
        else:
            prefix = [sys.executable, str(HERE / "spans.py"), str(spans_path), str(op_id), "--"]
        wall, rc, rss = spawn_wait(prefix + op["argv"], self.env, out, err)
        outcome = verify.check_cli(op["argv"], rc, out.read_text())
        if rc != 0:
            outcome.problems.append(err.read_text().strip()[-300:])
        return wall, rss, outcome

    def close(self) -> float:
        return 0.0


class WorkerRunner:
    """The long-lived in-process worker of the wavefunctions workload."""

    def __init__(self, env: dict, work: Path, spans_path: Path | None = None) -> None:
        argv = [sys.executable, str(HERE / "wfworker.py")] + ([str(spans_path)] if spans_path else [])
        self.err = open(work / "worker.err", "w")
        self.proc = subprocess.Popen(argv, env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=self.err, text=True)
        self._reply()  # imports done: start-up stays out of the measured loop

    def _reply(self) -> dict:
        signal.setitimer(signal.ITIMER_REAL, OP_TIMEOUT_S)
        try:
            line = self.proc.stdout.readline()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        if not line:
            raise RuntimeError(f"wavefunction worker exited with {self.proc.wait()}")
        return json.loads(line)

    def run(self, op: dict, op_id: int, spans_path=None):
        self.proc.stdin.write(json.dumps(dict(op, id=op_id)) + "\n")
        self.proc.stdin.flush()
        reply = self._reply()
        return reply["lat"], 0.0, verify.check_state(op, reply)

    def close(self) -> float:
        """End the worker; return its peak RSS in MB."""
        try:
            self.proc.stdin.write("\n")
            self.proc.stdin.flush()
            return self._reply()["rss_mb"]
        finally:
            self.proc.stdin.close()
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()
            self.err.close()


def make_runner(workload: str, env: dict, work: Path, spans_path: Path | None = None):
    if workload == "wavefunctions":
        return WorkerRunner(env, work, spans_path)
    return CliRunner(env, work)


class Tally:
    """Operations attempted and failed, levels delivered, golden comparison."""

    def __init__(self, golden: dict | None, record: dict | None = None) -> None:
        self.golden, self.record = golden, record
        self.attempted = self.failed = self.levels = 0
        self.max_dev = 0.0
        self.failures: list[str] = []

    def add(self, op: dict, outcome: verify.Outcome) -> None:
        key = json.dumps({k: v for k, v in op.items() if k != "id"}, sort_keys=True)
        problems = list(outcome.problems)
        if self.record is not None:
            self.record[key] = outcome.record
        elif self.golden is not None and key in self.golden:
            problems += verify.compare_golden(outcome.record, self.golden[key])
        self.attempted += 1
        if problems:
            self.failed += 1
            message = f"{key}: {'; '.join(problems)}"
            self.failures.append(message)
            print(f"FAILED {message}", file=sys.stderr)
        else:
            self.levels += outcome.levels
        if outcome.max_dev is not None:
            self.max_dev = max(self.max_dev, outcome.max_dev)


def tail(latencies: list[float]) -> tuple[float, float]:
    """(latency, percentile) at the highest percentile with >= 10 operations beyond it.

    With fewer than 11 operations no percentile has ten beyond it; the
    maximum is reported, at percentile 100.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def setup_times(env: dict, reps: int) -> list[float]:
    """Wall time of `import hgmorse.cli`, each in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import hgmorse.cli; "
            "print(repr(time.perf_counter() - t))")
    out = []
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S, check=True)
        out.append(float(proc.stdout))
    return out


def import_breakdown(env: dict, reps: int) -> dict:
    """Median seconds of self import time per top-level package (-X importtime)."""
    samples: dict[str, list[float]] = {"scipy": [], "numpy": [], "hgmorse": []}
    for _ in range(reps):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hgmorse.cli"], env=env,
                              capture_output=True, text=True, timeout=OP_TIMEOUT_S, check=True)
        totals = dict.fromkeys(samples, 0.0)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if not line.startswith("import time:") or len(parts) != 3 or "self" in parts[0]:
                continue
            package = parts[2].strip().split(".")[0]
            if package in totals:
                totals[package] += int(parts[0].split(":")[1]) * 1e-6
        for package, value in totals.items():
            samples[package].append(value)
    return {f"setup.import_{package}_s": statistics.median(v) for package, v in samples.items()}


def measured_run(args, env: dict, work: Path, tally: Tally) -> dict:
    setup = setup_times(env, SETUP_REPS)
    passes = workloads.passes(args.workload, args.seed)
    runner = make_runner(args.workload, env, work)
    count = max(1, round(args.seconds / workloads.NOMINAL_PASS_S[args.workload]))
    latencies: list[float] = []
    peak_rss = 0.0
    t0 = time.perf_counter()
    try:
        for _ in range(count):
            for op in next(passes):
                wall, rss, outcome = runner.run(op, len(latencies))
                latencies.append(wall)
                peak_rss = max(peak_rss, rss)
                tally.add(op, outcome)
        loop_wall = time.perf_counter() - t0
    finally:
        peak_rss = max(peak_rss, runner.close())
    tail_s, tail_pct = tail(latencies)
    return {
        "values": {
            "setup_s": statistics.median(setup),
            "wall_s": loop_wall,
            "op_p50_s": statistics.median(latencies),
            "op_tail_s": tail_s,
            "levels_per_s": tally.levels / loop_wall,
            "ok_ratio": 1.0 - tally.failed / tally.attempted,
            "peak_rss_mb": peak_rss,
        },
        "details": {"ops": len(latencies), "passes": count, "loop_wall_s": loop_wall,
                    "op_tail_percentile": tail_pct, "setup_samples_s": setup,
                    "failed_ratio": tally.failed / tally.attempted,
                    "oracle_max_dev_eV": tally.max_dev, "levels": tally.levels},
    }


def _aggregate(paths: list[Path]) -> tuple[dict, set]:
    """Per span name: calls, inclusive and self seconds, work fields, flags."""
    agg: dict[str, dict] = {}
    absent: set = set()
    roots = 0.0
    for path in paths:
        header, c = spans.load(str(path))
        absent.update(header["absent"])
        n = header["count"]
        dur = [c["end"][i] - c["start"][i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            parent = c["parent"][i]
            if parent >= 0:
                child[parent] += dur[i]
            else:
                roots += dur[i]
        for i in range(n):
            entry = agg.setdefault(header["names"][c["name"][i]],
                                   {"calls": 0, "incl": 0.0, "self": 0.0, "a": 0.0, "b": 0.0, "flag": 0})
            entry["calls"] += 1
            entry["incl"] += dur[i]
            entry["self"] += dur[i] - child[i]
            entry["a"] += c["a"][i]
            entry["b"] += c["b"][i]
            entry["flag"] += c["flag"][i]
    agg["<roots>"] = {"incl": roots}
    return agg, absent


def layer_metrics(agg: dict) -> dict:
    """The per-layer metrics of BENCHMARK.json from aggregated spans."""
    def get(name):
        return agg.get(name, {"calls": 0, "incl": 0.0, "self": 0.0, "a": 0.0, "b": 0.0, "flag": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    m = {}
    for name, fields in (
        ("cli.main", ("calls", "self")),
        ("oracle.fd_schrodinger_eigen", ("calls", "self", "rows")),
        ("oracle.adapted_range", ("self",)),
        ("oracle.oracle_energies", ("calls",)),
        ("oracle.shoot_mismatch", ("calls", "self", "steps")),
        ("oracle.shooting_grid", ("calls", "self", "points")),
        ("oracle.mismatch_sign_change", ("calls",)),
        ("rootfind.scan_brackets", ("calls", "self", "evals", "brackets")),
        ("rootfind.bisect", ("calls", "self", "evals", "retries")),
        ("relativistic.solve_kg_energy", ("self",)),
        ("relativistic.solve_dirac_spin", ("self",)),
        ("relativistic.solve_dirac_pseudospin", ("self",)),
        ("relativistic.residual", ("calls", "self")),
        ("relativistic.spec", ("calls", "self")),
        ("nonrel.energy_nonrel", ("calls", "self")),
        ("nonrel.make_wavefunction", ("calls", "self")),
        ("validate.calibrate", ("self",)),
        ("validate.per_molecule_diagnostics", ("self",)),
        ("wavefun.log_norm_quadrature", ("calls", "self", "nodes")),
        ("wavefun.value", ("calls", "self")),
        ("specfun.hyp2f1_terminating", ("calls", "self")),
    ):
        e = get(name)
        for f in fields:
            source = {"self": "self", "calls": "calls", "rows": "a", "steps": "a", "points": "a",
                      "evals": "a", "nodes": "a", "brackets": "b", "retries": "flag"}[f]
            m[f"{name}.{f}_s" if f == "self" else f"{name}.{f}"] = float(e[source])
    shoot = get("oracle.shoot_mismatch")
    m["oracle.shoot_mismatch.us_per_step"] = 1e6 * ratio(shoot["self"], shoot["a"])
    flips = get("oracle.mismatch_sign_change")
    m["oracle.mismatch_sign_change.flip_ratio"] = ratio(flips["flag"], flips["calls"])
    solves = [get(f"relativistic.{s}") for s in ("solve_kg_energy", "solve_dirac_spin", "solve_dirac_pseudospin")]
    m["relativistic.solve.calls"] = float(sum(s["calls"] for s in solves))
    m["relativistic.solve.no_bound_state"] = float(sum(s["flag"] for s in solves))
    m["relativistic.solve.roots_per_bracket"] = ratio(sum(s["b"] for s in solves),
                                                      get("rootfind.scan_brackets")["b"])
    hyp = get("specfun.hyp2f1_terminating")
    m["specfun.hyp2f1.exact_share"] = ratio(hyp["a"], hyp["calls"])
    for check in ("oracle_equivalence", "relativistic_residuals", "cross_identities", "special_functions",
                  "normalization", "box_self_test"):
        m[f"checks.{check}_s"] = get(f"checks.{check}")["incl"]
    return m


def traced_run(args, env: dict, work: Path, tally: Tally) -> dict:
    values = import_breakdown(env, IMPORTTIME_REPS)
    pass0 = next(workloads.passes(args.workload, args.seed))
    untraced, traced, layer_runs = [], [], []
    absent: set = set()
    t0 = time.perf_counter()
    while not traced or time.perf_counter() - t0 + untraced[-1] + traced[-1] <= args.seconds:
        for spans_dir in (None, work / f"spans{len(traced)}"):
            if spans_dir is not None:
                spans_dir.mkdir()
            worker_spans = spans_dir / "worker.bin" if spans_dir else None
            runner = make_runner(args.workload, env, work, worker_spans)
            start = time.perf_counter()
            try:
                for i, op in enumerate(pass0):
                    _, _, outcome = runner.run(op, i, spans_dir / f"op{i}.bin" if spans_dir else None)
                    tally.add(op, outcome)
            finally:
                runner.close()
            (traced if spans_dir else untraced).append(time.perf_counter() - start)
        agg, missing = _aggregate(sorted(spans_dir.glob("*.bin")))
        absent |= missing
        layer = layer_metrics(agg)
        layer["trace.self_share"] = agg["<roots>"]["incl"] / traced[-1]
        layer_runs.append(layer)
    for name in layer_runs[0]:
        values[name] = statistics.median(run[name] for run in layer_runs)
    values["trace.untraced_wall_s"] = statistics.median(untraced)
    values["trace.traced_wall_s"] = statistics.median(traced)
    values["trace.overhead_s"] = values["trace.traced_wall_s"] - values["trace.untraced_wall_s"]
    values["oracle.max_dev_eV"] = tally.max_dev
    return {"values": values,
            "details": {"pass0_ops": len(pass0), "repetitions": len(traced), "untraced_wall_s": untraced,
                        "traced_wall_s": traced, "absent_targets": sorted(absent)}}


def stamp(root: Path) -> dict:
    commit = None
    if (root / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "hgmorse").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(), "python": sys.version.split()[0],
            "numpy": metadata.version("numpy"), "scipy": metadata.version("scipy"),
            "nproc": len(os.sched_getaffinity(0)), "threads_pinned": 1}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--golden", type=Path, default=None,
                        help="golden records to compare against (default perfbench/golden/<workload>.json)")
    parser.add_argument("--record-golden", type=int, metavar="PASSES", default=0,
                        help="run PASSES passes of the default seed and write the golden records instead")
    args = parser.parse_args()

    root = Path.cwd()
    src = root / "src"
    if not (src / "hgmorse" / "cli.py").is_file():
        print(f"error: no hgmorse sources under {src}; run from the root of a source checkout", file=sys.stderr)
        return 2
    bench = json.loads((root / "BENCHMARK.json").read_text())
    work = HERE / ".work" / f"{os.getpid()}"
    work.mkdir(parents=True)
    signal.signal(signal.SIGALRM, _on_alarm)
    env = child_env(src)
    golden_path = args.golden or HERE / "golden" / f"{args.workload}.json"
    try:
        if args.record_golden:
            return record_golden(args, env, work, golden_path)
        golden = json.loads(golden_path.read_text())["ops"] if args.seed == DEFAULT_SEED else None
        tally = Tally(golden)
        result = (traced_run if args.trace else measured_run)(args, env, work, tally)
    finally:
        for path in sorted(work.rglob("*"), reverse=True):
            path.rmdir() if path.is_dir() else path.unlink()
        work.rmdir()
        with contextlib.suppress(OSError):  # still in use by another run
            work.parent.rmdir()
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    metrics = {m["name"]: {"value": result["values"][m["name"]], "unit": m["unit"]} for m in wanted}
    details = dict(result["details"], workload=args.workload, seed=args.seed, trace=args.trace,
                   golden_compared=golden is not None, failures=tally.failures[:5], stamp=stamp(root))
    print(json.dumps({"details": details}))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


def record_golden(args, env: dict, work: Path, path: Path) -> int:
    """Write the golden records of the default seed's first passes."""
    records: dict = {}
    tally = Tally(None, records)
    passes = workloads.passes(args.workload, DEFAULT_SEED)
    runner = make_runner(args.workload, env, work)
    try:
        for _ in range(args.record_golden):
            for op in next(passes):
                _, _, outcome = runner.run(op, tally.attempted)
                tally.add(op, outcome)
    finally:
        runner.close()
    if tally.failed:
        print(f"error: {tally.failed} operations failed; golden records not written", file=sys.stderr)
        return 1
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps({"seed": DEFAULT_SEED, "passes": args.record_golden, "ops": records},
                               indent=1, sort_keys=True) + "\n")
    print(f"wrote {len(records)} golden records to {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
