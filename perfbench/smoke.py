"""Smoke test of the benchmark itself, at a tiny size (under a minute).

    python3 perfbench/smoke.py            # from the root of a source checkout
    python3 -m pytest perfbench/smoke.py

Checks the result schema of a measured and a traced run, that a corrupted
golden value counts as a failed operation instead of crashing the run, and
that the benchmark refuses to run without the program's sources.  The file
name keeps it out of the tier-1 pytest collection.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*extra: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py"), "--seconds", "1", *extra],
                          cwd=cwd, capture_output=True, text=True, timeout=180)


def _result(proc: subprocess.CompletedProcess, wanted: list[dict]) -> dict:
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    assert isinstance(result["failed"], int)
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert entry["unit"] == m["unit"]
        assert isinstance(entry["value"], float), (m["name"], entry)
    return result


@contextlib.contextmanager
def _scratch():
    path = HERE / ".work" / f"smoke-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path)
        with contextlib.suppress(OSError):  # still in use by a run
            path.parent.rmdir()


def test_measured_run_schema():
    result = _result(_run("--workload", "cli-tables", "--seed", "0", "--trace", "0"), BENCH["end_to_end"])
    assert result["correct"] and result["failed"] == 0
    assert result["metrics"]["ok_ratio"]["value"] == 1.0


def test_traced_run_schema():
    result = _result(_run("--workload", "rel-sweep", "--seed", "3", "--trace", "1"), BENCH["per_layer"])
    assert result["correct"]
    assert result["metrics"]["rootfind.scan_brackets.evals"]["value"] > 0
    assert result["metrics"]["oracle.shoot_mismatch.calls"]["value"] == 0


def test_corrupted_golden_counts_as_failure():
    golden = json.loads((HERE / "golden" / "rel-sweep.json").read_text())
    first = next(workloads.passes("rel-sweep", 0))[0]
    key = json.dumps(first, sort_keys=True)
    record = golden["ops"][key]
    if record.get("roots"):
        record["roots"][0] += 10.0 * record["tol"]
    else:
        record["text"] = "0" * 64
    with _scratch() as scratch:
        path = scratch / "rel-sweep.json"
        path.write_text(json.dumps(golden))
        result = _result(_run("--workload", "rel-sweep", "--seed", "0", "--trace", "0", "--golden", str(path)),
                         BENCH["end_to_end"])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["ok_ratio"]["value"] < 1.0


def test_refuses_without_sources():
    with _scratch() as bare:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns(".work", "__pycache__"))
        proc = subprocess.run(BENCH["command"] + ["--workload", "cli-tables", "--seed", "0", "--seconds", "1",
                                                  "--trace", "0"], cwd=bare, capture_output=True, text=True,
                              timeout=180)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def main() -> int:
    for name, test in list(globals().items()):
        if name.startswith("test_"):
            test()
            print(f"ok {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
