"""Fast self-test of the benchmark at tiny input sizes (under a minute).

    python3 perfbench/selftest.py

Runs every workload through run.py with ``--size tiny`` in both trace
modes and asserts that each run is correct and prints every metric named
in BENCHMARK.json with its unit; runs ``--workload all`` once; and checks
that the benchmark fails, without printing a result, in a directory that
holds only BENCHMARK.json and perfbench/.  Do not run it while the
benchmark itself runs: both use the same scratch directory.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

from run import HERE, ROOT, WORK, WORKLOADS

RUN = HERE / "run.py"


def run(argv, cwd, script=RUN):
    proc = subprocess.run([sys.executable, str(script), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=300,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, lines, proc.stderr


def check_result(label, lines, expected):
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}, label
    assert result["correct"] is True, f"{label}: not correct"
    assert result["failed"] == 0 and result["attempted"] >= 1, label
    printed = {k: v["unit"] for k, v in result["metrics"].items()}
    assert printed == expected, (
        f"{label}: metrics differ from BENCHMARK.json: "
        f"missing {sorted(set(expected) - set(printed))}, "
        f"extra {sorted(set(printed) - set(expected))}, "
        f"units {[(k, printed[k], expected[k]) for k in printed if k in expected and printed[k] != expected[k]]}")
    for key, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), (label, key)


def main():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    assert names == list(WORKLOADS), f"workloads {names} != {list(WORKLOADS)}"
    expected = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for name in WORKLOADS:
        for trace in (0, 1):
            label = f"{name} trace {trace}"
            code, lines, err = run(["--workload", name, "--seed", "1",
                                    "--seconds", "1", "--trace", str(trace),
                                    "--size", "tiny"], ROOT)
            assert code == 0, f"{label}: exit {code}\n{err}"
            check_result(label, lines, expected[trace])
            print(f"ok  {label}")

    code, lines, err = run(["--workload", "all", "--seed", "2", "--seconds",
                            "1", "--size", "tiny"], ROOT)
    assert code == 0, f"all: exit {code}\n{err}"
    combined = {f"{w}/{k}": u for w in WORKLOADS for k, u in expected[0].items()}
    check_result("all", lines, combined)
    print("ok  all")

    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        code, lines, _ = run(["--workload", names[0], "--seed", "0",
                              "--seconds", "1", "--trace", "0"], bare,
                             script=bare / "perfbench" / "run.py")
        assert code != 0, "benchmark succeeded without the hupa sources"
        assert not any(line.startswith("{") for line in lines), \
            "benchmark printed a result without the hupa sources"
        print("ok  bare directory fails")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    print("self-test passed")


if __name__ == "__main__":
    main()
