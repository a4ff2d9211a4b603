"""Schema-only smoke test of the end-to-end benchmark.

``--smoke`` shrinks every workload (x0.1 graphs, 5 epochs, 1 launch);
this asserts names, units, zero failed operations and a well-formed
trace file — never a timing.
"""

import json
import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _run_both(tmp_path):
    """Untraced and traced smoke suites, side by side (no timing is
    asserted, so sharing the cores is fine)."""
    procs = {}
    for trace in (0, 1):
        out = tmp_path / f"trace{trace}.json"
        procs[trace] = (out, subprocess.Popen(
            [sys.executable, str(HERE / "run.py"), "--smoke", "--trace",
             str(trace), "--json", str(out)],
            stdout=subprocess.PIPE, text=True,
        ))
    results = {}
    for trace, (out, proc) in procs.items():
        stdout, _ = proc.communicate(timeout=120)
        assert proc.returncode == 0, stdout
        last = json.loads(stdout.strip().splitlines()[-1])
        assert set(last) == {"correct", "attempted", "failed", "metrics"}
        assert last["correct"] is True and last["failed"] == 0
        results[trace] = json.loads(out.read_text())
    return results


def test_smoke_schema(tmp_path):
    results = _run_both(tmp_path)
    for trace, declared in ((0, SPEC["end_to_end"]), (1, SPEC["per_layer"])):
        units = {m["name"]: m["unit"] for m in declared}
        assert [r["workload"] for r in results[trace]] == WORKLOADS
        for result in results[trace]:
            assert result["failed"] == 0 and result["attempted"] >= 1
            assert all(result["checks"].values()), result["checks"]
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            assert got == units
            assert all(NAME.fullmatch(name) for name in got)

    for result in results[1]:
        trace = json.loads(Path(result["trace_file"]).read_text())
        ids = {span["id"] for span in trace["spans"]}
        assert trace["spans"] and len(ids) == len(trace["spans"])
        for span in trace["spans"]:
            assert span["parent"] is None or span["parent"] in ids
            assert span["end"] >= span["start"]
