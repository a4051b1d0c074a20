#!/usr/bin/env python3
"""Check tools/bench_to_json.py's `speedup_vs_serial` join.

    python3 tools/bench_to_json_test.py

Runs the tool end to end on a canned google-benchmark JSON document,
printed by a stand-in benchmark binary, and checks that only the
parallel BM_ExploreVectorSum and BM_StateStoreFootprint instances get
`speedup_vs_serial`, each over the serial instance with the same other
name arguments.  Every google-benchmark record carries a built-in
`threads` field (1 here); the explore and store benches overwrite it
with a `threads` counter, so a join on that field gives the
single-threaded benches a "speedup" over BM_StateStoreFootprint.
Prints PASS and exits 0 on success.
"""
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

TOOL = Path(__file__).resolve().parent / "bench_to_json.py"


def record(name, real_time, **counters):
    rec = {"name": name, "run_name": name, "run_type": "iteration",
           "iterations": 10, "real_time": real_time, "cpu_time": real_time,
           "time_unit": "ms", "threads": 1}
    rec.update(counters)
    return rec


CANNED = {
    "context": {"host_name": "canned", "num_cpus": 4},
    "benchmarks": [
        record("BM_ExploreVectorSum/threads:0/por:0/warps:3/real_time", 100.0,
               threads=0, por=0, warps=3),
        record("BM_ExploreVectorSum/threads:4/por:0/warps:3/real_time", 50.0,
               threads=4, por=0, warps=3),
        record("BM_ExploreVectorSum/threads:0/por:1/warps:3/real_time", 60.0,
               threads=0, por=1, warps=3),
        record("BM_ExploreVectorSum/threads:2/por:1/warps:3/real_time", 40.0,
               threads=2, por=1, warps=3),
        record("BM_ExploreVectorSum/threads:0/por:0/warps:2/real_time", 10.0,
               threads=0, por=0, warps=2),
        record("BM_ExploreVectorSum/threads:8/por:0/warps:2/real_time", 20.0,
               threads=8, por=0, warps=2),
        record("BM_MemoryCloneHash", 0.001),
        record("BM_MachineCloneHash", 0.002),
        record("BM_StateStoreFootprint/threads:0/reduce:0/real_time", 30.0,
               threads=0, states=100, dedup_ratio=6.0),
        record("BM_StateStoreFootprint/threads:4/reduce:0/real_time", 15.0,
               threads=4, states=100, dedup_ratio=6.0),
        record("BM_StateStoreFootprint/threads:0/reduce:1/real_time", 8.0,
               threads=0, states=50, dedup_ratio=7.0),
        record("BM_StateStoreFootprint/threads:4/reduce:1/real_time", 16.0,
               threads=4, states=50, dedup_ratio=7.0),
        record("BM_ServeThroughput/clients:1/real_time", 5.0, clients=1),
        record("BM_CheckpointOverhead/every:0/real_time", 3.0),
    ],
}

EXPECTED = {
    "BM_ExploreVectorSum/threads:4/por:0/warps:3/real_time": 2.0,
    "BM_ExploreVectorSum/threads:2/por:1/warps:3/real_time": 1.5,
    "BM_ExploreVectorSum/threads:8/por:0/warps:2/real_time": 0.5,
    "BM_StateStoreFootprint/threads:4/reduce:0/real_time": 2.0,
    "BM_StateStoreFootprint/threads:4/reduce:1/real_time": 0.5,
}


def main():
    with tempfile.TemporaryDirectory() as tmp:
        doc = Path(tmp) / "canned.json"
        doc.write_text(json.dumps(CANNED))
        binary = Path(tmp) / "fake_bench"
        binary.write_text(f"#!{sys.executable}\n"
                          "import sys\n"
                          f"sys.stdout.write(open({str(doc)!r}).read())\n")
        os.chmod(binary, 0o755)
        out = Path(tmp) / "snap.json"
        subprocess.run([sys.executable, str(TOOL), "--binary", str(binary),
                        "--out", str(out)], check=True)
        snap = json.loads(out.read_text())

    got = {b["name"]: b["speedup_vs_serial"] for b in snap["benchmarks"]
           if "speedup_vs_serial" in b}
    if got != EXPECTED:
        sys.exit(f"FAIL: speedup_vs_serial {got}, expected {EXPECTED}")
    print("PASS")


if __name__ == "__main__":
    main()
