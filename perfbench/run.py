"""Benchmark entry point: one run of one workload.

    python3 perfbench/run.py --workload mixed_corpus --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. The run happens in a fresh interpreter
(perfbench/workloads.py) with PYTHONHASHSEED fixed, in a work directory on a
RAM-backed filesystem (/dev/shm, which must be a tmpfs with 1 GiB free; the
run exits with code 2 otherwise). The work directory and every process the
run started are removed even when the run fails. The last line of standard
output is the run's JSON result; the line before it records the work
directory's filesystem type. The spans of a traced run are written to
.perfbench_out/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SOURCES = ROOT / "src"
WORKLOADS = ("mixed_corpus", "wide_pages", "replay_keepalive")
RUN_TIMEOUT_S = 170
RAM_DIR = Path("/dev/shm")
RAM_DIR_MIN_FREE_BYTES = 1 << 30  # a mixed_corpus round writes about 170 MB


def filesystem_type(path: Path) -> str:
    """Type of the filesystem holding path, from /proc/self/mounts."""
    best, fstype = "", "unknown"
    resolved = str(path.resolve())
    try:
        mounts = Path("/proc/self/mounts").read_text().splitlines()
    except OSError:
        return fstype
    for line in mounts:
        fields = line.split()
        if len(fields) < 3:
            continue
        mount_point = fields[1].replace("\\040", " ")
        inside = resolved == mount_point or resolved.startswith(mount_point.rstrip("/") + "/")
        if inside and len(mount_point) >= len(best):
            best, fstype = mount_point, fields[2]
    return fstype


def ram_dir_has_room() -> bool:
    """Whether RAM_DIR is a tmpfs with RAM_DIR_MIN_FREE_BYTES free; on disk,
    writeback makes the figures drift from run to run."""
    try:
        stat = os.statvfs(RAM_DIR)
    except OSError:
        return False
    return filesystem_type(RAM_DIR) == "tmpfs" and stat.f_bavail * stat.f_frsize >= RAM_DIR_MIN_FREE_BYTES


def with_units(values: dict, trace: int) -> dict:
    """Attach each metric's unit from BENCHMARK.json; the run must report
    exactly the metrics listed there for its mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    if set(values) != set(listed):
        raise ValueError(f"metrics {sorted(set(values) ^ set(listed))} differ from BENCHMARK.json")
    return {name: {"value": values[name], "unit": listed[name]} for name in listed}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SOURCES / "wasef" / "__init__.py").is_file():
        print(f"error: no wasef sources under {SOURCES}", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2
    if not ram_dir_has_room():
        print(f"error: {RAM_DIR} is not a tmpfs with {RAM_DIR_MIN_FREE_BYTES >> 30} GiB free", file=sys.stderr)
        return 2
    compileall.compile_dir(SOURCES / "wasef", quiet=1)  # keep byte-compiling out of set-up times

    out_dir = ROOT / ".perfbench_out"
    out_dir.mkdir(exist_ok=True)
    spans_file = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-", dir=RAM_DIR))
    env = dict(
        os.environ,
        PYTHONHASHSEED="0",
        PYTHONPATH=os.pathsep.join([str(SOURCES), str(HERE)]),
    )
    command = [
        sys.executable, str(HERE / "workloads.py"), args.workload, str(args.seed),
        str(args.seconds), str(args.trace), str(workdir), str(spans_file),
    ]
    child = None
    try:
        # A session of its own lets the whole process group (the run and any
        # `wasef serve` it started) be stopped at once.
        child = subprocess.Popen(command, stdout=subprocess.PIPE, env=env, start_new_session=True)
        try:
            stdout, _ = child.communicate(timeout=RUN_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            print(f"error: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
            return 1
        lines = stdout.decode(errors="replace").strip().splitlines()
        if child.returncode != 0 or not lines:
            print(f"error: workload exited with code {child.returncode}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        result["metrics"] = with_units(result["metrics"], args.trace)
        info = {
            "workload": args.workload,
            "seed": args.seed,
            "trace": args.trace,
            "round_s": result.pop("round_s"),
            "reference_round_s": result.pop("reference_round_s"),
            "workdir_fs": filesystem_type(workdir),
        }
        print(json.dumps(info))
        print(json.dumps(result))
        return 0
    finally:
        if child is not None:
            try:  # whatever is left of the run's process group
                os.killpg(child.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            child.wait()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
