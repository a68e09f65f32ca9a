#!/usr/bin/env python3
"""The INDRA simulator benchmark: one command, one workload per run.

    python3 perfbench/run.py --workload clean_stream --seed 1 \
        --seconds 10 --trace 0

Run from the root of a source checkout. The script builds the
simulator and the driver from source in Release (CMake, under
$CARGO_TARGET_DIR or .bench_build), runs perfbench/indra_perfbench
for the workload, checks its simulated digests against
perfbench/reference.json when the seed has a reference (seeds 1-3;
other seeds are checked against invariants only), and prints one
JSON object as the last line of standard output:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

attempted/failed count correctness checks: per-repeat digest
identity, the stepped drive against the one-call runStorm path, the
reference digest, the invariants every seed must meet, and the
workload's declared shape. With --trace 0 the metrics are the
end-to-end figures; with --trace 1 they are the per-layer ledger,
including the unedited bench_micro rows folded in as micro.*.
"""

import argparse
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent

WORKLOADS = ("clean_stream", "recovery_storm", "domain_rewind")

# name -> unit; every name is printed on every --trace 0 run. Host
# times are calibrated: scaled to a fixed speed of the calibration loop
# run interleaved with the workload (see indra_perfbench.cc), because a
# shared host's speed can drift by tens of percent between and within
# runs. The raw host figures are printed too and go to the ledger.
END_TO_END = {
    "sim_mips_cal": "instr/iter",
    "req_per_s_cal": "1/s",
    "req_host_ms_p50_cal": "ms",
    "req_host_ms_p99_cal": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "sim_ipc": "instr/cycle",
    "goodput": "req/Mcycle",
    "checks_pass_frac": "ratio",
}

# name -> unit; every name is printed on every --trace 1 run. The
# comment after each group names the end-to-end figure it should move.
PER_LAYER = {
    # req_host_ms_p99 and req_per_s on recovery_storm
    "core.steps": "count",
    "core.step_s": "s",
    "core.recovery_steps": "count",
    "core.recovery_step_s": "s",
    # sim_mips on clean_stream
    "cpu.instructions": "count",
    "cpu.execute_self_s": "s",
    "cpu.mem_stall_cycles": "cycles",
    "cpu.sync_stall_cycles": "cycles",
    # sim_mips on clean_stream (delta backup) and domain_rewind (anchors)
    "checkpoint.on_store.calls": "count",
    "checkpoint.on_store.s": "s",
    "checkpoint.on_store.ns_per_call": "ns",
    "checkpoint.on_load.calls": "count",
    "checkpoint.on_load.s": "s",
    "checkpoint.on_load.ns_per_call": "ns",
    # req_host_ms_p99 on recovery_storm
    "checkpoint.macro_capture_ms": "ms",
    "checkpoint.macro_restore_ms": "ms",
    "checkpoint.macro_capture_ns_per_page": "ns",
    "checkpoint.macro_restore_ns_per_page": "ns",
    "checkpoint.macro_pages": "count",
    "checkpoint.lines_backed_up": "count",
    "checkpoint.rollbacks": "count",
    "checkpoint.macro_restores": "count",
    "checkpoint.domain_rewinds": "count",
    "faults.checksum32_ns_per_page": "ns",
    # sim_mips on clean_stream
    "net.synth_ns_per_instr": "ns",
    # all three, most of all clean_stream and domain_rewind
    "os.translate_ns": "ns",
    "os.syscall.calls": "count",
    "os.syscall.s": "s",
    # a little, on clean_stream
    "monitor.submit.calls": "count",
    "monitor.submit.s": "s",
    "monitor.drain.calls": "count",
    "mem.l1i_misses": "count",
    "mem.l1d_misses": "count",
    "mem.l2_misses": "count",
    "mem.itlb_misses": "count",
    "mem.dtlb_misses": "count",
    "mem.fifo_stalls": "count",
    "mem.fifo_stall_cycles": "cycles",
    "resilience.sheds": "count",
    "resilience.retries": "count",
    "obs.events.monitor_violation": "count",
    "obs.events.micro_recovery": "count",
    "obs.events.macro_restore": "count",
    "obs.events.macro_capture": "count",
    "obs.events.rejuvenation": "count",
    "obs.events.rollback_armed": "count",
    "obs.events.corruption_detected": "count",
    "obs.events.fault_injected": "count",
    "obs.events.shed": "count",
    "obs.events.health_transition": "count",
    "obs.events.fifo_high_water": "count",
    "obs.events.fifo_low_water": "count",
    "obs.events.oracle_violation": "count",
    "obs.events.adversary_move": "count",
    "obs.events.proactive_restore": "count",
    "obs.events.domain_rewind": "count",
    "obs.events_dropped": "count",
    "trace_overhead": "ratio",
    "trace.sim_mips": "MIPS",
    # the end-to-end figures in raw host time (untraced repeats)
    "host.sim_mips": "MIPS",
    "host.req_per_s": "1/s",
    "host.req_ms_p50": "ms",
    "host.req_ms_p99": "ms",
    "host.setup_s": "s",
    "host.calib_mips": "Miter/s",
    # bench_micro rows, beside their in-situ counterparts above
    "micro.delta_store_hook_ns": "ns",
    "micro.delta_store_hook_hot_line_ns": "ns",
    "micro.filter_cam_lookup_32_ns": "ns",
    "micro.filter_cam_lookup_64_ns": "ns",
    "micro.filter_cam_lookup_256_ns": "ns",
    "micro.line_bit_vector_ns": "ns",
    "micro.trace_fifo_push_ns": "ns",
    "micro.cache_access_ns": "ns",
}

# The driver measures for --seconds, then checks and reports; it gets
# this much longer before it is stopped.
DRIVER_GRACE_S = 140


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(1)


def build_dir():
    target = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    return (Path.cwd() / target / "perfbench").resolve()


def build(bdir):
    """Configure (once) and build the driver and bench_micro."""
    env = dict(os.environ, INDRA_JOBS="1")
    if not (bdir / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(bdir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                           env=env, check=False)
        if r.returncode != 0:
            (bdir / "CMakeCache.txt").unlink(missing_ok=True)
            fail("cmake configure failed")
    r = subprocess.run(["cmake", "--build", str(bdir), "-j", "4",
                        "--target", "indra_perfbench", "bench_micro"],
                       stdout=sys.stderr, stderr=sys.stderr, env=env,
                       check=False)
    if r.returncode != 0:
        fail("build failed")


def last_json_line(text, what):
    lines = [l for l in text.splitlines() if l.strip()]
    if not lines:
        fail(f"{what} printed nothing")
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        fail(f"{what} did not end with a JSON line")


def run_driver(bdir, args):
    cmd = [str(bdir / "indra_perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        r = subprocess.run(cmd, capture_output=True, text=True,
                           timeout=args.seconds + DRIVER_GRACE_S,
                           env=dict(os.environ, INDRA_JOBS="1"),
                           check=False)
    except subprocess.TimeoutExpired:
        fail("driver timed out")
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        fail(f"driver exited with {r.returncode}")
    for line in r.stdout.splitlines()[:-1]:
        print(line)
    return last_json_line(r.stdout, "driver")


def snake(name):
    """BM_FilterCamLookup/32 -> filter_cam_lookup_32."""
    name = re.sub(r"^BM_", "", name).replace("/", "_")
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", name).lower()


def micro_rows(bdir):
    """Run the repository's bench_micro, unedited, as JSON."""
    exe = bdir / "indra" / "bench" / "bench_micro"
    try:
        r = subprocess.run([str(exe), "--benchmark_format=json",
                            "--benchmark_min_time=0.05"],
                           capture_output=True, text=True, timeout=120,
                           check=False)
    except subprocess.TimeoutExpired:
        fail("bench_micro timed out")
    if r.returncode != 0:
        fail(f"bench_micro exited with {r.returncode}")
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    rows = {}
    for b in json.loads(r.stdout)["benchmarks"]:
        rows[f"micro.{snake(b['name'])}_ns"] = (
            b["real_time"] * scale[b["time_unit"]])
    return rows


def reference_checks(res, workload, seed):
    """Field-by-field comparison with the shipped reference digests
    (one per sub-seed) for the seeds that have one."""
    refs = json.loads((HERE / "reference.json").read_text())
    ref = refs.get(workload, {}).get(str(seed))
    if ref is None:
        return []
    checks = [("reference.sub_seeds", len(ref) == len(res["digests"]))]
    for want, got in zip(ref, res["digests"]):
        checks += [(f"reference.{k}", got.get(k) == v)
                   for k, v in want.items()]
    return checks


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 1 or not 1 <= args.seconds <= 600:
        fail("--seed must be >= 1 and --seconds in 1..600")

    bdir = build_dir()
    build(bdir)
    res = run_driver(bdir, args)

    checks = reference_checks(res, args.workload, args.seed)
    attempted = res["checks"] + len(checks)
    failed = res["failed"] + sum(1 for _, ok in checks if not ok)
    failed_names = res["failed_checks"] + [n for n, ok in checks if not ok]

    if args.trace:
        values = dict(res["per_layer"], **res["host"])
        for k in ("on_store", "on_load"):
            calls = values[f"checkpoint.{k}.calls"]
            values[f"checkpoint.{k}.ns_per_call"] = (
                values[f"checkpoint.{k}.s"] * 1e9 / calls if calls else 0.0)
        values.update(micro_rows(bdir))
        names = PER_LAYER
    else:
        values = dict(res["end_to_end"])
        values["checks_pass_frac"] = (attempted - failed) / attempted
        names = END_TO_END
    missing = [n for n in names if n not in values]
    if missing:
        fail(f"missing metrics: {', '.join(missing)}")

    print(f"stamp: build={res['build_type']} nproc={res['nproc']} "
          f"loadavg={res['loadavg']:.2f} calib={res['calib_mips']:.2f} "
          f"Miter/s repeats={res['repeats']}+{res['traced_repeats']} "
          f"jobs=1")
    shown = dict(names)
    if not args.trace:
        values.update(res["host"])
        shown.update({k: PER_LAYER[k] for k in res["host"]})
    for n, unit in shown.items():
        extra = ""
        if "_ms_" in n:
            extra = f"  (n={res['req_samples']})"
        print(f"  {n:40s} {values[n]:>16.6g} {unit}{extra}")
    print(f"checks: {attempted} run, {failed} failed"
          + (f": {', '.join(failed_names)}" if failed_names else ""))
    metrics = {n: {"value": values[n], "unit": u} for n, u in names.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
