"""motivecalc benchmark: one closed-loop client, one workload per run.

    python3 perfbench/run.py --workload dsl-bulk --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 25

Run it from the root of a source checkout; motivecalc is imported from
./src (it need not be installed).  Inputs come only from --seed.  With
--trace 0 the last line of stdout is one JSON object with the end-to-end
metrics of the workload; with --trace 1 it holds the per-layer metrics of
the traced census, and the spans are written to perfbench/_out/.
`--workload all` runs every workload in turn and prints a table; with
--trace 1 it runs the census once and reports the tracing overhead of
every workload from it.
See perfbench/NOTES.md for what each workload and metric is for.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import calib
import gen
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "_out"
WORKLOADS = ("dsl-bulk", "cellular-wide", "cli-cold", "gm-inproc")
SETUP_PROBES = 50
BARE_EVERY = 4  # cli-cold: one bare interpreter start per this many ops
BARE_REF_S = 0.034  # an unloaded bare interpreter start on the machine of NOTES.md
CLI_TIMEOUT_S = 20
RUN_LIMIT_S = 170  # a run must end within 180 s


def env() -> dict:
    """Children import motivecalc from ./src and cache its bytecode there,
    as an installed package would have it, whatever the caller's setting."""
    e = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    e.pop("PYTHONDONTWRITEBYTECODE", None)
    return e


def py(args: list[str], stdin: str = "", timeout: float = CLI_TIMEOUT_S):
    """Run the interpreter on args from the checkout root; wait for it."""
    return subprocess.run(
        [sys.executable, *args], input=stdin, capture_output=True, text=True,
        env=env(), cwd=ROOT, timeout=timeout,
    )


def worker(args: list[str], timeout: float) -> dict:
    proc = py([str(HERE / "worker.py"), *args], timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {args[0]} failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def setup_probe() -> float:
    """Scaled set-up time from one fresh interpreter (see probe.py)."""
    proc = py([str(HERE / "probe.py")], timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
    return float(proc.stdout.split()[0])


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


# -- cli-cold --------------------------------------------------------------------


class Spawner:
    """The spawner.py helper: it starts the timed child processes of a run,
    so that their peak RSS is their own (see spawner.py)."""

    def __enter__(self):
        OUT.mkdir(parents=True, exist_ok=True)
        self.proc = subprocess.Popen(
            [sys.executable, "-S", "-I", str(HERE / "spawner.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True, env=env(), cwd=ROOT,
        )
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait(timeout=CLI_TIMEOUT_S)

    def run(self, args: list[str], stdin: str = "") -> dict:
        """Run the interpreter on args; return wall_s, code (None after a
        timeout), rss_kb, out and err."""
        files = {name: str(OUT / f"child.{name}") for name in ("stdin", "stdout", "stderr")}
        Path(files["stdin"]).write_text(stdin)
        req = {"argv": [sys.executable, *args], **files, "timeout": CLI_TIMEOUT_S}
        self.proc.stdin.write(json.dumps(req) + "\n")
        self.proc.stdin.flush()
        res = json.loads(self.proc.stdout.readline())
        res["out"] = Path(files["stdout"]).read_text()
        res["err"] = Path(files["stderr"]).read_text()
        return res


def cli_run(sp: Spawner, op: dict) -> tuple[float, str | None, int]:
    """One cold CLI process: its wall time, the check's verdict and its
    own peak RSS in kB."""
    res = sp.run(["-m", "motivecalc.cli", *op["argv"]], op.get("stdin", ""))
    if res["code"] is None:
        return res["wall_s"], f"timed out after {CLI_TIMEOUT_S} s", res["rss_kb"]
    return res["wall_s"], gen.check_cli(op, res["code"], res["out"], res["err"]), res["rss_kb"]


def bare_run(sp: Spawner) -> float:
    return sp.run(["-c", "pass"])["wall_s"]


def cli_cold(sp: Spawner, seed: int, seconds: float) -> dict:
    """Cold CLI ops, timed against the bare interpreter starts run among
    them: each op is scaled by BARE_REF_S / (mean of the two bare starts
    before it and the two after it), not by calib's loop, because process
    creation slows with the machine's load in ways a pure-Python loop does
    not show (see NOTES.md)."""
    ops = gen.cli_ops(seed)
    raw, bare, bare_before, errors = [], [], [], []
    peak_kb = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:  # whole cycles of the mix
        for i, op in enumerate(ops):
            if i % BARE_EVERY == 0:
                bare.append(bare_run(sp))
            dt, err, rss_kb = cli_run(sp, op)
            peak_kb = max(peak_kb, rss_kb)
            raw.append(dt)
            bare_before.append(len(bare))
            if err:
                errors.append(f"{op['argv'][0]}: {err}")
    lat = [t * BARE_REF_S / statistics.mean(bare[max(0, k - 2):k + 2])
           for t, k in zip(raw, bare_before)]
    print(f"cli-cold: bare interpreter p50 {statistics.median(bare) * 1000:.1f} ms "
          f"(unscaled) over {len(bare)} starts")
    return {
        "latencies": {"n": lat},
        "raw_p50_s": {"n": statistics.median(raw)},
        "failed": len(errors),
        "errors": errors[:5],
        "peak_rss_kb": peak_kb,
    }


def hostile_breaks(sp: Spawner) -> int:
    """Run the known-defect inputs once, untimed; return how many break the
    exit-code contract (exit 2, one-line message, no traceback)."""
    path = OUT / "hostile_atlas.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(gen.HOSTILE_ATLAS))
    breaks = 0
    for op in gen.hostile_ops(str(path.relative_to(ROOT))):
        _, err, _ = cli_run(sp, op)
        if err:
            breaks += 1
            print(f"known defect: motivecalc {' '.join(op['argv'])[:60]}: {err[:120]}")
    return breaks


# -- per-layer, subprocess side ------------------------------------------------------


def import_times(runs: int = 5) -> dict:
    """Cumulative import times of motivecalc and dataclasses from -X importtime."""
    pkg, dc = [], []
    clock = calib.Clock()
    for _ in range(runs):
        err = py(["-X", "importtime", "-c", "import motivecalc"]).stderr
        f = clock.factor()
        cumulative = {}
        for line in err.splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cum, name = (part.strip() for part in line[len("import time:"):].split("|"))
                if cum.isdigit():
                    cumulative[name] = int(cum) / 1000 * f
        pkg.append(cumulative["motivecalc"])
        dc.append(cumulative["dataclasses"])
    return {"import.package_ms": statistics.median(pkg),
            "import.dataclasses_ms": statistics.median(dc)}


def bare_times(tr: Tracer, runs: int = 9) -> float:
    clock = calib.Clock()
    for i in range(runs):
        tr.op = f"interp/n/{i}"
        with tr.span("interp.bare"):
            py(["-c", "pass"])
        tr.scale[tr.op] = clock.factor()
    return tr.median("interp.bare", "interp/") * 1000


# -- one run ---------------------------------------------------------------------------


def measure(workload: str, seed: int, seconds: float) -> dict:
    py(["-c", "import motivecalc"])  # compile bytecode before any timing
    # half the set-up probes run before the load and half after it, so that
    # setup_s samples the machine at two times of the run
    setup = [setup_probe() for _ in range(SETUP_PROBES // 2)]
    if workload == "cli-cold":
        with Spawner() as sp:
            res = cli_cold(sp, seed, seconds)
            breaks = hostile_breaks(sp)
    else:
        res = worker(["run", workload, str(seed), str(seconds)], RUN_LIMIT_S)
    setup += [setup_probe() for _ in range(SETUP_PROBES - len(setup))]
    lat = res["latencies"]
    base = [t * 1000 for t in lat["n"]]
    # workloads with one input size report their only size as the large one
    large = [t * 1000 for t in lat.get("4n", lat["n"])]
    ops = sum(len(v) for v in lat.values())
    # time inside ops only: checks, collections and bare starts in between are not load
    busy_s = sum(sum(v) for v in lat.values())
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "latency_p50_ms": metric(statistics.median(base), "ms"),
        "latency_p90_ms": metric(statistics.quantiles(base, n=10)[-1], "ms"),
        "latency_4n_p50_ms": metric(statistics.median(large), "ms"),
        "throughput_ops_s": metric((ops - res["failed"]) / busy_s, "1/s"),
        "peak_rss_mb": metric(res["peak_rss_kb"] / 1024, "MB"),
    }
    print(f"{workload}: {ops} ops ({', '.join(f'{len(v)} at {k}' for k, v in lat.items())}), "
          f"{res['failed']} failed; unscaled p50 "
          + ", ".join(f"{v * 1000:.1f} ms at {k}" for k, v in res["raw_p50_s"].items()))
    for err in res["errors"]:
        print(f"failed op: {err}")
    if workload == "cli-cold":
        print(f"hostile inputs breaking the exit-code contract: {breaks} of 3")
    return {"correct": res["failed"] == 0, "attempted": ops, "failed": res["failed"],
            "metrics": metrics}


def measure_traced(workload: str, seed: int, seconds: float) -> dict:
    """The per-layer census.  For `all`, the overhead ratio of each workload
    is reported as trace.overhead_ratio.<workload>."""
    tr = Tracer()
    t0 = perf_counter()
    layers = import_times()
    layers["interp.bare_p50_ms"] = bare_times(tr)
    tr.op = None
    with Spawner() as sp:
        layers["cli.hostile_contract_breaks"] = hostile_breaks(sp)
    rest = max(1.0, seconds - (perf_counter() - t0))
    res = worker(["trace", workload, str(seed), str(rest)], RUN_LIMIT_S)
    tr.extend(res["trace"])
    layers.update(res["metrics"])
    for w, ratio in res["overhead_ratios"].items():
        layers["trace.overhead_ratio" + ("" if workload == w else f".{w}")] = ratio
    tr.write(OUT / f"trace-{workload}-seed{seed}.json")
    for err in res["errors"]:
        print(f"failed op: {err}")
    units = {"_ms": "ms", "_s": "s", "growth_exp": "exponent"}
    metrics = {}
    for name, value in layers.items():
        unit = next((u for suffix, u in units.items() if name.endswith(suffix)), "count")
        if name.startswith("trace.overhead_ratio"):
            unit = "ratio"
        metrics[name] = metric(value, unit)
    return {"correct": res["failed"] == 0, "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def print_table(label: str, res: dict) -> None:
    print(f"{label:14s} {'failed_ops_ratio':36s} {res['failed'] / res['attempted']:14.4f} "
          f"({res['failed']} of {res['attempted']})")
    for name, m in res["metrics"].items():
        print(f"{label:14s} {name:36s} {m['value']:14.4f} {m['unit']}")


def run_all(args) -> int:
    """Run every workload as its own process and print one table; or, with
    --trace 1, run the census once."""
    if args.trace:
        res = measure_traced("all", args.seed, args.seconds)
        print_table("census", res)
        return 0 if res["correct"] else 1
    ok = True
    for w in WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=RUN_LIMIT_S + 10)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{w}: run failed\n{proc.stderr[-2000:]}")
            ok = False
            continue
        res = json.loads(lines[-1])
        ok = ok and res["correct"]
        for line in lines[:-1]:
            print(f"  {line}")
        print_table(w, res)
    return 0 if ok else 1


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "motivecalc" / "__init__.py").is_file():
        print("error: no motivecalc sources under ./src; run from a source checkout",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    if args.trace:
        result = measure_traced(args.workload, args.seed, args.seconds)
    else:
        result = measure(args.workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
