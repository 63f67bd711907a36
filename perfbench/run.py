"""hierdp benchmark: the real CLI end to end, plus per-layer timings.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program under test is the
``hierdp`` package in its ``src/`` directory. One closed-loop client:
this process runs one program process at a time, with the CLI's default
``--threads 1``.

``--trace 0`` repeats, until ``--seconds`` would be exceeded, one
iteration of (a) the workload's CLI command sequence in fresh
subprocesses, timed and with rusage from ``os.wait4``, its outputs
checked, and (b) a fresh worker that imports ``hierdp``, parses the
inputs (set-up time) and runs the same command bodies in process (work
rate, a second time when the first took under two seconds), their
outputs compared byte for byte with the CLI's. Reported values are
medians over all samples; set-up is sampled at least three times.

``--trace 1`` runs the CLI sequence once untraced and one worker whose
layer-boundary calls are wrapped in spans (see ``spans.py``), and
reports the per-layer metrics. Traced and untraced outputs must match.

Inputs, outputs, spans and a full result record (environment stamp,
every sample) go under ``.perfbench_work/`` in the checkout. The last
line of stdout is the JSON summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

import numpy as np

import spans
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
BENCHMARK = ROOT / "BENCHMARK.json"
# a run, however slow the machine, must end within 180 s
HARD_LIMIT_S = 170.0
MIN_SETUP_SAMPLES = 3


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        return self.end - time.monotonic()


class Launcher:
    """Client of ``launcher.py``, which spawns and reaps every measured
    process so that their peak RSS is their own."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "launcher.py")],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True)

    def run(self, argv: list[str], log: Path, env: dict, deadline: Deadline) -> dict:
        """Run one process to completion: monotonic start and wall time,
        the child's own CPU seconds and peak RSS, exit code and output."""
        out, err = log.with_suffix(".out"), log.with_suffix(".err")
        self.proc.stdin.write(json.dumps({
            "argv": argv, "cwd": str(ROOT), "env": env, "stdout": str(out),
            "stderr": str(err), "timeout": max(deadline.left(), 1.0),
        }) + "\n")
        self.proc.stdin.flush()
        reply = self.proc.stdout.readline()
        if not reply:
            raise RuntimeError("the launcher process died")
        r = json.loads(reply)
        r["stdout"] = out.read_text(encoding="utf-8", errors="replace")
        r["stderr"] = err.read_text(encoding="utf-8", errors="replace")
        return r

    def close(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()


class Runner:
    def __init__(self, args, launcher: Launcher):
        self.args = args
        self.launcher = launcher
        self.deadline = Deadline(HARD_LIMIT_S)
        self.dir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
        shutil.rmtree(self.dir, ignore_errors=True)
        (self.dir / "inputs").mkdir(parents=True)
        (self.dir / "logs").mkdir()
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else [])
        )
        self.attempted = 0
        self.failures: list[str] = []
        self.absent: list[str] = []
        self.span_count = 0
        self.checked: dict[str, str] = {}
        self.digests: dict[str, str] = {}
        self.n_spawn = 0
        self.out = self.dir / "out"
        self.plan = workloads.plan(args.workload, args.seed, args.size,
                                   self.dir / "inputs", self.out)

    def spawn(self, argv: list[str], tag: str) -> dict:
        self.n_spawn += 1
        log = self.dir / "logs" / f"{self.n_spawn:03d}-{tag}"
        return self.launcher.run(argv, log, self.env, self.deadline)

    def fail(self, what: str) -> None:
        self.failures.append(what)

    def cli_sequence(self) -> dict:
        """Run the plan's CLI commands once into a fresh output
        directory and check what they wrote. Returns summed wall and CPU
        seconds, peak RSS, output digests and whether all went well."""
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir()
        wall = cpu = rss = 0.0
        ok = True
        for argv in self.plan.commands:
            self.attempted += 1
            r = self.spawn([sys.executable, "-m", "hierdp.cli", *argv], "cli")
            wall += r["wall_s"]
            cpu += r["cpu_s"]
            rss = max(rss, r["maxrss_mb"])
            if r["rc"] != 0:
                ok = False
                self.fail(f"CLI {argv[0]} exited {r['rc']}: {r['stderr'][-500:]}")
        texts, digests = {}, {}
        for name in self.plan.outputs if ok else ():
            path = self.out / name
            if not path.is_file():
                ok = False
                self.fail(f"CLI wrote no {name}")
                continue
            texts[name] = path.read_text(encoding="utf-8")
            digests[name] = hashlib.sha256(texts[name].encode("utf-8")).hexdigest()
        # identical bytes were checked already; the inputs never change in a run
        if ok and digests != self.checked:
            problems = self.plan.check(texts)
            if problems:
                ok = False
                self.fail("output check: " + "; ".join(problems))
            else:
                self.checked = digests
        self.digests = digests
        return {"wall_s": wall, "cpu_s": cpu, "maxrss_mb": rss, "digests": digests, "ok": ok}

    def worker(self, mode: str, spans_out: Path | None = None):
        spec = dict(self.plan.spec, mode=mode, src=str(SRC),
                    run_id=f"{self.args.workload}-seed{self.args.seed}",
                    spans_out=str(spans_out) if spans_out else None)
        spec_path = self.dir / "worker_spec.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        self.attempted += 1
        r = self.spawn([sys.executable, str(HERE / "worker.py"), str(spec_path)],
                       f"worker-{mode}")
        events = {}
        for line in r["stdout"].splitlines():
            try:
                record = json.loads(line)
            except ValueError:
                continue
            events[record.get("event")] = record
        if r["rc"] != 0 or "ready" not in events:
            self.fail(f"worker ({mode}) exited {r['rc']}: {r['stderr'][-500:]}")
            return None
        events["setup_s"] = events["ready"]["t"] - r["t0"]
        return events


def median(values: list[float]) -> float:
    return float(statistics.median(values)) if values else 0.0


def timed_run(run: Runner, seconds: float) -> tuple[dict, dict]:
    samples = {k: [] for k in ("cli_s", "cli_cpu_s", "peak_rss_mb", "setup_s",
                               "body_s", "work_per_s")}
    start = time.monotonic()
    while True:
        t_iter = time.monotonic()
        cli = run.cli_sequence()
        if cli["ok"]:
            samples["cli_s"].append(cli["wall_s"])
            samples["cli_cpu_s"].append(cli["cpu_s"])
            samples["peak_rss_mb"].append(cli["maxrss_mb"])
        w = run.worker("time")
        if w is not None:
            samples["setup_s"].append(w["setup_s"])
            body = w.get("body")
            if body is None:
                run.fail("worker reported no body run")
            elif cli["ok"] and any(d != cli["digests"] for d in body["digests"]):
                run.fail("in-process outputs differ from the CLI's")
            else:
                samples["body_s"] += body["s"]
                samples["work_per_s"] += [run.plan.units / s for s in body["s"]]
        if run.failures:
            break
        now = time.monotonic()
        # stop unless the next iteration would end by half an iteration
        # after the window at the latest
        if now - start + 0.5 * (now - t_iter) > seconds \
                or run.deadline.left() < 2 * (now - t_iter):
            break
    while len(samples["setup_s"]) < MIN_SETUP_SAMPLES and not run.failures:
        w = run.worker("setup")
        if w is not None:
            samples["setup_s"].append(w["setup_s"])
    ok_frac = 1.0 - min(len(run.failures), run.attempted) / run.attempted
    metrics = {
        "cli_s": (median(samples["cli_s"]), "s"),
        "cli_cpu_s": (median(samples["cli_cpu_s"]), "s"),
        "setup_s": (median(samples["setup_s"]), "s"),
        "work_per_s": (median(samples["work_per_s"]), "1/s"),
        "peak_rss_mb": (median(samples["peak_rss_mb"]), "MB"),
        "ok_frac": (ok_frac, "frac"),
    }
    return metrics, samples


def trace_run(run: Runner, metric_units: dict[str, str]) -> tuple[dict, dict]:
    cli = run.cli_sequence()
    spans_out = run.dir / "spans.jsonl"
    w = run.worker("trace", spans_out)
    samples: dict = {"cli_s": [cli["wall_s"]]}
    layers: dict[str, float] = {}
    if w is not None and "trace" in w:
        t = w["trace"]
        if not t["digests_agree"]:
            run.fail("traced and untraced in-process outputs differ")
        if cli["ok"] and t["digests"] != cli["digests"]:
            run.fail("in-process outputs differ from the CLI's")
        layers = dict(t["layers"])
        layers["cli.overhead_s"] = cli["wall_s"] - t["untraced_s"]
        samples.update(untraced_body_s=[t["untraced_s"]], traced_body_s=[t["traced_s"]],
                       setup_s=[w["setup_s"]])
        run.absent = t["absent"]
        run.span_count = t["spans"]
    elif w is not None:
        run.fail("traced worker reported nothing")
    metrics = {name: (float(layers.get(name, 0.0)), unit)
               for name, unit in metric_units.items()}
    return metrics, samples


def environment() -> dict:
    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu_model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=20).stdout.strip() or None
            dirty = bool(subprocess.run(["git", "status", "--porcelain"], cwd=ROOT,
                                        text=True, capture_output=True,
                                        timeout=20).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            pass

    def version(dist):
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "click": version("click"),
        "git_commit": commit,
        "git_dirty": dirty,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--size", choices=sorted(workloads.SIZES), default="full",
                        help="input size; 'tiny' is for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not (SRC / "hierdp" / "cli.py").is_file() or not BENCHMARK.is_file():
        print(f"error: no hierdp sources under {SRC} or no {BENCHMARK.name}",
              file=sys.stderr)
        return 2
    declared = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if args.trace else "end_to_end"]}

    launcher = Launcher()
    try:
        run = Runner(args, launcher)
        # compile bytecode and load the interpreter's files once, untimed
        warm = run.spawn([sys.executable, "-c", "import hierdp.cli"], "warmup")
        if warm["rc"] != 0:
            print(f"error: cannot import hierdp: {warm['stderr'][-500:]}",
                  file=sys.stderr)
            return 2
        if args.trace:
            metrics, samples = trace_run(run, units)
        else:
            metrics, samples = timed_run(run, args.seconds)
    finally:
        launcher.close()
    # the inputs and outputs are large and can be regenerated from the seed
    shutil.rmtree(run.dir / "inputs", ignore_errors=True)
    shutil.rmtree(run.out, ignore_errors=True)
    missing = set(units) - set(metrics)
    if missing:
        print(f"error: BENCHMARK.json names unmeasured metrics {sorted(missing)}",
              file=sys.stderr)
        return 2

    failed = min(len(run.failures), run.attempted)
    summary = {
        "correct": not run.failures,
        "attempted": run.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items() if name in units},
    }
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "unit_of_work": run.plan.unit,
        "units_per_sequence": run.plan.units, "inputs": run.plan.info,
        "environment": environment(), "samples": samples,
        "sample_counts": {k: len(v) for k, v in samples.items()},
        "output_sha256": run.digests, "spans": run.span_count,
        "absent_boundaries": run.absent,
        "absent_layers": spans.absent_layers(run.absent) if args.trace else [],
        "failures": run.failures, **summary,
    }
    result_path = run.dir / "result.json"
    result_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    for name, (value, unit) in metrics.items():
        print(f"{name:32s} {value:16.6g} {unit}")
    for problem in run.failures:
        print(f"FAILED: {problem}")
    print(f"result record: {result_path.relative_to(ROOT)}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
