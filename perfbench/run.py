"""mfkit benchmark: one closed-loop client running ``python -m mfkit``.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  ``--trace 0`` measures the end-to-end
metrics: each invocation of the workload runs as a child process, one
after another, and the same operations run in-process through the public
API.  ``--trace 1`` runs the invocations in-process through
``mfkit.cli.main`` with spans around mfkit's public functions and
reports the per-layer metrics.  The last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}; a detailed record
(environment, per-invocation samples and SHA-256 digests) is written
under perfbench/_work/results/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

sys.dont_write_bytecode = True     # nothing of the parent lands in src/ or here

import speed                       # noqa: E402
import tracing                     # noqa: E402
import workloads                   # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / "perfbench" / "_work"

SETUP_REPS = 5
PROBES = 5                  # interpreter / import start-up probes per traced run
CHILD_TIMEOUT_S = 60.0
HARD_LIMIT_S = 150.0        # stop starting passes after this long
PROBE_CODE = (
    "import time, sys\n"
    "t0 = time.perf_counter()\n"
    "import mfkit.cli as cli\n"
    "t1 = time.perf_counter()\n"
    "cli.build_parser()\n"
    "sys.stdout.write(f'{t1 - t0!r} {time.perf_counter() - t1!r}')\n"
)


def child_env(work: Path) -> tuple[dict, dict]:
    """The pinned environment of every child, and the record of it:
    PYTHON* and MFKIT_* variables of the caller are dropped (so
    MFKIT_THREADS cannot make the sweep threaded), mfkit is imported
    from the checkout's src, and bytecode is cached under the work
    directory instead of being recompiled on every start."""
    pinned = {
        "PYTHONPATH": str(SRC),
        "PYTHONPYCACHEPREFIX": str(work / "pycache"),
        "PYTHONHASHSEED": "0",
    }
    dropped = sorted(k for k in os.environ if k.startswith(("PYTHON", "MFKIT_")))
    env = {k: v for k, v in os.environ.items() if k not in dropped}
    env.update(pinned)
    return env, {"set": pinned, "dropped": dropped}


def commit_of(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def sha(data: bytes | None) -> str | None:
    return None if data is None else hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# Child processes


@dataclass
class ChildResult:
    exit: int
    maxrss_kb: int
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], env: dict, work: Path, timeout: float = CHILD_TIMEOUT_S) -> ChildResult:
    """Run one child to completion; its peak RSS comes from its own
    rusage (os.wait4), not from RUSAGE_CHILDREN, which keeps the
    maximum over every child so far."""
    out_path, err_path = work / "child.stdout", work / "child.stderr"
    lock, state = threading.Lock(), {"done": False}
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen([sys.executable, *argv], stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err, env=env, cwd=work)

        def kill():
            with lock:
                if not state["done"]:
                    proc.kill()
        timer = threading.Timer(timeout, kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            # Interrupted (SIGTERM, ^C): take the child down with us.
            proc.kill()
            proc.wait()
            raise
        finally:
            with lock:
                state["done"] = True
            timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    timer.join()
    return ChildResult(exit=proc.returncode, maxrss_kb=usage.ru_maxrss,
                       stdout=out_path.read_bytes(), stderr=err_path.read_bytes())


# ---------------------------------------------------------------------------
# Checking


class Judge:
    """Applies each invocation's checks, once per distinct output, and
    pins the SHA-256 digests of its first stdout and artifact: any later
    run of the same invocation must reproduce them byte for byte."""

    def __init__(self):
        self.attempted = self.failed = 0            # every operation
        self.cli_attempted = self.cli_failed = 0    # mfkit invocations only
        self.problems: dict[str, list[str]] = {}
        self.digests: dict[str, dict] = {}
        self._seen: dict[tuple, list[str]] = {}

    def judge(self, inv, code: int, stdout: bytes, stderr: bytes, artifact: bytes | None) -> bool:
        self.attempted += 1
        self.cli_attempted += 1
        digests = {"stdout": sha(stdout), "artifact": sha(artifact)}
        problems = []
        if code != inv.exit:
            problems.append(f"exit code {code}, expected {inv.exit}: {stderr[-300:]!r}")
        first = self.digests.setdefault(inv.name, digests)
        if first != digests:
            problems.append("output differs from the first run of this invocation")
        key = (inv.name, digests["stdout"], sha(stderr), digests["artifact"])
        if key not in self._seen:
            self._seen[key] = inv.check(stdout.decode("utf-8", "replace"),
                                        stderr.decode("utf-8", "replace"),
                                        None if artifact is None else artifact.decode("utf-8", "replace"))
        problems += self._seen[key]
        self.cli_failed += bool(problems)
        return self._record(inv.name, problems)

    def judge_lib(self, op, value) -> bool:
        self.attempted += 1
        problems = [] if value == op.expect else [f"lib result {str(value)[:80]!r} != expected"]
        return self._record("lib:" + op.name, problems)

    def _record(self, name: str, problems: list[str]) -> bool:
        if problems:
            self.failed += 1
            self.problems.setdefault(name, []).extend(problems[:3])
        return not problems


def read_artifact(inv) -> bytes | None:
    if inv.artifact is None:
        return None
    try:
        return Path(inv.artifact).read_bytes()
    except OSError:
        return None


def clear_artifact(inv) -> None:
    if inv.artifact is not None:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(inv.artifact)


# ---------------------------------------------------------------------------
# Set-up


def import_mfkit():
    sys.path.insert(0, str(SRC))
    from mfkit import algebra, bott, cli, graded, mf, orlov
    return SimpleNamespace(algebra=algebra, bott=bott, cli=cli, graded=graded, mf=mf, orlov=orlov)


def set_up(name: str, seed: int, work: Path, api, env: dict, judge: Judge):
    """Generate the inputs and warm the bytecode cache, SETUP_REPS times
    from scratch; return the workload and the median set-up time."""
    times = []
    warm = workloads.Invocation("setup.warm", ["-m", "mfkit", "rho", "point", "--n", "2"],
                                check=lambda out, err, art: [] if out == "4\n" else [f"stdout {out!r}"])

    def once():
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        return workloads.BUILDERS[name](seed, work, api), run_child(warm.argv, env, work)

    for _ in range(SETUP_REPS):
        (workload, result), sample = speed.timed(once)
        times.append(sample)
        judge.judge(warm, result.exit, result.stdout, result.stderr, None)
    return workload, statistics.median(x.scaled for x in times), times


# ---------------------------------------------------------------------------
# Measurement (--trace 0)


def passes(per_30s: int, seconds: int, least: int) -> int:
    """A workload's pass count for a run of the given length."""
    return max(least, round(per_30s * seconds / 30))


def tail(samples: list[float]) -> tuple[float, float, int]:
    """The highest percentile with at least ten samples above it:
    (value, percentile, sample count).  With ten samples or fewer there
    is none, and the maximum is reported as percentile 100."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10
    if rank < 1:
        return ordered[-1], 100.0, n
    return ordered[rank - 1], 100.0 * rank / n, n


def measure(workload, seconds: int, work: Path, env: dict, judge: Judge, began: float) -> tuple[dict, dict]:
    cli_passes = passes(workload.cli_passes, seconds, 2)
    lib_passes = passes(workload.lib_passes, seconds, 2)
    cli_t = {inv.name: [] for inv in workload.invocations}
    lib_t = {op.name: [] for op in workload.lib_ops}
    peak_kb = 0
    done_cli = done_lib = 0
    for r in range(cli_passes):
        if r and time.perf_counter() - began > HARD_LIMIT_S:
            break
        for inv in workload.invocations:
            clear_artifact(inv)
            result, sample = speed.timed(
                lambda: run_child(["-m", "mfkit", *inv.argv], {**env, **inv.env}, work))
            cli_t[inv.name].append(sample)
            peak_kb = max(peak_kb, result.maxrss_kb)
            judge.judge(inv, result.exit, result.stdout, result.stderr, read_artifact(inv))
        done_cli += 1
        # Spread the in-process passes over the rounds, at least one in the first.
        for _ in range(math.ceil(lib_passes * (r + 1) / cli_passes) - math.ceil(lib_passes * r / cli_passes)):
            for op in workload.lib_ops:
                value, sample = speed.timed(op.run)
                lib_t[op.name].append(sample)
                judge.judge_lib(op, value)
            done_lib += 1
    cli_s = {k: [x.scaled for x in xs] for k, xs in cli_t.items()}
    lib_s = {k: [x.scaled for x in xs] for k, xs in lib_t.items()}
    samples = [t for ts in cli_s.values() for t in ts]
    tail_value, tail_pct, tail_n = tail(samples)
    metrics = {
        "wall_s": (sum(statistics.median(ts) for ts in cli_s.values()), "s"),
        "cmd_p50_s": (statistics.median(samples), "s"),
        "cmd_tail_s": (tail_value, "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "lib_wall_s": (sum(statistics.median(ts) for ts in lib_s.values()), "s"),
    }
    detail = {
        "cli_passes": done_cli, "lib_passes": done_lib,
        "cmd_tail": {"percentile": tail_pct, "samples": tail_n},
        "cli_samples": {k: [x.record() for x in xs] for k, xs in cli_t.items()},
        "lib_samples": {k: [x.record() for x in xs] for k, xs in lib_t.items()},
    }
    return metrics, detail


# ---------------------------------------------------------------------------
# Traced run (--trace 1)


def run_in_process(api, inv, judge: Judge) -> tuple[int, int]:
    """cli.main(argv) with captured streams; returns (bytes in, bytes out)."""
    clear_artifact(inv)
    out, err = io.StringIO(), io.StringIO()
    saved = {k: os.environ.get(k) for k in inv.env}
    os.environ.update(inv.env)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.cli.main(list(inv.argv))
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    stdout = out.getvalue().encode()
    artifact = read_artifact(inv)
    judge.judge(inv, code, stdout, err.getvalue().encode(), artifact)
    return (sum(os.path.getsize(p) for p in inv.inputs),
            len(stdout) + (len(artifact) if artifact is not None else 0))


def lib_pass(workload, judge: Judge) -> float:
    """Scaled time of one pass over the workload's in-process operations."""
    def run():
        for op in workload.lib_ops:
            judge.judge_lib(op, op.run())
    return speed.timed(run)[1].scaled


def startup_probes(env: dict, work: Path, judge: Judge) -> dict:
    interp, imports, parsers = [], [], []
    probe = workloads.Invocation("probe.import", [], check=lambda out, err, art: [])
    bare = workloads.Invocation("probe.interpreter", [], check=lambda out, err, art: [])
    for _ in range(PROBES):
        result, sample = speed.timed(lambda: run_child(["-c", "pass"], env, work))
        judge.judge(bare, result.exit, b"", result.stderr, None)
        interp.append(sample.scaled)
        result, sample = speed.timed(lambda: run_child(["-c", PROBE_CODE], env, work))
        if judge.judge(probe, result.exit, b"", result.stderr, None):
            factor = sample.scaled / sample.wall
            t_import, t_parser = map(float, result.stdout.split())
            imports.append(t_import * factor)
            parsers.append(t_parser * factor)
    med = lambda xs: statistics.median(xs) if xs else 0.0
    return {"cli.interp_s": med(interp), "cli.import_s": med(imports), "cli.build_parser_s": med(parsers)}


def traced_pass(api, workload, rec, judge: Judge) -> tuple[int, int, list[int], float]:
    """Every invocation in-process with spans; returns the bytes read and
    written, the indices of the ``cli.main`` spans of sweeps and the
    tracing overhead of one rho call in them."""
    bytes_in = bytes_out = 0
    sweep_spans = []
    with tracing.instrumented(rec, api):
        for inv in workload.invocations:
            if inv.argv[0] == "sweep":
                sweep_spans.append(len(rec.spans))
            b_in, b_out = run_in_process(api, inv, judge)
            bytes_in += b_in
            bytes_out += b_out
    rho_overhead = tracing.rho_call_overhead(api) if sweep_spans else 0.0
    return bytes_in, bytes_out, sweep_spans, rho_overhead


def traced(workload, seed: int, seconds: int, api, work: Path, env: dict, judge: Judge,
           began: float, units: dict[str, str]) -> tuple[dict, dict]:
    rounds = passes(workload.trace_rounds, seconds, 1)
    metrics = startup_probes(env, work, judge)
    per_round, recorders, plain, with_spans = [], [], [], []
    for r in range(rounds):
        if r and time.perf_counter() - began > HARD_LIMIT_S:
            break
        rec = tracing.Recorder(f"{workload.name}-{seed}-{r}")
        (bytes_in, bytes_out, sweep_spans, rho_overhead), sample = speed.timed(
            lambda: traced_pass(api, workload, rec, judge))
        # Span times are scaled by the speed probes around the whole pass.
        factor = sample.scaled / sample.wall
        layer = {name: value * factor if units[name] in ("s", "us") else value
                 for name, value in tracing.layer_metrics(rec, sweep_spans, rho_overhead).items()}
        layer.update({"cli.bytes_in": bytes_in, "cli.bytes_out": bytes_out})
        per_round.append(layer)
        recorders.append(rec)
        # Alternate which in-process pass runs first, so that warm-up and
        # drift do not all land on one side of the overhead ratio.
        for spanned in ((False, True) if r % 2 == 0 else (True, False)):
            if spanned:
                with tracing.instrumented(tracing.Recorder(f"{workload.name}-{seed}-{r}-lib"), api):
                    with_spans.append(lib_pass(workload, judge))
            else:
                plain.append(lib_pass(workload, judge))
    spans_path = work / f"spans-seed{seed}.jsonl"
    with open(spans_path, "w", encoding="utf-8") as handle:
        for rec in recorders:
            rec.write(handle)
    for name, first in per_round[0].items():
        # Counts repeat exactly from round to round; times take the median.
        timed_metric = units[name] in ("s", "us")
        metrics[name] = statistics.median(layer[name] for layer in per_round) if timed_metric else first
    metrics["trace.overhead_ratio"] = statistics.median(with_spans) / statistics.median(plain)
    detail = {"rounds": len(per_round), "spans": str(spans_path.relative_to(ROOT)),
              "per_round": per_round}
    return metrics, detail


# ---------------------------------------------------------------------------


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, as BENCHMARK.json declares it."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec["per_layer"]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "mfkit" / "cli.py").is_file():
        sys.stderr.write(f"no mfkit sources under {SRC}; run from the root of an mfkit checkout\n")
        return 2
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    began = time.perf_counter()
    # One CPU for the client and its children: the probe that measures
    # the machine's current speed must run where the timed work runs.
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    work = WORK / args.workload
    env, env_record = child_env(work)
    # In-process runs see the same mfkit settings as the children: none.
    env_record["dropped_in_process"] = sorted(k for k in os.environ if k.startswith("MFKIT_"))
    for name in env_record["dropped_in_process"]:
        del os.environ[name]
    api = import_mfkit()
    judge = Judge()
    workload, setup_s, setup_times = set_up(args.workload, args.seed, work, api, env, judge)

    if args.trace:
        units = per_layer_units()
        found, detail = traced(workload, args.seed, args.seconds, api, work, env, judge, began, units)
        if set(found) != set(units):
            sys.stderr.write(f"traced metrics differ from BENCHMARK.json: {sorted(set(found) ^ set(units))}\n")
            return 1
        metrics = {name: (value, units[name]) for name, value in found.items()}
    else:
        metrics, detail = measure(workload, args.seconds, work, env, judge, began)
        metrics["setup_s"] = (setup_s, "s")
        metrics["ok_ratio"] = (1 - judge.cli_failed / judge.cli_attempted, "ratio")

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": sys.version, "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(), "commit": commit_of(ROOT), "src_sha256": src_digest(),
        "env": env_record, "cpu": cpu,
        "speed": {"reference_s": speed.REFERENCE_S, "sensitivity": speed.SENSITIVITY},
        "setup_samples": [x.record() for x in setup_times],
        "attempted": judge.attempted, "failed": judge.failed, "problems": judge.problems,
        "digests": judge.digests, "metrics": {k: v for k, (v, _) in metrics.items()},
        "detail": detail,
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    record_path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"python {platform.python_version()}  nproc {os.cpu_count()}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<30} {value:>14.6g} {unit}")
    if not args.trace:
        info = detail["cmd_tail"]
        print(f"  cmd_tail_s is p{info['percentile']:.0f} of {info['samples']} invocations; "
              f"fail_ratio {judge.cli_failed / judge.cli_attempted:.4g} "
              f"({judge.cli_failed} of {judge.cli_attempted} invocations)")
    for name, problems in judge.problems.items():
        print(f"  FAILED {name}: {problems[0]}")
    print(f"  record: {record_path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": judge.failed == 0,
        "attempted": judge.attempted,
        "failed": judge.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
