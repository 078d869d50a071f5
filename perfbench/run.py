#!/usr/bin/env python3
"""Closed-loop benchmark of the tdsim CLI.

    python3 perfbench/run.py --workload fig4 --seed 1 --seconds 15 --trace 0

One process and one client: each ``tdsim.cli.main([...])`` call is issued
when the previous one returns, writing into a scratch directory under
``.perfbench/``.  Every output is checked (see ``checks.py``); a call whose
output fails a check counts as failed.  ``--trace 0`` reports the
end-to-end metrics.  ``--trace 1`` runs the same loop and then one traced
pass over the workload's calls, and reports the per-layer metrics from
its spans, which it also writes to ``.perfbench/trace-<workload>-<seed>.json``.
The last line of standard output is the JSON result.
"""

from __future__ import annotations

import os
import sys

# BLAS reads its thread count when numpy is first imported
NPROC = len(os.sched_getaffinity(0))
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    _value = os.environ.get(_var, "")
    os.environ[_var] = str(min(int(_value), NPROC) if _value.isdigit() and int(_value) > 0
                           else NPROC)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))

import numpy as np  # noqa: E402

from perfbench import checks  # noqa: E402
from perfbench.tracing import MODULES, Tracer  # noqa: E402
from perfbench.workloads import CALLS, setup  # noqa: E402

OUT_DIR = ROOT / ".perfbench"
# setup_s probes: this many fresh interpreters before the warm-up call, after
# it and after the timed loop, so the median spans the run's lifetime.
SETUP_PROBES_PER_GROUP = 3
# A probe started right after a BLAS call measured about 15% slower, most
# likely because the parent's BLAS worker threads spin for a while after it.
PROBE_PAUSE_S = 0.5
# reference checks: (how many seed-chosen calls, or None for every call;
# latest time of the O(N^2) series reference; whether one run's last row is
# also checked against the O(N^3) oracle_expm, too slow at N = 3000)
REFERENCE = {
    "fig4": (None, 0.5, True),
    "sweep": (12, 1.0, True),
    "spectrum": (None, None, False),
    "big_sphere": (None, 0.05, False),
}


# a fresh interpreter that sets up exactly as a run does and reports when it
# is ready on the system-wide monotonic clock, so its exit is not timed
_SETUP_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "from perfbench.workloads import setup; "
                "setup(sys.argv[1], sys.argv[2], int(sys.argv[3]), '.'); "
                "print(time.clock_gettime(time.CLOCK_MONOTONIC))")


def setup_probes(workload: str, seed: int) -> list[float]:
    """Times from spawning a fresh interpreter to its being ready, after a pause."""
    time.sleep(PROBE_PAUSE_S)
    samples = []
    for _ in range(SETUP_PROBES_PER_GROUP):
        t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
        # no timeout: with one, the wait polls in steps of up to 50 ms
        ready = subprocess.run([sys.executable, "-c", _SETUP_PROBE, str(ROOT), workload,
                                str(seed)], check=True, stdout=subprocess.PIPE, text=True)
        samples.append(float(ready.stdout) - t0)
    return samples


def environment() -> dict:
    info = {"python": sys.version.split()[0], "numpy": np.__version__, "nproc": NPROC,
            "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"]}
    info["git_sha"] = "unknown"  # a checkout without .git has no sha to report
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError):
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True)
            if sha.returncode == 0:
                info["git_sha"] = sha.stdout.strip()
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    info["blas_threads"] = _blas_threads()
    try:
        info["l3"] = Path("/sys/devices/system/cpu/cpu0/cache/index3/size").read_text().strip()
    except OSError:
        info["l3"] = "unknown"
    return info


def _blas_threads():
    """Thread count OpenBLAS reports, or None where it cannot be asked."""
    import ctypes
    import glob

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                                  "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                     "openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


class Client:
    """Issues CLI calls one at a time and checks what each one wrote."""

    def __init__(self, calls):
        self.calls = calls
        self.attempted = 0
        self.failed = 0
        self.runs = 0
        self.durations: dict[int, list[float]] = {}
        self.ok: dict[int, int] = {}  # call index -> checked occurrences
        self.kept: dict[int, list] = {}  # call index -> parsed outputs kept for reference

    def issue(self, idx: int, keep: bool, timed: bool = True) -> float:
        import tdsim.cli  # importable once setup() has put src/ on the path

        argv = self.calls[idx]
        buf = io.StringIO()
        self.attempted += 1
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                code = tdsim.cli.main(argv)
        except Exception:  # a crash is one failed operation; keep the loop going
            traceback.print_exc()
            code = None
        elapsed = perf_counter() - t0
        if timed:
            self.durations.setdefault(idx, []).append(elapsed)
        try:
            if code != 0:
                raise checks.CheckFailed(f"exit code {code}")
            parsed = [self._check(Path(p)) for p in buf.getvalue().split()]
            if not parsed:
                raise checks.CheckFailed("no output written")
            if idx in self.kept:
                _require_same(self.kept[idx], parsed)
            elif keep:
                self.kept[idx] = parsed
        except (checks.CheckFailed, OSError, ValueError, KeyError) as err:
            print(f"perfbench: call {idx} {' '.join(argv)} failed: {err}", file=sys.stderr)
            self.failed += 1
        else:
            self.ok[idx] = self.ok.get(idx, 0) + 1
            if timed:
                self.runs += len(parsed)
        return elapsed

    def _check(self, path: Path):
        text = path.read_text(encoding="utf-8")
        path.unlink()
        if self.calls[0][0] == "spectrum":
            return checks.check_spectrum_csv(text)
        return checks.check_run_csv(text)

    def reference_failed(self, idx: int, err: Exception):
        print(f"perfbench: call {idx} {' '.join(self.calls[idx])} failed its reference "
              f"check: {err}", file=sys.stderr)
        self.failed += self.ok.pop(idx, 0)


def _require_same(first, again):
    """Outputs of the same computation (a repeated call, a shared spectrum) must agree."""
    if len(first) != len(again):
        raise checks.CheckFailed("repeated call wrote a different number of files")
    for a, b in zip(first, again):
        x, y = a[-1], b[-1]  # the data array or the eigenvalues
        if np.shape(x) != np.shape(y) or not np.allclose(x, y, rtol=0, atol=1e-12):
            raise checks.CheckFailed("outputs of the same computation differ")


def closed_loop(client: Client, seconds: float, keep: set[int]) -> None:
    """Make whole passes over the calls until less than half a pass of ``seconds`` is left.

    Whole passes give every call the same number of samples, so the mix
    behind the percentiles does not depend on where the time ran out.  A
    call that takes most of ``seconds`` (fig4, spectrum) therefore gets one
    sample per run.
    """
    start = perf_counter()
    while True:
        pass_start = perf_counter()
        for idx in range(len(client.calls)):
            client.issue(idx, idx in keep)
        now = perf_counter()
        if now - start + 0.5 * (now - pass_start) >= seconds:
            break


def reference_checks(client: Client, workload: str, rng: random.Random) -> None:
    _, horizon, final = REFERENCE[workload]
    for idx, parsed in sorted(client.kept.items()):
        try:
            if workload == "spectrum":
                first = {}  # init and sections do not enter a spectrum
                for header, lam in parsed:
                    key = tuple(sorted(header.items()))
                    if key in first:
                        _require_same([first[key]], [(header, lam)])
                    else:
                        checks.check_spectrum_reference(header, lam)
                        first[key] = (header, lam)
            else:
                checks.check_run_reference(parsed, rng, horizon)
                if final:
                    checks.check_final_reference(parsed, rng)
        except (checks.CheckFailed, ValueError, KeyError) as err:
            client.reference_failed(idx, err)


def traced_pass(client: Client, workload: str, seed: int) -> dict:
    """One more pass over every call with spans on; returns per-layer metrics."""
    tracer = Tracer()
    tracer.install()
    untraced, traced = 0.0, 0.0
    try:
        for idx in range(len(client.calls)):
            before = list(client.durations.get(idx, ()))
            elapsed = client.issue(idx, False)
            if before:  # overhead is judged on calls the untraced loop also made
                untraced += statistics.median(before)
                traced += elapsed
    finally:
        tracer.uninstall()
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    tracer.write(path)
    print(f"spans: {len(tracer.spans)} written to {path.relative_to(ROOT)}")
    if tracer.missing:
        print(f"missing span points: {', '.join(tracer.missing)}")
    metrics = tracer.metrics()
    metrics["trace.overhead_frac"] = (traced / untraced - 1.0, "ratio")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(CALLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="tmp-") as out_dir:
        calls = setup(ROOT, args.workload, args.seed, out_dir)
        rng = random.Random(args.seed)
        count, _, _ = REFERENCE[args.workload]
        keep = set(range(len(calls))) if count is None else set(
            rng.sample(range(len(calls)), min(count, len(calls))))

        client = Client(calls)
        setup_samples = setup_probes(args.workload, args.seed)
        # The first call in a process runs cold (allocator and BLAS buffers
        # are not yet in place) and costs about a tenth more, so it is a
        # warm-up and stays out of the timings; its output is still checked.
        client.issue(0, 0 in keep, timed=False)
        setup_samples += setup_probes(args.workload, args.seed)
        closed_loop(client, args.seconds, keep)
        setup_samples += setup_probes(args.workload, args.seed)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        reference_checks(client, args.workload, rng)
        samples = [d for ds in client.durations.values() for d in ds]
        end_to_end = {
            "setup_s": (statistics.median(setup_samples), "s"),
            "call_s_p50": (float(np.percentile(samples, 50)), "s"),
            "call_s_p90": (float(np.percentile(samples, 90)), "s"),
            "runs_per_s": (client.runs / sum(samples), "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        metrics = traced_pass(client, args.workload, args.seed) if args.trace else end_to_end

    env = environment()
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(samples)} timed calls after a "
          f"warm-up call; {client.attempted} calls attempted, {client.failed} failed; "
          f"setup samples {[round(s, 4) for s in setup_samples]}")
    if args.trace:
        print(f"kernels.generator_mb against L3 {env['l3']}")
        busy = {m: metrics[f"{m}.self_s"][0] for m in MODULES}
        print("layer shares of traced self time: " + ", ".join(
            f"{m} {v / sum(busy.values()):.1%}" for m, v in busy.items()))
    else:
        print(f"call_s_p50 and call_s_p90 over {len(samples)} samples")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<48} {value:.6g} {unit}")
    result = {
        "correct": client.failed == 0,
        "attempted": client.attempted,
        "failed": client.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
