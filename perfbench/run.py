"""Benchmark of the pioucrypt pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload photo --seed 1 --seconds 30 --trace 0

Run from the root of a source tree (it imports `src/pioucrypt`). Every
operation is one `encrypt_pipeline` call (image file -> three bundle files) or
one `decrypt_pipeline` call (bundle -> image file), made one at a time by a
fresh worker process (worker.py). The last line of standard output is one JSON
object: `correct`, `attempted`, `failed` and `metrics`, which holds the
end-to-end metrics with `--trace 0` and the per-layer metrics with
`--trace 1`. See perfbench/README.md for the workloads and every metric.

The cipher seeds are chosen once (prepare.select). Set-up is then measured
SETUP_REPEATS times and `setup_s` is the median. One set-up is everything
before the first timed call: prepare.py imports pioucrypt, generates and
writes the inputs, then a worker starts, imports pioucrypt and runs the
warm-up input. The worker of the last set-up runs the timed phase; the others
exit.
"""

from __future__ import annotations

import argparse
import json
import selectors
import shutil
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"
RESULTS = HERE / "results"
WORKLOADS = ("photo", "lattice-tail", "strip")
SETUP_REPEATS = 3
STEP_TIMEOUT_S = 60


def wait_ready(worker: subprocess.Popen, timeout: float) -> None:
    with selectors.DefaultSelector() as sel:
        sel.register(worker.stdout, selectors.EVENT_READ)
        if not sel.select(timeout):
            raise RuntimeError(f"worker not ready after {timeout} s")
    line = worker.stdout.readline().strip()
    if line != "ready":
        raise RuntimeError(f"worker failed during set-up (said {line!r})")


def set_up(seconds: int, trace: int, work: Path):
    """One set-up: write the inputs and start a worker that is ready to time."""
    subprocess.run(
        [sys.executable, str(HERE / "prepare.py"), "--selection", str(work / "selection.json"),
         "--out", str(work / "inputs")],
        check=True, timeout=STEP_TIMEOUT_S, stdout=subprocess.DEVNULL,
    )
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), "--manifest", str(work / "inputs" / "manifest.json"),
         "--out", str(work / "bundles"), "--seconds", str(seconds), "--trace", str(trace)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    try:
        wait_ready(worker, STEP_TIMEOUT_S)
    except BaseException:
        stop(worker)
        raise
    return worker


def stop(worker: subprocess.Popen) -> None:
    if worker.poll() is None:
        worker.kill()
    worker.wait()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    if not (ROOT / "src" / "pioucrypt" / "__init__.py").is_file():
        print(f"error: no pioucrypt source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0 or args.seconds < 1:
        print("error: --seed must be >= 0 and --seconds >= 1", file=sys.stderr)
        return 2

    import prepare  # imports pioucrypt from src, so only once src is known to exist

    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    (work / "selection.json").write_text(json.dumps(prepare.select(args.workload, args.seed)))
    setups = []
    worker = None
    try:
        for repeat in range(SETUP_REPEATS):
            start = perf_counter()
            worker = set_up(args.seconds, args.trace, work)
            setups.append(perf_counter() - start)
            if repeat < SETUP_REPEATS - 1:
                worker.communicate("exit\n", timeout=STEP_TIMEOUT_S)
                worker = None
        out, _ = worker.communicate("go\n", timeout=args.seconds + 120)
    finally:
        if worker is not None:
            stop(worker)
    if worker.returncode != 0:
        print(f"error: worker exited with {worker.returncode}", file=sys.stderr)
        return 1

    result = json.loads(out.strip().splitlines()[-1])
    if not args.trace:
        result["metrics"]["setup_s"] = {"value": median(setups), "unit": "s"}
    RESULTS.mkdir(exist_ok=True)
    (RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=1) + "\n"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
