"""Timed phase of one benchmark run, in a fresh process.

    python3 perfbench/worker.py --manifest M --out DIR --seconds S --trace 0|1

run.py starts it after prepare.py has written the inputs. It imports
pioucrypt, encrypts and decrypts the small warm-up input, prints `ready` and
reads one line from stdin: `go` runs the timed phase and prints one JSON line;
anything else ends it. A fresh process that only reads inputs already on disk
has a peak RSS that belongs to the pipeline calls, not to set-up.

The load is a closed loop: one call at a time. A round encrypts and then
decrypts every input once; rounds repeat until the next one would end after
`--seconds`, and there are always at least two, so that every bundle is made
twice. Every call's output is checked outside the timed region.

With `--trace 1`, even rounds run under the span recorder and odd rounds run
plain, so one run gives the per-layer figures, the tracing overhead and a
comparison of traced with plain bundle bytes.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from statistics import median
from time import perf_counter, perf_counter_ns

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from pioucrypt import pipeline  # noqa: E402
from pioucrypt.pipeline import PipelineConfig  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402

MIN_ROUNDS = 2
END_TO_END_UNITS = {
    "encrypt_s": "s",
    "decrypt_s": "s",
    "encrypt_MBps": "MB/s",
    "decrypt_MBps": "MB/s",
    "bundle_ratio": "ratio",
    "key_bytes": "B",
    "peak_rss_MB": "MB",
}
RESULTS = ROOT / "perfbench" / "results"


def io_counters() -> tuple[int, int]:
    """Bytes this process has passed to read() and write() so far."""
    fields = dict(line.split(": ") for line in Path("/proc/self/io").read_text().splitlines())
    return int(fields["rchar"]), int(fields["wchar"])


class Run:
    def __init__(self, inputs, out_dir: Path, tracer: tracing.Tracer | None):
        self.inputs = inputs
        self.out_dir = out_dir
        self.tracer = tracer
        self.ops: list[dict] = []
        self.digests: dict[str, str] = {}
        self.wrong: list[str] = []  # outputs that failed a check
        self.errors: list[str] = []  # calls that raised

    def new_op(self, kind: str, inp: dict, rnd: int, traced: bool) -> dict:
        op = {"id": len(self.ops), "kind": kind, "input": inp["name"], "round": rnd,
              "traced": traced, "ok": False}
        self.ops.append(op)
        return op

    def call(self, op: dict, fn):
        """Time one pipeline call; a call that raises is a failed operation."""
        if op["traced"]:
            io_before = io_counters()
            self.tracer.op = op["id"]
        start = perf_counter_ns()
        try:
            result = fn()
        except Exception as exc:
            result = None
            self.errors.append(f"{op['kind']} {op['input']}: {type(exc).__name__}: {exc}")
        op["seconds"] = (perf_counter_ns() - start) / 1e9
        if op["traced"]:
            self.tracer.op = None
            io_after = io_counters()
            op["read"] = io_after[0] - io_before[0]
            op["written"] = io_after[1] - io_before[1]
        return result

    def verdict(self, op: dict, reasons) -> None:
        reasons = [r for r in reasons if r]
        self.wrong.extend(f"{op['kind']} {op['input']} round {op['round']}: {r}" for r in reasons)
        op["ok"] = not reasons

    def round(self, rnd: int, traced: bool) -> None:
        for inp in self.inputs:
            image_bytes = inp["width"] * inp["height"] * 3
            config = PipelineConfig(seed=inp["cipher_seed"], out_dir=self.out_dir)
            enc = self.new_op("encrypt", inp, rnd, traced)
            bundle = self.call(enc, lambda: pipeline.encrypt_pipeline(inp["path"], config))
            dec = self.new_op("decrypt", inp, rnd, traced)
            if bundle is None:
                self.errors.append(f"decrypt {inp['name']}: not run, its encrypt failed")
                continue
            paths = bundle.paths
            del bundle
            enc["image_bytes"] = image_bytes
            enc["bundle_bytes"] = sum(p.stat().st_size for p in paths)
            enc["key_bytes"] = paths[2].stat().st_size
            self.verdict(enc, self.check_bundle(enc, inp, paths))

            out_path = self.out_dir / f"{inp['name']}.dec.ppm"
            if self.call(dec, lambda: pipeline.decrypt_pipeline(*paths, out_path=out_path)) is not None:
                dec["image_bytes"] = image_bytes
                self.verdict(dec, [checks.check_decrypted(out_path, inp["path"])])

    def check_bundle(self, op: dict, inp: dict, paths) -> list[str | None]:
        digest = checks.bundle_sha256(paths)
        first = self.digests.setdefault(inp["name"], digest)
        header, entries = checks.read_key_matrix(paths[2])
        reasons = [
            None if digest == first else "bundle differs from this run's first bundle "
            "of the same image and seed",
            checks.check_histograms(paths[0], inp["channel_counts"]),
            checks.check_key_header(header, inp["m"]),
            checks.check_key_entries(header, entries),
        ]
        if op["traced"]:
            reasons.append(checks.check_error_history(self.tracer.nmf_history(op["id"]) or []))
        return reasons


def round_median(ops, kind) -> float:
    """Median over rounds of the mean call time within a round."""
    per_round = {}
    for op in ops:
        if op["kind"] == kind and op["ok"]:
            per_round.setdefault(op["round"], []).append(op["seconds"])
    return median(sum(v) / len(v) for v in per_round.values())


def end_to_end(ops) -> dict[str, float]:
    enc = [op for op in ops if op["kind"] == "encrypt" and op["ok"]]
    dec = [op for op in ops if op["kind"] == "decrypt" and op["ok"]]
    image_enc = sum(op["image_bytes"] for op in enc)
    return {
        "encrypt_s": round_median(ops, "encrypt"),
        "decrypt_s": round_median(ops, "decrypt"),
        "encrypt_MBps": image_enc / sum(op["seconds"] for op in enc) / 1e6,
        "decrypt_MBps": sum(op["image_bytes"] for op in dec) / sum(op["seconds"] for op in dec) / 1e6,
        "bundle_ratio": sum(op["bundle_bytes"] for op in enc) / image_enc,
        "key_bytes": sum(op["key_bytes"] for op in enc) / len(enc),
    }


def per_layer(run: Run) -> dict[str, float]:
    traced = [op for op in run.ops if op["traced"] and op["ok"]]
    plain = [op for op in run.ops if not op["traced"]]
    metrics = tracing.per_operation_metrics(run.tracer, {op["id"]: op["kind"] for op in traced})
    pairs = {}
    for op in traced:
        pair = pairs.setdefault((op["round"], op["input"]), [0, 0])
        pair[0] += op["read"]
        pair[1] += op["written"]
    metrics["pipeline.bytes_read"] = float(median(p[0] for p in pairs.values()))
    metrics["pipeline.bytes_written"] = float(median(p[1] for p in pairs.values()))
    for kind in ("encrypt", "decrypt"):
        metrics[f"trace.{kind}_overhead_s"] = round_median(traced, kind) - round_median(plain, kind)
    return metrics


def timed_phase(run: Run, seconds: float, trace: bool) -> None:
    start = perf_counter()
    rnd = 0
    while True:
        traced = trace and rnd % 2 == 0
        if traced:
            run.tracer.install()
        try:
            run.round(rnd, traced)
        finally:
            if traced:
                run.tracer.uninstall()
        rnd += 1
        elapsed = perf_counter() - start
        if rnd >= MIN_ROUNDS and elapsed + elapsed / rnd > seconds:
            return


def write_spans(tracer: tracing.Tracer, manifest) -> None:
    RESULTS.mkdir(parents=True, exist_ok=True)
    path = RESULTS / f"{manifest['workload']}-seed{manifest['seed']}-spans.jsonl"
    with open(path, "w") as fh:
        for index, span in enumerate(tracer.spans):
            record = span._asdict()
            attrs = tracer.attrs.get(index)
            if attrs:
                record.update(attrs)
            fh.write(json.dumps(record) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--manifest", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    manifest = json.loads(args.manifest.read_text())
    args.out.mkdir(parents=True, exist_ok=True)

    warm = manifest["warmup"]
    bundle = pipeline.encrypt_pipeline(warm["path"], PipelineConfig(seed=warm["cipher_seed"], out_dir=args.out))
    pipeline.decrypt_pipeline(*bundle.paths, out_path=args.out / "warmup.dec.ppm")
    del bundle
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0

    run = Run(manifest["inputs"], args.out, tracing.Tracer() if args.trace else None)
    timed_phase(run, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    for line in (run.errors + run.wrong)[:10]:
        print(f"failed: {line}", file=sys.stderr)
    failed = sum(not op["ok"] for op in run.ops)
    if failed == len(run.ops):
        print("every operation failed; no metric to report", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(run)
        units = tracing.PER_LAYER_UNITS
        write_spans(run.tracer, manifest)
    else:
        metrics = end_to_end(run.ops)
        metrics["peak_rss_MB"] = peak_rss_mb
        units = END_TO_END_UNITS
    result = {
        "correct": not run.wrong,
        "attempted": len(run.ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
