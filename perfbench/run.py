"""End-to-end benchmark of the MOARD reproduction: aDVF and campaigns.

Run from the repository root::

    python3 perfbench/run.py --workload advf-all --seed 0 --seconds 40 --trace 0

It runs the workload in fresh child processes, one at a time
(``child.py``), each with its own store and artifact directories under
``.perfbench_tmp/``, and reports medians over the children.  Before the
first child, every module the children import is compiled into the run's
own bytecode cache, which is the only one the children read.  It starts no
child that would end after ``--seconds``, counted from the run's start.  Every
child's outputs are checked against the oracle references in ``refs/``.
``--trace 1`` alternates untraced and traced children and reports the
per-layer ledger of the traced ones instead of the end-to-end metrics.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See README.md for
the metrics, the workloads and the layer map.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import common  # noqa: E402
from ledger import UNMEASURED  # noqa: E402

#: Seconds after its start by which a run has killed any child still
#: running (the run then fails), so a hung child cannot hold the run.
RUN_LIMIT_S = 170.0

OVERHEAD = "ledger.trace_overhead_frac"


def spawn_child(
    root: Path, workdir: Path, workload: str, seed: int, traced: bool,
    artifacts: Optional[Path] = None, timeout: float = RUN_LIMIT_S,
) -> dict:
    """Run one child to completion and return its result record.

    ``artifacts`` is copied in as the child's trace/memo cache (a warm
    start); otherwise the child starts with empty cache directories.
    """
    child_dir = Path(tempfile.mkdtemp(prefix="child-", dir=workdir))
    cache = child_dir / "artifacts"
    if artifacts is not None:
        shutil.copytree(artifacts, cache)
    else:
        cache.mkdir()
    out = child_dir / "result.json"
    env = common.child_env(os.environ, root / "src", child_dir, workdir / "pycache")
    argv = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--trace", str(int(traced)), "--out", str(out), "--spawned-at",
    ]
    with open(child_dir / "stdout.txt", "wb") as stdout, \
            open(child_dir / "stderr.txt", "wb") as stderr:
        spawned_at = time.monotonic()
        proc = subprocess.Popen(
            argv + [repr(spawned_at)], cwd=child_dir, env=env,
            stdin=subprocess.DEVNULL, stdout=stdout, stderr=stderr,
        )
        try:
            code = proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if code != 0 or not out.is_file():
        why = f"killed after {timeout:.0f} s" if code is None else f"exit code {code}"
        tail = (child_dir / "stderr.txt").read_text(errors="replace")[-2000:]
        return {"error": f"child failed ({why}): {tail}", "cache": cache}
    result = json.loads(out.read_text())
    result["cache"] = cache
    return result


def prime_bytecode(root: Path, workdir: Path) -> Optional[str]:
    """Fill the run's bytecode cache (``workdir/pycache``) with every
    module a child imports; an error message if that fails."""
    env = common.child_env(
        os.environ, root / "src", workdir, workdir / "pycache", write_bytecode=True
    )
    code = (f"import sys; sys.path.insert(0, {str(HERE)!r}); "
            "import child; child.import_everything()")
    try:
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=workdir, env=env,
            stdin=subprocess.DEVNULL, capture_output=True, timeout=RUN_LIMIT_S / 2,
        )
    except subprocess.TimeoutExpired:
        return "bytecode priming timed out"
    if proc.returncode != 0:
        return "bytecode priming failed: " + proc.stderr.decode(errors="replace")[-2000:]
    return None


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _describe(name: str, values: List[float], unit: str) -> str:
    if not values:
        return f"{name}: no samples"
    return (
        f"{name}: median {_median(values):.6g} {unit} over {len(values)} "
        f"children (min {min(values):.6g}, max {max(values):.6g})"
    )


def median_calls(traced: List[dict]) -> Dict[str, int]:
    calls: Dict[str, List[int]] = {}
    for child in traced:
        for layer, n in child["calls"].items():
            calls.setdefault(layer, []).append(n)
    return {layer: int(_median(ns)) for layer, ns in sorted(calls.items())}


def print_ledger(traced: List[dict], wall_s: float) -> None:
    """Human-readable per-layer table of the traced children (medians)."""
    layers = [name for name, unit in common.PER_LAYER if unit == "s"]
    print(f"per-layer self time, median of {len(traced)} traced children "
          f"(traced wall {wall_s:.4f} s):")
    for name in layers:
        seconds = _median([child["layers"][name] for child in traced])
        share = seconds / wall_s if wall_s else 0.0
        print(f"  {name:<24} {seconds:10.4f} s {share:7.1%}")
    print("  calls: " + ", ".join(
        f"{layer}={n}" for layer, n in median_calls(traced).items() if n
    ))
    for layer, why in UNMEASURED.items():
        print(f"  unmeasured layer {layer!r}: {why}")


def measure(args, root: Path, workdir: Path) -> List[dict]:
    """Run children one at a time until the next one would end after
    ``--seconds`` (which also covers the warm workload's prefill)."""
    seed = common.input_seed(args.seed)
    error = prime_bytecode(root, workdir)
    if error:
        return [{"error": error}]
    start = time.monotonic()
    deadline = start + args.seconds

    def remaining() -> float:
        return max(1.0, start + RUN_LIMIT_S - time.monotonic())

    warm: Optional[Path] = None
    if args.workload == "campaign-warm":
        # untimed prior run whose artifacts every timed child starts from
        prefill = spawn_child(
            root, workdir, "campaign-cold", seed, False, timeout=remaining()
        )
        if "error" in prefill:
            return [prefill]
        warm = prefill["cache"]

    children: List[dict] = []
    durations: List[float] = []
    minimum = 2 if args.trace else 1
    while len(children) < minimum or (
        time.monotonic() + _median(durations) < deadline
    ):
        traced = bool(args.trace) and len(children) % 2 == 1
        began = time.monotonic()
        child = spawn_child(
            root, workdir, args.workload, seed, traced, warm, timeout=remaining()
        )
        durations.append(time.monotonic() - began)
        children.append(child)
        if "error" in child:
            break
    return children


def record_split(path: Path, args, metrics, traced, plain_wall, traced_wall) -> None:
    """Merge this traced run's split into the JSON file at ``path``."""
    splits = json.loads(path.read_text()) if path.is_file() else {}
    splits[args.workload] = {
        "seed": args.seed,
        "input_seed": common.input_seed(args.seed),
        "traced_children": len(traced),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "metrics": {name: entry["value"] for name, entry in metrics.items()},
        "calls": median_calls(traced),
    }
    path.write_text(json.dumps(splits, indent=1, sort_keys=True) + "\n")


def report(args, children: List[dict]) -> dict:
    errors = [child["error"] for child in children if "error" in child]
    done = [child for child in children if "error" not in child]
    attempted = sum(child["attempted"] for child in done) + len(errors)
    failed = sum(child["failed"] for child in done) + len(errors)
    for error in errors:
        print(f"ERROR: {error}")
    for child in done:
        for problem in child["problems"]:
            print(f"MISMATCH ({child['workload']}, seed {child['seed']}): {problem}")
    untraced = [child for child in done if not child["traced"]]
    traced = [child for child in done if child["traced"]]

    metrics: Dict[str, Dict[str, object]] = {}
    if not args.trace:
        for name, unit in common.END_TO_END:
            values = [child[name] for child in untraced]
            print(_describe(name, values, unit))
            metrics[name] = {"value": _median(values), "unit": unit}
    else:
        plain_wall = _median([child["wall_s"] for child in untraced])
        traced_wall = _median([child["wall_s"] for child in traced])
        # children alternate untraced, traced: pair each traced child with
        # the untraced one just before it, so machine drift cancels
        ratios = [
            b["wall_s"] / a["wall_s"]
            for a, b in zip(done[0::2], done[1::2])
            if not a["traced"] and b["traced"]
        ]
        overhead = _median(ratios) - 1.0 if ratios else 0.0
        for name, unit in common.PER_LAYER:
            if name == OVERHEAD:
                value = overhead
            else:
                value = _median([child["layers"][name] for child in traced])
            metrics[name] = {"value": value, "unit": unit}
        if traced:
            print_ledger(traced, traced_wall)
        print(f"tracing overhead: {overhead:+.1%}, median of {len(ratios)} "
              f"traced/untraced pairs (medians: traced wall {traced_wall:.4f} s, "
              f"untraced {plain_wall:.4f} s)")
        for name, entry in metrics.items():
            print(f"{name}: {entry['value']:.6g} {entry['unit']}")
        if args.record:
            record_split(Path(args.record), args, metrics, traced, plain_wall, traced_wall)
    failed_frac = failed / attempted if attempted else 1.0
    print(f"failed_frac: {failed_frac:.6g} ({failed} of {attempted} operations)")
    return {
        "correct": bool(done) and not errors and failed == 0,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=common.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", default=None, metavar="FILE",
                        help="with --trace 1: merge the split into this JSON file")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {root / 'src'}; run from the "
              "repository root", file=sys.stderr)
        return 2
    seed = common.input_seed(args.seed)
    for kind in ("advf", "campaign"):
        if not common.reference_path(kind, seed).is_file():
            print(f"error: missing reference {common.reference_path(kind, seed)}",
                  file=sys.stderr)
            return 2

    scratch = root / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        print(f"workload {args.workload}, seed {args.seed} (inputs of seed {seed}), "
              f"{args.seconds:g} s, trace {args.trace}")
        result = report(args, measure(args, root, workdir))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
