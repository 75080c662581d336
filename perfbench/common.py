"""Constants and helpers shared by run.py, child.py and make_refs.py."""

from __future__ import annotations

import json
from pathlib import Path
from typing import Dict, List, Mapping, Tuple

HERE = Path(__file__).resolve().parent
REFS = HERE / "refs"

# The metric contract is written once, in BENCHMARK.json at the repository
# root; the benchmark reports exactly these names, with these units.
_CONTRACT = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END: List[Tuple[str, str]] = [
    (metric["name"], metric["unit"]) for metric in _CONTRACT["end_to_end"]
]
PER_LAYER: List[Tuple[str, str]] = [
    (metric["name"], metric["unit"]) for metric in _CONTRACT["per_layer"]
]

#: Seeds that have oracle references.  A benchmark seed ``n`` runs the
#: inputs of ``REF_SEEDS[n % len(REF_SEEDS)]``, so every seed is checked.
REF_SEEDS = (1, 2, 3)

CAMPAIGN_WORKLOAD = "cg"
CAMPAIGN_TESTS = 512

WORKLOADS = ("advf-all", "campaign-cold", "campaign-warm")


def input_seed(seed: int) -> int:
    """The reference seed whose inputs benchmark seed ``seed`` runs."""
    return REF_SEEDS[seed % len(REF_SEEDS)]


def campaign_plan(seed: int) -> str:
    return f"fixed:{CAMPAIGN_TESTS}@{seed}"


def campaign_argv(seed: int) -> List[str]:
    """``python -m repro`` arguments of the campaign workloads."""
    return [
        "campaign", "run", CAMPAIGN_WORKLOAD,
        "--plan", campaign_plan(seed),
        "--set", f"seed={seed}",
    ]


def spec_row(spec) -> list:
    """The identity of a fault spec as a JSON list (``note`` excluded)."""
    return [spec.dynamic_id, spec.bit, spec.target.value, spec.operand_index]


def reference_path(kind: str, seed: int) -> Path:
    return REFS / f"{kind}-{seed}.json"


def child_env(
    base: Mapping[str, str], src: Path, child_dir: Path, pycache: Path,
    write_bytecode: bool = False,
) -> Dict[str, str]:
    """The environment of one benchmark child working in ``child_dir``.

    Every inherited ``REPRO_*`` variable is dropped, so a developer's
    settings cannot change what is measured; the store and both artifact
    caches (``child_dir/artifacts``) live in the child's own directory,
    never in the default ``~/.cache/repro``.  Bytecode is read from
    ``pycache`` (the run's own cache, filled once by ``run.py`` with
    ``write_bytecode``) and never from ``__pycache__`` directories, so
    ``setup_s`` cannot depend on what earlier test or benchmark runs left
    in the tree.
    """
    env = {k: v for k, v in base.items() if not k.startswith("REPRO_")}
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(src)
    env["PYTHONPYCACHEPREFIX"] = str(pycache)
    if not write_bytecode:
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    env["REPRO_WORKERS"] = "1"
    env["REPRO_STORE"] = str(child_dir / "campaigns.sqlite")
    env["REPRO_TRACE_CACHE"] = str(child_dir / "artifacts")
    env["REPRO_MEMO_CACHE"] = str(child_dir / "artifacts")
    return env
