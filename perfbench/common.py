"""Paths, environment isolation and the output check shared by the
benchmark's entry points."""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Everything the benchmark writes lives under this gitignored directory.
BUILD_DIR = os.path.join(ROOT, ".bench_build")
REFERENCE = os.path.join(HERE, "reference.json")


def source_present() -> bool:
    return os.path.isfile(os.path.join(SRC, "repro", "__init__.py"))


def isolate() -> str:
    """Drop every ``REPRO_*`` knob inherited from the caller, keep the
    native build cache under ``.bench_build`` and make ``src`` importable
    here and in child processes.  Returns a fresh, empty work directory."""
    for name in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[name]
    os.makedirs(BUILD_DIR, exist_ok=True)
    os.environ["REPRO_NATIVE_CACHE"] = os.path.join(BUILD_DIR, "native")
    os.environ["PYTHONPATH"] = SRC
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    work_dir = tempfile.mkdtemp(prefix="run-", dir=BUILD_DIR)
    # No run may read a cache it did not write: the tracked repo-root
    # cache holds stale records.
    os.environ["REPRO_CACHE"] = os.path.join(work_dir, "unused-cache.json")
    return work_dir


def remove(work_dir: str) -> None:
    shutil.rmtree(work_dir, ignore_errors=True)


def diff(observed, expected, path: str = "") -> List[str]:
    """Differences in every field ``expected`` has; numbers must be equal
    exactly.  Fields only ``observed`` has (a counter or record field
    added after the reference was made) are not compared."""
    if isinstance(expected, dict) and isinstance(observed, dict):
        out = []
        for key in sorted(expected):
            if key not in observed:
                out.append(f"{path}.{key}: missing")
            else:
                out += diff(observed[key], expected[key], f"{path}.{key}")
        return out
    if isinstance(expected, list) and isinstance(observed, list):
        if len(expected) != len(observed):
            return [f"{path}: length {len(observed)} != {len(expected)}"]
        out = []
        for index, (obs, exp) in enumerate(zip(observed, expected)):
            out += diff(obs, exp, f"{path}[{index}]")
        return out
    if observed != expected or type(observed) is not type(expected):
        return [f"{path}: {observed!r} != {expected!r}"]
    return []


def load_reference(path: str = REFERENCE) -> Dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(ops, reference: Dict) -> Dict[str, List[str]]:
    """``op label -> differences`` against the exact-engine reference for
    every op whose output is missing or differs."""
    outputs = reference["outputs"]
    bad = {}
    for op in ops:
        if not op.ok or op.output is None:
            bad[op.label] = ["op did not complete"]
            continue
        expected = outputs.get(op.ref_key)
        if expected is None:
            bad[op.label] = [f"no reference entry for {op.ref_key}"]
            continue
        found = diff(op.output, expected)
        if found:
            bad[op.label] = found
    return bad
