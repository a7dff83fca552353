"""Run the mutant ledger (``mutants/ledger.json``).

Each entry names a file, an exact ``old`` text that occurs once in it, the
``new`` text that replaces it, and the test ids (``kills``) that must fail
on the mutated code.  For each mutant, the tree that the tests read
(``COPIED``) is copied to a temporary directory, the edit is made there,
and pytest runs only the named tests; the mutant is killed when every one
of them fails.  Before any mutant, the named tests run once on an
unmutated copy and must all pass.

Usage, from the repository root:

    python mutants/run.py            # the whole ledger
    python mutants/run.py ID [ID ...]  # only these entries

Exit status 0 when every mutant selected is killed, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
LEDGER = ROOT / "mutants" / "ledger.json"
COPIED = ("src", "tests", "mutants", "perfbench", "pyproject.toml")


def load_ledger() -> list:
    return json.loads(LEDGER.read_text())["mutants"]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis",
                                    ".pytest_cache")
    for name in COPIED:
        src = ROOT / name
        if src.is_dir():
            shutil.copytree(src, dest / name, ignore=ignore)
        else:
            shutil.copy2(src, dest / name)


def _pytest(tree: Path, test_ids) -> tuple[int, set, str]:
    """pytest's exit status on ``test_ids`` run in ``tree``, the ids that
    fail, and its output."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-rfE", *test_ids],
        cwd=tree, env=env, capture_output=True, text=True)
    failed = set()
    for line in proc.stdout.splitlines():
        for tag in ("FAILED ", "ERROR "):
            if line.startswith(tag):
                failed.add(line[len(tag):].split(" - ")[0].strip())
    return proc.returncode, failed, proc.stdout + proc.stderr


def run(entries) -> int:
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        clean = Path(tmp) / "clean"
        _copy_tree(clean)
        wanted = sorted({t for e in entries for t in e["kills"]})
        status, failed, out = _pytest(clean, wanted)
        if status != 0:  # a failure, or a named test that does not exist
            print(out)
            print(f"unmutated tree fails named tests: {sorted(failed)}")
            return 1
        survivors = []
        for e in entries:
            tree = Path(tmp) / e["id"]
            _copy_tree(tree)
            target = tree / e["file"]
            text = target.read_text()
            if text.count(e["old"]) != 1:
                print(f"{e['id']}: old text occurs {text.count(e['old'])} "
                      f"times in {e['file']}")
                survivors.append(e["id"])
                continue
            target.write_text(text.replace(e["old"], e["new"]))
            _, failed, _ = _pytest(tree, e["kills"])
            alive = [t for t in e["kills"] if t not in failed]
            status = "killed" if not alive else f"SURVIVED {alive}"
            print(f"{e['id']}: {status}")
            if alive:
                survivors.append(e["id"])
            shutil.rmtree(tree)
    print(f"{len(entries) - len(survivors)} of {len(entries)} mutants killed")
    return 1 if survivors else 0


def main() -> int:
    ids = sys.argv[1:]
    entries = load_ledger()
    if ids:
        unknown = set(ids) - {e["id"] for e in entries}
        if unknown:
            print(f"unknown mutant ids: {sorted(unknown)}")
            return 2
        entries = [e for e in entries if e["id"] in ids]
    return run(entries)


if __name__ == "__main__":
    sys.exit(main())
