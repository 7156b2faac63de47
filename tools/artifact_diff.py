"""Compare the CLI artifact hashes of a git revision with those of the working tree.

    python tools/artifact_diff.py [REV]

checks REV (default ``HEAD``) out with ``git worktree add --detach`` into a
temporary directory, runs this tree's ``tools/cli_artifacts.py`` on that
checkout and on the working tree, prints a unified diff of the two outputs
and exits 1 if they differ (0 if not).  The worktree is removed again, also
when a run fails.  Uses only the standard library.
"""

import difflib
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
HASHER = ROOT / "tools" / "cli_artifacts.py"


def _hashes(tree: Path) -> list:
    run = subprocess.run([sys.executable, str(HASHER), str(tree)],
                         capture_output=True, text=True, check=True)
    return run.stdout.splitlines(keepends=True)


def main(argv) -> int:
    if len(argv) > 2:
        print(__doc__, file=sys.stderr)
        return 2
    rev = argv[1] if len(argv) == 2 else "HEAD"
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "rev"
        subprocess.run(["git", "-C", str(ROOT), "worktree", "add", "--quiet", "--detach",
                        str(tree), rev], check=True)
        try:
            before = _hashes(tree)
        finally:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(tree)],
                           check=True)
    after = _hashes(ROOT)
    diff = list(difflib.unified_diff(before, after, rev, "working tree"))
    sys.stdout.writelines(diff)
    print(f"{len(before)} lines at {rev}, {len(after)} in the working tree: "
          + ("they differ" if diff else "identical"))
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
