"""A catalogue of source mutations and the tests that must kill each one.

Each entry names a file under ``src/obsnode``, an exact snippet of it, the
snippet's replacement, the test ids expected to fail on the mutated code,
and a note. Run from the repository root:

    python3 tests/mutants.py              # every entry
    python3 tests/mutants.py --only NAME  # one entry

For each entry the runner copies the tracked tree (``git ls-files``) to a
temporary directory, applies the one mutation there, runs
``pytest -x -q -p no:cacheprovider`` on the entry's ids and reports killed
(the tests failed) or survived, with the seconds taken. It exits 1 if any
mutant survives. ``tests/test_mutants.py`` checks, in tier 1, that every
snippet occurs exactly once in its file, so a refactor that removes the
mutated code has to update or retire the entry.
"""

from __future__ import annotations

import argparse
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@dataclass(frozen=True)
class Mutant:
    name: str
    file: str  # relative to src/obsnode
    snippet: str
    replacement: str
    tests: tuple[str, ...]
    note: str


CATALOGUE = (
    Mutant("adam-bias-corrections-swapped", "autodiff.py",
           "np.divide(m, c1, out=w)\n        w *= self.lr\n        np.divide(v, c2, out=g)",
           "np.divide(m, c2, out=w)\n        w *= self.lr\n        np.divide(v, c1, out=g)",
           ("tests/test_autodiff.py::TestAdam",),
           "m is divided by 1 - beta2^t and v by 1 - beta1^t"),
    Mutant("adam-padding-gradient-kept", "autodiff.py",
           "        self.g[self.frozen] = 0.0\n", "",
           ("tests/test_train.py::TestTrainLoop::test_padding_stays_positive_zero",),
           "the first-layer padding's gradient reaches Adam, so the field stops "
           "being triangular"),
    Mutant("adam-clip-norm-in-storage-order", "autodiff.py",
           "np.sqrt(sum(float(np.sum(sq[p])) for p in self.parts))",
           "np.sqrt(float(np.sum(sq)))",
           ("tests/test_model.py::TestStoredLayout::test_clipping_keeps_the_per_entry_bits",),
           "one sum over the whole buffer rounds otherwise than one float per "
           "checkpoint entry in param_shapes order"),
    Mutant("adam-overflowing-norm-zeroes-the-step", "autodiff.py",
           "if norm == np.inf:", "if False:",
           ("tests/test_autodiff.py::TestAdam::test_an_overflowing_norm_clips_to_the_bound",
            "tests/test_train.py::TestTrainLoop::test_overflowing_gradient_norm_still_steps"),
           "g * g overflows for a finite gradient and the step is scaled by 1 / inf"),
    Mutant("w0-split-off-by-one-row", "model.py",
           "(W0z[i, :(i + 1) * d_y], W0c[i])", "(W0z[i, :(i + 1) * d_y + 1], W0c[i])",
           ("tests/test_model.py::TestStoredLayout",),
           "phi{i}.W0 takes one padding row of the z rows"),
    Mutant("gru-gates-r-and-u-swapped", "model.py",
           "where += [(Wp[j],), (Up[j] if j < 2 else Uhp,), (bp[j],)]",
           "where += [(Wp[(1, 0, 2)[j]],), (Up[1 - j] if j < 2 else Uhp,), (bp[(1, 0, 2)[j]],)]",
           ("tests/test_fused.py::TestStackedAgainstPerBlock::test_encoder",),
           "enc.Wr, enc.Ur and enc.br name the stored update gate, and the u "
           "entries the reset gate"),
    Mutant("param-assignment-rebinds", "autodiff.py",
           "            self._view[...] = value\n",
           "            self._view = np.array(value, dtype=np.float64)\n",
           ("tests/test_autodiff.py::TestParam",
            "tests/test_model.py::TestStoredLayout::test_assignment_reaches_the_field_and_adam"),
           "an assignment detaches the tensor from the buffer that Adam and the "
           "checkpoint read"),
)


def tracked_tree(dest: Path):
    """Copy the files git tracks (and those not yet committed but staged or
    new, as git ls-files --others --exclude-standard lists them) to dest."""
    listed = subprocess.run(["git", "ls-files", "--cached", "--others", "--exclude-standard"],
                            cwd=ROOT, check=True, capture_output=True, text=True).stdout
    for rel in listed.splitlines():
        src = ROOT / rel
        if src.is_file():
            (dest / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(src, dest / rel)


def run(mutant: Mutant) -> tuple[bool, float]:
    """(killed, seconds) of one mutant on a fresh copy of the tree."""
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp)
        tracked_tree(tree)
        path = tree / "src" / "obsnode" / mutant.file
        text = path.read_text()
        if text.count(mutant.snippet) != 1:
            raise SystemExit(f"{mutant.name}: the snippet does not occur exactly once")
        path.write_text(text.replace(mutant.snippet, mutant.replacement))
        proc = subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", "-p",
                               "no:cacheprovider", *mutant.tests],
                              cwd=tree, capture_output=True, text=True)
    if proc.returncode not in (0, 1):
        raise SystemExit(f"{mutant.name}: pytest exited {proc.returncode}\n{proc.stdout}")
    return proc.returncode == 1, time.perf_counter() - start


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--only", help="run the entry of this name")
    args = p.parse_args(argv)
    chosen = [m for m in CATALOGUE if args.only in (None, m.name)]
    if not chosen:
        raise SystemExit(f"no entry named {args.only!r}")
    survived = []
    for mutant in chosen:
        killed, seconds = run(mutant)
        print(f"{'killed' if killed else 'SURVIVED':8} {seconds:6.1f} s  {mutant.name}")
        if not killed:
            survived.append(mutant.name)
    print(f"{len(chosen) - len(survived)}/{len(chosen)} killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
