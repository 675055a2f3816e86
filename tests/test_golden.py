"""The mini scenario's inputs and artifacts against their golden record,
`tests/golden/mini.json` (made by `record_golden.py`, which says what the
scenario is and what is stripped before hashing).

The test has two branches and names the one it ran, in its output (`-rA`
shows it), as the `golden_branch` property and in each failure:

- *exact*: in the environment the record was made in (same Python, numpy,
  scipy and OpenBLAS builds and kernels), every file must hash as
  recorded, so one byte moved in one artifact fails;
- *tolerance*: elsewhere a BLAS build or numpy may round differently, so
  the same files must exist, and the digest must hold the same selection,
  strings and counts and every other number within `RTOL` (or `ATOL` near
  zero).

It costs one mini run with the variance grid, about 1 s.
"""

import json
import math

import record_golden

RTOL = 1e-6
ATOL = 1e-9


def mismatches(want, got, where="digest") -> list[str]:
    """Where `got` differs from `want`: floats beyond RTOL/ATOL, anything
    else (strings, ints, bools, the shape of a list or dict) at all."""
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(want) != sorted(got):
            return [where]
        return [m for k in want for m in mismatches(want[k], got[k], f"{where}.{k}")]
    if isinstance(want, list):
        if not isinstance(got, list) or len(want) != len(got):
            return [where]
        return [m for i, (w, g) in enumerate(zip(want, got))
                for m in mismatches(w, g, f"{where}[{i}]")]
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL) else [where]
    return [] if type(want) is type(got) and want == got else [where]


def test_mini_artifacts_match_the_golden_record(tmp_path, record_property):
    golden = json.loads(record_golden.GOLDEN.read_text())
    got = record_golden.record(tmp_path)
    if got["environment"] == golden["environment"]:
        branch = "exact: every file hashes as recorded"
    else:
        branch = (f"tolerance: the digest within rtol {RTOL}; recorded in "
                  f"{golden['environment']}, running in {got['environment']}")
    record_property("golden_branch", branch)
    print(f"golden branch: {branch}")
    assert sorted(got["sha256"]) == sorted(golden["sha256"]), f"[{branch}] the file set differs"
    if branch.startswith("exact"):
        moved = [name for name, digest in golden["sha256"].items()
                 if got["sha256"][name] != digest]
        assert not moved, f"[{branch}] files whose bytes moved: {moved}"
    bad = mismatches(golden["digest"], got["digest"])
    assert not bad, f"[{branch}] digest entries out of tolerance: {bad}"
