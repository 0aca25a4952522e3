"""Golden check: canonical reports of a fixed config set stay the same.

Each ``tests/canonical/<mode>.<label>.ini`` runs through the CLI with
``--canonical``; its report must match ``<mode>.<label>.report.json``
next to it.  Ints, strings, bools and nulls compare exactly, floats to
1e-12 relative, except two kinds of round-off-sized numbers.  The
diagnostics in ``_ROUNDOFF`` only have to stay under their gates.  The
error metrics in ``_STATE_DIFFERENCES`` are norms of the difference of
two O(1) states (the embedded and the reference solution), so a
round-off change of delta in either state moves them by up to delta:
they compare to ``_STATE_ATOL`` absolute, the agreement asked of the
states themselves.  A config without a golden report
is an error case: it must exit 1 with an ``error:`` line.

Regenerate the goldens (after a deliberate change, listed in CHANGES.md)
from the repository root with

    PYTHONPATH=src python tests/test_canonical_golden.py

A regenerated golden keeps every old value the comparison still accepts
at its own key path, so its diff holds only what the comparison sees
change, and round-off-gated keys keep their gates.
"""

import json
import math
import sys
from pathlib import Path

import pytest

from vlasov_carleman.cli import main

CASES = Path(__file__).resolve().parent / "canonical"
_FLOAT_RTOL = 1.0e-12
# round-off-sized diagnostics and the gate each one must stay under
_ROUNDOFF = {
    "residual": 1.0e-11,
    "padding_deviation": 1.0e-12,
    "stepping_vs_encoding_rel": 1.0e-8,
}
_STATE_DIFFERENCES = {"rel_l2", "max_abs", "normalized_state_error"}
_STATE_ATOL = 1.0e-13


def _configs():
    return sorted(CASES.glob("*.ini"))


def _run(ini: Path, out: Path) -> int:
    mode = ini.name.split(".")[0]
    return main([mode, "--config", str(ini), "--out", str(out), "--canonical"])


def _golden(ini: Path) -> Path:
    return ini.with_name(ini.stem + ".report.json")


def _mismatches(got, want, path="") -> list[str]:
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(set(got) ^ set(want))} differ"]
        return [m for k in want for m in _mismatches(got[k], want[k], f"{path}.{k}")]
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        return [m for i, (g, w) in enumerate(zip(got, want)) for m in _mismatches(g, w, f"{path}[{i}]")]
    key = path.rsplit(".", 1)[-1]
    if key in _ROUNDOFF:
        ok = isinstance(got, (int, float)) and abs(got) <= _ROUNDOFF[key]
        return [] if ok else [f"{path}: {got!r} above its gate {_ROUNDOFF[key]}"]
    if type(got) is float and type(want) is float:
        atol = _STATE_ATOL if key in _STATE_DIFFERENCES else 0.0
        if math.isclose(got, want, rel_tol=_FLOAT_RTOL, abs_tol=atol):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def test_canonical_set_is_present():
    assert len(_configs()) >= 12
    modes = {ini.name.split(".")[0] for ini in _configs()}
    assert modes == {"analyze", "feasibility", "run-carleman", "run-reference", "compare", "sweep"}


@pytest.mark.parametrize("ini", _configs(), ids=lambda p: p.stem)
def test_canonical_report_matches_golden(ini, tmp_path, capsys):
    code = _run(ini, tmp_path)
    golden = _golden(ini)
    if not golden.is_file():
        assert code == 1
        assert capsys.readouterr().err.startswith("error:")
        assert not (tmp_path / "report.json").exists()
        return
    want = json.loads(golden.read_text())
    got = json.loads((tmp_path / "report.json").read_text())
    assert code == want["exit_code"]
    problems = _mismatches(got, want)
    assert not problems, "\n".join(problems)


def _kept(got, want, path=""):
    """got, with every value that _mismatches accepts put back to want's,
    so a re-baseline rewrites only what the comparison sees change."""
    if isinstance(got, dict) and isinstance(want, dict):
        return {
            k: _kept(v, want[k], f"{path}.{k}") if k in want else v
            for k, v in got.items()
        }
    if isinstance(got, list) and isinstance(want, list) and len(got) == len(want):
        return [_kept(g, w, f"{path}[{i}]") for i, (g, w) in enumerate(zip(got, want))]
    return got if _mismatches(got, want, path) else want


def _regenerate(out_root: Path) -> None:
    for ini in _configs():
        out = out_root / ini.stem
        code = _run(ini, out)
        report = out / "report.json"
        golden = _golden(ini)
        if report.is_file():
            got = json.loads(report.read_text())
            if golden.is_file():
                got = _kept(got, json.loads(golden.read_text()))
            golden.write_text(json.dumps(got, indent=2, sort_keys=True) + "\n")
        print(f"{ini.name}: exit {code}")


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        _regenerate(Path(tmp))
    sys.exit(0)
