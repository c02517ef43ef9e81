"""Byte guard for the writers: the sha256 of every file two CLI commands write.

``gridgrover sweep`` runs a small config with every emitter on (a square /
shifted-square tile pair, a cross and a four-corners point, two marked
cells, a snapshot every 3 rounds over 9, heatmaps at scale 2), and
``gridgrover grover --snapshots 3`` the complete-graph reference on its
grid.  Every trace, snapshot CSV, heatmap, partition CSV and report must
keep its exact bytes, kept in ``artifact_digests.json``.  Regenerate the
digests only for a change that is meant to alter the files::

    PYTHONPATH=src python tests/test_artifact_digests.py
"""

import hashlib
import json
import sys
import tempfile
from pathlib import Path

from gridgrover.cli import main

DIGESTS = Path(__file__).with_name("artifact_digests.json")

CONFIG = """\
L = 40
marked = 21, 21, 6, 10
d = 4
tessellation = square
dispersion = shifted-square
sweep_tessellation = square, cross, four-corners
order = ltr
max_iters = 9
snapshot_stride = 3
emit_trace = true
emit_snapshots = true
emit_heatmaps = true
emit_partition = true
heatmap_scale = 2
"""


def written_digests(workdir: Path) -> dict[str, str]:
    """Run both commands under ``workdir``; map each written file's relative path to its sha256."""
    config = workdir / "guard.cfg"
    config.write_text(CONFIG)
    for command in (["sweep", "--out", str(workdir / "sweep")],
                    ["grover", "--snapshots", "3", "--out", str(workdir / "grover")]):
        assert main([command[0], "--config", str(config), *command[1:]]) == 0
    return {path.relative_to(workdir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(workdir.rglob("*")) if path.is_file() and path != config}


def test_written_files_keep_their_bytes(tmp_path, capsys):
    expected = json.loads(DIGESTS.read_text())
    actual = written_digests(tmp_path)
    assert sorted(actual) == sorted(expected)
    changed = [name for name in expected if actual[name] != expected[name]]
    assert not changed, changed


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        digests = written_digests(Path(workdir))
    DIGESTS.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    sys.stderr.write(f"{len(digests)} digests -> {DIGESTS}\n")
