"""Every output file is rewritten in place with exactly the new bytes.

The trace, the config sidecar, the sweep table and the SVG all go through
one writer that opens without truncating, writes, and cuts the file at the
end of the new bytes. Rewriting a longer or a shorter file must leave what a
first write leaves; the file keeps its inode and mode, a symlink is written
through, and a hard link sees the new bytes.
"""

from __future__ import annotations

import os
import stat
from pathlib import Path

import pytest

from netgrad.harness import (
    ExperimentConfig,
    SweepResult,
    SweepRow,
    _write_text,
    run_experiment,
    save_config,
    write_trace,
)
from netgrad.plotting import emit_plot

_CFG = ExperimentConfig(topology="ring", agents=4, algo="ssdsgt", iters=30, seed=5, label="demo")
_TRACE = run_experiment(_CFG)
_SWEEP = SweepResult(
    eps=1e-3,
    rows=[
        SweepRow(algo="ssdsgt", m=8, theta=0.25, counts=(120, 130)),
        SweepRow(algo="dsgt", m=8, theta=0.25, counts=(None, 90)),
    ],
    exponents={"ssdsgt": 1.5},
)

WRITERS = {
    "trace": lambda path: write_trace(_TRACE, path),
    "sidecar": lambda path: save_config(_CFG, path),
    "sweep-table": lambda path: _SWEEP.to_csv(path),
    "svg": lambda path: emit_plot([_TRACE], path),
}


def _fresh(writer: str, tmp_path: Path) -> bytes:
    path = tmp_path / f"fresh-{writer}"
    WRITERS[writer](path)
    return path.read_bytes()


@pytest.mark.parametrize("old_size", ["longer", "shorter"])
@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_rewrite_leaves_exactly_the_new_bytes(tmp_path, writer, old_size):
    new = _fresh(writer, tmp_path)
    path = tmp_path / "out"
    path.write_bytes(b"#" * (2 * len(new) + 7 if old_size == "longer" else len(new) // 3))
    WRITERS[writer](path)
    assert path.read_bytes() == new


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_rewrite_keeps_the_inode_the_mode_and_hard_links(tmp_path, writer):
    new = _fresh(writer, tmp_path)
    path = tmp_path / "out"
    path.write_bytes(b"#" * (len(new) + 100))
    path.chmod(0o640)
    os.link(path, tmp_path / "hard")
    before = path.stat()
    WRITERS[writer](path)
    after = path.stat()
    assert (after.st_ino, stat.S_IMODE(after.st_mode)) == (before.st_ino, 0o640)
    assert (tmp_path / "hard").read_bytes() == new


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_a_symlink_is_written_through(tmp_path, writer):
    new = _fresh(writer, tmp_path)
    target = tmp_path / "target"
    target.write_bytes(b"#" * (len(new) + 100))
    link = tmp_path / "link"
    link.symlink_to(target)
    WRITERS[writer](link)
    assert link.is_symlink() and os.readlink(link) == str(target)
    assert target.read_bytes() == new


def test_a_first_write_gets_the_mode_of_a_plain_open(tmp_path):
    plain = tmp_path / "plain"
    with open(plain, "w", encoding="utf-8") as handle:
        handle.write("x\n")
    _write_text(tmp_path / "written", "x\n")
    assert stat.S_IMODE((tmp_path / "written").stat().st_mode) == stat.S_IMODE(plain.stat().st_mode)


def test_a_text_that_cannot_encode_leaves_an_empty_file_as_a_plain_open_does(tmp_path):
    text = "header\n\ud800\n"
    plain, written = tmp_path / "plain", tmp_path / "written"
    for path in (plain, written):
        path.write_bytes(b"old bytes\n" * 50)
    with pytest.raises(UnicodeEncodeError):
        with open(plain, "w", encoding="utf-8") as handle:
            handle.write(text)
    with pytest.raises(UnicodeEncodeError):
        _write_text(written, text)
    assert written.read_bytes() == plain.read_bytes() == b""
