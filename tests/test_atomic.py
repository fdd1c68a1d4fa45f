"""Artifact writes go through a temp file, so a failed write changes nothing."""

import os
import stat

import pytest

from crmn.atomic import atomic_open
from crmn.training import read_history, write_history


def _row(epoch):
    return {"epoch": epoch, "lr_trunk": 0.1, "lr_lstm": 0.1, "lr_head": 0.1,
            "train_loss": 1.5, "val_error": 0.5, "val_acc": 0.5}


def test_atomic_open_replaces_the_target_on_success(tmp_path):
    target = tmp_path / "out.bin"
    target.write_bytes(b"old")
    with atomic_open(target, "wb") as fh:
        fh.write(b"new ")
        assert target.read_bytes() == b"old"  # not visible until the body ends
        fh.write(b"bytes")
    assert target.read_bytes() == b"new bytes"
    assert os.listdir(tmp_path) == ["out.bin"]


def test_atomic_open_syncs_the_data_before_the_rename_and_the_directory_after(tmp_path,
                                                                             monkeypatch):
    target = tmp_path / "out.bin"
    calls = []
    fsync, replace = os.fsync, os.replace

    def recorded_fsync(fd):
        st = os.fstat(fd)
        calls.append(("fsync", "directory" if stat.S_ISDIR(st.st_mode) else st.st_size))
        fsync(fd)

    def recorded_replace(src, dst):
        calls.append(("replace", os.path.basename(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "fsync", recorded_fsync)
    monkeypatch.setattr(os, "replace", recorded_replace)
    with atomic_open(target, "wb") as fh:
        fh.write(b"ten bytes!")  # held in the file object's buffer until the flush
    # the file's fsync sees all ten bytes
    assert calls == [("fsync", 10), ("replace", "out.bin"), ("fsync", "directory")]
    assert target.read_bytes() == b"ten bytes!"


def test_a_write_that_raises_leaves_the_target_and_no_temp_file(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old contents\n")
    with pytest.raises(RuntimeError):
        with atomic_open(target) as fh:
            fh.write("half of the new")
            raise RuntimeError("interrupted")
    assert target.read_text() == "old contents\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_a_failed_history_write_keeps_the_previous_history(tmp_path):
    path = tmp_path / "history.csv"
    write_history(path, [_row(1)])
    before = path.read_bytes()
    broken = _row(2)
    del broken["val_acc"]  # raises after the header and the first row are written
    with pytest.raises(KeyError):
        write_history(path, [_row(1), broken])
    assert path.read_bytes() == before
    assert [r["epoch"] for r in read_history(path)] == [1]
    assert os.listdir(tmp_path) == ["history.csv"]


def test_a_symlink_is_written_through(tmp_path):
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    with atomic_open(link) as fh:
        fh.write("new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "target.txt"]


def test_a_pipe_is_written_to_not_replaced(tmp_path):
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        with atomic_open(fifo, "wb") as fh:
            fh.write(b"through the pipe")
        assert os.read(reader, 64) == b"through the pipe"
    finally:
        os.close(reader)
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert os.listdir(tmp_path) == ["pipe"]
