"""Every output writer rewrites an existing file in place.

The six writers go through ``poselift.files.rewrite``: over a longer or
a shorter file they leave exactly the bytes of a fresh write, in the
same inode, so a symlink's target is updated, a hard link sees the new
bytes and the file mode is kept; and the file still holds its old bytes
when the writer opens it, where ``open(path, "w")`` would have
truncated it to zero.  A writer that raises partway leaves
what it wrote, and a pose file can be written to ``/dev/null``.
"""

import builtins
import io
import json
import os

import pytest

from poselift.cli import main
from poselift.data import read_pose_file, write_pose_file
from poselift.depth import load_depth, save_depth
from poselift.files import rewrite
from poselift.pipeline import load_bundle, save_bundle
from poselift.skeleton import default_skeleton, save_skeleton


@pytest.fixture(scope="module")
def writers(tmp_path_factory):
    """The six writers, each a function of the output path alone."""
    root = tmp_path_factory.mktemp("writers")
    config = root / "config.json"
    config.write_text(json.dumps({"train": {
        "epochs": 1, "batch_size": 4, "hidden_dim": 8, "num_blocks": 1,
        "depth_hidden_dim": 8, "depth_num_blocks": 1, "lambda_weight": 0.001,
    }}))
    data, model, pred = root / "data", root / "model.npz", root / "pred.jsonl"
    assert main(["generate", "--out", str(data), "--seed", "3", "--n-annotated", "12", "--n-weak", "4"]) == 0
    assert main(["train", "--config", str(config), "--data", str(data), "--out", str(model)]) == 0
    assert main(["predict", "--model", str(model), "--data", str(data), "--out", str(pred)]) == 0
    samples = read_pose_file(data / "samples.jsonl")
    depth = load_depth(samples[0].depth_path)
    bundle = load_bundle(model)
    train = ["train", "--config", str(config), "--data", str(data), "--out", str(root / "again.npz")]
    evaluate = ["eval", "--gt", str(data / "gt_poses.jsonl"), "--pred", str(pred)]
    return {
        "write_pose_file": lambda path: write_pose_file(path, samples),
        "save_depth": lambda path: save_depth(path, depth),
        "save_bundle": lambda path: save_bundle(path, bundle),
        "save_skeleton": lambda path: save_skeleton(path, default_skeleton()),
        "train --log-file": lambda path: main([*train, "--log-file", str(path)]),
        "eval --out": lambda path: main([*evaluate, "--out", str(path)]),
    }


WRITERS = ["write_pose_file", "save_depth", "save_bundle", "save_skeleton", "train --log-file", "eval --out"]


def _fresh(write, tmp_path) -> bytes:
    """The writer's bytes in a new file of ``tmp_path``, the directory every
    rewrite below uses (a pose file's depth paths are relative to it)."""
    write(tmp_path / "fresh")
    return (tmp_path / "fresh").read_bytes()


@pytest.mark.parametrize("name", WRITERS)
class TestWriter:
    @pytest.mark.parametrize("old", ["longer", "shorter"])
    def test_rewrite_leaves_the_bytes_of_a_fresh_write_in_the_same_inode(self, writers, tmp_path, name, old):
        fresh = _fresh(writers[name], tmp_path)
        path = tmp_path / "out"
        path.write_bytes(fresh + b"x" * 4096 if old == "longer" else b"y" * (len(fresh) // 2))
        inode = os.stat(path).st_ino
        writers[name](path)
        assert path.read_bytes() == fresh
        assert os.stat(path).st_ino == inode

    def test_a_symlink_is_followed_and_a_hard_link_kept(self, writers, tmp_path, name):
        fresh = _fresh(writers[name], tmp_path)
        target, link, hard = tmp_path / "target", tmp_path / "link", tmp_path / "hard"
        target.write_bytes(b"z" * (2 * len(fresh)))
        link.symlink_to(target.name)
        os.link(target, hard)
        writers[name](link)
        assert link.is_symlink()
        assert target.read_bytes() == hard.read_bytes() == fresh

    def test_the_old_file_is_not_truncated_when_it_is_opened(self, writers, tmp_path, name, monkeypatch):
        path = tmp_path / "out"
        path.write_bytes(b"x" * 100)
        target, sizes, real_open = os.stat(path), [], io.open

        def spy(file, *args, **kwargs):
            fh = real_open(file, *args, **kwargs)
            st = os.fstat(fh.fileno())
            if (st.st_dev, st.st_ino) == (target.st_dev, target.st_ino):
                sizes.append(st.st_size)
            return fh

        monkeypatch.setattr(builtins, "open", spy)
        monkeypatch.setattr(io, "open", spy)  # Path.write_text's open
        writers[name](path)
        assert sizes == [100]

    def test_the_file_mode_is_kept(self, writers, tmp_path, name):
        path = tmp_path / "out"
        path.write_bytes(b"old")
        path.chmod(0o640)
        writers[name](path)
        assert os.stat(path).st_mode & 0o777 == 0o640


def test_a_pose_file_can_be_written_to_dev_null(writers):
    writers["write_pose_file"]("/dev/null")


def test_a_writer_that_raises_leaves_what_it_wrote(writers, tmp_path):
    fresh = _fresh(writers["write_pose_file"], tmp_path)
    samples = read_pose_file(tmp_path / "fresh")
    path = tmp_path / "out"
    path.write_bytes(fresh)
    with pytest.raises(AttributeError):
        write_pose_file(path, [samples[0], None])  # None has no record
    assert path.read_bytes() == fresh.splitlines(keepends=True)[0]
    with pytest.raises(RuntimeError), rewrite(path, binary=True) as fh:
        fh.write(b"cut")
        raise RuntimeError
    assert path.read_bytes() == b"cut"
