"""The benchmark's generator: a seed fixes the problem files byte for byte.

Run with: python3 -m pytest bench/test_instances.py
"""

import hashlib

import pytest

from instances import WORKLOADS, workload_instances, write_instances


def _file_digests(workload, seed, directory):
    directory.mkdir()
    paths = write_instances(workload_instances(workload, seed), directory)
    return [hashlib.sha256(open(path, "rb").read()).hexdigest() for path in paths]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes(workload, tmp_path):
    first = _file_digests(workload, 7, tmp_path / "first")
    second = _file_digests(workload, 7, tmp_path / "second")
    assert first == second


@pytest.mark.parametrize("workload", WORKLOADS)
def test_other_seed_other_files(workload, tmp_path):
    first = _file_digests(workload, 7, tmp_path / "first")
    other = _file_digests(workload, 8, tmp_path / "other")
    assert len(first) == len(other)
    assert all(a != b for a, b in zip(first, other))


def test_pinned_bytes():
    """The stream is SHA-256 based, so these bytes hold on every Python version."""
    inst = workload_instances("hull3", 1)[0]
    assert inst.name == "hull3-00-k2n7p3"
    assert inst.text() == (
        '{"matrix": [[-2, -4, 3, -2, 4, -1, 0], [3, -2, -5, -1, -5, 4, -2]], '
        '"p": 3, "shapes": {"type": "all"}}\n'
    )
