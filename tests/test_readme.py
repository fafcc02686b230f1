import os
import re
import subprocess
import sys
from pathlib import Path

import shapedparts

README = Path(__file__).resolve().parent.parent / "README.md"


def library_section() -> str:
    text = README.read_text(encoding="utf-8")
    start = text.index("\n## Library\n")
    end = text.find("\n## ", start + 1)
    return text[start:] if end == -1 else text[start:end]


class TestReadmeLibrary:
    def test_example_runs_verbatim(self):
        example = re.search(r"```python\n(.*?)```", library_section(), re.S).group(1)
        exec(compile(example, str(README), "exec"), {})

    def test_exports_are_the_listed_names(self):
        # every backticked name in the bullet list, continuation lines included
        listed = []
        in_bullet = False
        for line in library_section().splitlines():
            in_bullet = line.startswith("- ") or (in_bullet and line.startswith("  "))
            if in_bullet:
                listed += re.findall(r"`([A-Za-z_]\w*)`", line)
        assert len(listed) == len(set(listed))
        assert set(shapedparts.__all__) == set(listed)
        assert all(hasattr(shapedparts, name) for name in shapedparts.__all__)


class TestRuntimeDependencies:
    def test_pyproject_matches_readme(self):
        sentence = re.search(r"runtime dependenc(?:y is|ies are) ([^.;]+)\.", README.read_text())
        documented = sorted(re.findall(r"\w+", sentence.group(1).replace(" and ", " ")))
        pyproject = (README.parent / "pyproject.toml").read_text()
        declared = re.search(r"^dependencies = \[(.*)\]$", pyproject, re.M).group(1)
        assert sorted(re.findall(r'"([^"]+)"', declared)) == documented

    def test_cli_import_loads_no_scipy(self):
        probe = ("import sys, shapedparts.cli; "
                 "print([m for m in sys.modules if m.split('.')[0] == 'scipy'])")
        env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "[]"

    def test_cli_commands_load_no_numpy_ma(self, tmp_path):
        problem = tmp_path / "problem.json"
        problem.write_text(
            '{"matrix": [[3, -1, 4, 1, -5]], "p": 3, "shapes": {"type": "all"}, '
            '"objective": {"type": "sum_column_norm_pow", "q": 2}}'
        )
        probe = (
            "import sys\n"
            "from shapedparts.cli import main\n"
            f"for argv in (['solve', {str(problem)!r}], ['vertices', '--with-partitions', {str(problem)!r}]):\n"
            f"    assert main(argv + ['--output', {str(tmp_path / 'out.json')!r}]) == 0\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(README.parent / "src"))
        out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.strip() == "False"
