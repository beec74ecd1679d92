"""The README's library quick start runs as written, and its CLI block
shows every subcommand."""

import re
from pathlib import Path

from spdmix import cli

README = Path(__file__).resolve().parents[1] / "README.md"


def test_library_quick_start_runs(tmp_path, monkeypatch, capsys):
    section = README.read_text(encoding="utf-8").split("## Library quick start", 1)[1]
    block = re.search(r"```python\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    assert block, "no python block under 'Library quick start'"
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), str(README), "exec"), {"__name__": "__readme__"})


def test_cli_block_lists_every_subcommand():
    section = README.read_text(encoding="utf-8").split("\n## CLI\n", 1)[1]
    block = re.search(r"```sh\n(.*?)```", section.split("\n## ", 1)[0], re.DOTALL)
    assert block, "no sh block under 'CLI'"
    assert set(re.findall(r"^spdmix (\S+)", block.group(1), re.MULTILINE)) == set(cli._COMMANDS)
