"""Every ``python`` code block and every ``ctpower`` command line of the
``sh`` blocks in README.md runs as written, and the sample verification
report is the one ``verify --quick --seed 0`` prints."""
import re
import shlex
from pathlib import Path

from ctpower.channels import RawChannel, ThetaChannel, channel_to_config
from ctpower.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_python_blocks_run(capsys):
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)
    assert blocks
    for i, block in enumerate(blocks):
        exec(compile(block, f"README.md python block {i}", "exec"), {})


def test_readme_cli_lines_exit_0(capsys, tmp_path):
    # my_state.cfg: a raw theta channel, whose controller basis leaves Bell
    # pairs, so verify --channel raw passes on it
    config = tmp_path / "my_state.cfg"
    config.write_text(
        channel_to_config(RawChannel(state=ThetaChannel(0.6, 0.8, "x").state))
    )
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
    lines = [
        line for block in blocks for line in block.splitlines()
        if line.startswith("ctpower ")
    ]
    assert lines
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        argv = [str(config) if arg == "my_state.cfg" else arg for arg in argv]
        assert main(argv) == 0, line
        capsys.readouterr()


def test_readme_sample_report_is_verify_quick_seed_0(capsys):
    # the sample shows the report's first lines, header included, and its
    # last line, with "..." for the lines between
    text = README.read_text(encoding="utf-8")
    blocks = re.findall(r"^```\n(ctpower verification report\n.*?)^```", text, re.M | re.S)
    assert len(blocks) == 1
    head, _, tail = blocks[0].partition("...\n")
    assert tail, "the sample elides its middle lines with '...'"
    assert main(["verify", "--quick", "--seed", "0"]) == 0
    report = capsys.readouterr().out
    assert report.startswith(head) and report.endswith(tail)
