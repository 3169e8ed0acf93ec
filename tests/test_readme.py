import re
from pathlib import Path

from walshlab.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    # Theorem 2's exact law at n = 5, p = 1/2: ((n + 2)/2)^2.
    assert capsys.readouterr().out == "12.25\n"


def test_readme_cli_examples_print_what_their_comments_state(capsys):
    comments = {}
    for line in README.read_text().splitlines():
        if line.startswith("walshlab ") and "#" in line:
            command, comment = line.split("#", 1)
            comments[command.strip()] = comment.strip()

    # The stats comment elides the middle fields with "...".
    head, tail = comments["walshlab stats 5"].split("...")
    assert (head, tail) == ('{"n":5,', ',"rho":2,"V":4}')
    assert main(["stats", "5"]) == 0
    out = capsys.readouterr().out.strip()
    assert out.startswith(head) and out.endswith(tail)

    label, values = comments["walshlab kernel 3 --resolution 2"].split(": ")
    assert (label, values) == ("CSV of D_3", "3,1,1,-1")
    assert main(["kernel", "3", "--resolution", "2"]) == 0
    header, *rows = capsys.readouterr().out.split()
    assert header == "index,value"
    assert ",".join(row.split(",")[1] for row in rows) == values
