import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_library_example_runs(capsys):
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
    assert len(blocks) == 1
    exec(blocks[0], {})
    # Theorem 2's exact law at n = 5, p = 1/2: ((n + 2)/2)^2.
    assert capsys.readouterr().out == "12.25\n"
