"""The README's "Library usage" block runs and prints what its comments say."""

import re


def usage_block(readme):
    """The source of the first ``python`` block under "Library usage"."""
    section = readme.split("## Library usage", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_usage_prints_its_comments(repo_root, capsys):
    source = usage_block((repo_root / "README.md").read_text(encoding="utf-8"))
    # each print line's comment: the printed text, then maybe a remark
    # in parentheses
    expected = [line.split("# ", 1)[1] for line in source.splitlines()
                if line.startswith("print(")]
    exec(compile(source, "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    assert len(printed) == len(expected) == 3
    for out, comment in zip(printed, expected):
        assert comment == out or comment.startswith(out + " ("), (out, comment)
    assert printed == ["-2", "True", "3/2 * x^2 / (x^3 + 1) * y"]
