"""README's "Command line" section names only flags the `rqi` parser accepts.

Each `rqi <command> --flag ...` line in the section's code block, and each
inline code span in its prose, is checked against `cli.build_parser()`.  A
bare `--flag` span belongs to the command last named earlier in the same
paragraph (`box-entangle` or `box-entangle --n-cut`), or to every command when
the paragraph names none, as in "Every command accepts `--config`".
"""

import pathlib
import re

from rqi import cli

README = pathlib.Path(__file__).resolve().parent.parent / "README.md"
FLAG = re.compile(r"(?<![\w-])--[a-z][a-z0-9-]*")


def command_line_section(text):
    return text.split("## Command line\n", 1)[1].split("\n## ", 1)[0]


def named_flags(section):
    """(command, flag) for each flag the section names; command None means every command."""
    pairs = []
    for block in re.findall(r"```[^\n]*\n(.*?)```", section, flags=re.S):
        for line in block.splitlines():
            words = line.split()
            if words[:1] == ["rqi"] and len(words) > 1:
                pairs += [(words[1], flag) for flag in FLAG.findall(line)]
    prose = re.sub(r"```.*?```", "\n\n", section, flags=re.S)
    for paragraph in re.split(r"\n\s*\n", prose):
        command = None
        for span in re.findall(r"`([^`]+)`", paragraph.replace("\n", " ")):
            words = span.split()
            words = words[1:] if words[:1] == ["rqi"] else words
            if words and words[0] in cli.COMMANDS:
                command = words[0]
            pairs += [(command, flag) for flag in FLAG.findall(span)]
    return pairs


def unaccepted(section):
    """`rqi <command> <flag>` for each flag the section names that its command rejects."""
    parser = cli.build_parser()
    problems = []
    for command, flag in named_flags(section):
        for name in [command] if command else sorted(cli.COMMANDS):
            if name not in cli.COMMANDS:
                problems.append(f"rqi {name}: no such command")
                continue
            _, rejected = parser.parse_known_args([name, flag, "0"])
            if flag in rejected:
                problems.append(f"rqi {name} {flag}")
    return problems


def test_readme_command_line_flags_exist():
    section = command_line_section(README.read_text(encoding="utf-8"))
    assert len(named_flags(section)) > 10  # the parse still finds the section's flags
    assert unaccepted(section) == []


def test_checker_reports_flags_a_command_rejects():
    section = (
        "```\n"
        "rqi measures            --r 0.5 --check\n"
        "rqi teleport-fidelity   --kp 3 --k 1\n"
        "```\n"
        "\n"
        "In the `resonance-sweep` summary, `--repetitions` counts rows; so does\n"
        "`box-entangle --n-cut`, but not `--kp`.\n"
        "\n"
        "Every command accepts `--out` and `--threads`.\n"
    )
    assert unaccepted(section) == [
        "rqi measures --check",
        "rqi teleport-fidelity --k",
        "rqi box-entangle --kp",
        *(f"rqi {name} --threads" for name in sorted(cli.COMMANDS)),
    ]
