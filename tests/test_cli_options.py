"""Every subcommand's options, pinned in cli_options.json.

For each subcommand the file holds one entry per option, sorted by its
option strings: (option strings, dest, default, type name, choices,
required, action class, nargs).  A change that keeps the command line as
it is leaves every entry as recorded.  A change that adds, drops or
alters an option on purpose regenerates the file with

    PYTHONPATH=src python tests/test_cli_options.py

which prints ``changed: subcommand: entry`` for each entry that is in one
of the two files only, before it rewrites it.
"""

import argparse
import json
import pathlib

from typelink.cli import build_parser

OPTIONS = pathlib.Path(__file__).resolve().parent / "cli_options.json"


def _entry(action: argparse.Action) -> list:
    return [",".join(action.option_strings), action.dest, action.default,
            None if action.type is None else action.type.__name__,
            None if action.choices is None else list(action.choices),
            action.required, type(action).__name__, action.nargs]


def option_sets() -> dict:
    """Each subcommand's option entries, sorted, by subcommand name, as JSON
    reads them back (so tuples are lists)."""
    sub = next(action for action in build_parser()._actions
               if isinstance(action, argparse._SubParsersAction))
    return json.loads(json.dumps({name: sorted(_entry(action) for action in parser._actions)
                                  for name, parser in sorted(sub.choices.items())}))


def changed(expected: dict, current: dict) -> list:
    """``subcommand: entry`` of each entry that is in one of the two option sets only."""
    return sorted(f"{name}: {json.dumps(entry)}"
                  for name in expected.keys() | current.keys()
                  for a, b in ((expected, current), (current, expected))
                  for entry in a.get(name, []) if entry not in b.get(name, []))


def test_options_are_as_recorded():
    recorded = json.loads(OPTIONS.read_text(encoding="utf-8"))
    differing = changed(recorded, option_sets())
    assert not differing, (
        f"options differ from {OPTIONS.name}:\n" + "\n".join(differing) +
        "\nIf the change is meant, regenerate with: PYTHONPATH=src python "
        "tests/test_cli_options.py")


if __name__ == "__main__":
    current = option_sets()
    recorded = json.loads(OPTIONS.read_text(encoding="utf-8")) if OPTIONS.exists() else {}
    for line in changed(recorded, current):
        print(f"changed: {line}")
    # One line per entry, so a diff of the file names the options that moved.
    OPTIONS.write_text("{\n" + ",\n".join(
        f" {json.dumps(name)}: [\n" + ",\n".join(f"  {json.dumps(e)}" for e in entries) + "\n ]"
        for name, entries in current.items()) + "\n}\n", encoding="utf-8")
    print(f"wrote {OPTIONS}")
