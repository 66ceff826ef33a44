"""The CLI's tables against README: the scenario kinds with their fields,
the families with their methods, each command's flags and config keys,
and the exit code of every library exception, each checked through
`cli.main` or the parser where it can be."""

import argparse
import re
from pathlib import Path

import pytest

from privsel import cli, errors, scenario

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_table(first_header):
    """Body rows, as lists of stripped cells, of the README table whose
    first header cell is first_header."""
    lines = README.read_text().splitlines()
    start = next(i for i, line in enumerate(lines)
                 if line.startswith("|") and line.split("|")[1].strip() == first_header)
    rows = []
    for line in lines[start + 2:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def names(cell):
    """The comma-separated names of a cell, notes in brackets dropped."""
    return tuple(re.sub(r"\s*\(.*?\)", "", cell).split(", "))


def test_readme_kind_table_lists_each_kinds_fields():
    documented = [(kind.strip("`"), names(fields))
                  for kind, fields in readme_table("kind")]
    assert documented == [*scenario.BASES.items(),
                          *((f, fields) for f, (fields, _) in scenario.FAMILIES.items() if f)]


def test_readme_family_table_lists_each_familys_methods():
    documented = [(None if family.startswith("none") else family, names(methods))
                  for family, methods in readme_table("family")]
    assert documented == [(f, methods) for f, (_, methods) in scenario.FAMILIES.items()]


@pytest.mark.parametrize("flag, choices", [
    ("--base", ["gaussian", "subsampled_gaussian", "pure", "points"]),
    ("--family", ["negbin", "binomial", "poisson", "rnm"]),
    ("--method", ["hs", "rdp", "closed"]),
])
def test_flag_choices_keep_their_order(flag, choices, capsys):
    with pytest.raises(SystemExit):
        cli.main(["guarantee", flag, "bogus"])
    err = capsys.readouterr().err.rpartition("choose from")[2]
    assert re.findall(r"\w+", err) == choices


def documented_exit_codes():
    return {name: int(code) for code, cell in readme_table("exit")
            for name in re.findall(r"`(\w+)`", cell)}


LIBRARY_ERRORS = [cls for cls in vars(errors).values()
                  if isinstance(cls, type) and issubclass(cls, Exception)]


def test_readme_exit_table_lists_every_library_error_once():
    rows = [re.findall(r"`(\w+)`", cell) for _, cell in readme_table("exit")]
    listed = [name for row in rows for name in row]
    assert sorted(listed) == sorted([c.__name__ for c in LIBRARY_ERRORS] + ["ValueError"])


@pytest.mark.parametrize("exc", LIBRARY_ERRORS + [ValueError],
                         ids=lambda cls: cls.__name__)
def test_each_error_exits_with_its_documented_code(exc, monkeypatch, capsys):
    def fail(*args, **kwargs):
        raise exc("the reason")

    monkeypatch.setattr(scenario, "resolve", fail)
    rc = cli.main(["guarantee", "--base", "gaussian", "--sigma", "4",
                   "--delta", "1e-6"])
    out = capsys.readouterr()
    assert rc == documented_exit_codes()[exc.__name__]
    assert out.out == ""
    assert out.err == "error: the reason\n"


def test_other_errors_propagate(monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("a bug")

    monkeypatch.setattr(scenario, "resolve", fail)
    with pytest.raises(RuntimeError, match="a bug"):
        cli.main(["guarantee", "--base", "gaussian", "--sigma", "4",
                  "--delta", "1e-6"])


def test_inadmissible_fixed_eps1_exits_3(capsys):
    rc = cli.main(["guarantee", "--base", "gaussian", "--sigma", "1",
                   "--family", "binomial", "--n", "10", "--p", "0.5",
                   "--eps1", "0.0001", "--delta", "1e-6"])
    out = capsys.readouterr()
    assert (rc, out.out) == (3, "")
    assert out.err == ("error: eps1=0.0001 is below the admissibility "
                       "threshold 0.264954\n")


def subcommands():
    """Each subcommand's parser, by name."""
    parser = cli.build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


def options(parser):
    """The first option string of each option, or a positional's name, in
    the order the parser declares them, help left out."""
    return tuple(a.option_strings[0] if a.option_strings else a.dest
                 for a in parser._actions if a.dest != "help")


def config_keys(command, tmp_path):
    """The top-level config keys the command reads, as its error for an
    unread key names them; None for a command without --config."""
    if "--config" not in options(subcommands()[command]):
        return None
    path = tmp_path / "unread.json"
    path.write_text('{"unread_key": 1}')
    with pytest.raises(errors.ConfigError) as info:
        cli._load_config(cli.build_parser().parse_args([command, "--config", str(path)]))
    return tuple(str(info.value).rpartition("its keys are ")[2].split(", "))


def test_readme_command_table_lists_each_commands_flags_and_config_keys(tmp_path):
    documented = [(command.strip("`"), tuple(n for n in names(flags) if n),
                   None if keys == "(no config)" else names(keys))
                  for command, flags, keys in readme_table("command")]
    assert documented == [(command, options(parser), config_keys(command, tmp_path))
                          for command, parser in subcommands().items()]


# each subcommand's option strings, written out by hand so that a change
# to the flag table cannot add or drop one unnoticed; guarantee's --out,
# which nothing read, is gone
OPTION_STRINGS = {
    "profile": ["--base", "--config", "--eps-base", "--eps-grid", "--grid-spacing",
                "--help", "--out", "--q", "--sensitivity", "--sigma", "--steps", "-h"],
    "compare": ["--grid-spacing", "--help", "--out", "-h"],
    "guarantee": ["--base", "--config", "--delta", "--eps", "--eps-base", "--eps1",
                  "--eta", "--family", "--format", "--gamma", "--grid-spacing",
                  "--help", "--m", "--method", "--monotone", "--n", "--p", "--q",
                  "--rounds", "--sensitivity", "--sigma", "--steps", "-h"],
    "adjust": ["--config", "--delta", "--eps-q", "--eta", "--grid-spacing", "--help",
               "--m", "--out", "--q", "--sigmas", "-h"],
    "oracle": ["--help", "-h"],
}


def test_each_subcommand_accepts_exactly_its_option_strings():
    got = {command: sorted(s for a in parser._actions for s in a.option_strings)
           for command, parser in subcommands().items()}
    assert got == OPTION_STRINGS


def test_readme_exit_table_is_the_cli_exit_table():
    documented = {(name, int(code)) for code, cell in readme_table("exit")
                  for name in re.findall(r"`(\w+)`", cell)}
    assert documented == {(cls.__name__, code)
                          for classes, code in cli._EXIT_CODES for cls in classes}
