"""The CLI's tables against README: the scenario kinds with their fields,
the families with their methods, and the exit code of every library
exception, each checked through `cli.main` where it can be."""

import re
from pathlib import Path

import pytest

from privsel import cli, errors

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
    assert documented == [*cli._BASES.items(),
                          *((f, fields) for f, (fields, _) in cli._FAMILIES.items() if f)]


def test_readme_family_table_lists_each_familys_methods():
    documented = [(None if family.startswith("none") else family, names(methods))
                  for family, methods in readme_table("family")]
    assert documented == [(f, methods) for f, (_, methods) in cli._FAMILIES.items()]


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
    def fail(*args):
        raise exc("the reason")

    monkeypatch.setattr(cli, "_resolve", fail)
    rc = cli.main(["guarantee", "--base", "gaussian", "--sigma", "4",
                   "--delta", "1e-6"])
    out = capsys.readouterr()
    assert rc == documented_exit_codes()[exc.__name__]
    assert out.out == ""
    assert out.err == "error: the reason\n"


def test_other_errors_propagate(monkeypatch):
    def fail(*args):
        raise RuntimeError("a bug")

    monkeypatch.setattr(cli, "_resolve", fail)
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
