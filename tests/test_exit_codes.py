"""The CLI's exit-code contract, as a seeded in-process property.

Every `guarantee` call, however wild its fields, returns 0 or a code of
`cli._EXIT_CODES`.  A non-zero code prints exactly one `error:` line and
nothing on stdout; a zero code prints one answer line with a finite eps,
a delta in [0, 1], an eps1 that is not negative, and no field printed as
-0.  Under this suite a RuntimeWarning is an error, so a call that warns
fails too.

The calls range over every base kind that builds no loss grid (a
subsampled Gaussian base composes one, whose memory a wild field can
blow up), every family and every method, a --delta or --eps target, and
optional --eps1, --sensitivity and --monotone.  Each field is an edge
value or a log-uniform draw; most calls draw one field from the edges.
"""

import contextlib
import io
import json
import math
import random
import re

import pytest

from privsel import cli, scenario

BASE_KINDS = [k for k in scenario.BASES if k != "subsampled_gaussian"]
FAMILY_KINDS = list(scenario.FAMILIES)
METHODS = list(dict.fromkeys(m for _, ms in scenario.FAMILIES.values() for m in ms))
EXIT_CODES = {code for _, code in cli._EXIT_CODES}
CALLS_PER_BASE = 600

EDGES = ("0", "-0.0", "1", "-1", "5e-324", "1e-300", "1e+300", "-1e+300",
         "nan", "inf", "-inf", "2", "10", "300")
INTEGER_FIELDS = {"n", "rounds"}
# log10 range of the ordinary draws of each field
LOG_RANGE = {"sigma": (-1, 2), "sensitivity": (-1, 1), "eps": (-3, 1),
             "eta": (-2, 1), "gamma": (-8, 0), "p": (-8, 0), "m": (0, 3),
             "n": (0, 3), "rounds": (0, 1), "delta": (-12, 0), "eps1": (-3, 1)}
ANSWER = re.compile(r"eps=(\S+) delta=(\S+) method=\S+ eps1=(\S+)\n")


def draw(rng, field, integer, edge):
    """A field's text: an edge value with probability `edge`, else a
    log-uniform draw, rounded for an integer field."""
    if rng.random() < edge:
        return rng.choice(EDGES)
    x = 10.0 ** rng.uniform(*LOG_RANGE[field])
    return str(round(x)) if integer else repr(x)


def sometimes(rng, usual):
    """Whether to give an optional flag: often where the query reads it
    (usual), rarely elsewhere, so that most calls reach a computing route
    and the refusals of unread fields still show."""
    return rng.random() < (0.3 if usual else 0.03)


def random_call(rng, kind, config_path):
    """The argv of one guarantee call on a base of this kind; a points
    base is written to config_path, since it has no flag."""
    argv = ["guarantee"]
    fields = []  # (flag, field, integer), each given a value below
    if kind == "points":
        points = [[float(draw(rng, "eps", False, 0.1)), float(draw(rng, "delta", False, 0.1))]
                  for _ in range(rng.randint(1, 3))]
        config_path.write_text(json.dumps({"base": {"kind": "points", "points": points}}))
        argv += ["--config", str(config_path)]
    else:
        argv.append(f"--base={kind}")
        fields.append(("--sigma", "sigma", False) if kind == "gaussian"
                      else ("--eps-base", "eps", False))
    family = rng.choice(FAMILY_KINDS)
    family_fields, methods = scenario.FAMILIES[family]
    if family is not None:
        argv.append(f"--family={family}")
        # negbin and binomial read exactly one of their last two fields
        either = family_fields[-2:] if family in ("negbin", "binomial") else ()
        pick = rng.choice(either) if either and rng.random() < 0.85 else None
        for field in family_fields:
            given = field == pick if field in either and pick else rng.random() < 0.8
            if field != "monotone" and given:
                fields.append((f"--{field}", field, field in INTEGER_FIELDS or family == "rnm"))
    method = rng.choice(methods if rng.random() < 0.85 else METHODS)
    argv.append(f"--method={method}")
    target = rng.choice(("delta", "eps"))
    fields.append((f"--{target}", "delta" if target == "delta" else "eps", False))
    if sometimes(rng, method == "hs" and family not in (None, "rnm")):
        fields.append(("--eps1", "eps1", False))
    if sometimes(rng, kind == "gaussian"):
        fields.append(("--sensitivity", "sensitivity", False))
    if sometimes(rng, family == "rnm"):
        argv.append("--monotone")
    # most calls give one field an edge value and draw the rest ordinarily:
    # a wild field then meets the arithmetic it feeds
    wild = rng.randrange(len(fields)) if rng.random() < 0.7 else None
    for i, (flag, field, integer) in enumerate(fields):
        argv.append(f"{flag}={draw(rng, field, integer, 1.0 if i == wild else 0.05)}")
    return argv


@pytest.mark.parametrize("kind", BASE_KINDS)
def test_every_call_ends_in_a_documented_exit_code(kind, tmp_path):
    rng = random.Random(f"exit-codes-{kind}")
    config_path = tmp_path / "base.json"
    answered = 0
    for _ in range(CALLS_PER_BASE):
        argv = random_call(rng, kind, config_path)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
        out, err = out.getvalue(), err.getvalue()
        if rc == 0:
            match = ANSWER.fullmatch(out)
            assert match and err == "", (argv, out, err)
            eps, delta, eps1 = (float(field) for field in match.groups())
            assert math.isfinite(eps) and 0 <= delta <= 1, (argv, out)
            # eps1 is nan where the route reads none
            assert "-0" not in match.groups() and not eps1 < 0, (argv, out)
            answered += 1
        else:
            assert rc in EXIT_CODES, (argv, rc, err)
            assert out == "", (argv, out)
            assert err.startswith("error: ") and err.count("\n") == 1 \
                and err.endswith("\n"), (argv, err)
    # the draws reach the computing routes, not only the field checks
    assert answered >= CALLS_PER_BASE // 10


# -0 passes every range check a field has; read as 0.0, it prints as 0
NEGATIVE_ZERO_CALLS = [
    (["--base", "gaussian", "--sigma", "4", "--family", "poisson", "--m", "10",
      "--eps1", "-0", "--delta", "1e-6"],
     "eps=2.17651081085 delta=1e-06 method=hs eps1=0"),
    (["--base", "pure", "--eps-base", "-0", "--family", "negbin", "--m", "10",
      "--method", "closed", "--delta", "1e-6"],
     "eps=0 delta=1e-06 method=closed eps1=nan"),
    (["--base", "gaussian", "--sigma", "4", "--family", "binomial", "--n", "10",
      "--p", "0.1", "--eps=-0.0"],
     "eps=0 delta=1 method=hs eps1=0.0104804531378"),
]


@pytest.mark.parametrize("argv, text", NEGATIVE_ZERO_CALLS,
                         ids=["eps1", "eps-base", "eps"])
def test_a_negative_zero_input_prints_no_negative_zero(argv, text, capsys):
    assert cli.main(["guarantee", *argv]) == 0
    assert capsys.readouterr().out == text + "\n"
    assert cli.main(["guarantee", *argv, "--format", "json"]) == 0
    answer = json.loads(capsys.readouterr().out)
    for key in ("eps", "delta", "eps1"):
        if answer[key] is not None:
            assert math.copysign(1.0, answer[key]) == 1.0, (key, answer)
