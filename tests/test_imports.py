"""scipy is imported at first use, inside the two numeric routes that call
it: StretchedTail's erfcx (scipy.special) and the quad fallback
(scipy.integrate).  PowerEndpoint's Jacobi rule is numpy's alone, so a power
mc that never falls back loads no scipy module.  pytest's own warning filter
imports scipy.integrate into this process, so each check runs a fresh
interpreter."""

import json
import os
import subprocess
import sys
import textwrap

import tailsum
from tailsum import StretchedTail, m_p_value
from tailsum.cli import EXIT_OK, main
from test_cli import strip_timestamp

SRC = os.path.dirname(os.path.dirname(os.path.abspath(tailsum.__file__)))
TIMEOUT_S = 60

MC_SMALL = ["--n", "1000", "--pmax", "3", "--reps", "64", "--seed", "5"]
# at k = 230 the deterministic threshold passes the recurrence's check but
# some random ones fall below it, so quad is reached only by replication
# blocks
MC_LIGHT = {
    "stretched": ["--dist", "stretched", *MC_SMALL, "--k", "100"],
    "power": ["--dist", "power", "--gamma", "1.5", *MC_SMALL, "--k", "100"],
    "stretched-quad": ["--dist", "stretched", *MC_SMALL, "--k", "230"],
}


def _start(script, tmp_path):
    """Start a fresh interpreter (under -X dev when this one is) running
    ``script`` in ``tmp_path``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    return subprocess.Popen(
        [sys.executable, *dev, "-c", textwrap.dedent(script)],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


def _finish(proc):
    """The parsed JSON that ``proc`` printed last; it must exit 0 and write
    nothing to stderr."""
    out, err = proc.communicate(timeout=TIMEOUT_S)
    assert proc.returncode == 0, err
    assert err == ""
    return json.loads(out.splitlines()[-1])


FOOTPRINT = """
    import json, sys
    import tailsum.cli as cli

    def loaded():
        return [m for m in ("scipy.special", "scipy.integrate", "scipy.linalg") if m in sys.modules]

    with open("obs.txt", "w") as f:
        f.write("\\n".join(str(2.0 ** (i / 7)) for i in range(1, 200)))
    runs = {
        "import": None,
        "estimate": ["estimate", "--input", "obs.txt", "--k", "50", "--l", "2", "--pmax", "4"],
        "estimate-weibull": ["estimate", "--input", "obs.txt", "--k", "50", "--domain", "weibull", "--gamma", "2"],
        "tables-i": ["tables", "--family", "type1", "--vmax", "6", "--dmax", "6"],
        "tables-ii": ["tables", "--family", "type2", "--tau", "3", "--vmax", "6", "--dmax", "3"],
        "tables-iii": ["tables", "--family", "type3", "--tau", "3", "--vmax", "6", "--dmax", "4"],
        "covariance": ["covariance", "--domain", "gumbel", "--pmax", "4", "--reduced"],
        "oracle": ["oracle", "2", "3", "--grid", "64"],
        "mc-pareto": ["mc", "--dist", "pareto", *%(mc)r, "--workers", "2"],
        "mc-pareto-reduced": ["mc", "--dist", "pareto", *%(mc)r, "--reduced"],
        "mc-power": ["mc", "--dist", "power", "--gamma", "1.5", *%(mc)r],
    }
    result = {}
    for name, args in runs.items():
        code = 0 if args is None else cli.main([*args, "--output", name + ".out"])
        result[name] = [code, loaded()]
    result["mc-stretched"] = cli.main(["mc", "--dist", "stretched", *%(mc)r, "--output", "s.out"])
    print(json.dumps(result))
""" % {"mc": [*MC_SMALL, "--k", "100"]}

MC_FRESH = """
    import json, sys
    import tailsum.cli as cli
    import tailsum.distributions as dist

    quadrature = dist.m_p_quadrature
    fallbacks = []

    def recorded(*args):
        fallbacks.append("scipy.integrate" in sys.modules)
        return quadrature(*args)

    dist.m_p_quadrature = recorded
    before = "scipy.special" in sys.modules
    code = cli.main(["mc", *%r, "--workers", "2", "--output", "mc.out"])
    with open("mc.out") as f:
        print(json.dumps([before, code, fallbacks, f.read()]))
"""

QUAD = """
    import json, sys
    from tailsum import StretchedTail, m_p_value

    before = "scipy.integrate" in sys.modules
    value = m_p_value(StretchedTail(), 2, 0.5)
    print(json.dumps([before, "scipy.integrate" in sys.modules, value.hex()]))
"""


def test_scipy_not_loaded_by_routes_without_it(tmp_path):
    # no scipy module is loaded at import, by any route without a
    # StretchedTail centering value, or by a power mc that takes no quad
    # fallback; stretched mc still runs
    footprint = _finish(_start(FOOTPRINT, tmp_path))
    assert footprint.pop("mc-stretched") == EXIT_OK
    assert footprint == {name: [EXIT_OK, []] for name in footprint}
    assert len(footprint) == 11


def test_first_use_in_fresh_interpreters_and_quad(tmp_path, capsys):
    procs = {}
    for name in ("quad", *MC_LIGHT):
        (tmp_path / name).mkdir()
        script = QUAD if name == "quad" else MC_FRESH % (MC_LIGHT[name],)
        procs[name] = _start(script, tmp_path / name)
    # the references, computed here, where scipy is loaded, while the
    # children run
    expected = {}
    for name, args in MC_LIGHT.items():
        assert main(["mc", *args, "--workers", "1"]) == EXIT_OK
        expected[name] = strip_timestamp(capsys.readouterr().out)
    quad_value = m_p_value(StretchedTail(), 2, 0.5)

    # a fresh interpreter writes this process's bytes; StretchedTail's
    # centering imports scipy.special, and on the k = 230 run the first quad
    # fallback, made by a replication block, imports scipy.integrate
    for name in MC_LIGHT:
        before, code, fallbacks, out = _finish(procs[name])
        assert (before, code) == (False, EXIT_OK)
        assert strip_timestamp(out) == expected[name]
        if name == "stretched-quad":
            assert len(fallbacks) > 1
            assert fallbacks[0] is False
        else:
            assert fallbacks == []

    # m_2 at 0.5 fails the recurrence's check, so it imports scipy.integrate
    # for the quad fallback, and gives this process's value bit for bit
    before, after, value = _finish(procs["quad"])
    assert (before, after) == (False, True)
    assert float.fromhex(value) == quad_value
