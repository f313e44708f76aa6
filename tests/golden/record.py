"""Record or compare the ten v1 golden outputs.

Two configs, the README ball (``ball.json``) and the rigid body
``[1,2,3]`` (``rigid.json``), each run through the five subcommands:
``simulate --t-end 20``, ``phase``, ``torus`` (grid 3 for the ball, 5
for the rigid body), ``verify --checks all --seed 0`` and one sweep.
Each run writes into a fresh directory with the relative ``--out
<system>``, so the embedded ``output.dir`` is ``ball`` or ``rigid``
wherever the script runs, and no ``RECONPHASE_*`` override applies.

    python tests/golden/record.py                    # write all ten again
    python tests/golden/record.py --check            # compare, exit 1 on a difference
    python tests/golden/record.py --check --commands verify

A change that moves bits records the outputs again, so the moved values
show in its own diff.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import os
import shutil
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(HERE, os.pardir, os.pardir, "src"))

from reconphase import cli  # noqa: E402

SYSTEMS = ("ball", "rigid")
COMMANDS = {  # command -> (output file, extra arguments per system)
    "simulate": ("trajectory.csv", {s: ["--t-end", "20"] for s in SYSTEMS}),
    "phase": ("phase.json", {s: [] for s in SYSTEMS}),
    "torus": ("torus.csv", {"ball": ["--grid", "3"], "rigid": ["--grid", "5"]}),
    "verify": ("verify.json", {s: ["--checks", "all", "--seed", "0"] for s in SYSTEMS}),
    "sweep": ("sweep.csv", {"ball": ["--param", "w", "--values", "0:1:20"],
                            "rigid": ["--param", "omega_scale",
                                      "--values", "0.5:2:10"]}),
}


@contextlib.contextmanager
def _clean_run(workdir):
    """Run in ``workdir`` without ``RECONPHASE_*`` overrides or stdout."""
    saved = {k: os.environ.pop(k) for k in list(os.environ)
             if k.startswith("RECONPHASE_")}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            yield
    finally:
        os.chdir(cwd)
        os.environ.update(saved)


def generate(workdir, commands=tuple(COMMANDS)):
    """Write the outputs of ``commands`` for both systems under
    ``workdir/<system>/``; returns their paths relative to ``workdir``."""
    written = []
    with _clean_run(workdir):
        for system in SYSTEMS:
            config = os.path.join(HERE, f"{system}.json")
            for command in commands:
                out, extra = COMMANDS[command]
                code = cli.main([command, "--config", config, "--out", system,
                                 *extra[system]])
                if code not in (0, 1):  # 1: a check failed, the file is written
                    raise RuntimeError(f"{command} on {system} exited {code}")
                written.append(os.path.join(system, out))
    return written


def differences(commands=tuple(COMMANDS)):
    """Regenerate ``commands`` in a temporary directory; returns the
    relative paths whose bytes differ from the committed files."""
    with tempfile.TemporaryDirectory() as tmp:
        differ = []
        for rel in generate(tmp, commands):
            with open(os.path.join(tmp, rel), "rb") as new:
                fresh = new.read()
            golden = os.path.join(HERE, rel)
            if not os.path.exists(golden):
                differ.append(rel)
                continue
            with open(golden, "rb") as old:
                if old.read() != fresh:
                    differ.append(rel)
        return differ


def record(commands=tuple(COMMANDS)):
    with tempfile.TemporaryDirectory() as tmp:
        for rel in generate(tmp, commands):
            os.makedirs(os.path.join(HERE, os.path.dirname(rel)), exist_ok=True)
            shutil.copyfile(os.path.join(tmp, rel), os.path.join(HERE, rel))
            print(f"recorded {rel}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="compare with the committed files instead of writing")
    parser.add_argument("--commands", default=",".join(COMMANDS),
                        help="comma-separated subset of " + ",".join(COMMANDS))
    args = parser.parse_args(argv)
    commands = [c for c in args.commands.split(",") if c]
    unknown = sorted(set(commands) - set(COMMANDS))
    if unknown:
        parser.error(f"unknown commands {unknown}")
    if not args.check:
        record(commands)
        return 0
    differ = differences(commands)
    for rel in differ:
        print(f"differs: {rel}")
    print(f"{len(differ)} of {2 * len(commands)} golden outputs differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
