"""Set-up of one benchmark run: import the program, write the seeded field
files and, for check-warm, fill one mould cache per field with an
untimed `normalize`.

Run as a script it does the set-up in a fresh interpreter and prints
{"setup_s": ...} measured from the start of the interpreter's own work,
so that the import is part of the figure, at the reference speed of
calibrate.py: the reference loop runs between the segments of the set-up
(the import and the field files, then each cache fill), outside the
figure, and each segment is scaled by the loops around it:

    python3 bench/prepare.py --workload check-warm --seed 1 --dir DIR
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402

import calibrate  # noqa: E402
import fields  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")


def import_program():
    """mouldcalc.cli from this checkout's sources, never an installed copy."""
    if not os.path.isfile(os.path.join(SRC, "mouldcalc", "__init__.py")):
        raise SystemExit(f"error: no mouldcalc sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import mouldcalc.cli
    if not os.path.abspath(mouldcalc.cli.__file__).startswith(SRC + os.sep):
        raise SystemExit("error: mouldcalc was not imported from "
                         f"{SRC}: {mouldcalc.cli.__file__}")
    return mouldcalc.cli


class SetupClock:
    """Sums a set-up's wall time at the reference speed, a segment at a
    time; `lap` ends a segment and starts the next."""

    def __init__(self, start: float):
        self.mark = start
        self.loop_before = None  # nothing runs before the interpreter
        self.total = 0.0

    def lap(self) -> None:
        wall = time.perf_counter() - self.mark
        loop_after = calibrate.reference_loop()
        self.total += calibrate.at_reference(
            wall, self.loop_before or loop_after, loop_after)
        self.loop_before = loop_after
        self.mark = time.perf_counter()


def prepare(workload: str, seed: int, mix: str, directory,
            lap=lambda: None) -> list:
    """Write the inputs of `workload` into `directory`; returns the specs.
    `lap` is called at the end of each segment of the set-up."""
    cli = import_program()
    os.makedirs(directory, exist_ok=True)
    specs = fields.generate(seed, mix)
    for i, spec in enumerate(specs):
        fields.write_field(workloads.field_path(directory, i), spec)
    lap()
    if workload == "check-warm":
        fill = os.path.join(directory, "fill")
        for i in range(len(specs)):
            code = cli.main(workloads.normalize_argv(
                workloads.field_path(directory, i), fill,
                workloads.cache_path(directory, i)))
            if code != 0:
                raise RuntimeError(f"cache fill of field {i} exited {code}")
            lap()
        shutil.rmtree(fill)
    return specs


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--mix", choices=sorted(fields.MIXES), default="full")
    p.add_argument("--dir", required=True)
    args = p.parse_args()
    clock = SetupClock(_T0)
    prepare(args.workload, args.seed, args.mix, args.dir, clock.lap)
    clock.lap()
    print(json.dumps({"setup_s": clock.total}))


if __name__ == "__main__":
    main()
