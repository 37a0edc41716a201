"""Regenerate ``population_seeds.json``: stratified cdr180 population seeds.

A population seed qualifies when ``sample_die`` injects exactly four
faults, all different, into the 40-die population (exactly the spec's
10 % incidence), and three of them are the cdr180 faults that leave the
fast path: the pump dead zone settles on the scalar simulator, and the
cap leak and the R2 collapse hand most of their tones back to the scalar
sequencer.  Screening cost depends strongly on whether a draw holds
those three, so an unstratified draw would make ``dies_per_s`` measure
the seed rather than the program.  The fourth fault, the tolerances and
the fault positions change with the seed.  The benchmark maps ``--seed
n`` to entry ``n % len(seeds)``.

Run from the repository root (takes a few seconds)::

    PYTHONPATH=src python3 perfbench/stratify.py 64 > perfbench/population_seeds.json
"""

import json
import sys

from repro.pll.population import PopulationSpec, ToleranceSpec
from repro.pll.population.samplers import sample_die

CORNER = "cdr180"
SIZE = 40
FAULT_RATE = 0.1
REL_SIGMA = 0.03
FAULTS = round(SIZE * FAULT_RATE)
#: The faults that leave the fast path; every population holds each once.
SCALAR_TAIL = frozenset({"pump dead zone (scaled)", "cap leak (scaled)",
                         "R2 at 10% (zeta collapse)"})


def spec_for(seed: int, size: int = SIZE) -> PopulationSpec:
    return PopulationSpec(
        corner=CORNER,
        size=size,
        seed=seed,
        tolerance=ToleranceSpec("normal", REL_SIGMA),
        fault_rate=FAULT_RATE,
        points=9,
    )


def composition_ok(faults) -> bool:
    """True for ``FAULTS`` different faults that include ``SCALAR_TAIL``."""
    return (len(faults) == FAULTS and len(set(faults)) == FAULTS
            and SCALAR_TAIL <= set(faults))


def stratified(seed: int) -> bool:
    spec = spec_for(seed)
    faults = []
    for index in range(SIZE):
        fault = sample_die(spec, index).fault
        if fault is not None:
            faults.append(fault)
            if len(faults) > FAULTS:
                return False
    return composition_ok(faults)


def main() -> None:
    wanted = int(sys.argv[1]) if len(sys.argv) > 1 else 64
    seeds = []
    candidate = 0
    while len(seeds) < wanted:
        if stratified(candidate):
            seeds.append(candidate)
        candidate += 1
    json.dump({"corner": CORNER, "size": SIZE, "fault_rate": FAULT_RATE,
               "rel_sigma": REL_SIGMA, "seeds": seeds}, sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
