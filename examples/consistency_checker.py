#!/usr/bin/env python3
"""ConsistencyChecker — the paper's footnote-1 tool, reimplemented.

Compares the complete outcome sets of litmus programs under the 370 and
x86 memory models; the behaviours allowed by x86 but not by 370 are the
observable store-atomicity violations, each shown with the 370 cycle
that forbids it.  Also runs the discovery mode: every program of two
threads, up to three operations each, over two addresses is judged
(``repro synth``'s 2x3x2 space), and the minimal programs whose x86
outcomes exceed 370's are printed.

Run:  python examples/consistency_checker.py
"""

from repro.litmus import FIG5, MP, N6, SB, find_races, litmus_registry
from repro.litmus.program import canonical_key
from repro.synth import SynthBounds, search


def check_known_tests():
    print("=" * 72)
    print("Known litmus tests: 370 vs x86 outcome sets")
    print("=" * 72)
    for program in (MP, SB, N6, FIG5):
        report = find_races(program)
        print()
        print(report.summary())
        if report.multi_copy_atomic:
            print("    -> store atomicity cannot be observed violated "
                  "by this test")
        else:
            print("    -> x86 exhibits non-store-atomic behaviour here")


def discovery_mode():
    bounds = SynthBounds(threads=2, max_ops=3, addresses=2)
    print()
    print("=" * 72)
    print(f"Discovery mode: every program in {bounds.describe()}")
    print("=" * 72)
    result = search(bounds, pairs=[("370", "x86")])
    known = {canonical_key(program): name
             for name, program in litmus_registry().items()}
    print(f"\nfound {result.distinct} minimal programs with x86-only "
          f"behaviours among {result.enumerated} programs:\n")
    for (_, key), dist in sorted(result.distinguishers.items()):
        print(f"  key {key}: " + (f"the battery's {known[key]}"
                                  if key in known else "not in the battery"))
        for tid, thread in enumerate(dist.program.threads):
            print(f"  T{tid}: " + " ; ".join(str(op) for op in thread))
        for outcome in dist.weak_only:
            print(f"    x86-only: {outcome}")
        print()


if __name__ == "__main__":
    check_known_tests()
    discovery_mode()
