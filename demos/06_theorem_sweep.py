"""Sweeping the proposition registry and replaying witnesses.

Every claim about AB-sets, space characterizations, and the continuity
hierarchy is checked by brute force over all small spaces.  Universal
claims report counterexamples if any exist; existential claims search
for witnesses and emit them as replayable JSON documents.
"""

import json

from fintopo import (
    EnumerationBudget,
    SetClass,
    find_counterexample,
    registry,
    replay_witness,
    verify,
)

print("registered propositions:", len(registry()))
for p in registry()[:5]:
    print(f"  {p.id}: {p.description}")
print("  ...")

# a universal claim: AB-set iff semi-open B-set iff beta-open B-set,
# swept over every subset of every space on up to four points
report = verify("t00")
print(f"\nt00: {report.verdict} over {report.sets_checked} subsets of "
      f"{report.spaces_checked} spaces")

# a space-level equivalence
report = verify("t5")
print(f"t5: {report.verdict} over {report.spaces_checked} spaces")

# an existential claim: somewhere an AB-set is not an A-set; the
# canonical witness appears at four points
report = verify("nonrev-ab-a")
w = report.witnesses[0]
doc = w.to_document()
print(f"\nnonrev-ab-a: {report.verdict}, {report.hits} hit(s)")
print("witness:", json.dumps(doc, sort_keys=True))

# witnesses replay after a serialization round trip
assert replay_witness(json.loads(json.dumps(doc))) is True
print("witness replays: True")

# directed search: first set in one class but not another
w = find_counterexample(SetClass.B_SET, SetClass.AB_SET)
print("\nfirst B-set that is not an AB-set:",
      json.dumps(w.to_document(), sort_keys=True))

# a map sweep runs on a process pool only when it is long enough to
# pay for one; the report is the same either way
report = verify("s42", EnumerationBudget(max_n=2))
print(f"\ns42 at n<=2: {report.verdict} over {report.maps_checked} maps")
