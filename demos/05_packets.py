"""
Packets, multiplicity one, and the fiber audit
==============================================

Fixing the rank Sigma p_i = p carves the surviving vectors into a
packet.  Each entry carries its complete invariant (antitableau +
canonical rows); no two entries ever share one — packets are
multiplicity free — and the packet union over all ranks maps onto the
p-adic parameter space with fibers of size two (odd n) or one (even n).
Each entry is its JSON text, the same bytes that ``aqlam packet`` prints.
"""

import json

from aqlam import GoodParityParameter
from aqlam.packets import arthur_vogan, compute_packet, multiplicity_report

psi = GoodParityParameter.from_components([(12, 3), (10, 5), (7, 6)])

packet = compute_packet(psi, 6, verify=True)
print(f"rank 6: {len(packet)} survivors")
for text in packet:
    entry = json.loads(text)
    print("  p =", entry["p"], " rows:", entry["rows"])

ok, collisions = multiplicity_report(packet)
print("multiplicity free:", ok)

# The full Arthur-Vogan picture on a small odd-size parameter.
psi_odd = GoodParityParameter.from_components([(5, 2), (4, 3), (3, 2)])
report = arthur_vogan(psi_odd, verify=True)
print("total survivors across all ranks:", report.total)
print("all p-adic fibers have size 2:",
      set(report.fiber_sizes.values()) == {2})

# The same computations are scriptable from the shell:
#   aqlam check doc.json          exit 0 nonzero / 1 zero
#   aqlam packet doc.json         survivors at doc's p_rank
#   aqlam av doc.json --verify    every rank plus the fiber audit
