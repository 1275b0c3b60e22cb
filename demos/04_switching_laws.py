"""
Switching laws and their occupation schedules
=============================================

Every switching law boils down to a schedule of occupation
probabilities: row k gives the chance of each mode at transition k.
This script builds all four law kinds, prints the schedules they
induce, and shows the contraction certificate for periodic sequences.
"""

from jumpstab import (
    IIDSwitching,
    JumpLinearSystem,
    MarkovSwitching,
    ScheduleSwitching,
    SequenceSwitching,
    contraction_test,
    marginal_schedule,
)


def show_schedule(title, law, k_max, m=None):
    rows = marginal_schedule(law, k_max, m=m)
    print(f"\n{title}")
    for k, row in enumerate(rows, start=1):
        cells = " ".join(f"{p:.4f}" for p in row)
        print(f"  k={k}: [{cells}]")


# i.i.d.: the same vector every step
show_schedule("i.i.d. pi = (0.2, 0.8)", IIDSwitching([0.2, 0.8]), 4)

# Markov: row k is pi0 P^k
chain = MarkovSwitching(P=[[0.9, 0.1], [0.4, 0.6]], pi0=[0.0, 1.0])
show_schedule("Markov from pi0 = (0, 1)", chain, 6)

# schedule: explicit rows, last row repeating beyond the list
table = ScheduleSwitching([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
show_schedule("explicit 3-row schedule, repeated past its end", table, 5)

# sequence: deterministic indices become indicator rows
seq = SequenceSwitching((1, 1, 2))
show_schedule("sequence (1, 1, 2) cycling", seq, 6, m=2)

# For periodic sequences a single contractive prefix product certifies
# stability of the repeated pattern.  Two growth steps followed by one
# strong contraction contract only over the full period.
system = JumpLinearSystem(modes=[[[1.5]], [[0.2]]])  # grow, drop
report = contraction_test(system, seq)
print("\ncontraction test on (grow, grow, drop):")
print(f"  verdict:      {report.verdict}")
print(f"  prefix length {report.horizon_used}, norm {report.evidence}")
for note in report.notes:
    print(f"  note: {note}")
