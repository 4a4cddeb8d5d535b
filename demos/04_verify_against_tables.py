"""Diffing computed families against the embedded classification tables.

The package ships the classification tables as data; nothing in the
solvers reads them except to attach row labels.  The diff machinery
compares every invariant the tables state, so a single perturbed number
shows up immediately.
"""

from fanoenum import diff, enumerate_all, ground_truth, label

# The central check: the computed tables match the embedded ones exactly.
for rho, primitive_only in ((2, False), (3, True)):
    records = enumerate_all(rho, primitive_only=primitive_only)
    rows = ground_truth(rho, primitive_only=primitive_only)
    report = diff(records, rows)
    print("rank %d (%d families): %s" % (rho, len(rows), report.render()))

# To see what a failure looks like, doctor one computed row.  Records
# re-validate themselves on construction, so the fault is injected in
# the solver-independent row shape instead; label projects every record
# with one read of the ground truth.
rows = list(label(enumerate_all(2)))
rows[6] = rows[6]._replace(kx3=rows[6].kx3 + 2)
genus = dict(rows[8].invariants)
genus["genus"] = (None, 4)
rows[8] = rows[8]._replace(invariants=genus)
del rows[20]

report = diff(rows, ground_truth(2))
print("\nafter doctoring three rows:")
print(report.render())

# Reports are truthy exactly when something differs, so they gate
# cleanly in scripts and in the CLI (`fanoenum verify`).
assert report
assert not diff(enumerate_all(2), ground_truth(2))
