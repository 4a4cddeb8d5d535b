"""Enumerating the families from the constraint systems.

Each pair of extremal-ray types turns the intersection theory into a
small Diophantine system; the solvers derive every unknown exactly and
keep the finitely many solutions.  This demo runs one case in detail and
then assembles the whole rank-2 table.
"""

from fanoenum import RayType, enumerate_all, label, record_to_row, solve_E1_C, solve_E1_D

# Case: a blowup X -> Y with exceptional type E1, fibred in conics (C1).
# The system pins (index of Y, generator cube, center degree, genus,
# discriminant degree) to exactly five solutions.  The solvers know nothing
# of the classification table: label() names each record by its table row.
print("E1 + C1 solutions:")
records = solve_E1_C(RayType.C1)
for rec, row in zip(records, label(records)):
    conic_ray, blowup_ray = rec.rays
    print(
        "  %-4s  (-K)^3=%2d  Y has index %d, L^3=%d;  center: degree %d, genus %d;"
        "  deg Delta = %d"
        % (
            row.table_id,
            rec.kx3,
            blowup_ray.r,
            blowup_ray.L3,
            blowup_ray.degB,
            rec.genus,
            conic_ray.deg_delta,
        )
    )

# Over-constrained cases simply come back empty or short: del Pezzo
# fibrations of degree 3 admit a single compatible blowup structure.
(rec,) = solve_E1_D(RayType.D3)
print(
    "\nthe one E1 + D3 family:", record_to_row(rec).table_id,
    "with description:", rec.description,
)

# The full table: 36 families, sorted by degree like the classification.
records = enumerate_all(2)
print("\nrank 2 families:", len(records))
print("degrees:", [rec.kx3 for rec in records])

# Restricting to primitive families (no E1 ray) leaves nine...
primitive = enumerate_all(2, primitive_only=True)
print("\nprimitive rank 2 families:")
for rec, row in zip(primitive, label(primitive)):
    print("  %-4s  (-K)^3=%2d  %s" % (row.table_id, rec.kx3, rec.description))

# ...and rank 3 adds the four primitive families there.
print("\nprimitive rank 3 families:")
rank3 = enumerate_all(3, primitive_only=True)
for rec, row in zip(rank3, label(rank3)):
    rays = " + ".join(ray.ray_type.display for ray in rec.rays)
    print("  %-4s  (-K)^3=%2d  rays %-12s  %s" % (row.table_id, rec.kx3, rays, rec.description))
