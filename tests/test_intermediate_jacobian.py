"""h^{1,2}(X) two ways: each ray of a record estimates it, and they must agree.

Each estimate uses geometry the engine never encodes, on data it outputs:

* a conic bundle over P^2 with discriminant of degree d: X's intermediate
  Jacobian is the Prym variety of the double cover of the discriminant
  (Beauville 1977), so h^{1,2} = (d - 1)(d - 2)/2 - 1; over P^1 x P^1 with
  discriminant bidegree (a, b) it is (a - 1)(b - 1) - 1;
* the blowup of Y along a curve of genus g (E1): h^{1,2}(Y) + g;
* the blowup of Y at a point (E2): h^{1,2}(Y).

h^{1,2}(Y) is 0 for P^3 and the quadric Q, and 21, 10, 5, 2, 0 for
V_1 ... V_5 (Iskovskikh-Prokhorov, Table 12.2).  Del Pezzo fibrations and
contractions to singular points give no estimate.
"""

from fanoenum.enumerator import enumerate_all
from fanoenum.ray_constraints import C_TYPES, RayType
from fanoenum.table_oracle import label

# h^{1,2} of the index-r target with generator cube L^3: P^3, Q, or V_{L^3}
_TARGET_H12 = {4: {1: 0}, 3: {2: 0}, 2: {1: 21, 2: 10, 3: 5, 4: 2, 5: 0}}


def _estimates(record):
    """The h^{1,2} estimate of each ray of ``record`` that gives one."""
    estimates = []
    for spec in record.rays:
        if spec.ray_type in C_TYPES:
            if spec.delta_bidegree is not None:
                a, b = spec.delta_bidegree
                estimates.append((a - 1) * (b - 1) - 1)
            else:
                d = spec.deg_delta
                estimates.append((d - 1) * (d - 2) // 2 - 1)
        elif spec.ray_type is RayType.E1 and spec.r is not None:
            estimates.append(_TARGET_H12[spec.r][spec.L3] + spec.genus)
        elif spec.ray_type is RayType.E2:
            estimates.append(_TARGET_H12[spec.r][spec.L3])
    return estimates


def test_the_rays_of_every_record_agree_on_h12():
    records = enumerate_all(2) + enumerate_all(3, primitive_only=True)
    assert len(records) == 40
    h12, two_ways = {}, 0
    for record, row in zip(records, label(records)):
        estimates = _estimates(record)
        assert estimates and min(estimates) >= 0, (row.table_id, estimates)
        assert len(set(estimates)) == 1, (row.table_id, estimates)
        h12[row.table_id] = estimates[0]
        two_ways += record.rho == 2 and len(estimates) == 2
    assert two_ways == 18
    assert [h12[table_id] for table_id in ("3-1", "3-2", "3-27", "3-31")] == [8, 3, 0, 0]
